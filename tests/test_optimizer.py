"""Arc-growth driver: step control, continuation, insertion choice, reports."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import steklov
from steklov import discretization, greens, kernels, optimizer
from steklov.discretization import (
    OperatorSet,
    PartitionMask,
    assemble,
    mask_from_partition,
)
from steklov.eigensolver import (
    AccuracyWarning,
    ArcSpectrum,
    CirculantDecomposition,
    SecularBreakdown,
)
from steklov.errors import (
    ConfigError,
    ConvergenceError,
    RequirementError,
    ResonanceError,
    StagnationError,
)
from steklov.geometry import BoundaryPartition, circle, ellipse, kite
from steklov.greens import (
    GreensField,
    eval_greens,
    solve_greens,
)
from steklov.optimizer import (
    OptimizerConfig,
    OptimizerTrace,
    _cluster_weight,
    next_lower_steklov_eigenvalue,
    run,
    select_insertion_point,
)
from test_eigensolver import mirror_route

warnings.simplefilter("ignore", AccuracyWarning)

# Largest kite eigenvalue below 2.5, frozen from 256/512-node runs that
# agree to 2e-7 (simple, between the cluster at 2.0885 and the next above).
KITE_NEXT_LOWER = 2.273680

# Reported source-field value on the uncovered kite at 2.5 for the
# source/receiver pair used below; certified against a 1536-node run.
KITE_SOURCE_VALUE = -0.055148

DISK = circle()


def disk_config(**kw):
    base = dict(curve=DISK, source=(-0.9, 0.0), receiver=(0.0, 0.9), lambda_star=2.5,
                C_tol=1e-3, n_nodes=128)
    base.update(kw)
    return OptimizerConfig(**base)


@pytest.fixture(scope="module")
def disk_run():
    return run(disk_config())


@pytest.fixture(scope="module")
def table_run():
    return run(disk_config(n_nodes=256))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(source=(0.1, 0.1), receiver=(0.1, 0.1)),
    dict(lambda_star=0.0),
    dict(lambda_star=-2.0),
    dict(lambda_star=np.inf),
    dict(C_tol=0.0),
    dict(C_tol=-1e-3),
    dict(max_iterations=0),
    dict(n_nodes=8),
    dict(n_nodes=33),
    dict(C_tol=np.inf),
    dict(lambda_star=np.nan),
    dict(C_tol=np.nan),
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        disk_config(**kw)


def test_config_normalizes_points():
    cfg = disk_config(source=[-0.9, 0.0], receiver=(0.0, 0.9))
    assert isinstance(cfg.source, np.ndarray) and cfg.source.shape == (2,)
    assert not cfg.source.flags.writeable and not cfg.receiver.flags.writeable


# ---------------------------------------------------------------------------
# next lower eigenvalue
# ---------------------------------------------------------------------------

def test_next_lower_disk_double():
    lam, cluster = next_lower_steklov_eigenvalue(DISK, 128, 2.5)
    assert lam == pytest.approx(2.0, abs=1e-8)
    assert len(cluster) == 2
    assert all(p.value == pytest.approx(2.0, abs=1e-8) for p in cluster)


def test_next_lower_accepts_target_on_eigenvalue():
    lam, cluster = next_lower_steklov_eigenvalue(DISK, 128, 1.0)
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert len(cluster) == 2


def test_next_lower_below_first_nonzero():
    with pytest.raises(RequirementError, match="constant mode"):
        next_lower_steklov_eigenvalue(DISK, 128, 0.5)


@pytest.mark.parametrize("curve, target, first", [(DISK, 0.999, "1"),
                                                  (kite(), 0.3, "0.354")],
                         ids=["disk", "kite"])
def test_target_below_first_nonzero_names_it(curve, target, first):
    with pytest.raises(RequirementError, match=f"first nonzero eigenvalue is {first}"):
        next_lower_steklov_eigenvalue(curve, 128, target)
    with pytest.raises(RequirementError, match="constant mode"):
        run(OptimizerConfig(curve=curve, source=(-0.3, 0.2), receiver=(0.2, -0.3),
                            lambda_star=target, n_nodes=128))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_next_lower_validates_target(bad):
    with pytest.raises(ConfigError):
        next_lower_steklov_eigenvalue(DISK, 128, bad)


def test_next_lower_kite_true_value():
    lam, cluster = next_lower_steklov_eigenvalue(kite(), 256, 2.5)
    assert lam == pytest.approx(KITE_NEXT_LOWER, abs=2e-4)
    assert len(cluster) == 1


def test_next_lower_reuses_operator_set():
    ops = assemble(DISK, 128)
    lam, _ = next_lower_steklov_eigenvalue(DISK, 128, 2.5, ops=ops)
    assert lam == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# insertion point
# ---------------------------------------------------------------------------

def synthetic_field(values, lam=2.5):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return GreensField(
        source=np.array([0.1, 0.0]), lam=lam,
        steklov_fraction=np.ones(n), correction_density=np.zeros(n),
        completion_constant=0.0, boundary_values=values,
        residual=0.0, condition_estimate=1.0, offset=0.0)


# the start cluster's weight: no node is skipped
ONES = np.ones(4)


def test_insertion_argmax_for_nonnegative_value():
    fx = synthetic_field([1.0, 3.0, -2.0, 0.5])
    fy = synthetic_field([1.0, 2.0, -1.0, 0.5])
    assert select_insertion_point(fx, fy, 1.0, ONES) == 1
    assert select_insertion_point(fx, fy, 0.0, ONES) == 1


def test_insertion_argmin_for_negative_value():
    fx = synthetic_field([1.0, 3.0, -2.0, 0.5])
    fy = synthetic_field([1.0, 2.0, 1.0, 0.5])
    assert select_insertion_point(fx, fy, -1.0, ONES) == 2


def test_insertion_tie_takes_smallest_index():
    fx = synthetic_field([2.0, 1.0, 2.0, 1.0])
    fy = synthetic_field([1.0, 1.0, 1.0, 1.0])
    assert select_insertion_point(fx, fy, 1.0, ONES) == 0
    assert select_insertion_point(fx, fy, -1.0, ONES) == 1


def test_insertion_rounding_tie_takes_smallest_index():
    # mirror nodes of a symmetric input differ only in the last bits
    above = np.nextafter(3.0, 4.0)
    fx = synthetic_field([1.0, 3.0, 0.5, above])
    fy = synthetic_field([1.0, 1.0, 1.0, 1.0])
    assert select_insertion_point(fx, fy, 1.0, ONES) == 1
    fx = synthetic_field([1.0, -3.0, 0.5, -above])
    assert select_insertion_point(fx, fy, -1.0, ONES) == 1


def test_insertion_skips_nodes_where_the_cluster_vanishes():
    fx = synthetic_field([1.0, 3.0, -2.0, 0.5])
    fy = synthetic_field([1.0, 2.0, -1.0, 0.5])
    weight = np.array([1.0, 0.9e-8, 1.0, 0.5])
    assert select_insertion_point(fx, fy, 1.0, weight) == 2
    assert select_insertion_point(fx, fy, -1.0, weight) == 3
    weight[1] = 1e-8
    assert select_insertion_point(fx, fy, 1.0, weight) == 1


def test_insertion_rejects_parameter_mismatch():
    fx = synthetic_field([1.0, 2.0], lam=2.5)
    fy = synthetic_field([1.0, 2.0], lam=2.6)
    with pytest.raises(ValueError):
        select_insertion_point(fx, fy, 1.0, np.ones(2))


def test_insertion_disk_matches_published_angle():
    """Receiver at (0, 0.75): the chosen node sits near 1.96*pi.

    The mean-free shift matters here: the raw product profile peaks in a
    different quadrant.
    """
    ops = assemble(DISK, 256)
    mask = mask_from_partition(ops, BoundaryPartition.all_steklov(DISK))
    fx = solve_greens(ops, mask, (-0.9, 0.0), 2.5)
    fy = solve_greens(ops, mask, (0.0, 0.75), 2.5)
    s_xy = eval_greens(fx, ops, np.array([0.0, 0.75])) - fx.offset
    assert s_xy < 0.0
    node = select_insertion_point(fx, fy, s_xy, np.ones(ops.n_nodes))
    assert ops.params[node] / np.pi == pytest.approx(1.96, abs=0.1)


# ---------------------------------------------------------------------------
# step-control helpers
# ---------------------------------------------------------------------------

def test_combination_stagnates_on_vanishing_cluster():
    with pytest.raises(StagnationError):
        _cluster_weight(np.array([0.0, 1e-7]))


def test_combination_concentrates_at_node():
    # the weight of a cluster at the node: its members' squared values there
    assert _cluster_weight(np.array([0.6, 0.8])) == pytest.approx(1.0)
    assert _cluster_weight(np.array([0.8])) == pytest.approx(0.64)


# ---------------------------------------------------------------------------
# the growth loop
# ---------------------------------------------------------------------------

def test_run_reaches_target(disk_run):
    assert disk_run.converged
    assert abs(disk_run.final_eigenvalue - 2.5) <= 1e-3
    assert disk_run.initial_eigenvalue == pytest.approx(2.0, abs=1e-8)
    assert disk_run.cluster_size == 2
    assert disk_run.trials < 50


def test_run_first_step_uses_first_order_prediction(disk_run):
    # Uncovered-disk cluster weight at any node is 1/pi, so the first
    # half-length is (lam* - lam0) / (2 * lam0 / pi) = pi/8.
    first = disk_run.records[0]
    assert first.f == 1.0
    assert first.epsilon_delta == pytest.approx(np.pi / 8.0, abs=1e-6)


def test_run_accepted_sequence_increases_to_target(disk_run):
    accepted = disk_run.accepted_eigenvalues()
    assert accepted, "no accepted trials"
    assert all(a < b for a, b in zip(accepted, accepted[1:]))
    assert all(v <= 2.5 + 1e-3 for v in accepted)
    assert accepted[-1] == disk_run.final_eigenvalue


def test_run_rejections_shrink_f_and_restore_arc(disk_run):
    cfg_damping = 0.8
    records = disk_run.records
    assert any(not r.accepted for r in records), "no rejected trials to check"
    for prev, cur in zip(records, records[1:]):
        if prev.accepted:
            assert cur.f == 1.0
        else:
            assert cur.f == pytest.approx(cfg_damping * prev.f, rel=1e-12)
    # every candidate grows from the last *accepted* half-length, so a
    # rejected trial leaves no footprint on the partition
    grown = 0.0
    for r in records:
        assert r.half_length == pytest.approx(grown + r.epsilon_delta, abs=1e-9)
        if r.accepted:
            grown = r.half_length


def test_run_is_deterministic():
    cfg = disk_config()
    a, b = run(cfg), run(cfg)
    assert a.records == b.records
    assert a.s_steklov == b.s_steklov and a.s_end == b.s_end
    assert a.final_eigenvalue == b.final_eigenvalue


def test_run_streams_records_to_observer():
    seen = []
    trace = run(disk_config(), observer=seen.append)
    assert seen == trace.records


def test_run_exhausts_trial_budget():
    with pytest.raises(ConvergenceError, match="not reached"):
        run(disk_config(max_iterations=3))


def test_run_requires_reachable_target():
    with pytest.raises(RequirementError):
        run(disk_config(lambda_star=0.5))


def test_run_target_on_eigenvalue_ends_resonant():
    # The marker alone already satisfies the tolerance, so the run
    # converges with zero covered length; the closing field evaluation
    # then sits exactly on the eigenvalue and refuses to solve.
    with pytest.raises(ResonanceError):
        run(disk_config(lambda_star=3.0))


def test_run_arc_stays_centered_on_insertion(disk_run):
    assert disk_run.neumann_center_parameter == pytest.approx(
        disk_run.insertion_parameter % (2 * np.pi), abs=1e-9)
    last_accepted = [r for r in disk_run.records if r.accepted][-1]
    assert disk_run.neumann_length == pytest.approx(
        2.0 * last_accepted.half_length, abs=1e-12)


def test_run_disk_reproduces_published_row(table_run):
    assert table_run.converged and abs(table_run.final_eigenvalue - 2.5) <= 1e-3
    assert table_run.s_steklov == pytest.approx(-0.492, abs=5e-3)
    assert abs(table_run.neumann_length / np.pi - 0.36) <= 0.05
    assert 407.0 / 2.0 <= table_run.amplification <= 407.0 * 2.0


def test_run_kite_converges_on_true_spectrum():
    trace = run(OptimizerConfig(curve=kite(), source=(-1.25, 1.25),
                                receiver=(-1.25, -1.25), lambda_star=2.5,
                                n_nodes=256))
    assert trace.converged
    assert abs(trace.final_eigenvalue - 2.5) <= 1e-3
    assert trace.initial_eigenvalue == pytest.approx(KITE_NEXT_LOWER, abs=2e-4)
    assert trace.cluster_size == 1
    assert trace.s_steklov == pytest.approx(KITE_SOURCE_VALUE, abs=1e-3)
    assert trace.amplification > 50.0


SECULAR_RUNS = {
    "disk": disk_config(lambda_star=2.2),
    "kite": OptimizerConfig(curve=kite(), source=(-1.25, 1.25), receiver=(-1.25, -1.25),
                            lambda_star=3.5, n_nodes=128),
    # the test_09 inputs at N=256, whose arcs touch 33-53 of 256 nodes
    "disk-large-arc": disk_config(receiver=(0.0, 0.5), n_nodes=256),
}


# the test_11 inputs, whose arcs touch 27 of 256 nodes, the kite tuning
# workload's N=768 run at lambda_star 3.5, the test_09 inputs at N=256 and
# the test_10 inputs
THREAD_RUNS = [
    OptimizerConfig(curve=kite(), source=(-1.25, 1.25), receiver=(-1.25, -1.25),
                    lambda_star=2.5, n_nodes=256),
    OptimizerConfig(curve=kite(), source=(-1.25, 1.25), receiver=(-1.25, -1.25),
                    lambda_star=3.5, n_nodes=768),
    SECULAR_RUNS["disk-large-arc"],
    disk_config(lambda_star=15.5, n_nodes=1536),
]

# reads the runs from stdin as (curve factory name, keyword arguments) pairs
_ONE_THREAD_RUN = """
import json, sys
from steklov import geometry
from steklov.optimizer import OptimizerConfig, run
traces = [run(OptimizerConfig(curve=getattr(geometry, curve)(), **kw))
          for curve, kw in json.load(sys.stdin)]
json.dump([dict(node=t.insertion_index, accepted=[r.accepted for r in t.records],
                eigenvalues=[r.eigenvalue for r in t.records], s_end=t.s_end)
           for t in traces], sys.stdout)
"""


def test_run_does_not_depend_on_the_blas_thread_count():
    # a child process runs the same inputs on one BLAS thread
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    inputs = json.dumps([(c.curve.name, dict(source=c.source.tolist(), receiver=c.receiver.tolist(),
                                             lambda_star=c.lambda_star, C_tol=c.C_tol,
                                             max_iterations=c.max_iterations, n_nodes=c.n_nodes))
                         for c in THREAD_RUNS])
    children = json.loads(subprocess.run([sys.executable, "-c", _ONE_THREAD_RUN], env=env,
                                         input=inputs, capture_output=True, text=True,
                                         check=True, timeout=300).stdout)
    assert len(children) == len(THREAD_RUNS)
    for config, child in zip(THREAD_RUNS, children):
        trace = run(config)
        assert trace.insertion_index == child["node"]
        assert [r.accepted for r in trace.records] == child["accepted"]
        assert_allclose([r.eigenvalue for r in trace.records], child["eigenvalues"],
                        rtol=1e-12, atol=0)
        assert trace.s_end == pytest.approx(child["s_end"], rel=1e-8)


@pytest.mark.parametrize("config", [
    disk_config(),
    OptimizerConfig(curve=kite(), source=(-1.25, 1.25), receiver=(-1.25, -1.25),
                    lambda_star=2.5, n_nodes=128),
], ids=["disk", "kite"])
def test_run_guard_reads_the_solved_spectrum(config, monkeypatch):
    # the counts of the decomposition and of the final ArcSpectrum guard both
    # source solves, so the guard solves no eigenvalue on a mask
    calls = []
    original = greens.solve_spectrum_near
    monkeypatch.setattr(greens, "solve_spectrum_near",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    assert run(config).converged
    assert calls == []


@pytest.mark.parametrize("config", [
    disk_config(),
    OptimizerConfig(curve=kite(), source=(-1.25, 1.25), receiver=(-1.25, -1.25),
                    lambda_star=2.5, n_nodes=128),
], ids=["disk", "kite"])
def test_run_guards_by_counts_and_writes_no_mask(config, monkeypatch):
    # the decomposition and the final ArcSpectrum guard the source solves by
    # their counts: no mask's eigenvalues are solved, and no mask builds its
    # own decomposition
    masks, solved = [], []
    original_mask = optimizer.mask_from_partition
    monkeypatch.setattr(optimizer, "mask_from_partition",
                        lambda *a: masks.append(original_mask(*a)) or masks[-1])
    original_near = greens.solve_spectrum_near
    monkeypatch.setattr(greens, "solve_spectrum_near",
                        lambda *a, **k: solved.append(a) or original_near(*a, **k))
    assert run(config).converged
    assert solved == []
    assert len(masks) > 2 and all("_spectrum" not in vars(m) for m in masks)


@pytest.mark.parametrize("config", [THREAD_RUNS[0], disk_config(n_nodes=256)],
                         ids=["test_11", "disk"])
def test_run_solves_its_source_fields_without_an_n_by_n_source_factorization(
        config, monkeypatch):
    # the three source solves run on the decomposition and the final arc's
    # secular equation: no N x N LU is left, and H is never built.  The kite
    # factors its trace map in its mirror halves; the disk solves with it by
    # FFT, factors nothing and expands neither S nor K'
    mask_solves, factored, built, expanded = [], [], [], []
    original_system = PartitionMask.source_system
    monkeypatch.setattr(PartitionMask, "source_system",
                        lambda *a: mask_solves.append(a) or original_system(*a))
    original_lu = sla.lu_factor
    monkeypatch.setattr(sla, "lu_factor",
                        lambda a, *r, **k: factored.append(a.shape) or original_lu(a, *r, **k))
    original_dtn = OperatorSet.weighted_dtn
    monkeypatch.setattr(OperatorSet, "weighted_dtn",
                        property(lambda ops: built.append(ops) or original_dtn.fget(ops)))
    original_circulant = discretization._circulant
    monkeypatch.setattr(discretization, "_circulant",
                        lambda row: expanded.append(row) or original_circulant(row))
    trace = run(config)
    assert trace.converged and np.isfinite(trace.s_end)
    assert mask_solves == []
    assert built == []
    if config.curve is DISK:
        assert factored == [] and expanded == []
    else:
        n = config.n_nodes // 2
        assert sorted(set(factored)) == [(n - 1, n - 1), (n + 1, n + 1)]


@pytest.mark.parametrize("config", [disk_config(n_nodes=256), SECULAR_RUNS["disk-large-arc"]],
                         ids=["disk", "disk-large-arc"])
def test_circulant_and_mirror_routes_give_the_same_run(config, monkeypatch):
    circulant = run(config)
    mirror_route(monkeypatch)
    assert not assemble(config.curve, config.n_nodes).rotation
    split = run(config)
    assert circulant.insertion_index == split.insertion_index
    assert circulant.trials == split.trials
    assert ([(r.accepted, r.f) for r in circulant.records]
            == [(r.accepted, r.f) for r in split.records])
    assert_allclose([r.eigenvalue for r in circulant.records],
                    [r.eigenvalue for r in split.records], rtol=1e-13, atol=0)
    assert circulant.s_end == pytest.approx(split.s_end, rel=1e-9)


@pytest.mark.parametrize("config, dense", [
    (disk_config(), False),
    (OptimizerConfig(curve=kite(), source=(-1.25, 1.25), receiver=(-1.25, -1.25),
                     lambda_star=2.5, n_nodes=128), True),
], ids=["disk", "kite"])
def test_secular_matrix_follows_the_rotation_route(config, dense, monkeypatch):
    # on the disk G comes from the symbol; without rotation it is an m x N x m product
    inside, reached, evaluations = [], [], []
    matrix, product = ArcSpectrum._matrix, kernels.product

    def watched(self, lam):
        inside.append(True)
        evaluations.append(lam)
        try:
            return matrix(self, lam)
        finally:
            inside.pop()

    monkeypatch.setattr(ArcSpectrum, "_matrix", watched)
    monkeypatch.setattr(kernels, "product", lambda *a: reached.append(bool(inside)) or product(*a))
    assert run(config).converged
    assert len(evaluations) > 10
    assert any(reached) == dense


def test_disk_run_builds_no_n_by_n_array(monkeypatch):
    # test_10's run (disk, N=1536): the decomposition is its modes, so nothing
    # reads the N x N table, and the memory the run allocates stays below
    # half of one N x N array of doubles
    built = []
    table = CirculantDecomposition.vectors.func
    monkeypatch.setattr(CirculantDecomposition, "vectors",
                        property(lambda self: built.append(self) or table(self)))
    n = 1536
    tracemalloc.start()
    try:
        assert run(disk_config(lambda_star=15.5, n_nodes=n)).converged
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == []
    assert peak < 0.5 * n * n * np.dtype(float).itemsize


def _secular_breakdown(*args):
    raise SecularBreakdown("windowed route forced")


@pytest.mark.parametrize("name", list(SECULAR_RUNS))
def test_small_arc_run_makes_no_windowed_solve(name, monkeypatch):
    # the trials solve the secular equation whatever the arc size, and the
    # final source solve reads the run the converged trial left
    calls = []
    for module in (optimizer, greens):
        original = module.solve_spectrum_near
        monkeypatch.setattr(module, "solve_spectrum_near",
                            lambda *a, _f=original, **k: calls.append(a) or _f(*a, **k))
    trace = run(SECULAR_RUNS[name])
    assert trace.converged and trace.trials > 2
    assert calls == []


@pytest.mark.parametrize("name", list(SECULAR_RUNS))
def test_windowed_fallback_gives_the_same_records(name, monkeypatch):
    secular = run(SECULAR_RUNS[name])
    monkeypatch.setattr(optimizer, "ArcSpectrum", _secular_breakdown)
    windowed = run(SECULAR_RUNS[name])
    assert len(windowed.records) == len(secular.records)
    for a, b in zip(secular.records, windowed.records):
        assert (a.index, a.f, a.accepted) == (b.index, b.f, b.accepted)
        assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-12, abs=1e-12)
        assert a.epsilon_delta == pytest.approx(b.epsilon_delta, rel=1e-9)
        assert a.half_length == pytest.approx(b.half_length, rel=1e-9)
    assert secular.insertion_index == windowed.insertion_index
    assert secular.s_end == pytest.approx(windowed.s_end, rel=1e-8)


# Runs whose tracked eigenvalue no candidate trace continued by squared trace
# overlap above 1/2 at trial 1; followed by its index they converge.
AMBIGUOUS_RUNS = {
    "ellipse": OptimizerConfig(curve=ellipse(1.0, 0.5), source=(-0.01, 0.08),
                               receiver=(0.1, 0.12), lambda_star=3.51, n_nodes=128),
    "kite": OptimizerConfig(curve=kite(), source=(-0.6, 0.69), receiver=(-0.71, 0.2),
                            lambda_star=10.95, n_nodes=256),
}


@pytest.mark.parametrize("name, trials, final", [("ellipse", 18, 3.510252),
                                                 ("kite", 12, 10.950494)],
                         ids=["ellipse", "kite"])
def test_ambiguous_runs_converge_without_windowed_solve(name, trials, final, monkeypatch):
    calls = []
    original = optimizer.solve_spectrum_near
    monkeypatch.setattr(optimizer, "solve_spectrum_near",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    config = AMBIGUOUS_RUNS[name]
    trace = run(config)
    assert calls == []
    assert trace.converged and trace.trials == trials
    assert abs(trace.final_eigenvalue - config.lambda_star) <= config.C_tol
    assert trace.final_eigenvalue == pytest.approx(final, abs=1e-6)


def test_trace_defaults_are_inert():
    trace = OptimizerTrace()
    assert trace.trials == 0
    assert trace.accepted_eigenvalues() == []
    assert trace.neumann_length == 0.0
    assert np.isnan(trace.neumann_center_parameter)

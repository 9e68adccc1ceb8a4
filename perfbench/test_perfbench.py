"""Self-tests of the benchmark: tiny smoke runs and the output checks.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from perfbench import checks, harness, spans, workloads
from steklov import discretization, eigensolver, optimizer
from steklov.errors import ClusterError, EigenSolveError, ResonanceError
from steklov.geometry import BoundaryPartition, circle
from steklov.oracles import disk_spectrum

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "tune", "fields"])
def test_tiny_run_emits_every_named_metric(workload, trace):
    result = harness.measure(workload, seed=3, seconds=0.0, trace=bool(trace),
                             scale="tiny", setup_repeats=1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert math.isfinite(metric["value"])
    assert result["attempted"] >= 1
    assert result["correct"], [op for op in result["ops"] if op["problem"]]


def test_workload_names_match_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["sweep", "tune", "fields"]


def test_cycle_count_depends_only_on_seconds():
    tune = harness.WORKLOADS["tune"]
    assert harness.cycle_count(tune, 0.0) == tune.min_cycles
    assert harness.cycle_count(tune, 3.4 * tune.cycle_s) == 3
    assert harness.cycle_count(tune, 3.6 * tune.cycle_s) == 4


# --- run verdict ----------------------------------------------------------------

def _raise(error):
    raise error


def test_an_op_that_raises_makes_the_run_incorrect():
    op = workloads.Op("disk", lambda: _raise(EigenSolveError("no convergence")),
                      lambda result: None)
    record = harness.run_op(op, 0)
    assert record.error == "EigenSolveError" and not record.ok
    assert not harness.verdict([record], frozenset())


def test_only_a_listed_known_error_keeps_the_run_correct():
    known = harness.WORKLOADS["tune"].known_errors
    key = "circle-N768-target2.5-receiver0.5"
    cluster = harness.run_op(workloads.Op(key, lambda: _raise(ClusterError("c")),
                                          lambda result: None), 0)
    assert harness.verdict([cluster], known)
    other = harness.run_op(workloads.Op(key, lambda: _raise(EigenSolveError("e")),
                                        lambda result: None), 1)
    assert not harness.verdict([cluster, other], known)
    elsewhere = harness.run_op(workloads.Op("circle-N1536-target15.5-receiver0.9",
                                            lambda: _raise(ClusterError("c")),
                                            lambda result: None), 2)
    assert not harness.verdict([elsewhere], known)


def test_a_failed_output_check_makes_the_run_incorrect():
    op = workloads.Op("disk", lambda: 1.0, lambda result: "eigenvalue above its bound")
    record = harness.run_op(op, 0)
    assert record.problem and not harness.verdict([record], frozenset())


# --- spectrum check -------------------------------------------------------------

@pytest.fixture(scope="module")
def disk_values():
    curve = circle()
    ops = discretization.assemble(curve, 64)
    mask = discretization.mask_from_partition(ops, BoundaryPartition.all_steklov(curve))
    pairs = eigensolver.solve_spectrum(ops, mask, eigensolver.SpectrumRequest(count=12))
    return np.array([p.value for p in pairs]), float(np.sum(mask.steklov_weights))


def test_spectrum_check_accepts_the_disk(disk_values):
    values, length = disk_values
    assert checks.check_spectrum(values, length, disk_spectrum(12).values) is None


def test_spectrum_check_rejects_eigenvalue_above_its_bound(disk_values):
    values, length = disk_values
    bad = values.copy()
    bad[-1] = 2.0 * math.pi * (len(bad) - 1) / length + 1e-3
    assert "upper bound" in checks.check_spectrum(bad, length)


def test_spectrum_check_rejects_third_eigenvalue_on_strict_bound(disk_values):
    values, length = disk_values
    bad = values.copy()
    bad[2:] = np.maximum(bad[2:], 4.0 * math.pi / length)
    # the j=3 bound 4*pi/|Gamma_S| is met with equality, which is not strict
    assert "strict" in checks.check_spectrum(bad, length)


def test_spectrum_check_rejects_disk_off_closed_form(disk_values):
    values, length = disk_values
    bad = values.copy()
    bad[3] -= 1e-4
    assert "disk spectrum" in checks.check_spectrum(bad, length, disk_spectrum(12).values)


# --- tuning check ---------------------------------------------------------------

@pytest.fixture(scope="module")
def tuning_run():
    config = optimizer.OptimizerConfig(
        curve=circle(), source=np.array([-0.9, 0.0]), receiver=np.array([0.0, 0.9]),
        lambda_star=2.5, n_nodes=128)
    return config, optimizer.run(config)


def _tuning_problem(config, trace, **overrides):
    args = dict(converged=trace.converged, final_eigenvalue=trace.final_eigenvalue,
                lambda_star=config.lambda_star, c_tol=config.C_tol,
                accepted=trace.accepted_eigenvalues(), records=trace.records,
                reference_records=list(trace.records))
    args.update(overrides)
    return checks.check_tuning(**args)


def test_tuning_check_accepts_a_real_run(tuning_run):
    assert _tuning_problem(*tuning_run) is None


def test_tuning_check_rejects_unconverged_and_off_target(tuning_run):
    config, trace = tuning_run
    assert _tuning_problem(config, trace, converged=False)
    assert _tuning_problem(config, trace, final_eigenvalue=config.lambda_star + 0.01)


def test_tuning_check_rejects_non_increasing_accepted(tuning_run):
    config, trace = tuning_run
    accepted = trace.accepted_eigenvalues()
    assert "increase" in _tuning_problem(config, trace,
                                         accepted=accepted + [accepted[-1]])


def test_tuning_check_rejects_a_repeat_that_differs(tuning_run):
    config, trace = tuning_run
    changed = list(trace.records)
    changed[0] = dataclasses.replace(changed[0],
                                     eigenvalue=changed[0].eigenvalue + 1e-12)
    assert "repeat" in _tuning_problem(config, trace, reference_records=changed)


# --- source-field checks --------------------------------------------------------

def test_reciprocity_check():
    assert checks.check_reciprocity(12.5, 12.5 + 1e-9) is None
    assert checks.check_reciprocity(12.5, 12.5 + 1e-5)
    assert checks.check_reciprocity(0.3, float("nan"))


def test_pole_order_check():
    gaps = np.array([1e-2, 1e-3, 1e-4])
    assert checks.check_pole_order(gaps, 0.7 / gaps + 0.2) is None
    assert "slope" in checks.check_pole_order(gaps, 0.7 / np.sqrt(gaps))
    assert checks.check_pole_order(gaps, np.array([1.0, -1.0, 2.0]))


def test_refusal_check():
    lam_j = 2.631385146424
    named = ResonanceError("spectral parameter 2.63138580 is within the guard "
                           "band of the eigenvalue %.12g" % lam_j, lam_j)
    assert checks.check_refusal(named, lam_j, ResonanceError) is None
    assert "answered" in checks.check_refusal(None, lam_j, ResonanceError)
    wrong = ResonanceError("near the eigenvalue 2.7", 2.7)
    assert checks.check_refusal(wrong, lam_j, ResonanceError)
    unnamed = ResonanceError("inside the guard band", lam_j)
    assert "does not name" in checks.check_refusal(unnamed, lam_j, ResonanceError)
    assert checks.check_refusal(ValueError("x"), lam_j, ResonanceError)


# --- tracing --------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    tree = [spans.Span(0, "optimizer.run", 0.0, 10.0, None, 0),
            spans.Span(1, "greens.solve_greens", 1.0, 4.0, 0, 0),
            spans.Span(2, "kernels", 2.0, 3.0, 1, 0),
            spans.Span(3, "kernels", 5.0, 6.5, 0, 0)]
    own = spans.self_times(tree)
    assert own == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5}
    metrics = spans.layer_metrics(tree)
    assert metrics["kernels.calls"] == 2.0
    assert metrics["kernels.s"] == 2.5
    assert metrics["optimizer.run.self_s"] == 5.5


def test_wrappers_are_removed_after_the_traced_pass():
    before = (optimizer.run, optimizer.solve_spectrum_near, eigensolver.solve_spectrum)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert optimizer.run is not before[0]
    assert (optimizer.run, optimizer.solve_spectrum_near,
            eigensolver.solve_spectrum) == before


def test_calls_outside_a_root_span_are_not_recorded():
    recorder = spans.Recorder()
    with spans.installed(recorder):
        discretization.assemble(circle(), 32)
        assert recorder.spans == []
        with recorder.span(spans.OP_SPAN):
            discretization.assemble(circle(), 32)
    names = [s.name for s in recorder.spans]
    assert names[:2] == [spans.OP_SPAN, "discretization.assemble"]
    assert "kernels" in names


def test_pass_overhead_is_not_set_by_one_slowed_pair():
    bare = [harness.OpRecord(i, "kite", 1.0) for i in range(5)]
    traced = [harness.OpRecord(5 + i, "kite", s)
              for i, s in enumerate((1.01, 1.01, 1.01, 1.01, 4.0))]
    assert harness.pass_overhead(bare, traced) == pytest.approx(0.05)

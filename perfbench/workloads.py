"""The three benchmark workloads: inputs from a seed, ops, output checks.

A workload builds its inputs in ``setup`` and then hands out its
operations one *cycle* at a time.  A cycle is the smallest group of ops
with the workload's fixed mix of sizes; a run does a fixed number of whole
cycles, so rates do not depend on where a run happens to stop.

The library is only called through module attributes
(``eigensolver.solve_spectrum``, ``optimizer.run`` ...), so the traced
pass sees every call through the wrappers of :mod:`perfbench.spans`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from steklov import discretization, eigensolver, greens, optimizer
from steklov.cli import interior_lattice
from steklov.errors import ResonanceError, SteklovError
from steklov.geometry import BoundaryPartition, circle, kite
from steklov.oracles import disk_spectrum

from perfbench import checks

TWO_PI = 2.0 * math.pi

# covered half-widths of the arc centred at node N/2 (the test_05 ladder)
EPS_LADDER = (0.04, 0.02, 0.01)
SPECTRUM_COUNT = 12
# total parameter length of the Neumann arcs of a random partition
NEUMANN_LENGTH = (0.5, 4.5)
# interior sources keep this distance from the boundary and from each other
SOURCE_MARGIN = 0.15
SOURCE_SEPARATION = 0.1
# lambda steps toward the eigenvalue: gap_k = GAP_START * spacing * 10^(-k)
GAP_START = 0.3
# refused request: this fraction of the guard band above the eigenvalue
REFUSAL_OFFSET = 0.25

SCALES = {
    "full": {"sweep_nodes": 512, "fields_nodes": 512, "lattice": 40,
             "tune": ((circle, (-0.9, 0.0), (0.0, 0.9), 15.5, 1536),
                      (circle, (-0.9, 0.0), (0.0, 0.5), 2.5, 768),
                      (circle, (-0.9, 0.0), (0.0, 0.9), 2.5, 768),
                      (kite, (-1.25, 1.25), (-1.25, -1.25), 2.5, 256),
                      (kite, (-1.25, 1.25), (-1.25, -1.25), 3.5, 768))},
    # smoke-test size: same code paths, a fraction of a second per op
    "tiny": {"sweep_nodes": 64, "fields_nodes": 256, "lattice": 8,
             "tune": ((circle, (-0.9, 0.0), (0.0, 0.9), 2.5, 128),)},
}


@dataclass
class Op:
    """One timed call into the library plus its untimed output check.

    ``key`` groups ops on the same input (a curve, a tuning configuration);
    ``trials`` collects ``(perf_counter, accepted)`` from optimizer runs.
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    trials: list = field(default_factory=list)


def warm_up() -> list:
    """First calls into every measured layer at small size; returns trial marks.

    Without it the first full-size solve pays about a second of one-off
    LAPACK, ARPACK and BLAS-pool initialisation, which belongs to set-up
    time, not to an op.  The tiny tuning run also gives every per-layer
    metric a measured value on every workload.
    """
    curve = circle()
    # a dense QZ below about N=256 leaves the first full-size one slower
    ops = discretization.assemble(curve, 256)
    mask = discretization.mask_from_partition(ops, BoundaryPartition.all_steklov(curve))
    eigensolver.solve_spectrum(ops, mask)
    fld = greens.solve_greens(ops, mask, np.array([0.1, 0.2]), 2.5)
    greens.eval_greens(fld, ops, np.array([[0.3, 0.1], [-0.2, 0.4]]), refine=4)
    trials: list = []
    config = optimizer.OptimizerConfig(
        curve=curve, source=np.array([-0.9, 0.0]), receiver=np.array([0.0, 0.9]),
        lambda_star=2.5, n_nodes=64)
    try:
        optimizer.run(config, observer=lambda r: trials.append(
            (time.perf_counter(), r.accepted)))
    except SteklovError:
        pass  # warming up only has to reach each layer once
    return trials


def neumann_lengths(rng, count: int) -> np.ndarray:
    """``count`` Neumann lengths in ``NEUMANN_LENGTH``, one per equal stratum, shuffled.

    The cost of a dense solve falls with the number of Neumann nodes, so
    lengths drawn independently would let the seed move a run's time;
    one draw per stratum keeps every cycle's mix of costs alike.
    """
    lo, hi = NEUMANN_LENGTH
    return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count


def random_partition(rng, curve, length: float) -> BoundaryPartition:
    """One or two random Neumann intervals of total parameter length ``length``."""
    if rng.integers(1, 3) == 1:
        start = rng.uniform(0.0, TWO_PI - length)
        return BoundaryPartition.from_neumann_intervals(curve, [(start, start + length)])
    l1 = length * rng.uniform(0.3, 0.7)
    gap = rng.uniform(0.2, TWO_PI - length - 0.2)
    start = rng.uniform(0.0, TWO_PI - length - gap)
    second = start + l1 + gap
    return BoundaryPartition.from_neumann_intervals(
        curve, [(start, start + l1), (second, start + length + gap)])


def interior_sources(ops, rng, count: int) -> list[np.ndarray]:
    """Random interior points clear of the boundary and of each other."""
    lo = ops.points.min(axis=0) + SOURCE_MARGIN
    hi = ops.points.max(axis=0) - SOURCE_MARGIN
    out: list[np.ndarray] = []
    while len(out) < count:
        p = rng.uniform(lo, hi)
        if (eigensolver.interiority(ops, p) >= 0.5
                and np.min(np.linalg.norm(ops.points - p, axis=1)) >= SOURCE_MARGIN
                and all(np.linalg.norm(p - q) >= SOURCE_SEPARATION for q in out)):
            out.append(p)
    return out


class Workload:
    """Common shape: ``setup`` once, then ``cycle(c)`` for c = 0, 1, ..."""

    name = ""
    # at least this many cycles run, however short the time budget
    min_cycles = 1
    # wall time of one cycle at full scale, ops and checks, measured on the
    # baseline machine; it sizes every run, so it stays fixed
    cycle_s = 1.0
    # op keys whose times make up op_s_p50 (None: every op)
    median_keys: tuple[str, ...] | None = None
    # (op key, error class) pairs of known defects: such an op counts as
    # failed but does not make the run incorrect
    known_errors: frozenset = frozenset()

    def __init__(self, seed: int, scale: str):
        self.scale = SCALES[scale]
        self.rng = np.random.default_rng(seed)
        # optimizer trial marks of the set-up's warm-up run
        self.setup_trials: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def closing_checks(self) -> list[tuple[str, str | None]]:
        """Checks made once after the timed window: ``(op key, problem)``."""
        return []


class Sweep(Workload):
    """Full dense spectra on the disk and the kite.

    A cycle is five disk spectra, alternating with five kite spectra.  The
    disk walks through all-Steklov, the covered-arc ladder and a random
    partition; the kite always gets a fresh random partition.  QZ time
    depends on the partition, so only whole cycles keep the mix fixed, and
    the six random partitions of a cycle take their Neumann lengths from
    six strata.
    """

    name = "sweep"
    cycle_s = 20.3

    def setup(self) -> None:
        n = self.scale["sweep_nodes"]
        self.disk = discretization.assemble(circle(), n)
        self.kite = discretization.assemble(kite(), n)
        self.setup_trials = warm_up()

    def _disk_partitions(self, lengths):
        """(partition, closed-form spectrum or None) for each disk op."""
        curve = self.disk.curve
        theta = float(self.disk.params[self.disk.n_nodes // 2])
        yield BoundaryPartition.all_steklov(curve), disk_spectrum(SPECTRUM_COUNT).values
        for eps in EPS_LADDER:
            yield BoundaryPartition.from_neumann_intervals(
                curve, [(theta - eps, theta + eps)]), None
        yield random_partition(self.rng, curve, next(lengths)), None

    def _op(self, key, ops, partition, exact) -> Op:
        def call():
            mask = discretization.mask_from_partition(ops, partition)
            pairs = eigensolver.solve_spectrum(
                ops, mask, eigensolver.SpectrumRequest(count=SPECTRUM_COUNT))
            return [p.value for p in pairs], float(np.sum(mask.steklov_weights))

        def check(result):
            values, steklov_length = result
            return checks.check_spectrum(values, steklov_length, exact)

        return Op(key, call, check)

    def cycle(self, c: int) -> list[Op]:
        ops = []
        lengths = iter(neumann_lengths(self.rng, 6))
        for disk_part, exact in self._disk_partitions(lengths):
            ops.append(self._op("disk", self.disk, disk_part, exact))
            kite_part = random_partition(self.rng, self.kite.curve, next(lengths))
            ops.append(self._op("kite", self.kite, kite_part, None))
        return ops


class Tune(Workload):
    """End-to-end tuning runs on fixed configurations, one cycle = all of them.

    Two cycles at least, so every configuration is repeated and its records
    can be compared with the first run's.  The op time median is taken over
    the first configuration (the high-target disk run, most of the
    workload's time): a median over the mix of five sizes would jump
    whenever a failing configuration starts to converge.
    """

    name = "tune"
    min_cycles = 2
    cycle_s = 8.9
    # both test_09 disk runs at N=768 raise ClusterError at trial 0 (with two
    # BLAS threads); kept in the mix so the defect stays visible
    known_errors = frozenset(
        (f"circle-N768-target2.5-receiver{r:g}", "ClusterError") for r in (0.5, 0.9))

    def setup(self) -> None:
        self.configs = {}
        for make_curve, source, receiver, target, n in self.scale["tune"]:
            curve = make_curve()
            key = f"{curve.name}-N{n}-target{target:g}-receiver{receiver[1]:g}"
            self.configs[key] = optimizer.OptimizerConfig(
                curve=curve, source=np.array(source), receiver=np.array(receiver),
                lambda_star=target, n_nodes=n)
        self.median_keys = tuple(self.configs)[:1]
        self.first_records: dict[str, list] = {}
        self.setup_trials = warm_up()

    def _op(self, key: str) -> Op:
        config = self.configs[key]
        trials: list = []

        def observe(record):
            trials.append((time.perf_counter(), record.accepted))

        def call():
            return optimizer.run(config, observer=observe)

        def check(trace):
            reference = self.first_records.setdefault(key, trace.records)
            return checks.check_tuning(
                trace.converged, trace.final_eigenvalue, config.lambda_star,
                config.C_tol, trace.accepted_eigenvalues(), trace.records,
                None if reference is trace.records else reference)

        return Op(key, call, check, trials)

    def cycle(self, c: int) -> list[Op]:
        return [self._op(key) for key in self.configs]


@dataclass
class _Scan:
    """One curve of the resonance scan with everything set up for it."""

    ops: Any
    mask: Any
    eigenvalue: float
    spacing: float
    sources: list
    lattices: list
    # (gap, field size) per step of the scan in progress, keyed by scan index
    steps: dict = field(default_factory=dict)


class Fields(Workload):
    """Point-source fields as lambda closes in on an eigenvalue from below.

    A cycle is one scan: ``STEPS`` lambda steps whose gaps to the eigenvalue
    shrink tenfold per step, each step taken on a two-arc kite and on a
    one-arc disk.  Every scan uses fresh lambda values.
    """

    name = "fields"
    STEPS = 4
    cycle_s = 12.7

    def setup(self) -> None:
        n = self.scale["fields_nodes"]
        rng = self.rng
        kite_start = rng.uniform(0.0, 2.0)
        kite_arcs = [(kite_start, kite_start + rng.uniform(0.4, 1.0)),
                     (kite_start + 3.0, kite_start + 3.0 + rng.uniform(0.4, 1.0))]
        disk_start = rng.uniform(0.0, 4.0)
        disk_arcs = [(disk_start, disk_start + rng.uniform(0.6, 2.0))]
        arcs = {"kite": (kite(), kite_arcs), "disk": (circle(), disk_arcs)}
        self.scans: dict[str, _Scan] = {}
        for key, (curve, intervals) in arcs.items():
            ops = discretization.assemble(curve, n)
            mask = discretization.mask_from_partition(
                ops, BoundaryPartition.from_neumann_intervals(curve, intervals))
            values = sorted(p.value for p in eigensolver.solve_spectrum_near(
                ops, mask, 2.0, count=SPECTRUM_COUNT))
            above = [v for v in values if v > 2.0]
            if not above:
                raise RuntimeError(f"{key}: no eigenvalue above 2 near the shift")
            lam_j = above[0]
            below = [v for v in values if v < lam_j - 1e-6 * (1.0 + lam_j)]
            sources = interior_sources(ops, rng, 4)
            self.scans[key] = _Scan(
                ops, mask, lam_j, lam_j - max(below), sources,
                [interior_lattice(ops, self.scale["lattice"], s)[0] for s in sources])
        self.setup_trials = warm_up()

    def _op(self, key: str, c: int, k: int) -> Op:
        scan = self.scans[key]
        gap = GAP_START * scan.spacing * 10.0 ** (-k) * 0.97 ** c
        lam = scan.eigenvalue - gap

        def call():
            fields = [greens.solve_greens(scan.ops, scan.mask, s, lam)
                      for s in scan.sources]
            values = [greens.eval_greens(f, scan.ops, lat, refine=4)
                      for f, lat in zip(fields, scan.lattices)]
            return fields, values

        def check(result):
            fields, values = result
            if not all(np.all(np.isfinite(v)) for v in values):
                return "field values are not finite"
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                problem = checks.check_reciprocity(
                    greens.eval_greens(fields[i], scan.ops, scan.sources[j], refine=4),
                    greens.eval_greens(fields[j], scan.ops, scan.sources[i], refine=4))
                if problem:
                    return problem
            size = sum(float(np.sqrt(np.mean(v * v))) for v in values)
            steps = scan.steps.setdefault(c, [])
            steps.append((gap, size))
            if k == self.STEPS - 1 and len(steps) == self.STEPS:
                gaps, sizes = zip(*steps[-3:])
                return checks.check_pole_order(gaps, sizes)
            return None

        return Op(key, call, check)

    def cycle(self, c: int) -> list[Op]:
        return [self._op(key, c, k) for k in range(self.STEPS) for key in self.scans]

    def closing_checks(self):
        """A request inside each guard band must be refused, naming lambda_j."""
        out = []
        for key, scan in self.scans.items():
            lam = scan.eigenvalue + REFUSAL_OFFSET * greens.RESONANCE_GUARD * (
                1.0 + scan.eigenvalue)
            error = None
            try:
                greens.solve_greens(scan.ops, scan.mask, scan.sources[0], lam)
            except ResonanceError as exc:
                error = exc
            out.append((key, checks.check_refusal(error, scan.eigenvalue,
                                                  ResonanceError)))
        return out


WORKLOADS = {w.name: w for w in (Sweep, Tune, Fields)}

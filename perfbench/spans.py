"""In-memory span recorder and the wrappers that feed it from outside.

The traced pass replaces selected public functions of the ``steklov``
modules with timing wrappers, for the length of a ``with installed(...)``
block only.  Functions are patched in every module namespace that calls
them (the optimizer imports most of them by name), so the layer a span is
charged to follows the caller: ``solve_spectrum_near`` called by the
optimizer is ``eigensolver.solve_spectrum_near``, called by the source-field
guard it is ``greens.guard_probe``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# (module, attribute, layer) for every wrapped call site
TARGETS = (
    ("steklov.eigensolver", "solve_spectrum", "eigensolver.solve_spectrum"),
    ("steklov.optimizer", "solve_spectrum_near", "eigensolver.solve_spectrum_near"),
    ("steklov.optimizer", "orthonormalize_cluster", "eigensolver.orthonormalize_cluster"),
    ("steklov.greens", "solve_spectrum_near", "greens.guard_probe"),
    ("steklov.greens", "solve_greens", "greens.solve_greens"),
    ("steklov.optimizer", "solve_greens", "greens.solve_greens"),
    ("steklov.greens", "eval_greens", "greens.eval_greens"),
    ("steklov.optimizer", "eval_greens", "greens.eval_greens"),
    ("steklov.kernels", "gamma0", "kernels"),
    ("steklov.kernels", "gamma0_dnu", "kernels"),
    ("steklov.discretization", "assemble", "discretization.assemble"),
    ("steklov.optimizer", "assemble", "discretization.assemble"),
    ("steklov.discretization", "mask_from_partition", "discretization.mask_from_partition"),
    ("steklov.optimizer", "mask_from_partition", "discretization.mask_from_partition"),
    ("steklov.optimizer", "insert_neumann_arc", "geometry.arc_surgery"),
    ("steklov.optimizer", "extend_neumann_arc", "geometry.arc_surgery"),
    ("steklov.optimizer", "run", "optimizer.run"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

# root spans opened by the runner around each operation and each set-up
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


def _eval_points(args, kwargs) -> int:
    y = kwargs["y"] if "y" in kwargs else args[2]
    return int(np.asarray(y).size // 2)


# extra per-call counts recorded on a span, by layer
_POINTS = {"greens.eval_greens": _eval_points}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None = None
    points: int = 0


class Recorder:
    """Collects spans of one traced pass; ``op`` tags spans with an op index.

    Wrapped calls record a span only inside a root span (an op or a
    set-up), so the benchmark's own output checks stay out of the totals.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, points: int = 0):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0,
                      parent, self.op, None, points)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        except Exception as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, fn):
        count_points = _POINTS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any op or set-up: output checks
                return fn(*args, **kwargs)
            points = count_points(args, kwargs) if count_points else 0
            with self.span(layer, points):
                return fn(*args, **kwargs)

        return wrapper

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def installed(recorder: Recorder):
    """Patch every target with a recording wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(layer, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its direct children."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Calls, inclusive seconds and self seconds per layer, plus counts.

    Totals cover the whole traced pass (set-up and operations).  A layer
    with no spans reports zeros.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS + (OP_SPAN,):
        mine = [s for s in spans if s.name == layer]
        out[f"{layer}.calls"] = float(len(mine))
        out[f"{layer}.s"] = float(sum(s.end - s.start for s in mine))
        out[f"{layer}.self_s"] = float(sum(own[s.id] for s in mine))
    setup = [s for s in spans if s.name == SETUP_SPAN]
    out[f"{SETUP_SPAN}.s"] = float(sum(s.end - s.start for s in setup))
    out["greens.eval_greens.points"] = float(
        sum(s.points for s in spans if s.name == "greens.eval_greens"))
    out["eigensolver.orthonormalize_cluster.failures"] = float(sum(
        1 for s in spans
        if s.name == "eigensolver.orthonormalize_cluster" and s.error))
    solves = out["greens.solve_greens.calls"]
    out["greens.probe_per_solve"] = (
        out["greens.guard_probe.calls"] / solves if solves else 0.0)
    out["trace.spans"] = float(len(spans))
    return out


def trial_metrics(spans: list[Span], trials: dict[int, list[tuple[float, bool]]]
                  ) -> dict[str, float]:
    """Optimizer trial counts and timing from observer timestamps.

    ``trials`` maps an op index (None for the set-up) to one
    ``(perf_counter reading, accepted)`` pair per trial, taken by the run's
    observer as the trial finished.  The
    first trial of a run starts with its first ``orthonormalize_cluster``
    span, each later trial where the previous one ended.
    """
    durations = []
    count = accepted = 0
    for op, marks in trials.items():
        count += len(marks)
        accepted += sum(1 for _, ok in marks if ok)
        starts = [s.start for s in spans if s.op == op
                  and s.name == "eigensolver.orthonormalize_cluster"]
        if marks and starts:
            stamps = [min(starts)] + [t for t, _ in marks]
            durations += [b - a for a, b in zip(stamps, stamps[1:])]
    near = sum(1 for s in spans if s.name == "eigensolver.solve_spectrum_near")
    return {
        "optimizer.trials": float(count),
        "optimizer.accepted_ratio": accepted / count if count else 0.0,
        "optimizer.near_solves_per_trial": near / count if count else 0.0,
        "optimizer.trial_s_p50": statistics.median(durations) if durations else 0.0,
    }

"""Timing loop, metrics and the result record of one benchmark run.

Closed loop: one process, one caller, one operation at a time.  The
program is single-threaded apart from the BLAS pool, so nothing queues or
waits between operations and no wait metric is reported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from steklov.errors import SteklovError

from perfbench import spans
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
OUT_DIR = ROOT / ".perfbench_out"

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3


@dataclass
class OpRecord:
    """Outcome of one op: duration, error class, failed check (if any)."""

    index: int
    key: str
    seconds: float
    error: str | None = None
    problem: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.problem is None


def cycle_count(cls, seconds: float) -> int:
    """Whole cycles that fill ``seconds`` at the workload's measured cycle time.

    The count depends only on ``seconds``, never on how fast this machine
    happens to be, so runs of a workload with the same seed do the same
    work on the same inputs.
    """
    return max(cls.min_cycles, round(seconds / cls.cycle_s))


def run_op(op, index: int, recorder: spans.Recorder | None = None) -> OpRecord:
    """Time one op (traced when ``recorder`` is given), then check its output.

    An op that raises is recorded with its error class; an op whose output
    check objects is recorded with the reason.  Wrappers are installed for
    the traced op only, so untraced ops interleaved with it run bare.
    """
    result, error = None, None
    t0 = time.perf_counter()
    try:
        if recorder is None:
            result = op.call()
        else:
            recorder.op = index
            with spans.installed(recorder), recorder.span(spans.OP_SPAN):
                result = op.call()
    except Exception as exc:  # recorded per op; the loop keeps going
        error = type(exc).__name__
        if not isinstance(exc, SteklovError):
            traceback.print_exc(file=sys.stderr)
    finally:
        elapsed = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = None
    problem = op.check(result) if error is None else None
    return OpRecord(index, op.key, elapsed, error, problem)


def cycle_ops(workload, cycles: int) -> list:
    """The ops of the workload's first ``cycles`` cycles, in order."""
    return [op for c in range(cycles) for op in workload.cycle(c)]


def run_cycles(workload, cycles: int) -> list[OpRecord]:
    """Run ``cycles`` whole cycles of the workload, untraced."""
    return [run_op(op, i) for i, op in enumerate(cycle_ops(workload, cycles))]


def run_paired(plain, traced, cycles: int, recorder: spans.Recorder):
    """The same ops on two workloads, untraced and traced, in alternating pairs.

    Each op of ``plain`` runs next to its twin of ``traced``.  Which of the
    two goes first alternates between the pairs of each op key, so neither
    a drift in machine speed nor a cost of running first falls on one pass
    only.  Returns the untraced records, the traced records (indexed after
    the untraced ones) and the optimizer trial marks keyed by traced op
    index.
    """
    pairs = list(zip(cycle_ops(plain, cycles), cycle_ops(traced, cycles)))
    offset = len(pairs)
    bare: list[OpRecord] = []
    wrapped: list[OpRecord] = []
    trials: dict[int, list] = {}
    seen: Counter = Counter()
    for i, (op, twin) in enumerate(pairs):
        traced_first = seen[op.key] % 2 == 1
        seen[op.key] += 1
        if traced_first:
            wrapped.append(run_op(twin, offset + i, recorder))
        bare.append(run_op(op, i))
        if not traced_first:
            wrapped.append(run_op(twin, offset + i, recorder))
        if twin.trials:
            trials[offset + i] = twin.trials
    return bare, wrapped, trials


def pass_overhead(bare: list[OpRecord], traced: list[OpRecord]) -> float:
    """Traced minus bare op time: the median relative difference of twin ops,
    times the bare pass's op time.

    A median over the pairs keeps one op that the machine happened to slow
    down from setting the figure.
    """
    ratios = [t.seconds / b.seconds - 1.0 for b, t in zip(bare, traced)]
    return statistics.median(ratios) * sum(b.seconds for b in bare)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds: an empty function, wrapped, in a root span."""
    recorder = spans.Recorder()
    bare = lambda: None  # noqa: E731
    wrapped = recorder.wrap("bench.empty", bare)
    with recorder.span(spans.OP_SPAN):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
    for _ in range(calls):
        bare()
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / calls


def apply_closing_checks(workload, records: list[OpRecord]) -> None:
    """Run the workload's post-window checks; a failure marks the key's last op."""
    for key, problem in workload.closing_checks():
        if problem is None:
            continue
        last = [r for r in records if r.key == key]
        if last and last[-1].problem is None:
            last[-1].problem = problem


def time_setup_child(workload: str, seed: int, scale: str) -> float:
    """Wall time from starting a fresh process to its first op being ready."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        child.wait()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process for '{workload}' failed "
                           f"(exit code {child.returncode})")
    return elapsed


def setup_only(workload: str, seed: int, scale: str) -> None:
    WORKLOADS[workload](seed, scale).setup()
    print("ready", flush=True)


def end_to_end(setups: list[float], records: list[OpRecord],
               median_keys: tuple[str, ...] | None = None) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts.

    ``op_s_p50`` is the median over correct ops with a key in
    ``median_keys`` (every key when None); if none of them is correct, over
    all of them, failed included.
    """
    correct = sum(1 for r in records if r.ok)
    busy = sum(r.seconds for r in records)
    timed = [r for r in records if median_keys is None or r.key in median_keys]
    good = [r.seconds for r in timed if r.ok]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": correct / busy if busy > 0 else 0.0,
        "op_s_p50": statistics.median(good or [r.seconds for r in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "ops_per_s": len(records),
               "op_s_p50": len(good), "peak_rss_mb": 1}
    return values, samples


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full result record."""
    cls = WORKLOADS[workload]
    cycles = cycle_count(cls, seconds)
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "scale": scale, "cycles": cycles,
              "environment": environment(seed)}
    if not trace:
        setups = [time_setup_child(workload, seed, scale) for _ in range(setup_repeats)]
        wl = cls(seed, scale)
        wl.setup()
        records = run_cycles(wl, cycles)
        apply_closing_checks(wl, records)
        values, samples = end_to_end(setups, records, wl.median_keys)
        result.update(setup_samples=setups, samples=samples)
        units = E2E_UNITS
    else:
        # the same work twice, untraced and traced, each with its own set-up
        plain = cls(seed, scale)
        plain.setup()
        recorder = spans.Recorder()
        with spans.installed(recorder), recorder.span(spans.SETUP_SPAN):
            traced = cls(seed, scale)
            traced.setup()
        bare, more, trials = run_paired(plain, traced, cycles, recorder)
        trials[None] = traced.setup_trials
        apply_closing_checks(plain, bare)
        apply_closing_checks(traced, more)
        values = spans.layer_metrics(recorder.spans)
        values.update(spans.trial_metrics(recorder.spans, trials))
        values["trace.overhead_s"] = pass_overhead(bare, more)
        values["trace.wrapper_s"] = wrapper_cost() * values["trace.spans"]
        records = bare + more
        result.update(spans=recorder.as_dicts())
        units = per_layer_units()
        wl = traced
    result["ops"] = [asdict(r) for r in records]
    result["errors"] = _error_counts(records)
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if not r.ok)
    result["correct"] = verdict(records, wl.known_errors)
    result["metrics"] = {name: {"value": float(values[name]), "unit": units[name]}
                         for name in units}
    return result


def verdict(records: list[OpRecord], known_errors) -> bool:
    """True when no op failed, apart from the known defects ``known_errors``.

    ``known_errors`` holds ``(op key, error class)`` pairs that are allowed
    to raise; such an op still counts in ``failed``.  Any other raised error
    and any failed output check make the run incorrect.
    """
    return not any(r.problem or (r.error and (r.key, r.error) not in known_errors)
                   for r in records)


def _error_counts(records) -> dict:
    return dict(Counter(f"{r.key}: {r.error}" for r in records if r.error))


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for layer in spans.LAYERS + (spans.OP_SPAN,):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        f"{spans.SETUP_SPAN}.s": "s",
        "greens.eval_greens.points": "count",
        "greens.probe_per_solve": "ratio",
        "eigensolver.orthonormalize_cluster.failures": "count",
        "optimizer.trials": "count",
        "optimizer.accepted_ratio": "ratio",
        "optimizer.near_solves_per_trial": "ratio",
        "optimizer.trial_s_p50": "s",
        "trace.overhead_s": "s",
        "trace.wrapper_s": "s",
        "trace.spans": "count",
    })
    return units


def environment(seed: int) -> dict:
    """Software, BLAS, hardware and source revision of this run."""
    import numpy
    import scipy

    def blas(config):
        lib = config["Build Dependencies"]["blas"]
        return f"{lib.get('name')} {lib.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas(scipy.show_config(mode="dicts")),
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_result(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1))
    return path


def summary_lines(result: dict) -> list[str]:
    """Human-readable report: every metric with its unit and sample count."""
    env = result["environment"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"closed loop, 1 caller, {env['blas_threads']} BLAS threads, "
             f"{env['nproc']} cpus"]
    samples = result.get("samples", {})
    for name, metric in result["metrics"].items():
        n = samples.get(name)
        count = f"  n={n}" if n is not None else ""
        lines.append(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{count}")
    lines.append(f"  {'fail_ratio':<48} {result['failed']:>7d}/{result['attempted']:<6d}"
                 f" failed/attempted")
    for label, count in sorted(result["errors"].items()):
        lines.append(f"    error  {label}  x{count}")
    for op in result["ops"]:
        if op["problem"]:
            lines.append(f"    check  op {op['index']} ({op['key']}): {op['problem']}")
    lines.append("  waiting: none (one caller, one op at a time, no queue)")
    lines.append("env " + json.dumps(env, sort_keys=True))
    return lines

"""Command-line front end: spectra, source fields, arc tuning, validation.

Four subcommands share one run-file format::

    steklov spectrum --config run.cfg [--out DIR] [--nodes N]
    steklov greens   --config run.cfg [--out DIR] [--nodes N]
    steklov optimize --config run.cfg [--out DIR] [--nodes N]
    steklov validate [--config run.cfg] [--out DIR] [--nodes N]

Run-file syntax (format 1)
--------------------------
INI sections with ``key = value`` pairs; ``;`` and ``#`` start comments.
Written files begin with the header comment ``# steklov run file, format 1``
and carry ``format = 1`` under ``[config]``; readers reject other formats.
Scalars accept a trailing ``pi`` (``0.36pi``, ``-pi``).  Points are comma
pairs (``source = -0.9, 0.0``); parameter intervals are colon-separated
endpoints joined by commas (``neumann = 0.8 : 2.1, 3.8 : 4.6``).

``[curve]``            ``name`` (circle | ellipse | kite | flower) plus any
                       keyword the named factory takes (``radius``, ...).
``[discretization]``   ``nodes`` - boundary node count (default 256).
``[partition]``        ``neumann`` - intervals carrying the zero-flux
                       condition; omit the section for an all-Steklov run.
``[spectrum]``         ``count`` - requested eigenvalue count (default 10).
``[greens]``           ``lambda``, ``source``, optional ``grid`` (lattice
                       points per axis, default 64; 0 skips the grid file).
``[optimize]``         ``lambda_star``, ``source``, ``receiver``, optional
                       ``c_tol``, ``damping``, ``max_iterations``,
                       ``damping_mode`` (constant | gap-ratio), ``window``.

Outputs (all byte-deterministic for identical configs)
-------------------------------------------------------
spectrum   ``spectrum.csv``            index, eigenvalue, multiplicity_cluster
greens     ``greens_boundary.csv``     parameter_over_pi, x, y, value, label
           ``greens_grid.dat``         whitespace ``x y value`` rows in
                                       gnuplot ``splot`` blocks, restricted to
                                       interior lattice points at least one
                                       node spacing from the boundary
optimize   ``optimize_trace.csv``      iteration, epsilon_delta, f,
                                       eigenvalue, accepted (one row per
                                       trial, kept on non-convergence)
           ``optimize_summary.json``   theta_center, l_N, S_Steklov, S_End,
                                       ratio, iterations, converged, ...
validate   ``validate_report.txt``     one residual/threshold line per check

Angles (``parameter_over_pi``, ``theta_center``, ``l_N``) are reported as
multiples of pi.  Source-field values follow the reported convention: on
degenerate-capacity curves the arclength boundary mean is subtracted.

Exit codes: 0 success, 2 configuration error (also raised when a requested
target is infeasible for the domain), 3 numerical error (resonance, solver
failure, or a failing validation suite), 4 optimizer non-convergence (the
partial trace is still written).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .discretization import OperatorSet, PartitionMask, assemble, mask_from_partition
from .eigensolver import EigenPair, SpectrumRequest, interiority, solve_spectrum
from .errors import (
    ConfigError,
    ConvergenceError,
    GeometryError,
    PartitionError,
    RequirementError,
    SteklovError,
)
from .geometry import BoundaryCurve, BoundaryPartition, curve_from_name
from .greens import GreensField, eval_greens, reporting_offset, solve_greens
from .optimizer import (
    DAMPING_CONSTANT,
    IterationRecord,
    OptimizerConfig,
    OptimizerTrace,
    run as run_optimizer,
)
from .oracles import CheckResult, run_validation_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4

CONFIG_FORMAT = 1
_HEADER = "# steklov run file, format %d" % CONFIG_FORMAT

# section -> allowed keys; None means free-form (curve factory keywords)
_SCHEMA: dict[str, set[str] | None] = {
    "config": {"format"},
    "curve": None,
    "discretization": {"nodes"},
    "partition": {"neumann"},
    "spectrum": {"count"},
    "greens": {"lambda", "source", "grid"},
    "optimize": {
        "lambda_star",
        "source",
        "receiver",
        "c_tol",
        "damping",
        "max_iterations",
        "damping_mode",
        "window",
    },
}


# ---------------------------------------------------------------------------
# run-file parsing
# ---------------------------------------------------------------------------


def _number(text: str, what: str) -> float:
    """Float literal with an optional trailing ``pi`` factor."""
    s = text.strip().lower()
    scale = 1.0
    if s.endswith("pi"):
        scale = math.pi
        s = s[:-2].strip()
        if s in ("", "+", "-"):
            s += "1"
    try:
        return float(s) * scale
    except ValueError:
        raise ConfigError(f"{what}: bad number literal {text!r}") from None


def _integer(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{what}: bad integer literal {text!r}") from None


def _point(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what}: expected 'x, y', got {text!r}")
    return (_number(parts[0], what), _number(parts[1], what))


def _intervals(text: str, what: str) -> tuple[tuple[float, float], ...]:
    out = []
    for piece in text.split(","):
        ends = piece.split(":")
        if len(ends) != 2:
            raise ConfigError(f"{what}: expected 'lo : hi', got {piece.strip()!r}")
        lo = _number(ends[0], what)
        hi = _number(ends[1], what)
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """Parsed run file: geometry, discretization, and per-command settings.

    Only the sections a command actually reads are required in the file;
    the corresponding build helpers raise :class:`ConfigError` when asked
    for settings the file never provided.
    """

    curve_name: str
    curve_params: tuple[tuple[str, float], ...] = ()
    n_nodes: int = 256
    neumann: tuple[tuple[float, float], ...] = ()
    spectrum_count: int = 10
    greens_lambda: float | None = None
    greens_source: tuple[float, float] | None = None
    grid_points: int = 64
    lambda_star: float | None = None
    opt_source: tuple[float, float] | None = None
    receiver: tuple[float, float] | None = None
    c_tol: float = 1e-3
    damping: float = 0.8
    max_iterations: int = 200
    damping_mode: str = DAMPING_CONSTANT
    window: int = 12

    def build_curve(self) -> BoundaryCurve:
        try:
            return curve_from_name(self.curve_name, **dict(self.curve_params))
        except GeometryError as exc:
            raise ConfigError(str(exc)) from None
        except TypeError as exc:
            raise ConfigError(f"curve '{self.curve_name}': {exc}") from None

    def build_partition(self, curve: BoundaryCurve) -> BoundaryPartition:
        if not self.neumann:
            return BoundaryPartition.all_steklov(curve)
        try:
            part = BoundaryPartition.from_neumann_intervals(
                curve, [list(iv) for iv in self.neumann])
        except PartitionError as exc:
            raise ConfigError(f"[partition] neumann: {exc}") from None
        if not part.has_steklov:
            raise ConfigError("[partition] neumann: no Steklov arc remains")
        return part

    def build_optimizer_config(self) -> OptimizerConfig:
        missing = [name for name, value in (
            ("lambda_star", self.lambda_star),
            ("source", self.opt_source),
            ("receiver", self.receiver)) if value is None]
        if missing:
            raise ConfigError("[optimize] requires " + ", ".join(missing))
        return OptimizerConfig(
            curve=self.build_curve(),
            source=np.array(self.opt_source),
            receiver=np.array(self.receiver),
            lambda_star=float(self.lambda_star),
            C_tol=self.c_tol,
            damping=self.damping,
            max_iterations=self.max_iterations,
            n_nodes=self.n_nodes,
            damping_mode=self.damping_mode,
            spectrum_count=self.window,
        )


def _check_nodes(n: int, what: str) -> int:
    """``n`` unless the log quadrature cannot take it (odd, or below 32)."""
    if n < 32:
        raise ConfigError(f"{what} {n} is below 32")
    if n % 2:
        raise ConfigError(f"{what} {n} is odd; the quadrature needs an even count")
    return n


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"run file is not valid INI: {exc}") from None

    for section in cp.sections():
        allowed = _SCHEMA.get(section, ...)
        if allowed is ...:
            raise ConfigError(
                f"unknown section [{section}] "
                f"(known: {', '.join(sorted(_SCHEMA))})")
        if allowed is None:
            continue
        for key in cp[section]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key '{key}' in [{section}] "
                    f"(known: {', '.join(sorted(allowed))})")

    if cp.has_option("config", "format"):
        fmt = _integer(cp["config"]["format"], "[config] format")
        if fmt != CONFIG_FORMAT:
            raise ConfigError(
                f"run file declares format {fmt}; "
                f"this build reads format {CONFIG_FORMAT}")

    if not cp.has_section("curve") or not cp.has_option("curve", "name"):
        raise ConfigError("run file needs [curve] with a 'name' key")
    curve_name = cp["curve"]["name"].strip()
    curve_params = tuple(
        (key, _number(value, f"[curve] {key}"))
        for key, value in cp["curve"].items() if key != "name")

    kw: dict = {"curve_name": curve_name, "curve_params": curve_params}
    if cp.has_option("discretization", "nodes"):
        kw["n_nodes"] = _integer(cp["discretization"]["nodes"],
                                 "[discretization] nodes")
    if cp.has_option("partition", "neumann"):
        kw["neumann"] = _intervals(cp["partition"]["neumann"],
                                   "[partition] neumann")
    if cp.has_option("spectrum", "count"):
        kw["spectrum_count"] = _integer(cp["spectrum"]["count"],
                                        "[spectrum] count")
    if cp.has_section("greens"):
        g = cp["greens"]
        if "lambda" in g:
            kw["greens_lambda"] = _number(g["lambda"], "[greens] lambda")
        if "source" in g:
            kw["greens_source"] = _point(g["source"], "[greens] source")
        if "grid" in g:
            kw["grid_points"] = _integer(g["grid"], "[greens] grid")
    if cp.has_section("optimize"):
        o = cp["optimize"]
        if "lambda_star" in o:
            kw["lambda_star"] = _number(o["lambda_star"],
                                        "[optimize] lambda_star")
        if "source" in o:
            kw["opt_source"] = _point(o["source"], "[optimize] source")
        if "receiver" in o:
            kw["receiver"] = _point(o["receiver"], "[optimize] receiver")
        if "c_tol" in o:
            kw["c_tol"] = _number(o["c_tol"], "[optimize] c_tol")
        if "damping" in o:
            kw["damping"] = _number(o["damping"], "[optimize] damping")
        if "max_iterations" in o:
            kw["max_iterations"] = _integer(o["max_iterations"],
                                            "[optimize] max_iterations")
        if "damping_mode" in o:
            kw["damping_mode"] = o["damping_mode"].strip()
        if "window" in o:
            kw["window"] = _integer(o["window"], "[optimize] window")

    _check_nodes(kw.get("n_nodes", 256), "[discretization] nodes =")
    if kw.get("spectrum_count", 10) < 1:
        raise ConfigError("[spectrum] count must be positive")
    if kw.get("grid_points", 64) < 0:
        raise ConfigError("[greens] grid must be non-negative")
    return RunConfig(**kw)


def load_config(path: str | Path, nodes: int | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read run file: {exc}") from None
    cfg = parse_config(text)
    if nodes is not None:
        cfg = replace(cfg, n_nodes=_check_nodes(nodes, "--nodes"))
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Serialize back to run-file text; parse(render(c)) == c.

    Floats are written with ``repr`` so the round trip is lossless.
    """
    lit = lambda x: repr(float(x))  # noqa: E731 - local shorthand
    lines = [_HEADER, "", "[config]", f"format = {CONFIG_FORMAT}", ""]
    lines += ["[curve]", f"name = {cfg.curve_name}"]
    lines += [f"{key} = {lit(value)}" for key, value in cfg.curve_params]
    lines += ["", "[discretization]", f"nodes = {cfg.n_nodes}"]
    if cfg.neumann:
        body = ", ".join(f"{lit(lo)} : {lit(hi)}" for lo, hi in cfg.neumann)
        lines += ["", "[partition]", f"neumann = {body}"]
    lines += ["", "[spectrum]", f"count = {cfg.spectrum_count}"]
    if cfg.greens_lambda is not None or cfg.greens_source is not None:
        lines += ["", "[greens]"]
        if cfg.greens_lambda is not None:
            lines += [f"lambda = {lit(cfg.greens_lambda)}"]
        if cfg.greens_source is not None:
            lines += ["source = %s, %s" % tuple(map(lit, cfg.greens_source))]
        lines += [f"grid = {cfg.grid_points}"]
    if cfg.lambda_star is not None:
        lines += ["", "[optimize]",
                  f"lambda_star = {lit(cfg.lambda_star)}"]
        if cfg.opt_source is not None:
            lines += ["source = %s, %s" % tuple(map(lit, cfg.opt_source))]
        if cfg.receiver is not None:
            lines += ["receiver = %s, %s" % tuple(map(lit, cfg.receiver))]
        lines += [f"c_tol = {lit(cfg.c_tol)}",
                  f"damping = {lit(cfg.damping)}",
                  f"max_iterations = {cfg.max_iterations}",
                  f"damping_mode = {cfg.damping_mode}",
                  f"window = {cfg.window}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_spectrum_csv(path: Path, pairs: Sequence[EigenPair]) -> None:
    rows = ["index,eigenvalue,multiplicity_cluster"]
    rows += [f"{i},{_fmt(p.value)},{p.cluster_id}" for i, p in enumerate(pairs)]
    _write(path, "\n".join(rows) + "\n")


def write_boundary_csv(path: Path, ops: OperatorSet, mask: PartitionMask,
                       field: GreensField) -> None:
    offset = reporting_offset(ops, field)
    rows = ["parameter_over_pi,x,y,value,label"]
    for i in range(ops.n_nodes):
        label = "steklov" if mask.is_steklov[i] else "neumann"
        rows.append(",".join((
            _fmt(ops.params[i] / math.pi),
            _fmt(ops.points[i, 0]), _fmt(ops.points[i, 1]),
            _fmt(field.boundary_values[i] - offset), label)))
    _write(path, "\n".join(rows) + "\n")


def interior_lattice(ops: OperatorSet, grid_points: int,
                     source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular lattice over the bounding box, kept strictly interior.

    Points closer to the boundary than one local node spacing are dropped
    (the layer potential loses accuracy there), as is anything that would
    collide with the source.  Returns the kept points and a block index
    (one block per lattice column) for gnuplot-style output.
    """
    lo = ops.points.min(axis=0)
    hi = ops.points.max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid_points)
    ys = np.linspace(lo[1], hi[1], grid_points)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    block = np.repeat(np.arange(grid_points), grid_points)

    keep = interiority(ops, pts) >= 0.5
    sep = np.linalg.norm(pts[:, None, :] - ops.points, axis=-1)
    spacing = ops.weights[np.argmin(sep, axis=1)]
    keep &= sep.min(axis=1) >= spacing
    keep &= np.linalg.norm(pts - source, axis=1) > 1e-9
    return pts[keep], block[keep]


def write_grid_dat(path: Path, ops: OperatorSet, field: GreensField,
                   grid_points: int) -> int:
    """gnuplot ``splot`` blocks of reported values; returns the point count.

    The layer is evaluated with 4x trigonometric upsampling so values stay
    accurate out to the one-node-spacing clipping margin.
    """
    pts, block = interior_lattice(ops, grid_points, field.source)
    values = np.atleast_1d(eval_greens(field, ops, pts, refine=4))
    values = values - reporting_offset(ops, field)
    rows = ["# x y value"]
    last = -1
    for (x, y), b, v in zip(pts, block, values):
        if last >= 0 and b != last:
            rows.append("")
        rows.append(f"{_fmt(x)} {_fmt(y)} {_fmt(v)}")
        last = b
    _write(path, "\n".join(rows) + "\n")
    return len(pts)


def write_trace_csv(path: Path, records: Sequence[IterationRecord]) -> None:
    rows = ["iteration,epsilon_delta,f,eigenvalue,accepted"]
    rows += [",".join((str(r.index), _fmt(r.epsilon_delta), _fmt(r.f),
                       _fmt(r.eigenvalue), str(int(r.accepted))))
             for r in records]
    _write(path, "\n".join(rows) + "\n")


def _json_ready(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    x = float(x)
    return x if math.isfinite(x) else None


def summary_payload(cfg: RunConfig, trace: OptimizerTrace | None,
                    records: Sequence[IterationRecord],
                    message: str = "") -> dict:
    """JSON summary; angles are multiples of pi, unknowns are null."""
    payload = {
        "converged": False,
        "iterations": len(records),
        "lambda_star": cfg.lambda_star,
        "final_eigenvalue": None,
        "last_eigenvalue": records[-1].eigenvalue if records else None,
        "theta_center": None,
        "l_N": None,
        "S_Steklov": None,
        "S_End": None,
        "ratio": None,
    }
    if trace is not None:
        payload.update(
            converged=trace.converged,
            iterations=trace.trials,
            final_eigenvalue=trace.final_eigenvalue,
            last_eigenvalue=trace.final_eigenvalue,
            theta_center=trace.neumann_center_parameter / math.pi,
            l_N=trace.neumann_length / math.pi,
            S_Steklov=trace.s_steklov,
            S_End=trace.s_end,
            ratio=trace.amplification,
        )
    if message:
        payload["message"] = message
    return {key: _json_ready(value) for key, value in payload.items()}


def write_summary_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, outdir: Path, echo: Callable) -> int:
    curve = cfg.build_curve()
    ops = assemble(curve, cfg.n_nodes)
    mask = mask_from_partition(ops, cfg.build_partition(curve))
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=cfg.spectrum_count))
    out = outdir / "spectrum.csv"
    write_spectrum_csv(out, pairs)
    echo(f"spectrum: {len(pairs)} eigenvalues on {curve.name} "
         f"(N={cfg.n_nodes}) -> {out}")
    return EXIT_OK


def cmd_greens(cfg: RunConfig, outdir: Path, echo: Callable) -> int:
    if cfg.greens_lambda is None or cfg.greens_source is None:
        raise ConfigError("[greens] requires 'lambda' and 'source'")
    curve = cfg.build_curve()
    ops = assemble(curve, cfg.n_nodes)
    mask = mask_from_partition(ops, cfg.build_partition(curve))
    field = solve_greens(ops, mask, np.array(cfg.greens_source),
                         cfg.greens_lambda)
    boundary = outdir / "greens_boundary.csv"
    write_boundary_csv(boundary, ops, mask, field)
    message = (f"greens: lambda={_fmt(cfg.greens_lambda)}, "
               f"{ops.n_nodes} boundary nodes -> {boundary}")
    if cfg.grid_points > 0:
        grid = outdir / "greens_grid.dat"
        kept = write_grid_dat(grid, ops, field, cfg.grid_points)
        message += f"; {kept} interior lattice points -> {grid}"
    echo(message)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, outdir: Path, echo: Callable) -> int:
    ocfg = cfg.build_optimizer_config()
    records: list[IterationRecord] = []
    trace_path = outdir / "optimize_trace.csv"
    summary_path = outdir / "optimize_summary.json"
    try:
        trace = run_optimizer(ocfg, observer=records.append)
    except ConvergenceError as exc:
        # keep the partial trace on the budget path before reporting failure
        write_trace_csv(trace_path, records)
        write_summary_json(summary_path,
                           summary_payload(cfg, None, records, str(exc)))
        echo(f"error: {exc}", err=True)
        return EXIT_NO_CONVERGENCE
    write_trace_csv(trace_path, trace.records)
    write_summary_json(summary_path, summary_payload(cfg, trace, records))
    echo(f"optimize: reached {_fmt(trace.final_eigenvalue)} "
         f"(target {_fmt(ocfg.lambda_star)}) in {trace.trials} trials; "
         f"arc length {_fmt(trace.neumann_length / math.pi)}pi "
         f"centered at {_fmt(trace.neumann_center_parameter / math.pi)}pi "
         f"-> {summary_path}")
    return EXIT_OK


def format_report(checks: Sequence[CheckResult]) -> str:
    width = max(len(c.name) for c in checks)
    rows = []
    for c in checks:
        tol = "--" if math.isinf(c.tolerance) else f"{c.tolerance:.3e}"
        rows.append(f"{'pass' if c.passed else 'FAIL'}  "
                    f"{c.name:<{width}}  residual {c.residual:.3e}  "
                    f"threshold {tol}" + (f"  [{c.detail}]" if c.detail else ""))
    good = sum(c.passed for c in checks)
    rows.append(f"overall: {'pass' if good == len(checks) else 'FAIL'} "
                f"({good}/{len(checks)} checks)")
    return "\n".join(rows) + "\n"


def cmd_validate(cfg: RunConfig | None, outdir: Path, echo: Callable,
                 n_nodes: int | None) -> int:
    nodes = _check_nodes(n_nodes, "--nodes") if n_nodes is not None else (
        cfg.n_nodes if cfg is not None else 256)
    checks = run_validation_suite(nodes)
    report = format_report(checks)
    _write(outdir / "validate_report.txt", report)
    echo(report, end="")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Mixed Steklov-Neumann spectra, interior source fields, "
                    "and resonance-tuning arc growth on smooth planar domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("spectrum", "compute an eigenvalue table", True),
        ("greens", "solve and sample an interior source field", True),
        ("optimize", "grow a zero-flux arc toward a target eigenvalue", True),
        ("validate", "run the closed-form cross-check suite", False),
    )
    for name, help_text, needs_config in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=needs_config, metavar="PATH",
                       help="run file (see the module docstring for syntax)")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (created if missing)")
        p.add_argument("--nodes", type=int, default=None, metavar="N",
                       help="override the boundary node count")
    return parser


def _echo(message: str, err: bool = False, end: str = "\n") -> None:
    print(message, file=sys.stderr if err else sys.stdout, end=end)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        if args.command == "validate":
            cfg = load_config(args.config) if args.config else None
            return cmd_validate(cfg, outdir, _echo, args.nodes)
        cfg = load_config(args.config, nodes=args.nodes)
        handler = {"spectrum": cmd_spectrum, "greens": cmd_greens,
                   "optimize": cmd_optimize}[args.command]
        return handler(cfg, outdir, _echo)
    except (ConfigError, RequirementError) as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_NO_CONVERGENCE
    except SteklovError as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_NUMERICAL
    except OSError as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover - exercised through the script
    sys.exit(main())

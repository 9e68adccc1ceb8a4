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
Scalars are finite and accept a trailing ``pi`` (``0.36pi``, ``-pi``).
Points are comma pairs (``source = -0.9, 0.0``); parameter intervals are
colon-separated endpoints joined by commas (``neumann = 0.8 : 2.1, 3.8 : 4.6``).

The table ``_KEYS`` below is the key list: one row per key gives its
field, reader, writer and default.  The ``[optimize]`` tuning keys default
to the values of :class:`~steklov.optimizer.OptimizerConfig`, and
``[spectrum] count`` to that of :class:`~steklov.eigensolver.SpectrumRequest`.

``[curve]``            ``name`` (circle | ellipse | kite | flower) plus any
                       keyword the named factory takes (``radius``, ...).
``[discretization]``   ``nodes`` - boundary node count (even, at least 32).
``[partition]``        ``neumann`` - intervals carrying the zero-flux
                       condition; omit the section for an all-Steklov run.
``[spectrum]``         ``count`` - requested eigenvalue count.
``[greens]``           ``lambda`` (>= 0), ``source``, optional ``grid``
                       (lattice points per axis; 0 skips the grid file).
``[optimize]``         ``lambda_star``, ``source``, ``receiver``, optional
                       tuning keys ``c_tol`` (target band) and
                       ``max_iterations`` (trial budget).

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
multiples of pi.  Source-field values are reported less the field's
``offset`` (:func:`~steklov.greens.solve_greens` sets it to the arclength
boundary mean on capacity-one curves and to zero elsewhere).

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

from .discretization import (
    DEFAULT_NODES,
    OperatorSet,
    PartitionMask,
    assemble,
    mask_from_partition,
)
from .eigensolver import EigenPair, SpectrumRequest, solve_spectrum
from .errors import (
    ConfigError,
    ConvergenceError,
    GeometryError,
    PartitionError,
    RequirementError,
    SteklovError,
)
from .geometry import BoundaryCurve, BoundaryPartition, curve_from_name
from .greens import GreensField, eval_greens, solve_greens
from .kernels import node_pass
from .optimizer import (
    IterationRecord,
    OptimizerConfig,
    OptimizerTrace,
    check_node_count,
    run as run_optimizer,
)
from .oracles import CheckResult, run_validation_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4

CONFIG_FORMAT = 1
_HEADER = "# steklov run file, format %d" % CONFIG_FORMAT


# ---------------------------------------------------------------------------
# run-file keys
# ---------------------------------------------------------------------------


def _number(text: str, what: str) -> float:
    """Finite float literal with an optional trailing ``pi`` factor."""
    s = text.strip().lower()
    scale = 1.0
    if s.endswith("pi"):
        scale = math.pi
        s = s[:-2].strip()
        if s in ("", "+", "-"):
            s += "1"
    try:
        value = float(s) * scale
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what}: bad number literal {text!r}")
    return value


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
        out.append((_number(ends[0], what), _number(ends[1], what)))
    return tuple(out)


def _word(text: str, what: str) -> str:
    return text.strip()


def _format(text: str, what: str) -> int:
    fmt = _integer(text, what)
    if fmt != CONFIG_FORMAT:
        raise ConfigError(f"run file declares format {fmt}; "
                          f"this build reads format {CONFIG_FORMAT}")
    return fmt


def _float(x) -> str:
    return repr(float(x))  # lossless round trip


def _pair(p) -> str:
    return "%s, %s" % tuple(map(_float, p))


def _spans(intervals) -> str:
    return ", ".join(f"{_float(lo)} : {_float(hi)}" for lo, hi in intervals)


@dataclass(frozen=True)
class _Key:
    """One run-file key: ``[section] key`` fills the :class:`RunConfig`
    ``field`` through ``read``, is written back by ``write`` and defaults
    to ``default`` (None or (): unset).  ``option`` names the
    :class:`OptimizerConfig` argument the field feeds.  A row without a
    field only checks its key."""

    section: str
    key: str
    field: str | None
    read: Callable[[str, str], object]
    write: Callable[[object], str]
    default: object = None
    option: str | None = None


def _tuning(key: str, option: str, read, write) -> _Key:
    """An [optimize] tuning key; its default is the OptimizerConfig one."""
    return _Key("optimize", key, key, read, write, getattr(OptimizerConfig, option), option)


# Every run-file key, in the order files are written.  [curve] also takes
# the keywords of the named curve factory.
_KEYS = (
    _Key("config", "format", None, _format, str, CONFIG_FORMAT),
    _Key("curve", "name", "curve_name", _word, str),
    _Key("discretization", "nodes", "n_nodes", _integer, str, DEFAULT_NODES, "n_nodes"),
    _Key("partition", "neumann", "neumann", _intervals, _spans, ()),
    _Key("spectrum", "count", "spectrum_count", _integer, str, SpectrumRequest.count),
    _Key("greens", "lambda", "greens_lambda", _number, _float),
    _Key("greens", "source", "greens_source", _point, _pair),
    _Key("greens", "grid", "grid_points", _integer, str, 64),
    _Key("optimize", "lambda_star", "lambda_star", _number, _float, None, "lambda_star"),
    _Key("optimize", "source", "opt_source", _point, _pair, None, "source"),
    _Key("optimize", "receiver", "receiver", _point, _pair, None, "receiver"),
    _tuning("c_tol", "C_tol", _number, _float),
    _tuning("max_iterations", "max_iterations", _integer, str),
)
_SECTIONS = {section: [row for row in _KEYS if row.section == section]
             for section in dict.fromkeys(row.section for row in _KEYS)}
_DEFAULTS = {row.field: row.default for row in _KEYS if row.field}


def _unset(value) -> bool:
    return value is None or value == ()


@dataclass(frozen=True)
class RunConfig:
    """Parsed run file: geometry, discretization, and per-command settings.

    Each field is filled from one row of ``_KEYS``, or from that row's
    default when the file omits the key.  Only the sections a command
    actually reads are required in the file; the build helpers raise
    :class:`ConfigError` when asked for settings the file never provided.
    """

    curve_name: str
    curve_params: tuple[tuple[str, float], ...]
    n_nodes: int
    neumann: tuple[tuple[float, float], ...]
    spectrum_count: int
    greens_lambda: float | None
    greens_source: tuple[float, float] | None
    grid_points: int
    lambda_star: float | None
    opt_source: tuple[float, float] | None
    receiver: tuple[float, float] | None
    c_tol: float
    max_iterations: int

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
        rows = [row for row in _KEYS if row.option]
        missing = [row.key for row in rows if getattr(self, row.field) is None]
        if missing:
            raise ConfigError("[optimize] requires " + ", ".join(missing))
        return OptimizerConfig(curve=self.build_curve(), **{
            row.option: getattr(self, row.field) for row in rows})


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"run file is not valid INI: {exc}") from None

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}] "
                f"(known: {', '.join(sorted(_SECTIONS))})")
        known = sorted(row.key for row in _SECTIONS[section])
        for key in cp[section]:
            if key not in known and section != "curve":
                raise ConfigError(
                    f"unknown key '{key}' in [{section}] "
                    f"(known: {', '.join(known)})")

    values = dict(_DEFAULTS)
    for row in _KEYS:
        if cp.has_option(row.section, row.key):
            value = row.read(cp[row.section][row.key], f"[{row.section}] {row.key}")
            if row.field:
                values[row.field] = value
    if values["curve_name"] is None:
        raise ConfigError("run file needs [curve] with a 'name' key")
    values["curve_params"] = tuple(
        (key, _number(value, f"[curve] {key}"))
        for key, value in cp["curve"].items() if key != "name")

    cfg = RunConfig(**values)
    check_node_count(cfg.n_nodes, "[discretization] nodes =")
    if cfg.spectrum_count < 1:
        raise ConfigError("[spectrum] count must be positive")
    if cfg.grid_points < 0:
        raise ConfigError("[greens] grid must be non-negative")
    if cfg.greens_lambda is not None and cfg.greens_lambda < 0:
        raise ConfigError("[greens] lambda must be non-negative")
    return cfg


def load_config(path: str | Path, nodes: int | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read run file: {exc}") from None
    cfg = parse_config(text)
    if nodes is not None:
        cfg = replace(cfg, n_nodes=check_node_count(nodes, "--nodes"))
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Serialize back to run-file text; parse(render(c)) == c.

    A section with an optional key is left out while all its keys keep
    their defaults; every key that is set is written.
    """
    lines = [_HEADER]
    for section, rows in _SECTIONS.items():
        values = [(row, getattr(cfg, row.field) if row.field else row.default)
                  for row in rows]
        if (any(_unset(row.default) for row in rows)
                and all(value == row.default for row, value in values)):
            continue
        lines += ["", f"[{section}]"]
        lines += [f"{row.key} = {row.write(value)}"
                  for row, value in values if not _unset(value)]
        if section == "curve":
            lines += [f"{key} = {_float(value)}" for key, value in cfg.curve_params]
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
    rows = ["parameter_over_pi,x,y,value,label"]
    for i in range(ops.n_nodes):
        label = "steklov" if mask.is_steklov[i] else "neumann"
        rows.append(",".join((
            _fmt(ops.params[i] / math.pi),
            _fmt(ops.points[i, 0]), _fmt(ops.points[i, 1]),
            _fmt(field.boundary_values[i] - field.offset), label)))
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

    nearest, sep, _, gauss = node_pass(pts, ops.points, normals=ops.normals,
                                       weights=ops.weights)
    keep = (gauss >= 0.5) & (sep >= ops.weights[nearest])
    keep &= np.linalg.norm(pts - source, axis=1) > 1e-9
    return pts[keep], block[keep]


def write_grid_dat(path: Path, ops: OperatorSet, field: GreensField,
                   grid_points: int) -> int:
    """gnuplot ``splot`` blocks of reported values; returns the point count.

    The layer is evaluated with 4x trigonometric upsampling so values stay
    accurate out to the one-node-spacing clipping margin; only the lattice
    points within 10 node weights of the boundary take the upsampled layer,
    the others the N-node one, which equals it to rounding there.
    """
    pts, block = interior_lattice(ops, grid_points, field.source)
    values = np.atleast_1d(eval_greens(field, ops, pts, refine=4)) - field.offset
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
    nodes = check_node_count(n_nodes, "--nodes") if n_nodes is not None else (
        cfg.n_nodes if cfg is not None else _DEFAULTS["n_nodes"])
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

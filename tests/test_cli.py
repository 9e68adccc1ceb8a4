"""Command-line front end: run files, writers, exit codes, determinism."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from steklov import kernels
from steklov.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    _intervals,
    _number,
    _point,
    load_config,
    main,
    parse_config,
    render_config,
)
from steklov.errors import ConfigError
from steklov.optimizer import OptimizerConfig

MINIMAL = """\
[curve]
name = circle
"""

DISK_RUN = """\
# steklov run file, format 1
[config]
format = 1

[curve]
name = circle

[discretization]
nodes = 128

[spectrum]
count = 9

[greens]
lambda = 2.5
source = -0.9, 0.0
grid = 30

[optimize]
lambda_star = 2.5
source = -0.9, 0.0
receiver = 0.0, 0.9
"""


def write_run(tmp_path, text=DISK_RUN, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# literal parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("2.5", 2.5),
    ("  -3 ", -3.0),
    ("0.36pi", 0.36 * math.pi),
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("+PI", math.pi),
    ("1e-3", 1e-3),
])
def test_number_literals(text, expected):
    assert _number(text, "x") == pytest.approx(expected, rel=0, abs=1e-15)


@pytest.mark.parametrize("text", ["", "two", "1..2", "pi pi", "0x3"])
def test_number_rejects_garbage(text):
    with pytest.raises(ConfigError, match="bad number"):
        _number(text, "x")


def test_point_and_interval_literals():
    assert _point("-0.9, 0.0", "p") == (-0.9, 0.0)
    assert _intervals("0.5pi : pi, 4 : 4.5", "n") == (
        (0.5 * math.pi, math.pi), (4.0, 4.5))
    with pytest.raises(ConfigError, match="expected 'x, y'"):
        _point("1.0", "p")
    with pytest.raises(ConfigError, match="expected 'lo : hi'"):
        _intervals("1, 2", "n")


# ---------------------------------------------------------------------------
# run-file parsing and validation
# ---------------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.curve_name == "circle"
    assert cfg.n_nodes == 256 and cfg.spectrum_count == 10
    assert cfg.neumann == () and cfg.greens_lambda is None


def test_full_config_parsed():
    cfg = parse_config(DISK_RUN)
    assert cfg.n_nodes == 128
    assert cfg.spectrum_count == 9
    assert cfg.greens_lambda == 2.5
    assert cfg.greens_source == (-0.9, 0.0)
    assert cfg.grid_points == 30
    assert cfg.lambda_star == 2.5
    assert cfg.receiver == (0.0, 0.9)


@pytest.mark.parametrize("text,match", [
    ("[orbit]\nname = circle\n", "unknown section"),
    ("[curve]\nname = circle\n[spectrum]\nhowmany = 4\n", "unknown key"),
    ("[config]\nformat = 7\n[curve]\nname = circle\n", "format 7"),
    ("[spectrum]\ncount = 4\n", r"needs \[curve\]"),
    ("[curve]\nradius = 2\n", "'name'"),
    ("[curve]\nname = circle\n[discretization]\nnodes = 16\n", "below 32"),
    ("[curve]\nname = circle\n[discretization]\nnodes = 33\n", "odd"),
    ("not ini at all", "not valid INI"),
    ("[curve]\nname = circle\n[spectrum]\ncount = 0\n", "positive"),
    ("[curve]\nname = circle\n[greens]\nsource = nan, 0\n", "bad number"),
    ("[curve]\nname = circle\n[greens]\nlambda = -1\n", "non-negative"),
    ("[curve]\nname = circle\n[optimize]\nc_tol = inf\n", "bad number"),
])
def test_parse_rejections(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_build_curve_errors():
    with pytest.raises(ConfigError, match="unknown curve"):
        parse_config("[curve]\nname = trefoil\n").build_curve()
    with pytest.raises(ConfigError, match="circle"):
        parse_config("[curve]\nname = circle\nwobble = 3\n").build_curve()


def test_build_partition_paths():
    cfg = parse_config(MINIMAL)
    curve = cfg.build_curve()
    assert not cfg.build_partition(curve).neumann_intervals()

    mixed = parse_config(MINIMAL + "[partition]\nneumann = 0.5pi : pi\n")
    part = mixed.build_partition(curve)
    (lo, hi), = part.neumann_intervals()
    assert (lo, hi) == pytest.approx((0.5 * math.pi, math.pi))

    # geometric rejections arrive as ConfigError, message preserved
    overlap = parse_config(MINIMAL + "[partition]\nneumann = 0 : 3.2, 3.1 : 6.3\n")
    with pytest.raises(ConfigError, match="overlap"):
        overlap.build_partition(curve)
    full = parse_config(MINIMAL + "[partition]\nneumann = 0 : 2pi\n")
    with pytest.raises(ConfigError, match="whole boundary"):
        full.build_partition(curve)
    # two touching intervals cover everything without tripping the overlap
    # guard; nothing is left to measure eigenvalues against
    touching = parse_config(MINIMAL + "[partition]\nneumann = 0 : 3.2, 3.2 : 2pi\n")
    with pytest.raises(ConfigError, match="no Steklov arc remains"):
        touching.build_partition(curve)


def test_optimizer_config_requires_targets():
    with pytest.raises(ConfigError, match="lambda_star, source, receiver"):
        parse_config(MINIMAL).build_optimizer_config()
    ocfg = parse_config(DISK_RUN).build_optimizer_config()
    assert ocfg.lambda_star == 2.5 and ocfg.n_nodes == 128


def test_render_round_trip():
    for text in (MINIMAL, DISK_RUN,
                 MINIMAL + "[partition]\nneumann = 0.25pi : 0.75pi\n"):
        cfg = parse_config(text)
        rendered = render_config(cfg)
        assert rendered.startswith("# steklov run file, format 1\n")
        assert parse_config(rendered) == cfg


EVERY_KEY = """\
[curve]
name = ellipse
a = 1.25
b = 0.75

[discretization]
nodes = 96

[partition]
neumann = 0.25pi : 0.5pi, pi : 1.25pi

[spectrum]
count = 7

[greens]
lambda = 1.75
source = 0.1, -0.2
grid = 12

[optimize]
lambda_star = 3.5
source = -0.3, 0.2
receiver = 0.2, -0.3
c_tol = 1e-4
max_iterations = 40
"""


def test_render_round_trip_with_every_key_set():
    cfg = parse_config(EVERY_KEY)
    defaults = parse_config(MINIMAL)
    for f in fields(RunConfig):
        assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
    assert parse_config(render_config(cfg)) == cfg


def test_optimizer_tuning_defaults_are_the_library_defaults():
    text = MINIMAL + """\
[optimize]
lambda_star = 2.5
source = -0.9, 0.0
receiver = 0.0, 0.9
"""
    built = parse_config(text).build_optimizer_config()
    plain = OptimizerConfig(curve=built.curve, source=(-0.9, 0.0),
                            receiver=(0.0, 0.9), lambda_star=2.5)
    for f in fields(OptimizerConfig):
        a, b = getattr(built, f.name), getattr(plain, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


def test_load_config_nodes_override(tmp_path):
    path = write_run(tmp_path)
    assert load_config(path).n_nodes == 128
    assert load_config(path, nodes=192).n_nodes == 192
    with pytest.raises(ConfigError, match="below 32"):
        load_config(path, nodes=8)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_disk_csv(tmp_path, capsys):
    path = write_run(tmp_path)
    code = main(["spectrum", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity_cluster"
    table = [line.split(",") for line in lines[1:]]
    values = np.array([float(row[1]) for row in table])
    assert np.allclose(values, [0, 1, 1, 2, 2, 3, 3, 4, 4], atol=1e-6)
    assert [int(row[0]) for row in table] == list(range(9))
    # paired modes share a cluster id
    assert table[1][2] == table[2][2] and table[3][2] == table[4][2]
    assert "spectrum.csv" in capsys.readouterr().out


def test_spectrum_byte_deterministic(tmp_path):
    path = write_run(tmp_path)
    for sub in ("a", "b"):
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    assert ((tmp_path / "a" / "spectrum.csv").read_bytes()
            == (tmp_path / "b" / "spectrum.csv").read_bytes())


def test_spectrum_bad_config_exits_2(tmp_path, capsys):
    path = write_run(tmp_path, "[curve]\nname = dodecagon\n")
    assert main(["spectrum", "--config", path,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_missing_config_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--out", str(tmp_path)])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# greens command
# ---------------------------------------------------------------------------


def test_greens_outputs(tmp_path):
    path = write_run(tmp_path)
    out = tmp_path / "out"
    assert main(["greens", "--config", path, "--out", str(out)]) == EXIT_OK

    lines = (out / "greens_boundary.csv").read_text().splitlines()
    assert lines[0] == "parameter_over_pi,x,y,value,label"
    assert len(lines) == 1 + 128
    assert all(line.endswith("steklov") for line in lines[1:])
    params = np.array([float(line.split(",")[0]) for line in lines[1:]])
    assert params[0] == 0.0 and params[-1] < 2.0  # multiples of pi

    grid = (out / "greens_grid.dat").read_text().splitlines()
    assert grid[0] == "# x y value"
    body = [line for line in grid[1:] if line]
    assert "" in grid[1:]  # splot block separators
    pts = np.array([[float(tok) for tok in line.split()] for line in body])
    assert pts.shape[1] == 3
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) < 1.0)  # interior only


def test_greens_neumann_labels(tmp_path):
    text = DISK_RUN + "\n[partition]\nneumann = 0.5pi : pi\n"
    out = tmp_path / "out"
    assert main(["greens", "--config", write_run(tmp_path, text),
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in
            (out / "greens_boundary.csv").read_text().splitlines()[1:]]
    labels = {row[4] for row in rows}
    assert labels == {"steklov", "neumann"}
    for row in rows:
        t = float(row[0]) * math.pi
        expected = "neumann" if 0.5 * math.pi < t < math.pi else "steklov"
        if min(abs(t - 0.5 * math.pi), abs(t - math.pi)) > 1e-9:
            assert row[4] == expected


def test_greens_center_source_is_lambda_independent(tmp_path):
    # with the source at the disk center the whole field collapses to the
    # free-space log term, so the sampled values cannot depend on lambda
    def run_with(lam, sub):
        text = DISK_RUN.replace("lambda = 2.5", f"lambda = {lam}") \
                       .replace("source = -0.9, 0.0", "source = 0.0, 0.0", 1)
        out = tmp_path / sub
        assert main(["greens", "--config",
                     write_run(tmp_path, text, f"{sub}.cfg"),
                     "--out", str(out)]) == EXIT_OK
        body = [line for line in
                (out / "greens_grid.dat").read_text().splitlines()[1:] if line]
        return np.array([float(line.split()[2]) for line in body])

    diff = run_with(2.5, "a") - run_with(0.7, "b")
    assert np.max(np.abs(diff)) < 1e-8


def test_greens_resonance_exits_3(tmp_path, capsys):
    text = DISK_RUN.replace("lambda = 2.5", "lambda = 2.0")
    assert main(["greens", "--config", write_run(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "guard band" in err and "2" in err


def test_greens_requires_section(tmp_path):
    assert main(["greens", "--config", write_run(tmp_path, MINIMAL),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_greens_grid_zero_skips_lattice(tmp_path):
    text = DISK_RUN.replace("grid = 30", "grid = 0")
    out = tmp_path / "out"
    assert main(["greens", "--config", write_run(tmp_path, text),
                 "--out", str(out)]) == EXIT_OK
    assert (out / "greens_boundary.csv").exists()
    assert not (out / "greens_grid.dat").exists()


# ---------------------------------------------------------------------------
# optimize command
# ---------------------------------------------------------------------------


def test_optimize_disk_run(tmp_path, capsys):
    path = write_run(tmp_path)
    out = tmp_path / "out"
    assert main(["optimize", "--config", path, "--out", str(out)]) == EXIT_OK

    summary = json.loads((out / "optimize_summary.json").read_text())
    assert summary["converged"] is True
    assert abs(summary["final_eigenvalue"] - 2.5) <= 1e-3
    assert 0.0 < summary["l_N"] < 2.0  # multiples of pi
    assert 0.0 <= summary["theta_center"] < 2.0
    assert summary["S_Steklov"] == pytest.approx(-0.492, abs=5e-3)
    assert summary["ratio"] > 50

    lines = (out / "optimize_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,epsilon_delta,f,eigenvalue,accepted"
    assert len(lines) - 1 == summary["iterations"]
    assert {line.split(",")[4] for line in lines[1:]} <= {"0", "1"}
    assert lines[-1].split(",")[4] == "1"  # converging trial is accepted
    assert "optimize: reached" in capsys.readouterr().out


def test_optimize_byte_deterministic(tmp_path):
    path = write_run(tmp_path)
    for sub in ("a", "b"):
        assert main(["optimize", "--config", path,
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    for name in ("optimize_trace.csv", "optimize_summary.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_optimize_budget_exhaustion_exits_4(tmp_path, capsys):
    text = DISK_RUN + "max_iterations = 3\n"
    out = tmp_path / "out"
    assert main(["optimize", "--config", write_run(tmp_path, text),
                 "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert "not reached" in capsys.readouterr().err

    lines = (out / "optimize_trace.csv").read_text().splitlines()
    assert len(lines) - 1 == 3  # the partial trace survives the failure
    summary = json.loads((out / "optimize_summary.json").read_text())
    assert summary["converged"] is False
    assert summary["final_eigenvalue"] is None
    assert summary["iterations"] == 3
    assert summary["last_eigenvalue"] is not None
    assert "not reached" in summary["message"]


def test_optimize_infeasible_target_exits_2(tmp_path, capsys):
    text = DISK_RUN.replace("lambda_star = 2.5", "lambda_star = 0.5")
    assert main(["optimize", "--config", write_run(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "constant mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------


def test_validate_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--nodes", "64", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    report = (out / "validate_report.txt").read_text()
    assert report == stdout
    assert "overall: pass" in report
    assert "disk spectrum vs closed form" in report
    assert "residual" in report and "threshold" in report


def test_validate_detects_injected_kernel_sign_error(tmp_path, capsys,
                                                     monkeypatch):
    # flip the free-space kernel's sign: every layer operator inherits the
    # corruption, and the disk cross-check must call it out
    true_gamma0 = kernels.gamma0
    monkeypatch.setattr(kernels, "gamma0", lambda x, y: -true_gamma0(x, y))
    code = main(["validate", "--nodes", "64", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    report = (tmp_path / "validate_report.txt").read_text()
    assert "FAIL" in report
    lines = [l for l in report.splitlines() if "disk spectrum" in l]
    assert lines and lines[0].startswith("FAIL")


def test_validate_nodes_from_config(tmp_path):
    path = write_run(tmp_path, MINIMAL + "[discretization]\nnodes = 64\n")
    assert main(["validate", "--config", path,
                 "--out", str(tmp_path / "out")]) == EXIT_OK


def test_validate_rejects_odd_node_count(tmp_path, capsys):
    assert main(["validate", "--nodes", "33", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "odd" in capsys.readouterr().err

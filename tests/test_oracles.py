"""Closed-form reference spectra: disk, square table, annulus mode, bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from steklov import oracles
from steklov.discretization import assemble, mask_from_partition
from steklov.eigensolver import SpectrumRequest, solve_spectrum
from steklov.errors import EigenSolveError, OracleError
from steklov.geometry import BoundaryPartition, circle
from steklov.oracles import (
    AnnulusRadialEigenvalue,
    CheckResult,
    OracleSpectrum,
    annulus_radial_eigenvalue,
    disk_spectrum,
    flower_scaled_spectrum,
    run_validation_suite,
    square_condition_residual,
    square_roots,
    square_spectrum,
    steklov_neumann_upper_bound,
    third_eigenvalue_strict_bound,
)

# First matching-condition root of each separable square family, frozen from
# two independent root-finders (bisection on the rescaled conditions and
# Brent iteration on the raw tan-form); the runs agreed to < 1e-15.
ROOT_SIN_COSH = 0.93755203435598
ROOT_COS_SINH = 2.34704556648709
ROOT_COS_COSH = 2.36502037243135
ROOT_SIN_SINH = 3.92660231204792

SQUARE_HEAD = [0.0, 0.938, 0.938, 1.0, 2.347, 2.347, 2.365, 2.365]


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------

def test_spectrum_container_validates():
    with pytest.raises(OracleError):
        OracleSpectrum(np.array([1.0, 0.0]), np.array([1, 1]), "disk")
    with pytest.raises(OracleError):
        OracleSpectrum(np.array([0.0, 1.0]), np.array([1, 0]), "disk")
    with pytest.raises(OracleError):
        OracleSpectrum(np.array([0.0]), np.array([1]), "pentagon")
    with pytest.raises(OracleError):
        OracleSpectrum(np.array([0.0, 1.0]), np.array([1]), "disk")


def test_multiplicity_lookup():
    spec = disk_spectrum(9)
    assert spec.multiplicities[spec.values == 0.0].tolist() == [1]
    assert spec.multiplicities[spec.values == 3.0].tolist() == [2, 2]


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def test_disk_spectrum_first_nine():
    spec = disk_spectrum(9)
    assert_allclose(spec.values, [0, 1, 1, 2, 2, 3, 3, 4, 4], atol=0)
    assert list(spec.multiplicities) == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert spec.label == "disk"
    assert len(spec) == 9


def test_disk_spectrum_single_entry_and_truncation():
    assert_allclose(disk_spectrum(1).values, [0.0], atol=0)
    # even count cuts a degenerate pair in half; the annotation stays 2
    spec = disk_spectrum(4)
    assert_allclose(spec.values, [0, 1, 1, 2], atol=0)
    assert spec.multiplicities[-1] == 2


def test_disk_spectrum_rejects_bad_count():
    with pytest.raises(ValueError):
        disk_spectrum(0)


# ---------------------------------------------------------------------------
# square benchmark table
# ---------------------------------------------------------------------------

def test_square_head_matches_benchmark_table():
    spec = square_spectrum(8)
    assert_allclose(spec.values, SQUARE_HEAD, atol=5e-4)
    assert list(spec.multiplicities) == [1, 2, 2, 1, 2, 2, 2, 2]


def test_square_first_roots_frozen():
    spec = square_spectrum(10)
    assert abs(spec.values[1] - ROOT_SIN_COSH) < 1e-12
    assert abs(spec.values[4] - ROOT_COS_SINH) < 1e-12
    assert abs(spec.values[6] - ROOT_COS_COSH) < 1e-12
    assert abs(spec.values[8] - ROOT_SIN_SINH) < 1e-12


def test_square_value_one_is_simple():
    spec = square_spectrum(8)
    assert spec.multiplicities[np.argmin(np.abs(spec.values - 1.0))] == 1
    # its eigenfunction is u = x*y: on the edge x = 1 the outward normal
    # derivative is du/dx = y, which equals 1 * u = y on that edge
    y = np.linspace(-1.0, 1.0, 7)
    u_edge = 1.0 * y
    du_dn = y
    assert_allclose(du_dn, 1.0 * u_edge, atol=0)


def test_square_roots_satisfy_conditions():
    for name, roots in square_roots(8 * math.pi).items():
        assert len(roots) >= 7
        for root in roots:
            assert square_condition_residual(name, root) <= 1e-12


def test_square_roots_against_brent_on_raw_equations():
    # independent route: Brent iteration on tan(a) - rhs(a) with the poles
    # excluded by shrinking the brackets
    raw_rhs = {
        "sin-cosh": lambda a: 1.0 / math.tanh(a),
        "cos-cosh": lambda a: -math.tanh(a),
        "cos-sinh": lambda a: -1.0 / math.tanh(a),
        "sin-sinh": math.tanh,
    }
    brackets = {
        "sin-cosh": [(1e-6, math.pi / 2 - 1e-9), (math.pi, 3 * math.pi / 2 - 1e-9)],
        "cos-cosh": [(math.pi / 2 + 1e-9, math.pi),
                     (3 * math.pi / 2 + 1e-9, 2 * math.pi)],
        "cos-sinh": [(math.pi / 2 + 1e-9, math.pi),
                     (3 * math.pi / 2 + 1e-9, 2 * math.pi)],
        "sin-sinh": [(math.pi + 1e-9, 3 * math.pi / 2 - 1e-9),
                     (2 * math.pi + 1e-9, 5 * math.pi / 2 - 1e-9)],
    }
    roots = square_roots(8 * math.pi)
    for name, brs in brackets.items():
        f = lambda a, rhs=raw_rhs[name]: math.tan(a) - rhs(a)
        for i, (lo, hi) in enumerate(brs):
            independent = brentq(f, lo, hi, xtol=1e-15)
            assert abs(independent - roots[name][i]) < 1e-12


def test_sin_sinh_roots_live_in_first_half_periods():
    roots = square_roots(12 * math.pi)["sin-sinh"]
    for k, root in enumerate(roots[:4], start=1):
        assert k * math.pi < root < k * math.pi + math.pi / 2


def test_square_small_counts():
    assert_allclose(square_spectrum(1).values, [0.0], atol=0)
    spec = square_spectrum(4)
    assert_allclose(spec.values, [0.0, ROOT_SIN_COSH, ROOT_SIN_COSH, 1.0],
                    atol=1e-12)


def test_square_unknown_family_rejected():
    with pytest.raises(OracleError):
        square_condition_residual("tan-tan", 1.0)


def test_square_spectrum_deterministic():
    a = square_spectrum(12).values
    b = square_spectrum(12).values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# annulus radial mode
# ---------------------------------------------------------------------------

def test_annulus_value_and_matching_form():
    res = annulus_radial_eigenvalue(0.5)
    assert isinstance(res, AnnulusRadialEigenvalue)
    closed = -(1.0 + 0.5) / (0.5 * math.log(0.5))
    assert abs(res.value - closed) / closed < 1e-12
    assert res.closed_form == "-(1+eps)/(eps*log(eps))"
    # the other arrangement is badly off at eps = 0.5
    assert res.alternative_deviation > 0.1
    assert float(res) == res.value


def test_annulus_eigenfunction_satisfies_both_conditions():
    eps = 0.37
    lam = annulus_radial_eigenvalue(eps).value
    # outer condition f'(1) = lam * f(1) fixes f(r) = lam * log(r) + 1
    a_coef, b_coef = lam, 1.0
    f = lambda r: a_coef * math.log(r) + b_coef
    df = lambda r: a_coef / r
    assert abs(df(1.0) - lam * f(1.0)) < 1e-12
    # inner condition with the outward normal pointing down in r
    assert abs(-df(eps) - lam * f(eps)) < 1e-9 * lam


def test_annulus_limit_probe_stays_finite():
    res = annulus_radial_eigenvalue(0.99)
    assert math.isfinite(res.value)
    assert res.value > 0
    assert abs(res.value - 200.0033669920302) < 1e-6


def test_annulus_arrangements_coincide_at_one_over_e():
    res = annulus_radial_eigenvalue(1.0 / math.e)
    assert abs(res.value - (math.e + 1.0)) < 1e-12
    assert res.alternative_deviation < 1e-12


def test_annulus_rejects_bad_radius():
    for eps in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            annulus_radial_eigenvalue(eps)


def test_annulus_deterministic():
    assert annulus_radial_eigenvalue(0.5).value == annulus_radial_eigenvalue(0.5).value


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_upper_bound_values():
    assert steklov_neumann_upper_bound(1, 1.234) == 0.0
    assert abs(steklov_neumann_upper_bound(3, 2 * math.pi) - 2.0) < 1e-15
    assert abs(steklov_neumann_upper_bound(2, math.pi) - 2.0) < 1e-15


def test_strict_third_bound():
    assert abs(third_eigenvalue_strict_bound(2 * math.pi) - 2.0) < 1e-15
    assert abs(third_eigenvalue_strict_bound(4 * math.pi) - 1.0) < 1e-15


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        steklov_neumann_upper_bound(0, 1.0)
    with pytest.raises(ValueError):
        steklov_neumann_upper_bound(2, 0.0)
    with pytest.raises(ValueError):
        third_eigenvalue_strict_bound(-1.0)


def test_mixed_solver_spectrum_respects_bounds():
    curve = circle()
    ops = assemble(curve, 128)
    part = BoundaryPartition.from_neumann_intervals(curve, [(0.8, 2.1)])
    mask = mask_from_partition(ops, part)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=6))
    length = float(np.sum(mask.steklov_weights))
    for j, pair in enumerate(pairs, start=1):
        assert pair.value <= steklov_neumann_upper_bound(j, length) + 1e-6
    assert pairs[2].value < third_eigenvalue_strict_bound(length)


# ---------------------------------------------------------------------------
# flower rescaling
# ---------------------------------------------------------------------------

def test_flower_scaling():
    base = disk_spectrum(9)
    flat = flower_scaled_spectrum(0.0, 9)
    assert_allclose(flat.values, base.values, atol=0)
    scaled = flower_scaled_spectrum(0.1, 9)
    assert abs(scaled.values[1] - 1.0 / 1.1) < 1e-15
    assert list(scaled.multiplicities) == list(base.multiplicities)
    assert scaled.label == "flower"


def test_flower_rejects_large_amplitude():
    with pytest.raises(ValueError):
        flower_scaled_spectrum(1.0, 5)


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

def test_validation_suite_green_across_the_board():
    checks = run_validation_suite(n_nodes=256)
    names = [c.name for c in checks]
    assert len(names) == len(set(names))
    for c in checks:
        assert isinstance(c, CheckResult)
        assert c.passed, f"{c.name}: residual {c.residual:.3e} vs {c.tolerance:.3e}"
    by_name = {c.name: c for c in checks}
    assert by_name["disk spectrum vs closed form"].residual <= 1e-6
    assert by_name["flower k=0 rescaling (eps=0.1)"].residual <= 1e-5
    assert by_name["square matching-condition residuals"].residual <= 1e-12
    assert "mixed upper bounds (kite)" in by_name


def test_validation_suite_fails_checks_whose_solve_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise EigenSolveError("self-adjoint eigensolve failed")

    monkeypatch.setattr(oracles, "solve_spectrum", broken)
    by_name = {c.name: c for c in run_validation_suite(n_nodes=64)}
    solved = [name for name in by_name
              if name.startswith(("disk", "flower", "mixed", "third"))]
    assert len(solved) == 6
    for name in solved:
        assert not by_name[name].passed and by_name[name].residual == math.inf
    assert by_name["square matching-condition residuals"].passed

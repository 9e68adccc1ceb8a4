"""Source-field solver: oracle agreement, conventions, guards, evaluation."""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from steklov import greens, kernels
from steklov.cli import interior_lattice
from steklov.discretization import assemble, mask_from_partition
from steklov.eigensolver import (
    AccuracyWarning,
    ArcSpectrum,
    decompose,
    solve_spectrum_near,
)
from steklov.errors import (
    GeometryError,
    PartitionError,
    ResonanceError,
    SingularityError,
)
from steklov.geometry import TWO_PI, BoundaryPartition, circle, ellipse, kite
from steklov.optimizer import OptimizerConfig, run

# Frozen from a 1536-node run; the 512-node value agrees to 3e-8.
KITE_SOURCE_VALUE = -0.05514797

LAM = 2.5
XS = (-0.9, 0.0)


def disk_source_oracle(xs, y, lam, nmax=200):
    """Fourier-series field of a point source in the unit disk, all-Steklov.

    Independent of the package internals: free-space log term plus the
    harmonic correction with coefficients a_0 = 1/lam and
    a_n = rho^n (n + lam) / (n (lam - n)).
    """
    xs = np.asarray(xs, float)
    y = np.asarray(y, float)
    rho = np.hypot(*xs)
    alpha = np.arctan2(xs[1], xs[0])
    r = np.hypot(*y)
    theta = np.arctan2(y[1], y[0])
    val = np.log(np.linalg.norm(xs - y)) / (2 * np.pi) + 1.0 / (2 * np.pi * lam)
    for n in range(1, nmax):
        a_n = rho ** n * (n + lam) / (n * (lam - n))
        val += a_n * r ** n * np.cos(n * (theta - alpha)) / (2 * np.pi)
    return val


@pytest.fixture(scope="module")
def disk_ops():
    return assemble(circle(), 256)


@pytest.fixture(scope="module")
def disk_steklov(disk_ops):
    mask = mask_from_partition(disk_ops,
                               BoundaryPartition.all_steklov(disk_ops.curve))
    return disk_ops, mask


@pytest.fixture(scope="module")
def disk_mixed(disk_ops):
    part = BoundaryPartition.from_neumann_intervals(disk_ops.curve,
                                                    [(1.0, 2.2)])
    return disk_ops, mask_from_partition(disk_ops, part), part


@pytest.fixture(scope="module")
def kite_setup():
    ops = assemble(kite(), 512)
    mask = mask_from_partition(ops, BoundaryPartition.all_steklov(ops.curve))
    return ops, mask


# --- solve: oracle agreement and representation invariant ---------------------

def test_boundary_values_match_series_oracle(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    expected = np.array([disk_source_oracle(XS, p, LAM) for p in ops.points])
    assert np.max(np.abs(field.boundary_values - expected)) < 1e-8


def test_interior_value_matches_series_oracle(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    val = greens.eval_greens(field, ops, (0.0, 0.9))
    assert abs(val - disk_source_oracle(XS, (0.0, 0.9), LAM)) < 1e-8


def test_representation_invariant_disk_and_kite(disk_steklov, kite_setup):
    for ops, mask in (disk_steklov, kite_setup):
        field = greens.solve_greens(ops, mask, (-0.4, 0.3), 2.5)
        recon = (kernels.gamma0(ops.points, field.source)
                 + ops.single_layer @ field.correction_density
                 + field.completion_constant)
        assert np.max(np.abs(field.boundary_values - recon)) < 1e-12


def test_boundary_values_continuous_across_unit_capacity():
    # the representation is the completed one on every curve, so raw values
    # move smoothly with the radius through the capacity-one circle
    values = []
    for radius in (1 + 0.5e-7, 1 + 1e-7, 1 + 1.5e-7):
        ops = assemble(circle(radius), 512)
        mask = mask_from_partition(ops, BoundaryPartition.all_steklov(ops.curve))
        values.append(greens.solve_greens(ops, mask, XS, LAM).boundary_values)
    second = values[0] - 2.0 * values[1] + values[2]
    assert np.max(np.abs(second)) <= 1e-11 * np.max(np.abs(values[1]))


def test_solve_residual_and_condition_recorded(disk_mixed):
    ops, mask, _ = disk_mixed
    field = greens.solve_greens(ops, mask, XS, LAM)
    assert field.residual <= greens.RESIDUAL_TOL
    assert field.condition_estimate >= 1.0
    assert np.isfinite(field.condition_estimate)


def test_kite_source_value_frozen(kite_setup):
    ops, mask = kite_setup
    field = greens.solve_greens(ops, mask, (-1.25, 1.25), 2.5)
    val = greens.eval_greens(field, ops, (-1.25, -1.25))
    assert abs(val - KITE_SOURCE_VALUE) < 2e-5
    # no reporting shift away from the degenerate-capacity case
    assert field.offset == 0.0


# --- reporting convention -----------------------------------------------------

def test_reporting_offset_is_boundary_mean_reciprocal(disk_steklov):
    # all-Steklov unit disk: the boundary average of the field equals
    # 1/(2 pi lam) exactly, so reported values drop that constant
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    assert abs(field.offset - 1.0 / (2 * np.pi * LAM)) < 1e-10
    val = greens.eval_greens(field, ops, (0.0, 0.9))
    rep = val - field.offset
    assert abs(rep - (disk_source_oracle(XS, (0.0, 0.9), LAM)
                      - 1.0 / (2 * np.pi * LAM))) < 1e-8


def test_centered_source_reported_values_vanish(disk_steklov):
    ops, mask = disk_steklov
    for lam in (1.7, 2.5):
        field = greens.solve_greens(ops, mask, (0.0, 0.0), lam)
        # raw boundary values are the constant 1/(2 pi lam) ...
        assert np.max(np.abs(field.boundary_values
                             - 1.0 / (2 * np.pi * lam))) < 1e-10
        # ... so the reported trace is identically zero, independent of lam
        rep = field.boundary_values - field.offset
        assert np.max(np.abs(rep)) < 1e-10


def test_centered_source_interior_values_lam_independent(disk_steklov):
    ops, mask = disk_steklov
    pts = np.array([[0.3, 0.1], [-0.2, 0.5], [0.0, -0.7]])
    out = []
    for lam in (1.7, 2.5):
        field = greens.solve_greens(ops, mask, (0.0, 0.0), lam)
        out.append(greens.eval_greens(field, ops, pts) - field.offset)
    assert np.max(np.abs(out[0] - out[1])) < 1e-10
    # and they coincide with the bare log potential of the source
    log_part = np.log(np.linalg.norm(pts, axis=1)) / (2 * np.pi)
    assert np.max(np.abs(out[0] - log_part)) < 1e-9


def test_centered_source_mixed_partition_is_not_constant(disk_mixed):
    # with a Neumann arc present no field with constant boundary trace can
    # carry the source flux, so the centered-source trace must vary
    ops, mask, _ = disk_mixed
    field = greens.solve_greens(ops, mask, (0.0, 0.0), 1.5)
    rep = field.boundary_values - field.offset
    assert np.max(np.abs(rep)) > 0.05


# --- guards and errors ----------------------------------------------------------

def test_resonance_guard_reports_nearest_eigenvalue(disk_steklov):
    ops, mask = disk_steklov
    with pytest.raises(ResonanceError) as err:
        greens.solve_greens(ops, mask, XS, 1.0 + 1e-9)
    assert abs(err.value.nearest_eigenvalue - 1.0) < 1e-8


def test_zero_parameter_hits_the_constant_mode(disk_steklov):
    ops, mask = disk_steklov
    with pytest.raises(ResonanceError) as err:
        greens.solve_greens(ops, mask, XS, 0.0)
    assert abs(err.value.nearest_eigenvalue) < 1e-10


def test_source_position_validation(disk_steklov):
    ops, mask = disk_steklov
    with pytest.raises(GeometryError):
        greens.solve_greens(ops, mask, (1.5, 0.0), LAM)
    with pytest.raises(GeometryError):
        greens.solve_greens(ops, mask, ops.points[3], LAM)
    with pytest.warns(AccuracyWarning):
        greens.solve_greens(ops, mask, (0.9995, 0.0), LAM)


def test_negative_parameter_rejected(disk_steklov):
    ops, mask = disk_steklov
    with pytest.raises(ValueError):
        greens.solve_greens(ops, mask, XS, -0.5)


def test_eval_point_validation(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    with pytest.raises(SingularityError):
        greens.eval_greens(field, ops, XS)
    with pytest.raises(GeometryError):
        greens.eval_greens(field, ops, (1.2, 1.2))
    with pytest.warns(AccuracyWarning):
        greens.eval_greens(field, ops, (0.9995, 0.0))


def test_near_boundary_warning_reads_the_layer_nodes(disk_steklov):
    # (0.988, 0) lies 0.012 from the node (1, 0): inside one coarse weight
    # (2 pi/256 = 0.025) but outside one weight of the 4x upsampled layer
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    with pytest.warns(AccuracyWarning):
        greens.eval_greens(field, ops, (0.988, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        greens.eval_greens(field, ops, (0.988, 0.0), refine=4)


def test_warning_contract_of_refined_evaluation(kite_setup):
    # half a fine weight in from a node warns at refine=4 and half a coarse
    # weight in warns at refine=1; a lattice clipped at one coarse weight
    # from the nodes never warns at refine=4
    ops, mask = kite_setup
    source = np.array([-0.5, 0.3])
    field = greens.solve_greens(ops, mask, source, LAM)
    j = 40
    for refine in (4, 1):
        depth = 0.5 * ops.weights[j] / refine
        with pytest.warns(AccuracyWarning):
            greens.eval_greens(field, ops, ops.points[j] - depth * ops.normals[j],
                               refine=refine)
    pts, _ = interior_lattice(ops, 40, source)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        greens.eval_greens(field, ops, pts, refine=4)


def block_spanning_points(ops):
    """Points of the disk of radius 0.8 (clear of the boundary and of XS):
    three coarse row blocks and a partial fourth."""
    rows = kernels.BLOCK_ENTRIES // ops.n_nodes
    rng = np.random.default_rng(3)
    angle = rng.uniform(0.0, TWO_PI, 3 * rows + rows // 3)
    radius = rng.uniform(0.0, 0.8, len(angle))
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def test_near_boundary_point_in_the_last_partial_block_warns_once(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    pts = block_spanning_points(ops)
    pts[-1] = (0.9995, 0.0)
    assert len(pts) % (kernels.BLOCK_ENTRIES // (4 * ops.n_nodes))
    with pytest.warns(AccuracyWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        greens.eval_greens(field, ops, pts, refine=4)
    assert len(caught) == 1
    assert (caught[0].filename, caught[0].lineno) == (__file__, line)


def test_outside_point_in_a_middle_block_raises(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    pts = block_spanning_points(ops)
    rows = kernels.BLOCK_ENTRIES // ops.n_nodes
    pts[rows + rows // 2] = (1.2, 1.2)
    with pytest.raises(GeometryError):
        greens.eval_greens(field, ops, pts, refine=4)


# --- evaluation -----------------------------------------------------------------

def test_eval_at_node_returns_boundary_value(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    assert greens.eval_greens(field, ops, ops.points[7]) \
        == field.boundary_values[7]


def test_eval_array_shapes(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    flat = greens.eval_greens(field, ops, np.zeros((3, 2)) + 0.1)
    assert flat.shape == (3,)
    grid = greens.eval_greens(field, ops, np.full((2, 2, 2), 0.2))
    assert grid.shape == (2, 2)
    assert np.allclose(flat, flat[0])


def test_near_boundary_approach_matches_trace(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    k = 40
    target = field.boundary_values[k]
    errs = []
    for d in (0.1, 0.05, 0.02):
        val = greens.eval_greens(field, ops, (1.0 - d) * ops.points[k],
                                 refine=8)
        errs.append(abs(val - target))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.05


def test_refined_evaluation_beats_coarse_near_boundary(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    y = 0.97 * ops.points[100] + 0.5 * (ops.points[101] - ops.points[100])
    exact = disk_source_oracle(XS, y, LAM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        coarse = greens.eval_greens(field, ops, y)
        fine = greens.eval_greens(field, ops, y, refine=8)
    assert abs(fine - exact) < abs(coarse - exact) / 100


def test_blowup_rate_near_eigenvalue(disk_steklov):
    # approaching the eigenvalue at 1, the field grows like 1/(lam - 1)
    ops, mask = disk_steklov
    deltas = np.array([1e-2, 1e-3, 1e-4])
    vals = []
    for d in deltas:
        field = greens.solve_greens(ops, mask, XS, 1.0 + d)
        vals.append(abs(greens.eval_greens(field, ops, (0.5, 0.5))))
    slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
    assert abs(slope + 1.0) < 0.05


def test_correction_is_harmonic(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    h = 1e-3
    for p in (np.array([0.2, 0.1]), np.array([-0.3, -0.5])):
        stencil = np.array([p, p + (h, 0), p - (h, 0), p + (0, h), p - (0, h)])
        vals = greens.eval_greens(field, ops, stencil)
        logs = np.log(np.linalg.norm(stencil - field.source, axis=1)) \
            / (2 * np.pi)
        corr = vals - logs
        lap = (corr[1] + corr[2] + corr[3] + corr[4] - 4 * corr[0]) / h ** 2
        assert abs(lap) < 1e-4


# --- boundary conditions of the solved field --------------------------------------

def test_neumann_rows_satisfied_exactly(disk_mixed):
    ops, mask, _ = disk_mixed
    field = greens.solve_greens(ops, mask, XS, LAM)
    flux = (kernels.gamma0_dnu(ops.points, ops.normals, field.source)
            + (-0.5 * np.eye(len(ops.params)) + ops.adjoint_double_layer)
            @ field.correction_density)
    binary = mask.steklov_fraction == 0.0
    assert binary.sum() > 10
    assert np.max(np.abs(flux[binary])) < 1e-12


def small_fraction_mask():
    # a Neumann arc ending 1e-8 of a cell short of a node's cell edge leaves
    # that node a Steklov fraction of 1e-8
    ops = assemble(circle(), 128)
    h = TWO_PI / 128
    end = ops.params[32] + h / 2 - 1e-8 * h
    mask = mask_from_partition(
        ops, BoundaryPartition.from_neumann_intervals(ops.curve, [(0.3, end)]))
    assert np.min(mask.steklov_fraction[mask.steklov_fraction > 0]) < 2e-8
    return ops, mask


def density_reference(ops, mask, source, lam):
    """Dense solve of the boundary conditions in the density.

    (A - lam B) rho = lam frac gamma0 - d gamma0/dnu, with A = -I/2 + K'
    the flux of the single layer and row i of B the completed trace scaled
    by the node's Steklov fraction; returns rho and the boundary values.
    """
    a = -0.5 * np.eye(ops.n_nodes) + ops.adjoint_double_layer
    b = mask.steklov_fraction[:, None] * ops.trace_map
    g0 = kernels.gamma0(ops.points, source)
    rhs = (lam * mask.steklov_fraction * g0
           - kernels.gamma0_dnu(ops.points, ops.normals, source))
    rho = np.linalg.solve(a - lam * b, rhs)
    return rho, g0 + ops.trace_map @ rho


def test_source_solve_matches_density_reference(disk_mixed):
    kite_ops = assemble(kite(), 512)
    kite_part = BoundaryPartition.from_neumann_intervals(
        kite_ops.curve, [(0.5, 1.3), (3.8, 4.6)])
    cases = [(disk_mixed[:2], XS),
             ((kite_ops, mask_from_partition(kite_ops, kite_part)), (-0.4, 0.3)),
             (small_fraction_mask(), XS)]
    for (ops, mask), source in cases:
        for lam in (0.7, 2.3, 5.1):
            field = greens.solve_greens(ops, mask, source, lam)
            rho, boundary = density_reference(ops, mask, source, lam)
            assert (np.max(np.abs(field.correction_density - rho))
                    <= 1e-12 * np.max(np.abs(rho)))
            assert (np.max(np.abs(field.boundary_values - boundary))
                    <= 1e-12 * np.max(np.abs(boundary)))


def test_neumann_flux_vanishes_under_refined_stencil():
    # independent check away from the junctions: the interior field's
    # normal derivative at Neumann nodes, fourth-order one-sided stencil
    ops = assemble(circle(), 512)
    part = BoundaryPartition.from_neumann_intervals(ops.curve, [(1.0, 2.2)])
    mask = mask_from_partition(ops, part)
    field = greens.solve_greens(ops, mask, XS, LAM)
    h = 2 * np.pi / 512
    t = ops.params
    dist = np.minimum(np.abs(t - 1.0), np.abs(t - 2.2))
    sel = np.where((mask.steklov_fraction == 0.0) & (dist > 16 * h))[0]
    base, nu = ops.points[sel], ops.normals[sel]
    step = 5e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        f = [greens.eval_greens(field, ops, base - k * step * nu, refine=8)
             for k in (1, 2, 3, 4)]
    dn = (25 * field.boundary_values[sel] - 48 * f[0] + 36 * f[1]
          - 16 * f[2] + 3 * f[3]) / (12 * step)
    assert np.sqrt(np.sum(ops.weights[sel] * dn ** 2)) < 2e-4


def test_steklov_condition_under_refined_stencil(disk_steklov):
    ops, mask = disk_steklov
    field = greens.solve_greens(ops, mask, XS, LAM)
    sel = np.arange(0, len(ops.params), 8)
    base, nu = ops.points[sel], ops.normals[sel]
    step = 5e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        f = [greens.eval_greens(field, ops, base - k * step * nu, refine=8)
             for k in (1, 2, 3, 4)]
    dn = (25 * field.boundary_values[sel] - 48 * f[0] + 36 * f[1]
          - 16 * f[2] + 3 * f[3]) / (12 * step)
    target = LAM * field.boundary_values[sel]
    assert np.max(np.abs(dn - target)) / np.max(np.abs(target)) < 1e-3


# --- reciprocity -------------------------------------------------------------------

def test_reciprocity_disk_mixed(disk_mixed):
    ops, mask, _ = disk_mixed
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = 0.75 * np.sqrt(rng.uniform(0, 1, 2))
        ang = rng.uniform(0, 2 * np.pi, 2)
        a, b = np.stack([r * np.cos(ang), r * np.sin(ang)], -1)
        if np.linalg.norm(a - b) < 0.1:
            continue
        fa = greens.solve_greens(ops, mask, a, LAM)
        fb = greens.solve_greens(ops, mask, b, LAM)
        assert abs(greens.eval_greens(fa, ops, b)
                   - greens.eval_greens(fb, ops, a)) < 1e-10


def test_reciprocity_kite(kite_setup):
    ops, mask = kite_setup
    pairs = [((-1.25, 1.25), (-1.25, -1.25)), ((0.2, 0.3), (-0.8, -0.6))]
    for a, b in pairs:
        fa = greens.solve_greens(ops, mask, a, 2.5)
        fb = greens.solve_greens(ops, mask, b, 2.5)
        assert abs(greens.eval_greens(fa, ops, np.asarray(b))
                   - greens.eval_greens(fb, ops, np.asarray(a))) < 1e-10


# --- product profile ----------------------------------------------------------------

def test_product_profile_commutes_and_squares(disk_mixed):
    ops, mask, _ = disk_mixed
    fx = greens.solve_greens(ops, mask, XS, LAM)
    fy = greens.solve_greens(ops, mask, (0.0, 0.9), LAM)
    pxy = greens.boundary_product_profile(fx, fy)
    pyx = greens.boundary_product_profile(fy, fx)
    assert np.array_equal(pxy, pyx)
    assert np.array_equal(pxy, fx.boundary_values * fy.boundary_values)
    self_profile = greens.boundary_product_profile(fx, fx)
    assert np.all(self_profile >= 0.0)


def test_product_profile_rejects_mismatches(disk_ops, disk_mixed):
    ops, mask, part = disk_mixed
    steklov_mask = mask_from_partition(
        ops, BoundaryPartition.all_steklov(ops.curve))
    fx = greens.solve_greens(ops, mask, XS, LAM)
    fy = greens.solve_greens(ops, steklov_mask, (0.0, 0.9), LAM)
    with pytest.raises(PartitionError):
        greens.boundary_product_profile(fx, fy)
    fz = greens.solve_greens(ops, mask, (0.0, 0.9), 2.7)
    with pytest.raises(ValueError):
        greens.boundary_product_profile(fx, fz)


# --- the mask's own spectrum ---------------------------------------------------------

def built(mask) -> bool:
    """Whether the mask's own decomposition has been built."""
    return "_spectrum" in vars(mask)


def test_factorization_shared_across_sources(disk_ops, monkeypatch):
    # the mask decomposes its spectrum once, by one eigh, for every source
    # and every lambda
    mask = mask_from_partition(disk_ops, BoundaryPartition.all_steklov(disk_ops.curve))
    calls = []
    original = sla.eigh
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: calls.append(a) or original(*a, **k))
    greens.solve_greens(disk_ops, mask, XS, LAM)
    decomposition = mask._spectrum
    greens.solve_greens(disk_ops, mask, (0.3, 0.2), LAM)
    greens.solve_greens(disk_ops, mask, XS, 2.7)
    assert len(calls) == 1 and mask._spectrum is decomposition


def test_guard_reads_the_spectrum_on_the_mask(disk_ops, monkeypatch):
    # the guard depends on the mask and lambda only: a mask whose spectrum
    # was solved near 2 and near 40 before (which builds the mask's owner,
    # shared with its source solves) refuses and accepts as a fresh one
    calls = []
    monkeypatch.setattr(greens, "solve_spectrum_near",
                        lambda *a, **k: calls.append(a) or solve_spectrum_near(*a, **k))
    band = greens.RESONANCE_GUARD * 41.0

    def outcomes(mask):
        with pytest.raises(ResonanceError) as err:
            greens.solve_greens(disk_ops, mask, XS, 40.0 + 0.25 * band)
        fields = [greens.solve_greens(disk_ops, mask, XS, 40.0 + d * band).boundary_values
                  for d in (-10.0, 10.0)]
        return err.value.nearest_eigenvalue, fields

    fresh = mask_from_partition(disk_ops, BoundaryPartition.all_steklov(disk_ops.curve))
    named, fields = outcomes(fresh)
    assert named == pytest.approx(40.0, abs=1e-8)
    solved = mask_from_partition(disk_ops, BoundaryPartition.all_steklov(disk_ops.curve))
    for sigma in (2.0, 40.0):
        solve_spectrum_near(disk_ops, solved, sigma, count=12)
    for mask in (solved, fresh):
        again, again_fields = outcomes(mask)
        assert again == named
        assert all(np.array_equal(a, b) for a, b in zip(again_fields, fields))
    assert calls == []


def test_solved_mask_shares_one_eigh_with_its_source_solves(monkeypatch):
    # a two-arc kite mask solved near 2, then source-solved at two lambdas:
    # the solve, the guards and the source solves read one full eigh of the
    # mask's section, after the decomposition
    ops = assemble(kite(), 256)
    mask = mask_from_partition(ops, BoundaryPartition.from_neumann_intervals(
        ops.curve, [(0.5, 1.3), (3.8, 4.6)]))
    decompose(ops)
    calls = []
    original = sla.eigh
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: calls.append(k) or original(*a, **k))
    values = [p.value for p in solve_spectrum_near(ops, mask, 2.0, count=12)]
    for lam in (2.0, 0.5 * (values[3] + values[4])):
        assert greens.solve_greens(ops, mask, (-0.5, 0.3), lam).residual <= greens.RESIDUAL_TOL
    assert len(calls) == 1 and "subset_by_index" not in calls[0]


def test_repeat_solve_is_deterministic(disk_mixed):
    ops, mask, _ = disk_mixed
    f1 = greens.solve_greens(ops, mask, XS, LAM)
    f2 = greens.solve_greens(ops, mask, XS, LAM)
    assert np.array_equal(f1.boundary_values, f2.boundary_values)
    assert np.array_equal(f1.correction_density, f2.correction_density)


# --- source systems of a decomposition ------------------------------------------

def scaled_system(ops, mask, lam):
    """W^-1/2 (H - lam diag(b)) W^-1/2, the system a decomposition solves."""
    scale = 1.0 / np.sqrt(ops.weights)
    return (ops.weighted_dtn * scale[:, None] * scale
            - lam * np.diag(mask.steklov_fraction))


@pytest.fixture(scope="module")
def decomposition_routes():
    """Per case at N=256: (ops, partition, owner of the source system, a
    mixed eigenvalue, an all-Steklov eigenvalue, source)."""
    disk, kite_ops = assemble(circle(), 256), assemble(kite(), 256)
    disk_spectrum, kite_spectrum = decompose(disk), decompose(kite_ops)
    # the test_11 inputs; the final mask moved the start eigenvalue to 2.5
    trace = run(OptimizerConfig(curve=kite(), source=(-1.25, 1.25),
                                receiver=(-1.25, -1.25), lambda_star=2.5, n_nodes=256))
    final = mask_from_partition(kite_ops, trace.final_partition)
    two_arcs = BoundaryPartition.from_neumann_intervals(disk.curve, [(1.0, 1.6), (3.5, 4.4)])
    two_arc_spectrum = ArcSpectrum(disk_spectrum, mask_from_partition(disk, two_arcs))
    kite_arcs = BoundaryPartition.from_neumann_intervals(kite_ops.curve,
                                                         [(0.5, 1.3), (3.8, 4.6)])
    kite_arc_spectrum = ArcSpectrum(kite_spectrum, mask_from_partition(kite_ops, kite_arcs))
    oval = assemble(ellipse(1.0, 0.5), 256)
    oval_spectrum = decompose(oval)
    oval_arc = BoundaryPartition.from_neumann_intervals(oval.curve, [(1.2, 2.4)])
    oval_arc_spectrum = ArcSpectrum(oval_spectrum, mask_from_partition(oval, oval_arc))
    short_arc = BoundaryPartition.from_neumann_intervals(disk.curve, [(2.0, 2.1)])
    short_arc_spectrum = ArcSpectrum(disk_spectrum, mask_from_partition(disk, short_arc))
    return {
        "disk": (disk, BoundaryPartition.all_steklov(disk.curve), disk_spectrum,
                 disk_spectrum.values[5], disk_spectrum.values[7], XS),
        "kite": (kite_ops, BoundaryPartition.all_steklov(kite_ops.curve), kite_spectrum,
                 kite_spectrum.values[6], kite_spectrum.values[8], (-1.25, 1.25)),
        "test_11-final": (kite_ops, trace.final_partition, ArcSpectrum(kite_spectrum, final),
                          trace.final_eigenvalue, trace.initial_eigenvalue, (-1.25, 1.25)),
        "disk-two-arcs": (disk, two_arcs, two_arc_spectrum, two_arc_spectrum.value(5),
                          disk_spectrum.values[5], XS),
        "kite-two-arcs": (kite_ops, kite_arcs, kite_arc_spectrum, kite_arc_spectrum.value(5),
                          kite_spectrum.values[5], (-0.5, 0.3)),
        "ellipse-arc": (oval, oval_arc, oval_arc_spectrum, oval_arc_spectrum.value(5),
                        oval_spectrum.values[5], (0.3, -0.2)),
        "disk-short-arc": (disk, short_arc, short_arc_spectrum, short_arc_spectrum.value(5),
                           disk_spectrum.values[7], (0.3, -0.2)),
    }


def refined_field(ops, mask, source, lam):
    """Reference boundary values: the density conditions (A - lam B) rho =
    lam frac gamma0 - d gamma0/dnu (A = -I/2 + K', row i of B the completed
    trace scaled by the node's Steklov fraction) solved by an LU and
    refined on residuals taken in extended precision: its own error stays
    near 1e-3 of the test's bound or below, and does not move with the BLAS
    thread count."""
    ld, source = np.longdouble, np.asarray(source, float)
    g0 = kernels.gamma0(ops.points, source)
    rhs = (lam * mask.steklov_fraction) * g0 - kernels.gamma0_dnu(ops.points, ops.normals, source)
    trace = ops.single_layer.astype(ld) + ops.weights
    a = ops.adjoint_double_layer - ld(0.5) * np.eye(ops.n_nodes, dtype=ld)
    a -= (lam * mask.steklov_fraction.astype(ld))[:, None] * trace
    lu = sla.lu_factor(a.astype(float))
    rho = np.zeros(ops.n_nodes, dtype=ld)
    for _ in range(4):
        rho += sla.lu_solve(lu, (rhs - a @ rho).astype(float))
    return (g0 + trace @ rho).astype(float)


@pytest.mark.parametrize("case", ["disk", "kite", "test_11-final", "disk-two-arcs",
                                  "kite-two-arcs", "ellipse-arc", "disk-short-arc"])
def test_decomposition_source_solve_matches_lu(decomposition_routes, case):
    # the owner's route and the mask's own against a refined dense solve
    ops, partition, owner, mixed, pole, source = decomposition_routes[case]
    guard = greens.RESONANCE_GUARD
    lams = [mixed + d for d in (1e-1, -1e-2, 1e-3, -1e-4, 1e-5)]
    lams.append(pole + 5.0 * guard * (1.0 + pole))      # inside 10x the guard band
    for lam in lams:
        mask = mask_from_partition(ops, partition)
        reference = refined_field(ops, mask, source, lam)
        # 1e-12 of max|value|, down to the double-precision floor: closer than
        # 1e-3 to a mixed eigenvalue it grows like 1/detuning (the rounding of
        # the density residual that refines every route)
        j = mask.count_below(lam)
        detuning = min(abs(lam - mask.value(i)) for i in (j - 1, j))
        scale = np.max(np.abs(reference))
        for spectrum in (owner, None):
            field = greens.solve_greens(ops, mask, source, lam, spectrum=spectrum)
            assert field.residual <= greens.RESIDUAL_TOL
            assert 1.0 <= field.condition_estimate < np.inf
            assert (np.max(np.abs(field.boundary_values - reference))
                    <= 1e-12 * max(1.0, 1e-3 / detuning) * scale)


@pytest.mark.parametrize("curve", [circle, kite])
@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-14])
def test_arc_source_solve_on_an_all_steklov_eigenvalue(curve, delta):
    # Lambda_7 is no eigenvalue of the arc's mask (the nearest lies 0.147
    # away on the disk and 0.078 on the kite), but the Woodbury correction
    # of the all-Steklov solve divides by Lambda_7 - lam there: the mask
    # solves instead, and the field is the mask owner's
    ops = assemble(curve(), 256)
    partition = BoundaryPartition.from_neumann_intervals(ops.curve, [(1.0, 1.6)])
    spectrum = decompose(ops)
    lam = spectrum.values[7] * (1.0 + delta)
    mask = mask_from_partition(ops, partition)
    field = greens.solve_greens(ops, mask, (0.3, -0.2), lam,
                                spectrum=ArcSpectrum(spectrum, mask))
    own = greens.solve_greens(ops, mask_from_partition(ops, partition), (0.3, -0.2), lam)
    assert np.all(np.isfinite(field.boundary_values))
    assert field.residual <= greens.RESIDUAL_TOL
    assert (np.max(np.abs(field.boundary_values - own.boundary_values))
            <= 1e-12 * np.max(np.abs(own.boundary_values)))


def test_guard_counts_on_the_spectrum_owner(decomposition_routes, monkeypatch):
    # the uncovered disk's decomposition and a fresh two-arc ArcSpectrum: the
    # counts below both ends of the band decide, a refusal names the in-band
    # eigenvalue, and nothing is solved on the mask or stored on it
    disk, _, spectrum, _, _, _ = decomposition_routes["disk"]
    uncovered = mask_from_partition(disk, BoundaryPartition.all_steklov(disk.curve))
    two_arcs = mask_from_partition(disk, BoundaryPartition.from_neumann_intervals(
        disk.curve, [(1.0, 1.6), (3.5, 4.4)]))
    arc = ArcSpectrum(spectrum, two_arcs)
    calls = []
    monkeypatch.setattr(greens, "solve_spectrum_near",
                        lambda *a, **k: calls.append(a) or solve_spectrum_near(*a, **k))
    for mask, owner, mu in ((uncovered, spectrum, spectrum.values[5]),
                            (two_arcs, arc, arc.value(5))):
        band = greens.RESONANCE_GUARD * (1.0 + mu)
        with pytest.raises(ResonanceError) as err:
            greens.solve_greens(disk, mask, XS, mu + 0.25 * band, spectrum=owner)
        assert abs(err.value.nearest_eigenvalue - mu) < 1e-10
        for lam in (mu - 10.0 * band, mu + 10.0 * band):
            field = greens.solve_greens(disk, mask, XS, lam, spectrum=owner)
            assert field.residual <= greens.RESIDUAL_TOL
    with pytest.raises(ResonanceError) as err:
        greens.solve_greens(disk, uncovered, XS, 0.0, spectrum=spectrum)
    assert abs(err.value.nearest_eigenvalue) < 1e-10
    assert calls == []
    assert not built(uncovered) and not built(two_arcs)


def test_uncovered_condition_is_exact(decomposition_routes):
    for case in ("disk", "kite"):
        ops, partition, spectrum, mixed, _, _ = decomposition_routes[case]
        mask = mask_from_partition(ops, partition)
        for lam in (mixed + 1e-1, mixed - 1e-4, mixed + 1e-5):
            expected = np.linalg.cond(scaled_system(ops, mask, lam))
            assert spectrum.source_system(lam)[1] == pytest.approx(expected, rel=1e-6)


def test_lu_condition_is_the_scaled_two_norm_condition():
    # the uncovered kite's odd modes are invisible from any mirror-symmetric
    # start: a 1-norm estimator read 1.31e3 here against 2.32e5 at Lambda_3
    ops = assemble(kite(), 256)
    spectrum = decompose(ops)
    for j in (3, 6, 9):
        lam = spectrum.values[j] + 1e-3
        mask = mask_from_partition(ops, BoundaryPartition.all_steklov(ops.curve))
        expected = np.linalg.cond(scaled_system(ops, mask, lam))
        assert expected / 1.25 <= mask.source_system(lam)[1] <= 1.25 * expected


ARC_MASKS = [(circle, [(0.3, 0.9)]), (circle, [(1.0, 1.6), (3.5, 4.4)]),
             (circle, [(2.0, 2.1)]), (kite, [(0.5, 1.3)]), (kite, [(0.5, 1.3), (3.8, 4.6)]),
             (lambda: ellipse(1.0, 0.5), [(1.2, 2.4)])]


@pytest.mark.parametrize("curve, intervals", ARC_MASKS)
def test_arc_condition_estimate_near_a_mixed_eigenvalue(curve, intervals):
    ops = assemble(curve(), 128)
    mask = mask_from_partition(ops, BoundaryPartition.from_neumann_intervals(ops.curve, intervals))
    arc = ArcSpectrum(decompose(ops), mask)
    for j, detuning in ((3, 1e-3), (5, -1e-4), (6, 1e-5)):
        lam = arc.value(j) + detuning
        estimate = arc.source_system(lam)[1]
        expected = np.linalg.cond(scaled_system(ops, mask, lam))
        assert 1.0 <= estimate < np.inf
        assert 0.5 * expected <= estimate <= 2.0 * expected


@pytest.mark.parametrize("curve, intervals", ARC_MASKS)
def test_lu_condition_near_a_mixed_eigenvalue(curve, intervals):
    ops = assemble(curve(), 128)
    partition = BoundaryPartition.from_neumann_intervals(ops.curve, intervals)
    arc = ArcSpectrum(decompose(ops), mask_from_partition(ops, partition))
    for j, detuning in ((3, 1e-3), (5, -1e-4), (6, 1e-5)):
        lam = arc.value(j) + detuning
        mask = mask_from_partition(ops, partition)
        expected = np.linalg.cond(scaled_system(ops, mask, lam))
        assert expected / 1.25 <= mask.source_system(lam)[1] <= 1.25 * expected


# --- memory ---------------------------------------------------------------------

def test_lattice_evaluation_peak_memory():
    # a 40 x 40 lattice (about 900 points kept) against the 2048-node layer
    # of refine=4 at N=512: the whole kernel matrix alone would take 15 MB
    ops = assemble(kite(), 512)
    mask = mask_from_partition(ops, BoundaryPartition.from_neumann_intervals(
        ops.curve, [(0.5, 1.2), (3.5, 4.2)]))
    source = np.array([-0.5, 0.3])
    field = greens.solve_greens(ops, mask, source, LAM)
    pts, _ = interior_lattice(ops, 40, source)
    assert len(pts) > 800
    tracemalloc.start()
    try:
        greens.eval_greens(field, ops, pts, refine=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6

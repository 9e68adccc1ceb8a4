"""Nystrom assembly: Fourier identities, Gauss identities, masks, inner products."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from steklov import discretization, kernels
from steklov.discretization import (
    OperatorSet,
    assemble,
    log_quadrature_weights,
    mask_from_partition,
)
from steklov.eigensolver import decompose
from steklov.errors import GeometryError, MaskError
from steklov.geometry import (
    TWO_PI,
    ArcSpec,
    BoundaryPartition,
    circle,
    ellipse,
    flower,
    insert_neumann_arc,
    kite,
    point_normal_speed,
)
from steklov.greens import solve_greens
from test_eigensolver import mirror_route, shifted


def all_steklov_mask(ops):
    return mask_from_partition(ops, BoundaryPartition.all_steklov(ops.curve))


# ---------------------------------------------------------------------------
# assembly basics
# ---------------------------------------------------------------------------

def test_assemble_rejects_odd_or_tiny_node_counts():
    with pytest.raises(GeometryError):
        assemble(circle(), 33)
    with pytest.raises(GeometryError):
        assemble(circle(), 8)


@pytest.mark.parametrize("curve", [circle(), kite(), flower(0.1, 5)])
def test_weights_positive_and_sum_to_perimeter(curve):
    # 128 nodes put the trapezoidal perimeter of every catalog curve well
    # below the 1e-10 contract (the kite needs ~100 modes to converge)
    ops = assemble(curve, 128)
    assert np.all(ops.weights > 0)
    assert np.sum(ops.weights) == pytest.approx(curve.perimeter, rel=1e-10)


def test_operator_arrays_are_readonly():
    ops = assemble(circle(), 32)
    with pytest.raises(ValueError):
        ops.single_layer[0, 0] = 1.0


# ---------------------------------------------------------------------------
# single layer: circle Fourier diagonalization (frozen analytic identities)
# ---------------------------------------------------------------------------

def test_single_layer_circle_cosine_eigenfunctions():
    # On the unit circle the single layer maps cos(p t) to -cos(p t)/(2p).
    N = 64
    ops = assemble(circle(), N)
    t = ops.params
    for p in (1, 2, 3, 7, N // 4):
        got = ops.single_layer @ np.cos(p * t)
        assert np.max(np.abs(got + np.cos(p * t) / (2 * p))) < 1e-10, p


def test_single_layer_circle_kills_constants():
    # Unit circle has logarithmic capacity one.
    ops = assemble(circle(), 64)
    assert np.max(np.abs(ops.single_layer @ np.ones(64))) < 1e-12


def test_single_layer_spectral_convergence_against_series_oracle():
    # f(t) = 1/(1 - 0.8 cos t) has geometric Fourier decay with ratio 1/2, so
    # S f = (1/1.2) log(1.25 - cos t) exactly (log-series closed form); the
    # discretization error must collapse faster than any power of 1/N.
    a = 0.8
    errs = []
    for N in (32, 64, 128):
        ops = assemble(circle(), N)
        t = ops.params
        f = 1.0 / (1.0 - a * np.cos(t))
        exact = np.log(1.25 - np.cos(t)) / 1.2
        errs.append(np.max(np.abs(ops.single_layer @ f - exact)))
    assert errs[0] / max(errs[1], 1e-16) > 1e2
    assert errs[1] / max(errs[2], 1e-16) > 1e2
    assert errs[2] < 1e-12


def test_weighted_single_layer_is_symmetric():
    for curve in (ellipse(1, 0.5), kite()):
        ops = assemble(curve, 128)
        ws = ops.weights[:, None] * ops.single_layer
        assert np.max(np.abs(ws - ws.T)) < 1e-10, curve.name


# ---------------------------------------------------------------------------
# adjoint double layer: Gauss identities
# ---------------------------------------------------------------------------

def test_adjoint_double_layer_constant_on_circle():
    ops = assemble(circle(), 64)
    got = ops.adjoint_double_layer @ np.ones(64)
    assert_allclose(got, 0.5, atol=1e-12)


@pytest.mark.parametrize("curve", [circle(), ellipse(1, 0.5), kite(), flower(0.1, 5)])
def test_weighted_column_gauss_identity(curve):
    # The discrete Gauss identity lives in the weighted columns: w^T K = w/2
    # (double-layer potential of the constant density, evaluated on the
    # boundary).  This holds on every smooth curve.
    ops = assemble(curve, 256)
    got = ops.weights @ ops.adjoint_double_layer
    assert np.max(np.abs(got - 0.5 * ops.weights)) < 1e-10, curve.name


def test_plain_row_sums_are_half_only_on_circles():
    # Row sums equal K[1](x_i) = 1/2 + (normal derivative of S[1]); the second
    # term vanishes only where S[1] is constant, i.e. on circles.  On an
    # ellipse the deviation is O(1) -- freezing that fact guards against
    # "fixing" the operator to satisfy a row normalization it cannot have.
    ops_c = assemble(circle(), 128)
    assert np.max(np.abs(ops_c.adjoint_double_layer.sum(axis=1) - 0.5)) < 1e-12
    ops_e = assemble(ellipse(1, 0.5), 128)
    assert np.max(np.abs(ops_e.adjoint_double_layer.sum(axis=1) - 0.5)) > 1e-2


def test_log_quadrature_weights_integrate_cosines_exactly():
    # R weights against cos(m tau) must reproduce the analytic values
    # integral log(4 sin^2(tau/2)) cos(m tau) d tau = -2*pi/m (0 for m = 0).
    n = 16
    R = log_quadrature_weights(n)
    tau = np.pi * np.arange(2 * n) / n
    assert abs(np.sum(R * 1.0)) < 1e-12
    for m in (1, 2, 5, n - 1):
        assert np.sum(R * np.cos(m * tau)) == pytest.approx(-2 * np.pi / m, abs=1e-12)


@pytest.mark.parametrize("n_nodes", [16, 128, 512, 1536])
def test_log_quadrature_weights_match_the_direct_cosine_sum(n_nodes):
    # the weights come from one inverse real FFT of the coefficients 1/m;
    # the direct sum over the 2n x (n - 1) cosine table defines them
    n = n_nodes // 2
    k, m = np.arange(2 * n), np.arange(1, n)
    direct = (-(2.0 * np.pi / n) * (np.cos(np.pi * np.outer(k, m) / n) / m).sum(axis=1)
              - (np.pi / n**2) * (-1.0) ** k)
    assert_allclose(log_quadrature_weights(n), direct, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# capacity completion
# ---------------------------------------------------------------------------

def test_robin_constant_on_circles():
    # Equilibrium potential of a radius-R circle is (log R)/(2*pi).
    assert assemble(circle(), 64).robin_constant == pytest.approx(0.0, abs=1e-12)
    assert assemble(circle(2.0), 64).robin_constant == pytest.approx(
        np.log(2.0) / TWO_PI, abs=1e-12
    )


def test_capacity_degeneracy_flags():
    # only the capacity-one circle reports its fields less the boundary mean
    for curve, degenerate in ((circle(), True), (kite(), False),
                              (ellipse(1, 0.5), False)):
        ops = assemble(curve, 64)
        field = solve_greens(ops, all_steklov_mask(ops), (0.1, 0.2), 1.5)
        mean = float((ops.weights @ field.boundary_values) / np.sum(ops.weights))
        assert mean != 0.0
        assert field.offset == (mean if degenerate else 0.0)


def test_trace_map_completes_constants_on_circle():
    ops = assemble(circle(), 64)
    got = ops.trace_map @ np.ones(64)
    assert_allclose(got, TWO_PI, atol=1e-10)


# ---------------------------------------------------------------------------
# mirror halves
# ---------------------------------------------------------------------------

# the circle takes the circulant route (see "circulant on the circle"); the
# mirror-route tests send it down the mirror route with mirror_route
MIRROR_CURVES = {"circle": circle, "kite": kite, "ellipse": lambda: ellipse(1.0, 0.5),
                 "flower": lambda: flower(0.1, 5)}


def assert_plain_trace_formulas(ops):
    """trace_solve and weighted_dtn agree with an LU of the N x N trace map."""
    n = ops.n_nodes
    lu = sla.lu_factor(ops.trace_map)
    u = np.random.default_rng(n).standard_normal((n, 3))
    for rhs in (u, u[:, 0]):
        plain = sla.lu_solve(lu, rhs)
        assert np.max(np.abs(ops.trace_solve(rhs) - plain)) <= 1e-13 * np.max(np.abs(plain))
    h = ops.weighted_dtn
    assert np.array_equal(h, h.T)
    a = -0.5 * np.eye(n) + ops.adjoint_double_layer
    plain = ops.weights[:, None] * sla.lu_solve(lu, a.T, trans=1).T
    assert np.max(np.abs(h - 0.5 * (plain + plain.T))) <= 1e-13 * np.max(np.abs(h))


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("name", MIRROR_CURVES)
def test_mirror_halves_solve_and_assemble_the_plain_formulas(name, n, monkeypatch):
    if name == "circle":
        mirror_route(monkeypatch)
    ops = assemble(MIRROR_CURVES[name](), n)
    assert ops.mirror and not ops.rotation
    assert_plain_trace_formulas(ops)


@pytest.mark.parametrize("curve", [kite, lambda: ellipse(1.0, 0.5)], ids=["kite", "ellipse"])
def test_shifted_parameter_breaks_the_mirror_symmetry(curve):
    assert assemble(curve(), 64).mirror
    assert not assemble(shifted(curve()), 64).mirror
    # a shift by 1e-9 moves the nodes off their mirror images by about 1e-9
    assert not assemble(shifted(curve(), 1e-9), 64).mirror


# ---------------------------------------------------------------------------
# circulant on the circle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [64, 128, 256])
def test_circulant_route_expands_to_the_assembled_operators(n):
    ops = assemble(circle(), n)
    assert ops.mirror and ops.rotation
    single, adjoint = one_shot_operators(circle(), n)
    assert np.max(np.abs(ops.single_layer - single)) <= 1e-14 * np.max(np.abs(single))
    # on the unit circle K' is the constant 1/(2N); its entries beside the
    # diagonal round to about eps N^2 in either assembly, and the circulant
    # of row 0 is the nearer one
    exact = 1.0 / (2 * n)
    assert (np.max(np.abs(ops.adjoint_double_layer - exact))
            <= np.max(np.abs(adjoint - exact)))
    assert_plain_trace_formulas(ops)
    q = decompose(ops).vectors
    mirrored = q[-np.arange(n)]
    assert np.all(np.all(mirrored == q, axis=0) | np.all(mirrored == -q, axis=0))
    # each array is expanded once, and read-only
    for name in ("single_layer", "adjoint_double_layer", "weighted_dtn"):
        a = getattr(ops, name)
        assert getattr(ops, name) is a
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_fft_products_match_the_expanded_operators():
    ops = assemble(circle(0.7), 128)
    u = np.random.default_rng(1).standard_normal((128, 2))
    for name in ("single_layer", "adjoint_double_layer"):
        plain = getattr(ops, name) @ u
        for rhs, want in ((u, plain), (u[:, 0], plain[:, 0])):
            got = ops.product(name, rhs)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_rotation_decision_reuses_the_mirror_tolerance(monkeypatch):
    for curve in (circle(), circle(1.0 + 1e-7), shifted(circle())):
        assert assemble(curve, 64).rotation
    # a mirror set whose nodes the rotation moves by about 1e-9
    near = ellipse(1.0, 1.0 - 1e-9)
    for curve in (near, kite()):
        ops = assemble(curve, 64)
        assert ops.mirror and not ops.rotation
    # the whole orbit is compared, so the decision does not weaken with N
    t = TWO_PI * np.arange(16384) / 16384
    nodes = point_normal_speed(near, t) + (kernels.gamma0_dnu_diagonal_limit(near, t),)
    assert not discretization._rotation_symmetric(*nodes)
    monkeypatch.setattr(discretization, "_MIRROR_TOL", 1e-8)
    assert assemble(near, 64).rotation


def test_disk_assembly_peak_memory():
    # one row of each operator: no N x N array (8.4 MB at N = 1024)
    tracemalloc.start()
    try:
        assemble(circle(), 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 1024 * 1024 * 8


# ---------------------------------------------------------------------------
# masks and restricted inner products
# ---------------------------------------------------------------------------

def test_all_steklov_mask_is_trivial():
    ops = assemble(circle(), 32)
    mask = all_steklov_mask(ops)
    assert mask.is_steklov.all()
    assert_allclose(mask.steklov_fraction, 1.0, atol=0)


def test_mask_counts_proportional_to_arc_length():
    ops = assemble(circle(), 64)
    part = BoundaryPartition.from_neumann_intervals(circle(), [(0.0, np.pi)])
    mask = mask_from_partition(ops, part)
    n_neumann = int(np.sum(~mask.is_steklov))
    assert abs(n_neumann - 32) <= 1


def test_zero_length_marker_leaves_mask_clean():
    ops = assemble(circle(), 64)
    part = insert_neumann_arc(
        BoundaryPartition.all_steklov(circle()), ArcSpec(center=1.0, half_length=0.0)
    )
    mask = mask_from_partition(ops, part)
    assert mask.is_steklov.all()
    assert_allclose(mask.steklov_fraction, 1.0, atol=0)


def test_fractions_resolve_cells_straddling_junctions():
    ops = assemble(circle(), 64)
    part = BoundaryPartition.from_neumann_intervals(circle(), [(0.3, 1.7)])
    mask = mask_from_partition(ops, part)
    h = TWO_PI / 64
    # partition of unity: fractional cell coverage adds up to the exact measure
    assert np.sum((1.0 - mask.steklov_fraction) * h) == pytest.approx(1.4, abs=1e-12)
    inner = (ops.params > 0.3 + h) & (ops.params < 1.7 - h)
    assert np.all(mask.steklov_fraction[inner] == 0.0)
    straddle = np.abs(ops.params - 0.3) < h / 2
    assert np.all((mask.steklov_fraction[straddle] > 0)
                  & (mask.steklov_fraction[straddle] < 1))


def test_mask_requires_a_steklov_node():
    ops = assemble(circle(), 32)
    part = BoundaryPartition.from_neumann_intervals(
        circle(), [(0.0, TWO_PI - 1e-6)]
    )
    with pytest.raises(MaskError):
        mask_from_partition(ops, part)


def test_boundary_quadrature_weights():
    ops = assemble(circle(), 64)
    t = ops.params
    assert np.sum(ops.weights) == pytest.approx(TWO_PI, rel=1e-12)
    assert ops.weights @ (np.cos(t) * np.sin(t)) == pytest.approx(0.0, abs=1e-12)
    assert ops.weights @ np.cos(t)**2 == pytest.approx(np.pi, rel=1e-12)


def test_assembly_routes_through_kernel_module(monkeypatch):
    # flipping the sign of gamma0 must corrupt the circle Fourier identity;
    # guards the seam used by the validation suite's mutation check
    original = kernels.gamma0
    monkeypatch.setattr(kernels, "gamma0", lambda x, y: -original(x, y))
    ops = assemble(circle(), 32)
    t = ops.params
    got = ops.single_layer @ np.cos(t)
    assert np.max(np.abs(got + np.cos(t) / 2.0)) > 0.1


# ---------------------------------------------------------------------------
# row-blocked assembly
# ---------------------------------------------------------------------------

def one_shot_operators(curve, N):
    """Reference: both layer operators built as whole N x N arrays, one
    kernel call each, with the arithmetic the row blocks must reproduce."""
    n = N // 2
    t = TWO_PI * np.arange(N) / N
    pts, nus, sps = point_normal_speed(curve, t)
    rows = pts[:, None, :]
    cols = np.broadcast_to(pts[None, :, :], (N, N, 2)).copy()
    idx = np.arange(N)
    cols[idx, idx, 0] += 1.0
    g0 = kernels.gamma0(rows, cols)
    sin2 = 4.0 * np.sin((t[:, None] - t[None, :]) / 2.0) ** 2
    np.fill_diagonal(sin2, 1.0)
    M = g0 - np.log(sin2) / (4.0 * np.pi)
    np.fill_diagonal(M, np.log(sps) / (2.0 * np.pi))
    R = log_quadrature_weights(n)[np.abs(np.subtract.outer(idx, idx))]
    single = (R / (4.0 * np.pi) + (TWO_PI / N) * M) * sps[None, :]
    kst = kernels.gamma0_dnu(rows, np.broadcast_to(nus[:, None, :], (N, N, 2)), cols)
    np.fill_diagonal(kst, kernels.gamma0_dnu_diagonal_limit(curve, t))
    adjoint = (TWO_PI / N) * kst * sps[None, :]
    return single, adjoint


CURVES = {"circle": circle, "kite": kite, "ellipse": lambda: ellipse(1.0, 0.5),
          "flower": lambda: flower(0.1, 5)}


@pytest.mark.parametrize("name", list(CURVES))
def test_row_blocked_assembly_is_bitwise_the_one_shot_arithmetic(name, monkeypatch):
    # 768 rows come in blocks of 85: a partial last block of 3
    if name == "circle":
        mirror_route(monkeypatch)
    curve = CURVES[name]()
    ops = assemble(curve, 768)
    assert not ops.rotation
    single, adjoint = one_shot_operators(curve, 768)
    assert np.array_equal(ops.single_layer, single)
    assert np.array_equal(ops.adjoint_double_layer, adjoint)


@pytest.mark.parametrize("name", ["kite", "ellipse"])
def test_n_by_n_trace_route_is_bitwise_the_plain_formulas(name):
    # a shifted parameter breaks the mirror symmetry (a shifted circle keeps
    # it), so the trace map is factored whole: its factors and H, built in
    # place, are the plain formulas
    ops = assemble(shifted(CURVES[name]()), 768)
    assert not ops.mirror
    single, adjoint = ops.single_layer, ops.adjoint_double_layer
    lu, piv = sla.lu_factor(single + np.outer(np.ones(768), ops.weights))
    assert np.array_equal(ops.trace_map_lu[0], lu)
    assert np.array_equal(ops.trace_map_lu[1], piv)
    u = np.random.default_rng(0).standard_normal((768, 2))
    assert np.array_equal(ops.trace_solve(u), sla.lu_solve((lu, piv), u))
    a = -0.5 * np.eye(768) + adjoint
    h = ops.weights[:, None] * sla.lu_solve((lu, piv), a.T, trans=1).T
    assert np.array_equal(ops.weighted_dtn, 0.5 * (h + h.T))


def test_assembly_in_many_small_blocks_is_bitwise_the_one_shot_arithmetic(monkeypatch):
    # blocks of 5 rows: 13 blocks, the last one of 4
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 5 * 64)
    assert len(kernels.row_blocks(64, 64)) == 13
    ops = assemble(kite(), 64)
    single, adjoint = one_shot_operators(kite(), 64)
    assert np.array_equal(ops.single_layer, single)
    assert np.array_equal(ops.adjoint_double_layer, adjoint)


def test_assembly_peak_memory():
    # the two 1024 x 1024 results take 16.8 MB; the one-shot build peaked at
    # about six times that
    tracemalloc.start()
    try:
        ops = assemble(kite(), 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = ops.single_layer.nbytes + ops.adjoint_double_layer.nbytes
    assert peak <= 1.5 * outputs

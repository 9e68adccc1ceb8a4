"""Kernel conventions: sign, normalization, diagonal limit, Gauss identity."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steklov import kernels
from steklov.discretization import assemble
from steklov.eigensolver import evaluate_layer_potential, interiority
from steklov.errors import SingularityError
from steklov.geometry import TWO_PI, circle, flower, kite, point_normal_speed
from steklov.kernels import gamma0, gamma0_dnu, gamma0_dnu_diagonal_limit


def test_gamma0_at_unit_and_e_separation():
    assert gamma0([0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert gamma0([0.0, 0.0], [np.e, 0.0]) == pytest.approx(1 / (2 * np.pi), abs=1e-15)


def test_gamma0_symmetry_random_pairs():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=(50, 2))
    y = rng.uniform(-2, 2, size=(50, 2))
    assert_allclose(gamma0(x, y), gamma0(y, x), atol=1e-15)


def test_gamma0_coincident_points_raise():
    with pytest.raises(SingularityError):
        gamma0([0.5, 0.5], [0.5, 0.5])


def test_gamma0_dnu_closed_form():
    x = np.array([1.0, 1.0])
    y = np.array([0.0, 0.0])
    nu = np.array([1.0, 0.0])
    expected = 1.0 / (2 * np.pi * 2.0)  # (x-y).nu / (2 pi |x-y|^2)
    assert gamma0_dnu(x, nu, y) == pytest.approx(expected, abs=1e-15)


def test_gamma0_dnu_constant_on_unit_circle():
    # For x, y on the unit circle, (x-y).x = |x-y|^2 / 2, so the kernel is
    # identically 1/(4*pi) -- checked at 20 random chord pairs.
    rng = np.random.default_rng(11)
    ang = rng.uniform(0, TWO_PI, size=(20, 2))
    x = np.stack([np.cos(ang[:, 0]), np.sin(ang[:, 0])], axis=-1)
    y = np.stack([np.cos(ang[:, 1]), np.sin(ang[:, 1])], axis=-1)
    vals = gamma0_dnu(x, x, y)  # normal at x on the unit circle is x itself
    assert_allclose(vals, 1 / (4 * np.pi), atol=1e-14)


def test_gamma0_dnu_orthogonal_normal_gives_zero():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 0.0])
    nu = np.array([0.0, 1.0])
    assert gamma0_dnu(x, nu, y) == pytest.approx(0.0, abs=1e-15)


def test_gamma0_dnu_scaling_homogeneity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x - y) < 0.1:
            continue
        nu = rng.normal(size=2)
        nu /= np.linalg.norm(nu)
        s = 3.7
        assert gamma0_dnu(s * x, nu, s * y) == pytest.approx(
            gamma0_dnu(x, nu, y) / s, rel=1e-12
        )


def test_diagonal_limit_on_circles():
    assert gamma0_dnu_diagonal_limit(circle(), 0.7) == pytest.approx(
        1 / (4 * np.pi), abs=1e-14
    )
    assert gamma0_dnu_diagonal_limit(circle(2.0), 0.7) == pytest.approx(
        1 / (8 * np.pi), abs=1e-14
    )


def test_diagonal_limit_vanishes_at_flat_point():
    # flower(eps, k) with eps = 1/(1+k^2) has exactly zero curvature at t = pi/k
    k = 2
    eps = 1.0 / (1 + k * k)
    curve = flower(eps, k)
    assert gamma0_dnu_diagonal_limit(curve, np.pi / k) == pytest.approx(0.0, abs=1e-14)


def test_diagonal_limit_is_first_order_limit_of_kernel():
    curve = kite()
    t0 = 1.3
    pt0, nu0, _ = point_normal_speed(curve, t0)
    target = gamma0_dnu_diagonal_limit(curve, t0)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        val = gamma0_dnu(pt0, nu0, curve.eval(t0 + h))
        errs.append(abs(val - target))
    # observed convergence order ~ O(h)
    order = np.log(errs[0] / errs[-1]) / np.log(4.0)
    assert order > 0.9
    assert errs[-1] < 5e-3


@pytest.mark.parametrize(
    "curve,inside,outside",
    [
        (circle(), (0.2, -0.3), (1.7, 0.4)),
        (kite(), (-0.5, 0.0), (3.0, 3.0)),
    ],
)
def test_gauss_identity_trapezoid(curve, inside, outside):
    n = 256
    t = TWO_PI * np.arange(n) / n
    pts, nus, sps = point_normal_speed(curve, t)
    w = TWO_PI / n * sps
    for target, expected in ((inside, 1.0), (outside, 0.0)):
        vals = gamma0_dnu(pts, nus, np.asarray(target, dtype=float))
        assert np.sum(w * vals) == pytest.approx(expected, abs=1e-10)


def stacked_gamma0(x, y):
    # the arithmetic of the stacked (..., 2) difference array and its norm
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.log(np.linalg.norm(diff, axis=-1)) / (2.0 * np.pi)


def stacked_gamma0_dnu(x, nu_x, y):
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    dist = np.linalg.norm(diff, axis=-1)
    return np.sum(diff * np.asarray(nu_x, dtype=float), axis=-1) / (2.0 * np.pi * dist**2)


def test_kernels_match_stacked_difference_arithmetic(monkeypatch):
    # the kernels build |x - y| from the two coordinate differences without
    # the stacked difference array; the floating-point results are unchanged
    ops = assemble(kite(), 256)
    g = np.stack(np.meshgrid(np.linspace(-1.47, 0.97, 23), np.linspace(-1.37, 1.41, 19)), -1)
    lattice = g.reshape(-1, 2)
    assert np.array_equal(gamma0(lattice[:, None, :], ops.points),
                          stacked_gamma0(lattice[:, None, :], ops.points))
    assert np.array_equal(gamma0_dnu(ops.points, ops.normals, lattice[:, None, :]),
                          stacked_gamma0_dnu(ops.points, ops.normals, lattice[:, None, :]))
    assert gamma0([0.1, 0.2], [0.7, -0.3]) == stacked_gamma0([0.1, 0.2], [0.7, -0.3])
    monkeypatch.setattr(kernels, "gamma0", stacked_gamma0)
    monkeypatch.setattr(kernels, "gamma0_dnu", stacked_gamma0_dnu)
    stacked = assemble(kite(), 256)
    assert np.array_equal(ops.single_layer, stacked.single_layer)
    assert np.array_equal(ops.adjoint_double_layer, stacked.adjoint_double_layer)


# --- row-blocked interior evaluation --------------------------------------------

def spread_interior_points(ops, blocks):
    """Random kite points clear of the boundary, ``blocks`` coarse row blocks
    and a third of one more (a partial last block at every node count)."""
    rows = kernels.BLOCK_ENTRIES // ops.n_nodes
    rng = np.random.default_rng(5)
    cand = rng.uniform((-1.6, -1.5), (1.0, 1.5), size=(4 * blocks * rows, 2))
    dist = np.linalg.norm(cand[:, None, :] - ops.points, axis=-1).min(axis=1)
    gauss = gamma0_dnu(ops.points, ops.normals, cand[:, None, :]) @ ops.weights
    pts = cand[(gauss > 0.5) & (dist > 0.1)][:blocks * rows + rows // 3]
    assert len(pts) == blocks * rows + rows // 3
    return pts


def full_layer_potential(ops, density, pts, refine):
    """evaluate_layer_potential with the whole P x refine*N kernel at once."""
    nodes, w, rho = ops.points, ops.weights, density
    if refine > 1:
        n_fine = refine * ops.n_nodes
        params = TWO_PI * np.arange(n_fine) / n_fine
        nodes = ops.curve.eval(params)
        w = (TWO_PI / n_fine) * ops.curve.speed(params)
        coef = np.fft.rfft(density)
        coef[-1] *= 0.5
        rho = np.fft.irfft(coef, n_fine) * refine
    return gamma0(pts[:, None, :], nodes) @ (w * rho) + ops.weights @ density


def assert_relative(actual, expected, rtol=1e-13):
    assert_allclose(actual, expected, rtol=rtol, atol=rtol * np.max(np.abs(expected)))


def test_row_blocks_cover_every_row_once():
    for n_rows, n_cols in ((0, 512), (1, 512), (300, 512), (1000, 2048), (5, 10**6)):
        blocks = kernels.row_blocks(n_rows, n_cols)
        assert [i for b in blocks for i in range(n_rows)[b]] == list(range(n_rows))
        for b in blocks:
            assert b.stop - b.start == 1 or (b.stop - b.start) * n_cols <= kernels.BLOCK_ENTRIES


@pytest.mark.parametrize("refine", [1, 4])
def test_blocked_layer_potential_matches_full_kernel(refine):
    ops = assemble(kite(), 256)
    pts = spread_interior_points(ops, 3)
    assert len(pts) % (kernels.BLOCK_ENTRIES // (refine * ops.n_nodes))  # partial last block
    density = np.cos(3 * ops.params) + 0.4 * np.sin(ops.params) + 0.1
    assert_relative(evaluate_layer_potential(ops, density, pts, refine),
                    full_layer_potential(ops, density, pts, refine))


def test_blocked_coarse_pass_matches_full_arrays():
    ops = assemble(kite(), 256)
    # interior points, two outside ones and some next to nodes, several
    # blocks and a partial one
    pts = np.concatenate([spread_interior_points(ops, 3), [[3.0, 3.0], [-2.0, 0.1]],
                          ops.points[::37] + 1e-3])
    assert len(pts) % (kernels.BLOCK_ENTRIES // ops.n_nodes)
    assert_relative(interiority(ops, pts),
                    gamma0_dnu(ops.points, ops.normals, pts[:, None, :]) @ ops.weights)
    dist = np.linalg.norm(pts[:, None, :] - ops.points, axis=-1)
    nearest, sep, _, _ = kernels.node_pass(pts, ops.points)
    assert np.array_equal(nearest, np.argmin(dist, axis=1))
    assert_relative(sep, dist[np.arange(len(pts)), nearest])
    # a point on a node is at distance zero from it
    on_node, zero, _, _ = kernels.node_pass(ops.points[[5, 200]], ops.points)
    assert list(on_node) == [5, 200] and not np.any(zero)


def inward_ladder(ops, t):
    """Points on the inward normal at parameter t, 2 to 14 node weights in
    (w(t) = 2 pi |x'(t)| / N, the weight of a node there)."""
    pt, nu, speed = point_normal_speed(ops.curve, t)
    depth = np.arange(2.0, 14.5, 0.5) * (TWO_PI / ops.n_nodes) * speed
    return pt - depth[:, None] * nu


@pytest.mark.parametrize("curve,n", [(circle(), 64), (circle(), 256), (kite(), 256)])
def test_upsampled_layer_matches_fine_kernel_on_both_sides_of_the_reach(curve, n):
    # rows within the reach of the boundary take the refined layer, rows
    # beyond it the N-node one; both match the whole refine*N kernel, also
    # for a density carrying the Nyquist mode, whose N-node error decays slowest
    ops = assemble(curve, n)
    pts = np.concatenate([inward_ladder(ops, 0.0),               # through a node
                          inward_ladder(ops, np.pi / n)])        # through a cell midpoint
    smooth = np.cos(3 * ops.params) + 0.4 * np.sin(ops.params) + 0.1
    nyquist = smooth + (-1.0) ** np.arange(n)
    for density in (smooth, nyquist):
        assert_relative(evaluate_layer_potential(ops, density, pts, refine=4),
                        full_layer_potential(ops, density, pts, 4))


def test_product_matches_numpy_in_every_operand_order():
    # matrices in C order, Fortran order and strided, and vectors on either side
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((7, 5)), rng.standard_normal((5, 4))
    v5, v7 = rng.standard_normal(5), rng.standard_normal(14)[::2]
    orders = [lambda x: x, np.asfortranarray, lambda x: np.repeat(x, 2, axis=1)[:, ::2]]
    for order_a in orders:
        for order_b in orders:
            c = kernels.product(order_a(a), order_b(b))
            assert c.flags.f_contiguous
            assert_allclose(c, a @ b, rtol=1e-14, atol=1e-14)
        assert_allclose(kernels.product(order_a(a), v5), a @ v5, rtol=1e-14, atol=1e-14)
        assert_allclose(kernels.product(v7, order_a(a)), v7 @ a, rtol=1e-14, atol=1e-14)
    # an empty inner dimension (no Neumann node to eliminate) gives zeros
    assert np.array_equal(kernels.product(np.ones((3, 0)), np.ones((0, 2))), np.zeros((3, 2)))

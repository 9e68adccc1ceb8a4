"""Spectrum solves on the catalog curves, clustering, traces, interior values."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose
from scipy.linalg import lapack

from steklov import discretization, eigensolver, kernels
from steklov.discretization import (
    assemble,
    mask_from_partition,
)
from steklov.eigensolver import (
    CLUSTER_TOL,
    AccuracyWarning,
    ArcSpectrum,
    CirculantDecomposition,
    EigenPair,
    ModeDirections,
    PoleDirections,
    SecularBreakdown,
    SpectrumRequest,
    SteklovDecomposition,
    _assign_clusters,
    cluster_members,
    decompose,
    evaluate_layer_potential,
    interiority,
    ldl_inertia,
    orthonormalize_cluster,
    solve_spectrum,
    solve_spectrum_near,
)
from steklov.errors import ClusterError, EigenSolveError, GeometryError
from steklov.geometry import (
    TWO_PI,
    BoundaryCurve,
    BoundaryPartition,
    circle,
    ellipse,
    flower,
    kite,
)
from steklov.optimizer import OptimizerConfig, run


def steklov_setup(curve, n):
    ops = assemble(curve, n)
    mask = mask_from_partition(ops, BoundaryPartition.all_steklov(curve))
    return ops, mask


def half_neumann_setup(n):
    c = circle()
    ops = assemble(c, n)
    part = BoundaryPartition.from_neumann_intervals(c, [(0.0, np.pi)])
    return ops, mask_from_partition(ops, part)


def small_fraction_setup():
    # a Neumann arc ending 1e-8 of a cell short of a node's cell edge leaves
    # that node a Steklov fraction of 1e-8, where the D^-1/2 scaling alone
    # is off by about 1e-7
    c = circle()
    ops = assemble(c, 128)
    h = TWO_PI / 128
    end = ops.params[32] + h / 2 - 1e-8 * h
    mask = mask_from_partition(
        ops, BoundaryPartition.from_neumann_intervals(c, [(0.3, end)]))
    assert np.min(mask.steklov_fraction[mask.steklov_fraction > 0]) < 2e-8
    return ops, mask


def qz_reference(ops, mask):
    """Independent reference: QZ on the non-symmetric pencil A phi = lambda B phi.

    A = -I/2 + K' is the normal derivative of the single-layer ansatz and
    row i of B the completed trace scaled by the node's Steklov fraction.
    B is rank deficient (Neumann rows vanish), so infinite, complex and
    negative garbage values are dropped.
    """
    a = -0.5 * np.eye(ops.n_nodes) + ops.adjoint_double_layer
    b = mask.steklov_fraction[:, None] * ops.trace_map
    w = sla.eigvals(a, b)
    w = w[np.isfinite(w) & (np.abs(w.imag) <= 1e-6 * (1.0 + np.abs(w.real)))].real
    return np.sort(w[w >= -1e-6])


def neumann_setup(curve, n, intervals):
    ops = assemble(curve, n)
    part = BoundaryPartition.from_neumann_intervals(curve, intervals)
    return ops, mask_from_partition(ops, part)


REFERENCE_CASES = {
    "disk": lambda: steklov_setup(circle(), 256),
    # the test_05 ladder's smallest arc, eps = 0.01, centred at node N/2 (t = pi)
    "disk-arc-eps-0.01": lambda: neumann_setup(
        circle(), 256, [(np.pi - 0.01, np.pi + 0.01)]),
    "kite-two-arcs": lambda: neumann_setup(kite(), 256, [(0.5, 1.3), (3.8, 4.6)]),
    "steklov-fraction-1e-8": small_fraction_setup,
}


# ---------------------------------------------------------------------------
# pure Steklov spectra
# ---------------------------------------------------------------------------

def test_disk_spectrum_first_nine():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=9))
    values = [p.value for p in pairs]
    assert_allclose(values, [0, 1, 1, 2, 2, 3, 3, 4, 4], atol=1e-8)


def test_disk_cluster_ids_follow_multiplicities():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=9))
    assert [p.cluster_id for p in pairs] == [0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_cluster_ids_match_the_neighbour_walk():
    # the vectorized rule against the loop it replaced: a gap above
    # CLUSTER_TOL * (1 + |upper value|) opens a new cluster
    rng = np.random.default_rng(5)
    base = np.sort(rng.uniform(0.0, 20.0, 40))
    gaps = rng.choice([0.5, 1.0, 2.0], 40) * CLUSTER_TOL * (1.0 + base)
    values = np.sort(np.concatenate([base, base + gaps]))
    expected = [0]
    for lo, hi in zip(values[:-1], values[1:]):
        expected.append(expected[-1] + (hi - lo > CLUSTER_TOL * (1.0 + abs(hi))))
    assert _assign_clusters(values).tolist() == expected
    assert 40 < expected[-1] < 79
    # the decomposition's clusters: the disk's double eigenvalues
    spectrum = decompose(assemble(circle(), 64))
    assert [spectrum.cluster(j) for j in range(5)] == [(0, 0), (1, 2), (1, 2), (3, 4), (3, 4)]


def test_scaled_disk_spectrum():
    # radius 1+eps: every eigenvalue scales by 1/(1+eps)
    eps = 0.1
    ops, mask = steklov_setup(circle(1 + eps), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=5))
    expected = np.array([0, 1, 1, 2, 2]) / (1 + eps)
    assert_allclose([p.value for p in pairs], expected, atol=1e-8)


def test_weyl_pairing_on_circle():
    ops, mask = steklov_setup(circle(), 128)
    count = 2 * (128 // 16) + 1
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=count))
    lam = np.array([p.value for p in pairs])
    per = TWO_PI
    for j in range(1, 128 // 16):
        weyl = TWO_PI * j / per
        assert abs(lam[2 * j - 1] - weyl) <= 1e-3 * weyl
        assert abs(lam[2 * j] - weyl) <= 1e-3 * weyl


def test_kite_spectrum_has_simple_low_modes():
    ops, mask = steklov_setup(kite(), 256)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=5))
    lam = [p.value for p in pairs]
    assert lam[0] == pytest.approx(0.0, abs=1e-8)
    # all positive eigenvalues of the kite near the bottom are simple
    assert np.all(np.diff(lam[1:]) > 1e-3)


# ---------------------------------------------------------------------------
# mixed partitions
# ---------------------------------------------------------------------------

def test_mixed_spectrum_respects_upper_bound():
    ops, mask = half_neumann_setup(128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=6))
    gamma_s = np.pi
    for j, p in enumerate(pairs, start=1):
        assert p.value <= TWO_PI * (j - 1) / gamma_s + 1e-6


def test_zero_mode_present_with_constant_steklov_trace():
    ops, mask = half_neumann_setup(128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=3))
    assert abs(pairs[0].value) <= 1e-8
    tr = pairs[0].trace[mask.steklov_fraction == 1.0]
    assert np.max(np.abs(tr - np.mean(tr))) <= 1e-6 * abs(np.mean(tr))


def test_sorted_eigenvalues_nondecreasing_as_neumann_grows():
    c = circle()
    ops = assemble(c, 128)
    prev = None
    for half in (0.2, 0.5, 1.0):
        part = BoundaryPartition.from_neumann_intervals(
            c, [(np.pi - half, np.pi + half)]
        )
        pairs = solve_spectrum(ops, mask_from_partition(ops, part),
                               SpectrumRequest(count=5))
        lam = np.array([p.value for p in pairs])
        if prev is not None:
            assert np.all(lam >= prev - 1e-8)
        prev = lam


def test_trace_is_completed_single_layer_image():
    ops, mask = half_neumann_setup(64)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=4))
    for p in pairs:
        reconstructed = ops.trace_map @ p.density
        assert_allclose(p.trace, reconstructed, atol=1e-10)


# ---------------------------------------------------------------------------
# near-target path
# ---------------------------------------------------------------------------

def test_shift_invert_matches_dense_near_target():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum_near(ops, mask, sigma=2.4, count=6)
    by_distance = sorted((p.value for p in pairs), key=lambda v: abs(v - 2.4))
    # nearest eigenvalues around 2.4 are 2, 2, then 3, 3
    assert_allclose(by_distance[:2], [2, 2], atol=1e-8)
    assert_allclose(by_distance[2:4], [3, 3], atol=1e-8)
    # the traces form an L2(Gamma_S)-orthonormal set, double clusters included
    traces = np.array([p.trace for p in pairs])
    gram = (traces * mask.steklov_weights) @ traces.T
    assert_allclose(gram, np.eye(len(pairs)), atol=1e-8)


def test_shift_invert_matches_dense_at_small_steklov_fraction():
    ops, mask = small_fraction_setup()
    dense = qz_reference(ops, mask)
    near = solve_spectrum_near(ops, mask, sigma=2.5, count=6)
    for p in near:
        assert np.min(np.abs(dense - p.value)) < 1e-10


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_solve_spectrum_matches_qz_reference(case):
    ops, mask = REFERENCE_CASES[case]()
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=12))
    values = np.array([p.value for p in pairs])
    assert_allclose(values, qz_reference(ops, mask)[:12], rtol=0, atol=1e-10)
    traces = np.array([p.trace for p in pairs])
    gram = (traces * mask.steklov_weights) @ traces.T
    assert_allclose(gram, np.eye(12), atol=1e-8)


def counting_eigh(monkeypatch) -> list:
    """The keyword arguments of every ``scipy.linalg.eigh`` call from now on."""
    calls = []
    true_eigh = sla.eigh

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return true_eigh(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh", counting)
    return calls


def test_lowest_spectrum_window_holds_count_values(monkeypatch):
    # the lowest pairs are the top of the mask's section eigenvalues mu =
    # 1/lambda: one eigh windowed by index per request, holding count - 1
    # values (the constant mode is known), and no second solve
    ops, mask = steklov_setup(kite(), 128)
    decompose(ops)
    calls = counting_eigh(monkeypatch)
    for count in range(2, 16):
        calls.clear()
        pairs = solve_spectrum(ops, mask, SpectrumRequest(count=count))
        assert len(pairs) == count
        assert len(calls) == 1 and calls[0]["subset_by_index"] == (129 - count, 127)


def test_full_spectrum_request_skips_the_window(monkeypatch):
    # asking for every pair of a mask: the solve goes straight to the full
    # eigh of the mask's section, and every value matches QZ
    ops, mask = neumann_setup(kite(), 128, [(0.5, 0.9)])
    expected = qz_reference(ops, mask)
    decompose(ops)
    calls = counting_eigh(monkeypatch)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=128))
    assert len(calls) == 1 and "subset_by_index" not in calls[0]
    assert_allclose([p.value for p in pairs], expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("curve", [circle, kite], ids=["circle", "kite"])
def test_full_spectrum_at_a_small_steklov_fraction_matches_qz_reference(curve, n):
    # a node at Steklov fraction 1e-8 and a request for every pair, the mode
    # of about 1/fraction included: the lowest values and the guard's hold
    # full accuracy
    ops = assemble(curve(), n)
    h = TWO_PI / n
    end = ops.params[n // 4] + h / 2 - 1e-8 * h
    mask = mask_from_partition(ops, BoundaryPartition.from_neumann_intervals(
        ops.curve, [(0.3, end)]))
    assert np.min(mask.steklov_fraction[mask.steklov_fraction > 0]) < 2e-8
    expected = qz_reference(ops, mask)[:12]
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=n))
    assert len(pairs) == np.count_nonzero(mask.steklov_fraction)
    tol = 1e-12 * expected[11]
    assert_allclose([p.value for p in pairs[:12]], expected, rtol=0, atol=tol)
    assert_allclose([mask.value(j) for j in range(12)], expected, rtol=0, atol=tol)


def shifted(curve, by=0.3):
    """``curve`` with its parameter shifted: node reversal is no symmetry of it."""
    return BoundaryCurve(lambda t: curve.eval(t + by), lambda t: curve.derivative(t + by),
                         lambda t: curve.second_derivative(t + by),
                         name=f"{curve.name}-shifted")


def mirror_route(monkeypatch):
    """Send the circle down the mirror route: its rotation decision says no."""
    monkeypatch.setattr(discretization, "_rotation_symmetric", lambda *a: False)


def test_decomposition_scales_in_fortran_order_without_changing_a_bit():
    # without mirror symmetry the decomposition is one plain eigh
    ops = assemble(shifted(kite()), 256)
    scale = 1.0 / np.sqrt(ops.weights)
    values, vectors = sla.eigh(ops.weighted_dtn * scale[:, None] * scale, driver="evd")
    spectrum = decompose(ops)
    assert np.array_equal(spectrum.values, values)
    assert np.array_equal(spectrum.vectors, vectors)


@pytest.mark.parametrize("curve", [kite, lambda: ellipse(1.0, 0.5)],
                         ids=["kite-shifted", "ellipse-shifted"])
def test_decomposition_copies_from_the_transpose_without_changing_a_bit(curve):
    # H is stored exactly symmetric, so scaling its Fortran-ordered transpose
    # gives the same array as scaling H into Fortran order
    ops = assemble(shifted(curve()), 128)
    assert np.array_equal(ops.weighted_dtn, ops.weighted_dtn.T)
    scale = 1.0 / np.sqrt(ops.weights)
    a = np.multiply(ops.weighted_dtn, scale[:, None], order="F")
    a *= scale
    values, vectors = sla.eigh(a, driver="evd", overwrite_a=True, check_finite=False)
    spectrum = decompose(ops)
    assert np.array_equal(spectrum.values, values)
    assert np.array_equal(spectrum.vectors, vectors)


MIRROR_CURVES = {"circle": circle, "kite": kite, "ellipse": lambda: ellipse(1.0, 0.5),
                 "flower": lambda: flower(0.1, 5)}


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("name", MIRROR_CURVES)
def test_mirror_split_matches_a_plain_eigh(name, n):
    ops = assemble(MIRROR_CURVES[name](), n)
    spectrum = decompose(ops)
    values, vectors = sla.eigh(eigensolver._scaled_dtn(ops), driver="evd")
    assert_allclose(spectrum.values, values, rtol=1e-12, atol=1e-12)
    q = spectrum.vectors
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
    # every column is exactly even or odd under the node reversal j -> N - j
    mirrored = q[-np.arange(n)]
    assert np.all(np.all(mirrored == q, axis=0) | np.all(mirrored == -q, axis=0))
    ids = _assign_clusters(spectrum.values)
    for c in np.unique(ids):
        members = ids == c
        assert np.array_equal(members, _assign_clusters(values) == c)
        split, plain = q[:, members], vectors[:, members]
        assert np.max(np.abs(split @ split.T - plain @ plain.T)) <= 1e-10


@pytest.mark.parametrize("name", MIRROR_CURVES)
def test_mirror_split_is_the_eigh_of_its_two_blocks(name, monkeypatch):
    if name == "circle":
        mirror_route(monkeypatch)
    ops = assemble(MIRROR_CURVES[name](), 128)
    assert not ops.rotation
    even, odd = ops.scaled_dtn_halves()
    (ve, ze), (vo, zo) = (sla.eigh(b, driver="evd") for b in (even, odd))
    spectrum = decompose(ops)
    order = np.argsort(np.concatenate((ve, vo)), kind="stable")
    assert np.array_equal(spectrum.values, np.concatenate((ve, vo))[order])
    # M blockdiag(Z_e, Z_o): rows 0 and N/2 kept, rows j and N - j from
    # row j of Z_e, or +- row N - j of Z_o, over sqrt 2
    m = len(ve) - 1
    r = np.sqrt(0.5)
    embedded = np.zeros((2 * m, 2 * m))
    embedded[[0, m], :m + 1] = ze[[0, m]]
    embedded[1:m, :m + 1] = embedded[:m:-1, :m + 1] = r * ze[1:m]
    embedded[1:m, m + 1:] = r * zo[::-1]
    embedded[:m:-1, m + 1:] = -r * zo[::-1]
    assert np.array_equal(spectrum.vectors, embedded[:, order])


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_circulant_and_mirror_routes_decompose_the_disk_alike(n, monkeypatch):
    circulant = decompose(assemble(circle(), n))
    mirror_route(monkeypatch)
    ops = assemble(circle(), n)
    assert ops.mirror and not ops.rotation
    split = decompose(ops)
    assert np.all(np.abs(circulant.values - split.values) <= 1e-12 * (1.0 + np.abs(split.values)))
    ids = _assign_clusters(split.values)
    assert np.array_equal(_assign_clusters(circulant.values), ids)
    for c in np.unique(ids):
        a = circulant.vectors[:, ids == c]
        b = split.vectors[:, ids == c]
        # the 2-norm of the difference of the two cluster projectors
        assert np.linalg.norm(b - a @ (a.T @ b), 2) <= 1e-10


@pytest.mark.parametrize("n", [64, 768, 1536])
def test_circulant_decomposition_acts_as_its_table(n):
    # the disk's Q is kept as its modes: cluster columns are gathered from
    # the cos/sin table, the traces and the source solve are FFTs, and none
    # of them builds the table
    ops = assemble(circle(), n)
    spectrum = decompose(ops)
    assert isinstance(spectrum, CirculantDecomposition)
    rng = np.random.default_rng(n)
    coefficients = rng.standard_normal((n, 3))
    traces = spectrum.traces(coefficients)
    v = rng.standard_normal(n)
    lam = 0.5 * (spectrum.values[5] + spectrum.values[7])
    source = spectrum.source_system(lam)[0](v)
    clusters = [spectrum.pairs(range(first, last + 1))
                for first, last in map(spectrum.cluster, (0, 1, 6, n // 3, n - 1))]
    assert "vectors" not in vars(spectrum)
    q = spectrum.vectors
    assert spectrum.vectors is q and not q.flags.writeable
    scale = 1.0 / np.sqrt(ops.weights)

    def relative(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert relative(traces, scale[:, None] * (q @ coefficients)) <= 1e-13
    # H - lam W = W^1/2 Q (Lambda - lam) Q^T W^1/2
    want = scale * (q @ (((scale * v) @ q) / (spectrum.values - lam)))
    assert relative(source, want) <= 1e-13
    ids = _assign_clusters(spectrum.values)
    for j, pairs in zip((0, 1, 6, n // 3, n - 1), clusters):
        members = ids == ids[j]
        assert len(pairs) == np.count_nonzero(members) == (1 if j in (0, n - 1) else 2)
        want = q[:, members] * scale[:, None]
        got = np.array([p.trace for p in pairs]).T
        # the same columns, up to the sign convention
        assert relative(np.abs(got), np.abs(want)) <= 1e-13


def test_indefinite_neumann_block_raises_eigensolve_error(monkeypatch):
    # a flipped free-space kernel makes the all-Steklov problem indefinite,
    # which the mask's owner refuses
    true_gamma0 = kernels.gamma0
    monkeypatch.setattr(kernels, "gamma0", lambda x, y: -true_gamma0(x, y))
    ops, mask = half_neumann_setup(64)
    with pytest.raises(EigenSolveError):
        solve_spectrum(ops, mask)


# ---------------------------------------------------------------------------
# small arcs: the secular equation on the arc nodes
# ---------------------------------------------------------------------------

def one_cell_setup():
    # an arc inside the cell of node 10 leaves it the only arc node (m = 1):
    # one mode of every double disk eigenvalue vanishes there and deflates
    c = circle()
    ops = assemble(c, 128)
    h = TWO_PI / 128
    t = ops.params[10]
    return ops, mask_from_partition(
        ops, BoundaryPartition.from_neumann_intervals(c, [(t - 0.3 * h, t + 0.3 * h)]))


SECULAR_CASES = {
    "disk-arc-N128": lambda: neumann_setup(circle(), 128, [(2.0, 2.3)]),
    "disk-two-arcs-N256": lambda: neumann_setup(circle(), 256, [(0.4, 0.5), (3.0, 3.2)]),
    "disk-test05-arc-N256": lambda: neumann_setup(
        circle(), 256, [(np.pi - 0.02, np.pi + 0.02)]),
    "kite-arc-N256": lambda: neumann_setup(kite(), 256, [(0.5, 0.7)]),
    # three-fold symmetry (192 = 3 * 64 nodes): double mixed eigenvalues
    "disk-three-arcs-N192": lambda: neumann_setup(
        circle(), 192, [(0.2 + j * TWO_PI / 3, 0.3 + j * TWO_PI / 3) for j in range(3)]),
    "kite-two-arcs-N512": lambda: neumann_setup(kite(), 512, [(0.5, 0.6), (3.8, 3.95)]),
    "steklov-fraction-1e-8": small_fraction_setup,
    "disk-deflated-N128": one_cell_setup,
    # the final mask of the test_11 run (kite, N=256, lambda* = 2.5): secular
    # root 4 (2.0891686754) lies 6.5e-4 above the pole 2.0885186522
    "kite-test11-final-N256": lambda: neumann_setup(
        kite(), 256, [(1.4620944194852392, 2.2643681928299895)]),
}


@lru_cache(maxsize=None)
def secular_reference(case):
    """The QZ reference of a ``SECULAR_CASES`` mask, computed once per test run."""
    reference = qz_reference(*SECULAR_CASES[case]())
    reference.setflags(write=False)
    return reference


def secular_pairs(ops, mask, center, count):
    """Whole clusters from about ``count``/2 eigenvalues below ``center``
    upwards until they hold ``count`` pairs, ascending."""
    arc = ArcSpectrum(decompose(ops), mask)
    j = arc.cluster(max(arc.count_below(center) - count // 2, 0))[0]
    pairs = []
    while len(pairs) < count:
        lo, hi = arc.cluster(j)
        pairs += arc.pairs(range(lo, hi + 1))
        j = hi + 1
    return pairs


@pytest.mark.parametrize("case", list(SECULAR_CASES))
def test_secular_solve_matches_qz_reference(case):
    ops, mask = SECULAR_CASES[case]()
    reference = secular_reference(case)
    # near 0 the run reaches the constant mode, an eigenpair of every mask
    for center in (0.3, 2.5, 6.3):
        pairs = secular_pairs(ops, mask, center, 10)
        values = np.array([p.value for p in pairs])
        # a contiguous run of the spectrum: the reference values in its span
        first = np.argmin(np.abs(reference - values[0]))
        assert_allclose(values, reference[first:first + len(values)], rtol=0, atol=1e-10)
        traces = np.array([p.trace for p in pairs])
        gram = (traces * mask.steklov_weights) @ traces.T
        assert_allclose(gram, np.eye(len(pairs)), atol=1e-8)
        # the traces solve H u = lambda diag(b) u
        for p in pairs:
            residual = ops.weighted_dtn @ p.trace - p.value * mask.steklov_weights * p.trace
            assert np.max(np.abs(residual)) < 1e-8 * (1.0 + p.value)


def test_secular_solve_deflates_modes_vanishing_on_the_arc():
    ops, mask = one_cell_setup()
    arc = ArcSpectrum(decompose(ops), mask)
    assert arc.m == 1
    # the constant mode and one mode of each of the 63 double eigenvalues
    # (the top one is simple)
    assert len(arc.deflated) == 64
    assert_allclose(arc.deflated[:4], [0.0, 1.0, 2.0, 3.0], atol=1e-10)
    pairs = secular_pairs(ops, mask, 2.0, 4)
    assert min(abs(p.value - 2.0) for p in pairs) < 1e-10


def test_secular_solve_of_a_mask_without_neumann_nodes_breaks_down():
    # no arc node means no secular equation; the caller solves the mask directly
    ops, mask = steklov_setup(circle(), 64)
    with pytest.raises(SecularBreakdown, match="no secular equation"):
        ArcSpectrum(decompose(ops), mask)


def test_arc_past_the_mask_spectrum_names_the_missing_index():
    # N_s Steklov nodes carry N_s eigenvalues: past them the secular root has
    # no bracket, and the mask's own spectrum, which answers instead, refuses
    # the index
    ops, mask = neumann_setup(circle(), 64, [(0.3, TWO_PI - 0.3)])
    n_s = np.count_nonzero(mask.steklov_fraction > 0)
    arc = ArcSpectrum(decompose(ops), mask)
    assert arc.count_below(1e9) == n_s
    with pytest.raises(EigenSolveError, match=f"no eigenvalue of index {n_s}"):
        arc.value(n_s)


@pytest.mark.parametrize("case", ["disk-two-arcs-N256", "kite-two-arcs-N512",
                                  "steklov-fraction-1e-8", "disk-deflated-N128"])
def test_secular_count_matches_the_eigensolver(case):
    # the secular count and the mask's own, from its Steklov-side owner
    ops, mask = SECULAR_CASES[case]()
    reference = secular_reference(case)
    arc = ArcSpectrum(decompose(ops), mask)
    rng = np.random.default_rng(5)
    probes = rng.uniform(0.2, 12.0, 40)
    probes = probes[np.min(np.abs(probes[:, None] - reference), axis=1) > 1e-6]
    assert len(probes) > 30
    for lam in probes:
        assert arc.count_below(lam) == np.count_nonzero(reference < lam)
        assert mask.count_below(lam) == np.count_nonzero(reference < lam)


@pytest.mark.parametrize("case", list(SECULAR_CASES))
def test_count_reads_the_solved_roots(case):
    # a solved root k at x has k + 1 roots below x (1 + 1e-6) and k below
    # x (1 - 1e-6), so beside roots 0..11 the counts need no LDL^T, except
    # below the first and above the last, which no other root bounds; all
    # equal a fresh inertia count
    ops, mask = SECULAR_CASES[case]()
    spectrum = decompose(ops)
    arc = ArcSpectrum(spectrum, mask)
    roots = [arc._root(k)[0] for k in range(12)]
    probes = [x * (1.0 + side) for x in roots for side in (-1e-6, 1e-6)]
    with secular_work() as work:
        counts = [arc._count(lam) for lam in probes[1:-1]]
    assert work["ldl"] == 0
    counts = [arc._count(probes[0])] + counts + [arc._count(probes[-1])]
    assert counts == [ArcSpectrum(spectrum, mask)._factor(lam)[-1] for lam in probes]


def test_inertia_count_reads_two_by_two_pivots():
    rng = np.random.default_rng(11)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    matrices = [swap, -2.0 * swap]
    for n in (3, 8, 31, 64):
        # a zero diagonal leaves Bunch-Kaufman no 1 x 1 pivot to start with
        a = rng.standard_normal((n, n))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        matrices.append(a)
        blocks = sla.block_diag(*[s * swap for s in rng.uniform(-3.0, 3.0, n)],
                                np.diag(rng.uniform(-1.0, 1.0, 3)))
        perm = rng.permutation(len(blocks))
        matrices.append(blocks[np.ix_(perm, perm)])
    two_by_two = 0
    for g in matrices:
        two_by_two += np.count_nonzero(lapack.dsytrf(g, lower=1)[1] < 0) // 2
        assert ldl_inertia(g)[2] == np.count_nonzero(np.linalg.eigvalsh(g) < 0.0)
    assert two_by_two > 50


def test_inertia_count_one_ulp_above_a_pole():
    # the secular count moves a probe that lands on a pole one ulp up, where
    # G holds a rank-one term of order 1e15 next to terms of order 1; an
    # eigenvalue within m * eps * |G| of 0 (the backward error of eigvalsh)
    # has no certain sign, so only those may disagree
    ops, mask = SECULAR_CASES["kite-arc-N256"]()
    arc = ArcSpectrum(decompose(ops), mask)
    certain = certain_two_by_two = 0
    for pole in arc.poles[:60]:
        lam, g = arc._matrix(float(pole))
        assert lam == np.nextafter(pole, np.inf)
        mu = np.linalg.eigvalsh(g)
        unsure = np.count_nonzero(np.abs(mu) <= arc.m * np.finfo(float).eps * np.max(np.abs(mu)))
        assert abs(ldl_inertia(g)[2] - np.count_nonzero(mu < 0.0)) <= unsure
        certain += unsure == 0
        certain_two_by_two += unsure == 0 and np.any(lapack.dsytrf(g, lower=1)[1] < 0)
    assert certain >= 15 and certain_two_by_two >= 4


def dense_secular_matrix(arc, lam):
    """G(lam) = F_m + C diag(Lambda/(Lambda - lam)) C^T on the active directions."""
    cols = arc._directions.columns(slice(None, len(arc.poles)))
    return (cols * (arc.poles / (arc.poles - lam))) @ cols.T + np.diag(arc.fm)


@pytest.mark.parametrize("case", [name for name in SECULAR_CASES if name.startswith("disk")]
                         + ["steklov-fraction-1e-8"])
def test_symbol_secular_matrix_is_the_dense_formula(case):
    # on the disk G is gathered from one irfft of the symbol, less the
    # deflated directions; disk-deflated-N128 deflates 63 nonzero poles
    ops, mask = SECULAR_CASES[case]()
    arc = ArcSpectrum(decompose(ops), mask)
    assert ops.rotation and arc._symbol is not None
    poles = np.unique(arc.poles)
    # the constant mode's pole (about -1e-16) is deflated, but its arc weight
    # is not small: at twice its size its rank-one term in the circulant is O(1)
    zero = arc.deflated[0]
    assert abs(zero) < 1e-12
    for lam in [2.0 * abs(zero), *0.5 * (poles[:-1] + poles[1:])[:60]]:
        _, g = arc._matrix(float(lam))
        dense = dense_secular_matrix(arc, lam)
        assert np.max(np.abs(g - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert ldl_inertia(g)[2] == ldl_inertia(dense)[2]
    # one ulp above a pole only eigenvalues of no certain sign may disagree,
    # as in test_inertia_count_one_ulp_above_a_pole
    for pole in arc.poles[:60]:
        lam, g = arc._matrix(float(pole))
        mu = np.linalg.eigvalsh(dense_secular_matrix(arc, lam))
        unsure = np.count_nonzero(np.abs(mu) <= arc.m * np.finfo(float).eps * np.max(np.abs(mu)))
        assert abs(ldl_inertia(g)[2] - np.count_nonzero(mu < 0.0)) <= unsure


def test_disk_takes_the_symbol_route_whatever_the_pole_groups(monkeypatch):
    # the disk's directions keep their own column's symbol value, so pole
    # groups that merge several modes leave the route and the counts alone
    monkeypatch.setattr(eigensolver, "_POLE_MERGE_TOL", 0.3)
    ops, mask = SECULAR_CASES["disk-arc-N128"]()
    spectrum = decompose(ops)
    assert max(spectrum.groups) > 2
    arc = ArcSpectrum(spectrum, mask)
    assert isinstance(arc._directions, ModeDirections) and arc._symbol is not None
    poles = np.unique(arc.poles)
    for lam in 0.5 * (poles[:-1] + poles[1:])[:40]:
        assert arc.count_below(lam) == mask.count_below(lam)


def disk_nodes_setup(n, first, last):
    # a Neumann arc from 0.4 of a cell before node ``first`` to 0.4 of a cell
    # past node ``last``: it touches nodes first..last (mod n) and no other
    h = TWO_PI / n
    return neumann_setup(circle(), n, [((first - 0.4) * h, (last + 0.4) * h)])


DIRECTION_CASES = {
    **{name: setup for name, setup in SECULAR_CASES.items() if not name.startswith("kite")},
    "disk-one-node-N96": lambda: disk_nodes_setup(96, 37, 37),
    "disk-two-adjacent-nodes-N128": lambda: disk_nodes_setup(128, 10, 11),
    "disk-across-node-0-N128": lambda: disk_nodes_setup(128, -3, 2),
    "disk-all-but-one-node-N128": lambda: disk_nodes_setup(128, 1, 127),
}


@pytest.mark.parametrize("case", list(DIRECTION_CASES))
def test_closed_form_pole_directions_match_the_gram_eigh(case, monkeypatch):
    # on the disk the pole directions come from one FFT of the arc weights;
    # they must be what each pole group's Gram and its eigh give
    ops, mask = DIRECTION_CASES[case]()
    spectrum = decompose(ops)
    arc = ArcSpectrum(spectrum, mask)
    directions = arc._directions
    assert ops.rotation and isinstance(directions, ModeDirections)
    nodes = np.flatnonzero(mask.steklov_fraction < 1.0)
    b = np.sqrt(1.0 - mask.steklov_fraction[nodes])[:, None] * spectrum.rows(nodes)
    # the directions in the decomposition's columns (one per secular
    # position): an orthogonal turn within each pole group
    n = ops.n_nodes
    turn = directions.lift(np.eye(n))
    assert np.max(np.abs(turn.T @ turn - np.eye(n))) <= 1e-14
    d = b @ turn
    assert np.max(np.abs(directions.columns(slice(None)) - d)) <= 1e-14
    z = np.random.default_rng(n).standard_normal(arc.m)
    assert np.max(np.abs(directions.project(z) - z @ d)) <= 1e-13 * np.max(np.abs(z @ d))
    # the reference: eigh of each group's Gram, and the deflation rule
    values, norms, active_in = [], [], {}
    for p, rows in spectrum.groups.items():
        for group in rows:
            gram = b[:, group].T @ b[:, group]
            weight, rot = np.linalg.eigh(gram)
            values += [spectrum.values[group].mean()] * p
            norms += list(np.linalg.norm(b[:, group] @ rot, axis=0))
            # the group's directions: their Gram is diagonal, its diagonal the
            # eigh weights, to 1e-14 of the trace
            at = np.flatnonzero(np.any(turn[group] != 0.0, axis=0))
            assert len(at) == p
            assert np.all(arc._values[at] == spectrum.values[group])
            turned = d[:, at].T @ d[:, at]
            tol = 1e-14 * max(np.trace(gram), np.finfo(float).tiny)
            assert np.max(np.abs(turned - np.diag(np.diag(turned)))) <= tol
            assert np.max(np.abs(np.sort(np.diag(turned)) - weight)) <= tol
            active_in[group[0]] = np.count_nonzero(at < len(arc.poles))
    values, norms = np.array(values), np.array(norms)
    active = ((norms > eigensolver._DEFLATION_TOL)
              & (np.abs(values) > eigensolver._ZERO_POLE_TOL * np.max(np.abs(values))))
    assert np.array_equal(arc.poles, np.sort(values[active]))
    assert np.array_equal(arc.deflated, np.sort(values[~active]))
    # the active sets agree group by group
    sizes = [p for p, rows in spectrum.groups.items() for _ in rows]
    firsts = [group[0] for rows in spectrum.groups.values() for group in rows]
    counts = [np.count_nonzero(a) for a in np.split(active, np.cumsum(sizes)[:-1])]
    assert dict(zip(firsts, counts)) == active_in
    # the same mask through the rows (the product of Gram and eigh)
    monkeypatch.setattr(CirculantDecomposition, "pole_directions",
                        SteklovDecomposition.pole_directions)
    gathered = ArcSpectrum(spectrum, mask)
    assert type(gathered._directions) is PoleDirections
    assert np.array_equal(gathered.poles, arc.poles)
    assert np.array_equal(gathered.deflated, arc.deflated)
    poles = np.unique(arc.poles)
    for lam in 0.5 * (poles[:-1] + poles[1:])[:60]:
        g, want = arc._matrix(lam)[1], gathered._matrix(lam)[1]
        assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))
        assert arc.count_below(lam) == gathered.count_below(lam)


def test_disk_secular_solve_gathers_no_rows(monkeypatch):
    # a disk trial (the test_10 size, N=1536) builds its directions, finds a
    # cluster and its pairs without gathering Q's rows at the arc nodes, and
    # allocates less than one m x N array; its source solves gather none
    # either.  The kite's directions are formed from its rows, once, in the
    # constructor, and its source solves gather no more.
    ops, mask = neumann_setup(circle(), 1536, [(2.0, 2.2)])
    spectrum = decompose(ops)
    gather = spectrum.rows

    def refuse(nodes):
        raise AssertionError("the disk's rows were gathered")

    monkeypatch.setattr(spectrum, "rows", refuse)
    tracemalloc.start()
    try:
        arc = ArcSpectrum(spectrum, mask)
        first, last = arc.cluster(arc.count_below(15.5))
        pairs = arc.pairs(range(first, last + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == last - first + 1 and arc.m > 40
    assert peak < arc.m * ops.n_nodes * 8
    calls = []
    monkeypatch.setattr(spectrum, "rows", lambda nodes: calls.append(nodes) or gather(nodes))
    for lam in (15.0, 15.2, 15.4):
        arc.source_system(lam)[0](np.ones(ops.n_nodes))
    assert len(calls) == 0
    kite_ops, kite_mask = SECULAR_CASES["kite-arc-N256"]()
    kite_spectrum = decompose(kite_ops)
    kite_gather = kite_spectrum.rows
    monkeypatch.setattr(kite_spectrum, "rows",
                        lambda nodes: calls.append(nodes) or kite_gather(nodes))
    kite_arc = ArcSpectrum(kite_spectrum, kite_mask)
    assert len(calls) == 1
    for lam in (3.0, 3.2):
        kite_arc.source_system(lam)[0](np.ones(kite_ops.n_nodes))
    assert len(calls) == 1


def test_count_beside_a_pole_narrows_no_bracket():
    # a count a few ulps from a pole can miss a root by one (G holds a rank-one
    # term of order 1e15 there); recorded, it must not move root 13's bracket
    # (between the double poles at 8 and 9) past the root
    ops, mask = SECULAR_CASES["steklov-fraction-1e-8"]()
    reference = ArcSpectrum(decompose(ops), mask)._root(13)[0]
    arc = ArcSpectrum(decompose(ops), mask)
    pole_9 = arc.poles[np.searchsorted(arc.poles, 8.5)]
    pole_8 = arc.poles[np.searchsorted(arc.poles, 8.5) - 1]
    assert pole_9 > reference > pole_8

    def record(x, count):
        arc._record(x, int(np.searchsorted(arc.poles, x)) - count)

    # 2 ulps below the pole at 9, reading 13 roots below; 2 ulps above the
    # pole at 8, reading 14
    record(np.nextafter(np.nextafter(pole_9, 0.0), 0.0), 13)
    record(np.nextafter(np.nextafter(pole_8, 9.0), 9.0), 14)
    lo, hi = arc._span(13)
    assert lo <= reference <= hi
    # a count away from the poles still narrows it
    record(8.5, 13)
    assert arc._span(13)[0] == 8.5
    assert arc._root(13)[0] == pytest.approx(reference, rel=1e-13)


@pytest.mark.parametrize("case", ["disk-two-arcs-N256", "kite-arc-N256"])
def test_root_search_from_a_prediction_finds_the_same_root(case):
    # the search gallops out from the predicted value, however far off it is
    ops, mask = SECULAR_CASES[case]()
    spectrum = decompose(ops)
    for k in (3, 10, 25):
        root = ArcSpectrum(spectrum, mask)._root(k)[0]
        for near in (root, 0.6 * root, 1.5 * root + 4.0):
            assert ArcSpectrum(spectrum, mask)._root(k, near=near)[0] == pytest.approx(
                root, rel=1e-13)


@contextmanager
def secular_work():
    """Count, while the block runs, the ``eigh`` calls on G ("eigh"), the LDL^T
    factorizations ("ldl") and the secular roots solved ("roots") by every
    ArcSpectrum."""
    work = Counter()
    branch_pair, ldl, root = eigensolver._branch_pair, eigensolver.ldl_inertia, ArcSpectrum._root

    def counted(name, f):
        def call(*args):
            work[name] += 1
            return f(*args)
        return call

    def counted_root(self, k, near=None):
        new = k not in self._roots
        found = root(self, k, near)
        work["roots"] += new
        return found

    eigensolver._branch_pair = counted("eigh", branch_pair)
    eigensolver.ldl_inertia = counted("ldl", ldl)
    ArcSpectrum._root = counted_root
    try:
        yield work
    finally:
        eigensolver._branch_pair, eigensolver.ldl_inertia, ArcSpectrum._root = branch_pair, ldl, root


def test_newton_refreshes_a_pair_the_count_refutes():
    # root 4 of the test_11 final mask lies 6.5e-4 above a pole.  Newton
    # starts where the branch eigenvalue of G is about +1, and once a step
    # crosses below the root the vector carried by inverse iteration still
    # reads phi > 0 where the count says phi < 0: an eigh refreshes it.  With
    # the bracket side read from that phi, the root converges to the pole.
    ops, mask = SECULAR_CASES["kite-test11-final-N256"]()
    reference = secular_reference("kite-test11-final-N256")
    arc = ArcSpectrum(decompose(ops), mask)
    with secular_work() as work:
        root = arc._root(4)[0]
    assert work["roots"] == 1 and work["eigh"] >= 2
    pole = arc.poles[np.searchsorted(arc.poles, root) - 1]
    assert 0.0 < root - pole < 1e-3
    assert np.min(np.abs(reference - root)) < 1e-10


def test_newton_takes_about_one_eigh_of_g_per_root():
    # each Newton step reads its pair from the LDL^T factors of its count;
    # an eigh of G starts a root and refreshes a pair the count refutes
    ops, mask = SECULAR_CASES["disk-two-arcs-N256"]()
    with secular_work() as scan:
        for center in (0.3, 2.5, 6.3):
            secular_pairs(ops, mask, center, 10)
    with secular_work() as tuning:
        for target in (2.5, 3.5):
            run(OptimizerConfig(curve=kite(), source=np.array((-1.25, 1.25)),
                                receiver=np.array((-1.25, -1.25)), lambda_star=target,
                                n_nodes=256))
    for work in (scan, tuning):
        assert work["roots"] >= 5
        assert work["eigh"] <= 1.5 * work["roots"], work


def test_shift_invert_is_deterministic():
    ops, mask = steklov_setup(circle(), 64)
    a = solve_spectrum_near(ops, mask, sigma=1.6, count=4)
    b = solve_spectrum_near(ops, mask, sigma=1.6, count=4)
    assert [p.value for p in a] == [p.value for p in b]
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.trace, pb.trace)


def test_shift_invert_survives_shift_on_eigenvalue():
    ops, mask = steklov_setup(circle(), 64)
    pairs = solve_spectrum_near(ops, mask, sigma=2.0, count=4)
    assert min(abs(p.value - 2.0) for p in pairs) < 1e-8


def test_request_validation():
    with pytest.raises(EigenSolveError):
        SpectrumRequest(count=0)


# ---------------------------------------------------------------------------
# orthonormalization
# ---------------------------------------------------------------------------

def test_orthonormalize_double_cluster_on_circle():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=3))
    cluster = cluster_members(pairs, pairs[1].cluster_id)
    assert len(cluster) == 2
    ortho = orthonormalize_cluster(cluster, ops, mask)
    gram = np.array([
        [mask.steklov_weights @ (a.trace * b.trace) for b in ortho]
        for a in ortho
    ])
    assert_allclose(gram, np.eye(2), atol=1e-8)
    # span check: traces must lie in span{cos t, sin t} sampled on the nodes
    basis = np.stack([np.cos(ops.params), np.sin(ops.params)], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, np.stack([p.trace for p in ortho], axis=1),
                                 rcond=None)
    resid = basis @ coeffs - np.stack([p.trace for p in ortho], axis=1)
    assert np.max(np.abs(resid)) < 1e-6


def test_orthonormalize_simple_mode_normalizes():
    ops, mask = steklov_setup(circle(), 64)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=1))
    (one,) = orthonormalize_cluster([pairs[0]], ops, mask)
    norm = mask.steklov_weights @ one.trace**2
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_orthonormalize_rejects_duplicates_and_mixed_clusters():
    ops, mask = steklov_setup(circle(), 64)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=3))
    dup = [pairs[1], pairs[1]]
    with pytest.raises(ClusterError):
        orthonormalize_cluster(dup, ops, mask)
    with pytest.raises(ClusterError):
        orthonormalize_cluster([pairs[0], pairs[1]], ops, mask)


# ---------------------------------------------------------------------------
# interior evaluation
# ---------------------------------------------------------------------------

def test_interiority_classifier():
    ops = assemble(kite(), 128)
    assert interiority(ops, (-0.5, 0.0)) > 0.99
    assert abs(interiority(ops, (3.0, 3.0))) < 1e-2
    # arrays of points classify point by point, keeping their leading shape
    for pts in (np.array([[-0.5, 0.0], [3.0, 3.0], [0.2, 0.4]]),
                np.array([[[-0.5, 0.0], [3.0, 3.0]], [[0.2, 0.4], [-2.0, 0.1]]])):
        values = interiority(ops, pts)
        assert values.shape == pts.shape[:-1]
        expected = [interiority(ops, p) for p in pts.reshape(-1, 2)]
        assert values.ravel() == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_eigenfunction_of_first_mode_vanishes_at_origin():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=3))
    lam1 = pairs[1]
    value = evaluate_layer_potential(ops, lam1.density, (0.0, 0.0))
    assert value == pytest.approx(0.0, abs=1e-10)


def test_eigenfunction_radial_power_scaling():
    # modes of the disk behave like r^lam along rays
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=5))
    for pair in (pairs[1], pairs[3]):  # lam = 1 and lam = 2 members
        p = round(pair.value)
        direction = np.array([np.cos(0.3), np.sin(0.3)])
        u1 = evaluate_layer_potential(ops, pair.density, 0.25 * direction)
        u2 = evaluate_layer_potential(ops, pair.density, 0.5 * direction)
        if abs(u2) > 1e-8:
            assert u1 / u2 == pytest.approx(0.5**p, abs=1e-6)


def test_eigenfunction_matches_boundary_trace_near_node():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=2))
    pair = pairs[1]
    p = 1
    j = 17
    direction = ops.points[j]
    val = evaluate_layer_potential(ops, pair.density, 0.5 * direction)
    assert val == pytest.approx(0.5**p * pair.trace[j], abs=1e-6)


def test_eigenfunction_is_harmonic_inside():
    ops, mask = steklov_setup(circle(), 128)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=4))
    pair = pairs[3]
    x0 = np.array([0.2, -0.1])
    h = 1e-3
    stencil = (
        evaluate_layer_potential(ops, pair.density, x0 + [h, 0])
        + evaluate_layer_potential(ops, pair.density, x0 - [h, 0])
        + evaluate_layer_potential(ops, pair.density, x0 + [0, h])
        + evaluate_layer_potential(ops, pair.density, x0 - [0, h])
        - 4 * evaluate_layer_potential(ops, pair.density, x0)
    )
    assert abs(stencil) / h**2 < 1e-4


def test_upsampled_layer_keeps_the_nyquist_mode():
    # on the unit circle S[cos k.](r, theta) = -r^k cos(k theta) / (2k): the
    # upsampled density must carry the coarse Nyquist mode (-1)^j once
    ops = assemble(circle(), 64)
    t = ops.params
    density = np.cos(3 * t) + np.cos(32 * t)
    x = np.array([[0.9, 0.0], [0.0, 0.85], [-0.6, 0.6]])
    r, theta = np.hypot(x[:, 0], x[:, 1]), np.arctan2(x[:, 1], x[:, 0])
    exact = -(r**3 * np.cos(3 * theta) / 6 + r**32 * np.cos(32 * theta) / 64)
    assert_allclose(evaluate_layer_potential(ops, density, x, refine=4), exact,
                    rtol=0, atol=1e-12)


def test_eval_outside_raises_and_near_boundary_warns():
    ops, mask = steklov_setup(circle(), 64)
    pairs = solve_spectrum(ops, mask, SpectrumRequest(count=1))
    with pytest.raises(GeometryError):
        evaluate_layer_potential(ops, pairs[0].density, (2.0, 0.0))
    with pytest.warns(AccuracyWarning):
        evaluate_layer_potential(ops, pairs[0].density, (0.9999, 0.0))

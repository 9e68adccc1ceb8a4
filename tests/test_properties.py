"""Invariants of the solvers checked over random inputs (hypothesis).

Every property runs derandomized, so tier-1 stays deterministic.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklov import greens, kernels
from steklov.discretization import assemble, mask_from_partition
from steklov.eigensolver import (
    ArcSpectrum,
    SpectrumRequest,
    decompose,
    solve_spectrum,
)
from steklov.geometry import (
    TWO_PI,
    ArcSpec,
    BoundaryPartition,
    circle,
    extend_neumann_arc,
    insert_neumann_arc,
    kite,
)

CURVES = {"circle": circle, "kite": kite}


@lru_cache(maxsize=None)
def decomposed(curve: str, n: int):
    ops = assemble(CURVES[curve](), n)
    return ops, decompose(ops)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(curve=st.sampled_from(sorted(CURVES)), n=st.sampled_from([64, 128]),
       center=st.floats(0.0, TWO_PI), length=st.floats(1e-3, 3.0),
       lams=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4))
def test_secular_count_matches_a_windowed_solve(curve, n, center, length, lams):
    ops, spectrum = decomposed(curve, n)
    mask = mask_from_partition(ops, BoundaryPartition.from_neumann_intervals(
        ops.curve, [(center - 0.5 * length, center + 0.5 * length)]))
    values = np.array([p.value for p in solve_spectrum(ops, mask, SpectrumRequest(count=40))])
    assert values[-1] > 10.0
    # the windowed count is certain only away from the eigenvalues
    lams = np.array(lams)
    assume(np.min(np.abs(values - lams[:, None])) > 1e-6)
    arc = ArcSpectrum(spectrum, mask)
    assert [arc.count_below(lam) for lam in lams] == [np.count_nonzero(values < lam)
                                                      for lam in lams]


def density_reference(ops, mask, source, lam):
    """Boundary values of the source field from a dense solve of its
    conditions on the density, (A - lam B) rho = lam frac gamma0 -
    d gamma0/dnu: A = -I/2 + K', and row i of B the completed trace scaled by
    the node's Steklov fraction."""
    a = -0.5 * np.eye(ops.n_nodes) + ops.adjoint_double_layer
    b = mask.steklov_fraction[:, None] * ops.trace_map
    g0 = kernels.gamma0(ops.points, source)
    rhs = lam * mask.steklov_fraction * g0 - kernels.gamma0_dnu(ops.points, ops.normals, source)
    return g0 + ops.trace_map @ np.linalg.solve(a - lam * b, rhs)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(curve=st.sampled_from(sorted(CURVES)), n=st.sampled_from([64, 128]),
       center=st.floats(0.0, TWO_PI), length=st.floats(1e-3, 3.0),
       lam=st.floats(0.1, 10.0))
def test_mask_counts_and_solves_its_own_spectrum(curve, n, center, length, lam):
    # a mask no run owns guards by its own counts and solves by its own
    # decomposition, as a windowed solve counts and a dense solve solves
    ops, _ = decomposed(curve, n)
    mask = mask_from_partition(ops, BoundaryPartition.from_neumann_intervals(
        ops.curve, [(center - 0.5 * length, center + 0.5 * length)]))
    values = np.array([p.value for p in solve_spectrum(ops, mask, SpectrumRequest(count=40))])
    assert values[-1] > 10.0
    detuning = np.min(np.abs(values - lam))
    assume(detuning > 1e-6)
    assert mask.count_below(lam) == np.count_nonzero(values < lam)
    if detuning <= greens.RESONANCE_GUARD * (1.0 + lam):
        return
    field = greens.solve_greens(ops, mask, (0.1, -0.2), lam)
    reference = density_reference(ops, mask, (0.1, -0.2), lam)
    assert (np.max(np.abs(field.boundary_values - reference))
            <= 1e-12 * max(1.0, 1e-3 / detuning) * np.max(np.abs(reference)))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(curve=st.sampled_from(sorted(CURVES)), n=st.sampled_from([64, 128]),
       center=st.floats(0.0, TWO_PI), half=st.floats(0.0, 1.0),
       grow=st.floats(1e-3, 0.5))
def test_growing_the_arc_raises_every_eigenvalue(curve, n, center, half, grow):
    # covering more boundary shrinks the Steklov part, so by min-max each
    # eigenvalue, counted by index, can only rise
    ops, _ = decomposed(curve, n)
    smaller = insert_neumann_arc(BoundaryPartition.all_steklov(ops.curve),
                                 ArcSpec(center, half))
    grown = extend_neumann_arc(smaller, smaller.neumann_arc_ids()[0], grow)
    small, large = (np.array([p.value for p in solve_spectrum(
        ops, mask_from_partition(ops, p), SpectrumRequest(count=8))])
        for p in (smaller, grown))
    assert np.all(large >= small - 1e-9 * (1.0 + small))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(curve=st.sampled_from(sorted(CURVES)), n=st.sampled_from([64, 128]),
       center=st.floats(0.0, TWO_PI), length=st.floats(1e-3, 3.0), j=st.integers(0, 8))
def test_arc_and_mask_owners_answer_alike(curve, n, center, length, j):
    # the secular equation on the arc nodes and the Steklov side of the
    # decomposition are two exact forms of one mask's spectrum: they give
    # eigenvalue j the same cluster, the same values and the same span
    ops, spectrum = decomposed(curve, n)
    partition = BoundaryPartition.from_neumann_intervals(
        ops.curve, [(center - 0.5 * length, center + 0.5 * length)])
    arc_mask, mask = (mask_from_partition(ops, partition) for _ in range(2))
    arc, own = ArcSpectrum(spectrum, arc_mask), mask._spectrum
    first, last = arc.cluster(j)
    assert own.cluster(j) == (first, last)
    indices = range(first, last + 1)
    a, b = arc.pairs(indices), own.pairs(indices)
    # the arc answered by itself, without handing over to its mask
    assert "_spectrum" not in vars(arc_mask)
    va, vb = (np.array([p.value for p in pairs]) for pairs in (a, b))
    assert np.all(np.abs(va - vb) <= 1e-10 * (1.0 + np.abs(vb)))
    # the Steklov-orthonormal traces span the same space
    root = np.sqrt(mask.steklov_weights)[:, None]
    ua, ub = (root * np.array([p.trace for p in pairs]).T for pairs in (a, b))
    assert np.linalg.norm(ua @ ua.T - ub @ ub.T, 2) <= 1e-8

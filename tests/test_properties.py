"""Invariants of the solvers checked over random inputs (hypothesis).

Every property runs derandomized, so tier-1 stays deterministic.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

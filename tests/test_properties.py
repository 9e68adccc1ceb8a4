"""Invariants of the solvers checked over random inputs (hypothesis).

Every property runs derandomized, so tier-1 stays deterministic.
"""

from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklov.discretization import assemble, mask_from_partition
from steklov.eigensolver import (
    ArcSpectrum,
    SpectrumRequest,
    decompose,
    solve_spectrum,
)
from steklov.geometry import TWO_PI, BoundaryPartition, circle, kite

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

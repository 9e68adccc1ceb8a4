"""Eigensolver for the discretized mixed spectral problem.

With u = T phi the completed boundary trace of a single-layer density phi,
the mixed problem reads H u = lambda diag(b) u: H is the weighted
Dirichlet-to-Neumann matrix (symmetric) and b the Steklov weights, zero on
Neumann nodes.  Every solve reads one decomposition of the all-Steklov
problem, X = W^-1/2 H W^-1/2 = Q diag(Lambda) Q^T, which the operator set
keeps (:func:`decompose`).  A mask changes that problem, and is solved on
either side of its partition:

* :class:`ArcSpectrum`, the tuning run's trial solve: a mask whose Neumann
  part touches m nodes is a rank-m change, so its eigenvalues are the roots
  of an m x m secular equation (Golub, SIAM Rev. 15, 1973), counted by the
  inertia of one LDL^T factorization (:func:`ldl_inertia`).  It is the
  exact form of the first-order arc formula the optimizer steps with.
  Where the secular solve cannot answer, it hands over to the mask's own
  spectrum.
* :class:`MaskSpectrum`, any mask: its nonzero eigenvalues are the
  reciprocals of those of an N_s x N_s section of X^+ on its N_s Steklov
  nodes, one linear eigenproblem.  :func:`solve_spectrum`,
  :func:`solve_spectrum_near` and the mask itself read it.

The decomposition and both owners answer alike: ``count_below``, ``value``,
``cluster``, ``pairs`` and ``source_system``, the last with no N x N
factorization.

All dense algebra with an N-sized operand runs on scipy's OpenBLAS
(LAPACK, and :func:`kernels.product` instead of numpy's ``@``): numpy's own
pool, once woken, keeps spinning beside scipy's (an N=768 LU after a numpy
``eigh`` took 0.09-0.21 s instead of 0.013 s on two cores).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import kernels
from .asymptotics import verify_orthonormal
from .discretization import OperatorSet, PartitionMask, inverse_norm
from .errors import ClusterError, EigenSolveError, GeometryError
from .geometry import TWO_PI


class AccuracyWarning(UserWarning):
    """Evaluation requested in a region where the quadrature degrades."""


@dataclass(frozen=True)
class EigenPair:
    """One computed mode: value, layer density, boundary trace, cluster id."""

    value: float
    density: np.ndarray
    trace: np.ndarray
    cluster_id: int


# neighbouring eigenvalues this close (relatively) share a cluster id
CLUSTER_TOL = 1e-6
# a source solve is refused when lambda is this close (relatively) to an
# eigenvalue
RESONANCE_GUARD = 1e-6


@dataclass(frozen=True)
class SpectrumRequest:
    count: int = 10

    def __post_init__(self):
        if self.count < 1:
            raise EigenSolveError("request needs count >= 1")


def _assign_clusters(values: np.ndarray) -> np.ndarray:
    """Cluster ids of ascending values: a gap above CLUSTER_TOL opens a new one."""
    ids = np.zeros(len(values), dtype=int)
    ids[1:] = np.cumsum(np.diff(values) > CLUSTER_TOL * (1.0 + np.abs(values[1:])))
    return ids


def _signed_pairs(ops: OperatorSet, values: np.ndarray, traces: np.ndarray) -> list[EigenPair]:
    """Every solver's finish: sign the trace columns (largest entry positive),
    recover their densities T^-1 u and cluster the ascending values."""
    k = traces.shape[1]
    traces = traces * np.copysign(1.0, traces[np.argmax(np.abs(traces), axis=0), np.arange(k)])
    densities = ops.trace_solve(traces)
    return [EigenPair(float(lam), d, t, int(c)) for lam, d, t, c
            in zip(values, densities.T, traces.T, _assign_clusters(values))]


class _Owner:
    """What every owner of a spectrum shares: :meth:`cluster`, read from its
    ``count_below`` and ``value``."""

    def cluster(self, j: int, near: float | None = None) -> tuple[int, int]:
        """First and last index of the multiplicity cluster of eigenvalue j.

        Neighbours chain as in :func:`_assign_clusters`; whether the next
        eigenvalue out lies within CLUSTER_TOL is read from one count at
        the bound.  ``near`` is passed on to the search of eigenvalue j.
        """
        tol = CLUSTER_TOL
        first = last = j
        top = bottom = self.value(j, near)
        while self.count_below(np.nextafter((top + tol) / (1.0 - tol), np.inf)) > last + 1:
            last += 1
            top = self.value(last)
        while first > 0 and self.count_below(bottom - tol * (1.0 + abs(bottom))) < first:
            first -= 1
            bottom = self.value(first)
        return first, last


def _rayleigh_ritz(projected: np.ndarray, b: np.ndarray, traces: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and vectors of (H, diag(b)) on the span of the trace
    columns U, given ``projected`` = U^T H U; ``scipy.linalg.eigh`` raises
    LinAlgError on failure."""
    values, rotation = sla.eigh(projected, kernels.product(traces.T * b, traces))
    return values, kernels.product(traces, rotation)


def solve_spectrum(ops: OperatorSet, mask: PartitionMask,
                   req: SpectrumRequest = SpectrumRequest()) -> list[EigenPair]:
    """Lowest eigenpairs of the mixed problem, sorted ascending and clustered."""
    return solve_spectrum_near(ops, mask, 0.0, req.count)


def solve_spectrum_near(ops: OperatorSet, mask: PartitionMask, sigma: float,
                        count: int = 6) -> list[EigenPair]:
    """The ``count`` eigenpairs nearest sigma, ascending, from the mask's
    :class:`MaskSpectrum` (``ops`` is the mask's own): traces
    L2(Gamma_S)-orthonormal, densities T^-1 u.  EigenSolveError on failure.
    For sigma <= 0 they are the lowest ``count``.
    """
    spectrum = mask._spectrum
    if sigma > 0.0:
        values = spectrum._full[0]
        return spectrum.pairs(np.sort(np.argsort(np.abs(values - sigma), kind="stable")[:count]))
    return spectrum.pairs(range(min(count, len(spectrum._nodes))))


def cluster_members(pairs: list[EigenPair], cluster_id: int) -> list[EigenPair]:
    return [p for p in pairs if p.cluster_id == cluster_id]


def orthonormalize_cluster(pairs: list[EigenPair], ops: OperatorSet,
                           mask: PartitionMask) -> list[EigenPair]:
    """Check that ``pairs`` are an L2(Gamma_S)-orthonormal basis of one cluster.

    The solvers return orthonormal traces by construction, so the pairs come
    back unchanged; ClusterError when they span several clusters or their
    Steklov Gram matrix is not the identity.
    """
    if not pairs:
        return []
    if len({p.cluster_id for p in pairs}) != 1:
        raise ClusterError("pairs do not share a cluster id")
    verify_orthonormal([p.trace for p in pairs], mask.steklov_weights)
    return list(pairs)


# ---------------------------------------------------------------------------
# arcs: one decomposition, then a secular equation per mask
# ---------------------------------------------------------------------------

# Steklov eigenvalues this close (relatively) form one pole of the secular
# equation; a pole direction whose arc weight is at most _DEFLATION_TOL stays
# an eigenvalue of the mixed problem (it moves by about weight^2 * lambda)
_POLE_MERGE_TOL = 1e-9
_DEFLATION_TOL = 1e-7
# Steklov eigenvalues this small (relative to the largest) are the constant mode
_ZERO_POLE_TOL = 1e-12
# LDL^T evaluations allowed per root (to isolate it, then to polish it), or
# per comparison of two roots, before the secular solve gives up
_MAX_EVALUATIONS = 80
# Newton roots and the Rayleigh-Ritz values of their traces must agree
_RITZ_AGREEMENT = 1e-9
# a count this many ulps from a pole narrows no bracket: G(lambda) there holds
# a rank-one term of order eps^-1 whose rounding can hide a negative
# eigenvalue, so the count may read one root too few
_POLE_ULPS = 16
# Newton stops on a step or a bracket this small, relative to max(|x|, 1)
_NEWTON_TOL = 4.0 * np.finfo(float).eps


class SecularBreakdown(EigenSolveError):
    """The secular solve could not certify a root; the mask's own spectrum answers."""


class SteklovDecomposition(_Owner):
    """The all-Steklov problem in orthonormal form, decomposed once.

    W^-1/2 H W^-1/2 = Q diag(values) Q^T with W = diag(weights), so the
    all-Steklov eigenpairs are (values_j, W^-1/2 Q_j), and H W^-1/2 Q =
    W^1/2 Q diag(values).  ``vectors`` is Q, read-only.  On a mirror set
    (``ops.mirror``), the circle's included, every column of Q is exactly
    even or odd under the node reversal j -> N - j (:func:`decompose`).
    ``groups`` lists, per group size, the index rows of values equal within
    ``_POLE_MERGE_TOL``.
    """

    def __init__(self, ops: OperatorSet, values: np.ndarray, vectors: np.ndarray):
        values.setflags(write=False)
        vectors.setflags(write=False)
        self.ops, self.values, self.vectors = ops, values, vectors

    @cached_property
    def groups(self) -> dict:
        values = self.values
        starts = np.flatnonzero(np.diff(values) > _POLE_MERGE_TOL * (1.0 + np.abs(values[1:]))) + 1
        bounds = np.concatenate(([0], starts, [len(values)]))
        sizes = np.diff(bounds)
        groups = {int(p): bounds[:-1][sizes == p][:, None] + np.arange(p)
                  for p in np.unique(sizes)}
        for rows in groups.values():
            rows.setflags(write=False)
        return groups

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """Q's rows at the given nodes."""
        return self.vectors[nodes]

    def _columns(self, columns: np.ndarray) -> np.ndarray:
        """Q's given columns."""
        return self.vectors[:, columns]

    def _synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Q c for coefficient columns c."""
        return kernels.product(self.vectors, coefficients)

    def _analyze(self, v: np.ndarray) -> np.ndarray:
        """Q^T v for a vector v."""
        return kernels.product(v, self.vectors)

    def traces(self, coefficients: np.ndarray) -> np.ndarray:
        """Boundary traces W^-1/2 Q c of coefficient columns c."""
        return self._synthesize(coefficients) / np.sqrt(self.ops.weights)[:, None]

    def count_below(self, x: float) -> int:
        """Number of all-Steklov eigenvalues strictly below x; 0 for x <= 0."""
        return int(np.searchsorted(self.values, x)) if x > 0.0 else 0

    def value(self, j: int, near: float | None = None) -> float:
        """All-Steklov eigenvalue j (ascending from 0, the constant mode first)."""
        return float(self.values[j])

    def pairs(self, indices) -> list[EigenPair]:
        """All-Steklov eigenpairs of the given indices."""
        indices = np.asarray(indices)
        return _signed_pairs(self.ops, self.values[indices],
                             self._columns(indices) / np.sqrt(self.ops.weights)[:, None])

    def source_system(self, lam: float):
        """``(solve, condition)`` of the all-Steklov source system H - lam W:
        v -> W^-1/2 Q (Lambda - lam)^-1 Q^T W^-1/2 v, with no factorization;
        ``condition`` is the exact 2-norm condition number of the scaled
        system W^-1/2 (H - lam W) W^-1/2."""
        d = self.values - lam
        scale = 1.0 / np.sqrt(self.ops.weights)
        return (lambda v: scale * self._synthesize(self._analyze(v * scale) / d),
                float(np.max(np.abs(d)) / np.min(np.abs(d))))

    def pole_directions(self, nodes: np.ndarray, e: np.ndarray) -> PoleDirections:
        """The secular equation's pole directions on arc nodes of weights e."""
        return PoleDirections(self, nodes, e)

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """X^+ = Q diag(1/Lambda) Q^T, 0 on the constant mode (Lambda_0), as
        one read-only N x N array from one product."""
        x = kernels.product(self.vectors * _inverse(self.values), self.vectors.T)
        x.setflags(write=False)
        return x

    def pseudo_inverse_block(self, nodes: np.ndarray) -> np.ndarray:
        """X^+ on the given rows and columns, in a new array."""
        return self.pseudo_inverse[np.ix_(nodes, nodes)]

    def apply_pseudo_inverse(self, g: np.ndarray) -> np.ndarray:
        """X^+ g for a vector g or each column of a matrix g."""
        return kernels.product(self.pseudo_inverse, g)


class CirculantDecomposition(SteklovDecomposition):
    """The decomposition of a rotation set (``ops.rotation``: the circle),
    with Q kept as its modes.

    Mode k = 0..N/2 gives the column cos(2 pi jk/N), and k = 1..N/2-1 also
    sin(2 pi jk/N), each normalized, with the value of the symbol
    ``ops.scaled_dtn_symbol`` at k; the columns are sorted by value, the cos
    column of a mode first.  No N x N array is formed: Q, Q^T, the source
    solve and X^+ act by real FFTs.  Q's entries at given columns
    (:meth:`pairs`) are read from a table of the scaled cos and sin of
    2 pi m/N at m = jk mod N, whose entries above m = N/2 mirror those
    below, so every column is exactly even or odd under j -> N - j;
    ``vectors`` gathers the whole of Q from it, once, when first read.  The
    pole directions of an arc come in closed form from one FFT of the arc
    weights (:class:`ModeDirections`), so a tuning run gathers no rows of Q.
    """

    def __init__(self, ops: OperatorSet):
        N, n = ops.n_nodes, ops.n_nodes // 2
        modes = np.concatenate((np.arange(n + 1), np.arange(1, n)))
        values = ops.scaled_dtn_symbol[modes]
        # column q is entry order[q] of the modes: cos 0..N/2, then sin 1..N/2-1
        self._order = order = np.argsort(values, kind="stable")
        self._rank = np.argsort(order)
        self.ops, self.values = ops, values[order]
        self.values.setflags(write=False)
        # sqrt 2 on the modes 0 < k < N/2, whose cos and sin share an FFT bin
        self._bin_scale = np.full(n + 1, np.sqrt(2.0))
        self._bin_scale[[0, n]] = 1.0
        angles = (TWO_PI / N) * np.arange(n + 1)
        cos, sin = np.cos(angles), np.sin(angles)
        sin[n] = 0.0
        table = np.concatenate((cos, cos[n - 1:0:-1], sin, -sin[n - 1:0:-1]))
        # the table times the column scale sqrt(2/N), then times 1/sqrt(N),
        # the scale of the modes 0 and N/2: each half holds the N cos entries
        # and then the N sin entries
        self._table = np.concatenate([table * (s / np.sqrt(N)) for s in (np.sqrt(2.0), 1.0)])
        modes = modes[order]
        offset = np.where(order > n, N, 0) + np.where(self._bin_scale[modes] == 1.0, 2 * N, 0)
        # jk < N^2/2 fits the smallest unsigned type that holds N^2/2, whose
        # in-place remainder is the cheapest
        self._index_type = np.min_scalar_type(N * n)
        self._modes = modes.astype(self._index_type)
        self._offset = offset.astype(self._index_type)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Q as a read-only N x N array, gathered in row blocks."""
        N = self.ops.n_nodes
        q = np.empty((N, N))
        for rows in kernels.row_blocks(N, N):
            q[rows] = self._gather(np.arange(rows.start, rows.stop))
        q.setflags(write=False)
        return q

    def _gather(self, nodes: np.ndarray, columns=slice(None)) -> np.ndarray:
        """Q[nodes][:, columns] from the cos/sin table."""
        index = np.multiply.outer(np.asarray(nodes, self._index_type), self._modes[columns])
        np.remainder(index, self.ops.n_nodes, out=index)
        index += self._offset[columns]
        return self._table[index]

    def _columns(self, columns: np.ndarray) -> np.ndarray:
        return self._gather(np.arange(self.ops.n_nodes), columns)

    def _synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Q c, one ``irfft`` per column c: a cos coefficient is the real part
        of its mode's bin and a sin coefficient minus the imaginary part."""
        n = self.ops.n_nodes // 2
        c = coefficients[self._rank]
        bins = np.zeros((n + 1,) + c.shape[1:], dtype=complex)
        bins.real = c[:n + 1]
        bins.imag[1:n] = -c[n + 1:]
        bins /= self._bin_scale.reshape((-1,) + (1,) * (c.ndim - 1))
        return np.fft.irfft(bins, self.ops.n_nodes, axis=0, norm="ortho")

    def _analyze(self, v: np.ndarray) -> np.ndarray:
        """Q^T v by one ``rfft``."""
        bins = np.fft.rfft(v, norm="ortho") * self._bin_scale
        return np.concatenate((bins.real, -bins.imag[1:-1]))[self._order]

    def pole_directions(self, nodes: np.ndarray, e: np.ndarray) -> PoleDirections:
        """In closed form (:class:`ModeDirections`)."""
        return ModeDirections(self, nodes, e)

    def pseudo_inverse_block(self, nodes: np.ndarray) -> np.ndarray:
        """A section of the circulant X^+: one ``irfft`` of its symbol,
        gathered at the node gaps (i - j) mod N, as ``ArcSpectrum._every``."""
        N = self.ops.n_nodes
        return np.fft.irfft(_inverse(self.ops.scaled_dtn_symbol), N)[(nodes[:, None] - nodes) % N]

    def apply_pseudo_inverse(self, g: np.ndarray) -> np.ndarray:
        """X^+ g by FFT, with the symbol of X^+."""
        return self.ops.fft_apply(_inverse(self.ops.scaled_dtn_symbol), g)


def _inverse(values: np.ndarray) -> np.ndarray:
    """1/values, and 0 for the constant mode, values[0]."""
    return np.concatenate(([0.0], 1.0 / values[1:]))


def _scaled_dtn(ops: OperatorSet) -> np.ndarray:
    """W^-1/2 H W^-1/2 in a new Fortran-ordered array."""
    scale = 1.0 / np.sqrt(ops.weights)
    # H is stored exactly symmetric, so its transpose, a Fortran-ordered view,
    # gives the Fortran-ordered copy eigh works in without a transposing copy
    a = np.multiply(ops.weighted_dtn.T, scale[:, None], order="F")
    a *= scale
    return a


def _mirror_eigh(even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending values and Fortran-ordered vectors M blockdiag(Z_e, Z_o)
    from one ``eigh`` (driver evd) per block of
    :meth:`~steklov.discretization.OperatorSet.scaled_dtn_halves`, M its
    orthonormal basis; overwrites both blocks."""
    (ve, ze), (vo, zo) = (sla.eigh(b, driver="evd", overwrite_a=True, check_finite=False)
                          for b in (even, odd))
    n = len(ve) - 1
    values = np.concatenate((ve, vo))
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    ce, co = column[:n + 1], column[n + 1:]
    r = np.sqrt(0.5)
    q = np.empty((2 * n, 2 * n), order="F")
    ze[1:n] *= r
    q[:n + 1, ce] = ze
    q[n + 1:, ce] = ze[n - 1:0:-1]           # node N - j takes row j
    zo *= r
    q[0, co] = q[n, co] = 0.0
    q[1:n, co] = zo[::-1]
    q[n + 1:, co] = np.negative(zo, out=zo)
    return values[order], q


def decompose(ops: OperatorSet) -> SteklovDecomposition:
    """The all-Steklov decomposition that ``ops`` keeps: built on first use
    by :func:`_decompose`, then shared by every caller and every mask."""
    return ops.decomposition


def _decompose(ops: OperatorSet) -> SteklovDecomposition:
    """Decompose the all-Steklov problem of ``ops``.

    On a rotation set (``ops.rotation``: the circle) X = W^-1/2 H W^-1/2 is
    circulant and even: its cos and sin modes and its real symbol
    (``ops.scaled_dtn_symbol``) decompose it (:class:`CirculantDecomposition`).
    On any other mirror set (``ops.mirror``: every catalog curve) X splits
    in the even and odd subspaces of the node reversal j -> N - j: one
    ``eigh`` (driver evd) of each half-size block (``ops.scaled_dtn_halves``,
    from the half-size factors of the trace map), at a quarter of the flops
    of the whole, gives vectors exactly even or odd, and neither H nor an
    N x N factorization is formed (Allgower, Boehmer, Georg and Miranda,
    SIAM J. Numer. Anal. 29, 1992).  Otherwise one ``eigh`` of X does.
    """
    if ops.rotation:
        return CirculantDecomposition(ops)
    try:
        if ops.mirror:
            values, vectors = _mirror_eigh(*ops.scaled_dtn_halves())
        else:
            values, vectors = sla.eigh(_scaled_dtn(ops), driver="evd", overwrite_a=True,
                                       check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"self-adjoint eigensolve failed: {exc}") from exc
    return SteklovDecomposition(ops, values, vectors)


def ldl_inertia(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """LDL^T factors ``(ldu, ipiv)`` of the symmetric ``g`` (for dsytrs) and
    its number of negative eigenvalues.

    Sylvester's law of inertia on the Bunch-Kaufman factorization
    g = L D L^T (LAPACK dsytrf on the lower triangle; Bunch and Kaufman,
    Math. Comp. 31, 1977): D has the inertia of g.  A 1 x 1 block of D counts
    by its sign; a 2 x 2 block holds one negative eigenvalue when its
    determinant is negative, two when it is positive with a negative
    diagonal.  The workspace is queried, since the default one runs the
    unblocked factorization.
    """
    lwork = int(lapack.dsytrf_lwork(len(g), lower=1)[0])
    ldu, ipiv, info = lapack.dsytrf(g, lower=1, lwork=lwork)
    if info < 0:
        raise EigenSolveError(f"dsytrf rejected argument {-info}")
    d = np.diagonal(ldu)
    # a 2 x 2 block at (i, i + 1) marks both rows negative in ipiv
    two = np.flatnonzero(ipiv < 0)[::2]
    a, c, e = d[two], d[two + 1], ldu[two + 1, two]
    det = a * c - e * e
    return ldu, ipiv, int(np.count_nonzero(d[ipiv > 0] < 0.0) + np.count_nonzero(det < 0.0)
                          + 2 * np.count_nonzero((det > 0.0) & (a < 0.0)))


def _branch_pair(g: np.ndarray, branch: int) -> tuple[float, np.ndarray]:
    """Eigenvalue ``branch`` (ascending) of ``g`` and its unit eigenvector,
    from an ``eigh`` that computes that pair only; overwrites g."""
    mu, z = sla.eigh(g, subset_by_index=(branch, branch), overwrite_a=True,
                     check_finite=False)
    return float(mu[0]), z[:, 0]


class PoleDirections:
    """The pole directions of the secular equation on the arc ``nodes``, whose
    weights are e = 1 - steklov_fraction, formed from the decomposition's rows.

    B = E^1/2 Q_m has one column per column of Q.  Within a pole group (equal
    Steklov eigenvalues) the eigenvectors of the group's Gram B_g^T B_g turn
    its columns into directions that each carry their own arc weight (Bunch,
    Nielsen and Sorensen).  A direction whose arc norm is at most
    ``_DEFLATION_TOL`` is deflated, and so is the constant mode, an
    eigenpair of every mask.  ``values`` holds the directions' pole values
    in secular order: the ``active`` ones ascending, then the deflated ones
    ascending.
    """

    def __init__(self, spectrum: SteklovDecomposition, nodes: np.ndarray, e: np.ndarray):
        b = np.sqrt(e)[:, None] * spectrum.rows(nodes)
        # one pole direction per (group g, column q): sum_i rot[g, i, q] Q_rows[g, i],
        # kept at the position of the group's column q
        values = np.empty(len(spectrum.values))
        cols = np.empty((len(values), len(nodes)))
        rotations = []
        for p, rows in spectrum.groups.items():
            bj = b[:, rows].transpose(1, 0, 2)                      # (G, m, p)
            if p == 1:
                rot = np.ones((len(rows), 1, 1))
            else:  # orthogonal weight directions within each group
                rot = np.linalg.eigh(np.einsum("gmi,gmj->gij", bj, bj))[1]
            values[rows] = spectrum.values[rows].mean(axis=1)[:, None]
            cols[rows] = (bj @ rot).transpose(0, 2, 1)
            rotations.append((rows, rot))
        order = self._arrange(values, np.linalg.norm(cols, axis=1))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._cols = cols[order].T
        # per group size: the rows, rotations and secular positions of the
        # directions, to lift them to coefficients
        self._rotations = [(rows, rot, rank[rows]) for rows, rot in rotations]

    def _arrange(self, values: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Set ``values`` and ``active`` from the directions' pole values and
        arc norms, and return the secular order of the directions."""
        # the constant mode (Lambda ~ 0) is an eigenpair of every mask, and
        # lambda M(lambda) scales its pole by Lambda/(Lambda - lambda) ~ 0
        active = ((norms > _DEFLATION_TOL)
                  & (np.abs(values) > _ZERO_POLE_TOL * np.max(np.abs(values))))
        order = np.concatenate([np.flatnonzero(sel)[np.argsort(values[sel], kind="stable")]
                                for sel in (active, ~active)])
        self.values, self.active = values[order], int(np.count_nonzero(active))
        return order

    def columns(self, positions) -> np.ndarray:
        """The directions at the given secular positions, as m-vector columns."""
        return self._cols[:, positions]

    def project(self, z: np.ndarray, count: int | None = None) -> np.ndarray:
        """The components of the m-vector z along the first ``count``
        directions (all of them by default), in secular order."""
        return kernels.product(z, self._cols[:, :count])

    def lift(self, weights: np.ndarray) -> np.ndarray:
        """Decomposition coefficients of direction weights (columns in
        secular order): each group's directions turn back to its columns."""
        coefficients = np.empty_like(weights)
        for rows, rot, at in self._rotations:
            coefficients[rows] = np.einsum("giq,gqr->gir", rot, weights[at])
        return coefficients


class ModeDirections(PoleDirections):
    """:class:`PoleDirections` in closed form on a rotation set: each mode's
    cos/sin pair (and the singletons 0 and N/2) turns within itself, and
    every direction keeps its own column's symbol value.

    Over a pair of mode k the arc Gram is (1/N) [[S + a, b], [b, S - a]]
    with S = sum e and a - ib = Ê(2k), the DFT of e scattered on the N nodes
    at bin 2k mod N (beyond N/2 by conjugate symmetry): cos^2 and sin^2 are
    (1 +- cos 2t)/2, and 2 sin t cos t = sin 2t (Gray, Toeplitz and
    Circulant Matrices: A Review, 2006).  So the pair turns by
    phi = -arg(Ê(2k))/2 into the directions cos(t - phi) and sin(t - phi),
    t = 2 pi jk/N at node j, of weights (S + |Ê(2k)|)/N and
    (S - |Ê(2k)|)/N; the singletons weigh S/N.  One ``rfft`` of e gives
    all of them, and one ``rfft`` of E^1/2 z, turned by e^(i phi), the
    components of z along every direction; no m x N array is formed.
    """

    def __init__(self, spectrum: CirculantDecomposition, nodes: np.ndarray, e: np.ndarray):
        N, n = spectrum.ops.n_nodes, spectrum.ops.n_nodes // 2
        self._n_nodes = N
        self._nodes, self._root_e = nodes, np.sqrt(e)
        full = np.zeros(N)
        full[nodes] = e
        spec = np.fft.rfft(full)
        bins = 2 * np.arange(n + 1) % N
        hat = spec[np.minimum(bins, N - bins)]
        hat.imag[bins > n] *= -1.0
        self._phi = -0.5 * np.angle(hat)         # 0 at the modes 0 and N/2
        self._turn = np.exp(1j * self._phi)
        total, spread = float(np.sum(e)), np.abs(hat)
        spread[[0, n]] = 0.0
        # slot k: the larger weight of mode k; N/2 + 1 + k: the smaller one,
        # which the cos column of 0 < k < N/2 (sorted before its sin) takes,
        # as the first direction of an ascending eigh
        weight = np.concatenate((total + spread, total - spread)) / N
        slots = np.concatenate((np.arange(n + 1) + n + 1, np.arange(1, n)))
        slots[[0, n]] = 0, n
        slots = slots[spectrum._order]
        order = self._arrange(spectrum.values, np.sqrt(np.maximum(weight[slots], 0.0)))
        self._slots = slots[order]
        # the column scale sqrt(2/N), and 1/sqrt(N) for the modes 0 and N/2
        self._scale = spectrum._bin_scale / np.sqrt(N)
        self._order = spectrum._order

    def columns(self, positions) -> np.ndarray:
        slots = self._slots[positions]
        k = slots % len(self._phi)
        t = (TWO_PI / self._n_nodes) * (np.multiply.outer(self._nodes, k) % self._n_nodes)
        t -= self._phi[k]
        return np.where(slots >= len(self._phi), np.sin(t), np.cos(t)) * np.multiply.outer(
            self._root_e, self._scale[k])

    def project(self, z: np.ndarray, count: int | None = None) -> np.ndarray:
        full = np.zeros(self._n_nodes)
        full[self._nodes] = self._root_e * z
        turned = np.fft.rfft(full) * (self._turn * self._scale)
        # along cos(t - phi): Re(e^(i phi) Z); along sin(t - phi): -Im(e^(i phi) Z)
        return np.concatenate((turned.real, -turned.imag))[self._slots[:count]]

    def lift(self, weights: np.ndarray) -> np.ndarray:
        n = len(self._phi) - 1
        slotted = np.zeros((2 * (n + 1), weights.shape[1]))
        slotted[self._slots] = weights
        # w cos(t - phi) + v sin(t - phi) has cos part Re((w + iv) e^(i phi))
        # and sin part Im((w + iv) e^(i phi))
        turned = (slotted[:n + 1] + 1j * slotted[n + 1:]) * self._turn[:, None]
        return np.concatenate((turned.real, turned.imag[1:n]))[self._order]


class ArcSpectrum(_Owner):
    """Mixed spectrum of a mask from the secular equation on its arc nodes.

    Let e = 1 - steklov_fraction on the m nodes the Neumann part touches,
    F_m = diag(1 - e) and B = E^1/2 Q_m (Q_m: the decomposition's rows at
    those nodes).  lambda > 0 is a mixed eigenvalue exactly when

        G(lambda) = lambda M(lambda) = F_m + B diag(Lambda/(Lambda - lambda)) B^T

    is singular (M(lambda) = I/lambda + B diag(1/(Lambda - lambda)) B^T).
    G is nondecreasing between poles, and Haynsworth inertia additivity
    counts the mixed eigenvalues below lambda as #{Lambda_j < lambda} minus
    the negative eigenvalues of G(lambda), read from an LDL^T factorization.
    The count brackets and orders roots without solving them; safeguarded
    Newton polishes a root only when its pair is needed, by inverse
    iteration on the LDL^T factors of each step.  The root's trace is
    W^-1/2 Q diag(1/(Lambda - lambda)) B^T z, z the null vector of G.

    Equal Steklov eigenvalues are rotated so that each pole direction
    carries its own arc weight, and directions of negligible weight are
    deflated (Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978): they
    stay mixed eigenvalues with their Steklov trace, as the constant mode
    does.  Roots of the remaining *secular* problem are indexed from 0
    upwards; the deflated values form a second sorted list.  The
    decomposition gives the directions (``pole_directions``; on the disk in
    closed form, :class:`ModeDirections`).

    G is formed over every direction (:meth:`_every`), less the deflated
    directions' rank-one terms: off a rotation set as the m x N by N x m
    product of the formula, on the circle as an m x m section of the
    circulant with symbol Lambda/(Lambda - lambda), one ``irfft`` gathered
    at the node gaps (i - j) mod N (Gray, Toeplitz and Circulant Matrices:
    A Review, 2006).  That sum is also I + lambda U^T K U, the capacitance
    matrix of the source solve (:meth:`source_system`).

    The mixed eigenvalues are read by their index j in the whole spectrum
    (the constant mode is 0): :meth:`value` locates eigenvalue j among the
    secular roots and deflated values by counts, :meth:`pairs` gives the
    eigenpairs of given indices; a source solve's guard reads
    :meth:`count_below` and :meth:`value`.  Where a root cannot be
    certified (SecularBreakdown), :meth:`value` and :meth:`pairs` answer
    from the mask's own :class:`MaskSpectrum`, and so does
    :meth:`source_system` beside an all-Steklov eigenvalue.  A mask with no
    Neumann node has no secular equation and raises SecularBreakdown.
    """

    def __init__(self, spectrum: SteklovDecomposition, mask: PartitionMask):
        self.spectrum, self.mask = spectrum, mask
        frac = mask.steklov_fraction
        self._nodes = nodes = np.flatnonzero(frac < 1.0)
        self.m = len(nodes)
        if self.m == 0:
            raise SecularBreakdown("a mask without Neumann nodes has no secular equation")
        self.fm = frac[nodes]
        self._root_e = root_e = np.sqrt(1.0 - self.fm)
        self._directions = directions = spectrum.pole_directions(nodes, 1.0 - self.fm)
        # deflation drops a direction from G and the count, not from the
        # traces of the secular roots, which use every direction
        self._values = directions.values
        self.poles = self._values[:directions.active]
        self.deflated = self._values[directions.active:]
        self._deflated_cols = directions.columns(slice(directions.active, None))
        # on a rotation set the sum over every direction is a Toeplitz
        # section of a circulant (:meth:`_every`)
        self._symbol = None
        if spectrum.ops.rotation:
            self._symbol = spectrum.ops.scaled_dtn_symbol
            self._gaps = (nodes[:, None] - nodes) % spectrum.ops.n_nodes
            self._scale = np.outer(root_e, root_e)
        self._probes: dict[float, int] = {}
        self._roots: dict[int, tuple[float, np.ndarray]] = {}

    # -- the secular equation --------------------------------------------------

    def _every(self, lam: float) -> np.ndarray:
        """F_m + B diag(Lambda/(Lambda - lam)) B^T over every direction,
        deflated or not: from the symbol on a rotation set, otherwise the
        directions' product (see the class docstring)."""
        if self._symbol is None:
            cols = self._directions.columns(slice(None))
            g = kernels.product(cols * (self._values / (self._values - lam)), cols.T)
        else:
            s = self._symbol / (self._symbol - lam)
            g = np.fft.irfft(s, self.spectrum.ops.n_nodes)[self._gaps]
            g *= self._scale
        g[np.diag_indices(self.m)] += self.fm
        return g

    def _matrix(self, lam: float) -> tuple[float, np.ndarray]:
        """(lam, G(lam)), with lam moved one ulp up when it sits on a pole,
        deflated or not: :meth:`_every` less the deflated directions'
        rank-one terms."""
        if np.any(self._values == lam):
            lam = float(np.nextafter(lam, np.inf))
        g = self._every(lam)
        off = self._deflated_cols
        g -= np.einsum("id,jd->ij", off * (self.deflated / (self.deflated - lam)), off)
        return lam, g

    def _record(self, lam: float, negative: int) -> int:
        """Secular roots below lam, given the negative eigenvalues of G(lam);
        kept to narrow brackets unless lam lies beside a pole."""
        count = int(np.searchsorted(self.poles, lam)) - negative
        if not self._beside_pole(lam):
            self._probes[lam] = count
        return count

    def _beside_pole(self, x: float) -> bool:
        """Whether x lies within ``_POLE_ULPS`` ulps of a pole."""
        i = int(np.searchsorted(self.poles, x))
        near = self.poles[max(i - 1, 0):i + 1]
        return bool(np.any(np.abs(near - x) <= _POLE_ULPS * np.spacing(near)))

    def _factor(self, lam: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int]:
        """(lam, G(lam), its LDL^T factors ldu, ipiv and the recorded count of
        secular roots below lam), lam moved off a pole as in :meth:`_matrix`."""
        lam, g = self._matrix(lam)
        ldu, ipiv, negative = ldl_inertia(g)
        return lam, g, ldu, ipiv, self._record(lam, negative)

    def _count(self, lam: float) -> int:
        """Secular roots below lam, from the inertia of G(lam) alone, unless
        the counts kept on both sides of lam already agree.  A solved root k
        at x counts k + 1 roots below any lam beyond Newton's stopping
        tolerance above x, and k below any lam as far below x."""
        lower = [c for x, c in self._probes.items() if x <= lam]
        upper = [c for x, c in self._probes.items() if x >= lam]
        for k, (x, _) in self._roots.items():
            tol = _NEWTON_TOL * max(abs(x), 1.0)
            if lam > x + tol:
                lower.append(k + 1)
            elif lam < x - tol:
                upper.append(k)
        if lower and upper and max(lower) == min(upper):
            return max(lower)
        return self._factor(float(lam))[-1]

    def count_below(self, lam: float) -> int:
        """Number of mixed eigenvalues strictly below lam; 0 for lam <= 0."""
        return 0 if lam <= 0.0 else self._count(lam) + int(np.searchsorted(self.deflated, lam))

    def _span(self, k: int) -> tuple[float, float]:
        """Interval known to hold secular root k without solving it, from
        interlacing, the counts so far and the solved roots."""
        if k in self._roots:
            return self._roots[k][0], self._roots[k][0]
        poles, m = self.poles, self.m
        if not 0 <= k < len(poles) - m:
            raise SecularBreakdown(f"secular root {k} has no interlacing bracket")
        # interlacing: root k lies in [poles[k], poles[k + m]]
        lo, hi = poles[k], poles[k + m]
        for x, c in self._probes.items():
            if c <= k:
                lo = max(lo, x)
            else:
                hi = min(hi, x)
        for j, (x, _) in self._roots.items():
            if j < k:
                lo = max(lo, x)
            else:
                hi = min(hi, x)
        return lo, hi

    def _root(self, k: int, near: float | None = None) -> tuple[float, np.ndarray]:
        """Secular root k (ascending from 0) and its null vector z.

        The bracket is split halfway between poles, at the gap midpoint
        nearest its middle.  From a predicted value ``near`` it gallops
        first: the first split is the midpoint nearest ``near``, and while
        the root lies beyond each split the next one skips 0, 1, 3, 7, ...
        gaps further out.

        Newton then starts from the middle of the pole-free bracket, on the
        eigenvalue phi of G crossing zero there (the branch).  Each step
        factors G(x) once, recording the count at x, and G w = z with the last
        null vector z gives the next, w/|w|, with phi = z.w / w.w.  A count of
        k or k + 1 (x below or above the root) makes the branch the
        eigenvalue of G nearest 0 on that side, so a phi of that sign is
        kept; otherwise, and first, an ``eigh`` gives the branch pair.  A step
        leaving the bracket bisects it.
        """
        if k in self._roots:
            return self._roots[k]
        poles, m = self.poles, self.m
        lo, hi = self._span(k)
        skip, up = 0, None      # while galloping: gaps to skip, side of the root
        for _ in range(_MAX_EVALUATIONS):
            inside = poles[np.searchsorted(poles, lo, "right"):np.searchsorted(poles, hi)]
            if inside.size == 0:
                break
            # split halfway between poles, never next to one
            edges = np.unique(np.concatenate(([lo], inside, [hi])))
            mids = 0.5 * (edges[:-1] + edges[1:])
            if near is None:
                i = int(np.argmin(np.abs(mids - 0.5 * (lo + hi))))
            elif up is None:
                i = int(np.argmin(np.abs(mids - near)))
            else:
                i = min(skip, len(mids) - 1) if up else max(len(mids) - 1 - skip, 0)
            x = float(mids[i])
            above = self._count(x) <= k
            if above:
                lo = x
            else:
                hi = x
            if near is not None:
                if up is not None and above != up:  # back past the last split: bisect
                    near = None
                else:
                    skip, up = (0 if up is None else 2 * skip + 1), above
        else:
            raise SecularBreakdown(f"could not isolate secular root {k}")
        # between poles the (P - k)-th smallest eigenvalue of G crosses zero
        # upwards exactly at root k; P counts the poles below the bracket
        branch = int(np.searchsorted(poles, lo, "right")) - k - 1
        if not 0 <= branch < m:
            raise SecularBreakdown(f"secular root {k}: count and poles disagree")
        x, vec = 0.5 * (lo + hi), None
        for _ in range(_MAX_EVALUATIONS):
            x, g, ldu, ipiv, count = self._factor(x)
            fresh = vec is None or count not in (k, k + 1)
            if not fresh:
                w = lapack.dsytrs(ldu, ipiv, vec, lower=1)[0]
                ww, wv = kernels.product(w, np.column_stack((w, vec)))
                phi, vec = wv / ww, w / np.sqrt(ww)
                fresh = not (phi < 0.0 if count == k else phi >= 0.0)
            if fresh:
                phi, vec = _branch_pair(g, branch)
            lo, hi = (x, hi) if phi < 0.0 else (lo, x)
            y = self._directions.project(vec, len(poles))
            slope = float(np.sum(poles * (y / (poles - x)) ** 2))
            step = phi / slope if slope > 0.0 else np.inf
            tol = _NEWTON_TOL * max(abs(x), 1.0)
            if abs(step) <= tol or hi - lo <= tol:
                break
            x = x - step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        else:
            raise SecularBreakdown(f"Newton did not converge on secular root {k}")
        self._roots[k] = (x, vec)
        return self._roots[k]

    # -- eigenvalues by index -----------------------------------------------------

    def _below(self, k: int, x: float) -> bool:
        """Whether secular root k lies below x; solved when its span holds x."""
        lo, hi = self._span(k)
        if hi < x:
            return True
        if lo >= x:
            return False
        return self._root(k)[0] < x

    def _locate(self, j: int) -> tuple[str, int]:
        """Mixed eigenvalue j as secular root ("s", k) or deflated value ("d", i).

        Deflated value i precedes eigenvalue j exactly when secular root
        j - i - 1 does not lie below it, so the number of deflated values
        before j is found by bisection.
        """
        d = self.deflated
        lo, hi = 0, min(j, len(d))
        while lo < hi:
            i = (lo + hi) // 2
            if self._below(j - i - 1, d[i]):
                hi = i
            else:
                lo = i + 1
        if lo < len(d) and not self._below(j - lo, d[lo]):
            return "d", lo
        return "s", j - lo

    def value(self, j: int, near: float | None = None) -> float:
        """Mixed eigenvalue j (ascending from 0, the constant mode first)."""
        try:
            kind, i = self._locate(j)
            return self._root(i, near)[0] if kind == "s" else float(self.deflated[i])
        except SecularBreakdown:
            return self.mask._spectrum.value(j)

    def pairs(self, indices) -> list[EigenPair]:
        """Eigenpairs of the given mixed eigenvalues, one cluster, Steklov-orthonormal.

        A Rayleigh-Ritz pass of (H, diag(b)) on the secular traces gives the
        returned values and traces; its values must match the roots.  The
        traces are U = W^-1/2 Q C for decomposition coefficients C, so
        U^T H U = C^T diag(Lambda) C comes with no N x N product.
        """
        try:
            return self._secular_pairs(indices)
        except SecularBreakdown:
            return self.mask._spectrum.pairs(indices)

    def _secular_pairs(self, indices) -> list[EigenPair]:
        roots = [self._locate(j) for j in indices]
        weights = np.zeros((len(self._values), len(roots)))
        for j, (kind, i) in enumerate(roots):
            if kind == "s":
                lam, z = self._root(i)
                with np.errstate(divide="ignore", invalid="ignore"):
                    weights[:, j] = self._directions.project(z) / (self._values - lam)
            else:
                weights[len(self.poles) + i, j] = 1.0
        if not np.all(np.isfinite(weights)):
            raise SecularBreakdown("a secular root sits on a deflated pole")
        coefficients = self._directions.lift(weights)
        traces = self.spectrum.traces(coefficients)
        ops, b = self.spectrum.ops, self.mask.steklov_weights
        try:
            values, traces = _rayleigh_ritz(
                kernels.product(coefficients.T * self.spectrum.values, coefficients),
                b, traces)
        except np.linalg.LinAlgError as exc:
            raise SecularBreakdown(f"Rayleigh-Ritz pass failed: {exc}") from exc
        roots_v = np.array([self.value(j) for j in indices])
        if np.any(np.abs(values - roots_v) > _RITZ_AGREEMENT * (1.0 + np.abs(roots_v))):
            raise SecularBreakdown("secular roots and Rayleigh-Ritz values disagree")
        return _signed_pairs(ops, values, traces)

    def source_system(self, lam: float):
        """``(solve, condition)`` of the mask's source system H - lam diag(b).

        It is the all-Steklov system H - lam W, which the decomposition's
        ``source_system`` solves (K, its inverse), plus lam U U^T with
        U = W^1/2 E^1/2 on the m arc nodes.  So Woodbury (Hager, SIAM Rev.
        31, 1989) solves it as K v - lam K U C^-1 U^T K v, with one LDL^T of
        C = I + lam U^T K U.  U^T K U = B diag(1/(Lambda - lam)) B^T and
        B B^T = E, so C is :meth:`_every` at lam.  ``condition``:
        max|Lambda - lam| times the 2-norm of the inverse
        (:func:`~steklov.discretization.inverse_norm`).

        Within ``RESONANCE_GUARD`` of an all-Steklov eigenvalue, where the
        correction cancels the pole of K, the mask's own system answers."""
        band = RESONANCE_GUARD * (1.0 + abs(lam))
        if self.spectrum.count_below(lam + band) > self.spectrum.count_below(lam - band):
            return self.mask.source_system(lam)
        ops, nodes = self.spectrum.ops, self._nodes
        solve = self.spectrum.source_system(lam)[0]
        u = np.sqrt(ops.weights[nodes]) * self._root_e
        ldu, ipiv, _ = ldl_inertia(self._every(lam))

        def arc_solve(v):
            x = solve(v)
            t = np.zeros(len(v))
            t[nodes] = lam * u * lapack.dsytrs(ldu, ipiv, u * x[nodes], lower=1)[0]
            return x - solve(t)

        norm = np.max(np.abs(self.spectrum.values - lam))
        return arc_solve, float(norm * inverse_norm(arc_solve, ops.weights))


class MaskSpectrum(_Owner):
    """Mixed spectrum of any mask from the Steklov side of the decomposition.

    With X^+ the decomposition's pseudo-inverse (0 on the constant mode),
    n0 = W^1/2 1 / |W^1/2 1| its null vector, F = diag(sqrt(fraction)) on
    the N_s nodes of positive Steklov fraction, p = F n0/|F n0| and
    P = I - p p^T, the mixed problem reads X v = lam F F^T v (v = W^1/2 u).
    Its Steklov side s = F^T v is orthogonal to p, v = lam X^+ F s + c n0,
    and s is an eigenvector of P M P, M = F X^+ F, of eigenvalue mu = 1/lam,
    with c = -lam p^T M s / |F n0|.  Pair 0 is the constant mode; p is no
    eigenvalue.  F^T v = s, so the traces are Steklov-orthonormal, and no
    step divides by a Steklov fraction.  A run of the lowest pairs, asked
    for before anything else, is the top of mu, from an ``eigh`` windowed by
    index; any other request, the counts and values and the source solve
    read one full ``eigh``, made on first use.
    """

    def __init__(self, spectrum: SteklovDecomposition, mask: PartitionMask):
        values = spectrum.values
        if not (values[1] > 0.0 and abs(values[0]) <= _ZERO_POLE_TOL * values[-1]):
            raise EigenSolveError("the all-Steklov problem is not positive semidefinite")
        # no reference to the mask, which caches this owner
        self.spectrum, weights = spectrum, spectrum.ops.weights
        self._nodes = nodes = np.flatnonzero(mask.steklov_fraction > 0.0)
        self._f = f = np.sqrt(mask.steklov_fraction[nodes])
        self._n0 = n0 = np.sqrt(weights / np.sum(weights))
        self._fn0 = float(np.sqrt(np.sum(mask.steklov_weights) / np.sum(weights)))
        self._p = p = f * n0[nodes] / self._fn0
        m = spectrum.pseudo_inverse_block(nodes)
        m *= np.outer(f, f)
        self._mp = mp = kernels.product(m, p)
        # P M P = M - p q^T - q p^T with q = M p - (p^T M p / 2) p
        q = mp - 0.5 * np.sum(p * mp) * p
        m -= np.outer(p, q)
        m -= np.outer(q, p)
        self._pmp = m

    def _eigh(self, **window) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of P M P, mu descending, the vectors made orthogonal to
        p: beside p's 0 a small mu (lam ~ 1/fraction) keeps a p-component of
        about eps/mu, which lam would amplify in its trace."""
        try:
            mu, z = sla.eigh(self._pmp, check_finite=False, **window)
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(f"self-adjoint eigensolve failed: {exc}") from exc
        z -= np.outer(self._p, kernels.product(self._p, z))
        return mu[::-1], np.asfortranarray(z[:, ::-1])

    @cached_property
    def _full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every eigenvalue ascending, and the pairs of P M P less p's."""
        mu, z = self._eigh(driver="evd")
        return np.concatenate(([0.0], 1.0 / mu[:-1])), mu[:-1], z[:, :-1]

    def pairs(self, indices) -> list[EigenPair]:
        """Eigenpairs of the given ascending indices, clustered."""
        n, indices = len(self._nodes), np.asarray(indices)
        count = len(indices)
        if count < n and "_full" not in vars(self) and np.array_equal(indices, np.arange(count)):
            # the constant mode and the top count - 1 of mu
            chosen = slice(count - 1)
            mu, z = self._eigh(subset_by_index=(min(n - count + 1, n - 1), n - 1))
        else:
            _, mu, z = self._full
            chosen = indices[indices > 0] - 1
        mu, z = mu[chosen], z[:, chosen]
        ops, lam = self.spectrum.ops, 1.0 / mu
        fz = np.zeros((ops.n_nodes, len(mu)))
        fz[self._nodes] = self._f[:, None] * z
        c = -lam * kernels.product(self._mp, z) / self._fn0
        traces = self.spectrum.apply_pseudo_inverse(fz) * lam + np.outer(self._n0, c)
        traces /= np.sqrt(ops.weights)[:, None]
        if indices[0] == 0:
            lam = np.concatenate(([0.0], lam))
            level = 1.0 / (self._fn0 * np.sqrt(np.sum(ops.weights)))
            traces = np.column_stack((np.full(ops.n_nodes, level), traces))
        return _signed_pairs(ops, lam, traces)

    def count_below(self, x: float) -> int:
        """Number of the mask's eigenvalues strictly below x; 0 for x <= 0."""
        return int(np.searchsorted(self._full[0], x)) if x > 0.0 else 0

    def value(self, j: int, near: float | None = None) -> float:
        """The mask's eigenvalue j (ascending from 0, the constant mode first)."""
        values = self._full[0]
        if not 0 <= j < len(values):
            raise EigenSolveError(f"the mask has no eigenvalue of index {j}")
        return float(values[j])

    def source_system(self, lam: float):
        """``(solve, condition)`` of H - lam diag(b): with g = W^-1/2 r it is
        (X - lam F F^T) v = g.  s = F^T v has the p-component alpha =
        -n0^T g / (lam |F n0|); P s solves (I - lam P M P) P s =
        P (F^T X^+ g + lam alpha M p) in the eigenbasis; c = (alpha -
        p^T F^T X^+ g - lam p^T M s) / |F n0|; v = X^+ (g + lam F s) + c n0.
        ``condition``: max(Lambda_max, lam), which bounds |X - lam F F^T|
        (both terms are positive semidefinite), times :func:`inverse_norm`."""
        _, mu, z = self._full
        spectrum, nodes, f, p, mp = self.spectrum, self._nodes, self._f, self._p, self._mp
        root, shift = np.sqrt(spectrum.ops.weights), 1.0 / (1.0 - lam * mu)

        def solve(r):
            g = r / root
            fxg = f * spectrum.apply_pseudo_inverse(g)[nodes]
            alpha = -np.sum(self._n0 * g) / (lam * self._fn0)
            s = kernels.product(z, shift * kernels.product(fxg + lam * alpha * mp, z))
            s += alpha * p
            c = (alpha - np.sum(p * fxg) - lam * np.sum(mp * s)) / self._fn0
            g[nodes] += lam * f * s
            return (spectrum.apply_pseudo_inverse(g) + c * self._n0) / root

        norm = max(spectrum.values[-1], lam)
        return solve, float(norm * inverse_norm(solve, spectrum.ops.weights))


# ---------------------------------------------------------------------------
# eigenfunction reconstruction
# ---------------------------------------------------------------------------

# rows of a refined evaluation whose nearest node lies within this many node
# weights get the upsampled layer; farther out the N-node rule equals the
# refined one to rounding (see evaluate_layer_potential)
_UPSAMPLE_REACH = 10.0


def interiority(ops: OperatorSet, x):
    """Discrete Gauss integral at x: ~1 inside the curve, ~0 outside.

    ``x`` is one point (a float comes back) or an array of shape (..., 2).
    """
    x = np.asarray(x, dtype=float)
    _, sep, _, vals = kernels.node_pass(x.reshape(-1, 2), ops.points,
                                        normals=ops.normals, weights=ops.weights)
    kernels.check_separation(sep)
    return float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1])


def evaluate_layer_potential(ops: OperatorSet, density: np.ndarray, x,
                             refine: int = 1):
    """Completed single-layer potential S[rho] + w.rho of ``density`` at interior x.

    ``x`` is one point (a float comes back) or an array of shape (..., 2).
    One pass of the points against the N layer nodes
    (:func:`kernels.node_pass`) gives each point's nearest node and distance,
    its Gauss integral and the N-node layer sum.  Raises SingularityError for
    a point on a node and GeometryError for a point outside the curve.

    With ``refine`` > 1 the layer of a point whose nearest node lies within
    ``_UPSAMPLE_REACH`` = 10 node weights is integrated again on a
    trigonometrically upsampled copy of the boundary with refine*N nodes,
    which keeps the quadrature usable down to a fraction of the node spacing.
    Farther out the N-node trapezoid rule already equals the refined one to
    rounding: its error decays like exp(-pi d / w) at distance d and node
    weight w (the aliasing of the Nyquist mode), and against refine=4 the
    two differ by 5e-9, 5e-12 and 7e-14 of max|value| at 4, 6 and 8 weights
    for a density carrying the Nyquist mode (circle and kite, N = 64-512),
    and by at most 6.7e-14, the rounding floor, at 10.

    Warns (AccuracyWarning) when a point comes closer to its nearest layer
    node than that node's weight, where the plain quadrature loses accuracy:
    the coarse node at ``refine`` = 1, the upsampled one otherwise.
    """
    x = np.asarray(x, dtype=float)
    vals, _, _ = layer_pass(ops, density, x.reshape(-1, 2), refine)
    return float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1])


def layer_pass(ops: OperatorSet, density: np.ndarray, pts: np.ndarray,
               refine: int = 1, on_node: float = 0.0):
    """:func:`evaluate_layer_potential` at the points ``pts`` (P, 2), with the
    nearest layer node of each point and the distance to it:
    ``(values, nearest, sep)``.

    A point closer than ``on_node`` to its nearest node is left out of the
    checks, the upsampling and the warning; its value is not defined.
    """
    nearest, sep, vals, gauss = kernels.node_pass(
        pts, ops.points, ops.weights * density, ops.normals, ops.weights)
    off = sep >= on_node
    kernels.check_separation(sep[off])
    if np.any(gauss[off] < 0.5):
        raise GeometryError(f"evaluation point lies outside '{ops.curve.name}'")
    if refine <= 1:
        close = off & (sep < ops.weights[nearest])
    else:
        near = np.flatnonzero(off & (sep < _UPSAMPLE_REACH * ops.weights[nearest]))
        close = False
        if len(near):
            n_fine = refine * ops.n_nodes
            params = TWO_PI * np.arange(n_fine) / n_fine
            w = (TWO_PI / n_fine) * ops.curve.speed(params)
            coef = np.fft.rfft(density)
            # the Nyquist coefficient stands for +-N/2 at once; halved, the
            # fine density passes through the coarse one
            coef[-1] *= 0.5
            rho = np.fft.irfft(coef, n_fine) * refine
            fine, fine_sep, layer, _ = kernels.node_pass(
                pts[near], ops.curve.eval(params), w * rho)
            kernels.check_separation(fine_sep)
            vals[near] = layer
            close = fine_sep < w[fine]
    if np.any(close):
        warnings.warn("evaluation point within one node spacing of the boundary; "
                      "layer potential accuracy degrades there", AccuracyWarning,
                      stacklevel=3)
    vals += ops.weights @ density
    return vals, nearest, sep

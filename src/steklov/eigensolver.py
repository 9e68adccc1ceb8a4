"""Eigensolver for the discretized mixed spectral problem.

With u = T phi the completed boundary trace of a single-layer density phi,
the mixed problem reads H u = lambda diag(b) u: H is the weighted
Dirichlet-to-Neumann matrix ``OperatorSet.weighted_dtn`` (symmetric) and b
the Steklov weights, zero on Neumann nodes.  One self-adjoint solve of this
form returns real eigenvalues, no spurious modes and an
L2(Gamma_S)-orthonormal basis of every cluster.

* :func:`solve_spectrum_near` -- the eigenpairs nearest a target.  The
  optimizer falls back to it when the secular solve breaks down.
* :func:`solve_spectrum` -- the lowest eigenpairs: the spectrum is
  nonnegative, so these are the ones nearest 0.
* :func:`decompose` and :class:`ArcSpectrum` -- the tuning run's trial
  solve.  The all-Steklov problem is decomposed once, W^-1/2 H W^-1/2 =
  Q diag(Lambda) Q^T: from the FFT symbols on the circle, whose operators
  are circulant, and otherwise in the two half-size blocks of its mirror
  symmetry when the curve has one (every catalog curve does;
  ``discretization`` decides both).  The blocks come from the half-size
  factors of the trace map, so a run on such a curve forms neither H nor
  an N x N factorization, and a run on the circle factors nothing: its
  Rayleigh-Ritz passes work in decomposition coefficients.  A mask whose
  Neumann part touches m nodes differs from it by a rank-m change, so its
  eigenvalues are the roots of an m x m secular equation (Golub, SIAM Rev.
  15, 1973; Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978).
  The roots are counted exactly by the inertia of one Bunch-Kaufman LDL^T
  factorization of the m x m matrix (Haynsworth additivity,
  :func:`ldl_inertia`) and polished by Newton steps that solve with that
  factorization instead of an m x m eigensolve: an evaluation costs an
  O(m^2 N) product, or on the circle one inverse FFT of the symbol and an
  m x m gather (O(N log N + m^2)), instead of an N x N eigensolve.  It is the exact
  form of the first-order arc formula the optimizer steps with.  Both own
  a tuning run's source solves: their counts guard them, and their
  ``source_system`` solves them with no N x N factorization, diagonally on
  the all-Steklov boundary and by Woodbury on an arc.  Any other mask owns
  its source solves (``PartitionMask``).

All dense algebra with an N-sized operand runs on scipy's OpenBLAS: the
factorizations and eigensolves call scipy's LAPACK, and the products go
through :func:`kernels.product` instead of numpy's ``@``.  numpy and scipy
each bundle their own OpenBLAS with its own thread pool; after a threaded
call one pool's threads keep spinning, and the other pool's next threaded
call has to share the cores with them (an N=768 LU after a numpy ``eigh``
took 0.09-0.21 s instead of 0.013 s on two cores).  Kept on one library,
the trial loop never wakes the second pool.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import kernels
from .asymptotics import verify_orthonormal
from .discretization import OperatorSet, PartitionMask, schur_complement
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


def _signed_pairs(ops: OperatorSet, values: np.ndarray, traces: np.ndarray,
                  cluster_ids) -> list[EigenPair]:
    """Every solver's finish: sign the trace columns (largest entry positive)
    and recover their densities T^-1 u."""
    k = traces.shape[1]
    traces = traces * np.copysign(1.0, traces[np.argmax(np.abs(traces), axis=0), np.arange(k)])
    densities = ops.trace_solve(traces)
    return [EigenPair(float(lam), d, t, int(c)) for lam, d, t, c
            in zip(values, densities.T, traces.T, np.broadcast_to(cluster_ids, k))]


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
    """The ``count`` eigenpairs nearest sigma, from the self-adjoint form.

    ``scipy.linalg.eigh`` solves D^-1/2 S D^-1/2 (D = diag(b)), S the Schur
    complement of the Neumann nodes (b = 0) of H u = lambda diag(b) u
    (:func:`~steklov.discretization.schur_complement`), in a window around
    sigma.  The scaling loses eps/b_min at nodes of small Steklov fraction
    (1e-6 at 1e-8), which a Rayleigh-Ritz pass of (H, diag(b)) on the traces
    restores.  Traces come back L2(Gamma_S)-orthonormal; densities are
    T^-1 u.  A failed factorization or eigensolve raises EigenSolveError.
    """
    h = ops.weighted_dtn
    b = mask.steklov_weights
    # Weyl: about |Gamma_S|/pi eigenvalues per unit of lambda, so ~2*count in
    # the window; none lie below 0, so near 0 it reaches up to 2*half instead
    half = count * np.pi / float(np.sum(b))
    top = half + max(sigma, half)
    try:
        on, _, coupling, scaled = schur_complement(h, b)
        scale = 1.0 / np.sqrt(b[on])
        scaled *= np.outer(scale, scale)
        k = min(count, len(scale))
        # a request for every pair skips the window: it would hold too few
        window = None if count >= len(scale) else (sigma - half, top)
        values, vecs = sla.eigh(scaled, subset_by_value=window)
        if len(values) < k:
            values, vecs = sla.eigh(scaled)
        nearest = np.sort(np.argsort(np.abs(values - sigma), kind="stable")[:k])
        traces = np.empty((ops.n_nodes, k))
        traces[on] = scale[:, None] * vecs[:, nearest]
        traces[~on] = -kernels.product(coupling, traces[on])
        values, traces = _rayleigh_ritz(
            kernels.product(traces.T, kernels.product(h, traces)), b, traces)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"self-adjoint eigensolve failed: {exc}") from exc
    return _signed_pairs(ops, values, traces, _assign_clusters(values))


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


class SecularBreakdown(EigenSolveError):
    """The secular solve could not certify a root; solve the mask directly."""


@dataclass(frozen=True)
class SteklovDecomposition:
    """The all-Steklov problem in orthonormal form, decomposed once.

    W^-1/2 H W^-1/2 = Q diag(values) Q^T with W = diag(weights), so the
    all-Steklov eigenpairs are (values_j, W^-1/2 Q_j), and H W^-1/2 Q =
    W^1/2 Q diag(values).  On a mirror set (``ops.mirror``), the circle's
    included, every column of Q is exactly even or odd under the node
    reversal j -> N - j (:func:`decompose`).  ``groups`` lists,
    per group size, the index rows of values equal to ``_POLE_MERGE_TOL``;
    ``cluster_ids`` the ids of :func:`_assign_clusters`.
    """

    ops: OperatorSet
    values: np.ndarray
    vectors: np.ndarray
    groups: dict
    cluster_ids: np.ndarray

    def traces(self, coefficients: np.ndarray) -> np.ndarray:
        """Boundary traces W^-1/2 Q c of coefficient columns c."""
        return kernels.product(self.vectors, coefficients) / np.sqrt(self.ops.weights)[:, None]

    def count_below(self, x: float) -> int:
        """Number of all-Steklov eigenvalues strictly below x; 0 for x <= 0."""
        return int(np.searchsorted(self.values, x)) if x > 0.0 else 0

    def value(self, j: int) -> float:
        """All-Steklov eigenvalue j (ascending from 0, the constant mode first)."""
        return float(self.values[j])

    def cluster_at(self, j: int) -> list[EigenPair]:
        """All-Steklov pairs of the multiplicity cluster holding value j."""
        members = self.cluster_ids == self.cluster_ids[j]
        traces = self.vectors[:, members] / np.sqrt(self.ops.weights)[:, None]
        return _signed_pairs(self.ops, self.values[members], traces, 0)

    def source_system(self, lam: float):
        """``(solve, condition)`` of the all-Steklov source system H - lam W,
        with no factorization; ``condition`` is the exact 2-norm condition
        number of the scaled system W^-1/2 (H - lam W) W^-1/2."""
        d = self.values - lam
        return self.solver(lambda x: x / d), float(np.max(np.abs(d)) / np.min(np.abs(d)))

    def solver(self, inverse):
        """v -> W^-1/2 Q inverse(Q^T W^-1/2 v), ``inverse`` acting on coefficients."""
        scale = 1.0 / np.sqrt(self.ops.weights)
        return lambda v: scale * kernels.product(
            self.vectors, inverse(kernels.product(v * scale, self.vectors)))


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


def _circulant_eigh(ops: OperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """Ascending values and vectors of X on a rotation set, from its symbol.

    Mode k = 0..N/2 contributes the column cos(2 pi jk/N), and k = 1..N/2-1
    also sin(2 pi jk/N), each normalized, with the value of the symbol at
    k; of one mode the cos column comes first.  Entry (j, k) is read, in
    row blocks, from a table of cos and sin of 2 pi m/N at m = jk mod N;
    the table's second half mirrors its first, so every column is exactly
    even or odd under j -> N - j."""
    N, n = ops.n_nodes, ops.n_nodes // 2
    modes = np.concatenate((np.arange(n + 1), np.arange(1, n)))
    values = ops.scaled_dtn_symbol[modes]
    order = np.argsort(values, kind="stable")
    modes, sine = modes[order], order > n
    angles = (TWO_PI / N) * np.arange(n + 1)
    cos, sin = np.cos(angles), np.sin(angles)
    sin[n] = 0.0
    table = np.concatenate((cos, cos[n - 1:0:-1], sin, -sin[n - 1:0:-1]))
    offset = np.where(sine, N, 0)          # sin entries follow the N cos entries
    scale = np.where((modes == 0) | (modes == n), 1.0, np.sqrt(2.0)) / np.sqrt(N)
    q = np.empty((N, N))
    for rows in kernels.row_blocks(N, N):
        index = np.multiply.outer(np.arange(rows.start, rows.stop), modes) % N
        index += offset
        np.multiply(table[index], scale, out=q[rows])
    return values[order], q


def decompose(ops: OperatorSet) -> SteklovDecomposition:
    """Decompose the all-Steklov problem of ``ops``.

    On a rotation set (``ops.rotation``: the circle) X = W^-1/2 H W^-1/2 is
    circulant and even, so the normalized cos and sin modes are its
    eigenvectors and its real symbol (``ops.scaled_dtn_symbol``) gives their
    values, a cos and a sin mode sharing one: neither an N x N operator
    nor a factorization is formed (:func:`_circulant_eigh`).  On any other
    mirror set (``ops.mirror``: a curve with x(-t) the mirror image of x(t),
    as every catalog curve) X commutes with the node reversal j -> N - j
    and splits in the reversal's even and odd subspaces.
    Its two half-size blocks come straight from the half-size factors of the
    trace map (``ops.scaled_dtn_halves``), and one ``eigh`` (driver evd) of
    each, at a quarter of the flops of the whole, gives its eigenpairs
    (Allgower, Boehmer, Georg and Miranda, SIAM J. Numer. Anal. 29, 1992):
    every vector is exactly even or odd, and neither H nor an N x N
    factorization is formed.  Otherwise one ``eigh`` of X decomposes it.
    """
    try:
        if ops.rotation:
            values, vectors = _circulant_eigh(ops)
        elif ops.mirror:
            values, vectors = _mirror_eigh(*ops.scaled_dtn_halves())
        else:
            values, vectors = sla.eigh(_scaled_dtn(ops), driver="evd", overwrite_a=True,
                                       check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"self-adjoint eigensolve failed: {exc}") from exc
    starts = np.flatnonzero(np.diff(values) > _POLE_MERGE_TOL * (1.0 + np.abs(values[1:]))) + 1
    bounds = np.concatenate(([0], starts, [len(values)]))
    sizes = np.diff(bounds)
    groups = {int(p): bounds[:-1][sizes == p][:, None] + np.arange(p)
              for p in np.unique(sizes)}
    ids = _assign_clusters(values)
    for arr in (values, vectors, ids, *groups.values()):
        arr.setflags(write=False)
    return SteklovDecomposition(ops, values, vectors, groups, ids)


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


class ArcSpectrum:
    """Mixed spectrum of a mask from the secular equation on its arc nodes.

    Let e = 1 - steklov_fraction on the m nodes the Neumann part touches,
    F_m = diag(1 - e) and B = E^1/2 Q_m (Q_m: the decomposition's rows at
    those nodes).  lambda > 0 is a mixed eigenvalue exactly when

        G(lambda) = lambda M(lambda) = F_m + B diag(Lambda/(Lambda - lambda)) B^T

    is singular (M(lambda) = I/lambda + B diag(1/(Lambda - lambda)) B^T).
    G is nondecreasing between poles, and Haynsworth inertia additivity
    counts the mixed eigenvalues below lambda as #{Lambda_j < lambda} minus
    the number of negative eigenvalues of G(lambda), read from an LDL^T
    factorization.  The count brackets each root and orders roots without
    solving them; safeguarded Newton on the matching eigenvalue of G
    polishes a root only when its pair is needed, by inverse iteration on
    the LDL^T factors of each step.  The root's trace is
    W^-1/2 Q diag(1/(Lambda - lambda)) B^T z with z the null vector of G.

    G is formed as the m x N by N x m product of that formula, except on a
    rotation set (``ops.rotation``: the circle), where Q's columns are the
    cos and sin modes and Q_m diag(s) Q_m^T is an m x m section of the
    circulant with symbol s: one ``irfft`` of s = Lambda/(Lambda - lambda)
    on the modes, gathered at the node gaps (i - j) mod N, gives it
    (Gray, Toeplitz and Circulant Matrices: A Review, 2006), at
    O(N log N + m^2) per evaluation.  It needs each pole to carry its
    mode's symbol value exactly, so every member of a pole group must share
    the group's value (on the disk each group is one cos/sin pair);
    otherwise the product route is taken.

    Equal Steklov eigenvalues are rotated so that each pole direction
    carries its own arc weight, and directions of negligible weight are
    deflated (Bunch, Nielsen and Sorensen): they stay mixed eigenvalues
    with their Steklov trace.  So is the constant mode, the eigenvalue 0
    of every mask.  Roots of the remaining *secular* problem are
    indexed from 0 upwards; the deflated values form a second sorted list.

    The mixed eigenvalues are read by their index j in the whole spectrum
    (the constant mode is 0): :meth:`value` locates eigenvalue j among the
    secular roots and deflated values by counts, :meth:`cluster` gives the
    first and last index of its multiplicity cluster, :meth:`pairs` the
    eigenpairs of given indices; a source solve's guard reads
    :meth:`count_below` and :meth:`value`.  Any root the count cannot
    certify raises SecularBreakdown, and so does a mask with no Neumann node.
    """

    def __init__(self, spectrum: SteklovDecomposition, mask: PartitionMask):
        self.spectrum, self.mask = spectrum, mask
        frac = mask.steklov_fraction
        nodes = np.flatnonzero(frac < 1.0)
        self.m = len(nodes)
        if self.m == 0:
            raise SecularBreakdown("a mask without Neumann nodes has no secular equation")
        self.fm = frac[nodes]
        root_e = np.sqrt(1.0 - self.fm)
        self._b = b = root_e[:, None] * spectrum.vectors[nodes]
        # one pole direction per (group g, column q): sum_i rot[g, i, q] Q_rows[g, i]
        values, cols, rotations, exact = [], [], [], True
        for p, rows in spectrum.groups.items():
            bj = b[:, rows].transpose(1, 0, 2)                      # (G, m, p)
            if p == 1:
                rot = np.ones((len(rows), 1, 1))
            else:  # orthogonal weight directions within each group
                rot = np.linalg.eigh(np.einsum("gmi,gmj->gij", bj, bj))[1]
            start = sum(len(v) for v in values)
            means = spectrum.values[rows].mean(axis=1)
            exact &= bool(np.all(spectrum.values[rows] == means[:, None]))
            values.append(np.repeat(means, p))
            cols.append((bj @ rot).transpose(0, 2, 1).reshape(-1, self.m))
            rotations.append((rows, rot, start + np.arange(rows.size).reshape(-1, p)))
        values, cols = np.concatenate(values), np.concatenate(cols)
        # the constant mode (Lambda ~ 0) is an eigenpair of every mask, and
        # lambda M(lambda) scales its pole by Lambda/(Lambda - lambda) ~ 0
        active = ((np.linalg.norm(cols, axis=1) > _DEFLATION_TOL)
                  & (np.abs(values) > _ZERO_POLE_TOL * np.max(np.abs(values))))
        order = np.concatenate([np.flatnonzero(sel)[np.argsort(values[sel], kind="stable")]
                                for sel in (active, ~active)])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # per group size: the rows, rotations and positions (active by pole,
        # then deflated) of the directions, to lift them to coefficients
        self._rotations = [(rows, rot, rank[at]) for rows, rot, at in rotations]
        na = int(np.count_nonzero(active))
        # deflation drops a direction from G and the count, not from the
        # traces of the secular roots, which use every direction
        self._values, self._cols = values[order], cols[order].T
        self.poles, self.cols = self._values[:na], self._cols[:, :na]
        self.deflated = self._values[na:]
        # on a rotation set whose pole values are the symbol's, G is a Toeplitz
        # section of a circulant (:meth:`_matrix`); that sum holds the deflated
        # poles too, so a probe is moved off those as well
        self._symbol = None
        if spectrum.ops.rotation and exact:
            self._symbol = spectrum.ops.scaled_dtn_symbol
            self._gaps = (nodes[:, None] - nodes) % spectrum.ops.n_nodes
            self._scale = np.outer(root_e, root_e)
        self._summed = self.poles if self._symbol is None else self._values
        self._probes: dict[float, int] = {}
        self._roots: dict[int, tuple[float, np.ndarray]] = {}

    # -- the secular equation --------------------------------------------------

    def _matrix(self, lam: float) -> tuple[float, np.ndarray]:
        """(lam, G(lam)), with lam moved one ulp up when it sits on a pole.

        On a rotation set G is read from the symbol (see the class
        docstring); that circulant sums every direction, so the deflated
        directions' rank-one terms come off again."""
        if np.any(self._summed == lam):
            lam = float(np.nextafter(lam, np.inf))
        if self._symbol is None:
            g = kernels.product(self.cols * (self.poles / (self.poles - lam)), self.cols.T)
        else:
            s = self._symbol / (self._symbol - lam)
            g = np.fft.irfft(s, self.spectrum.ops.n_nodes)[self._gaps]
            g *= self._scale
            off = self._cols[:, len(self.poles):]
            g -= np.einsum("id,jd->ij", off * (self.deflated / (self.deflated - lam)), off)
        g[np.diag_indices(self.m)] += self.fm
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
        the counts kept on both sides of lam already agree."""
        lower = [c for x, c in self._probes.items() if x <= lam]
        upper = [c for x, c in self._probes.items() if x >= lam]
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
        tiny = 4.0 * np.finfo(float).eps
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
            y = kernels.product(vec, self.cols)
            slope = float(np.sum(poles * (y / (poles - x)) ** 2))
            step = phi / slope if slope > 0.0 else np.inf
            if abs(step) <= tiny * max(abs(x), 1.0) or hi - lo <= tiny * max(abs(x), 1.0):
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
        kind, i = self._locate(j)
        return self._root(i, near)[0] if kind == "s" else float(self.deflated[i])

    def cluster(self, j: int, near: float | None = None) -> tuple[int, int]:
        """First and last index of the multiplicity cluster of eigenvalue j.

        Neighbours chain as in :func:`_assign_clusters`; whether the next
        eigenvalue out lies within CLUSTER_TOL is read from one count at
        the bound.  ``near`` is passed on to the root search of eigenvalue j.
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

    def pairs(self, indices) -> list[EigenPair]:
        """Eigenpairs of the given mixed eigenvalues, one cluster, Steklov-orthonormal.

        A Rayleigh-Ritz pass of (H, diag(b)) on the secular traces gives the
        returned values and traces; its values must match the roots.  The
        traces are U = W^-1/2 Q C for decomposition coefficients C, so
        U^T H U = C^T diag(Lambda) C comes with no N x N product.
        """
        roots = [self._locate(j) for j in indices]
        weights = np.zeros((len(self._values), len(roots)))
        for j, (kind, i) in enumerate(roots):
            if kind == "s":
                lam, z = self._root(i)
                with np.errstate(divide="ignore", invalid="ignore"):
                    weights[:, j] = kernels.product(z, self._cols) / (self._values - lam)
            else:
                weights[len(self.poles) + i, j] = 1.0
        if not np.all(np.isfinite(weights)):
            raise SecularBreakdown("a secular root sits on a deflated pole")
        # each group's directions turn back to its decomposition columns
        coefficients = np.empty_like(weights)
        for rows, rot, at in self._rotations:
            coefficients[rows] = np.einsum("giq,gqr->gir", rot, weights[at])
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
        return _signed_pairs(ops, values, traces, 0)

    def source_system(self, lam: float):
        """``(solve, condition)`` of the mask's source system H - lam diag(b).

        In decomposition coefficients the scaled system is (Lambda - lam) +
        lam B^T B, B over all N directions (no deflation, no rotation), so
        Woodbury solves it with one LDL^T of G = I + lam B (Lambda - lam)^-1
        B^T = lam M(lam).  ``condition``: max|Lambda - lam| times the 2-norm
        of the inverse, estimated from below by three power steps."""
        spectrum, b = self.spectrum, self._b
        d = spectrum.values - lam
        bd = b / d
        ldu, ipiv, _ = ldl_inertia(np.eye(self.m) + lam * kernels.product(bd, b.T))

        def inverse(x):
            t = lapack.dsytrs(ldu, ipiv, kernels.product(bd, x), lower=1)[0]
            return (x - lam * kernels.product(t, b)) / d

        x = np.ones(len(d))
        for _ in range(3):
            x = inverse(x / np.sqrt(np.sum(x * x)))
        return spectrum.solver(inverse), float(np.max(np.abs(d)) * np.sqrt(np.sum(x * x)))


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

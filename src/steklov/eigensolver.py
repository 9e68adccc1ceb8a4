"""Eigensolver for the discretized mixed spectral problem.

With u = T phi the completed boundary trace of a single-layer density phi,
the mixed problem reads H u = lambda diag(b) u: H is the weighted
Dirichlet-to-Neumann matrix ``OperatorSet.weighted_dtn`` (symmetric) and b
the Steklov weights, zero on Neumann nodes.  One self-adjoint solve of this
form returns real eigenvalues, no spurious modes and an
L2(Gamma_S)-orthonormal basis of every cluster.

* :func:`solve_spectrum_near` -- the eigenpairs nearest a target.  The
  optimizer falls back to it when the secular solve breaks down; the
  resonance guard reads the values it leaves on the mask.
* :func:`solve_spectrum` -- the lowest eigenpairs: the spectrum is
  nonnegative, so these are the ones nearest 0.
* :func:`decompose` and :class:`ArcSpectrum` -- the tuning run's trial
  solve.  The all-Steklov problem is decomposed once, W^-1/2 H W^-1/2 =
  Q diag(Lambda) Q^T; a mask whose Neumann part touches m nodes differs
  from it by a rank-m change, so its eigenvalues are the roots of an m x m
  secular equation (Golub, SIAM Rev. 15, 1973; Bunch, Nielsen and
  Sorensen, Numer. Math. 31, 1978).  The roots are counted exactly by the
  inertia of one Bunch-Kaufman LDL^T factorization of the m x m matrix
  (Haynsworth additivity, :func:`negative_inertia`) and polished by Newton,
  at O(m^2 N) per evaluation instead of an N x N eigensolve.  It is the
  exact form of the first-order arc formula the optimizer steps with.

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
from scipy import sparse
from scipy.linalg import lapack

from . import kernels
from .asymptotics import verify_orthonormal
from .discretization import OperatorSet, PartitionMask
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
    densities = sla.lu_solve(ops.trace_map_lu, traces)
    return [EigenPair(float(lam), d, t, int(c)) for lam, d, t, c
            in zip(values, densities.T, traces.T, np.broadcast_to(cluster_ids, k))]


def _rayleigh_ritz(h: np.ndarray, b: np.ndarray, traces: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and vectors of (H, diag(b)) on the span of the trace
    columns; ``scipy.linalg.eigh`` raises LinAlgError on failure."""
    values, rotation = sla.eigh(kernels.product(traces.T, kernels.product(h, traces)),
                                kernels.product(traces.T * b, traces))
    return values, kernels.product(traces, rotation)


def solve_spectrum(ops: OperatorSet, mask: PartitionMask,
                   req: SpectrumRequest = SpectrumRequest()) -> list[EigenPair]:
    """Lowest eigenpairs of the mixed problem, sorted ascending and clustered."""
    return solve_spectrum_near(ops, mask, 0.0, req.count)


def solve_spectrum_near(ops: OperatorSet, mask: PartitionMask, sigma: float,
                        count: int = 6) -> list[EigenPair]:
    """The ``count`` eigenpairs nearest sigma, from the self-adjoint form.

    A Schur complement S eliminates the Neumann nodes (b = 0) of
    H u = lambda diag(b) u; ``scipy.linalg.eigh`` solves D^-1/2 S D^-1/2
    (D = diag(b)) in a window around sigma.  The scaling loses eps/b_min at
    nodes of small Steklov fraction (1e-6 at 1e-8), which a Rayleigh-Ritz
    pass of (H, diag(b)) on the traces restores.  Traces come back
    L2(Gamma_S)-orthonormal; densities are T^-1 u.  The ascending values
    are also stored as ``mask.eigenvalues``.  A failed factorization or
    eigensolve (an indefinite H_nn, say) raises EigenSolveError.
    """
    h = ops.weighted_dtn
    b = mask.steklov_weights
    on, off = b > 0, b <= 0
    k = min(count, int(np.sum(on)))
    # Weyl: about |Gamma_S|/pi eigenvalues per unit of lambda, so ~2*count in
    # the window; none lie below 0, so near 0 it reaches up to 2*half instead
    half = count * np.pi / float(np.sum(b))
    top = half + max(sigma, half)
    try:
        # Neumann rows read H_nn u_n + H_ns u_s = 0, so u_n = -coupling @ u_s
        coupling = sla.solve(h[np.ix_(off, off)], h[np.ix_(off, on)], assume_a="pos")
        scaled = h[np.ix_(on, on)] - kernels.product(h[np.ix_(on, off)], coupling)
        scale = 1.0 / np.sqrt(b[on])
        scaled *= np.outer(scale, scale)
        # a request for every pair skips the window: it would hold too few
        window = None if count >= len(scale) else (sigma - half, top)
        values, vecs = sla.eigh(scaled, subset_by_value=window)
        if len(values) < k:
            values, vecs = sla.eigh(scaled)
        nearest = np.sort(np.argsort(np.abs(values - sigma), kind="stable")[:k])
        traces = np.empty((ops.n_nodes, k))
        traces[on] = scale[:, None] * vecs[:, nearest]
        traces[off] = -kernels.product(coupling, traces[on])
        values, traces = _rayleigh_ritz(h, b, traces)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"self-adjoint eigensolve failed: {exc}") from exc
    values.setflags(write=False)
    mask.eigenvalues = values
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
# count evaluations allowed per root, or per comparison of two roots, before
# the secular solve gives up
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
    all-Steklov eigenpairs are (values_j, W^-1/2 Q_j).  ``groups`` lists,
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

    def cluster_at(self, j: int) -> list[EigenPair]:
        """All-Steklov pairs of the multiplicity cluster holding value j."""
        members = self.cluster_ids == self.cluster_ids[j]
        traces = self.vectors[:, members] / np.sqrt(self.ops.weights)[:, None]
        return _signed_pairs(self.ops, self.values[members], traces, 0)


def decompose(ops: OperatorSet) -> SteklovDecomposition:
    """Decompose the all-Steklov problem of ``ops`` (one ``eigh``, driver evd)."""
    scale = 1.0 / np.sqrt(ops.weights)
    # Fortran order, so eigh works in this array instead of a copy of it
    a = np.multiply(ops.weighted_dtn, scale[:, None], order="F")
    a *= scale
    try:
        values, vectors = sla.eigh(a, driver="evd", overwrite_a=True,
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


def negative_inertia(g: np.ndarray) -> int:
    """Number of negative eigenvalues of the symmetric matrix ``g``.

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
    return int(np.count_nonzero(d[ipiv > 0] < 0.0) + np.count_nonzero(det < 0.0)
               + 2 * np.count_nonzero((det > 0.0) & (a < 0.0)))


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
    polishes a root only when its pair is needed.  The root's trace is
    W^-1/2 Q diag(1/(Lambda - lambda)) B^T z with z the null vector of G.

    Equal Steklov eigenvalues are rotated so that each pole direction
    carries its own arc weight, and directions of negligible weight are
    deflated (Bunch, Nielsen and Sorensen): they stay mixed eigenvalues
    with their Steklov trace.  So is the constant mode, the eigenvalue 0
    of every mask.  Roots of the remaining *secular* problem are
    indexed from 0 upwards; the deflated values form a second sorted list.
    Any root the count cannot certify raises SecularBreakdown, and so does
    a mask with no Neumann node.
    """

    def __init__(self, spectrum: SteklovDecomposition, mask: PartitionMask):
        self.spectrum, self.mask = spectrum, mask
        frac = mask.steklov_fraction
        nodes = np.flatnonzero(frac < 1.0)
        self.m = len(nodes)
        if self.m == 0:
            raise SecularBreakdown("a mask without Neumann nodes has no secular equation")
        self.fm = frac[nodes]
        b = np.sqrt(1.0 - self.fm)[:, None] * spectrum.vectors[nodes]
        # one pole direction per (group g, column q): sum_i rot[g, i, q] Q_rows[g, i]
        values, cols, entries = [], [], []
        for p, rows in spectrum.groups.items():
            bj = b[:, rows].transpose(1, 0, 2)                      # (G, m, p)
            if p == 1:
                rot = np.ones((len(rows), 1, 1))
            else:  # orthogonal weight directions within each group
                rot = np.linalg.eigh(np.einsum("gmi,gmj->gij", bj, bj))[1]
            start = sum(len(v) for v in values)
            values.append(np.repeat(spectrum.values[rows].mean(axis=1), p))
            cols.append((bj @ rot).transpose(0, 2, 1).reshape(-1, self.m))
            direction = start + np.arange(rows.size).reshape(-1, p, 1)
            entries.append(np.broadcast_arrays(rot.transpose(0, 2, 1), rows[:, None, :],
                                               direction))
        values, cols = np.concatenate(values), np.concatenate(cols)
        # the constant mode (Lambda ~ 0) is an eigenpair of every mask, and
        # lambda M(lambda) scales its pole by Lambda/(Lambda - lambda) ~ 0
        active = ((np.linalg.norm(cols, axis=1) > _DEFLATION_TOL)
                  & (np.abs(values) > _ZERO_POLE_TOL * np.max(np.abs(values))))
        order = np.concatenate([np.flatnonzero(sel)[np.argsort(values[sel], kind="stable")]
                                for sel in (active, ~active)])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        weight, row, direction = (np.concatenate([e[i].ravel() for e in entries])
                                  for i in range(3))
        # decomposition coefficients of the directions: active (by pole), then deflated
        self._lift = sparse.csr_matrix((weight, (row, rank[direction])),
                                       shape=(len(values), len(values)))
        na = int(np.count_nonzero(active))
        # deflation drops a direction from G and the count, not from the
        # traces of the secular roots, which use every direction
        self._values, self._cols = values[order], cols[order].T
        self.poles, self.cols = self._values[:na], self._cols[:, :na]
        self.deflated = self._values[na:]
        self._probes: list[tuple[float, int]] = []
        self._roots: dict[int, tuple[float, np.ndarray]] = {}
        # next unvisited (secular, deflated) index above (True) and below
        self._heads: dict[bool, tuple[int, int]] = {}

    # -- the secular equation --------------------------------------------------

    def _matrix(self, lam: float) -> tuple[float, np.ndarray]:
        """(lam, G(lam)), with lam moved one ulp up when it sits on a pole."""
        if np.any(self.poles == lam):
            lam = float(np.nextafter(lam, np.inf))
        g = kernels.product(self.cols * (self.poles / (self.poles - lam)), self.cols.T)
        g[np.diag_indices(self.m)] += self.fm
        return lam, g

    def _record(self, lam: float, negative: int) -> int:
        """Secular roots below lam, given the negative eigenvalues of G(lam);
        kept to narrow brackets unless lam lies beside a pole."""
        count = int(np.searchsorted(self.poles, lam)) - negative
        if not self._beside_pole(lam):
            self._probes.append((lam, count))
        return count

    def _beside_pole(self, x: float) -> bool:
        """Whether x lies within ``_POLE_ULPS`` ulps of a pole."""
        i = int(np.searchsorted(self.poles, x))
        near = self.poles[max(i - 1, 0):i + 1]
        return bool(np.any(np.abs(near - x) <= _POLE_ULPS * np.spacing(near)))

    def _count(self, lam: float) -> int:
        """Secular roots below lam, from the inertia of G(lam) alone."""
        lam, g = self._matrix(float(lam))
        return self._record(lam, negative_inertia(g))

    def _eigen(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of G(lam); the count is recorded too."""
        lam, g = self._matrix(lam)
        mu, z = sla.eigh(g, driver="evd", overwrite_a=True, check_finite=False)
        self._record(lam, int(np.count_nonzero(mu < 0.0)))
        return mu, z

    def count_below(self, lam: float) -> int:
        """Number of mixed eigenvalues strictly below lam (lam > 0)."""
        return self._count(lam) + int(np.searchsorted(self.deflated, lam))

    def _span(self, root: tuple[str, int]) -> tuple[float, float]:
        """Interval known to hold ``root`` without solving it: for a secular
        root, from interlacing, the counts so far and the solved roots."""
        kind, k = root
        if kind == "d":
            return float(self.deflated[k]), float(self.deflated[k])
        if k in self._roots:
            return self._roots[k][0], self._roots[k][0]
        poles, m = self.poles, self.m
        if not 0 <= k < len(poles) - m:
            raise SecularBreakdown(f"secular root {k} has no interlacing bracket")
        # interlacing: root k lies in [poles[k], poles[k + m]]
        lo, hi = poles[k], poles[k + m]
        for x, c in self._probes:
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

    def _root(self, k: int) -> tuple[float, np.ndarray]:
        """Secular root k (ascending from 0) and its null vector z."""
        if k in self._roots:
            return self._roots[k]
        poles, m = self.poles, self.m
        lo, hi = self._span(("s", k))
        for _ in range(_MAX_EVALUATIONS):
            inside = poles[np.searchsorted(poles, lo, "right"):np.searchsorted(poles, hi)]
            if inside.size == 0:
                break
            # split halfway between poles, never next to one
            edges = np.unique(np.concatenate(([lo], inside, [hi])))
            mids = 0.5 * (edges[:-1] + edges[1:])
            x = float(mids[np.argmin(np.abs(mids - 0.5 * (lo + hi)))])
            if self._count(x) <= k:
                lo = x
            else:
                hi = x
        else:
            raise SecularBreakdown(f"could not isolate secular root {k}")
        # between poles the (P - k)-th smallest eigenvalue of G crosses zero
        # upwards exactly at root k; P counts the poles below the bracket
        branch = int(np.searchsorted(poles, lo, "right")) - k - 1
        if not 0 <= branch < m:
            raise SecularBreakdown(f"secular root {k}: count and poles disagree")
        tiny = 4.0 * np.finfo(float).eps
        x = 0.5 * (lo + hi)
        for _ in range(_MAX_EVALUATIONS):
            mu, z = self._eigen(x)
            phi, vec = mu[branch], z[:, branch]
            if phi < 0.0:
                lo = x
            else:
                hi = x
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

    # -- roots in order of distance ----------------------------------------------

    def _value(self, root: tuple[str, int]) -> float:
        kind, i = root
        return self._root(i)[0] if kind == "s" else float(self.deflated[i])

    def _reached(self, k: int, x: float, up: bool) -> bool:
        """Whether secular root k lies at or below x (``up``), or at or above;
        counted at x when its bracket does not decide."""
        lo, hi = self._span(("s", k))
        if (hi <= x) if up else (lo >= x):
            return True
        if (lo > x) if up else (hi < x):
            return False
        below = self._count(float(np.nextafter(x, np.inf if up else -np.inf)))
        return below > k if up else below <= k

    def _next(self, up: bool, bound: float | None = None):
        """Next unvisited root above (``up``) or below the visited run; with
        ``bound``, only a root within it.  Counts order the candidates."""
        k, d = self._heads[up]
        secular = (0 <= k < len(self.poles) - self.m
                   and (bound is None or self._reached(k, bound, up)))
        deflated = 0 <= d < len(self.deflated) and (
            bound is None or (self.deflated[d] <= bound if up else self.deflated[d] >= bound))
        if secular and (not deflated or self._reached(k, float(self.deflated[d]), up)):
            return ("s", k)
        return ("d", d) if deflated else None

    def _nearer_above(self, above, below, center: float) -> bool:
        """Whether ``above`` lies at least as close to ``center`` as ``below``.

        Counts at center + delta and center - delta narrow both brackets
        until their distance ranges separate, so neither root is solved just
        to be compared; a tie the counts cannot split solves both.
        """
        for _ in range(_MAX_EVALUATIONS):
            (a_lo, a_hi), (b_lo, b_hi) = self._span(above), self._span(below)
            if a_hi - center <= center - b_hi:
                return True
            if center - b_lo < a_lo - center:
                return False
            delta = 0.5 * (max(a_lo - center, center - b_hi)
                           + min(a_hi - center, center - b_lo))
            for lo, hi, x in ((a_lo, a_hi, center + delta), (b_lo, b_hi, center - delta)):
                if lo < x < hi:
                    self._count(x)
            if ((a_lo, a_hi), (b_lo, b_hi)) == (self._span(above), self._span(below)):
                break
        return self._value(above) - center <= center - self._value(below)

    def _take(self, root: tuple[str, int], up: bool) -> None:
        """Add ``root`` to the visited run on one side."""
        kind, i = root
        k, d = self._heads[up]
        step = 1 if up else -1
        self._heads[up] = (i + step, d) if kind == "s" else (k, i + step)

    def clusters_outward(self, center: float):
        """Multiplicity clusters of mixed eigenpairs, nearest ``center`` first.

        Roots are solved only as the caller asks for the next cluster.  The
        visited roots are always all the roots between the lowest and the
        highest, a contiguous run that :meth:`store_run` writes to the mask.
        """
        tol = CLUSTER_TOL
        k = self._count(center)
        d = int(np.searchsorted(self.deflated, center))
        self._heads = {True: (k, d), False: (k - 1, d - 1)}
        first = True
        while True:
            above, below = self._next(True), self._next(False)
            if above is None and below is None:
                return
            up = below is None or (above is not None
                                   and self._nearer_above(above, below, center))
            members = [above if up else below]
            self._take(members[0], up)
            # a cluster chains values within CLUSTER_TOL; later ones can only
            # grow outward, since the visited run ends in a wider gap
            for side in ((True, False) if first else (up,)):
                v = self._value(members[0])
                while True:
                    bound = (v + tol) / (1.0 - tol) if side else v - tol * (1.0 + abs(v))
                    root = self._next(side, bound)
                    if root is None:
                        break
                    self._take(root, side)
                    members.append(root)
                    v = self._value(root)
            members.sort(key=self._value)
            first = False
            yield self.pairs(members)

    def pairs(self, roots) -> list[EigenPair]:
        """Eigenpairs of the given roots, one cluster, Steklov-orthonormal.

        A Rayleigh-Ritz pass of (H, diag(b)) on the secular traces gives the
        returned values and traces; its values must match the roots.
        """
        weights = np.zeros((self._lift.shape[1], len(roots)))
        for j, (kind, i) in enumerate(roots):
            if kind == "s":
                lam, z = self._root(i)
                with np.errstate(divide="ignore", invalid="ignore"):
                    weights[:, j] = kernels.product(z, self._cols) / (self._values - lam)
            else:
                weights[len(self.poles) + i, j] = 1.0
        if not np.all(np.isfinite(weights)):
            raise SecularBreakdown("a secular root sits on a deflated pole")
        traces = self.spectrum.traces(self._lift @ weights)
        ops, b = self.spectrum.ops, self.mask.steklov_weights
        try:
            values, traces = _rayleigh_ritz(ops.weighted_dtn, b, traces)
        except np.linalg.LinAlgError as exc:
            raise SecularBreakdown(f"Rayleigh-Ritz pass failed: {exc}") from exc
        roots_v = np.array([self._value(r) for r in roots])
        if np.any(np.abs(values - roots_v) > _RITZ_AGREEMENT * (1.0 + np.abs(roots_v))):
            raise SecularBreakdown("secular roots and Rayleigh-Ritz values disagree")
        return _signed_pairs(ops, values, traces, 0)

    def store_run(self, target: float) -> None:
        """Write the visited roots, extended to bracket ``target``, to the mask.

        The run is contiguous, so the resonance guard can read the eigenvalue
        nearest any lambda inside it from ``mask.eigenvalues``.  Its values
        are the Newton roots, good to about 1e-12 relative.
        """
        while True:
            (k_dn, d_dn), (k_up, d_up) = self._heads[False], self._heads[True]
            run = sorted([self._root(k)[0] for k in range(k_dn + 1, k_up)]
                         + list(self.deflated[d_dn + 1:d_up]))
            up = run[-1] < target
            if not (up or run[0] > target) or (root := self._next(up)) is None:
                break
            self._take(root, up)
        values = np.array(run)
        values.setflags(write=False)
        self.mask.eigenvalues = values


# ---------------------------------------------------------------------------
# eigenfunction reconstruction
# ---------------------------------------------------------------------------

def interiority(ops: OperatorSet, x):
    """Discrete Gauss integral at x: ~1 inside the curve, ~0 outside.

    ``x`` is one point (a float comes back) or an array of shape (..., 2).
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 2)
    vals = np.empty(len(pts))
    for rows in kernels.row_blocks(len(pts), ops.n_nodes):
        vals[rows] = kernels.product(kernels.gamma0_dnu(ops.points, ops.normals,
                                                        pts[rows, None, :]), ops.weights)
    return float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1])


def evaluate_layer_potential(ops: OperatorSet, density: np.ndarray, x,
                             refine: int = 1):
    """Completed single-layer potential S[rho] + w.rho of ``density`` at interior x.

    ``x`` is one point (a float comes back) or an array of shape (..., 2).
    With ``refine`` > 1 the layer is integrated on a trigonometrically
    upsampled copy of the boundary with refine*N nodes, which keeps the
    quadrature usable down to a fraction of the coarse node spacing.  Raises
    GeometryError for a point outside the curve and warns (AccuracyWarning)
    when a point comes closer to its nearest layer node than that node's
    weight, where the plain quadrature loses accuracy.

    The points go in the row blocks of :func:`kernels.row_blocks`; a block's
    kernel rows give its nearest layer nodes (for the warning) and its values
    (one matrix-vector product), so memory stays at a few blocks of
    ``kernels.BLOCK_ENTRIES`` doubles instead of a P x refine*N matrix.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 2)
    if np.any(interiority(ops, pts) < 0.5):
        raise GeometryError(f"evaluation point lies outside '{ops.curve.name}'")
    nodes, w, rho = ops.points, ops.weights, density
    if refine > 1:
        n_fine = refine * ops.n_nodes
        params = TWO_PI * np.arange(n_fine) / n_fine
        nodes = ops.curve.eval(params)
        w = (TWO_PI / n_fine) * ops.curve.speed(params)
        coef = np.fft.rfft(density)
        # the Nyquist coefficient stands for +-N/2 at once; halved, the fine
        # density passes through the coarse one
        coef[-1] *= 0.5
        rho = np.fft.irfft(coef, n_fine) * refine
    w_rho = w * rho
    vals = np.empty(len(pts))
    close = False
    for rows in kernels.row_blocks(len(pts), len(nodes)):
        kernel = kernels.gamma0(pts[rows, None, :], nodes)
        # the kernel is monotone in the distance: its row minimum is the nearest node
        nearest = np.argmin(kernel, axis=1)
        close |= bool(np.any(kernel[np.arange(len(kernel)), nearest]
                             < np.log(w[nearest]) / TWO_PI))
        vals[rows] = kernels.product(kernel, w_rho)
    if close:
        warnings.warn("evaluation point within one node spacing of the boundary; "
                      "layer potential accuracy degrades there", AccuracyWarning,
                      stacklevel=3)
    vals += ops.weights @ density
    return float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1])


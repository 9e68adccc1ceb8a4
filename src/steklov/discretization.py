"""Dense Nystrom discretization of the boundary operators.

On N equispaced parameter nodes t_j = 2*pi*j/N (N even, N = 2n) the module
assembles

* ``single_layer``        S_ij ~ integral of gamma0(x_i, .) against densities,
* ``adjoint_double_layer``K_ij ~ integral of gamma0_dnu(x_i, nu_i, .),
* ``weights``             w_j = (2*pi/N) |x'(t_j)| for boundary inner products.

The logarithmic singularity of the single layer is resolved with the
classical trigonometric product quadrature: the kernel is split as

    (1/2*pi) log|x(t)-x(tau)|
        = (1/4*pi) log(4 sin^2((t-tau)/2)) + M(t, tau),

where M is smooth with diagonal M(t,t) = (1/2*pi) log|x'(t)|.  The singular
factor is integrated *exactly* against trigonometric polynomials through the
weights

    R_k = -(2*pi/n) sum_{m=1}^{n-1} cos(m k pi / n)/m - (pi/n^2) (-1)^k,

and the smooth remainder by the plain trapezoidal rule, which is itself
spectrally accurate on periodic integrands.  The adjoint double layer has a
smooth kernel whose diagonal is the curvature limit kappa/(4*pi).  Both
operators are filled in the row blocks of ``kernels.row_blocks``, with the
same per-entry arithmetic as a whole-matrix build, so no N x N temporary is
formed beside the two results.

Capacity completion
-------------------
On curves of logarithmic capacity one (the unit circle!) the single layer
annihilates constants, so the plain ansatz u = S[phi] cannot represent the
constant eigenfunction of the zero eigenvalue.  All downstream solvers
therefore use the completed representation

    u = S[phi] + integral of phi  (a constant),

whose discrete trace map is ``trace_map = S + 1 w^T`` (built when asked for;
only its LU factors are cached).  The completion does
not change normal derivatives (constants are harmonic with zero flux), is
invertible for every catalog curve, and coincides with the plain map up to
the induced reparametrization of densities whenever S itself is invertible.

Both spectral problems are solved in the trace u = T phi, where the mixed
conditions become the symmetric system of the weighted Dirichlet-to-Neumann
matrix H = W (-I/2 + K') T^-1: the eigenproblem H u = lambda diag(b) u and
the source problem (H - lambda diag(b)) u = W f, with b the Steklov weights.
Densities are recovered as phi = T^-1 u.

Partition masks additionally carry a per-node *Steklov coverage fraction*:
the fraction of the node's quadrature cell [t_i - h/2, t_i + h/2) covered by
Steklov arcs.  Spectral quantities become continuous functions of the arc
endpoints this way, instead of jumping each time an endpoint crosses a node.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import kernels
from .errors import GeometryError, MaskError
from .geometry import (
    STEKLOV,
    TWO_PI,
    BoundaryCurve,
    BoundaryPartition,
    point_normal_speed,
)

# node count of a run that names none: the run-file default, the tuning
# default and the validation suite's
DEFAULT_NODES = 256


class OperatorSet:
    """Immutable bundle of discretized boundary operators on N nodes.

    Build through :func:`assemble`.  All arrays are read-only views.  The LU
    factors of the completed trace map, the weighted Dirichlet-to-Neumann
    matrix and the Robin constant are computed lazily and cached; the trace
    map itself is not kept, since only its factors are read again.
    """

    def __init__(self, curve: BoundaryCurve, params, points, normals, speeds,
                 weights, single_layer, adjoint_double_layer):
        self.curve = curve
        self.params = params
        self.points = points
        self.normals = normals
        self.speeds = speeds
        self.weights = weights
        self.single_layer = single_layer
        self.adjoint_double_layer = adjoint_double_layer
        for arr in (params, points, normals, speeds, weights,
                    single_layer, adjoint_double_layer):
            arr.setflags(write=False)
        self._trace_map_lu: tuple[np.ndarray, np.ndarray] | None = None
        self._weighted_dtn: np.ndarray | None = None
        self._robin: float | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.params)

    @property
    def trace_map(self) -> np.ndarray:
        """Completed boundary trace of the single-layer ansatz: S + 1 w^T.

        A new array on every access, in Fortran order so that
        :attr:`trace_map_lu` factors it in place."""
        return np.add(self.single_layer, self.weights, order="F")

    @property
    def trace_map_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factors of the completed trace map, for ``scipy.linalg.lu_solve``."""
        if self._trace_map_lu is None:
            self._trace_map_lu = sla.lu_factor(self.trace_map, overwrite_a=True)
            for arr in self._trace_map_lu:
                arr.setflags(write=False)
        return self._trace_map_lu

    @property
    def weighted_dtn(self) -> np.ndarray:
        """Weighted Dirichlet-to-Neumann matrix H = W (-I/2 + K') T^-1.

        Symmetric to about 1e-13 relative; stored symmetrized."""
        if self._weighted_dtn is None:
            a = np.array(self.adjoint_double_layer)
            a[np.diag_indices_from(a)] -= 0.5
            # a.T is Fortran-ordered, so LAPACK solves T^T X = (-I/2 + K')^T in it
            h = sla.lu_solve(self.trace_map_lu, a.T, trans=1, overwrite_b=True).T
            h *= self.weights[:, None]
            h = h + h.T
            h *= 0.5
            h.setflags(write=False)
            self._weighted_dtn = h
        return self._weighted_dtn

    @property
    def robin_constant(self) -> float:
        """Boundary value V of the equilibrium single-layer potential.

        S[psi] = V with integral of psi = 1 reads T psi = V + 1, so
        V = 1 / (w . T^-1 1) - 1; V = log(capacity)/(2*pi) vanishes exactly
        when the curve has logarithmic capacity one.
        """
        if self._robin is None:
            ones = sla.lu_solve(self.trace_map_lu, np.ones(self.n_nodes))
            self._robin = float(1.0 / (self.weights @ ones) - 1.0)
        return self._robin


def log_quadrature_weights(n: int) -> np.ndarray:
    """Exact trigonometric quadrature weights for log(4 sin^2((t - tau)/2)).

    Returns R_k for node offsets k = 0 .. 2n-1; the rule integrates the
    singular factor exactly against trigonometric polynomials of degree < n.
    """
    # sum_{m=1}^{n-1} cos(pi k m / n) / m for all k, as one inverse real FFT
    coefficients = np.zeros(n + 1)
    coefficients[1:n] = 1.0 / np.arange(1, n)
    sums = n * np.fft.irfft(coefficients, 2 * n)
    return -(2.0 * np.pi / n) * sums - (np.pi / n**2) * (-1.0) ** np.arange(2 * n)


def assemble(curve: BoundaryCurve, n_nodes: int) -> OperatorSet:
    """Assemble the dense operator set on n_nodes equispaced parameter nodes.

    Both operators are filled in the row blocks of :func:`kernels.row_blocks`,
    so beyond the two N x N results only a few blocks of temporaries live."""
    N = int(n_nodes)
    if N % 2 != 0:
        raise GeometryError("node count must be even for the log quadrature")
    if N < 16:
        raise GeometryError("node count must be at least 16")
    n = N // 2
    t = TWO_PI * np.arange(N) / N
    pts, nus, sps = point_normal_speed(curve, t)
    w = (TWO_PI / N) * sps
    idx = np.arange(N)
    R = log_quadrature_weights(n)
    log_speed = np.log(sps) / (2.0 * np.pi)
    curvature = kernels.gamma0_dnu_diagonal_limit(curve, t)
    single = np.empty((N, N))
    adjoint = np.empty((N, N))
    for rows in kernels.row_blocks(N, N):
        i = idx[rows]
        diag = (np.arange(len(i)), i)          # the block's diagonal entries
        x = pts[rows, None, :]
        # --- single layer ----------------------------------------------------
        # smooth remainder M_ij = gamma0(x_i, x_j) - (1/4 pi) log(4 sin^2(..));
        # the diagonal is patched afterwards, so displace it before calling
        # the kernel (which rejects coincident points)
        cols = np.broadcast_to(pts, (len(i), N, 2)).copy()
        cols[diag + (0,)] += 1.0  # unit displacement; diagonal overwritten below
        g0 = kernels.gamma0(x, cols)
        sin2 = 4.0 * np.sin((t[rows, None] - t[None, :]) / 2.0) ** 2
        sin2[diag] = 1.0
        M = g0 - np.log(sin2) / (4.0 * np.pi)
        M[diag] = log_speed[i]
        single[rows] = (R[np.abs(i[:, None] - idx)] / (4.0 * np.pi)
                        + (TWO_PI / N) * M) * sps
        # --- adjoint double layer --------------------------------------------
        kst = kernels.gamma0_dnu(x, np.broadcast_to(nus[rows, None, :], cols.shape), cols)
        kst[diag] = curvature[i]
        adjoint[rows] = (TWO_PI / N) * kst * sps

    return OperatorSet(curve, t, pts, nus, sps, w, single, adjoint)


# ---------------------------------------------------------------------------
# partition masks
# ---------------------------------------------------------------------------

class PartitionMask:
    """Node labels and Steklov coverage fractions induced by a partition.

    ``is_steklov`` holds the binary containment labels required by the
    discrete contracts; ``steklov_fraction`` refines them to the covered
    fraction of each node's quadrature cell and drives all quadrature-level
    restrictions (the Steklov weights of the eigen and source systems,
    Green's right-hand sides, inner products).
    Both are immutable.  The mask also owns what has been solved on it:
    ``eigenvalues``, the ascending values of its latest eigensolve (None
    before the first), and the LU of :meth:`source_system`, which masks
    outside a tuning run solve with (a run solves on its decomposition).
    """

    def __init__(self, ops: OperatorSet, partition: BoundaryPartition,
                 is_steklov: np.ndarray, steklov_fraction: np.ndarray):
        self.ops = ops
        self.partition = partition
        self.is_steklov = is_steklov
        self.steklov_fraction = steklov_fraction
        for arr in (is_steklov, steklov_fraction):
            arr.setflags(write=False)
        self.eigenvalues: np.ndarray | None = None
        self._source: tuple | None = None

    @property
    def steklov_weights(self) -> np.ndarray:
        """Quadrature weights of the Steklov part: w_i * fraction_i."""
        return self.ops.weights * self.steklov_fraction

    def source_system(self, lam: float) -> tuple[tuple, float]:
        """``(lu, condition)`` of the source system H - lam diag(b) in the
        trace, with H = ``ops.weighted_dtn`` and b the Steklov weights.

        ``lu`` is its ``scipy.linalg.lu_factor``.  ``condition`` estimates
        the 2-norm condition number of the scaled system S = W^-1/2 (H - lam
        diag(b)) W^-1/2, the number the decomposition routes report: the
        1-norm of the symmetric S, which bounds its 2-norm from above, times
        the norm of S^-1 from three power steps on the LU (a fixed
        pseudo-random start, so no mirror symmetry of the mask hides the
        near-null direction).  Only the factors of the latest ``lam`` are
        kept; sources share them.
        """
        lam = float(lam)
        if self._source is None or self._source[0] != lam:
            self._source = None        # free the old factors before building
            k = np.array(self.ops.weighted_dtn, order="F")   # LAPACK factors it in place
            k[np.diag_indices_from(k)] -= lam * self.steklov_weights
            scale = 1.0 / np.sqrt(self.ops.weights)
            norm = np.max(kernels.product(scale, np.abs(k)) * scale)
            lu = sla.lu_factor(k, overwrite_a=True)
            x = np.random.default_rng(0).standard_normal(len(scale))
            for _ in range(3):
                x = sla.lu_solve(lu, x / (scale * np.sqrt(np.sum(x * x)))) / scale
            self._source = (lam, lu, float(norm * np.sqrt(np.sum(x * x))))
        return self._source[1:]


def mask_from_partition(ops: OperatorSet, partition: BoundaryPartition) -> PartitionMask:
    """Label the operator nodes by the arcs containing them."""
    if partition.curve is not ops.curve and partition.curve.name != ops.curve.name:
        raise MaskError("partition belongs to a different curve")
    t = ops.params
    n = len(t)
    h = TWO_PI / n
    labels = partition.labels_at(t) == STEKLOV
    frac = partition.covered_measure(STEKLOV, t - h / 2.0, t + h / 2.0) / h
    frac = np.clip(frac, 0.0, 1.0)
    # snap away interval-arithmetic rounding so fully covered/uncovered cells
    # carry exact 0/1 fractions
    frac[frac > 1.0 - 1e-9] = 1.0
    frac[frac < 1e-9] = 0.0
    if not labels.any() or not np.any(frac > 0):
        raise MaskError("partition leaves no Steklov node")
    return PartitionMask(ops, partition, labels, frac)

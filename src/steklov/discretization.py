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

whose discrete trace map is T = ``trace_map`` = S + 1 w^T.  The completion
does not change normal derivatives (constants are harmonic with zero flux),
is invertible for every catalog curve, and coincides with the plain map up
to the induced reparametrization of densities whenever S itself is
invertible.

Both spectral problems are solved in the trace u = T phi, where the mixed
conditions become the symmetric system of the weighted Dirichlet-to-Neumann
matrix H = W (-I/2 + K') T^-1: the eigenproblem H u = lambda diag(b) u and
the source problem (H - lambda diag(b)) u = W f, with b the Steklov weights.
Densities are recovered as phi = T^-1 u (``OperatorSet.trace_solve``).

Mirror halves
-------------
On a curve with x(-t) the mirror image of x(t) (every catalog curve) the
node reversal j -> N - j maps the nodes, normals, speeds and curvatures
onto themselves by a reflection, so S, K' and T commute with it.
:func:`assemble` decides this once, from the nodes (``OperatorSet.mirror``).
Each operator acts on the reversal's even vectors (node values j and N - j
equal) and odd ones separately, through two half-size blocks read from its
rows 0..N/2: rows and columns 0..N/2 with columns k and N - k summed, and
rows and columns N/2-1..1 with them subtracted (1 w^T, even, enters the
even block only).  T is factored and the scaled H built in these blocks
(Allgower, Boehmer, Georg and Miranda, SIAM J. Numer. Anal. 29, 1992).  Any
other curve factors the N x N trace map.

Circulant on the circle
-----------------------
When the rotation j -> j + 1 is a symmetry of the nodes too (equispaced
nodes of a circle; ``OperatorSet.rotation``), entry (i, j) of S, K', T and
H depends on (j - i) mod N only: they are circulant, and the discrete
Fourier transform diagonalizes them (Gray, "Toeplitz and circulant
matrices: a review", 2006).  :func:`assemble` fills row 0 of S and K' only.
The mirror makes each row even, a_k = a_N-k, so its DFT is real: the
operator's values on the modes cos kt and sin kt, k = 0..N/2, its symbol.
T^-1 u is an FFT solve with the symbol of T's row S_0j + w_j, and S rho and
K' rho are FFT products (:meth:`OperatorSet.product`).  No route on a
circle asks for an N x N operator; each is built from its row on request.

Partition masks additionally carry a per-node *Steklov coverage fraction*:
the fraction of the node's quadrature cell [t_i - h/2, t_i + h/2) covered by
Steklov arcs.  Spectral quantities become continuous functions of the arc
endpoints this way, instead of jumping each time an endpoint crosses a node.
"""

from __future__ import annotations

from functools import cached_property

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


# the node reversal j -> N - j is a symmetry of the nodes when the reflection
# across the line through nodes 0 and N/2 matches every node, normal, speed and
# curvature with its mirror node's to this fraction of their size (at most
# 5.3e-15 on the catalog curves at N = 64-4096; 0.22-1.3 on a kite or an
# ellipse whose parameter is shifted by 0.3, 1.8e-9 to 1e-8 by 1e-9); the
# rotation j -> j + 1 is one by the same measure and tolerance (at most
# 1.7e-15 on circles, also shifted by 0.3, at N = 16-16384; 3.0e-9 on
# ellipse(1, 1 - 1e-9), 0.88-1.7 on the other catalog curves)
_MIRROR_TOL = 1e-12


class OperatorSet:
    """Immutable bundle of discretized boundary operators on N nodes.

    Build through :func:`assemble`.  All arrays are read-only views.
    ``mirror`` tells whether the node reversal j -> N - j is a symmetry of
    the nodes (module docstring, "Mirror halves"), ``rotation`` whether the
    rotation j -> j + 1 is one too ("Circulant on the circle").  A rotation
    set keeps row 0 of S and K' and the symbols of S, K' and T, solves and
    multiplies by FFT, factors nothing, and builds each N x N operator on
    request.  Any other set factors the completed trace map T on first use:
    in its even and odd blocks on a mirror set, whole (``trace_map_lu``)
    otherwise; :meth:`trace_solve` solves with them.  H, the Robin constant
    and the all-Steklov :attr:`decomposition` are cached too.
    """

    def __init__(self, curve: BoundaryCurve, params, points, normals, speeds,
                 weights, single_layer, adjoint_double_layer, mirror: bool,
                 rotation: bool):
        self.curve = curve
        self.params = params
        self.points = points
        self.normals = normals
        self.speeds = speeds
        self.weights = weights
        self.mirror = mirror
        self.rotation = rotation
        for arr in (params, points, normals, speeds, weights,
                    single_layer, adjoint_double_layer):
            arr.setflags(write=False)
        if rotation:        # rows 0 of the operators; N x N arrays on request
            self._rows = {"single_layer": single_layer,
                          "adjoint_double_layer": adjoint_double_layer}
            self._symbols = {name: np.fft.rfft(row).real for name, row in self._rows.items()}
            self._trace_symbol = np.fft.rfft(single_layer + weights).real
        else:
            self.single_layer = single_layer
            self.adjoint_double_layer = adjoint_double_layer

    @property
    def n_nodes(self) -> int:
        return len(self.params)

    # on a set without ``rotation`` both are plain attributes set in __init__
    @cached_property
    def single_layer(self) -> np.ndarray:
        return _circulant(self._rows["single_layer"][-np.arange(self.n_nodes)])

    @cached_property
    def adjoint_double_layer(self) -> np.ndarray:
        return _circulant(self._rows["adjoint_double_layer"][-np.arange(self.n_nodes)])

    def product(self, name: str, x: np.ndarray) -> np.ndarray:
        """The operator ``name`` ("single_layer" or "adjoint_double_layer")
        applied to a vector or to each column of a matrix x: by its symbol on
        a rotation set, by :func:`kernels.product` with the N x N array
        otherwise."""
        if self.rotation:
            return self.fft_apply(self._symbols[name], x)
        return kernels.product(getattr(self, name), x)

    def fft_apply(self, symbol: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The circulant with the real ``symbol`` applied to x along axis 0."""
        symbol = symbol.reshape((-1,) + (1,) * (np.ndim(x) - 1))
        return np.fft.irfft(symbol * np.fft.rfft(x, axis=0), self.n_nodes, axis=0)

    @property
    def scaled_dtn_symbol(self) -> np.ndarray:
        """Symbol of X = W^-1/2 H W^-1/2 on a rotation set: its value on the
        modes cos kt and sin kt, k = 0..N/2, the symbol of -I/2 + K' over
        that of T."""
        return (self._symbols["adjoint_double_layer"] - 0.5) / self._trace_symbol

    @property
    def trace_map(self) -> np.ndarray:
        """Completed boundary trace of the single-layer ansatz: S + 1 w^T.

        A new array on every access, in Fortran order so that
        :attr:`trace_map_lu` factors it in place."""
        return np.add(self.single_layer, self.weights, order="F")

    @cached_property
    def trace_map_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factors of the N x N trace map, for ``scipy.linalg.lu_solve``:
        what :meth:`trace_solve` solves with on a set without ``mirror``."""
        lu = sla.lu_factor(self.trace_map, overwrite_a=True)
        for arr in lu:
            arr.setflags(write=False)
        return lu

    def _halves(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Even and odd blocks of an ``a`` that commutes with the node
        reversal, as new C-ordered arrays read from its rows 0..N/2: rows and
        columns 0..N/2 with column N - k added to column k, and rows and
        columns N/2-1..1 with column N - k subtracted from column k."""
        n = self.n_nodes // 2
        even = np.array(a[:n + 1, :n + 1])
        even[:, 1:n] += a[:n + 1, :n:-1]
        odd = np.subtract(a[n - 1:0:-1, n - 1:0:-1], a[n - 1:0:-1, n + 1:])
        return even, odd

    @cached_property
    def _halves_lu(self) -> tuple[tuple, tuple]:
        """LU factors of the transposed even and odd blocks of T on a mirror
        set; the rank-one part 1 w^T is even, so it enters the even block
        only.  The C-ordered blocks are their Fortran-ordered transposes,
        which LAPACK factors in place."""
        n = self.n_nodes // 2
        even, odd = self._halves(self.single_layer)
        even += self.weights[:n + 1]
        even[:, 1:n] += self.weights[:n:-1]
        factors = tuple(sla.lu_factor(b.T, overwrite_a=True) for b in (even, odd))
        for arr in (*factors[0], *factors[1]):
            arr.setflags(write=False)
        return factors

    def trace_solve(self, u: np.ndarray) -> np.ndarray:
        """T^-1 u, for a vector u or each column of a matrix u.

        On a rotation set it is one FFT solve with T's symbol.  On a mirror
        set the even part of u, (u_j + u_N-j)/2, and its odd part,
        (u_j - u_N-j)/2, are solved in their blocks of T (half-size).  A u
        that is not finite comes back so, on every route."""
        if self.rotation:
            return self.fft_apply(1.0 / self._trace_symbol, u)
        if not self.mirror:
            return sla.lu_solve(self.trace_map_lu, u, check_finite=False)
        n = self.n_nodes // 2
        even_lu, odd_lu = self._halves_lu
        rhs = np.array(u[:n + 1])
        rhs[1:n] += u[:n:-1]
        rhs[1:n] *= 0.5
        even = sla.lu_solve(even_lu, rhs, trans=1, overwrite_b=True, check_finite=False)
        # rows j and N - j, in the odd block's order j = N/2-1, ..., 1
        odd = sla.lu_solve(odd_lu, 0.5 * (u[n - 1:0:-1] - u[n + 1:]), trans=1,
                           overwrite_b=True, check_finite=False)
        x = np.empty(np.shape(u))
        x[:n + 1] = even
        x[n + 1:] = even[n - 1:0:-1]
        x[n - 1:0:-1] += odd
        x[n + 1:] -= odd
        return x

    def scaled_dtn_halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Even and odd blocks X_e, X_o of X = W^-1/2 H W^-1/2 on a mirror
        set, in the reversal's orthonormal basis: new, exactly symmetric,
        Fortran-ordered arrays, from one half-size solve each.

        On the node values of the blocks (rows 0..N/2, and N/2-1..1) H acts
        on even and odd vectors as W_b A_b T_b^-1, with A = -I/2 + K' and
        A_b, T_b the blocks of A and T.  The reversal's orthonormal basis
        keeps e_0 and e_N/2 and takes (e_j +- e_N-j)/sqrt 2 for the other
        nodes, so X_b = sym(s A_b T_b^-1 / s) with s = sqrt(w_b), times
        sqrt 2 at the paired nodes of the even block.  Odd rows and columns
        run j = N/2-1, ..., 1.
        """
        n = self.n_nodes // 2
        w = self.weights
        pairs = np.full(n + 1, 2.0)
        pairs[[0, n]] = 1.0
        scales = (np.sqrt(pairs * w[:n + 1]), np.sqrt(w[n - 1:0:-1]))
        blocks = []
        for a, lu, s in zip(self._halves(self.adjoint_double_layer),
                            self._halves_lu, scales):
            a[np.diag_indices_from(a)] -= 0.5
            # a.T is Fortran-ordered, so LAPACK solves T_b^T Y^T = A_b^T in it
            y = sla.lu_solve(lu, a.T, overwrite_b=True).T
            y *= s[:, None]
            y /= s
            x = np.add(y, y.T, order="F")
            x *= 0.5
            blocks.append(x)
        return tuple(blocks)

    @cached_property
    def weighted_dtn(self) -> np.ndarray:
        """Weighted Dirichlet-to-Neumann matrix H = W (-I/2 + K') T^-1 from
        the LU of the N x N trace map, read-only: the decomposition of a set
        without ``mirror`` reads it.  Symmetric to the quadrature's accuracy
        (to 3e-14 of max|H| on the catalog curves at N = 256-512, 7e-7 on
        the kite at N = 64); stored exactly symmetric."""
        a = np.array(self.adjoint_double_layer)
        a[np.diag_indices_from(a)] -= 0.5
        # a.T is Fortran-ordered, so LAPACK solves T^T X = (-I/2 + K')^T in it
        h = sla.lu_solve(self.trace_map_lu, a.T, trans=1, overwrite_b=True).T
        h *= self.weights[:, None]
        h = h + h.T
        h *= 0.5
        h.setflags(write=False)
        return h

    @cached_property
    def decomposition(self):
        """The all-Steklov decomposition (:func:`~steklov.eigensolver.decompose`)."""
        from .eigensolver import _decompose  # the eigensolver imports this module
        return _decompose(self)

    @cached_property
    def robin_constant(self) -> float:
        """Boundary value V of the equilibrium single-layer potential.

        S[psi] = V with integral of psi = 1 reads T psi = V + 1, so
        V = 1 / (w . T^-1 1) - 1; V = log(capacity)/(2*pi) vanishes exactly
        when the curve has logarithmic capacity one.
        """
        ones = self.trace_solve(np.ones(self.n_nodes))
        return float(1.0 / (self.weights @ ones) - 1.0)


def _circulant(row: np.ndarray) -> np.ndarray:
    """The read-only circulant with entry (i, j) = row[(i - j) mod N]."""
    a = sla.circulant(row)
    a.setflags(write=False)
    return a


def _maps_nodes(points, normals, speeds, curvature, origin, src, dst, isometry) -> bool:
    """Whether the isometry fixing ``origin`` (``isometry`` maps vectors)
    maps node src[j] and its normal to node dst[j] and its normal, and the
    two nodes have the same speed and curvature, to ``_MIRROR_TOL`` of their
    sizes.  O(N) work."""
    rel = points - origin
    defect = max(np.max(np.abs(rel[dst] - isometry(rel[src]))) / np.max(np.abs(rel)),
                 np.max(np.abs(normals[dst] - isometry(normals[src]))),
                 np.max(np.abs(speeds[dst] - speeds[src])) / np.max(speeds),
                 np.max(np.abs(curvature[dst] - curvature[src])) / np.max(np.abs(curvature)))
    return bool(defect <= _MIRROR_TOL)


def _mirror_symmetric(points, normals, speeds, curvature) -> bool:
    """Whether the node reversal j -> N - j is a symmetry of the nodes.

    It fixes nodes 0 and N/2, so the only isometry it can be is the
    reflection across the line through them (:func:`_maps_nodes`).
    """
    n = len(points) // 2
    axis = points[n] - points[0]
    axis = axis / np.hypot(*axis)
    index = np.arange(len(points))           # index -j is node N - j
    return _maps_nodes(points, normals, speeds, curvature, points[0], index, -index,
                       lambda v: 2.0 * np.sum(v * axis, axis=1)[:, None] * axis - v)


def _rotation_symmetric(points, normals, speeds, curvature) -> bool:
    """Whether the rotation j -> j + 1 is a symmetry of the nodes.

    It fixes their centroid, so it can only turn about it, by 2 pi/N in the
    sense from node 0 to node 1; node j must be node 0 turned j times
    (:func:`_maps_nodes`).  The whole orbit is compared with node 0: one
    turn moves a curve 1e-9 off a circle by only about 1e-9 2 pi/N.
    """
    index = np.arange(len(points))
    center = np.mean(points, axis=0)
    (x0, y0), (x1, y1) = points[:2] - center
    turns = np.copysign(TWO_PI, x0 * y1 - y0 * x1) * index / len(points)
    c, s = np.cos(turns)[:, None], np.sin(turns)[:, None]
    return _maps_nodes(points, normals, speeds, curvature, center, np.zeros_like(index), index,
                       lambda v: c * v + s * v[:, ::-1] * (-1.0, 1.0))


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
    so beyond the two N x N results only a few blocks of temporaries live.
    Whether the node reversal and the rotation are symmetries is decided
    here, once, from the nodes (:func:`_mirror_symmetric`,
    :func:`_rotation_symmetric`); on a rotation set only row 0 of each
    operator is filled."""
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
    mirror = _mirror_symmetric(pts, nus, sps, curvature)
    rotation = mirror and _rotation_symmetric(pts, nus, sps, curvature)
    n_rows = 1 if rotation else N
    single = np.empty((n_rows, N))
    adjoint = np.empty((n_rows, N))
    for rows in kernels.row_blocks(n_rows, N):
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

    if rotation:
        single, adjoint = single[0], adjoint[0]
    return OperatorSet(curve, t, pts, nus, sps, w, single, adjoint, mirror, rotation)


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
    Both are immutable.  :meth:`count_below` (eigenvalues strictly below
    x), :meth:`value` (eigenvalue j, from 0) and :meth:`source_system`
    (``(solve, condition)`` of H - lam diag(b)) read the owner of the mask's
    spectrum on the decomposition that ``ops`` keeps, built on first use.
    """

    def __init__(self, ops: OperatorSet, partition: BoundaryPartition,
                 is_steklov: np.ndarray, steklov_fraction: np.ndarray):
        self.ops = ops
        self.partition = partition
        self.is_steklov = is_steklov
        self.steklov_fraction = steklov_fraction
        for arr in (is_steklov, steklov_fraction):
            arr.setflags(write=False)

    @property
    def steklov_weights(self) -> np.ndarray:
        """Quadrature weights of the Steklov part: w_i * fraction_i."""
        return self.ops.weights * self.steklov_fraction

    @cached_property
    def _spectrum(self):
        """The :class:`~steklov.eigensolver.MaskSpectrum` of the mask."""
        from .eigensolver import MaskSpectrum  # the eigensolver imports this module
        return MaskSpectrum(self.ops.decomposition, self)

    def count_below(self, x: float) -> int:
        return self._spectrum.count_below(x)

    def value(self, j: int) -> float:
        return self._spectrum.value(j)

    def source_system(self, lam: float):
        return self._spectrum.source_system(lam)


def inverse_norm(solve, weights: np.ndarray) -> float:
    """The 2-norm of the inverse of a scaled system W^-1/2 A W^-1/2, given
    ``solve``: v -> A^-1 v and W = diag(weights), estimated from below by
    three power steps on W^1/2 A^-1 W^1/2 from a fixed pseudo-random start
    (so no mirror symmetry hides the near-null direction)."""
    w = 1.0 / np.sqrt(weights)
    x = np.random.default_rng(0).standard_normal(len(w))
    for _ in range(3):
        x = solve(x / (w * np.sqrt(np.sum(x * x)))) / w
    return float(np.sqrt(np.sum(x * x)))


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

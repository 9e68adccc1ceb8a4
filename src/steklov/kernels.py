"""Free-space Laplace kernel and its adjoint normal derivative.

Convention pinned once, here: the fundamental solution is

    gamma0(x, y) = (1/2*pi) * log|x - y|

with the *positive* log, and its derivative along the outward normal at x is

    gamma0_dnu(x, nu_x, y) = (x - y) . nu_x / (2*pi |x - y|^2).

On the boundary diagonal the normal-derivative kernel stays bounded for
smooth curves and tends to kappa(t) / (4*pi), with kappa the signed
curvature; that limit supplies the Nystrom diagonal.

All functions broadcast over leading axes; points live in the last axis of
length 2.

Interior evaluation at P points against M nodes is one pass,
:func:`node_pass`: per row block of :func:`row_blocks` it forms the
differences to the nodes once and takes from them each point's nearest node
and its distance, its Gauss integral (the inside test) and its layer sum.
A refined ``evaluate_layer_potential`` runs the pass a second time, against
the upsampled nodes, for the points within 10 node weights of the boundary
only.  No P x M array is formed, and the peak memory is a few blocks of
``BLOCK_ENTRIES`` doubles, whatever P.
The Nystrom assembly (``discretization.assemble``) fills its two N x N
operators in the same row blocks, one kernel call of each kind per block.

:func:`product` is the library's dense matrix product with an N-sized
operand: it runs on scipy's BLAS, so that these products share one thread
pool with the LAPACK calls around them (see the ``eigensolver`` docstring).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas

from .errors import SingularityError
from .geometry import BoundaryCurve

_MIN_SEPARATION = 1e-14
# entries of one row block of a points-by-nodes array: 2**16 doubles (0.5 MB)
# stay in a core's L2 cache through the several passes that build a kernel
BLOCK_ENTRIES = 1 << 16


def row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of an (n_rows, n_cols) array, each of at most
    ``BLOCK_ENTRIES`` entries (but at least one row); the last one holds the
    rows that are left."""
    step = max(1, BLOCK_ENTRIES // max(1, n_cols))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _fortran(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(f, trans)`` with a = f, or a = f^T when ``trans`` is 1.  A
    C-contiguous array passes as its transposed view, which is Fortran-ordered,
    so the BLAS wrappers take it without a copy; any other passes as it is."""
    if a.flags.c_contiguous and not a.flags.f_contiguous:
        return a.T, 1
    return a, 0


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for float arrays of one or two dimensions, not both vectors,
    on scipy's BLAS (``dgemm``, or ``dgemv`` when one factor is a vector).

    A matrix result comes back in Fortran order.  A strided operand is
    copied; a contiguous one in either order is not.  numpy multiplies a
    zero-size one."""
    if a.size == 0 or b.size == 0:
        return a @ b
    if b.ndim == 1:
        f, trans = _fortran(a)
        return blas.dgemv(1.0, f, b, trans=trans)
    f, trans = _fortran(b)
    if a.ndim == 1:                   # a @ b = b^T a
        return blas.dgemv(1.0, f, a, trans=1 - trans)
    fa, trans_a = _fortran(a)
    return blas.dgemm(1.0, fa, f, trans_a=trans_a, trans_b=trans)


def _differences(x, y):
    """x - y as two coordinate arrays of the broadcast shape."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    return [np.subtract(x[..., k], y[..., k], out=np.empty(shape)) for k in (0, 1)]


def _norm(dx, dy):
    """|x - y| = sqrt(dx*dx + dy*dy), the arithmetic of ``np.linalg.norm``,
    built in the buffer of ``dx``; overwrites both arguments."""
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    return np.sqrt(dx, out=dx)


def check_separation(dist):
    """Refuse distances at which the kernels are singular (coincident points)."""
    if np.any(dist < _MIN_SEPARATION):
        raise SingularityError("kernel evaluated at coincident points")


def _distance(dx, dy):
    """:func:`_norm`, refusing coincident points."""
    dist = _norm(dx, dy)
    check_separation(dist)
    return dist


def node_pass(x, nodes, w_rho=None, normals=None, weights=None):
    """What interior evaluation needs of the points ``x`` (P, 2) against the
    boundary ``nodes`` (M, 2), from one pass over the differences y - x.

    Returns ``(nearest, sep, layer, gauss)`` per point: the index of the
    nearest node and the distance to it; the layer sum
    sum_j gamma0(x, y_j) w_rho_j when ``w_rho`` is given; and the discrete
    Gauss integral sum_j gamma0_dnu(y_j, nu_j, x) w_j (about 1 inside the
    curve, 0 outside) when the nodes' outward ``normals`` and ``weights`` are
    given.  A quantity not asked for comes back as None.  The points go in
    the row blocks of :func:`row_blocks`, each sum is one :func:`product`
    per block, and a point on a node is allowed: its sums are not finite.
    """
    x = np.asarray(x, dtype=float)
    nearest = np.empty(len(x), dtype=np.intp)
    sep = np.empty(len(x))
    layer = None if w_rho is None else np.empty(len(x))
    gauss = None if normals is None else np.empty(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in row_blocks(len(x), len(nodes)):
            dx, dy = _differences(nodes, x[rows, None, :])
            if gauss is not None:
                flux = dx * normals[:, 0]
                flux += dy * normals[:, 1]
            r2 = np.multiply(dx, dx, out=dx)
            r2 += np.multiply(dy, dy, out=dy)
            nearest[rows] = np.argmin(r2, axis=1)
            sep[rows] = np.sqrt(np.take_along_axis(r2, nearest[rows, None], axis=1)[:, 0])
            if gauss is not None:
                gauss[rows] = product(np.divide(flux, r2, out=flux), weights)
            if layer is not None:
                layer[rows] = product(np.log(r2, out=r2), w_rho)
    if gauss is not None:
        gauss /= 2.0 * np.pi
    if layer is not None:
        layer /= 4.0 * np.pi          # log|x - y| / 2 pi = log|x - y|^2 / 4 pi
    return nearest, sep, layer, gauss


def gamma0(x, y) -> np.ndarray:
    """Fundamental solution (1/2*pi) log|x - y|; symmetric in its arguments."""
    dist = _distance(*_differences(x, y))
    return np.log(dist, out=dist) / (2.0 * np.pi)


def gamma0_dnu(x, nu_x, y) -> np.ndarray:
    """Normal derivative of gamma0 in its first argument.

    Parameters
    ----------
    x : array (..., 2)
        Evaluation points (boundary points in the Nystrom context).
    nu_x : array (..., 2)
        Unit outward normals at x.
    y : array (..., 2)
        Source points.

    Returns
    -------
    (x - y) . nu_x / (2*pi |x - y|^2), broadcast over leading axes.
    """
    dx, dy = _differences(x, y)
    nu_x = np.asarray(nu_x, dtype=float)
    flux = dx * nu_x[..., 0] + dy * nu_x[..., 1]
    return flux / (2.0 * np.pi * _distance(dx, dy)**2)


def gamma0_dnu_diagonal_limit(curve: BoundaryCurve, t) -> np.ndarray:
    """Smooth diagonal limit of gamma0_dnu along a curve: kappa(t) / (4*pi)."""
    return curve.curvature(t) / (4.0 * np.pi)

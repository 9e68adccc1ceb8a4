"""Source fields for the mixed Steklov-Neumann problem.

The field of a unit interior point source is split into the free-space
logarithmic potential plus a harmonic correction.  The correction is
carried by the completed single-layer representation S[rho] + w.rho on
every curve, the form the eigensolver also uses.  The boundary conditions
are solved in the eigensolver's symmetric trace form, (H - lam diag(b)) u =
W f, and the density is rho = T^-1 u; one refinement pass takes its
residual in the boundary conditions on the density themselves,
(-I/2 + K') rho - lam frac (T rho) = f.  Boundary values come from the trace
of the representation, and interior values reuse the layer potential plus
the constant w.rho.

Reported values are ``value - field.offset``; :func:`solve_greens` sets the
offset to the arclength boundary mean on curves of logarithmic capacity one
(|Robin constant| < 1e-8) and to zero elsewhere.

:func:`solve_greens` refuses a spectral parameter near an eigenvalue.  A
tuning run passes the owner of the mask's spectrum (its decomposition or
final ``ArcSpectrum``), whose counts guard and whose ``source_system``
solves; otherwise the :class:`~steklov.discretization.PartitionMask`'s
stored eigenvalues guard and its LU solves.  No state is kept here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla

from . import kernels
from .discretization import OperatorSet, PartitionMask
from .eigensolver import (
    AccuracyWarning,
    SecularBreakdown,
    layer_pass,
    solve_spectrum_near,
)
from .errors import (
    ConvergenceError,
    GeometryError,
    PartitionError,
    ResonanceError,
    SingularityError,
)

# refuse to solve when lambda is this close (relatively) to an eigenvalue
RESONANCE_GUARD = 1e-6
# relative linear-system residual accepted after one refinement pass
RESIDUAL_TOL = 1e-10

# eigenvalues solved near lam when the mask's stored values do not reach it
NEAREST_COUNT = 6

_SOURCE_CLEARANCE = 1e-8
# |Robin constant| below which a curve counts as capacity one
_CAPACITY_ONE_TOL = 1e-8
# evaluation points this close to a node read its boundary value
_ON_NODE = 1e-12


@dataclass
class GreensField:
    """Solved point-source field on one partition at one spectral parameter.

    Attributes
    ----------
    source : ndarray, shape (2,)
        Interior source location.
    lam : float
        Spectral parameter of the Steklov condition.
    steklov_fraction : ndarray, shape (N,)
        Per-node Steklov coverage of the partition the field was solved on.
    correction_density : ndarray, shape (N,)
        Single-layer density rho carrying the harmonic correction.
    completion_constant : float
        Additive constant w.rho of the completed representation.
    boundary_values : ndarray, shape (N,)
        Field values at the quadrature nodes.
    residual : float
        Relative residual of the boundary conditions on the density.
    condition_estimate : float
        2-norm condition number of the scaled system W^-1/2 (H - lam
        diag(b)) W^-1/2 on every route: exact on the all-Steklov
        decomposition, estimated by three power steps on the inverse on an
        arc's secular solve and on the mask's LU.
    offset : float
        Constant every reported value drops: the arclength boundary mean of
        the field on capacity-one curves, 0.0 elsewhere.
    """

    source: np.ndarray
    lam: float
    steklov_fraction: np.ndarray
    correction_density: np.ndarray
    completion_constant: float
    boundary_values: np.ndarray
    residual: float
    condition_estimate: float
    offset: float


def nearest_eigenvalue(ops: OperatorSet, mask: PartitionMask, lam: float) -> float:
    """Eigenvalue of the masked problem closest to ``lam``.

    Read from ``mask.eigenvalues`` when ``lam`` lies within that contiguous
    run of the spectrum; otherwise ``NEAREST_COUNT`` eigenvalues are solved
    near it.
    """
    values = mask.eigenvalues
    if values is None or not values[0] <= lam <= values[-1]:
        pairs = solve_spectrum_near(ops, mask, float(lam), count=NEAREST_COUNT)
        values = np.array([p.value for p in pairs])
    return float(values[np.argmin(np.abs(values - lam))])


def _guard(ops: OperatorSet, mask: PartitionMask, lam: float, spectrum) -> None:
    """ResonanceError when an eigenvalue lies in lam's guard band: by the
    owner's counts at both ends of the band, naming the in-band eigenvalue
    nearest lam, or by the mask's nearest eigenvalue without an owner."""
    band = RESONANCE_GUARD * (1.0 + abs(lam))
    if spectrum is None:
        near = nearest_eigenvalue(ops, mask, lam)
        if abs(lam - near) > band:
            return
    else:
        inside = range(spectrum.count_below(lam - band), spectrum.count_below(lam + band))
        if not inside:
            return
        try:
            near = min((spectrum.value(i) for i in inside), key=lambda v: abs(v - lam))
        except SecularBreakdown:
            near = nearest_eigenvalue(ops, mask, lam)
    raise ResonanceError(
        "spectral parameter %.12g is within the guard band of the "
        "eigenvalue %.12g" % (lam, near), nearest_eigenvalue=near)


# --- solve --------------------------------------------------------------------

def solve_greens(ops: OperatorSet, mask: PartitionMask, source, lam: float,
                 spectrum=None) -> GreensField:
    """Solve for the field of a point source at ``source``.

    Parameters
    ----------
    ops, mask : OperatorSet, PartitionMask
        Discretized boundary operators and the partition mask.
    source : array_like, shape (2,)
        Strictly interior source location.
    lam : float
        Spectral parameter; must keep a relative distance of at least
        ``RESONANCE_GUARD`` from every eigenvalue of the partition.
    spectrum : SteklovDecomposition or ArcSpectrum, optional
        Owner of the mask's spectrum, whose counts guard ``lam`` and whose
        ``source_system`` solves; by default the mask's stored eigenvalues
        guard and its LU (:meth:`PartitionMask.source_system`) solves.

    Raises
    ------
    GeometryError
        If the source is not strictly interior.
    ResonanceError
        If ``lam`` is inside the guard band of an eigenvalue; the error
        carries the nearest eigenvalue found.
    ConvergenceError
        If the linear solve cannot reach the residual tolerance.
    """
    source = np.array(source, dtype=float).reshape(2)
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError("spectral parameter must be finite and nonnegative")

    (j,), (sep,), _, (gauss,) = kernels.node_pass(
        source[None, :], ops.points, normals=ops.normals, weights=ops.weights)
    if sep < _SOURCE_CLEARANCE:
        raise GeometryError("source point sits on the boundary")
    if gauss < 0.5:
        raise GeometryError(
            "source point (%g, %g) is not inside the domain" % tuple(source))
    if sep < ops.weights[j]:
        warnings.warn(
            "source is within one node spacing of the boundary; "
            "the corrected field loses accuracy there", AccuracyWarning)

    _guard(ops, mask, lam, spectrum)
    if spectrum is None:
        lu, cond = mask.source_system(lam)
        solve = partial(sla.lu_solve, lu)
    else:
        solve, cond = spectrum.source_system(lam)
    g0 = kernels.gamma0(ops.points, source)
    steklov_lam = lam * mask.steklov_fraction
    rhs = steklov_lam * g0 - kernels.gamma0_dnu(ops.points, ops.normals, source)

    def density(r):
        # (H - lam diag(b)) u = W r in the trace, then rho = T^-1 u
        return ops.trace_solve(solve(ops.weights * r))

    def density_residual(rho):
        # rhs - ((-I/2 + K') rho - lam frac (T rho)), the conditions on rho,
        # with T rho = S rho + (w . rho)
        return rhs - (ops.product("adjoint_double_layer", rho) - 0.5 * rho
                      - steklov_lam * (ops.product("single_layer", rho) + ops.weights @ rho))

    rho = density(rhs)
    rho += density(density_residual(rho))        # one refinement pass
    residual = float(np.max(np.abs(density_residual(rho)))
                     / (1.0 + np.max(np.abs(rhs))))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            "source solve stalled at relative residual %.3e "
            "(condition estimate %.3e)" % (residual, cond))

    constant = float(ops.weights @ rho)
    boundary = g0 + ops.product("single_layer", rho) + constant
    # on capacity-one curves the layer cannot carry constants: report mean-free
    offset = (float((ops.weights @ boundary) / np.sum(ops.weights))
              if abs(ops.robin_constant) < _CAPACITY_ONE_TOL else 0.0)

    source.setflags(write=False)
    rho.setflags(write=False)
    boundary.setflags(write=False)
    return GreensField(
        source=source, lam=lam, steklov_fraction=mask.steklov_fraction,
        correction_density=rho, completion_constant=constant,
        boundary_values=boundary, residual=residual, condition_estimate=cond,
        offset=offset)


# --- evaluation ----------------------------------------------------------------

def eval_greens(field: GreensField, ops: OperatorSet, y, refine: int = 1):
    """Evaluate the field at interior points.

    ``y`` may be a single point or an array of shape (..., 2).  One pass of
    the points against the layer nodes
    (:func:`~steklov.eigensolver.layer_pass`) finds each point's nearest
    node, tests the points for insideness and sums the correction layer.
    Points on a node read the stored boundary value; elsewhere the value is
    the free-space term plus the layer, upsampled by ``refine`` on the points
    within 10 node weights of the boundary and with the accuracy warning of
    :func:`~steklov.eigensolver.evaluate_layer_potential`.
    """
    y = np.asarray(y, dtype=float)
    pts = y.reshape(-1, 2)
    if np.any(np.linalg.norm(pts - field.source, axis=1) < _SOURCE_CLEARANCE):
        raise SingularityError("evaluation point coincides with the source")

    layer, nearest, sep = layer_pass(ops, field.correction_density, pts, refine,
                                     on_node=_ON_NODE)
    off = sep >= _ON_NODE
    vals = field.boundary_values[nearest]
    vals[off] = kernels.gamma0(pts[off], field.source) + layer[off]
    return float(vals[0]) if y.ndim == 1 else vals.reshape(y.shape[:-1])


# --- derived quantities ---------------------------------------------------------

def boundary_product_profile(field_x: GreensField, field_y: GreensField
                             ) -> np.ndarray:
    """Pointwise product of two fields' boundary values.

    Both fields must be solved on the same partition at the same spectral
    parameter; the profile drives the arc-placement selection.
    """
    if field_x.lam != field_y.lam:
        raise ValueError(
            "boundary product needs equal spectral parameters, got "
            "%g and %g" % (field_x.lam, field_y.lam))
    if (field_x.steklov_fraction.shape != field_y.steklov_fraction.shape
            or not np.array_equal(field_x.steklov_fraction,
                                  field_y.steklov_fraction)):
        raise PartitionError("boundary product needs fields solved "
                             "on the same partition")
    return field_x.boundary_values * field_y.boundary_values

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

:func:`solve_greens` refuses a spectral parameter near an eigenvalue.  One
owner of the mask's spectrum guards by its counts and solves by its
``source_system``: a tuning run's decomposition or final ``ArcSpectrum``,
or else the mask (its ``MaskSpectrum``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .discretization import OperatorSet, PartitionMask
from .eigensolver import RESONANCE_GUARD, AccuracyWarning, layer_pass
# kept only as a name the benchmark's traced pass patches (perfbench/spans.py)
from .eigensolver import solve_spectrum_near  # noqa: F401
from .errors import (
    ConvergenceError,
    GeometryError,
    PartitionError,
    ResonanceError,
    SingularityError,
)

# relative linear-system residual accepted after one refinement pass
RESIDUAL_TOL = 1e-10

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
        diag(b)) W^-1/2: exact on the all-Steklov decomposition, estimated
        by three power steps on the inverse by the other owners.
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


def _guard(lam: float, owner) -> None:
    """ResonanceError when the owner's counts at both ends of lam's guard
    band differ, naming the in-band eigenvalue nearest lam."""
    band = RESONANCE_GUARD * (1.0 + abs(lam))
    inside = range(owner.count_below(lam - band), owner.count_below(lam + band))
    near = min((owner.value(i) for i in inside), key=lambda v: abs(v - lam), default=None)
    if near is not None:
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
    spectrum : SteklovDecomposition, ArcSpectrum or PartitionMask, optional
        The one owner of the mask's spectrum, whose counts guard ``lam``
        and whose ``source_system`` solves (an ``ArcSpectrum`` answers from
        the mask where its own solve cannot); by default the mask itself.

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

    owner = spectrum or mask
    _guard(lam, owner)
    g0 = kernels.gamma0(ops.points, source)
    steklov_lam = lam * mask.steklov_fraction
    rhs = steklov_lam * g0 - kernels.gamma0_dnu(ops.points, ops.normals, source)

    def density_residual(rho):
        # rhs - ((-I/2 + K') rho - lam frac (T rho)), the conditions on rho,
        # with T rho = S rho + (w . rho)
        return rhs - (ops.product("adjoint_double_layer", rho) - 0.5 * rho
                      - steklov_lam * (ops.product("single_layer", rho) + ops.weights @ rho))

    solve, cond = owner.source_system(lam)
    # (H - lam diag(b)) u = W r in the trace, then rho = T^-1 u
    rho = ops.trace_solve(solve(ops.weights * rhs))
    rho += ops.trace_solve(solve(ops.weights * density_residual(rho)))  # refinement
    residual = float(np.max(np.abs(density_residual(rho))) / (1.0 + np.max(np.abs(rhs))))
    if not residual <= RESIDUAL_TOL:
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

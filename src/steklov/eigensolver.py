"""Eigensolver for the discretized mixed spectral problem.

With u = T phi the completed boundary trace of a single-layer density phi,
the mixed problem reads H u = lambda diag(b) u: H is the weighted
Dirichlet-to-Neumann matrix ``OperatorSet.weighted_dtn`` (symmetric) and b
the Steklov weights, zero on Neumann nodes.  One self-adjoint solve of this
form returns real eigenvalues, no spurious modes and an
L2(Gamma_S)-orthonormal basis of every cluster.

* :func:`solve_spectrum_near` -- the eigenpairs nearest a target.  Used by
  the optimizer loop; the resonance guard reads the values it leaves on
  the mask.
* :func:`solve_spectrum` -- the lowest eigenpairs: the spectrum is
  nonnegative, so these are the ones nearest 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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


@dataclass(frozen=True)
class SpectrumRequest:
    count: int = 10
    cluster_tol: float = 1e-6

    def __post_init__(self):
        if self.count < 1:
            raise EigenSolveError("request needs count >= 1")
        if self.cluster_tol <= 0:
            raise EigenSolveError("cluster_tol must be positive")


def _assign_clusters(values: np.ndarray, cluster_tol: float) -> np.ndarray:
    ids = np.zeros(len(values), dtype=int)
    for i in range(1, len(values)):
        gap = values[i] - values[i - 1]
        ids[i] = ids[i - 1] + (0 if gap <= cluster_tol * (1.0 + abs(values[i])) else 1)
    return ids


def solve_spectrum(ops: OperatorSet, mask: PartitionMask,
                   req: SpectrumRequest = SpectrumRequest()) -> list[EigenPair]:
    """Lowest eigenpairs of the mixed problem, sorted ascending and clustered."""
    return solve_spectrum_near(ops, mask, 0.0, req.count, req)


def solve_spectrum_near(ops: OperatorSet, mask: PartitionMask, sigma: float,
                        count: int = 6,
                        req: SpectrumRequest = SpectrumRequest()) -> list[EigenPair]:
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
        scaled = h[np.ix_(on, on)] - h[np.ix_(on, off)] @ coupling
        scale = 1.0 / np.sqrt(b[on])
        scaled *= np.outer(scale, scale)
        values, vecs = sla.eigh(scaled, subset_by_value=(sigma - half, top))
        if len(values) < k:
            values, vecs = sla.eigh(scaled)
        nearest = np.sort(np.argsort(np.abs(values - sigma), kind="stable")[:k])
        traces = np.empty((ops.n_nodes, k))
        traces[on] = scale[:, None] * vecs[:, nearest]
        traces[off] = -coupling @ traces[on]
        values, rotation = sla.eigh(traces.T @ h @ traces, (traces.T * b) @ traces)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"self-adjoint eigensolve failed: {exc}") from exc
    values.setflags(write=False)
    mask.eigenvalues = values
    traces = traces @ rotation
    # sign convention: the largest entry of every trace is positive
    traces *= np.copysign(1.0, traces[np.argmax(np.abs(traces), axis=0), np.arange(k)])
    densities = sla.lu_solve(ops.trace_map_lu, traces)
    ids = _assign_clusters(values, req.cluster_tol)
    return [EigenPair(float(lam), d, t, int(c))
            for lam, d, t, c in zip(values, densities.T, traces.T, ids)]


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
# eigenfunction reconstruction
# ---------------------------------------------------------------------------

def interiority(ops: OperatorSet, x) -> float:
    """Discrete Gauss integral at x: ~1 inside the curve, ~0 outside."""
    vals = kernels.gamma0_dnu(ops.points, ops.normals, np.asarray(x, dtype=float))
    return float(np.sum(ops.weights * vals))


def evaluate_layer_potential(ops: OperatorSet, density: np.ndarray, x) -> float:
    """Completed single-layer potential of `density` at the interior point x."""
    g = kernels.gamma0(np.asarray(x, dtype=float), ops.points)
    return float(np.sum(ops.weights * density * g) + np.sum(ops.weights * density))


def eval_eigenfunction_at(pair: EigenPair, ops: OperatorSet, x) -> float:
    """Value of the eigenfunction at a strictly interior point.

    Warns (AccuracyWarning) when x comes within one node spacing of the
    boundary, where the plain quadrature of the layer potential loses
    accuracy.
    """
    x = np.asarray(x, dtype=float)
    if interiority(ops, x) < 0.5:
        raise GeometryError(f"point {x.tolist()} is not inside '{ops.curve.name}'")
    dists = np.linalg.norm(ops.points - x[None, :], axis=-1)
    j = int(np.argmin(dists))
    spacing = TWO_PI / ops.n_nodes * ops.speeds[j]
    if dists[j] < spacing:
        warnings.warn(
            f"evaluation point within one node spacing of the boundary "
            f"(distance {dists[j]:.2e})", AccuracyWarning, stacklevel=2)
    return evaluate_layer_potential(ops, pair.density, x)


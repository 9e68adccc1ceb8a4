"""First-order predictors for flipping a short Steklov arc to Neumann.

When a small arc of arclength 2*eps centered at c is removed from the
Steklov part (covered, i.e. turned Neumann), the tracked eigenvalue moves by

    lambda_eps - lambda_0 = 2 * eps * lambda_0 * sum_i u_i(c)^2
                            + O(eps^2 * log(1/eps)),

the sum running over an L2(Gamma_S)-orthonormal basis of the eigenvalue's
cluster, and the Green's function at fixed interior points moves by

    S_eps(x, y) - S(x, y) = 2 * lambda * eps * S(x, c) * S(y, c) + O(eps^2).

Everything here is a pure formula over values the caller supplies; no
solves are triggered, so the optimizer can call these inside its loop and
decide for itself what to recompute.  Orthonormality of a supplied cluster
is *checked* (when the quadrature weights are passed in), never silently
restored: the formulas presuppose an orthonormal basis and renormalizing
behind the caller's back would hide real bugs.
"""

from __future__ import annotations

import numpy as np

from .errors import ClusterError, StagnationError

_ORTHONORMAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def predict_eigenvalue_shift(lambda0: float, center_values, epsilon: float) -> float:
    """Predicted eigenvalue lambda0 + 2*eps*lambda0*sum(u(c)^2).

    ``center_values`` are the values at the arc center of an
    L2(Gamma_S)-orthonormal basis of the tracked cluster; ``epsilon`` is the
    arc's arclength half-length.
    """
    if lambda0 < 0:
        raise ValueError("base eigenvalue must be >= 0")
    if epsilon < 0:
        raise ValueError("arc half-length epsilon must be >= 0")
    center = np.atleast_1d(np.asarray(center_values, dtype=float))
    return float(lambda0 + 2.0 * epsilon * lambda0 * np.sum(center ** 2))


def verify_orthonormal(cluster_traces, steklov_weights,
                       tol: float = _ORTHONORMAL_TOL) -> None:
    """Raise unless the rows of ``cluster_traces`` are L2(Gamma_S)-orthonormal.

    ``steklov_weights`` are the quadrature weights restricted to the Steklov
    part (``mask.steklov_weights``), so the Gram matrix is
    traces @ diag(w) @ traces^T.
    """
    traces = np.atleast_2d(np.asarray(cluster_traces, dtype=float))
    w = np.asarray(steklov_weights, dtype=float)
    gram = (traces * w) @ traces.T
    defect = float(np.max(np.abs(gram - np.eye(len(traces)))))
    if defect > tol:
        raise ClusterError(
            f"cluster is not orthonormal on the Steklov part "
            f"(Gram defect {defect:.3e}); orthonormalize before predicting")


def predict_eigenfunction_limit(cluster_traces, center_values, query_values,
                                steklov_weights=None):
    """Limit of the tracked eigenfunction as the covered arc shrinks.

    Returns sum_i q_i * u_i(c) / sqrt(sum_i u_i(c)^2), where ``q_i`` are the
    cluster's values at the query location(s): scalars give a scalar, full
    trace rows give the combined trace.  The combination has unit
    L2(Gamma_S) norm when the cluster is orthonormal; passing
    ``steklov_weights`` enforces that instead of trusting the caller.
    """
    center = np.atleast_1d(np.asarray(center_values, dtype=float))
    norm2 = float(np.sum(center ** 2))
    if norm2 <= 0.0:
        raise StagnationError(
            "every cluster member vanishes at the arc center; "
            "the eigenfunction limit is undefined there")
    if steklov_weights is not None:
        verify_orthonormal(cluster_traces, steklov_weights)
    query = np.atleast_1d(np.asarray(query_values, dtype=float))
    if query.shape[0] != center.shape[0]:
        raise ClusterError(
            f"{query.shape[0]} query rows for a cluster of {center.shape[0]}")
    combined = np.tensordot(center, query, axes=(0, 0)) / np.sqrt(norm2)
    return float(combined) if combined.ndim == 0 else combined


def predict_greens_perturbation(s_xy: float, s_xc: float, s_yc: float,
                                lam: float, epsilon: float) -> float:
    """Predicted Green's value after covering the arc: s_xy + 2*lam*eps*s_xc*s_yc.

    ``s_xc`` and ``s_yc`` are the unperturbed boundary values at the arc
    center for sources x and y; the caller must keep ``lam`` away from the
    eigenvalues of both partitions (the solve itself guards that).
    """
    return float(s_xy + 2.0 * lam * epsilon * s_xc * s_yc)

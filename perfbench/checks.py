"""Output checks applied to every benchmark operation.

Each check takes plain numbers (not solver objects), returns ``None`` when
the result is acceptable and a one-line reason when it is not.  An
operation whose check returns a reason counts as failed.
"""

from __future__ import annotations

import math
import re

import numpy as np

# closed-form agreement on the all-Steklov disk (as in the acceptance test)
DISK_TOL = 1e-6
# slack on the arclength upper bounds 2*pi*(j-1)/|Gamma_S|
BOUND_TOL = 1e-6
# source-field reciprocity G(a, b) = G(b, a), relative to max(1, |G|)
RECIPROCITY_TOL = 1e-8
# allowed distance of the log-log field slope from the pole order -1
POLE_SLOPE_TOL = 0.1
# the refused request must name the eigenvalue to this relative accuracy
REFUSAL_TOL = 1e-8


def check_spectrum(values, steklov_length: float, exact=None) -> str | None:
    """Sorted eigenvalues against the mixed-problem bounds (and closed form).

    ``values`` are the lowest eigenvalues in ascending order; every one must
    satisfy lambda_j <= 2*pi*(j-1)/|Gamma_S|, and the third must lie strictly
    below 4*pi/|Gamma_S|.  With ``exact`` given (the disk spectrum) the
    values must also match it to ``DISK_TOL``.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 3 or not np.all(np.isfinite(values)):
        return f"expected at least 3 finite eigenvalues, got {values.tolist()}"
    if np.any(np.diff(values) < 0.0):
        return "eigenvalues are not sorted ascending"
    if exact is not None:
        exact = np.asarray(exact, dtype=float)
        if exact.shape != values.shape:
            return f"got {values.size} eigenvalues, closed form has {exact.size}"
        err = float(np.max(np.abs(values - exact)))
        if err > DISK_TOL:
            return f"disk spectrum off by {err:.3e} (tolerance {DISK_TOL:g})"
    j = np.arange(values.size)
    excess = values - 2.0 * math.pi * j / steklov_length
    worst = int(np.argmax(excess))
    if excess[worst] > BOUND_TOL:
        return (f"eigenvalue {worst + 1} = {values[worst]:.9g} exceeds its "
                f"upper bound by {excess[worst]:.3e}")
    if not values[2] < 4.0 * math.pi / steklov_length:
        return f"third eigenvalue {values[2]:.9g} violates the strict bound"
    return None


def check_tuning(converged: bool, final_eigenvalue: float, lambda_star: float,
                 c_tol: float, accepted, records, reference_records=None
                 ) -> str | None:
    """A finished tuning run: converged, on target, monotone, reproducible.

    ``reference_records`` are the records of an earlier run of the same
    configuration; when given, ``records`` must equal them exactly.
    """
    if not converged:
        return "run did not report convergence"
    if not abs(final_eigenvalue - lambda_star) <= c_tol:
        return (f"final eigenvalue {final_eigenvalue:.9g} is more than "
                f"{c_tol:g} from the target {lambda_star:g}")
    accepted = list(accepted)
    if not accepted:
        return "no trial was accepted"
    if any(not a < b for a, b in zip(accepted, accepted[1:])):
        return "accepted eigenvalues do not increase strictly"
    if reference_records is not None and list(records) != list(reference_records):
        return "a repeat of the same configuration gave different records"
    return None


def check_reciprocity(forward: float, backward: float) -> str | None:
    """G_a(b) against G_b(a) for one pair of interior sources."""
    scale = max(1.0, abs(forward), abs(backward))
    gap = abs(forward - backward)
    if not np.isfinite(gap) or gap > RECIPROCITY_TOL * scale:
        return (f"reciprocity broken: {forward:.12g} vs {backward:.12g} "
                f"(relative gap {gap / scale:.3e})")
    return None


def pole_slope(gaps, magnitudes) -> float:
    """Least-squares slope of log(magnitude) against log(gap)."""
    return float(np.polyfit(np.log(gaps), np.log(magnitudes), 1)[0])


def check_pole_order(gaps, magnitudes) -> str | None:
    """Field size near an eigenvalue must grow like 1/(lambda_j - lambda)."""
    magnitudes = np.asarray(magnitudes, dtype=float)
    if np.any(~np.isfinite(magnitudes)) or np.any(magnitudes <= 0.0):
        return "field magnitudes must be finite and positive"
    slope = pole_slope(gaps, magnitudes)
    if abs(slope + 1.0) > POLE_SLOPE_TOL:
        return f"log-log slope {slope:.4f} is not near the pole order -1"
    return None


def check_refusal(error: Exception | None, eigenvalue: float,
                  expected_type: type) -> str | None:
    """A request inside the guard band must raise and name the eigenvalue."""
    if error is None:
        return "request inside the guard band was answered instead of refused"
    if not isinstance(error, expected_type):
        return f"refused with {type(error).__name__}, not {expected_type.__name__}"
    tol = REFUSAL_TOL * (1.0 + abs(eigenvalue))
    named = getattr(error, "nearest_eigenvalue", math.nan)
    if not abs(named - eigenvalue) <= tol:
        return f"refusal names {named!r}, expected {eigenvalue:.12g}"
    numbers = [float(x) for x in re.findall(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?",
                                            str(error))]
    if not any(abs(x - eigenvalue) <= tol for x in numbers):
        return f"refusal message does not name the eigenvalue: {error}"
    return None

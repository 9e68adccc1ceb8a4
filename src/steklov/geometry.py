"""Smooth closed boundary curves and Steklov/Neumann boundary partitions.

A curve is a counterclockwise 2*pi-periodic parametrization t -> x(t) of a
smooth Jordan curve, carried around together with its first two derivatives
so that normals, speeds and the curvature-based kernel diagonal are available
everywhere.  Arclength <-> parameter conversion goes through a truncated
Fourier series of the speed |x'(t)|: for the analytic curves in the built-in
catalog the series converges geometrically, so cumulative arclength is
available at (essentially) machine precision for arbitrary parameters.

Partitions are stored in *parameter* space as an ordered cyclic list of
labelled arcs.  Arc surgery (inserting or growing a Neumann arc) is specified
in *arclength*, matching how the optimizer thinks about boundary intervals,
and converted through the curve's arclength tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import GeometryError, PartitionError

TWO_PI = 2.0 * np.pi

STEKLOV = "steklov"
NEUMANN = "neumann"

# Tolerance for partition bookkeeping (parameter space).
_ARC_TOL = 1e-12


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class BoundaryCurve:
    """Smooth closed curve t in [0, 2*pi) -> R^2 with differential data.

    Parameters
    ----------
    eval_fn, derivative_fn, second_derivative_fn : callable
        Vectorized maps from parameter arrays of shape (...,) to point
        arrays of shape (..., 2).
    name : str
        Catalog identifier, used by the CLI and in error messages.
    fourier_modes : int
        Sample count for the Fourier representation of the speed; the
        built-in curves are entire, so the default is far more than enough
        for 1e-10 arclength accuracy.
    """

    def __init__(
        self,
        eval_fn: Callable[[np.ndarray], np.ndarray],
        derivative_fn: Callable[[np.ndarray], np.ndarray],
        second_derivative_fn: Callable[[np.ndarray], np.ndarray],
        name: str = "custom",
        fourier_modes: int = 1024,
    ):
        self._eval = eval_fn
        self._deriv = derivative_fn
        self._deriv2 = second_derivative_fn
        self.name = name
        self._m = int(fourier_modes)
        self._speed_hat: np.ndarray | None = None
        self.validate()

    # -- differential data ----------------------------------------------------

    def eval(self, t) -> np.ndarray:
        return self._eval(np.asarray(t, dtype=float))

    def derivative(self, t) -> np.ndarray:
        return self._deriv(np.asarray(t, dtype=float))

    def second_derivative(self, t) -> np.ndarray:
        return self._deriv2(np.asarray(t, dtype=float))

    def speed(self, t) -> np.ndarray:
        return np.linalg.norm(self.derivative(t), axis=-1)

    def curvature(self, t) -> np.ndarray:
        """Signed curvature; positive on counterclockwise convex arcs."""
        d = self.derivative(t)
        dd = self.second_derivative(t)
        num = d[..., 0] * dd[..., 1] - d[..., 1] * dd[..., 0]
        return num / self.speed(t) ** 3

    def validate(self, samples: int = 720) -> None:
        """Check closure, regularity and counterclockwise orientation."""
        t = np.linspace(0.0, TWO_PI, samples, endpoint=False)
        gap = np.linalg.norm(self.eval(0.0) - self.eval(TWO_PI))
        if gap > 1e-9:
            raise GeometryError(f"curve '{self.name}' is not closed: gap {gap:.3e}")
        sp = self.speed(t)
        if np.min(sp) <= 1e-12:
            raise GeometryError(f"curve '{self.name}' has a degenerate tangent")
        pts = self.eval(t)
        d = self.derivative(t)
        signed_area = 0.5 * np.mean(pts[:, 0] * d[:, 1] - pts[:, 1] * d[:, 0]) * TWO_PI
        if signed_area <= 0.0:
            raise GeometryError(
                f"curve '{self.name}' is not counterclockwise (signed area {signed_area:.3e})"
            )

    # -- arclength machinery ----------------------------------------------------

    def _speed_coefficients(self) -> np.ndarray:
        if self._speed_hat is None:
            tj = TWO_PI * np.arange(self._m) / self._m
            self._speed_hat = np.fft.rfft(self.speed(tj)) / self._m
        return self._speed_hat

    def arclength(self, t) -> np.ndarray:
        """Cumulative arclength S(t) from parameter 0; S(t + 2*pi) = S(t) + perimeter.

        Evaluated from the Fourier series of the speed: the mean contributes
        c0 * t and each oscillatory mode an exact antiderivative, so the
        result is spectrally accurate for any real t.
        """
        t = np.asarray(t, dtype=float)
        c = self._speed_coefficients()
        k = np.arange(1, len(c))
        # 2 * Re[c_k (exp(i k t) - 1) / (i k)] summed over the positive modes
        phases = np.exp(1j * np.multiply.outer(t, k))
        osc = 2.0 * np.real((phases - 1.0) @ (c[1:] / (1j * k)))
        return np.real(c[0]) * t + osc

    @property
    def perimeter(self) -> float:
        return float(self.arclength(TWO_PI))

    def parameter_at_arclength(self, s) -> np.ndarray:
        """Inverse of :meth:`arclength`; monotone since the speed is positive."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        per = self.perimeter
        flat = s_arr.ravel()
        out = np.empty_like(flat)
        for i, si in enumerate(flat):
            wraps = np.floor(si / per)
            s0 = si - wraps * per
            if s0 <= 0.0:
                t0 = 0.0
            else:
                t0 = brentq(lambda t: float(self.arclength(t)) - s0, 0.0, TWO_PI,
                            xtol=1e-14, rtol=8.9e-16)
            out[i] = t0 + wraps * TWO_PI
        out = out.reshape(s_arr.shape)
        return out if np.ndim(s) else float(out[0])


def point_normal_speed(curve: BoundaryCurve, t):
    """Point, outward unit normal and parametric speed at parameter t.

    For a counterclockwise parametrization the outward normal is the tangent
    rotated clockwise by pi/2: nu = (y', -x') / |x'|.
    """
    pt = curve.eval(t)
    d = curve.derivative(t)
    sp = np.linalg.norm(d, axis=-1)
    if np.min(sp) <= 1e-12:
        raise GeometryError(f"degenerate tangent on '{curve.name}'")
    normal = np.stack([d[..., 1], -d[..., 0]], axis=-1) / sp[..., None]
    return pt, normal, sp


def arclength_of(curve: BoundaryCurve, t_a: float, t_b: float) -> float:
    """Arclength of the counterclockwise run from t_a to t_b.

    The parameter distance is reduced mod 2*pi; a full-period request
    (t_b - t_a a nonzero multiple of 2*pi) returns the perimeter.
    """
    d = float(t_b) - float(t_a)
    d_mod = d % TWO_PI
    if d_mod == 0.0 and d != 0.0:
        d_mod = TWO_PI
    a = float(t_a) % TWO_PI
    return float(curve.arclength(a + d_mod) - curve.arclength(a))


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

def circle(radius: float = 1.0) -> BoundaryCurve:
    r = float(radius)
    if r <= 0:
        raise GeometryError("circle radius must be positive")

    def ev(t):
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def d1(t):
        return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)

    def d2(t):
        return np.stack([-r * np.cos(t), -r * np.sin(t)], axis=-1)

    name = "circle" if r == 1.0 else f"circle(r={r:g})"
    return BoundaryCurve(ev, d1, d2, name=name, fourier_modes=64)


def ellipse(a: float = 1.0, b: float = 0.5) -> BoundaryCurve:
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise GeometryError("ellipse semi-axes must be positive")

    def ev(t):
        return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)

    def d1(t):
        return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)

    def d2(t):
        return np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1)

    return BoundaryCurve(ev, d1, d2, name=f"ellipse({a:g},{b:g})")


def kite() -> BoundaryCurve:
    """The bean-shaped test curve (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""

    def ev(t):
        return np.stack([np.cos(t) + 0.65 * np.cos(2 * t) - 0.65,
                         1.5 * np.sin(t)], axis=-1)

    def d1(t):
        return np.stack([-np.sin(t) - 1.3 * np.sin(2 * t),
                         1.5 * np.cos(t)], axis=-1)

    def d2(t):
        return np.stack([-np.cos(t) - 2.6 * np.cos(2 * t),
                         -1.5 * np.sin(t)], axis=-1)

    return BoundaryCurve(ev, d1, d2, name="kite")


def flower(eps: float = 0.1, k: int = 5) -> BoundaryCurve:
    """Perturbed circle r(t) = 1 + eps*cos(k t); k = 0 is a circle of radius 1 + eps."""
    eps = float(eps)
    k = int(k)
    if abs(eps) >= 1.0:
        raise GeometryError("flower amplitude must satisfy |eps| < 1")

    def radius(t):
        return 1.0 + eps * np.cos(k * t)

    def dradius(t):
        return -eps * k * np.sin(k * t)

    def ddradius(t):
        return -eps * k * k * np.cos(k * t)

    def ev(t):
        r = radius(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def d1(t):
        r, dr = radius(t), dradius(t)
        return np.stack([dr * np.cos(t) - r * np.sin(t),
                         dr * np.sin(t) + r * np.cos(t)], axis=-1)

    def d2(t):
        r, dr, ddr = radius(t), dradius(t), ddradius(t)
        return np.stack([ddr * np.cos(t) - 2 * dr * np.sin(t) - r * np.cos(t),
                         ddr * np.sin(t) + 2 * dr * np.cos(t) - r * np.sin(t)], axis=-1)

    return BoundaryCurve(ev, d1, d2, name=f"flower(eps={eps:g},k={k})")


_CATALOG: dict[str, Callable[..., BoundaryCurve]] = {
    "circle": circle,
    "ellipse": ellipse,
    "kite": kite,
    "flower": flower,
}


def curve_from_name(name: str, **params) -> BoundaryCurve:
    """Instantiate a catalog curve by name; used by the CLI config."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise GeometryError(
            f"unknown curve '{name}' (available: {', '.join(sorted(_CATALOG))})"
        ) from None
    return factory(**params)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """One labelled parameter interval, run counterclockwise from t_start.

    t_start lies in [0, 2*pi); t_end = t_start + parameter length, so a
    wrapping arc has t_end > 2*pi.  Zero-length arcs (t_end == t_start) are
    legal markers: they label a single boundary point and contain no nodes.
    """

    t_start: float
    t_end: float
    label: str

    def __post_init__(self):
        if self.label not in (STEKLOV, NEUMANN):
            raise PartitionError(f"unknown arc label '{self.label}'")
        if not (-_ARC_TOL <= self.t_start < TWO_PI):
            raise PartitionError(f"arc start {self.t_start} outside [0, 2*pi)")
        if not (self.t_start - _ARC_TOL <= self.t_end <= self.t_start + TWO_PI + _ARC_TOL):
            raise PartitionError("arc parameter length outside [0, 2*pi]")

    @property
    def parameter_length(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class ArcSpec:
    """A prospective Neumann arc: midpoint parameter and arclength half-length."""

    center: float
    half_length: float

    def __post_init__(self):
        if self.half_length < 0.0:
            raise PartitionError("arc half-length must be nonnegative")


class BoundaryPartition:
    """Cyclic decomposition of one curve's parameter circle into labelled arcs.

    Immutable: every operation returns a new partition.  Arcs are kept sorted
    by start parameter and must tile [0, 2*pi) exactly (up to 1e-12); at most
    the trailing arc wraps past 2*pi.
    """

    def __init__(self, curve: BoundaryCurve, arcs: Sequence[Arc]):
        self.curve = curve
        arcs = tuple(sorted(arcs, key=lambda a: (a.t_start, a.t_end)))
        if not arcs:
            raise PartitionError("partition needs at least one arc")
        total = sum(a.parameter_length for a in arcs)
        if abs(total - TWO_PI) > 1e-10:
            raise PartitionError(f"arcs cover parameter measure {total!r}, expected 2*pi")
        positive = [a for a in arcs if a.parameter_length > 0.0]
        for cur, nxt in zip(positive, positive[1:] + positive[:1]):
            gap = (nxt.t_start - cur.t_end) % TWO_PI
            gap = min(gap, TWO_PI - gap)
            if gap > 1e-10:
                raise PartitionError(
                    f"arcs leave a gap or overlap of {gap:.3e} near t = {cur.t_end:.6f}"
                )
        self.arcs = arcs

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def all_steklov(curve: BoundaryCurve) -> "BoundaryPartition":
        return BoundaryPartition(curve, [Arc(0.0, TWO_PI, STEKLOV)])

    @staticmethod
    def from_neumann_intervals(
        curve: BoundaryCurve, intervals: Sequence[tuple[float, float]]
    ) -> "BoundaryPartition":
        """Build a partition from Neumann parameter intervals (complement = Steklov).

        Intervals are (t_lo, t_hi) run counterclockwise; t_hi < t_lo wraps.
        Zero-length intervals become marker arcs.  Overlapping intervals are
        rejected.
        """
        events: list[tuple[float, float]] = []
        for lo, hi in intervals:
            lo_w = float(lo) % TWO_PI
            span = (float(hi) - float(lo)) % TWO_PI if float(hi) != float(lo) else 0.0
            if float(hi) - float(lo) >= TWO_PI - _ARC_TOL:
                raise PartitionError("a Neumann interval may not cover the whole boundary")
            events.append((lo_w, span))
        events.sort()

        # Unwrap a trailing interval that crosses the parameter seam so the
        # sweep below only sees intervals inside [0, 2*pi + overhang).
        arcs: list[Arc] = []
        cursor = 0.0
        if events and events[-1][0] + events[-1][1] > TWO_PI:
            cursor = events[-1][0] + events[-1][1] - TWO_PI  # overhang claims [0, cursor)
        lead_in = cursor
        for lo, span in events:
            if lo < cursor - _ARC_TOL:
                raise PartitionError("Neumann intervals overlap")
            if lo > cursor + _ARC_TOL:
                arcs.append(Arc(cursor, lo, STEKLOV))
                cursor = lo
            arcs.append(Arc(lo, lo + span, NEUMANN))
            cursor = max(cursor, lo + span)
        if cursor < TWO_PI + lead_in - _ARC_TOL:
            arcs.append(Arc(cursor % TWO_PI, cursor % TWO_PI + (TWO_PI + lead_in - cursor),
                            STEKLOV))
        return BoundaryPartition(curve, arcs)

    # -- queries -----------------------------------------------------------------

    def neumann_intervals(self) -> list[tuple[float, float]]:
        """Neumann arcs as (t_start, t_start + span) pairs, markers included."""
        return [(a.t_start, a.t_end) for a in self.arcs if a.label == NEUMANN]

    def labels_at(self, t) -> np.ndarray:
        """Labels of the parameters in the array t, elementwise.

        An arc holds the half-open interval [t_start, t_end) mod 2*pi, and
        the first arc (sorted by start) containing a parameter labels it; a
        parameter within 1e-9 of a shared endpoint goes to the arc starting
        there.  Zero-length markers label nothing.
        """
        t = np.asarray(t, dtype=float)
        labels = np.empty(t.shape, dtype=object)
        found = np.zeros(t.shape, dtype=bool)
        positive = [a for a in self.arcs if a.parameter_length > 0.0]
        for arc in positive:
            shifted = (t - arc.t_start) % TWO_PI
            hit = ~found & ((shifted < arc.parameter_length - _ARC_TOL) | (shifted == 0.0))
            labels[hit] = arc.label
            found |= hit
        tw = t % TWO_PI
        for arc in positive:
            hit = ~found & (np.abs((arc.t_start - tw) % TWO_PI) < 1e-9)
            labels[hit] = arc.label
            found |= hit
        if not found.all():
            raise PartitionError(f"no arc contains parameter {t[~found][0]}")
        return labels

    def covered_measure(self, label: str, lo, hi):
        """Parameter measure of `label`-arcs inside the interval [lo, hi), taken mod 2*pi.

        Pure interval arithmetic on arc endpoints; used for per-node coverage
        fractions where quadrature cells straddle arc junctions.  Array
        bounds give an array of measures, computed elementwise.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        width = (hi - lo) % TWO_PI
        width = np.where((width == 0.0) & (hi != lo), TWO_PI, width)
        lo_w = lo % TWO_PI
        total = np.zeros(width.shape)
        for arc in self.arcs:
            if arc.label != label or arc.parameter_length <= 0.0:
                continue
            # overlap of [0, width) with the arc in lo_w-relative coordinates;
            # the arc may cross the interval seam, so test both unwrapped copies
            start = (arc.t_start - lo_w) % TWO_PI
            for s in (start, start - TWO_PI):
                e = s + arc.parameter_length
                total += np.maximum(0.0, np.minimum(e, width) - np.maximum(s, 0.0))
        return float(total) if total.ndim == 0 else total

    def length_of(self, label: str) -> float:
        """Total arclength carrying the given label."""
        return sum(
            arclength_of(self.curve, a.t_start, a.t_end)
            for a in self.arcs
            if a.label == label and a.parameter_length > 0.0
        )

    def neumann_arc_ids(self) -> list[int]:
        return [i for i, a in enumerate(self.arcs) if a.label == NEUMANN]

    @property
    def has_steklov(self) -> bool:
        return any(a.label == STEKLOV and a.parameter_length > 0 for a in self.arcs)


# ---------------------------------------------------------------------------
# arc surgery
# ---------------------------------------------------------------------------

def _host_steklov_arc(partition: BoundaryPartition, t_lo: float, span: float) -> Arc:
    """The Steklov arc whose closure contains [t_lo, t_lo + span], or raise."""
    for arc in partition.arcs:
        if arc.label != STEKLOV or arc.parameter_length <= 0.0:
            continue
        if arc.parameter_length >= TWO_PI - _ARC_TOL:
            return arc  # full-boundary Steklov arc hosts anything
        off = (t_lo - arc.t_start) % TWO_PI
        if off > arc.parameter_length + 1e-9:
            continue
        if off + span <= arc.parameter_length + 1e-9:
            return arc
    raise PartitionError(
        "requested Neumann arc does not fit inside a single Steklov arc"
    )


def insert_neumann_arc(partition: BoundaryPartition, spec: ArcSpec) -> BoundaryPartition:
    """Flip the arclength interval of half-width spec.half_length around spec.center.

    half_length == 0 leaves the labelled measure unchanged but records a
    zero-length Neumann marker, splitting the host Steklov arc at the center.
    """
    curve = partition.curve
    center_w = float(spec.center) % TWO_PI
    if spec.half_length == 0.0:
        t_lo, span = center_w, 0.0
    else:
        s_c = float(curve.arclength(center_w))
        t_lo = float(curve.parameter_at_arclength(s_c - spec.half_length)) % TWO_PI
        t_hi = float(curve.parameter_at_arclength(s_c + spec.half_length)) % TWO_PI
        span = (t_hi - t_lo) % TWO_PI
    _host_steklov_arc(partition, t_lo, span)
    intervals = partition.neumann_intervals() + [(t_lo, t_lo + span)]
    result = BoundaryPartition.from_neumann_intervals(curve, intervals)
    if not result.has_steklov:
        raise PartitionError("Neumann arc would exhaust the Steklov boundary")
    return result


def extend_neumann_arc(
    partition: BoundaryPartition, arc_id: int, delta: float
) -> BoundaryPartition:
    """Grow Neumann arc `arc_id` by arclength `delta` on each side."""
    if delta < 0.0:
        raise PartitionError("extension length must be nonnegative")
    arcs = partition.arcs
    if not (0 <= arc_id < len(arcs)) or arcs[arc_id].label != NEUMANN:
        raise PartitionError(f"arc_id {arc_id} is not a Neumann arc")
    if delta == 0.0:
        return partition
    curve = partition.curve
    arc = arcs[arc_id]
    old_len = arclength_of(curve, arc.t_start, arc.t_end) if arc.parameter_length > 0 else 0.0
    if partition.length_of(NEUMANN) + 2 * delta >= curve.perimeter - 1e-12:
        raise PartitionError("extension would exhaust the Steklov boundary")
    s_lo = float(curve.arclength(arc.t_start)) - delta
    s_hi = s_lo + old_len + 2 * delta
    t_lo = float(curve.parameter_at_arclength(s_lo)) % TWO_PI
    t_hi = float(curve.parameter_at_arclength(s_hi)) % TWO_PI
    span = (t_hi - t_lo) % TWO_PI

    intervals = []
    for i in partition.neumann_arc_ids():
        if i == arc_id:
            continue
        other = arcs[i]
        # markers swallowed by the widened arc simply disappear
        if other.parameter_length == 0.0 and \
                (other.t_start - t_lo) % TWO_PI <= span:
            continue
        intervals.append((other.t_start, other.t_end))
    intervals.append((t_lo, t_lo + span))
    try:
        result = BoundaryPartition.from_neumann_intervals(curve, intervals)
    except PartitionError as exc:
        raise PartitionError(f"extension collides with another Neumann arc: {exc}") from exc
    if not result.has_steklov:
        raise PartitionError("extension would exhaust the Steklov boundary")
    return result

"""Curve catalog, arclength tables and partition surgery."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ellipe

from steklov.errors import GeometryError, PartitionError
from steklov.geometry import (
    NEUMANN,
    STEKLOV,
    TWO_PI,
    Arc,
    ArcSpec,
    BoundaryCurve,
    BoundaryPartition,
    arclength_of,
    circle,
    curve_from_name,
    ellipse,
    extend_neumann_arc,
    flower,
    insert_neumann_arc,
    kite,
    point_normal_speed,
)

# Independent perimeter oracles: plain trapezoid of |x'| on 10^4 nodes
# (spectrally accurate for periodic analytic integrands), frozen here.
KITE_PERIMETER = 9.324022673284960
FLOWER_PERIMETER = 6.659998374918336  # eps=0.1, k=5


# ---------------------------------------------------------------------------
# differential data
# ---------------------------------------------------------------------------

def test_circle_point_normal_speed_at_zero():
    pt, nu, sp = point_normal_speed(circle(), 0.0)
    assert_allclose(pt, [1.0, 0.0], atol=1e-15)
    assert_allclose(nu, [1.0, 0.0], atol=1e-15)
    assert_allclose(sp, 1.0, atol=1e-15)


def test_circle_normal_at_quarter_turn():
    _, nu, _ = point_normal_speed(circle(), np.pi / 2)
    assert_allclose(nu, [0.0, 1.0], atol=1e-15)


def test_kite_point_at_zero():
    pt = kite().eval(0.0)
    assert_allclose(pt, [1.0, 0.0], atol=1e-15)


def test_normals_orthogonal_to_tangents_on_catalog():
    t = np.linspace(0, TWO_PI, 97, endpoint=False)
    for curve in (circle(), ellipse(1.0, 0.5), kite(), flower(0.1, 5)):
        _, nu, _ = point_normal_speed(curve, t)
        tang = curve.derivative(t)
        dots = np.sum(nu * tang, axis=-1)
        assert np.max(np.abs(dots)) < 1e-12, curve.name


def test_normals_point_outward_on_convex_curves():
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    for curve in (circle(), ellipse(1.0, 0.5)):
        pt, nu, _ = point_normal_speed(curve, t)
        assert np.all(np.sum(pt * nu, axis=-1) > 0), curve.name


def test_normals_have_unit_length():
    t = np.linspace(0, TWO_PI, 50, endpoint=False)
    _, nu, _ = point_normal_speed(kite(), t)
    assert_allclose(np.linalg.norm(nu, axis=-1), 1.0, atol=1e-14)


def test_curvature_of_circles():
    assert_allclose(circle().curvature(1.3), 1.0, atol=1e-14)
    assert_allclose(circle(3.0).curvature(np.linspace(0, 6, 7)), 1 / 3.0, atol=1e-14)


def test_clockwise_curve_rejected():
    def ev(t):
        return np.stack([np.cos(t), -np.sin(t)], axis=-1)

    def d1(t):
        return np.stack([-np.sin(t), -np.cos(t)], axis=-1)

    def d2(t):
        return np.stack([-np.cos(t), np.sin(t)], axis=-1)

    with pytest.raises(GeometryError):
        BoundaryCurve(ev, d1, d2, name="cw-circle")


def test_curve_from_name_catalog_and_unknown():
    assert curve_from_name("kite").name == "kite"
    assert curve_from_name("circle", radius=2.0).perimeter == pytest.approx(4 * np.pi)
    with pytest.raises(GeometryError):
        curve_from_name("triangle")


# ---------------------------------------------------------------------------
# arclength
# ---------------------------------------------------------------------------

def test_circle_half_and_full_period_arclength():
    c = circle()
    assert arclength_of(c, 0.0, np.pi) == pytest.approx(np.pi, abs=1e-12)
    assert arclength_of(c, 0.0, TWO_PI) == pytest.approx(TWO_PI, abs=1e-12)


def test_kite_perimeter_matches_quadrature_oracle():
    assert kite().perimeter == pytest.approx(KITE_PERIMETER, abs=1e-10)


def test_flower_perimeter_matches_quadrature_oracle():
    assert flower(0.1, 5).perimeter == pytest.approx(FLOWER_PERIMETER, abs=1e-10)


def test_ellipse_perimeter_matches_elliptic_integral():
    a, b = 1.0, 0.5
    assert ellipse(a, b).perimeter == pytest.approx(4 * a * ellipe(1 - (b / a) ** 2),
                                                    abs=1e-10)


def test_arclength_additivity_on_kite():
    c = kite()
    t = (0.3, 2.2, 5.9)
    assert arclength_of(c, t[0], t[1]) + arclength_of(c, t[1], t[2]) == pytest.approx(
        arclength_of(c, t[0], t[2]), abs=1e-10
    )


def test_arclength_wraps_counterclockwise():
    c = circle()
    # from 3*pi/2 ccw to pi/2 is half the circle
    assert arclength_of(c, 3 * np.pi / 2, np.pi / 2) == pytest.approx(np.pi, abs=1e-12)


def test_parameter_at_arclength_roundtrip():
    for curve in (kite(), flower(0.1, 5)):
        t = np.linspace(0.05, TWO_PI - 0.05, 23)
        s = curve.arclength(t)
        back = curve.parameter_at_arclength(s)
        assert np.max(np.abs(back - t)) < 1e-10, curve.name


def test_parameter_at_arclength_handles_wraps():
    c = kite()
    per = c.perimeter
    t = c.parameter_at_arclength(per + 1.0)
    assert t == pytest.approx(float(c.parameter_at_arclength(1.0)) + TWO_PI, abs=1e-10)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_all_steklov_partition():
    p = BoundaryPartition.all_steklov(circle())
    assert p.has_steklov
    assert list(p.labels_at([0.0, 1.0, 6.2])) == [STEKLOV] * 3
    assert p.length_of(STEKLOV) == pytest.approx(TWO_PI, rel=1e-12)
    assert p.length_of(NEUMANN) == 0.0


def test_insert_zero_length_marker_keeps_measure():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=0.0, half_length=0.0))
    assert q.length_of(STEKLOV) == pytest.approx(TWO_PI, rel=1e-12)
    assert q.length_of(NEUMANN) == 0.0
    assert len(q.neumann_arc_ids()) == 1


def test_insert_neumann_arc_on_circle():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=np.pi, half_length=0.1))
    assert list(q.labels_at([np.pi, np.pi - 0.2])) == [NEUMANN, STEKLOV]
    (nid,) = q.neumann_arc_ids()
    arc = q.arcs[nid]
    assert arc.t_start == pytest.approx(np.pi - 0.1, abs=1e-12)
    assert arc.t_end == pytest.approx(np.pi + 0.1, abs=1e-12)


def test_insert_rejects_overlap_with_existing_neumann():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=np.pi, half_length=0.1))
    with pytest.raises(PartitionError):
        insert_neumann_arc(q, ArcSpec(center=np.pi + 0.15, half_length=0.1))


def test_insert_rejects_arc_exceeding_steklov_host():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=0.0, half_length=0.5))
    # remaining Steklov arc has length 2*pi - 1; an arc of half-length 3.0
    # centered opposite cannot fit inside it
    with pytest.raises(PartitionError):
        insert_neumann_arc(q, ArcSpec(center=np.pi, half_length=3.0))


def test_extend_neumann_arc_on_circle():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=np.pi, half_length=0.1))
    (nid,) = q.neumann_arc_ids()
    r = extend_neumann_arc(q, nid, 0.05)
    (nid2,) = r.neumann_arc_ids()
    arc = r.arcs[nid2]
    assert arc.t_start == pytest.approx(np.pi - 0.15, abs=1e-12)
    assert arc.t_end == pytest.approx(np.pi + 0.15, abs=1e-12)


def test_extend_zero_is_identity():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=np.pi, half_length=0.1))
    (nid,) = q.neumann_arc_ids()
    assert extend_neumann_arc(q, nid, 0.0) is q


def test_extend_marker_equals_insert():
    c = kite()
    p = BoundaryPartition.all_steklov(c)
    q = insert_neumann_arc(p, ArcSpec(center=2.0, half_length=0.0))
    (nid,) = q.neumann_arc_ids()
    grown = extend_neumann_arc(q, nid, 0.3)
    direct = insert_neumann_arc(p, ArcSpec(center=2.0, half_length=0.3))
    (gid,) = grown.neumann_arc_ids()
    (did,) = direct.neumann_arc_ids()
    assert grown.arcs[gid].t_start == pytest.approx(direct.arcs[did].t_start, abs=1e-10)
    assert grown.arcs[gid].t_end == pytest.approx(direct.arcs[did].t_end, abs=1e-10)


def test_insert_then_extend_commutes_with_combined_insert():
    c = kite()
    p = BoundaryPartition.all_steklov(c)
    q = insert_neumann_arc(p, ArcSpec(center=2.0, half_length=0.2))
    (nid,) = q.neumann_arc_ids()
    two_step = extend_neumann_arc(q, nid, 0.15)
    one_step = insert_neumann_arc(p, ArcSpec(center=2.0, half_length=0.35))
    (i,) = two_step.neumann_arc_ids()
    (j,) = one_step.neumann_arc_ids()
    assert two_step.arcs[i].t_start == pytest.approx(one_step.arcs[j].t_start, abs=1e-10)
    assert two_step.arcs[i].t_end == pytest.approx(one_step.arcs[j].t_end, abs=1e-10)


def test_extend_collision_with_second_arc():
    p = BoundaryPartition.all_steklov(circle())
    q = insert_neumann_arc(p, ArcSpec(center=0.0, half_length=0.2))
    q = insert_neumann_arc(q, ArcSpec(center=1.0, half_length=0.2))
    # first arc wraps to parameter 0.2; growing the second from (0.8, 1.2)
    # by 0.7 each side reaches 0.1 and must collide with it
    nid = q.neumann_arc_ids()[0]
    with pytest.raises(PartitionError):
        extend_neumann_arc(q, nid, 0.7)


def test_partition_measure_is_conserved_by_surgery():
    c = flower(0.1, 5)
    p = BoundaryPartition.all_steklov(c)
    p = insert_neumann_arc(p, ArcSpec(center=1.0, half_length=0.3))
    p = insert_neumann_arc(p, ArcSpec(center=4.0, half_length=0.2))
    nid = p.neumann_arc_ids()[1]
    p = extend_neumann_arc(p, nid, 0.1)
    total = p.length_of(STEKLOV) + p.length_of(NEUMANN)
    assert total == pytest.approx(c.perimeter, rel=1e-12)


def test_wrapping_neumann_interval():
    p = BoundaryPartition.from_neumann_intervals(circle(), [(6.0, 0.5)])
    assert list(p.labels_at([0.1, 6.1, 3.0])) == [NEUMANN, NEUMANN, STEKLOV]
    assert p.length_of(NEUMANN) == pytest.approx((0.5 - 6.0) % TWO_PI, rel=1e-12)


def test_covered_measure_simple_and_straddling():
    p = BoundaryPartition.from_neumann_intervals(circle(), [(1.0, 2.0)])
    assert p.covered_measure(NEUMANN, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert p.covered_measure(NEUMANN, 0.5, 1.5) == pytest.approx(0.5, abs=1e-12)
    assert p.covered_measure(STEKLOV, 0.5, 1.5) == pytest.approx(0.5, abs=1e-12)
    assert p.covered_measure(NEUMANN, 2.5, 3.0) == 0.0
    # interval straddling the parameter seam
    assert p.covered_measure(STEKLOV, 6.0, 0.5) == pytest.approx(
        (0.5 - 6.0) % TWO_PI, abs=1e-12
    )


def covered_measure_reference(p, label, lo, hi):
    """The interval arithmetic of ``covered_measure`` in plain Python floats."""
    width = (float(hi) - float(lo)) % TWO_PI
    if width == 0.0 and float(hi) != float(lo):
        width = TWO_PI
    lo_w = float(lo) % TWO_PI
    total = 0.0
    for arc in p.arcs:
        if arc.label != label or arc.parameter_length <= 0.0:
            continue
        start = (arc.t_start - lo_w) % TWO_PI
        for s in (start, start - TWO_PI):
            total += max(0.0, min(s + arc.parameter_length, width) - max(s, 0.0))
    return total


def test_covered_measure_array_matches_scalar_calls():
    rng = np.random.default_rng(11)
    for _ in range(40):
        start = rng.uniform(0.0, TWO_PI)
        intervals = [(start, start + rng.uniform(0.05, 2.0))]
        if rng.uniform() < 0.5:
            lo2 = intervals[0][1] + rng.uniform(0.1, 1.0)
            intervals.append((lo2, lo2 + rng.uniform(0.05, 1.5)))
        p = BoundaryPartition.from_neumann_intervals(circle(), intervals)
        n = int(rng.choice([64, 256, 768]))
        t = TWO_PI * np.arange(n) / n
        h = TWO_PI / n
        for label in (STEKLOV, NEUMANN):
            whole = p.covered_measure(label, t - h / 2.0, t + h / 2.0)
            each = [p.covered_measure(label, ti - h / 2.0, ti + h / 2.0) for ti in t]
            reference = [covered_measure_reference(p, label, ti - h / 2.0, ti + h / 2.0)
                         for ti in t]
            assert all(isinstance(v, float) for v in each)
            assert np.array_equal(whole, np.array(each))
            assert np.array_equal(whole, np.array(reference))


def label_at_reference(p, t):
    """The per-parameter arc search of ``labels_at`` in plain Python floats."""
    for arc in p.arcs:
        length = arc.parameter_length
        shifted = (float(t) - arc.t_start) % TWO_PI
        if length > 0.0 and (shifted < length - 1e-12 or shifted == 0.0):
            return arc.label
    tw = float(t) % TWO_PI
    for arc in p.arcs:
        if arc.parameter_length > 0 and abs((arc.t_start - tw) % TWO_PI) < 1e-9:
            return arc.label
    raise PartitionError(f"no arc contains parameter {t}")


def test_labels_at_matches_scalar_search():
    # arc ends on a node, or within the 1e-12 containment tolerance of one
    # (a node just below an end falls to the arc starting there), zero-length
    # markers and arcs shorter than the tolerance
    rng = np.random.default_rng(23)
    offsets = (0.0, 5e-13, -5e-13)
    for _ in range(200):
        n = 2 * int(rng.integers(32, 769))
        t = TWO_PI * np.arange(n) / n

        def end(near):
            if rng.uniform() < 0.25:
                return near
            return float(t[np.searchsorted(t, near % TWO_PI) % n]) + offsets[rng.integers(3)]

        def span():
            return (0.0, 5e-13, rng.uniform(0.01, 2.0))[rng.choice(3, p=(0.2, 0.2, 0.6))]

        lo = end(rng.uniform(0.0, TWO_PI))
        intervals = [(lo, lo + span())]
        if rng.uniform() < 0.5:
            lo2 = end(intervals[0][1] + rng.uniform(0.1, 1.0))
            intervals.append((lo2, lo2 + span()))
        p = BoundaryPartition.from_neumann_intervals(circle(), intervals)
        labels = p.labels_at(t)
        reference = [label_at_reference(p, ti) for ti in t]
        assert list(labels) == reference
        # one parameter at a time labels the same as the whole array
        step = max(1, n // 16)
        assert [p.labels_at([ti])[0] for ti in t[::step]] == reference[::step]


def test_partition_validation_rejects_bad_cover():
    c = circle()
    with pytest.raises(PartitionError):
        BoundaryPartition(c, [Arc(0.0, 3.0, STEKLOV)])
    with pytest.raises(PartitionError):
        BoundaryPartition(c, [Arc(0.0, 3.0, STEKLOV), Arc(2.0, 2.0 + TWO_PI - 3.0, NEUMANN)])


def test_neumann_interval_covering_everything_rejected():
    with pytest.raises(PartitionError):
        BoundaryPartition.from_neumann_intervals(circle(), [(0.0, TWO_PI)])

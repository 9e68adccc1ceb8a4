"""Resonance tuning by growing a Neumann arc on the boundary.

The driver targets a prescribed eigenvalue lambda_star: starting from the
all-Steklov boundary it picks one boundary node from the product of two
point-source fields, among the nodes where the start cluster does not
vanish, plants a zero-length Neumann marker there, and then
repeatedly widens the arc by the half-length suggested by first-order
perturbation theory,

    eps = f * (lambda_star - lam0) / (2 * lam0 * sum_i u_i(L)^2),

where the u_i are the tracked eigenvalue's cluster orthonormalized on the
current Steklov part and evaluated at the insertion node L.  Trials that
overshoot the target are rolled back and f shrinks by ``_SHRINK``; a step
the partition cannot take (the arc would swallow the boundary) is rejected
the same way.  Accepted trials reset f to one.

The tracked eigenvalue is followed by its index j in the spectrum, the
top member of the start cluster.  The arc only grows, so every Steklov
weight stays the same or falls, and by Courant-Fischer the eigenvalue of
index j can only rise: the index names the same eigenvalue on every
trial, whatever crosses it.

The uncovered boundary is decomposed once per run
(:func:`~steklov.eigensolver.decompose`; on a mirror-symmetric curve, as
every catalog curve, from the half-size factors of the trace map, so the
run factors no N x N matrix and never builds H): the start eigenvalue, its
cluster and the spectrum the first source solves check against all come
from that decomposition.  Every trial is solved on the nodes its arc
touches (:class:`~steklov.eigensolver.ArcSpectrum`), which locates
eigenvalue j by counts, starting its root search at the first-order
prediction.  A root the secular count cannot certify falls back to the
candidate mask's own spectrum (:class:`~steklov.eigensolver.MaskSpectrum`).

Source fields enter twice: the insertion point comes from the boundary
profile of the two fields solved at lambda_star on the uncovered boundary,
and the final report compares the field value at the receiver before and
after covering (both less the field's ``offset``, the reporting convention
:func:`~steklov.greens.solve_greens` decides).  The owner of each mask's
spectrum, the decomposition and the final trial's ``ArcSpectrum``, guards
them by its counts and solves them with no N x N factorization; after a
windowed final trial the mask answers for its own spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .asymptotics import predict_eigenvalue_shift
from .discretization import (
    DEFAULT_NODES,
    OperatorSet,
    PartitionMask,
    assemble,
    mask_from_partition,
)
from .eigensolver import (
    ArcSpectrum,
    EigenPair,
    SecularBreakdown,
    SteklovDecomposition,
    cluster_members,
    decompose,
    orthonormalize_cluster,
    solve_spectrum_near,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EigenSolveError,
    PartitionError,
    RequirementError,
    StagnationError,
)
from .geometry import (
    NEUMANN,
    ArcSpec,
    BoundaryCurve,
    BoundaryPartition,
    arclength_of,
    extend_neumann_arc,
    insert_neumann_arc,
)
from .greens import (
    GreensField,
    boundary_product_profile,
    eval_greens,
    solve_greens,
)

TWO_PI = 2.0 * np.pi

# below this cluster weight at the insertion node the predicted step diverges
_WEIGHT_FLOOR = 1e-12
# nodes where the start cluster's weight is below this fraction of its largest
# are no insertion candidates: its eigenfunctions vanish there
_INSERTION_FLOOR = 1e-8
# pairs above the tracked index that the windowed fallback solves
_WINDOWED_PAIRS = 24
# factor f shrinks by after a rejected trial
_SHRINK = 0.8
# eigenvalues below this are treated as the constant mode
_ZERO_MODE_TOL = 1e-8


# ---------------------------------------------------------------------------
# configuration and trace
# ---------------------------------------------------------------------------

def check_node_count(n: int, what: str) -> int:
    """``n`` if a run may use it: at least 32 and even for the log quadrature.

    The one check of every node count a user sets; ``what`` names the setting
    in the :class:`ConfigError` message.
    """
    if n < 32:
        raise ConfigError(f"{what} {n} is below 32")
    if n % 2:
        raise ConfigError(f"{what} {n} is odd; the quadrature needs an even count")
    return n


@dataclass(frozen=True)
class OptimizerConfig:
    """Inputs of one tuning run.

    ``source`` and ``receiver`` must be distinct interior points.
    ``lambda_star`` is the eigenvalue target, which must not
    lie below the first nonzero eigenvalue of the uncovered boundary (that
    is checked against the spectrum when the run starts, not here).
    The run stops once the tracked eigenvalue lies within ``C_tol`` of the
    target, and gives up after ``max_iterations`` trials.
    """

    curve: BoundaryCurve
    source: np.ndarray
    receiver: np.ndarray
    lambda_star: float
    C_tol: float = 1e-3
    max_iterations: int = 200
    n_nodes: int = DEFAULT_NODES

    def __post_init__(self):
        src = np.array(self.source, dtype=float).reshape(2)
        rcv = np.array(self.receiver, dtype=float).reshape(2)
        src.setflags(write=False)
        rcv.setflags(write=False)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "receiver", rcv)
        if np.array_equal(src, rcv):
            raise ConfigError("source and receiver must be distinct points")
        if not (self.lambda_star > 0.0 and np.isfinite(self.lambda_star)):
            raise ConfigError("eigenvalue target must be positive and finite")
        if not (self.C_tol > 0.0):
            raise ConfigError("convergence tolerance must be positive")
        if not np.isfinite(self.C_tol):
            raise ConfigError("convergence tolerance must be finite")
        if self.max_iterations < 1:
            raise ConfigError("at least one trial is required")
        check_node_count(self.n_nodes, "node count")


@dataclass(frozen=True)
class IterationRecord:
    """One trial of the growth loop.

    ``half_length`` is the candidate arc's arclength half-width (cumulative,
    not the increment); for rejected trials the candidate is rolled back and
    the value is informational only.
    """

    index: int
    epsilon_delta: float
    f: float
    eigenvalue: float
    accepted: bool
    arc_start: float
    arc_end: float
    half_length: float


@dataclass
class OptimizerTrace:
    """Everything a finished (or aborted) run has to say for itself."""

    records: list[IterationRecord] = field(default_factory=list)
    insertion_index: int = -1
    insertion_parameter: float = np.nan
    initial_eigenvalue: float = np.nan
    cluster_size: int = 0
    converged: bool = False
    final_eigenvalue: float = np.nan
    final_partition: BoundaryPartition | None = None
    s_steklov: float = np.nan
    s_end: float = np.nan

    def accepted_eigenvalues(self) -> list[float]:
        return [r.eigenvalue for r in self.records if r.accepted]

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def amplification(self) -> float:
        """|field after covering / field before covering| at the receiver."""
        return abs(self.s_end / self.s_steklov)

    @property
    def neumann_length(self) -> float:
        if self.final_partition is None:
            return 0.0
        return self.final_partition.length_of(NEUMANN)

    @property
    def neumann_center_parameter(self) -> float:
        """Parameter of the covered arc's arclength midpoint, in [0, 2*pi)."""
        if self.final_partition is None:
            return np.nan
        intervals = self.final_partition.neumann_intervals()
        if not intervals:
            return np.nan
        t_lo, t_hi = intervals[0]
        curve = self.final_partition.curve
        s_mid = float(curve.arclength(t_lo)) + 0.5 * arclength_of(curve, t_lo, t_hi)
        return float(curve.parameter_at_arclength(s_mid)) % TWO_PI


# ---------------------------------------------------------------------------
# spectral bookkeeping
# ---------------------------------------------------------------------------

def _largest_at_or_below(spectrum: SteklovDecomposition, lambda_star: float) -> int:
    """Index of the largest uncovered-boundary eigenvalue <= lambda_star."""
    values = spectrum.values
    j = int(np.searchsorted(values, lambda_star + 1e-9 * (1.0 + abs(lambda_star)),
                            side="right")) - 1
    if j < 0:
        raise EigenSolveError(
            f"found no eigenvalue at or below {lambda_star:g} on the "
            f"uncovered boundary")
    if values[j] < _ZERO_MODE_TOL:
        above = values[values >= _ZERO_MODE_TOL]
        hint = f"; the first nonzero eigenvalue is {above[0]:.6g}" if len(above) else ""
        raise RequirementError(
            f"target {lambda_star:g} admits only the constant mode below "
            f"it{hint}")
    return j


def next_lower_steklov_eigenvalue(
    curve: BoundaryCurve, n_nodes: int, lambda_star: float,
    *, ops: OperatorSet | None = None,
) -> tuple[float, list[EigenPair]]:
    """Largest uncovered-boundary eigenvalue at or below the target.

    Returns the eigenvalue together with every pair in its multiplicity
    cluster (raw, not orthonormalized).  Raises ``RequirementError`` when
    only the constant mode lies below the target, i.e. the target cannot
    be reached by covering boundary.
    """
    if not (lambda_star > 0.0 and np.isfinite(lambda_star)):
        raise ConfigError("eigenvalue target must be positive and finite")
    if ops is None:
        ops = assemble(curve, n_nodes)
    spectrum = decompose(ops)
    j = _largest_at_or_below(spectrum, lambda_star)
    return float(spectrum.values[j]), spectrum.cluster_at(j)


def _cluster_weight(at_node: np.ndarray) -> float:
    """sum_i u_i(L)^2 of an orthonormalized cluster's values at the node L.

    Raises StagnationError when it is too small for the first-order step.
    """
    weight = float(at_node @ at_node)
    if weight < _WEIGHT_FLOOR:
        raise StagnationError(
            f"cluster weight {weight:.3e} at the insertion node is too small "
            f"to move the eigenvalue at first order")
    return weight


# ---------------------------------------------------------------------------
# insertion point
# ---------------------------------------------------------------------------

def select_insertion_point(field_x: GreensField, field_y: GreensField,
                           s_xy: float, weight: np.ndarray) -> int:
    """Node index where covering the boundary helps the receiver most.

    Takes the two source fields on the uncovered boundary, their reported
    value ``s_xy`` at the receiver and the start cluster's weight sum_i u_i^2
    per node: the node is the argmax of the pointwise product of the
    reported boundary profiles (each less its field's ``offset``) when
    ``s_xy`` is nonnegative and the argmin otherwise, over the nodes where
    the weight is at least ``_INSERTION_FLOOR`` of its largest.  Ties
    resolve to the smallest index, and products within 1e-12 max|profile|
    of the extreme count as tied, so mirror nodes of a symmetric input do
    not compete in rounding.
    """
    field_x, field_y = (replace(f, boundary_values=f.boundary_values - f.offset)
                        for f in (field_x, field_y))
    profile = boundary_product_profile(field_x, field_y)
    if s_xy < 0.0:
        profile = -profile
    tol = 1e-12 * np.max(np.abs(profile))
    profile[weight < _INSERTION_FLOOR * np.max(weight)] = -np.inf
    return int(np.flatnonzero(profile >= np.max(profile) - tol)[0])


# ---------------------------------------------------------------------------
# the growth loop
# ---------------------------------------------------------------------------

def _tracked_cluster(spectrum: SteklovDecomposition, mask: PartitionMask, j: int,
                     predicted: float) -> tuple[list[EigenPair], float, ArcSpectrum | None]:
    """Cluster of eigenvalue j on the candidate mask, its value, and the secular solve.

    The root search starts at the ``predicted`` value.  When the secular
    solve breaks down, the lowest j + ``_WINDOWED_PAIRS`` pairs of the
    mask's own spectrum give pair j and its cluster; the third item is then
    None.
    """
    try:
        arc = ArcSpectrum(spectrum, mask)
        first, last = arc.cluster(j, near=predicted)
        members = arc.pairs(range(first, last + 1))
        return members, members[j - first].value, arc
    except SecularBreakdown:
        pairs = solve_spectrum_near(spectrum.ops, mask, 0.0, count=j + _WINDOWED_PAIRS)
        if j >= len(pairs):
            raise EigenSolveError(f"the candidate mask has no eigenvalue of index {j}")
        return cluster_members(pairs, pairs[j].cluster_id), pairs[j].value, None


def run(config: OptimizerConfig,
        observer: Callable[[IterationRecord], None] | None = None
        ) -> OptimizerTrace:
    """Grow a Neumann arc until the tracked eigenvalue reaches the target.

    One operator set serves the whole run; only the partition masks change
    between trials.  Each trial extends the arc by the first-order step,
    recomputes the tracked eigenvalue on the candidate partition, and
    either keeps the candidate (resetting f to one) or rolls back to the
    previous partition object and shrinks f.  Every solved trial is
    appended to the trace and handed to ``observer`` when given.  A step
    the partition cannot take (an arc that would swallow the whole
    boundary: ``extend_neumann_arc`` raises ``PartitionError``) is a
    rejected trial that solves nothing and leaves no record: f shrinks by
    ``_SHRINK`` as after an overshoot, and the trial counts against
    ``max_iterations``.

    Raises ``RequirementError`` when the target lies below the first
    nonzero eigenvalue, ``StagnationError`` when the eigenspace vanishes
    at the insertion node, and ``ConvergenceError`` when the trial budget
    runs out.
    """
    curve = config.curve
    ops = assemble(curve, config.n_nodes)
    uncovered = BoundaryPartition.all_steklov(curve)
    mask0 = mask_from_partition(ops, uncovered)
    spectrum = decompose(ops)
    start = _largest_at_or_below(spectrum, config.lambda_star)
    lam0, cluster = float(spectrum.values[start]), spectrum.cluster_at(start)
    # the tracked index: the cluster splits as the arc grows, and the member
    # that moves at first order rises to its top
    j = int(np.flatnonzero(spectrum.cluster_ids == spectrum.cluster_ids[start])[-1])

    field_x = solve_greens(ops, mask0, config.source, config.lambda_star, spectrum)
    field_y = solve_greens(ops, mask0, config.receiver, config.lambda_star, spectrum)
    s_steklov = eval_greens(field_x, ops, config.receiver) - field_x.offset
    weight = np.sum([p.trace ** 2 for p in cluster], axis=0)
    node = select_insertion_point(field_x, field_y, s_steklov, weight)

    trace = OptimizerTrace(
        insertion_index=node,
        insertion_parameter=float(ops.params[node]),
        initial_eigenvalue=lam0,
        cluster_size=len(cluster),
        s_steklov=s_steklov,
    )

    partition = insert_neumann_arc(uncovered, ArcSpec(trace.insertion_parameter, 0.0))
    mask = mask_from_partition(ops, partition)
    tracked = cluster
    f = 1.0

    for index in range(config.max_iterations):
        ortho = orthonormalize_cluster(tracked, ops, mask)
        at_node = np.array([p.trace[node] for p in ortho])
        eps = 0.5 * f * (config.lambda_star - lam0) / (lam0 * _cluster_weight(at_node))

        arc_id = partition.neumann_arc_ids()[0]
        try:
            candidate = extend_neumann_arc(partition, arc_id, eps)
        except PartitionError:
            f *= _SHRINK        # an impossible extension: a rejected trial
            continue
        candidate_mask = mask_from_partition(ops, candidate)

        predicted = predict_eigenvalue_shift(lam0, at_node, eps)
        members, lam, arc = _tracked_cluster(spectrum, candidate_mask, j, predicted)

        t_lo, t_hi = candidate.neumann_intervals()[0]
        done = abs(lam - config.lambda_star) <= config.C_tol
        accepted = done or lam < config.lambda_star - config.C_tol
        record = IterationRecord(
            index=index, epsilon_delta=eps, f=f, eigenvalue=lam,
            accepted=accepted, arc_start=t_lo, arc_end=t_hi,
            half_length=0.5 * arclength_of(curve, t_lo, t_hi))
        trace.records.append(record)
        if observer is not None:
            observer(record)

        if accepted:
            partition = candidate
            mask = candidate_mask
            tracked = members
            lam0 = lam
            f = 1.0
            if done:
                break
        else:
            f *= _SHRINK
    else:
        raise ConvergenceError(
            f"target {config.lambda_star:g} not reached within "
            f"{config.max_iterations} trials (last eigenvalue {lam0:.9g})")

    field_end = solve_greens(ops, mask, config.source, config.lambda_star, arc)
    trace.s_end = eval_greens(field_end, ops, config.receiver) - field_end.offset
    trace.converged = True
    trace.final_eigenvalue = lam0
    trace.final_partition = partition
    return trace

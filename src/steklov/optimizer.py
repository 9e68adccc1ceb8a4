"""Resonance tuning by growing a Neumann arc on the boundary.

The driver targets a prescribed eigenvalue lambda_star: starting from the
all-Steklov boundary it picks one boundary node from the product of two
point-source fields, plants a zero-length Neumann marker there, and then
repeatedly widens the arc by the half-length suggested by first-order
perturbation theory,

    eps = f * (lambda_star - lam0) / (2 * lam0 * sum_i u_i(L)^2),

where the u_i are the tracked eigenvalue's cluster orthonormalized on the
current Steklov part and evaluated at the insertion node L.  Trials that
overshoot the target are rolled back and f shrinks by ``_SHRINK``;
accepted trials reset f to one.  The tracked eigenvalue is continued
through partition changes by trace overlap, not by index, so crossings
with unrelated modes do not derail the run.

The uncovered boundary is decomposed once per run
(:func:`~steklov.eigensolver.decompose`): the start eigenvalue, its
cluster and the spectrum the first source solves check against all come
from that decomposition.  Every trial is solved on the nodes its arc
touches (:class:`~steklov.eigensolver.ArcSpectrum`): clusters are solved
outward from the predicted eigenvalue until one member overlaps the tracked
trace by more than ``_OVERLAP_FLOOR``, or until Parseval's identity shows
that no unvisited pair can.  On the trial that reaches the target, the
roots visited, extended to bracket lambda_star, go to its mask for the
final source solve.  A root the secular count cannot certify falls back to
a windowed eigensolve of the candidate mask; both routes choose the same
pair.

Source fields enter twice: the insertion point comes from the boundary
profile of the two fields solved at lambda_star on the uncovered boundary,
and the final report compares the field value at the receiver before and
after covering (both less the field's ``offset``, the reporting convention
:func:`~steklov.greens.solve_greens` decides).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .asymptotics import predict_eigenfunction_limit
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
    ClusterError,
    ConfigError,
    ConvergenceError,
    EigenSolveError,
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
# minimum squared trace overlap accepted as an unambiguous continuation
_OVERLAP_FLOOR = 0.5
# eigenpairs of the windowed eigensolve a secular breakdown falls back to
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

def _largest_at_or_below(spectrum: SteklovDecomposition,
                         lambda_star: float) -> tuple[float, list[EigenPair]]:
    """Largest uncovered-boundary eigenvalue <= lambda_star with its cluster."""
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
    cluster = spectrum.cluster_at(j)
    return float(values[j]), cluster


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
    return _largest_at_or_below(decompose(ops), lambda_star)


def _normalized_combination(ortho: Sequence[EigenPair], node: int,
                            weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Cluster combination concentrated at a node, plus the cluster weight.

    The weight is sum_i u_i(node)^2 for the orthonormalized cluster; the
    trace is :func:`~steklov.asymptotics.predict_eigenfunction_limit` at the
    node, the member of the eigenspace that first-order theory moves when
    the arc grows there, normalized on the Steklov part.
    """
    traces = np.array([p.trace for p in ortho])
    at_node = traces[:, node]
    weight = float(at_node @ at_node)
    if weight < _WEIGHT_FLOOR:
        raise StagnationError(
            f"cluster weight {weight:.3e} at the insertion node is too small "
            f"to move the eigenvalue at first order")
    combo = predict_eigenfunction_limit(traces, at_node, traces)
    return combo / np.sqrt(float(np.sum(weights * combo * combo))), weight


def _overlap_scores(pairs: Sequence[EigenPair], reference: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Squared weighted overlap of each pair's normalized trace with ``reference``.

    Over a basis of the nodes of positive weight, orthonormal in that
    weight, the scores sum to sum(weights * reference**2) (Parseval).
    """
    scores = np.empty(len(pairs))
    for i, p in enumerate(pairs):
        norm2 = float(np.sum(weights * p.trace * p.trace))
        if norm2 <= 0.0:
            raise ClusterError("a candidate trace vanishes on the Steklov part")
        scores[i] = float(np.sum(weights * p.trace * reference)) ** 2 / norm2
    return scores


def _best_continuation(pairs: Sequence[EigenPair], reference: np.ndarray,
                       weights: np.ndarray) -> tuple[EigenPair, float]:
    """Pair whose normalized trace has the largest squared overlap."""
    scores = _overlap_scores(pairs, reference, weights)
    best = int(np.argmax(scores))
    return pairs[best], float(scores[best])


# ---------------------------------------------------------------------------
# insertion point
# ---------------------------------------------------------------------------

def select_insertion_point(field_x: GreensField, field_y: GreensField,
                           s_xy: float) -> int:
    """Node index where covering the boundary helps the receiver most.

    Takes the two source fields on the uncovered boundary and their reported
    value ``s_xy`` at the receiver: the node is the argmax of the pointwise
    product of the reported boundary profiles (each less its field's
    ``offset``) when ``s_xy`` is nonnegative and the argmin otherwise.  Ties
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
    return int(np.flatnonzero(profile >= np.max(profile) - tol)[0])


# ---------------------------------------------------------------------------
# the growth loop
# ---------------------------------------------------------------------------

def _continuation(spectrum: SteklovDecomposition, mask: PartitionMask,
                  lam0: float, predicted: float, reference: np.ndarray, index: int
                  ) -> tuple[EigenPair, list[EigenPair], ArcSpectrum | None]:
    """Tracked pair, its cluster on the candidate mask, and the secular solve.

    The candidate's pairs are an orthonormal basis in its Steklov weights,
    which are at most the current ones, so by Parseval's identity the
    scores of all pairs sum to total = sum(weights * reference**2) <= 1.
    Clusters are solved by the secular equation outward from the predicted
    value until one member scores above ``_OVERLAP_FLOOR`` (no other pair
    can then score higher), or until the unvisited pairs share at most
    ``_OVERLAP_FLOOR`` of the total, when no pair can win and ClusterError
    is certain.  When the secular solve breaks down, one windowed eigensolve
    of ``_WINDOWED_PAIRS`` pairs between lam0 and the prediction decides;
    the third item is then None.
    """
    weights = mask.steklov_weights
    total = left = float(np.sum(weights * reference * reference))
    try:
        arc = ArcSpectrum(spectrum, mask)
        clusters = arc.clusters_outward(predicted)
        while left > _OVERLAP_FLOOR:
            members = next(clusters, None)
            if members is None:
                raise SecularBreakdown("the bracketed secular roots hold no continuation")
            scores = _overlap_scores(members, reference, weights)
            best = int(np.argmax(scores))
            if scores[best] > _OVERLAP_FLOOR:
                return members[best], members, arc
            left -= float(np.sum(scores))
    except SecularBreakdown:
        pairs = solve_spectrum_near(spectrum.ops, mask, 0.5 * (lam0 + predicted),
                                    count=_WINDOWED_PAIRS)
        chosen, score = _best_continuation(pairs, reference, weights)
        if score >= _OVERLAP_FLOOR:
            return chosen, cluster_members(pairs, chosen.cluster_id), None
    raise ClusterError(
        f"eigenvalue continuation is ambiguous at trial {index}: no squared "
        f"trace overlap exceeds {_OVERLAP_FLOOR} of a total {total:.3f}")


def run(config: OptimizerConfig,
        observer: Callable[[IterationRecord], None] | None = None
        ) -> OptimizerTrace:
    """Grow a Neumann arc until the tracked eigenvalue reaches the target.

    One operator set serves the whole run; only the partition masks change
    between trials.  Each trial extends the arc by the first-order step,
    recomputes the tracked eigenvalue on the candidate partition, and
    either keeps the candidate (resetting f to one) or rolls back to the
    previous partition object and shrinks f.  Every trial is appended to
    the trace and handed to ``observer`` when given.

    Raises ``RequirementError`` when the target lies below the first
    nonzero eigenvalue, ``StagnationError`` when the eigenspace vanishes
    at the insertion node, ``ClusterError`` when no candidate trace
    continues the tracked one unambiguously, ``PartitionError`` when the
    arc would swallow the whole boundary, and ``ConvergenceError`` when
    the trial budget runs out.
    """
    curve = config.curve
    ops = assemble(curve, config.n_nodes)
    uncovered = BoundaryPartition.all_steklov(curve)
    mask0 = mask_from_partition(ops, uncovered)
    spectrum = decompose(ops)
    lam0, cluster = _largest_at_or_below(spectrum, config.lambda_star)
    mask0.eigenvalues = spectrum.values

    field_x = solve_greens(ops, mask0, config.source, config.lambda_star)
    field_y = solve_greens(ops, mask0, config.receiver, config.lambda_star)
    del mask0       # and with it an N x N source factorization no trial reads
    s_steklov = eval_greens(field_x, ops, config.receiver) - field_x.offset
    node = select_insertion_point(field_x, field_y, s_steklov)

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
        reference, weight = _normalized_combination(ortho, node,
                                                    mask.steklov_weights)
        eps = 0.5 * f * (config.lambda_star - lam0) / (lam0 * weight)

        arc_id = partition.neumann_arc_ids()[0]
        candidate = extend_neumann_arc(partition, arc_id, eps)
        candidate_mask = mask_from_partition(ops, candidate)

        predicted = lam0 + f * (config.lambda_star - lam0)
        chosen, members, arc = _continuation(spectrum, candidate_mask, lam0, predicted,
                                             reference, index)
        lam = chosen.value

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
                # only the final mask's spectrum is read, by the source solve's
                # guard, which solves the mask itself when none is stored
                if arc is not None:
                    try:
                        arc.store_run(config.lambda_star)
                    except SecularBreakdown:
                        pass
                break
        else:
            f *= _SHRINK
    else:
        raise ConvergenceError(
            f"target {config.lambda_star:g} not reached within "
            f"{config.max_iterations} trials (last eigenvalue {lam0:.9g})")

    field_end = solve_greens(ops, mask, config.source, config.lambda_star)
    trace.s_end = eval_greens(field_end, ops, config.receiver) - field_end.offset
    trace.converged = True
    trace.final_eigenvalue = lam0
    trace.final_partition = partition
    return trace

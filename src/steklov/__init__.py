"""Boundary-integral tools for mixed Steklov-Neumann eigenproblems.

Harmonic functions on a smooth planar domain, carrying a spectral
(Steklov) condition on part of the boundary and a zero-flux (Neumann)
condition on the rest.  A single-layer ansatz on equispaced nodes, with
trigonometric product quadrature for the log singularity, turns the
eigenproblem and the interior source problem into dense linear algebra;
on top of that sits an optimizer that grows a zero-flux arc until a
chosen eigenvalue approaches a target, amplifying the source field at a
receiver point.

Typical session::

    from steklov import assemble, mask_from_partition, solve_spectrum
    from steklov import BoundaryPartition, circle

    ops = assemble(circle(), 256)
    mask = mask_from_partition(ops, BoundaryPartition.all_steklov(circle()))
    for pair in solve_spectrum(ops, mask):
        print(pair.value)

The ``steklov`` console script exposes the same functionality through
run files; see :mod:`steklov.cli`.
"""

from .discretization import (
    OperatorSet,
    PartitionMask,
    assemble,
    mask_from_partition,
)
from .eigensolver import (
    AccuracyWarning,
    EigenPair,
    SpectrumRequest,
    cluster_members,
    orthonormalize_cluster,
    solve_spectrum,
    solve_spectrum_near,
)
from .errors import (
    ClusterError,
    ConfigError,
    ConvergenceError,
    EigenSolveError,
    GeometryError,
    MaskError,
    OracleError,
    PartitionError,
    RequirementError,
    ResonanceError,
    SingularityError,
    StagnationError,
    SteklovError,
)
from .geometry import (
    Arc,
    ArcSpec,
    BoundaryCurve,
    BoundaryPartition,
    circle,
    curve_from_name,
    ellipse,
    extend_neumann_arc,
    flower,
    insert_neumann_arc,
    kite,
)
from .greens import (
    GreensField,
    boundary_product_profile,
    eval_greens,
    solve_greens,
)
from .optimizer import (
    IterationRecord,
    OptimizerConfig,
    OptimizerTrace,
    next_lower_steklov_eigenvalue,
    select_insertion_point,
)
from .optimizer import run as run_optimizer
from .oracles import CheckResult, run_validation_suite

__all__ = [
    # discretization
    "OperatorSet", "PartitionMask", "assemble", "mask_from_partition",
    # eigensolver
    "EigenPair", "SpectrumRequest", "cluster_members",
    "orthonormalize_cluster", "solve_spectrum", "solve_spectrum_near",
    # errors
    "AccuracyWarning", "ClusterError", "ConfigError", "ConvergenceError",
    "EigenSolveError", "GeometryError", "MaskError", "OracleError",
    "PartitionError", "RequirementError", "ResonanceError",
    "SingularityError", "StagnationError", "SteklovError",
    # geometry
    "Arc", "ArcSpec", "BoundaryCurve", "BoundaryPartition", "circle",
    "curve_from_name", "ellipse", "extend_neumann_arc", "flower",
    "insert_neumann_arc", "kite",
    # source fields
    "GreensField", "boundary_product_profile", "eval_greens", "solve_greens",
    # optimizer
    "IterationRecord", "OptimizerConfig", "OptimizerTrace",
    "next_lower_steklov_eigenvalue", "run_optimizer",
    "select_insertion_point",
    # validation
    "CheckResult", "run_validation_suite",
]

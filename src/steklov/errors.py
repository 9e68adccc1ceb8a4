"""Exception types shared across the solver modules.

Every error raised on purpose by this package derives from
:class:`SteklovError`, so callers (and the CLI) can distinguish
anticipated failure modes from genuine bugs.
"""


class SteklovError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(SteklovError):
    """Degenerate or invalid curve data (zero tangent, bad orientation...)."""


class PartitionError(SteklovError):
    """Invalid Steklov/Neumann decomposition of the boundary."""


class SingularityError(SteklovError):
    """Kernel evaluated at (or too close to) its diagonal singularity."""


class MaskError(SteklovError):
    """A node mask without any Steklov node was requested."""


class EigenSolveError(SteklovError):
    """The eigenvalue solve failed, or its request was invalid."""


class ClusterError(SteklovError):
    """A cluster is mixed or not orthonormal."""


class ResonanceError(SteklovError):
    """Green's-function solve requested too close to an eigenvalue.

    Attributes
    ----------
    nearest_eigenvalue : float
        The offending eigenvalue of the current partition.
    """

    def __init__(self, message: str, nearest_eigenvalue: float):
        super().__init__(message)
        self.nearest_eigenvalue = float(nearest_eigenvalue)


class OracleError(SteklovError):
    """A closed-form reference value could not be produced (e.g. bracket failure)."""


class RequirementError(SteklovError):
    """Optimizer preconditions violated (e.g. target below first nonzero eigenvalue)."""


class StagnationError(SteklovError):
    """Optimizer step formula degenerated (eigenfunctions vanish at the insertion point)."""


class ConvergenceError(SteklovError):
    """Iteration budget exhausted before reaching the target tolerance."""


class ConfigError(SteklovError):
    """Malformed or inconsistent run configuration."""

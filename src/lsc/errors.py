"""Exception types raised by the library."""


class LscError(Exception):
    """Base class for all library-specific errors."""


class NonPositiveHessian(LscError):
    """A registered minimum has a Hessian eigenvalue at or below tolerance."""


class ConvergenceFailure(LscError):
    """An iterative refinement did not converge within its iteration cap."""


class BoxTooSmall(LscError):
    """A truncation box does not capture the required mass or structure."""


class QuadratureFailure(LscError):
    """Adaptive quadrature exceeded its refinement depth."""


class DegenerateDecomposition(LscError):
    """The interval construction breaks down (mesh too coarse for the zeros)."""


class OverlappingSupports(LscError):
    """Two bump functions of a partition of unity share lattice points."""


class PartitionNotUnity(LscError):
    """The squared bump functions do not sum to one."""


class AllZero(LscError):
    """Every entry of a vector is below the zero threshold."""


class ZeroVector(LscError):
    """An operation received the zero vector."""


class IllConditionedSpan(LscError):
    """Test vectors are numerically linearly dependent."""


class Exhausted(LscError):
    """An enumeration ran out of elements before producing the requested count."""


class NonPositiveFunction(LscError):
    """A certificate function is not strictly positive on its region."""


class AssumptionsFailed(LscError):
    """A potential fails the assumption checks an experiment needs."""

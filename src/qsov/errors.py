"""Exception hierarchy shared across the package."""


class QsovError(Exception):
    """Base class for all library errors."""


class PoleError(QsovError):
    """A denominator factor vanished (parameter collision)."""


class NotDivisible(QsovError):
    """Exact Laurent-polynomial division left a nonzero remainder."""


class NotPolynomial(QsovError):
    """A simplification that must produce a Laurent polynomial did not."""


class IdentityViolation(QsovError):
    """An identity that must hold exactly failed; carries the residual."""


class NonTerminating(QsovError):
    """A triangular expansion cannot end: an element left its box or a remainder stayed."""


class ToleranceExceeded(QsovError):
    """A numeric check exceeded its tolerance; carries both values."""


class ContourUnsupported(QsovError):
    """Kernel parameters left the unit disk; contour deformation is out of scope."""


class TrendViolation(QsovError):
    """A limit check failed to improve as the limit is approached."""


class CollisionError(QsovError):
    """Two particle coordinates came too close to evaluate safely."""


class DegenerateRoots(QsovError):
    """The separation quadratic has (nearly) coincident roots."""

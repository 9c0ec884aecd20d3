"""Exception hierarchy shared across the package.

Every error family carries a distinct CLI exit code (see ``twistedma.cli``).
"""


class TwistedMAError(Exception):
    """Base class for all package errors."""


class ConfigError(TwistedMAError):
    """Scenario configuration is unparseable or inconsistent."""


class NotAdmissible(TwistedMAError):
    """A potential fails the two-sided ellipticity condition.

    Carries the worst lattice point and the offending eigenvalue so
    breakdowns can be diagnosed rather than silently projected away.
    """

    #: the monitor rows ``flow.run`` emitted before the error, if it ran
    rows = ()

    def __init__(self, message, point=None, eigenvalue=None, block=None):
        super().__init__(message)
        self.point = point
        self.eigenvalue = eigenvalue
        self.block = block


class BarrierViolation(TwistedMAError):
    """The evolving potential escaped its affine barrier sandwich."""

    #: the monitor rows ``flow.run`` emitted before the error
    rows = ()


class IncompatibleData(TwistedMAError):
    """Form data is not square(f) of any potential f.

    It violates the cross compatibility (pluriclosedness) condition, or a
    block is not closed in its own variables, or the two blocks determine
    different potentials.
    """


class NonzeroMeanObstruction(TwistedMAError):
    """Constant part of a form is not in the image of the potential operator.

    On the torus the block means are class data; they must be handled by
    the caller as the background representative, never by the potential.
    """


class NotReducible(TwistedMAError):
    """Field is not invariant along the imaginary axes."""


class ConcavityViolated(TwistedMAError):
    """Input lacks the strict concavity needed by the partial Legendre transform."""


class WindowTooSmall(TwistedMAError):
    """Space-time window around a point is too small to form a jet."""


class PreconditionFailed(TwistedMAError):
    """A comparison-harness precondition does not hold."""


class DegenerateFit(TwistedMAError):
    """Penalized maximizers collapsed before the alpha range was exhausted."""

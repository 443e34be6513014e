"""Exception hierarchy shared by all susy_ces modules.

Every error raised by the public API derives from :class:`SusyCesError`,
so callers can catch one base class.  Errors that signal bad *inputs*
additionally derive from ``ValueError``; errors that signal a *numerical*
failure derive from ``ArithmeticError``.
"""


class SusyCesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SusyCesError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidParams(SusyCesError, ValueError):
    """A parameter combination is rejected (non-finite, wrong sign, ...)."""


class PoleAtNonPositiveInteger(DomainError):
    """The gamma function was evaluated at a non-positive integer."""


class ArgumentTooSmall(SusyCesError, ValueError):
    """|z| is too small for an asymptotic expansion to be meaningful."""


class SeriesRangeExceeded(SusyCesError, ValueError):
    """|z| exceeds the range where the power series retains accuracy.

    Also raised by the pair function of
    :func:`susy_ces.specfun.asymptotic_pair_for` where the large-|z|
    expansion is not certified.  Callers that need values beyond
    the bound read them from that expansion, as
    :func:`susy_ces.scattering.phase_difference` does, or seed inside the
    bound and carry the solution outward with :func:`susy_ces.oracle.integrate`.
    """


class DoubleRangeExceeded(SusyCesError, OverflowError):
    """A value's magnitude exceeds the largest double, about 1.8e308."""


class NonConvergence(SusyCesError, ArithmeticError):
    """An iteration failed to converge within its budget."""


class StepSizeUnderflow(SusyCesError, ArithmeticError):
    """The adaptive integrator was forced below the minimum step size."""


class MaxStepsExceeded(SusyCesError, ArithmeticError):
    """The adaptive integrator exhausted its step budget."""


class NotConverged(SusyCesError, ArithmeticError):
    """A far-field extraction did not reach its tolerance.

    The partial result (when one exists) is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result

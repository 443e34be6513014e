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


class SeriesRangeExceeded(SusyCesError, ValueError):
    """|z| exceeds the range where the power series retains accuracy.

    Also raised by :func:`susy_ces.specfun.asymptotic_pair` where the
    large-|z| expansion is not certified, which takes in every |z| below
    its frontier, about eta^2 and never below 25.  Past the bound, values
    come from that expansion, as
    :func:`susy_ces.scattering.phase_difference` reads them, or are refused.
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

    Nothing in the package raises it any more: the phase ladder stops only
    on its proven bound.  It stays exported because the benchmark's ladder
    workload still names it.  A partial result, when one exists, is
    attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result

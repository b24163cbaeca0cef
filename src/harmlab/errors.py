"""Exception types shared across the library."""


class HarmlabError(Exception):
    """Base class for all library errors."""


class NonRegularGraph(HarmlabError):
    """Operation requires a regular graph."""


class InvalidExponent(HarmlabError):
    """p-norm exponent outside {0} | [1, inf]."""


class UnsupportedGroup(HarmlabError):
    pass


class BallTooLarge(HarmlabError):
    """A Cayley ball or builtin graph exceeded the configured vertex cap."""


class PathExitsBall(HarmlabError):
    """A generator path left the truncated ball."""


class EigensolveFailure(HarmlabError):
    pass


class IntegerProgramFailure(HarmlabError):
    """An integer program was not solved with a proof of optimality."""


class NonConvergence(HarmlabError):
    """Iterative estimate did not converge."""


class SupportHitsBoundary(HarmlabError):
    """Distribution support touched the truncation boundary of a ball."""


class SingularSystem(HarmlabError):
    pass


class NegativeMass(HarmlabError):
    pass


class MaxNormTooLarge(HarmlabError):
    pass


class MassMismatch(HarmlabError):
    pass


class Infeasible(HarmlabError):
    pass


class DisconnectedRegion(HarmlabError):
    pass


class NonZeroSum(HarmlabError):
    pass


class DisconnectedSet(HarmlabError):
    pass


class ComplementDisconnected(HarmlabError):
    pass


class EnumerationBudgetExceeded(HarmlabError):
    """Connected-subset enumeration hit its budget; partial data attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DenseBudgetExceeded(HarmlabError):
    pass


class NotATree(HarmlabError):
    pass


class IoError(HarmlabError):
    pass

"""Exception types shared across the package.

Every domain failure raises a subclass of BetticoneError so the command
line front end can catch one base class and map it to exit code 1.
"""


class BetticoneError(Exception):
    """Base class for all domain errors raised by this package."""


class NonIncreasingDegrees(BetticoneError):
    """A degree sequence was not strictly increasing."""


class InternalInconsistency(BetticoneError):
    """An internal invariant broke: a twist table row collapsed without
    a vanishing factor, negative Koszul homology, kernel generators
    that miss the generic rank.

    Unreachable from valid inputs; kept as a loud guard that, unlike
    assert, survives python -O.
    """


class CollapsedSurvivor(BetticoneError):
    """A rank formula was applied to a row whose cohomology vanishes."""


class NoCollapsibleWindow(BetticoneError):
    """The twist list lacks the consecutive run 1..m needed to collapse."""


class NotInConeCandidate(BetticoneError):
    """Greedy decomposition stopped with a nonzero residual.

    Carries the partial decomposition; this is a diagnosis of greedy
    failure, not a certificate that the table lies outside the cone.
    """

    def __init__(self, message, decomposition=None):
        super().__init__(message)
        self.decomposition = decomposition


class NotOnHyperplane(BetticoneError):
    """Ray coefficients requested for a vector with nonzero alternating sum."""


class DegenerateSequence(BetticoneError):
    """A limit degree sequence collided with itself (needs j >= 2)."""


class NotFiniteLength(BetticoneError):
    """The module (or K-polynomial) fails the finite length criterion.

    A presentation's cokernel raises it when it is nonzero where a
    bidegree coordinate reaches the largest degree of the input, since
    from there on every piece repeats forever.
    """


class NotContained(BetticoneError):
    """The denominator ideal is not contained in the numerator ideal."""


class BoundTooLarge(BetticoneError):
    """Enumeration box exceeds the combinatorial guard."""

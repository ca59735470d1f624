"""Greedy decomposition of a finite length Betti table into pure tables.

The cone of finite length Betti tables is generated by pure tables, and
the classical elimination order works from the bottom strand: read off
the minimal internal degree in each column, subtract the largest
allowed multiple of the corresponding pure table, repeat.  Each step
zeroes at least one entry, so the loop runs at most once per nonzero
entry.  When the minimal degrees stop forming a strictly increasing
chain the loop is stuck; that is reported as a greedy failure with full
diagnostics, never as a certificate of non-membership.
"""

from fractions import Fraction
from math import gcd

from .errors import NotInConeCandidate
from .tables import (DegreeSequence, GradedBettiTable, check_hk_equations,
                     hk_pure_table)


class Decomposition:
    """Ordered parts (coefficient, pure table) plus a residual table.

    The defining identity sum(c * pure) + residual == input holds
    exactly; the residual is empty precisely on success.
    """

    __slots__ = ("parts", "residual")

    def __init__(self, parts, residual):
        self.parts = tuple(parts)
        self.residual = residual
        for c, _ in self.parts:
            if c <= 0:
                raise ValueError("part coefficients must be positive")

    @classmethod
    def _trusted(cls, parts, residual):
        """A decomposition over a tuple of parts whose coefficients are
        positive.  It skips the check, so only library code whose
        coefficients are positive by construction calls it, and says
        why at the call."""
        decomposition = cls.__new__(cls)
        decomposition.parts = parts
        decomposition.residual = residual
        return decomposition

    def is_complete(self):
        return self.residual.is_empty()

    def resum(self):
        total = GradedBettiTable(self.residual.nvars, self.residual.entries)
        for c, pure in self.parts:
            total = total.add(pure.to_graded(self.residual.nvars).scaled(c))
        return total

    def __repr__(self):
        inner = " + ".join(f"{c}*{p!r}" for c, p in self.parts)
        return f"Decomposition({inner or '0'}, residual={self.residual!r})"


def is_pure(t):
    """Degree sequence of a pure table, or None.

    Pure means: homological degrees run contiguously from 0, each
    carries exactly one internal degree, and those degrees strictly
    increase.  So the sorted keys of a pure table read i = 0, 1, ..., n
    in order, with j strictly increasing.
    """
    keys = sorted(t.entries)
    degrees = [j for _, j in keys]
    if (not keys or [i for i, _ in keys] != list(range(len(keys)))
            or any(a >= b for a, b in zip(degrees, degrees[1:]))):
        return None
    return DegreeSequence(degrees)


def decompose_graded(t):
    """Greedy bottom-strand decomposition into pure tables.

    Returns a complete Decomposition on success.  Raises
    NotInConeCandidate (carrying the partial decomposition) when the
    input fails a precondition or the greedy chain gets stuck with a
    nonzero residual.

    The HK test and the greedy run on the table's integer numerators
    over its scale, and a step whose coefficient has a new denominator
    multiplies them and the scale.
    """
    if not check_hk_equations(t):
        raise NotInConeCandidate(
            "table fails the Herzog-Kuhl equations; not a finite length "
            "candidate", Decomposition([], t))
    # The greedy edits work in place; the table's own numerators stay.
    work, scale = dict(t.numerators), t.scale

    def stuck(msg, parts):
        residual = GradedBettiTable(
            t.nvars, {key: Fraction(w, scale) for key, w in work.items()})
        raise NotInConeCandidate(msg, Decomposition(parts, residual))

    parts = []
    while work:
        lowest = {}
        for i, j in work:
            if j < lowest.get(i, j + 1):
                lowest[i] = j
        pd = max(lowest)
        if pd != t.nvars:
            stuck(f"projective dimension {pd} != nvars {t.nvars}; "
                  "greedy chain stuck", parts)
        for i in range(pd + 1):
            if i not in lowest:
                stuck(f"no entry left in column {i}; greedy chain stuck",
                      parts)
        degrees = [lowest[i] for i in range(pd + 1)]
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            stuck(f"minimal degrees {degrees} are not strictly "
                  "increasing; greedy chain stuck", parts)
        # The degrees are the table's int degrees, checked just above
        # to strictly increase.
        pure = hk_pure_table(DegreeSequence._trusted(tuple(degrees)))
        keys = list(enumerate(degrees))
        mult = pure.multiplicities
        # The coefficient is min_i work_i / b_i, compared by
        # cross-multiplying; num / den is it in units of 1 / scale.
        num, den = work[keys[0]], mult[0]
        for key, b in zip(keys, mult):
            if work[key] * den < num * b:
                num, den = work[key], b
        g = gcd(num, den)
        num, den = num // g, den // g
        if den != 1:
            work = {key: w * den for key, w in work.items()}
            scale *= den
        for key, b in zip(keys, mult):
            remaining = work[key] - num * b
            if remaining:
                work[key] = remaining
            else:
                del work[key]
        parts.append((Fraction(num, scale), pure))
    # Each coefficient num / scale is positive: work holds positive ints
    # (zeros are deleted) and the multiplicities are positive.  The
    # empty residual has no numerators, over scale 1.
    return Decomposition._trusted(
        tuple(parts), GradedBettiTable._trusted(t.nvars, {}, {}, 1))

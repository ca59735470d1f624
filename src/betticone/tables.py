"""Graded Betti tables and the Herzog-Kuhl machinery.

The central objects are sparse tables beta_{i,j} indexed by homological
degree i and internal degree j.  A finite length module over a
polynomial ring in n variables satisfies the Herzog-Kuhl equations

    sum_{i,j} (-1)^i j^k beta_{i,j} = 0   for k = 0, ..., n-1,

and a pure table (one internal degree per column) solving them is
determined up to scalar; the minimal integral solution is

    b_i  proportional to  1 / prod_{l != i} |d_i - d_l|.

This module also carries the numerator of the Hilbert series, whose
divisibility by (1-t)^n is the same finite length condition in
generating function form.

The graded layer clears a table's denominators once, in the
GradedBettiTable constructor, and then computes in plain integers: the
Herzog-Kuhl test, the numerator, the greedy of bs_cone and the column
sums of local_cone read the table's numerators over its scale, the lcm
of the denominators, and the pure multiplicities come from integer
products of degree differences.  Entries and results stay exact
Fractions.  clear_denominators is the one clearing route (the table
constructor, local_cone's LocalBettiVector constructor and
normalize_positive_integers go through it), and check_hk_equations is
the one Herzog-Kuhl test, which bs_cone's greedy also calls.  The
finite length test on the numerator divides by (1-t) with prefix sums
and is a separate route from the Herzog-Kuhl test.

The layer builds its own values unchecked: DegreeSequence, PureTable,
HilbertNumerator and GradedBettiTable (and local_cone's
LocalBettiVector and bs_cone's Decomposition) have a _trusted
constructor for values whose form follows from how the library made
them, and each call says why.  The public constructors
keep every check for other callers.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod

from .bigraded import (Value, integral, json_int, json_list, json_rational,
                       signed_fold)
from .errors import NonIncreasingDegrees


class DegreeSequence(Value):
    """Strictly increasing integers d_0 < d_1 < ... < d_n."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degs = tuple([integral(d, "degree") for d in degrees])
        if not degs:
            raise NonIncreasingDegrees("degree sequence must be nonempty")
        if any(a >= b for a, b in zip(degs, degs[1:])):
            raise NonIncreasingDegrees("degrees must be strictly increasing")
        self.degrees = degs

    @classmethod
    def _trusted(cls, degrees):
        """A sequence over a tuple already in the form __init__ produces:
        nonempty, strictly increasing ints.  It skips every check, so
        only library code whose degrees have that form by construction
        calls it, and says why at the call."""
        seq = cls.__new__(cls)
        seq.degrees = degrees
        return seq

    @property
    def n(self):
        """Length minus one: the homological degree of the last column."""
        return len(self.degrees) - 1

    def __len__(self):
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, k):
        return self.degrees[k]

    def _key(self):
        return self.degrees

    def __repr__(self):
        return f"DegreeSequence({list(self.degrees)!r})"


def as_degree_sequence(d):
    return d if isinstance(d, DegreeSequence) else DegreeSequence(d)


class GradedBettiTable(Value):
    """Sparse map (i, j) -> positive rational over a ring in nvars variables.

    Zero values are dropped on construction, so membership in .entries
    means a strictly positive entry.  Instances are treated as
    immutable: all operations return new tables.

    The constructor also clears the denominators, once per table:
    .scale is the lcm of the entries' denominators (1 for an empty
    table) and .numerators maps each key of .entries to a positive int,
    with entries[k] == Fraction(numerators[k], scale).
    """

    __slots__ = ("nvars", "entries", "numerators", "scale")

    def __init__(self, nvars, entries):
        nvars = integral(nvars, "nvars")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for (i, j), b in dict(entries).items():
            if type(b) is not Fraction:  # a Fraction is kept, not copied
                b = Fraction(b)
            # A Fraction's denominator is positive, so its sign is its
            # numerator's.
            if b.numerator < 0:
                raise ValueError(f"negative Betti entry at ({i},{j})")
            i = integral(i, "homological degree")
            j = integral(j, "degree")
            if not 0 <= i <= nvars:
                raise ValueError(
                    f"homological degree {i} outside 0..{nvars}")
            if b:
                clean[(i, j)] = b
        self.nvars = nvars
        self.entries = clean
        self.numerators, self.scale = clear_denominators(clean)

    @classmethod
    def _trusted(cls, nvars, entries, numerators, scale):
        """A table over values already in the form __init__ produces,
        the invariant of the class docstring included.  It skips every
        check, so only library code whose values have that form by
        construction calls it, and says why at the call."""
        table = cls.__new__(cls)
        table.nvars = nvars
        table.entries = entries
        table.numerators = numerators
        table.scale = scale
        return table

    def entry(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    def is_empty(self):
        return not self.entries

    def projective_dimension(self):
        """Largest homological degree with a nonzero entry, or None."""
        return max((i for i, _ in self.entries), default=None)

    def column(self, i):
        """Map j -> beta_{i,j} for one homological degree."""
        return {j: b for (k, j), b in self.entries.items() if k == i}

    def add(self, other):
        if self.nvars != other.nvars:
            raise ValueError("cannot add tables over different nvars")
        merged = dict(self.entries)
        for key, b in other.entries.items():
            merged[key] = merged.get(key, Fraction(0)) + b
        return GradedBettiTable(self.nvars, merged)

    def scaled(self, c):
        c = Fraction(c)
        return GradedBettiTable(
            self.nvars, {key: c * b for key, b in self.entries.items()})

    def _key(self):
        return self.nvars, frozenset(self.entries.items())

    def __repr__(self):
        body = ", ".join(f"({i},{j}):{b}" for (i, j), b
                         in sorted(self.entries.items()))
        return f"GradedBettiTable(nvars={self.nvars}, {{{body}}})"


class PureTable(Value):
    """Degree sequence plus positive integer multiplicities.

    hk_pure_table produces the gcd-normalized representative; raw
    construction ranks (not normalized) are also stored in this type.
    """

    __slots__ = ("degrees", "multiplicities")

    def __init__(self, degrees, multiplicities):
        self.degrees = as_degree_sequence(degrees)
        mult = tuple([integral(b, "multiplicity") for b in multiplicities])
        if len(mult) != len(self.degrees):
            raise ValueError("one multiplicity per degree required")
        if min(mult) <= 0:
            raise ValueError("multiplicities must be positive integers")
        self.multiplicities = mult

    @classmethod
    def _trusted(cls, degrees, multiplicities):
        """A pure table over a DegreeSequence and a tuple of positive
        ints, one per degree.  It skips every check, so only library
        code whose values have that form by construction calls it, and
        says why at the call."""
        pure = cls.__new__(cls)
        pure.degrees = degrees
        pure.multiplicities = multiplicities
        return pure

    def to_graded(self, nvars=None):
        if nvars is None:
            nvars = self.degrees.n
        return GradedBettiTable(
            nvars,
            {(i, d): Fraction(b)
             for i, (d, b) in enumerate(zip(self.degrees,
                                            self.multiplicities))})

    def _key(self):
        return self.degrees, self.multiplicities

    def __repr__(self):
        return (f"PureTable({list(self.degrees.degrees)!r}, "
                f"{list(self.multiplicities)!r})")


class HilbertNumerator(Value):
    """Integer Laurent polynomial sum_j c_j t^j with a positive scale.

    The rational numerator of a table is coefficients/scale; the pair
    is kept in lowest terms (gcd of all coefficients and the scale is
    divided out), so equal numerators compare equal as plain data.
    """

    __slots__ = ("coefficients", "scale")

    def __init__(self, coefficients, scale=1):
        scale = integral(scale, "scale")
        if scale <= 0:
            raise ValueError("scale must be a positive integer")
        clean = {}
        for j, c in dict(coefficients).items():
            j = integral(j, "degree")
            c = integral(c, f"coefficient of t^{j}")
            if c:
                clean[j] = c
        self._set_lowest_terms(clean, scale)

    @classmethod
    def _trusted(cls, coefficients, scale):
        """A numerator over int coefficients and a positive int scale.
        It skips the integer checks, so only library code whose values
        have that form by construction calls it, and says why at the
        call; zero coefficients are still dropped and the gcd divided
        out, so equal numerators stay equal as data."""
        h = cls.__new__(cls)
        h._set_lowest_terms({j: c for j, c in coefficients.items() if c},
                            scale)
        return h

    def _set_lowest_terms(self, clean, scale):
        """Nonzero int coefficients over a positive scale, divided by
        the gcd of all of them and the scale."""
        g = gcd(scale, *clean.values())
        self.coefficients = {j: c // g for j, c in clean.items()}
        self.scale = scale // g

    def is_zero(self):
        return not self.coefficients

    def coefficient(self, j):
        """Exact rational coefficient of t^j."""
        return Fraction(self.coefficients.get(j, 0), self.scale)

    def _key(self):
        return self.scale, frozenset(self.coefficients.items())

    def __repr__(self):
        terms = " + ".join(f"{c}*t^{j}" for j, c
                           in sorted(self.coefficients.items()))
        suffix = f" / {self.scale}" if self.scale != 1 else ""
        return f"HilbertNumerator({terms or '0'}{suffix})"


def normalize_positive_integers(values):
    """Scale a positive rational vector to coprime positive integers.

    >>> normalize_positive_integers([Fraction(1, 90), Fraction(1, 18),
    ...                              Fraction(1, 10), Fraction(1, 18)])
    (1, 5, 9, 5)
    """
    fracs = [Fraction(v) for v in values]
    if any(v <= 0 for v in fracs):
        raise ValueError("expected strictly positive values")
    ints, _ = clear_denominators(dict(enumerate(fracs)))
    g = gcd(*ints.values())
    return tuple(v // g for v in ints.values())


def clear_denominators(entries):
    """Integer numerators of a map of Fractions over one common scale.

    Returns (numerators, m): m is the lcm of the denominators (1 for an
    empty map) and numerators maps each key to m times its value, a
    plain int, in the map's order.
    """
    m = lcm(*(b.denominator for b in entries.values()))
    return {key: b.numerator * (m // b.denominator)
            for key, b in entries.items()}, m


def hk_pure_table(d):
    """Minimal positive integral solution of the Herzog-Kuhl system.

    With P_i = prod_{l != i} |d_i - d_l| (1 for one degree) the solution
    is proportional to 1 / P_i, so the multiplicities are lcm(P) / P_i,
    coprime: the P_i richest in a prime leaves a quotient prime to it.

    >>> hk_pure_table([0, 1, 3, 5]).multiplicities
    (8, 15, 10, 3)
    >>> hk_pure_table([0, 1, 2]).multiplicities
    (1, 2, 1)
    """
    d = as_degree_sequence(d)
    degs = d.degrees
    products = [abs(prod([di - dl for dl in degs if dl != di]))
                for di in degs]
    m = lcm(*products)
    # The degrees strictly increase, so every P_i is a positive int and
    # so is every lcm(P) / P_i.
    return PureTable._trusted(d, tuple([m // p for p in products]))


def check_hk_equations(t):
    """True iff sum_{i,j} (-1)^i j^k beta_{i,j} = 0 for 0 <= k < nvars.

    The table's int numerators are folded by degree into c_j, and each
    step takes c_j <- c_j * j to the next power, stopping when all are 0.
    """
    folded = signed_fold(t.numerators)
    degrees = list(folded)
    moments = list(folded.values())
    for _ in range(t.nvars):
        if sum(moments):
            return False
        if not any(moments):
            break
        moments = [c * j for c, j in zip(moments, degrees)]
    return True


def hilbert_numerator(t):
    """Numerator sum_j (sum_i (-1)^i beta_{i,j}) t^j of the Hilbert series.

    The table's int numerators are folded; its scale, the clearing
    factor, is kept on the result as .scale.
    """
    # signed_fold of int numerators gives int coefficients, over the
    # table's positive int scale.
    return HilbertNumerator._trusted(signed_fold(t.numerators), t.scale)


def is_finite_length_numerator(h, nvars):
    """True iff (1-t)^nvars divides the numerator.

    The coefficients are written once into a dense int list p from the
    lowest degree lo to the highest, with zeros in the gaps.  The list
    is the polynomial P = t^(-lo) * h, and t^(-lo) is a unit of the
    Laurent ring, so (1-t)^nvars divides h exactly when it divides P;
    the zeros write the same polynomial.  P = (1-t) * Q has a solution
    exactly when P(1) = 0, and then Q has q_i = p_0 + ... + p_i: the
    running sums itertools.accumulate gives, whose last element is
    P(1).  So each division is one accumulate and one pop, and the
    quotient is again a dense list from degree 0.
    """
    nvars = integral(nvars, "nvars")
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    coeffs = h.coefficients
    if not coeffs:
        return True
    lo = min(coeffs)
    p = [0] * (max(coeffs) - lo + 1)
    for j, c in coeffs.items():
        p[j - lo] = c
    for _ in range(nvars):
        # A nonzero P of degree < len(p) stays nonzero after an exact
        # division, and a one-element list is a nonzero constant, whose
        # value at 1 is itself; so the loop ends within len(p) steps.
        p = list(accumulate(p))
        if p.pop():
            return False
    return True


def coarsen(bt):
    """Collapse a bigraded table to the total grading j = a + b.

    Accepts any table whose .entries maps (i, (a, b)) to a count;
    returns a GradedBettiTable with nvars = 2.
    """
    merged = {}
    for (i, (a, b)), count in bt.entries.items():
        key = (i, a + b)
        merged[key] = merged.get(key, Fraction(0)) + count
    return GradedBettiTable(2, merged)


def proportionality_ratio(t1, t2):
    """Fraction c with t1 = c * t2, or None if no such c exists.

    Both tables empty counts as proportional with ratio 1.
    """
    if set(t1.entries) != set(t2.entries):
        return None
    if not t1.entries:
        return Fraction(1)
    key = next(iter(sorted(t1.entries)))
    ratio = t1.entries[key] / t2.entries[key]
    for k, b in t1.entries.items():
        if b != ratio * t2.entries[k]:
            return None
    return ratio


def graded_to_json_obj(t):
    return {
        "kind": "graded",
        "nvars": t.nvars,
        "entries": [{"i": i, "j": j, "b": str(b)}
                    for (i, j), b in sorted(t.entries.items())],
    }


def graded_from_json_obj(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "graded":
        raise ValueError("expected a graded table object")
    entries = {}
    for item in json_list(obj["entries"], "entries"):
        if not isinstance(item, dict):
            raise ValueError(f"entries must hold objects, got {item!r}")
        key = (json_int(item["i"], "i"), json_int(item["j"], "j"))
        entries[key] = (entries.get(key, Fraction(0))
                        + json_rational(item["b"], "b"))
    return GradedBettiTable(json_int(obj["nvars"], "nvars"), entries)


def pure_to_json_obj(p):
    return {
        "kind": "pure",
        "degrees": list(p.degrees.degrees),
        "mult": list(p.multiplicities),
    }


def pure_from_json_obj(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "pure":
        raise ValueError("expected a pure table object")
    return PureTable(
        [json_int(d, "degrees") for d in json_list(obj["degrees"], "degrees")],
        [json_int(b, "mult") for b in json_list(obj["mult"], "mult")])

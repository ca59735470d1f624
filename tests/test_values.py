"""The value contract of the seven value types.

DegreeSequence, PureTable, GradedBettiTable and HilbertNumerator
(graded ring), LocalBettiVector (local ring), BigradedBettiTable and
KPolynomial (k[x, y]) each get their equality and hash from one base
class over a _key().  Each case below builds one value two ways: by the
public constructor with the data in one order, and by a library route
or the constructor with the data reordered.  The two must be equal,
hash equal and collapse to one element of a set, and neither may equal
a value of another type that holds the same data.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from betticone import (
    BigradedBettiTable,
    DegreeSequence,
    GradedBettiTable,
    HilbertNumerator,
    KPolynomial,
    LocalBettiVector,
    MonomialPair,
    PureTable,
    bigraded_betti,
    hilbert_numerator,
    hk_pure_table,
    k_polynomial,
    limit_degrees,
    limit_table,
    monomial_quotient,
)

# The Betti table of k = k[x, y]/(x, y): the Koszul complex.
KOSZUL = {(0, (0, 0)): 1, (1, (1, 0)): 1, (1, (0, 1)): 1, (2, (1, 1)): 1}
KOSZUL_K = {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
PURE_0135 = {(0, 0): 8, (1, 1): 15, (2, 3): 10, (3, 5): 3}


# (name, built by the constructor, built the other way, another type's
# value holding the same data)
CASES = [
    ("DegreeSequence",
     lambda: DegreeSequence([0, 1, 3]),
     lambda: limit_degrees(0, 2, 2),
     (0, 1, 3)),
    ("PureTable",
     lambda: PureTable([0, 1, 3, 5], [8, 15, 10, 3]),
     lambda: hk_pure_table([0, 1, 3, 5]),
     ((0, 1, 3, 5), (8, 15, 10, 3))),
    ("GradedBettiTable",
     lambda: GradedBettiTable(3, PURE_0135),
     lambda: hk_pure_table([0, 1, 3, 5]).to_graded(),
     PURE_0135),
    ("HilbertNumerator",
     lambda: HilbertNumerator({0: 1, 1: -2, 2: 1}),
     lambda: hilbert_numerator(hk_pure_table([0, 1, 2]).to_graded()),
     {0: 1, 1: -2, 2: 1}),
    ("LocalBettiVector",
     lambda: LocalBettiVector([1, Fraction(3, 2), Fraction(1, 2)]),
     lambda: limit_table(0, 2, 2),
     (1, Fraction(3, 2), Fraction(1, 2))),
    ("BigradedBettiTable",
     lambda: BigradedBettiTable(KOSZUL),
     lambda: bigraded_betti(
         monomial_quotient(MonomialPair([(0, 0)], [(1, 0), (0, 1)]))),
     KOSZUL),
    ("KPolynomial",
     lambda: KPolynomial(dict(reversed(KOSZUL_K.items()))),
     lambda: k_polynomial(BigradedBettiTable(KOSZUL)),
     KOSZUL_K),
]


@pytest.mark.parametrize("build,rebuild,data",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_value_contract(build, rebuild, data):
    a, b = build(), rebuild()
    assert type(a) is type(b)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for value in (a, b):
        assert value != data and data != value
    others = [value for value in (case[1]() for case in CASES)
              if type(value) is not type(a)]
    assert len(others) == len(CASES) - 1
    assert all(a != other and other != a for other in others)


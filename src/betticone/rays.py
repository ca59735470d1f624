"""Enumeration of certified extremal rays of the bigraded cone whose
Betti tables fit a degree box.

A finite length monomial quotient I/J has one-dimensional pieces on
the staircase region I minus J, and its table has support in the box
[0, B1] x [0, B2] exactly when the region lies in the grid
[0, B1) x [0, B2).  The candidates are those regions, each generated
once by a column walk and its table read off by counting corners, plus
a small catalogue of presentation seeds that no monomial quotient
reaches, whose tables come from the Koszul oracle.  Every candidate
table goes through the valency certificate of the bigraded layer.

The tests keep a second, independent route: every pair of generator
antichains in the box, its quotient module, and the Koszul oracle.
"""

import os

from .bigraded import (BigradedBettiTable, check_extremality_certificate,
                       json_int)
from .errors import BoundTooLarge, NotFiniteLength
from .module_engine import (PresentationMatrix, bigraded_betti,
                            coker_presentation, dual_module)

DEFAULT_MAX_BOX = 6


def staircase_regions(bound_a, bound_b):
    """Every nonempty staircase region inside [0, bound_a) x [0, bound_b).

    A region is a set S = I minus J for monomial ideals J inside I,
    that is, an order-convex set of exponent pairs.  It is yielded once,
    as a tuple of bound_a columns, each None (empty) or a pair (l, u)
    for the cells (a, l) .. (a, u - 1).  The walk carries the column
    starts p of the up-set U = up(S) and q of V = U minus S, both
    bound_b before the first cell: a column is empty, which leaves U's
    start at p and forces V's start there too, or an interval [l, u)
    with l <= p (else U's cell (a, p) would sit in V below S) and
    u <= q (V is closed upward).  Regions are generated lazily.
    """
    columns = []

    def walk(a, p, q):
        if a == bound_a:
            if any(columns):
                yield tuple(columns)
            return
        columns.append(None)
        yield from walk(a + 1, p, p)
        columns.pop()
        for low in range(min(p, bound_b - 1) + 1):
            for high in range(low + 1, q + 1):
                columns.append((low, high))
                yield from walk(a + 1, low, high)
                columns.pop()

    yield from walk(0, bound_b, bound_b)


def staircase_betti(columns):
    """Betti table of a region module, by counting corners.

    Every piece is one-dimensional with identity multiplications, so
    the Koszul homology at (a, b) depends only on which of the cells
    here (a, b), left (a-1, b), below (a, b-1) and corner (a-1, b-1)
    lie in the region.  For a column [l, u), beta_0 sits at its bottom
    cell (a, l) when (a - 1, l) is outside, and beta_2 at (a + 1, u)
    when the cell (a + 1, u - 1) right of its top is outside.  beta_1
    follows from the Euler characteristic
    beta_0 - beta_1 + beta_2 = here - left - below + corner, whose
    right side, as a function of b, is +1 at l and -1 at u for the
    column a and the reverse for the column a - 1.
    """
    entries = {}
    prev = None
    for a, col in enumerate(columns + (None,)):
        ones = {}
        if col:
            low, high = col
            ones[high] = 1
            if prev and prev[0] <= low < prev[1]:
                ones[low] = -1
            else:
                entries[(0, (a, low))] = 1
        if prev:
            low, high = prev
            ones[low] = ones.get(low, 0) + 1
            if col and col[0] <= high - 1 < col[1]:
                ones[high] = ones.get(high, 0) - 1
            else:
                entries[(2, (a, high))] = 1
        for b, count in ones.items():
            if count:
                entries[(1, (a, b))] = count
        prev = col
    return BigradedBettiTable(entries)


def seed_catalogue():
    """Presentation-matrix seeds that are not monomial quotients.

    The catalogue holds the two-generator module whose matching graph
    is a heart-shaped octagon; it certifies extremality but no monomial
    quotient produces its table, because any quotient generated in
    degrees (1,0) and (0,1) picks up a relation in degree (1,1) that
    the heart avoids.
    """
    heart = PresentationMatrix(
        rows=[(1, 0), (0, 1)],
        cols=[(3, 0), (2, 1), (1, 2), (0, 3)],
        entries=[
            [[(1, (2, 0))], [(1, (1, 1))], [(1, (0, 2))], []],
            [[], [(1, (2, 0))], [(1, (1, 1))], [(1, (0, 2))]],
        ])
    return [("heart", heart)]


def enumerate_box_rays(bound, max_box=None):
    """All distinct certified-extremal rays with support in the box.

    Candidates are the tables of the staircase regions inside
    [0, B1) x [0, B2), which are exactly the finite length monomial
    quotients I/J whose table support fits in [0, B1] x [0, B2], plus
    the presentation seeds from the catalogue.  Tables failing the
    valency certificate are dropped; survivors are deduplicated up to
    positive scalar and returned in a canonical sorted order.
    """
    b1, b2 = int(bound[0]), int(bound[1])
    if max_box is None:
        max_box = json_int(os.environ.get("BETTICONE_MAX_BOX",
                                          DEFAULT_MAX_BOX),
                           "BETTICONE_MAX_BOX")
    if b1 > max_box or b2 > max_box:
        raise BoundTooLarge(
            f"box {bound} exceeds the guard {max_box}; raise "
            "BETTICONE_MAX_BOX if you mean it")
    if b1 < 0 or b2 < 0:
        raise ValueError("box corners must be nonnegative")

    def fits(table):
        return all(0 <= a <= b1 and 0 <= b <= b2
                   for a, b in table.support())

    found = {}

    def consider(table):
        if table.is_empty() or not fits(table):
            return
        try:
            verdict = check_extremality_certificate(table)
        except NotFiniteLength:
            return
        if verdict.is_extremal():
            key = table.canonical_key()
            found.setdefault(key, table.gcd_normalized())

    for columns in staircase_regions(b1, b2):
        consider(staircase_betti(columns))

    for _, seed in seed_catalogue():
        module = coker_presentation(seed)
        consider(bigraded_betti(module))
        consider(bigraded_betti(dual_module(module)))

    return sorted(found.values(),
                  key=lambda t: sorted(t.entries.items()))

"""Enumeration of certified extremal rays of the bigraded cone whose
Betti tables fit a degree box.

Candidates are the finite length monomial quotients I/J with
generators in the box, plus a small catalogue of presentation seeds
that no monomial quotient reaches; each candidate's table goes
through the valency certificate of the bigraded layer.
"""

import itertools
import os

from .bigraded import check_extremality_certificate
from .errors import BoundTooLarge, NotFiniteLength
from .module_engine import (MonomialPair, PresentationMatrix, _divisible,
                            bigraded_betti, coker_presentation, dual_module,
                            monomial_quotient)

DEFAULT_MAX_BOX = 6


def _staircase_antichains(bound_a, bound_b):
    """All nonempty antichains of exponent pairs inside the box.

    An antichain (no generator divides another) is a choice of columns
    a_1 < ... < a_r paired with strictly decreasing b values; these are
    exactly the minimal generating sets of monomial ideals whose
    generators fit in the box.
    """
    a_values = range(bound_a + 1)
    b_values = range(bound_b + 1)
    out = []
    for r in range(1, min(bound_a, bound_b) + 2):
        for cols in itertools.combinations(a_values, r):
            for rows in itertools.combinations(b_values, r):
                gens = tuple(zip(cols, sorted(rows, reverse=True)))
                out.append(gens)
    return out


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

    Candidates are the finite length monomial quotients I/J whose table
    support fits in [0, B1] x [0, B2], plus the presentation seeds from
    the catalogue.  Tables failing the valency certificate are dropped;
    survivors are deduplicated up to positive scalar and returned in a
    canonical sorted order.
    """
    b1, b2 = int(bound[0]), int(bound[1])
    if max_box is None:
        max_box = int(os.environ.get("BETTICONE_MAX_BOX", DEFAULT_MAX_BOX))
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

    antichains = _staircase_antichains(b1, b2)
    for gens_i in antichains:
        for gens_j in antichains:
            # J inside I, and quick finite length screen: J must reach
            # both axes at least as far down as I does.
            if not all(_divisible(g, gens_i) for g in gens_j):
                continue
            if min(b for _, b in gens_j) > min(b for _, b in gens_i):
                continue
            if min(a for a, _ in gens_j) > min(a for a, _ in gens_i):
                continue
            pair = MonomialPair(gens_i, gens_j)
            module = monomial_quotient(pair)
            if not module.dims:
                continue
            consider(bigraded_betti(module))

    for _, seed in seed_catalogue():
        module = coker_presentation(seed)
        consider(bigraded_betti(module))
        consider(bigraded_betti(dual_module(module)))

    return sorted(found.values(),
                  key=lambda t: sorted(t.entries.items()))

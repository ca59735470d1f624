"""Matching graphs, extremality certificates, and ray enumeration.

The enumeration tests at the bottom re-derive the ray list by routes
that share no code with the library's region walk and corner count:
every pair of generator antichains in the box through the Koszul
oracle, and every subset of the low grid kept when it is shaped like a
staircase region.  Agreement between the routes is the completeness
evidence for the box scan.  The unpruned region walk kept here is the
reference for the certified walk pruned_regions, kept here too, which
may only leave out regions whose tables fail the certificate; it
shares no code with the transition _step, which the memoized count and
the stepped dense-shape walk run.  pruned_regions' tables filtered to
those that use every column, and the stepped walk, are the references
for the library's dense-shape generator, which reads its tables off in
closed form and shares no code with either.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betticone import (
    BigradedBettiTable,
    BoundTooLarge,
    CERT_EXTREMAL,
    CERT_INCONCLUSIVE,
    FiniteModule,
    GradedBettiTable,
    KPolynomial,
    MonomialPair,
    NotFiniteLength,
    PresentationMatrix,
    bigraded_betti,
    box_ray_codes,
    box_rays,
    check_extremality_certificate,
    coker_presentation,
    count_up_to_swap,
    dual_module,
    enumerate_box_rays,
    finite_length_check,
    graph_to_dot,
    k_polynomial,
    matching_graph,
    monomial_quotient,
)
from betticone import module_engine, seed_catalogue
from betticone.bigraded import (
    bigraded_from_json_obj,
    bigraded_to_json_obj,
)
from betticone.rays import DEFAULT_MAX_BOX, SEED_KEYS, _dense_shapes

KOSZUL_ENTRIES = {
    (0, (0, 0)): 1,
    (1, (1, 0)): 1, (1, (0, 1)): 1,
    (2, (1, 1)): 1,
}


def _koszul_table(shift=(0, 0)):
    sa, sb = shift
    return BigradedBettiTable({
        (i, (a + sa, b + sb)): v
        for (i, (a, b)), v in KOSZUL_ENTRIES.items()
    })


def _square_table():
    return bigraded_betti(monomial_quotient(
        MonomialPair([(0, 0)], [(2, 0), (1, 1), (0, 2)])))


def test_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        BigradedBettiTable({(3, (0, 0)): 1})
    with pytest.raises(ValueError):
        BigradedBettiTable({(0, (0, 0)): -2})
    # zero counts are dropped, matching the graded table convention
    assert BigradedBettiTable({(0, (0, 0)): 0}).is_empty()


def test_table_entry_accessors():
    t = _koszul_table()
    assert t.entry(0, (0, 0)) == 1
    assert t.entry(2, (5, 5)) == 0
    assert not t.is_empty()
    assert t.support() == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_swap_xy_reflects_degrees():
    t = _square_table()
    s = t.swap_xy()
    assert s.entry(2, (1, 2)) == t.entry(2, (2, 1))
    assert s.swap_xy() == t


def test_gcd_normalization_and_canonical_key():
    t = _koszul_table()
    doubled = BigradedBettiTable(
        {k: 2 * v for k, v in t.entries.items()})
    assert doubled.gcd_normalized() == t
    assert doubled.canonical_key() == t.canonical_key()
    assert doubled != t


def test_constructors_refuse_non_integral_values():
    with pytest.raises(ValueError, match="count must be an integer, got 3/2"):
        BigradedBettiTable({(0, (0, 0)): Fraction(3, 2)})
    with pytest.raises(ValueError,
                       match="coefficient must be an integer, got 1/2"):
        KPolynomial({(0, 0): Fraction(1, 2)})
    assert BigradedBettiTable({(0, (0, 0)): Fraction(4, 2)}).entry(
        0, (0, 0)) == 2


def test_non_integral_bidegrees_and_boxes_are_refused():
    with pytest.raises(ValueError,
                       match="bidegree must be an integer, got 0.5"):
        BigradedBettiTable({(0, (0.5, 0)): 1})
    with pytest.raises(ValueError, match="box must be an integer, got 2.9"):
        enumerate_box_rays((2.9, 2))
    assert BigradedBettiTable({(0, (1.0, 0)): 1}).entries == \
        {(0, (1, 0)): 1}


INTEGER_FIELDS = {
    "count": lambda v: BigradedBettiTable({(0, (0, 0)): v}),
    "box": lambda v: enumerate_box_rays((v, 2)),
    "max_box": lambda v: enumerate_box_rays((2, 2), max_box=v),
    "nvars": lambda v: GradedBettiTable(v, {}),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value, shown", [
    (None, "None"), (float("inf"), "inf"), (float("nan"), "nan"),
    ("a", "'a'"), ("2", "'2'"), (2.5, "2.5")])
def test_integer_fields_name_the_field_for_any_bad_value(field, value,
                                                         shown):
    message = f"{field} must be an integer, got {shown}"
    with pytest.raises(ValueError, match=re.escape(message)):
        INTEGER_FIELDS[field](value)


@pytest.mark.parametrize("field, build, shown", [
    ("bidegree", lambda: BigradedBettiTable({(0, 5): 1}), "5"),
    ("box", lambda: enumerate_box_rays(5), "5"),
    ("box", lambda: enumerate_box_rays((1, 2, 3)), "(1, 2, 3)"),
    ("bidegree", lambda: FiniteModule({5: 1}, {}, {}), "5"),
    ("outer ideal exponent", lambda: MonomialPair([5], [(1, 1)]), "5"),
], ids=["table", "box", "box-triple", "module", "monomial-pair"])
def test_malformed_bidegrees_are_refused_by_name(field, build, shown):
    """Anything that is not a pair is a ValueError naming the field,
    not a TypeError from unpacking it."""
    message = f"{field} must be a pair of integers, got {shown}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def _reference_graph(vertices):
    """Edges by scanning every pair of sorted vertices, valency by
    counting vertices per coordinate, and components by a union-find
    over vertices joined to the first vertex of their column and row."""
    ordered = sorted(vertices)
    x_edges, y_edges = (tuple((u, w) for u, w in combinations(ordered, 2)
                              if u[axis] == w[axis]) for axis in (0, 1))
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    first_in_column = {}
    first_in_row = {}
    for v in vertices:
        parent[find(v)] = find(first_in_column.setdefault(v[0], v))
        parent[find(v)] = find(first_in_row.setdefault(v[1], v))
    components = len({find(v) for v in parent})

    def valency(axis, alpha):
        return sum(1 for v in vertices if v[axis] == alpha[axis]) - 1

    return x_edges, y_edges, valency, components


def _graph_inputs():
    yield BigradedBettiTable({})
    yield _koszul_table()
    yield _square_table()
    disconnected = dict(KOSZUL_ENTRIES)
    for (i, (a, b)), v in KOSZUL_ENTRIES.items():
        disconnected[(i, (a + 5, b + 5))] = v
    yield BigradedBettiTable(disconnected)
    mixed = dict(KOSZUL_ENTRIES)
    for (i, (a, b)), v in KOSZUL_ENTRIES.items():
        mixed[(i, (a + 1, b + 1))] = mixed.get((i, (a + 1, b + 1)), 0) + v
    yield BigradedBettiTable(mixed)
    rng = random.Random(20121)
    for _ in range(300):
        yield BigradedBettiTable({
            (rng.randrange(3), (rng.randrange(6), rng.randrange(6))):
                rng.randint(1, 3)
            for _ in range(rng.randrange(16))})


def test_grouped_matching_graph_matches_the_pair_scan():
    for t in _graph_inputs():
        g = matching_graph(t)
        x_edges, y_edges, valency, components = _reference_graph(
            list(g.vertices))
        assert g.x_edges == x_edges
        assert g.y_edges == y_edges
        assert g.component_count() == components
        for alpha in [(a, b) for a in range(-1, 8) for b in range(-1, 8)]:
            assert g.x_valency(alpha) == valency(0, alpha)
            assert g.y_valency(alpha) == valency(1, alpha)


def test_matching_graph_of_koszul_table():
    g = matching_graph(_koszul_table())
    assert set(g.x_edges) == {((0, 0), (0, 1)), ((1, 0), (1, 1))}
    assert set(g.y_edges) == {((0, 0), (1, 0)), ((0, 1), (1, 1))}
    assert g.is_connected()
    for vertex in g.vertices:
        assert g.x_valency(vertex) == 1
        assert g.y_valency(vertex) == 1


def test_matching_graph_weights_and_support():
    g = matching_graph(_square_table())
    weight, support = g.vertices[(1, 1)]
    assert weight == 1 and support == frozenset({1})
    assert len(g.vertices) == 6


def test_x_edge_count_is_sum_of_pair_counts():
    for t in (_koszul_table(), _square_table()):
        g = matching_graph(t)
        by_a = {}
        for (a, b) in g.vertices:
            by_a.setdefault(a, []).append(b)
        expected = sum(
            len(vs) * (len(vs) - 1) // 2 for vs in by_a.values())
        assert len(g.x_edges) == expected


def test_k_polynomial_of_koszul_table():
    k = k_polynomial(_koszul_table())
    assert k.coefficients == {
        (0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    assert finite_length_check(k)


def test_k_polynomial_of_square_table():
    k = k_polynomial(_square_table())
    assert k.coefficients == {
        (0, 0): 1, (2, 0): -1, (1, 1): -1, (0, 2): -1,
        (2, 1): 1, (1, 2): 1,
    }
    assert finite_length_check(k)


def test_finite_length_check_rejects_partial_vanishing():
    from betticone import KPolynomial
    assert not finite_length_check(KPolynomial({(0, 0): 1, (1, 0): -1}))
    assert not finite_length_check(KPolynomial({(0, 0): 1, (0, 1): -1}))
    assert finite_length_check(KPolynomial({}))


def test_certificate_accepts_koszul_and_square():
    for t in (_koszul_table(), _square_table()):
        verdict = check_extremality_certificate(t)
        assert verdict.verdict == CERT_EXTREMAL
        assert verdict.is_extremal()
        assert verdict.failures == ()


def test_certificate_requires_finite_length():
    with pytest.raises(NotFiniteLength):
        check_extremality_certificate(
            BigradedBettiTable({(0, (0, 0)): 1, (1, (1, 0)): 1}))


def test_certificate_flags_high_valency():
    t = bigraded_betti(monomial_quotient(
        MonomialPair([(1, 0), (0, 1)], [(2, 0), (1, 2), (0, 3)])))
    verdict = check_extremality_certificate(t)
    assert verdict.verdict == CERT_INCONCLUSIVE
    assert not verdict.is_extremal()
    assert verdict.failures == (
        ("x-valency", (1, 0), 3),
        ("x-valency", (1, 1), 3),
        ("x-valency", (1, 2), 3),
        ("x-valency", (1, 3), 3),
    )


def test_certificate_flags_disconnected_graph():
    entries = dict(KOSZUL_ENTRIES)
    for (i, (a, b)), v in KOSZUL_ENTRIES.items():
        entries[(i, (a + 5, b + 5))] = v
    verdict = check_extremality_certificate(BigradedBettiTable(entries))
    assert verdict.verdict == CERT_INCONCLUSIVE
    assert ("disconnected", None, 2) in verdict.failures


def test_certificate_flags_mixed_homological_support():
    entries = dict(KOSZUL_ENTRIES)
    for (i, (a, b)), v in KOSZUL_ENTRIES.items():
        key = (i, (a + 1, b + 1))
        entries[key] = entries.get(key, 0) + v
    verdict = check_extremality_certificate(BigradedBettiTable(entries))
    assert verdict.verdict == CERT_INCONCLUSIVE
    assert ("mixed-support", (1, 1), [0, 2]) in verdict.failures


def test_certificate_on_empty_table():
    verdict = check_extremality_certificate(BigradedBettiTable({}))
    assert verdict.verdict == CERT_INCONCLUSIVE
    assert verdict.failures == (("empty", None, 0),)


def test_scaled_table_certifies_like_the_original():
    t = _koszul_table()
    doubled = BigradedBettiTable(
        {k: 2 * v for k, v in t.entries.items()})
    assert check_extremality_certificate(doubled).verdict == CERT_EXTREMAL


def test_graph_to_dot_renders_both_edge_styles():
    dot = graph_to_dot(matching_graph(_koszul_table()))
    assert dot.startswith("graph matching {")
    assert '"0,0" [label="(0,0):1"]' in dot
    assert "style=solid" in dot and "style=dashed" in dot
    assert dot.rstrip().endswith("}")


def test_bigraded_json_round_trip():
    t = _square_table()
    obj = bigraded_to_json_obj(t)
    assert obj["kind"] == "bigraded"
    assert bigraded_from_json_obj(obj) == t


def test_bigraded_json_sums_duplicates():
    obj = {
        "kind": "bigraded",
        "entries": [
            {"i": 0, "deg": [0, 0], "b": 1},
            {"i": 0, "deg": [0, 0], "b": 2},
        ],
    }
    assert bigraded_from_json_obj(obj).entry(0, (0, 0)) == 3


def test_bigraded_json_reads_integral_floats():
    obj = {"kind": "bigraded",
           "entries": [{"i": 0.0, "deg": [1.0, 0], "b": 2.0}]}
    entries = bigraded_from_json_obj(obj).entries
    assert entries == {(0, (1, 0)): 2}
    [((i, (a, b)), c)] = entries.items()
    assert all(type(n) is int for n in (i, a, b, c))


def test_enumerate_smallest_boxes():
    assert enumerate_box_rays((0, 0)) == []
    rays = enumerate_box_rays((1, 1))
    assert len(rays) == 1
    assert rays[0] == _koszul_table()


def test_enumerate_box_two():
    rays = enumerate_box_rays((2, 2))
    assert len(rays) == 11
    assert count_up_to_swap(rays) == 8
    # closed under swapping the variables
    keys = {t.canonical_key() for t in rays}
    assert {t.swap_xy().canonical_key() for t in rays} == keys
    # every ray is certified and fits the box
    for t in rays:
        assert check_extremality_certificate(t).verdict == CERT_EXTREMAL
        assert all(0 <= a <= 2 and 0 <= b <= 2 for a, b in t.support())


def test_enumerate_rays_have_unit_entries():
    # certified staircase tables always normalize to all-ones weights
    for t in enumerate_box_rays((2, 2)):
        normalized = t.gcd_normalized()
        assert set(normalized.entries.values()) == {1}


def test_enumerate_guards_against_large_boxes():
    with pytest.raises(BoundTooLarge):
        enumerate_box_rays((7, 7))
    with pytest.raises(BoundTooLarge):
        enumerate_box_rays((2, 2), max_box=1)
    assert len(enumerate_box_rays((2, 2), max_box=2)) == 11


def test_seed_catalogue_contains_heart_presentation():
    names = [name for name, _ in seed_catalogue()]
    assert names == ["heart"]
    _, pm = seed_catalogue()[0]
    t = bigraded_betti(coker_presentation(pm))
    assert check_extremality_certificate(t).verdict == CERT_EXTREMAL
    assert len(t.entries) == 8


# Generators e1 at (0,1) and e2 at (1,0); relations y*e1, y^3*e2,
# x^2*e1 + xy*e2 and x^2*e2.  No staircase region and no catalogue seed
# gives its table.
S4 = PresentationMatrix(
    rows=[(0, 1), (1, 0)],
    cols=[(0, 2), (1, 3), (2, 1), (3, 0)],
    entries=[
        [[(1, (0, 1))], [], [(1, (2, 0))], []],
        [[], [(1, (0, 3))], [(1, (1, 1))], [(1, (2, 0))]],
    ])


def test_s4_table_is_certified_and_fits_box_three():
    t = bigraded_betti(coker_presentation(S4))
    assert dict(t.entries) == {
        (0, (0, 1)): 1, (0, (1, 0)): 1,
        (1, (0, 2)): 1, (1, (1, 3)): 1, (1, (2, 1)): 1, (1, (3, 0)): 1,
        (2, (2, 3)): 1, (2, (3, 2)): 1,
    }
    assert check_extremality_certificate(t).verdict == CERT_EXTREMAL


@pytest.mark.xfail(strict=True, reason="the listing holds the certified "
                   "rays of the catalogue, which lacks the S4 seed "
                   "(ROADMAP item 7)")
def test_s4_table_is_listed_at_box_three():
    key = bigraded_betti(coker_presentation(S4)).canonical_key()
    assert key in {t.canonical_key() for t in enumerate_box_rays((3, 3))}


def _upward_closure(gens, box):
    return {
        (a, b)
        for a in range(box + 1) for b in range(box + 1)
        if any(a >= g and b >= h for g, h in gens)
    }


def _valid_regions(box=2):
    """All staircase regions inside [0, box]^2, by brute force.

    A nonempty cell set S is a region exactly when the holes
    up(min S) minus S form an upward closed set.
    """
    cells = [(a, b) for a in range(box + 1) for b in range(box + 1)]
    regions = []
    for r in range(1, len(cells) + 1):
        for subset in combinations(cells, r):
            s = set(subset)
            mins = {c for c in s
                    if not any(d != c and d[0] <= c[0] and d[1] <= c[1]
                               for d in s)}
            holes = _upward_closure(mins, box + 4) - s
            up_closed = all(
                ((a + 1, b) in holes or (a + 1) > box + 4)
                and ((a, b + 1) in holes or (b + 1) > box + 4)
                for (a, b) in holes)
            if up_closed:
                regions.append(s)
    return regions


def _region_module(region):
    dims = {alpha: 1 for alpha in region}
    mult_x = {alpha: [[1]] for alpha in region
              if (alpha[0] + 1, alpha[1]) in region}
    mult_y = {alpha: [[1]] for alpha in region
              if (alpha[0], alpha[1] + 1) in region}
    return FiniteModule(dims, mult_x, mult_y)


def test_direct_region_sweep_matches_antichain_enumeration():
    """Second enumeration route: subsets of the grid, not antichains.

    Tables supported in [0,3]^2 come exactly from regions inside
    [0,2]^2.  Certifying every literal staircase subset of that grid
    must reproduce the monomial part of enumerate_box_rays((3,3)),
    which is everything except the two seeded presentation tables.
    """
    regions = _valid_regions(box=2)
    assert len(regions) == 113
    certified = {}
    for region in regions:
        t = bigraded_betti(_region_module(region))
        if check_extremality_certificate(t).verdict == CERT_EXTREMAL:
            certified[t.canonical_key()] = t
    rays = enumerate_box_rays((3, 3))
    heart_pm = seed_catalogue()[0][1]
    heart_mod = coker_presentation(heart_pm)
    seed_keys = {
        bigraded_betti(heart_mod).canonical_key(),
        bigraded_betti(dual_module(heart_mod)).canonical_key(),
    }
    ray_keys = {t.canonical_key() for t in rays}
    assert seed_keys <= ray_keys
    assert ray_keys - seed_keys == set(certified)
    assert len(certified) == 73
    assert len(rays) == 75


def _staircase_antichains(bound_a, bound_b):
    """All nonempty antichains of exponent pairs inside the box.

    An antichain (no generator divides another) is a choice of columns
    a_1 < ... < a_r paired with strictly decreasing b values; these are
    exactly the minimal generating sets of monomial ideals whose
    generators fit in the box.
    """
    out = []
    for r in range(1, min(bound_a, bound_b) + 2):
        for cols in combinations(range(bound_a + 1), r):
            for rows in combinations(range(bound_b + 1), r):
                out.append(tuple(zip(cols, sorted(rows, reverse=True))))
    return out


def _antichain_box_rays(bound):
    """Reference route for enumerate_box_rays: every pair of antichains
    (I, J) in the box, the module I/J, and the Koszul oracle."""
    b1, b2 = bound
    found = {}

    def consider(table):
        if table.is_empty() or not all(
                0 <= a <= b1 and 0 <= b <= b2 for a, b in table.support()):
            return
        try:
            verdict = check_extremality_certificate(table)
        except NotFiniteLength:
            return
        if verdict.is_extremal():
            found.setdefault(table.canonical_key(), table.gcd_normalized())

    antichains = _staircase_antichains(b1, b2)
    for gens_i in antichains:
        for gens_j in antichains:
            if not all(any(g[0] <= p[0] and g[1] <= p[1] for g in gens_i)
                       for p in gens_j):
                continue
            if min(b for _, b in gens_j) > min(b for _, b in gens_i):
                continue
            if min(a for a, _ in gens_j) > min(a for a, _ in gens_i):
                continue
            module = monomial_quotient(MonomialPair(gens_i, gens_j))
            if module.dims:
                consider(bigraded_betti(module))
    for _, seed in seed_catalogue():
        module = coker_presentation(seed)
        consider(bigraded_betti(module))
        consider(bigraded_betti(dual_module(module)))
    return sorted(found.values(), key=lambda t: sorted(t.entries.items()))


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


def _table_column(a, prev, col):
    """Entries of table column a of a region module, by counting corners.

    Every piece is one-dimensional with identity multiplications, so
    the Koszul homology at (a, b) depends only on which of the cells
    here (a, b), left (a-1, b), below (a, b-1) and corner (a-1, b-1)
    lie in the region: column a of the table depends on the region's
    columns a - 1 (prev) and a (col) only.  For a column [l, u),
    beta_0 sits at its bottom cell (a, l) when (a - 1, l) is outside,
    and beta_2 at (a + 1, u) when the cell (a + 1, u - 1) right of its
    top is outside.  beta_1 follows from the Euler characteristic
    beta_0 - beta_1 + beta_2 = here - left - below + corner, whose
    right side, as a function of b, is +1 at l and -1 at u for the
    column a and the reverse for the column a - 1.

    No vertex mixes degrees; write [l', u') for column a - 1.  beta_1
    at l needs l' = l, against beta_0's (a - 1, l) outside, or a -1 at
    u' = l, which needs (a, l - 1) in column a.  beta_1 at u' needs
    u = u', against beta_2's (a, u' - 1) outside, or a -1 at l = u',
    which needs (a - 1, u') in column a - 1.  beta_0 and beta_2 at
    l = u' would leave (a - 1, l) out between (a - 1, l - 1) and (a, l).
    """
    entries = {}
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
    return entries


def staircase_betti(columns):
    """Betti table of a region module given as a tuple of columns,
    each None or an interval (l, u): one more table column than
    region columns, each read off by _table_column, whose keys are
    (i, (a, b)) with i in {0, 1, 2} and whose counts are nonzero
    ints, positive because they are Betti numbers of the region
    module (the Koszul oracle agrees on every region of box (4,4))."""
    entries = {}
    prev = None
    for a, col in enumerate(columns + (None,)):
        entries.update(_table_column(a, prev, col))
        prev = col
    return BigradedBettiTable(entries)


def _step(a, prev, col, ends):
    """Region column col placed after prev: (part, ends_next) with
    part table column a, or None to cut by pruned_regions' rules.

    ends[b] is b while row b has no vertex, the other end of b's path
    while it has one, and None once it has two; ends is None once the
    cycle has closed.  Joining rows u and v closes the cycle if v ends
    u's path.  Closing forgets any other open path: no staircase
    region has a row with one vertex, so every completion of such a
    branch places a vertex after closure and is cut.  The walk's
    frontier (a, p, q, prev, ends) is complete: the columns that may
    follow and their verdicts depend on nothing else, so equal
    frontiers have equal futures.
    """
    part = _table_column(a, prev, col)
    if not part:
        return part, ends
    rows = {b for _, (_, b) in part}
    if len(rows) != 2 or ends is None:
        return None
    u, v = rows
    eu, ev = ends[u], ends[v]
    if eu is None or ev is None:
        return None
    if eu == v:
        return part, None
    ends_next = list(ends)
    ends_next[eu], ends_next[ev] = ev, eu
    if eu != u:
        ends_next[u] = None
    if ev != v:
        ends_next[v] = None
    return part, tuple(ends_next)


def _stepped_dense_shapes(k):
    """The certified region tables in box (k - 1, k - 1) that use all k
    table columns, each as its sorted (i, a, b) triples, lazily, in the
    walk's order: the stepped route to rays._dense_shapes, which
    generates them in closed form.

    Columns are chosen as in staircase_regions; each choice goes
    through _step, and the walk recurses on what it returns, undoing
    nothing.  It cuts also as soon as a finished table column is
    empty, and yields a region whose last step closes the cycle, its
    table read off its columns at the leaf by staircase_betti.
    Without that last cut this is pruned_regions(k - 1, k - 1).
    """
    def walk(a, p, q, columns, ends):
        prev = columns[-1] if columns else None
        if a == k - 1:
            last = _step(a, prev, None, ends)
            if last is not None and last[0] and last[1] is None:
                yield sorted([(i, a, b) for i, (a, b)
                              in staircase_betti(columns).entries])
            return
        choices = [(None, p, p)]
        choices += [((low, high), low, high)
                    for low in range(min(p, k - 2) + 1)
                    for high in range(low + 1, q + 1)]
        for col, p_next, q_next in choices:
            step = _step(a, prev, col, ends)
            if step is not None and step[0]:
                yield from walk(a + 1, p_next, q_next, columns + (col,),
                                step[1])

    yield from walk(0, k - 1, k - 1, (), tuple(range(k)))


def pruned_regions(bound_a, bound_b):
    """Staircase regions inside [0, bound_a) x [0, bound_b) whose tables
    pass the extremality certificate, as (columns, table) pairs, each
    once, lazily, in staircase_regions' order.

    The reference route for the certified walk, written without the
    transition _step: the columns are chosen as in staircase_regions,
    table column a is read off by _table_column as soon as region
    column a is placed, and a branch is cut by three necessary
    conditions of the certificate, so no region whose table certifies
    is cut.  Table column a is final once region column a is placed,
    so a column of vertex count other than 0 or 2 fails in every
    completion (no table column mixes homological degrees); rows only
    gain vertices, so a row that would reach a third vertex fails too;
    and each column of two vertices joins their two rows, so the rows
    form paths and cycles, and a closed cycle is full, so a vertex
    placed after it leaves the graph disconnected.  A region is
    yielded once its cycle has closed: no row then holds a single
    vertex (the K-polynomial test, which every region passes, needs
    each row's signed counts to cancel), so the graph is that one
    cycle.  rows[b] counts the vertices of row
    b, and ends[b] is the other end of the path that ends at row b (one
    vertex), or b itself (no vertex); both are undone after each
    branch.  A leaf's table goes through the public constructor.
    """
    columns = []
    parts = []
    rows = [0] * (bound_b + 1)
    ends = list(range(bound_b + 1))

    def place(a, prev, col, closed):
        """Table column a, the rows of its two vertices (or none), and
        whether the cycle has closed after it; None to cut."""
        part = _table_column(a, prev, col)
        rows_hit = {}
        for _, (_, b) in part:
            rows_hit[b] = None
        if not rows_hit:
            return part, (), closed
        if len(rows_hit) != 2 or closed:
            return None
        u, v = rows_hit
        if rows[u] == 2 or rows[v] == 2:
            return None
        return part, (u, v), ends[u] == v

    def walk(a, p, q, prev, closed):
        if a == bound_a:
            last = place(a, prev, None, closed)
            if last and last[2]:
                entries = {}
                for part in parts + [last[0]]:
                    entries.update(part)
                yield tuple(columns), BigradedBettiTable(entries)
            return
        choices = [(None, p, p)]
        choices += [((low, high), low, high)
                    for low in range(min(p, bound_b - 1) + 1)
                    for high in range(low + 1, q + 1)]
        for col, p_next, q_next in choices:
            placed = place(a, prev, col, closed)
            if placed is None:
                continue
            part, joined, closed_next = placed
            if joined:
                u, v = joined
                eu, ev = ends[u], ends[v]
                saved = ends[eu], ends[ev]
                ends[eu], ends[ev] = ev, eu
                rows[u] += 1
                rows[v] += 1
            columns.append(col)
            parts.append(part)
            yield from walk(a + 1, p_next, q_next, col, closed_next)
            parts.pop()
            columns.pop()
            if joined:
                rows[u] -= 1
                rows[v] -= 1
                ends[eu], ends[ev] = saved

    yield from walk(0, bound_b, bound_b, None, False)


def _cells(columns):
    return {(a, b) for a, col in enumerate(columns) if col
            for b in range(*col)}


def test_region_walk_matches_antichain_pairs_up_to_box_four():
    for b1 in range(5):
        for b2 in range(5):
            assert enumerate_box_rays((b1, b2)) == \
                _antichain_box_rays((b1, b2)), (b1, b2)


def test_corner_count_matches_koszul_oracle_on_every_region():
    regions = list(staircase_regions(4, 4))
    assert len(regions) == 1145
    for columns in regions:
        assert staircase_betti(columns) == \
            bigraded_betti(_region_module(_cells(columns))), columns


def test_region_walk_yields_the_literal_subset_sweep():
    walked = [frozenset(_cells(c)) for c in staircase_regions(3, 3)]
    assert len(walked) == len(set(walked)) == 113
    assert set(walked) == {frozenset(s) for s in _valid_regions(box=2)}


def test_region_counts_per_box():
    assert [sum(1 for _ in staircase_regions(b, b))
            for b in range(2, 6)] == [12, 113, 1145, 12577]
    assert sum(1 for _ in staircase_regions(5, 3)) == 780


def test_no_region_table_mixes_homological_degrees_up_to_box_five():
    """The walk cuts by rows alone, because no table column of a
    staircase region holds a vertex in two homological degrees."""
    for columns in staircase_regions(5, 5):
        graph = matching_graph(staircase_betti(columns))
        assert all(len(support) == 1
                   for _, support in graph.vertices.values()), columns


def test_enumerate_box_five_count():
    rays = enumerate_box_rays((5, 5))
    assert len(rays) == 2698


def _keyed_box_rays(bound):
    """Reference route for enumerate_box_rays' listing: the canonical
    key (gcd and sort) of every walked region and certified seed in a
    set, sorted, each ray rebuilt through the public constructor."""
    b1, b2 = bound
    found = {table.canonical_key() for _, table in pruned_regions(b1, b2)}
    for _, seed in seed_catalogue():
        module = coker_presentation(seed)
        for table in (bigraded_betti(module),
                      bigraded_betti(dual_module(module))):
            if all(0 <= a <= b1 and 0 <= b <= b2
                   for a, b in table.support()) \
                    and check_extremality_certificate(table).is_extremal():
                found.add(table.canonical_key())
    return [BigradedBettiTable(dict(k)) for k in sorted(found)]


def _keyed_swap_count(tables):
    """Reference route for count_up_to_swap: the lesser of each
    table's canonical key and its mirror's, in a set."""
    seen = set()
    for t in tables:
        key = t.canonical_key()
        swapped = sorted(((i, (b, a)), c) for (i, (a, b)), c in key)
        seen.add(min(key, tuple(swapped)))
    return len(seen)


def _check_listing(bound, max_box=DEFAULT_MAX_BOX):
    """The listing equals the keyed route, entry order included (the
    CLI writes a ray's entries in the order it stores them), box_rays
    lists the same, and its swap count, read off the placements,
    equals count_up_to_swap's and the keyed route's; box_ray_codes,
    decoded through its entry list, gives box_rays' tables, whose
    equal entry keys are one object; returns the rays."""
    rays = enumerate_box_rays(bound, max_box)
    items = [list(t.entries.items()) for t in rays]
    assert items == \
        [list(t.entries.items()) for t in _keyed_box_rays(bound)], bound
    listed, count = box_rays(bound, max_box)
    assert [list(t.entries.items()) for t in listed] == items, bound
    assert count == count_up_to_swap(rays) == _keyed_swap_count(rays), bound
    codes, entries, swaps = box_ray_codes(bound, max_box)
    b1, b2 = bound
    assert all(c == (i * (b1 + 1) + a) * (b2 + 1) + b and n == 1
               for c, ((i, (a, b)), n) in enumerate(entries)), bound
    assert [[entries[c] for c in key] for key in codes] == items, bound
    assert swaps == count, bound
    shared = {}
    assert all(shared.setdefault(key, key) is key
               for t in listed for key in t.entries), bound
    return rays


def test_listing_matches_the_keyed_route_up_to_box_five():
    for b1 in range(6):
        for b2 in range(6):
            _check_listing((b1, b2))


def test_stored_seed_keys_are_the_certified_oracle_tables():
    """SEED_KEYS holds the heart's table and its dual's, as the Koszul
    oracle computes them from the catalogue, and both certify."""
    (_, heart), = seed_catalogue()
    module = coker_presentation(heart)
    tables = [bigraded_betti(module), bigraded_betti(dual_module(module))]
    assert SEED_KEYS == tuple(t.canonical_key() for t in tables)
    for table in tables:
        assert check_extremality_certificate(table).is_extremal()


def test_no_seed_key_is_a_region_key():
    """The listing adds the stored seeds without a dedup, which needs
    them to differ from every walked region table (and, as the proof in
    enumerate_box_rays says, from every region table at all)."""
    for b1 in range(6):
        for b2 in range(6):
            keys = {t.canonical_key() for _, t in pruned_regions(b1, b2)}
            assert keys.isdisjoint(SEED_KEYS), (b1, b2)
    keys = {staircase_betti(c).canonical_key()
            for c in staircase_regions(4, 4)}
    assert len(keys) == 1145 and keys.isdisjoint(SEED_KEYS)


# The code of the dense-shape generator's recursion, _dense_shapes'
# nested grow.
GROW = next(c for c in _dense_shapes.__code__.co_consts
            if getattr(c, "co_name", None) == "grow")


def test_listing_runs_no_oracle_and_no_certificate():
    """enumerate_box_rays reads its seeds from SEED_KEYS: no function of
    the module engine and no certificate runs while it lists a box the
    seeds fit in, and its shapes come from the generator, not from the
    tests' stepped walk."""
    engine = module_engine.__file__
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        rays = enumerate_box_rays((4, 4))
    finally:
        sys.setprofile(None)
    assert len(rays) == 441
    assert GROW in seen
    assert _step.__code__ not in seen
    assert _table_column.__code__ not in seen
    assert not [c.co_name for c in seen if c.co_filename == engine]
    assert check_extremality_certificate.__code__ not in seen


# Regions equal to their own transpose, per square box.
SELF_TRANSPOSE_REGIONS = {4: 51, 5: 146, 6: 412}


@pytest.mark.parametrize("box", sorted(SELF_TRANSPOSE_REGIONS))
def test_swap_classes_by_burnside(box):
    """On a square box the listing is closed under swap, so its classes
    are (rays + self-transpose rays) / 2.  The self-transpose rays are
    those regions plus both seeds, heart and dual.  At box 6 the
    listing is checked against the keyed route as well."""
    rays = _check_listing((box, box)) if box == 6 \
        else enumerate_box_rays((box, box))
    fixed = sum(table.swap_xy() == table for table in rays)
    assert fixed == SELF_TRANSPOSE_REGIONS[box] + 2
    assert 2 * count_up_to_swap(rays) == len(rays) + fixed


def test_listing_past_the_default_guard():
    """k up to 4 with a long side of 8 table columns or rows."""
    _check_listing((7, 3), max_box=7)
    _check_listing((3, 7), max_box=7)


@pytest.mark.slow
@pytest.mark.parametrize("other", range(7))
def test_listing_matches_the_keyed_route_at_six(other):
    _check_listing((6, other))
    if other != 6:
        _check_listing((other, 6))


def test_every_seed_key_is_its_own_mirror():
    """box_rays drops the listed seeds from its swap count, which
    needs each to be its own mirror."""
    for key in SEED_KEYS:
        assert tuple(sorted(((i, (b, a)), c)
                            for (i, (a, b)), c in key)) == key


@pytest.mark.parametrize("k", range(2, 7))
def test_dense_shapes_transpose_to_dense_shapes(k):
    """box_rays finds a placement's mirror among the placements of the
    same k, which needs the shapes closed under transposing."""
    shapes = {tuple(shape) for shape in _dense_shapes(k)}
    assert {tuple(sorted((i, b, a) for i, a, b in shape))
            for shape in shapes} == shapes


def test_swap_classes_count_a_mirror_pair_once():
    tables = [BigradedBettiTable({(0, (1, 0)): 1}),
              BigradedBettiTable({(0, (0, 1)): 1}),
              BigradedBettiTable({(0, (1, 1)): 1}),
              BigradedBettiTable({(0, (2, 0)): 1})]
    assert count_up_to_swap(tables) == _keyed_swap_count(tables) == 3
    assert count_up_to_swap(tables[::-1]) == 3
    assert count_up_to_swap(tables[1:]) == 3


def _scaled(table, k):
    return BigradedBettiTable({key: k * c for key, c in table.entries.items()})


def test_swap_count_takes_any_tables():
    """Inputs no listing produces: scalar multiples, exact copies,
    reversed order and the empty table."""
    rays = enumerate_box_rays((3, 3))
    empty = BigradedBettiTable({})
    for tables, want in [
            (rays, 47),
            (rays + [_scaled(t, 3) for t in rays], 47),
            ([_scaled(t, 3) for t in rays] + rays, 47),
            (rays + rays, 47),
            ([_scaled(t.swap_xy(), 2) for t in rays] + rays, 47),
            (rays[::-1], 47),
            ([t.swap_xy() for t in rays[::-1]], 47),
            (rays + [empty], 48),
            ([empty, empty], 1),
            ([], 0)]:
        assert count_up_to_swap(tables) == _keyed_swap_count(tables) == want


_SMALL_TABLES = st.dictionaries(
    st.tuples(st.integers(0, 2),
              st.tuples(st.integers(0, 3), st.integers(0, 3))),
    st.integers(1, 4), max_size=5).map(BigradedBettiTable)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SMALL_TABLES, st.integers(0, 7), st.integers(1, 3),
                          st.booleans()), max_size=8))
def test_swap_count_matches_the_keyed_route(drawn):
    """Up to 8 small tables; where the drawn index names an earlier
    table, a copy of it scaled by k, and mirrored when asked, stands in
    for the drawn table.  The count equals the keyed route's."""
    tables = []
    for table, j, k, mirrored in drawn:
        if j < len(tables):
            table = _scaled(tables[j], k)
            if mirrored:
                table = table.swap_xy()
        tables.append(table)
    assert count_up_to_swap(tables) == _keyed_swap_count(tables)


def _rebuilt_publicly(table):
    """The public constructor accepts a table a trusted producer built,
    and rebuilds the very same entries, types and order included."""
    rebuilt = BigradedBettiTable(table.entries)
    assert rebuilt == table and repr(rebuilt.entries) == repr(table.entries)


def test_trusted_tables_pass_the_public_constructor():
    for b1 in range(5):
        for b2 in range(5):
            for columns in staircase_regions(b1, b2):
                table = staircase_betti(columns)
                _rebuilt_publicly(table)
                _rebuilt_publicly(table.gcd_normalized())
            for _, table in pruned_regions(b1, b2):
                _rebuilt_publicly(table)
            for table in enumerate_box_rays((b1, b2)):
                _rebuilt_publicly(table)
    for _, seed in seed_catalogue():
        module = coker_presentation(seed)
        for table in (bigraded_betti(module),
                      bigraded_betti(dual_module(module))):
            tripled = BigradedBettiTable(
                {key: 3 * c for key, c in table.entries.items()})
            _rebuilt_publicly(tripled.gcd_normalized())


@settings(max_examples=300)
@given(_SMALL_TABLES)
# Both homological degrees at (1, 1) cancel: the zero is dropped.
@example(BigradedBettiTable({(0, (1, 1)): 2, (1, (1, 1)): 2,
                             (2, (0, 3)): 1}))
def test_trusted_k_polynomial_passes_the_public_constructor(table):
    """k_polynomial folds without re-checking; the public constructor
    rebuilds the same coefficients, and they equal a fold written
    here."""
    k = k_polynomial(table)
    assert all(type(a) is int and type(b) is int and type(c) is int and c
               for (a, b), c in k.coefficients.items())
    rebuilt = KPolynomial(k.coefficients)
    assert rebuilt == k and repr(rebuilt.coefficients) == repr(k.coefficients)
    want = {}
    for (i, alpha), count in table.entries.items():
        want[alpha] = want.get(alpha, 0) + (-1) ** i * count
    assert k.coefficients == {a: c for a, c in want.items() if c}


def _is_subsequence(short, long):
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def _check_pruned_walk(b1, b2):
    """The pruned walk leaves regions out of the reference walk and
    nothing else, pairs each region with its corner-count table, keeps
    every region whose table certifies, and keeps only those (the
    public certificate, K-polynomial test included, on every region it
    yields); returns how many it keeps."""
    pruned = list(pruned_regions(b1, b2))
    kept = [columns for columns, _ in pruned]
    for columns, table in pruned:
        assert table == staircase_betti(columns), columns
        verdict = check_extremality_certificate(staircase_betti(columns))
        assert verdict.is_extremal(), (columns, verdict)
    reference = list(staircase_regions(b1, b2))
    assert _is_subsequence(kept, reference), (b1, b2)
    kept = set(kept)
    for columns in reference:
        if columns not in kept:
            verdict = check_extremality_certificate(staircase_betti(columns))
            assert not verdict.is_extremal(), columns
    return len(kept)


def test_pruned_walk_keeps_every_certified_region_up_to_box_five():
    counts = {(b1, b2): _check_pruned_walk(b1, b2)
              for b1 in range(6) for b2 in range(6)}
    assert [counts[(b, b)] for b in range(2, 6)] == [11, 73, 439, 2696]
    assert counts[(5, 3)] == 325


def _count_regions(bound_a, bound_b):
    """How many regions pruned_regions yields, by a count memoized on
    the walk's frontier (a, p, q, prev, ends) through _step alone.  It
    agrees with the walk only if the frontier is complete: equal
    frontiers must have equal futures."""
    @functools.cache
    def count(a, p, q, prev, ends):
        if a == bound_a:
            last = _step(a, prev, None, ends)
            return int(last is not None and last[1] is None)
        choices = [(None, p, p)] + [((low, high), low, high)
                                    for low in range(min(p, bound_b - 1) + 1)
                                    for high in range(low + 1, q + 1)]
        total = 0
        for col, p_next, q_next in choices:
            step = _step(a, prev, col, ends)
            if step is not None:
                total += count(a + 1, p_next, q_next, col, step[1])
        return total

    return count(0, bound_b, bound_b, None, tuple(range(bound_b + 1)))


def test_memoized_frontier_count_matches_the_walk():
    for b1 in range(6):
        for b2 in range(6):
            assert _count_regions(b1, b2) == \
                sum(1 for _ in pruned_regions(b1, b2)), (b1, b2)
    assert _count_regions(6, 6) == 17380


def test_step_cuts_joins_and_closes():
    free = tuple(range(4))
    # An empty interval puts two degrees on one vertex: one row.
    assert _step(0, None, (2, 2), free) is None
    # Columns (0, 1) then (1, 2) put vertices on rows 0, 1 and 2.
    assert _step(1, (0, 1), (1, 2), free) is None
    # Rows 0 and 1 become the two ends of one path.
    part, ends = _step(0, None, (0, 1), free)
    assert part == {(0, (0, 0)): 1, (1, (0, 1)): 1}
    assert ends == (1, 0, 2, 3)
    # Joining rows 1 and 2 links the paths 0-1 and 2-3 into 0-3.
    assert _step(0, None, (1, 2), (1, 0, 3, 2))[1] == (3, None, None, 0)
    # Row 0 is full, so no vertex may go on it.
    assert _step(0, None, (0, 1), (None, 2, 1, 3)) is None
    # Joining the two ends of one path closes the cycle.
    assert _step(0, None, (0, 1), (1, 0, 2, 3))[1] is None
    # After closure any vertex is cut, and an empty column passes.
    assert _step(0, None, (0, 1), None) is None
    assert _step(2, None, None, None) == ({}, None)


# SHA-256 of repr(list(pruned_regions(*box))), taken from this walk
# while it was the library's.
PINNED_WALKS = {
    (4, 4): "deda618c047e9714712bf666d01a30a253fe776c"
            "9046e9ac856fe857205ad910",
    (5, 3): "0c6565bf7c5435d70b0c64e5fff44059be1afb01"
            "19ce03c1f5511ec5a03d99d5",
}


@pytest.mark.parametrize("box", sorted(PINNED_WALKS))
def test_pruned_walk_yields_the_pinned_sequence(box):
    listing = repr(list(pruned_regions(*box))).encode()
    assert hashlib.sha256(listing).hexdigest() == PINNED_WALKS[box]


@pytest.mark.slow
def test_pruned_walk_and_rays_at_box_six():
    assert _check_pruned_walk(6, 6) == 17380
    assert len(enumerate_box_rays((6, 6))) == 17382


# SHA-256 of repr(list(...)) of each walk on its own, pruned_regions
# per box and _dense_shapes per k, taken while the two walks were still
# written out separately: a change that reorders or alters either walk
# fails here, even where the walks still agree with each other.
PINNED_PRUNED = {
    (5, 5): "18b4075b7e741901b6aede77fdf23b516d2d4979"
            "362c1595399041ddb7cb7b25",
    (6, 6): "ed359797550627a232d72b0f528f204d9c5d5116"
            "13926519ccf07abc291b2f9d",
}
PINNED_DENSE = {
    2: "37a424be435b97948cc747430daf63b99bd9375a1c0669fca35bfa4c94f257d7",
    3: "7edb34cf3f966004849ea72b5d8a34b54a207ad5d68d7a7451bc26df7ac9ca3a",
    4: "39bb3b7674e8dc544cb59aa9fc7ae89a0090cfbec137f4f5be204b3cffd28e82",
    5: "72fa9886ef845648de632623a6c63bec243f6717da76904659e6a885da2a446f",
    6: "73daa0c98cb9dded8a7ae2343c8d6f9d0577e524cce7d468b238601a0a64db78",
    7: "7ced595a78c4fd29cb7e780bbc438639d96177925119a673ecd434cfc0df849f",
}


def _digest(items):
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def test_pruned_walk_at_box_five_yields_its_pinned_sequence():
    assert _digest(pruned_regions(5, 5)) == PINNED_PRUNED[(5, 5)]


@pytest.mark.parametrize("k", range(2, 7))
def test_dense_shapes_yield_their_pinned_sequence(k):
    assert _digest(_dense_shapes(k)) == PINNED_DENSE[k]


@pytest.mark.slow
def test_walks_at_box_six_and_shapes_at_seven_yield_their_pinned_sequences():
    assert _digest(pruned_regions(6, 6)) == PINNED_PRUNED[(6, 6)]
    assert _digest(_dense_shapes(7)) == PINNED_DENSE[7]


# Dense monomial shapes per k, Cat(k - 1), and how many of them equal
# their own transpose, C(k - 1, (k - 1) // 2).
DENSE_SHAPES = {2: (1, 1), 3: (2, 2), 4: (5, 3), 5: (14, 6), 6: (42, 10),
                7: (132, 20), 8: (429, 35), 9: (1430, 70), 10: (4862, 126)}


def _shape_counts(shapes):
    """(shapes, self-transpose shapes)."""
    fixed = sum(sorted((i, b, a) for i, a, b in shape) == shape
                for shape in shapes)
    return len(shapes), fixed


def _check_dense_shapes(k):
    """_dense_shapes(k) is the full walk of box k - 1 filtered to the
    tables that use all k columns, in the walk's order, and the
    stepped walk; every such table uses all k rows, and the counts are
    the pinned ones."""
    walked = [sorted((i, a, b) for i, (a, b) in table.entries)
              for _, table in pruned_regions(k - 1, k - 1)]
    dense = [shape for shape in walked
             if {a for _, a, _ in shape} == set(range(k))]
    shapes = list(_dense_shapes(k))
    assert shapes == dense == list(_stepped_dense_shapes(k)), k
    assert all({b for _, _, b in shape} == set(range(k)) for shape in shapes)
    assert _shape_counts(shapes) == DENSE_SHAPES[k]


@pytest.mark.parametrize("k", range(2, 7))
def test_dense_shapes_are_the_full_walk_filtered(k):
    _check_dense_shapes(k)


def test_dense_shape_counts_past_the_walk():
    """s_k = Cat(k - 1) shapes, f_k = C(k - 1, (k - 1) // 2) of them
    self-transpose, up to k = 10, past what the walks check; each shape
    is a sorted table of 2k vertices, two in every column and row, and
    no shape repeats."""
    for k in range(2, 11):
        shapes = list(_dense_shapes(k))
        n = k - 1
        assert _shape_counts(shapes) == DENSE_SHAPES[k] == \
            (comb(2 * n, n) // (n + 1), comb(n, n // 2)), k
        assert len({tuple(shape) for shape in shapes}) == len(shapes), k
        for shape in shapes:
            assert shape == sorted(shape) and len(shape) == 2 * k, shape
            for axis in (1, 2):
                assert sorted(t[axis] for t in shape) == \
                    sorted(2 * list(range(k))), shape


# Recursive calls of the dense-shape generator per listing, Cat(k)
# for each k = 2 .. m + 1, m = min(B1, B2), so 5,3 and 3,5 take the
# calls of 3,3.
LISTING_CALLS = {(3, 3): 21, (4, 4): 63, (5, 3): 21, (3, 5): 21,
                 (5, 5): 195, (6, 6): 624}


def _grow_calls(box):
    """Calls of the generator's grow while box_rays lists the box, one
    per frame: the profiler also reports each resumption as a call."""
    frames = {}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is GROW:
            frames[id(frame)] = frame

    sys.setprofile(hook)
    try:
        box_rays(box)
    finally:
        sys.setprofile(None)
    return len(frames)


def test_listing_walks_the_dense_shapes_only():
    """The listing generates the dense shapes of each k, not the
    regions of the full box, and makes exactly the pinned recursive
    calls: the stepped walk of the dense shapes took 461 steps at box
    4,4 and 7749 at box 6,6, and the full walk 1449 and 64509."""
    for box, calls in LISTING_CALLS.items():
        assert _grow_calls(box) == calls, box


@pytest.mark.slow
def test_dense_shapes_at_seven_and_the_listing_at_box_six():
    _check_dense_shapes(7)
    _check_dense_shapes(8)
    assert [list(t.entries.items()) for t in enumerate_box_rays((6, 6))] \
        == [list(t.entries.items()) for t in _keyed_box_rays((6, 6))]

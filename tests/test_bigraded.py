"""Matching graphs, extremality certificates, and ray enumeration.

The enumeration tests at the bottom re-derive the ray list by routes
that share no code with the library's region walk and corner count:
every pair of generator antichains in the box through the Koszul
oracle, and every subset of the low grid kept when it is shaped like a
staircase region.  Agreement between the routes is the completeness
evidence for the box scan.  The unpruned region walk kept here is the
reference for the library's pruned walk: the pruned walk may only
leave out regions whose tables fail the certificate.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from betticone import (
    BigradedBettiTable,
    BoundTooLarge,
    CERT_EXTREMAL,
    CERT_INCONCLUSIVE,
    FiniteModule,
    MonomialPair,
    NotFiniteLength,
    bigraded_betti,
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
from betticone import seed_catalogue
from betticone.bigraded import (
    bigraded_from_json_obj,
    bigraded_to_json_obj,
)
from betticone.rays import pruned_regions, staircase_betti

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


def test_enumerate_guards_against_large_boxes(monkeypatch):
    with pytest.raises(BoundTooLarge):
        enumerate_box_rays((7, 7))
    monkeypatch.setenv("BETTICONE_MAX_BOX", "1")
    with pytest.raises(BoundTooLarge):
        enumerate_box_rays((2, 2))
    monkeypatch.delenv("BETTICONE_MAX_BOX")
    assert len(enumerate_box_rays((2, 2), max_box=2)) == 11


def test_seed_catalogue_contains_heart_presentation():
    names = [name for name, _ in seed_catalogue()]
    assert names == ["heart"]
    _, pm = seed_catalogue()[0]
    t = bigraded_betti(coker_presentation(pm))
    assert check_extremality_certificate(t).verdict == CERT_EXTREMAL
    assert len(t.entries) == 8


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


def test_enumerate_box_five_count():
    rays = enumerate_box_rays((5, 5))
    assert len(rays) == 2698


def _is_subsequence(short, long):
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def _check_pruned_walk(b1, b2):
    """The pruned walk leaves regions out of the reference walk and
    nothing else, pairs each region with its corner-count table, and
    keeps every region whose table certifies; returns how many it
    keeps."""
    pruned = list(pruned_regions(b1, b2))
    kept = [columns for columns, _ in pruned]
    for columns, table in pruned:
        assert table == staircase_betti(columns), columns
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
    assert [counts[(b, b)] for b in range(2, 6)] == [11, 74, 468, 3080]
    assert counts[(5, 3)] == 340


@pytest.mark.slow
def test_pruned_walk_and_rays_at_box_six():
    assert _check_pruned_walk(6, 6) == 21158
    assert len(enumerate_box_rays((6, 6))) == 17382

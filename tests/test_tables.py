"""Graded Betti tables, pure tables, and the finite-length numerator test.

Frozen multiplicities below were first computed by hand from the
alternating product formula (each beta_k is a product of degree
differences divided by the differences at k) and cross-checked against
the numerator divisibility route before being pinned.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betticone import (
    BigradedBettiTable,
    DegreeSequence,
    GradedBettiTable,
    HilbertNumerator,
    KPolynomial,
    NonIncreasingDegrees,
    NotInConeCandidate,
    PureTable,
    check_hk_equations,
    coarsen,
    graded_from_json_obj,
    graded_to_json_obj,
    hilbert_numerator,
    hk_pure_table,
    is_finite_length_numerator,
    monomial_quotient,
    MonomialPair,
    bigraded_betti,
    collapse_step,
    decompose_graded,
    line_bundle_cohomology,
    local_from_graded,
    normalize_positive_integers,
    proportionality_ratio,
    pure_from_json_obj,
    pure_to_json_obj,
)
from betticone.bigraded import signed_fold
from betticone.tables import as_degree_sequence, clear_denominators

# degree sequence -> minimal positive integer multiplicities
HK_FIXTURES = {
    (0, 1): (1, 1),
    (0, 1, 2): (1, 2, 1),
    (0, 2, 3): (1, 3, 2),
    (0, 1, 3): (2, 3, 1),
    (0, 1, 2, 3): (1, 3, 3, 1),
    (0, 1, 3, 5): (8, 15, 10, 3),
    (0, 3, 5, 6): (1, 5, 9, 5),
    (0, 4, 5, 6): (1, 15, 24, 10),
}


def _increasing_sequences(max_len=4, max_deg=9):
    strictly_increasing = st.lists(
        st.integers(min_value=-6, max_value=max_deg),
        min_size=2, max_size=max_len, unique=True,
    ).map(sorted)
    return strictly_increasing


def test_hk_fixed_points():
    for degs, mults in HK_FIXTURES.items():
        assert hk_pure_table(list(degs)).multiplicities == mults


def test_hk_returns_degree_sequence_unchanged():
    p = hk_pure_table([0, 1, 3, 5])
    assert p.degrees == DegreeSequence([0, 1, 3, 5])
    assert tuple(p.degrees) == (0, 1, 3, 5)


def test_hk_rejects_non_increasing():
    with pytest.raises(NonIncreasingDegrees) as exc:
        hk_pure_table([0, 0, 1])
    assert str(exc.value) == "degrees must be strictly increasing"
    with pytest.raises(NonIncreasingDegrees):
        hk_pure_table([3, 1])


def test_hk_single_degree_is_one():
    assert hk_pure_table([7]).multiplicities == (1,)


@given(_increasing_sequences())
def test_hk_translation_invariant(degs):
    shifted = [d + 11 for d in degs]
    assert hk_pure_table(degs).multiplicities == \
        hk_pure_table(shifted).multiplicities


@given(_increasing_sequences())
@settings(max_examples=150)
def test_hk_tables_satisfy_hk_equations(degs):
    table = hk_pure_table(degs).to_graded()
    assert check_hk_equations(table)
    h = hilbert_numerator(table)
    assert is_finite_length_numerator(h, table.nvars)


@given(_increasing_sequences())
def test_hk_multiplicities_are_coprime(degs):
    from math import gcd
    mults = hk_pure_table(degs).multiplicities
    g = 0
    for m in mults:
        g = gcd(g, m)
    assert g == 1


def test_graded_table_drops_zero_entries():
    t = GradedBettiTable(2, {(0, 0): 0, (1, 2): 3})
    assert (0, 0) not in t.entries
    assert t.entry(1, 2) == 3
    assert t.entry(5, 5) == 0


def test_graded_table_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative Betti entry"):
        GradedBettiTable(2, {(0, 0): -1})


def test_graded_table_add_and_scale():
    a = hk_pure_table([0, 1, 2]).to_graded()
    b = a.add(a)
    assert b == a.scaled(2)
    assert b.entry(1, 1) == 4
    half = b.scaled(Fraction(1, 2))
    assert half == a


def test_graded_table_column():
    t = hk_pure_table([0, 1, 3, 5]).to_graded()
    assert t.column(2) == {3: 10}
    assert t.column(9) == {}


def test_projective_dimension():
    t = hk_pure_table([0, 1, 3, 5]).to_graded()
    assert t.projective_dimension() == 3
    assert GradedBettiTable(3, {}).projective_dimension() is None


def test_check_hk_equations_rejects_perturbed_table():
    t = hk_pure_table([0, 1, 3, 5]).to_graded()
    entries = dict(t.entries)
    entries[(1, 1)] = entries[(1, 1)] + 1
    assert not check_hk_equations(GradedBettiTable(t.nvars, entries))


def test_hilbert_numerator_coefficients():
    t = hk_pure_table([0, 1, 3, 5]).to_graded()
    h = hilbert_numerator(t)
    assert h.coefficients == {0: 8, 1: -15, 3: 10, 5: -3}
    assert h.coefficient(2) == 0
    assert not h.is_zero()


def test_hilbert_numerator_clears_denominators():
    t = GradedBettiTable(1, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    h = hilbert_numerator(t)
    # integer coefficient dict plus a scale factor keeps everything exact
    assert h.scale == 2
    assert h.coefficients == {0: 1, 1: -1}
    assert is_finite_length_numerator(h, 1)


@pytest.mark.parametrize("build, args, message", [
    (GradedBettiTable, (2.5, {(0, 0): 1}), "nvars .* got 2.5"),
    (GradedBettiTable, (2, {(0.5, 0): 1}), "homological degree .* got 0.5"),
    (GradedBettiTable, (2, {(0, 1.5): 1}), "degree .* got 1.5"),
    (KPolynomial, ({(0.5, 0): 1},), "exponent .* got 0.5"),
    (KPolynomial, ({(0, -1.5): 1},), "exponent .* got -1.5"),
    (line_bundle_cohomology, (1.5, 0), "dimension .* got 1.5"),
    (line_bundle_cohomology, (1, -0.5), "twist .* got -0.5"),
    (collapse_step, ((0, 1, 2), 1.5, 0), "m .* got 1.5"),
    (collapse_step, ((0, 1, 2), 1, 0.5), "k .* got 0.5"),
    (is_finite_length_numerator, (HilbertNumerator({0: 1, 1: -1}), 1.5),
     "nvars .* got 1.5"),
    (DegreeSequence, ([0, 2.5],), "degree .* got 2.5"),
    (DegreeSequence, ([0, "a"],), "degree .* got 'a'"),
    (PureTable, ([0, 1.5], [1, 1]), "degree .* got 1.5"),
    (PureTable, ([0, 1], [1, 1.5]), "multiplicity .* got 1.5"),
], ids=["graded-nvars", "graded-i", "graded-j", "kpoly-a", "kpoly-b",
        "line-bundle-m", "line-bundle-e", "collapse-m", "collapse-k",
        "numerator-nvars", "degrees-half", "degrees-string", "pure-degree",
        "pure-multiplicity"])
def test_integer_fields_refuse_non_integral_values(build, args, message):
    """Non-integral integer fields are refused, never truncated."""
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_degrees_and_multiplicities_read_integral_values_as_ints():
    """2.0 reads as 2 and True as 1, as in every other constructor."""
    degrees = DegreeSequence([True, 2.0, Fraction(6, 2)])
    assert degrees.degrees == (1, 2, 3)
    assert all(type(d) is int for d in degrees)
    table = PureTable([0, 1.0], [2.0, Fraction(3)])
    assert table == PureTable([0, 1], [2, 3])
    assert all(type(b) is int for b in table.multiplicities)
    with pytest.raises(NonIncreasingDegrees):
        DegreeSequence([0, 2.0, 2])
    with pytest.raises(ValueError, match="positive"):
        PureTable([0, 1], [1, 0])


def test_is_finite_length_numerator_negative_case():
    # (1 - t) is divisible by (1 - t) once, not twice
    h = HilbertNumerator({0: 1, 1: -1})
    assert is_finite_length_numerator(h, 1)
    assert not is_finite_length_numerator(h, 2)


def test_finite_length_numerator_refuses_negative_nvars():
    with pytest.raises(ValueError, match="nvars must be nonnegative"):
        is_finite_length_numerator(HilbertNumerator({0: 1}), -1)


def test_finite_length_numerator_zero_is_divisible():
    assert is_finite_length_numerator(HilbertNumerator({}), 4)


def test_normalize_positive_integers():
    values = [Fraction(4, 3), Fraction(2, 3), Fraction(2, 1)]
    assert normalize_positive_integers(values) == (2, 1, 3)
    assert normalize_positive_integers([Fraction(6), Fraction(10)]) == (3, 5)


def test_proportionality_ratio():
    base = hk_pure_table([0, 3, 5, 6]).to_graded()
    assert proportionality_ratio(base.scaled(4), base) == 4
    assert proportionality_ratio(base, base.scaled(4)) == Fraction(1, 4)
    other = hk_pure_table([0, 1, 3, 5]).to_graded()
    assert proportionality_ratio(base, other) is None


def test_proportionality_ratio_edge_cases():
    empty = GradedBettiTable(2, {})
    assert proportionality_ratio(empty, empty) == 1
    # same support, counts not proportional
    t1 = GradedBettiTable(2, {(0, 0): 1, (1, 1): 2})
    t2 = GradedBettiTable(2, {(0, 0): 1, (1, 1): 3})
    assert proportionality_ratio(t1, t2) is None


def test_coarsen_bigraded_to_graded():
    square = monomial_quotient(
        MonomialPair([(0, 0)], [(2, 0), (1, 1), (0, 2)]))
    fine = bigraded_betti(square)
    coarse = coarsen(fine)
    assert coarse.nvars == 2
    assert dict(coarse.entries) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_coarsen_of_staircase_pair_is_not_pure():
    from betticone import is_pure
    pair = MonomialPair(
        [(4, 0), (2, 1), (1, 2), (0, 4)],
        [(6, 0), (3, 3), (0, 6)],
    )
    coarse = coarsen(bigraded_betti(monomial_quotient(pair)))
    assert is_pure(coarse) is None


def test_graded_json_round_trip():
    t = hk_pure_table([0, 1, 3, 5]).to_graded()
    obj = graded_to_json_obj(t)
    assert obj["kind"] == "graded"
    assert graded_from_json_obj(obj) == t


def test_graded_json_sums_duplicate_keys():
    obj = {
        "kind": "graded",
        "nvars": 2,
        "entries": [
            {"i": 0, "j": 0, "b": "1"},
            {"i": 0, "j": 0, "b": "2"},
        ],
    }
    assert graded_from_json_obj(obj).entry(0, 0) == 3


def test_pure_json_round_trip():
    p = hk_pure_table([0, 1, 3, 5])
    obj = pure_to_json_obj(p)
    assert pure_from_json_obj(obj) == p


def test_pure_to_graded_rejects_short_nvars():
    p = hk_pure_table([0, 1, 3, 5])
    with pytest.raises(ValueError):
        p.to_graded(nvars=1)


def _random_positive_combination(rng):
    n = rng.randint(1, 4)
    table = None
    for _ in range(rng.randint(1, 3)):
        degs = sorted(rng.sample(range(0, 10), n + 1))
        part = hk_pure_table(degs).to_graded(nvars=n).scaled(
            rng.randint(1, 5))
        table = part if table is None else table.add(part)
    return table


def test_hk_equations_iff_numerator_divisible():
    """The linear equations and the (1-t)^n divisibility test agree.

    Positive combinations of same-length pure tables satisfy both;
    random perturbations of one entry break both together.
    """
    rng = random.Random(20260816)
    for _ in range(200):
        t = _random_positive_combination(rng)
        assert check_hk_equations(t)
        assert is_finite_length_numerator(hilbert_numerator(t), t.nvars)
        entries = dict(t.entries)
        (i, j), b = next(iter(entries.items()))
        entries[(i, j)] = b + 1
        broken = GradedBettiTable(t.nvars, entries)
        eq = check_hk_equations(broken)
        div = is_finite_length_numerator(hilbert_numerator(broken),
                                         broken.nvars)
        assert eq == div


# The library clears denominators once and computes in int.  These are
# the Fraction bodies it replaced, kept as an independent route.

def _fraction_hk_pure_table(d):
    d = as_degree_sequence(d)
    if len(d) == 1:
        return PureTable(d, (1,))
    vals = [Fraction(1, prod(abs(di - dl) for l, dl in enumerate(d)
                             if l != i))
            for i, di in enumerate(d)]
    return PureTable(d, normalize_positive_integers(vals))


def _fraction_check_hk_equations(t):
    for k in range(t.nvars):
        total = Fraction(0)
        for (i, j), b in t.entries.items():
            term = b * j ** k
            total += -term if i % 2 else term
        if total != 0:
            return False
    return True


def _fraction_hilbert_numerator(t):
    raw = {}
    for (i, j), b in t.entries.items():
        raw[j] = raw.get(j, Fraction(0)) + (-b if i % 2 else b)
    raw = {j: c for j, c in raw.items() if c != 0}
    if not raw:
        return HilbertNumerator({}, 1)
    m = lcm(*(c.denominator for c in raw.values()))
    return HilbertNumerator({j: int(c * m) for j, c in raw.items()}, m)


def _random_rational_table(rng, perturbed):
    """A sum of pure tables over 0..5 variables with degrees in -3..12
    and coefficients of mixed denominators (sometimes no part at all);
    a perturbed table gets one more rational entry, which moves it off
    the Herzog-Kuhl hyperplane whenever nvars > 0."""
    nvars = rng.randint(0, 5)
    table = GradedBettiTable(nvars, {})
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3))):
        degs = sorted(rng.sample(range(-3, 13), nvars + 1))
        table = table.add(hk_pure_table(degs).to_graded().scaled(
            Fraction(rng.randint(1, 9), rng.randint(1, 12))))
    if perturbed:
        bump = GradedBettiTable(nvars, {
            (rng.randint(0, nvars), rng.randint(-3, 12)):
            Fraction(rng.randint(1, 9), rng.randint(1, 12))})
        table = table.add(bump)
    return table


def test_integer_kernels_match_fraction_routes_on_rational_tables():
    rng = random.Random(20261018)
    off = 0
    for k in range(2000):
        t = _random_rational_table(rng, perturbed=k % 2 == 1)
        hk = _fraction_check_hk_equations(t)
        off += not hk
        assert check_hk_equations(t) == hk
        h = hilbert_numerator(t)
        assert h == _fraction_hilbert_numerator(t)
        assert is_finite_length_numerator(h, t.nvars) == hk
    # perturbed tables over nvars = 0 stay on the (empty) hyperplane
    assert 800 <= off <= 1000


def test_integer_multiplicities_match_fraction_route_on_every_sequence():
    count = 0
    for length in range(1, 8):
        for degs in combinations(range(-3, 13), length):
            assert (hk_pure_table(degs).multiplicities
                    == _fraction_hk_pure_table(degs).multiplicities)
            count += 1
    assert count == 26332


_NEGATIVE_MIXED = hk_pure_table([-3, -1, 0, 2]).to_graded().scaled(
    Fraction(2, 3)).add(
    hk_pure_table([-2, -1, 1, 4]).to_graded().scaled(Fraction(5, 7))).entries


@pytest.mark.parametrize("entries, verdicts", [
    # the empty table: the zero numerator, divisible by every power
    ({}, {0: True, 1: True, 4: True}),
    # nvars = 0 asks nothing, whatever the entries
    ({(0, -2): Fraction(3, 4)}, {0: True}),
    # entries that cancel within one degree across denominators:
    # (t - t^2) / 3
    ({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2),
      (0, 1): Fraction(1, 3), (1, 2): Fraction(1, 3)},
     {1: True, 2: False, 3: False}),
    # a pure table over negative degrees: t^-2 (1 - t^2)^2
    ({(0, -2): 1, (1, 0): 2, (2, 2): 1}, {2: True, 3: False}),
    # pure tables over negative degrees with mixed denominators, then
    # one more entry at a negative degree
    (_NEGATIVE_MIXED, {3: True}),
    ({**_NEGATIVE_MIXED, (2, -3): Fraction(1, 6)}, {3: False}),
    ({**_NEGATIVE_MIXED, (0, -3): _NEGATIVE_MIXED[(0, -3)] + 1},
     {3: False, 4: False}),
])
def test_hk_equations_iff_numerator_divisible_on_edge_cases(entries,
                                                            verdicts):
    for nvars, want in verdicts.items():
        t = GradedBettiTable(nvars, entries)
        assert check_hk_equations(t) == want
        assert _fraction_check_hk_equations(t) == want
        h = hilbert_numerator(t)
        assert h == _fraction_hilbert_numerator(t)
        assert is_finite_length_numerator(h, nvars) == want


def test_hilbert_numerator_refuses_non_integral_values():
    with pytest.raises(ValueError, match=r"coefficient of t\^0 must be an "
                                         r"integer, got 1/2"):
        HilbertNumerator({0: Fraction(1, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="scale must be an integer"):
        HilbertNumerator({0: 1}, Fraction(3, 2))
    with pytest.raises(ValueError, match="degree must be an integer"):
        HilbertNumerator({Fraction(1, 2): 1})
    h = HilbertNumerator({0: Fraction(4, 2), 1: -2.0}, Fraction(6, 3))
    assert h == HilbertNumerator({0: 1, 1: -1})


# The library builds its own sequences, pure tables and numerators
# without re-checking them.  The public constructors must accept each
# such value and rebuild it exactly, element types and order included.

def _sequence_rebuilt_publicly(d):
    assert type(d) is DegreeSequence and type(d.degrees) is tuple
    assert all(type(x) is int for x in d.degrees)
    rebuilt = DegreeSequence(d.degrees)
    assert rebuilt == d and repr(rebuilt.degrees) == repr(d.degrees)


def _pure_rebuilt_publicly(p):
    _sequence_rebuilt_publicly(p.degrees)
    assert type(p.multiplicities) is tuple
    assert all(type(b) is int for b in p.multiplicities)
    rebuilt = PureTable(p.degrees.degrees, p.multiplicities)
    assert rebuilt == p
    assert repr(rebuilt.multiplicities) == repr(p.multiplicities)


def _numerator_rebuilt_publicly(h):
    assert type(h.scale) is int
    assert all(type(j) is int and type(c) is int
               for j, c in h.coefficients.items())
    assert gcd(h.scale, *h.coefficients.values()) == 1
    rebuilt = HilbertNumerator(h.coefficients, h.scale)
    assert rebuilt == h
    assert repr(rebuilt.coefficients) == repr(h.coefficients)


def _table_rebuilt_publicly(t):
    rebuilt = GradedBettiTable(t.nvars, t.entries)
    assert rebuilt == t and repr(rebuilt.entries) == repr(t.entries)
    assert all(type(b) is Fraction for b in t.entries.values())


_DEGREE_SEQUENCES = st.lists(st.integers(min_value=-8, max_value=20),
                             min_size=1, max_size=7, unique=True).map(sorted)
_POSITIVE = st.one_of(
    st.integers(min_value=1, max_value=9),
    st.fractions(min_value=Fraction(1, 12), max_value=9,
                 max_denominator=12))


@st.composite
def _graded_tables(draw):
    """A table over 1..6 variables with integer or rational entries:
    either a sum of pure tables along a chain of degree sequences that
    starts in -8..20 (one entry raised, sometimes), which the greedy
    takes apart, or scattered entries, which it mostly rejects."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    if not draw(st.booleans()):
        return GradedBettiTable(nvars, draw(st.dictionaries(
            st.tuples(st.integers(min_value=0, max_value=nvars),
                      st.integers(min_value=-8, max_value=20)),
            _POSITIVE, min_size=1, max_size=12)))
    degs = sorted(draw(st.lists(st.integers(min_value=-8, max_value=20),
                                min_size=nvars + 1, max_size=nvars + 1,
                                unique=True)))
    entries = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        c = draw(_POSITIVE)
        for key, b in _fraction_hk_pure_table(degs).to_graded().entries.items():
            entries[key] = entries.get(key, 0) + c * b
        cut = draw(st.integers(min_value=0, max_value=nvars))
        degs = [d + (i >= cut) for i, d in enumerate(degs)]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(entries)))
        entries[key] += draw(_POSITIVE)
    return GradedBettiTable(nvars, entries)


@given(_DEGREE_SEQUENCES)
@settings(max_examples=300)
def test_trusted_pure_tables_pass_the_public_constructor(degs):
    pure = hk_pure_table(degs)
    _pure_rebuilt_publicly(pure)
    assert pure == _fraction_hk_pure_table(degs)
    assert hk_pure_table(DegreeSequence(degs)) == pure


@given(_graded_tables())
# The fold cancels to (1/3) t^0: the gcd 2 of numerator and scale goes.
@example(GradedBettiTable(1, {(0, 0): Fraction(1, 2),
                              (1, 0): Fraction(1, 6)}))
# The fold cancels at t^0 and the zero coefficient is dropped.
@example(GradedBettiTable(1, {(0, 0): Fraction(1, 2),
                              (1, 0): Fraction(1, 2), (1, 1): 3}))
@settings(max_examples=300)
def test_trusted_graded_values_pass_the_public_constructors(t):
    h = hilbert_numerator(t)
    _numerator_rebuilt_publicly(h)
    numerators, m = clear_denominators(t.entries)
    assert h == HilbertNumerator(signed_fold(numerators), m)
    assert h == _fraction_hilbert_numerator(t)
    try:
        dec = decompose_graded(t)
    except NotInConeCandidate as exc:
        dec = exc.decomposition
        assert not dec.is_complete()
    for c, pure in dec.parts:
        assert type(c) is Fraction and c > 0
        _pure_rebuilt_publicly(pure)
        assert pure == _fraction_hk_pure_table(pure.degrees)
    _table_rebuilt_publicly(dec.residual)
    assert dec.residual.nvars == t.nvars
    assert dec.resum() == t


# A table clears its denominators once, in its constructor: entries[k]
# == Fraction(numerators[k], scale), with scale the lcm of the
# denominators.  Every way the package builds a table goes through it.

def _numerators_hold(t):
    assert type(t.scale) is int
    assert t.scale == lcm(*(b.denominator for b in t.entries.values()))
    assert t.numerators.keys() == t.entries.keys()
    for key, b in t.entries.items():
        c = t.numerators[key]
        assert type(c) is int and c > 0
        assert c == b * t.scale


# Nonnegative values as ints, Fractions and rational strings.
_RAW_VALUES = st.one_of(
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
    st.fractions(min_value=0, max_value=9,
                 max_denominator=12).map(str))


@st.composite
def _raw_tables(draw, nvars):
    return GradedBettiTable(nvars, draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=nvars),
                  st.integers(min_value=-8, max_value=20)),
        _RAW_VALUES, max_size=10)))


@given(st.data(), st.integers(min_value=0, max_value=6), _RAW_VALUES,
       st.dictionaries(
           st.tuples(st.integers(min_value=0, max_value=2),
                     st.tuples(st.integers(min_value=0, max_value=4),
                               st.integers(min_value=0, max_value=4))),
           st.integers(min_value=0, max_value=5), max_size=8))
@settings(max_examples=300)
def test_every_construction_path_holds_its_numerators(data, nvars, c,
                                                      bigraded):
    t = data.draw(_raw_tables(nvars))
    u = data.draw(_raw_tables(nvars))
    _numerators_hold(t)
    _numerators_hold(t.add(u))
    _numerators_hold(t.scaled(c))
    obj = graded_to_json_obj(t)
    _numerators_hold(graded_from_json_obj(obj))
    obj["entries"] = obj["entries"] * 2  # duplicates are summed
    doubled = graded_from_json_obj(obj)
    _numerators_hold(doubled)
    assert doubled == t.scaled(2)
    degs = sorted(data.draw(st.lists(
        st.integers(min_value=-8, max_value=20),
        min_size=1, max_size=nvars + 1, unique=True)))
    _numerators_hold(hk_pure_table(degs).to_graded(nvars))
    _numerators_hold(hk_pure_table(degs).to_graded())
    _numerators_hold(coarsen(BigradedBettiTable(bigraded)))


class _ClearedAgain:
    """A table's nvars and entries with numerators and scale taken from
    a fresh clear_denominators of the entries: what each graded call
    fed its integer route before a table held them."""

    def __init__(self, t):
        self.nvars, self.entries = t.nvars, t.entries
        self.numerators, self.scale = clear_denominators(t.entries)


def _decomposition(t):
    try:
        return decompose_graded(t)
    except NotInConeCandidate as exc:
        return exc.decomposition


@given(_graded_tables())
@settings(max_examples=300)
def test_held_numerators_feed_the_cleared_route(t):
    _numerators_hold(t)
    ref = _ClearedAgain(t)
    assert (t.numerators, t.scale) == (ref.numerators, ref.scale)
    held = dict(t.numerators)
    assert check_hk_equations(t) == check_hk_equations(ref)
    assert hilbert_numerator(t) == hilbert_numerator(ref)
    assert local_from_graded(t) == local_from_graded(ref)
    dec, want = _decomposition(t), _decomposition(ref)
    assert dec.parts == want.parts
    assert dec.residual.nvars == want.residual.nvars
    assert dec.residual.entries == want.residual.entries
    # The greedy works on a copy: the table's numerators are untouched.
    assert t.numerators == held
    _numerators_hold(dec.residual)
    total = dec.resum()
    _numerators_hold(total)
    assert total == t


@pytest.mark.parametrize("value, key", [
    (-1, (0, 0)),
    (Fraction(-1, 3), (1, 4)),
    ("-1/2", (2, -3)),
    (-0.5, (0, 7)),
])
def test_negative_entries_are_refused_with_their_position(value, key):
    i, j = key
    with pytest.raises(ValueError) as exc:
        GradedBettiTable(2, {(0, 0): 1, key: value})
    assert str(exc.value) == f"negative Betti entry at ({i},{j})"


def test_zero_entries_leave_no_numerator():
    t = GradedBettiTable(2, {(0, 0): 0, (1, 1): Fraction(0, 5), (1, 2): "0",
                             (2, 3): "3/4", (0, 1): 2})
    assert t.entries == {(2, 3): Fraction(3, 4), (0, 1): 2}
    assert t.numerators == {(2, 3): 3, (0, 1): 8}
    assert t.scale == 4
    empty = GradedBettiTable(3, {(0, 0): 0, (1, 1): "0/7"})
    assert (empty.entries, empty.numerators, empty.scale) == ({}, {}, 1)


# is_finite_length_numerator divides by (1-t) with prefix sums over a
# dense list.  This is the dict running-sum division it replaced, kept
# as an independent reference.

def _dict_finite_length_numerator(h, nvars):
    coeffs = dict(h.coefficients)
    for _ in range(nvars):
        if not coeffs:
            return True
        if sum(coeffs.values()) != 0:
            return False
        lo, hi = min(coeffs), max(coeffs)
        quotient = {}
        running = 0
        for j in range(lo, hi):
            running += coeffs.get(j, 0)
            if running:
                quotient[j] = running
        coeffs = quotient
    return True


@st.composite
def _numerators(draw):
    """A sparse Laurent polynomial over degrees -12..12 (gaps and the
    zero polynomial included), times (1-t)^k for a drawn k in 0..7, so
    that divisibility holds to every order up to 7 as well as fails."""
    coeffs = draw(st.dictionaries(st.integers(min_value=-12, max_value=12),
                                  st.integers(min_value=-6, max_value=6),
                                  max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        coeffs = {j: coeffs.get(j, 0) - coeffs.get(j - 1, 0)
                  for j in range(min(coeffs, default=0),
                                 max(coeffs, default=-1) + 2)}
    return HilbertNumerator(coeffs, draw(st.integers(min_value=1,
                                                     max_value=6)))


@given(_numerators())
@example(HilbertNumerator({}))
@example(HilbertNumerator({-3: 1, 4: -1}))
@settings(max_examples=400)
def test_prefix_sum_division_matches_the_running_sum_route(h):
    for nvars in range(8):
        assert is_finite_length_numerator(h, nvars) \
            == _dict_finite_length_numerator(h, nvars)

"""Geometric pure-resolution planner: cohomology counts, twist tables,
collapse bookkeeping, and the rank formula.

The two pinned rank vectors were verified against the closed product
formula by hand: for (0,3,5,6) every rank is 4x the minimal table, for
(0,4,5,6) the construction already lands on the minimal table.
"""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (
    CollapsedSurvivor,
    DegreeSequence,
    ESPlan,
    NoCollapsibleWindow,
    NonIncreasingDegrees,
    PureTable,
    collapse_step,
    es_plan,
    es_ranks,
    hk_pure_table,
    line_bundle_cohomology,
    proportionality_ratio,
    render_plan_text,
    twist_table,
)


def test_line_bundle_cohomology_point_factor():
    # P^0 is a point: one global section in every degree, no higher ones
    for e in (-3, 0, 5):
        assert line_bundle_cohomology(0, e) == (1, 0)


def test_line_bundle_cohomology_sections():
    assert line_bundle_cohomology(1, 0) == (1, 0)
    assert line_bundle_cohomology(1, 3) == (4, 0)
    assert line_bundle_cohomology(2, 2) == (6, 0)
    assert line_bundle_cohomology(3, 1) == (4, 0)


def test_line_bundle_cohomology_vanishing_window():
    # twists -1..-m have no cohomology at all on P^m
    assert line_bundle_cohomology(2, -1) == (0, 0)
    assert line_bundle_cohomology(2, -2) == (0, 0)
    assert line_bundle_cohomology(3, -3) == (0, 0)


def test_line_bundle_cohomology_top():
    # Serre duality: h^m(O(e)) = h^0(O(-e - m - 1))
    assert line_bundle_cohomology(1, -2) == (0, 1)
    assert line_bundle_cohomology(1, -4) == (0, 3)
    assert line_bundle_cohomology(2, -3) == (0, 1)
    assert line_bundle_cohomology(2, -5) == (0, 6)


@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=-12, max_value=12))
def test_line_bundle_cohomology_closed_forms(m, e):
    h0, htop = line_bundle_cohomology(m, e)
    if m == 0:
        # a point has one section in every degree; the coinciding top
        # cohomology is reported on the section side
        assert (h0, htop) == (1, 0)
        return
    assert h0 == (comb(e + m, m) if e >= 0 else 0)
    assert htop == (comb(-e - 1, m) if e <= -m - 1 else 0)
    if -m <= e <= -1:
        assert (h0, htop) == (0, 0)


def test_es_plan_gaps_and_factors():
    p = es_plan([0, 3, 5, 6])
    assert p.gaps == (2, 1, 0)
    # one projective factor per positive gap, twisted by the degree
    # that opens the gap
    assert p.factors == ((2, 0), (1, 3))
    assert p.ambient_vars == 6


def test_es_plan_rejects_bad_degrees():
    with pytest.raises(NonIncreasingDegrees):
        es_plan([0, 5, 5, 6])


def test_es_ranks_pinned_vectors():
    assert es_ranks(es_plan([0, 3, 5, 6])).multiplicities == (4, 20, 36, 20)
    assert es_ranks(es_plan([0, 4, 5, 6])).multiplicities == (1, 15, 24, 10)


def test_es_ranks_translation_invariant():
    assert es_ranks(es_plan([1, 4, 6])).multiplicities == \
        es_ranks(es_plan([0, 3, 5])).multiplicities


def test_es_ranks_proportional_to_minimal_table():
    for degs in ([0, 3, 5, 6], [0, 4, 5, 6], [0, 1, 3, 5], [0, 2, 3]):
        built = es_ranks(es_plan(degs)).to_graded()
        minimal = hk_pure_table(degs).to_graded()
        ratio = proportionality_ratio(built, minimal)
        assert ratio is not None
        assert ratio.denominator == 1 and ratio >= 1


def test_es_ranks_no_gaps_is_koszul():
    # consecutive degrees need no projective factors; ranks are plain
    # binomial coefficients
    p = es_plan([0, 1, 2, 3])
    assert p.factors == ()
    assert es_ranks(p).multiplicities == (1, 3, 3, 1)


def test_twist_table_survivors_are_degree_rows():
    p = es_plan([0, 3, 5, 6])
    rows = twist_table(p)
    assert [r.t for r in rows] == list(range(7))
    assert [r.t for r in rows if r.survivor] == [0, 3, 5, 6]
    # non-survivors sit in the vanishing window of some factor
    for r in rows:
        if not r.survivor:
            assert any(-m <= e <= -1
                       for (m, _), e in zip(p.factors, r.twists))


def test_twist_table_twists_decrease_by_one():
    rows = twist_table(es_plan([0, 3, 5, 6]))
    for a, b in zip(rows, rows[1:]):
        assert all(eb == ea - 1 for ea, eb in zip(a.twists, b.twists))


def test_render_plan_text_shape():
    text = render_plan_text(es_plan([0, 4, 5, 6]))
    lines = text.splitlines()
    # header plus one row per ambient Koszul index 0..6
    assert len(lines) == 8
    assert "P^3(+0)" in lines[0]
    assert lines[1].endswith("F_0")
    assert lines[-1].endswith("F_3")
    starred = [ln for ln in lines[1:] if "*" in ln]
    assert len(starred) == 3  # twists -1, -2, -3 of the P^3 factor


def test_collapse_step_survivor_map():
    assert collapse_step([-1, 1, 2], 2, 0) == [(0, 0, "H0")]
    assert collapse_step([0, 1, 2, 5], 1, 0) == [
        (0, 0, "H0"), (2, 1, "H1"), (3, 2, "H1")]
    # k = -1 keeps nothing on the section side
    assert collapse_step([1, 2, 3], 2, -1) == [(2, 0, "H2")]


def test_collapse_step_argument_errors():
    with pytest.raises(ValueError, match="strictly increasing"):
        collapse_step([0, 0, 1], 1, 0)
    with pytest.raises(ValueError, match="out of range"):
        collapse_step([0, 1, 2], 1, 5)
    with pytest.raises(ValueError):
        collapse_step([0, 1, 2], -1, 0)


def test_collapse_step_window_mismatch():
    with pytest.raises(NoCollapsibleWindow):
        collapse_step([0, 2, 3], 1, 0)


def test_collapsed_survivor_unreachable_from_plans():
    """Survivor rows never land in a vanishing window.

    The planner chooses each factor so its starred twists cover exactly
    the skipped ambient degrees, so es_ranks can never raise
    CollapsedSurvivor for a strictly increasing input.
    """
    from itertools import combinations
    for n in (1, 2, 3):
        for rest in combinations(range(1, 9), n):
            degs = [0, *rest]
            try:
                es_ranks(es_plan(degs))
            except CollapsedSurvivor as exc:  # pragma: no cover
                raise AssertionError(f"plan {degs} collapsed: {exc}")


@given(st.lists(st.integers(min_value=1, max_value=10),
                min_size=1, max_size=4, unique=True))
@settings(max_examples=120)
def test_es_ranks_integer_multiple_property(rest):
    degs = [0, *sorted(rest)]
    built = es_ranks(es_plan(degs))
    minimal = hk_pure_table(degs)
    ratios = {
        b // m
        for b, m in zip(built.multiplicities, minimal.multiplicities)
    }
    assert len(ratios) == 1
    assert all(b % m == 0
               for b, m in zip(built.multiplicities,
                               minimal.multiplicities))


@given(st.lists(st.integers(min_value=-8, max_value=12),
                min_size=1, max_size=6, unique=True),
       st.integers(min_value=-20, max_value=20))
@settings(max_examples=150)
def test_plan_is_derived_from_the_degrees(values, shift):
    degs = sorted(values)
    p = ESPlan(degs)
    zeroed = [d - degs[0] for d in degs]
    n = len(degs) - 1
    assert list(p.degrees) == zeroed
    assert p.ambient_vars == zeroed[-1]
    assert sum(p.gaps) == p.ambient_vars - n
    # one factor per positive gap, paired with the degree that opens it
    assert p.factors == tuple((b - a - 1, a)
                              for a, b in zip(zeroed, zeroed[1:])
                              if b - a > 1)
    rows = twist_table(p)
    assert [r.t for r in rows] == list(range(p.ambient_vars + 1))
    for r in rows:
        in_window = any(-m <= e <= -1
                        for (m, _), e in zip(p.factors, r.twists))
        assert r.survivor == (r.t in zeroed) == (not in_window)
    moved = es_plan([d + shift for d in degs])
    assert moved.gaps == p.gaps and moved.factors == p.factors
    assert [(r.t, r.twists, r.survivor) for r in twist_table(moved)] == \
        [(r.t, r.twists, r.survivor) for r in rows]
    assert es_ranks(moved).multiplicities == es_ranks(p).multiplicities


@given(st.lists(st.integers(min_value=-8, max_value=20),
                min_size=1, max_size=7, unique=True))
@settings(max_examples=300)
def test_trusted_plans_and_ranks_pass_the_public_constructors(values):
    """ESPlan translates a checked sequence and es_ranks multiplies the
    closed form without re-checking either; the public constructors
    must rebuild both exactly, and the ranks must be the products of
    the public line_bundle_cohomology values."""
    degs = sorted(values)
    p = es_plan(degs)
    d = p.degrees
    assert type(d) is DegreeSequence and type(d.degrees) is tuple
    assert all(type(x) is int for x in d.degrees)
    rebuilt = DegreeSequence(d.degrees)
    assert rebuilt == d and repr(rebuilt.degrees) == repr(d.degrees)
    assert list(d) == [x - degs[0] for x in degs]
    ranks = es_ranks(p)
    assert ranks.degrees is d and type(ranks.multiplicities) is tuple
    assert all(type(b) is int for b in ranks.multiplicities)
    rebuilt = PureTable(d.degrees, ranks.multiplicities)
    assert rebuilt == ranks
    assert repr(rebuilt.multiplicities) == repr(ranks.multiplicities)
    assert ranks.multiplicities == _reference_es_ranks(p)


# es_ranks multiplies the cohomology closed form inline.  This is the
# per-factor loop over the public line_bundle_cohomology that it
# replaced, kept as an independent reference.

def _reference_es_ranks(p):
    mults = []
    for k, dk in enumerate(p.degrees):
        rank = comb(p.ambient_vars, dk)
        for m, base in p.factors:
            e = base - dk
            h0, htop = line_bundle_cohomology(m, e)
            if not (h0 or htop):
                raise CollapsedSurvivor(
                    f"survivor row d_{k}={dk} hits the vanishing window "
                    f"of a P^{m} factor (twist {e})")
            rank *= h0 or htop
        mults.append(rank)
    return tuple(mults)


def test_es_ranks_match_the_cohomology_loop_on_every_short_sequence():
    """Every strictly increasing sequence 0 = d_0 < ... < d_n <= 12 (a
    plan translates any other one to such a sequence)."""
    from itertools import combinations
    count = 0
    for n in range(13):
        for rest in combinations(range(1, 13), n):
            p = es_plan([0, *rest])
            assert es_ranks(p).multiplicities == _reference_es_ranks(p)
            count += 1
    assert count == 2 ** 12


@pytest.mark.parametrize("factors, degrees, message", [
    (((2, 0),), [0, 1], "survivor row d_1=1 hits the vanishing window "
                        "of a P^2 factor (twist -1)"),
    (((1, 3), (3, 0)), [0, 2, 3], "survivor row d_1=2 hits the vanishing "
                                  "window of a P^3 factor (twist -2)"),
])
def test_a_twist_in_the_window_raises_as_the_cohomology_loop_does(
        factors, degrees, message):
    """No plan built from a sequence reaches the window (see above), so
    a plan with forged factors stands in for a malformed one."""
    p = es_plan(degrees)
    p.factors = factors
    for route in (es_ranks, _reference_es_ranks):
        with pytest.raises(CollapsedSurvivor) as exc:
            route(p)
        assert str(exc.value) == message

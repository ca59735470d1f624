"""Greedy decomposition of finite-length Betti tables into pure pieces.

The failure-path tests matter as much as the happy path here: a table
outside the cone must still hand back a conservation-respecting
partial decomposition on the exception.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (
    Decomposition,
    DegreeSequence,
    GradedBettiTable,
    NotInConeCandidate,
    check_hk_equations,
    decompose_graded,
    hk_pure_table,
    is_pure,
)


def _table(degs, scale=1):
    return hk_pure_table(degs).to_graded().scaled(scale)


def test_is_pure_recovers_degrees():
    assert is_pure(_table([0, 1, 3, 5])) == DegreeSequence([0, 1, 3, 5])
    assert is_pure(_table([0, 2, 3], scale=7)) == DegreeSequence([0, 2, 3])


def test_is_pure_rejects_mixed_columns():
    t = GradedBettiTable(2, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1})
    assert is_pure(t) is None


def test_is_pure_rejects_column_gaps():
    # column 1 empty between occupied columns 0 and 2
    t = GradedBettiTable(2, {(0, 0): 1, (2, 3): 1})
    assert is_pure(t) is None


def test_is_pure_empty_table():
    assert is_pure(GradedBettiTable(2, {})) is None


def test_is_pure_rejects_degrees_that_fall():
    # one degree per column, but column 1 sits below column 0
    t = GradedBettiTable(2, {(0, 2): 1, (1, 1): 1, (2, 3): 1})
    assert is_pure(t) is None


def _grouping_is_pure(t):
    """The column-grouping is_pure that the sorted pass replaced, kept
    as an independent route."""
    if t.is_empty():
        return None
    columns = {}
    for (i, j), _ in t.entries.items():
        columns.setdefault(i, []).append(j)
    pd = max(columns)
    if set(columns) != set(range(pd + 1)):
        return None
    degrees = []
    for i in range(pd + 1):
        if len(columns[i]) != 1:
            return None
        degrees.append(columns[i][0])
    if any(a >= b for a, b in zip(degrees, degrees[1:])):
        return None
    return DegreeSequence(degrees)


@st.composite
def _near_pure_tables(draw):
    """Up to nvars + 1 columns (none: the empty table) along a chain of
    degrees that mostly rises but may stay or fall; a column holds one
    degree, or none (a gap), or two."""
    nvars = draw(st.integers(min_value=0, max_value=4))
    entries = {}
    d = draw(st.integers(min_value=-3, max_value=3))
    for i in range(draw(st.integers(min_value=0, max_value=nvars + 1))):
        d += draw(st.integers(min_value=-1, max_value=3))
        for k in range(draw(st.sampled_from((1, 1, 1, 1, 0, 2)))):
            j = d + k * draw(st.integers(min_value=1, max_value=2))
            entries[(i, j)] = draw(st.fractions(
                min_value=Fraction(1, 4), max_value=9, max_denominator=4))
    return GradedBettiTable(nvars, entries)


@given(_near_pure_tables())
@settings(max_examples=400)
def test_sorted_is_pure_matches_the_grouping_route(t):
    got, want = is_pure(t), _grouping_is_pure(t)
    assert got == want and repr(got) == repr(want)


def test_decompose_pure_table_is_single_part():
    d = decompose_graded(_table([0, 1, 3, 5], scale=3))
    assert len(d.parts) == 1
    coeff, part = d.parts[0]
    assert coeff == 3
    assert part.degrees == DegreeSequence([0, 1, 3, 5])
    assert d.residual.is_empty()
    assert d.is_complete()


def test_decompose_two_part_sum():
    total = _table([0, 1, 3, 5]).add(_table([0, 3, 5, 6]))
    d = decompose_graded(total)
    assert [(c, tuple(p.degrees)) for c, p in d.parts] == [
        (1, (0, 1, 3, 5)),
        (1, (0, 3, 5, 6)),
    ]
    assert d.resum() == total


def test_decompose_greedy_picks_lowest_degrees_first():
    total = _table([0, 2, 3]).add(_table([0, 1, 5]).scaled(2))
    d = decompose_graded(total)
    first = tuple(d.parts[0][1].degrees)
    # the first part reads the minimal occupied degree in each column
    assert first == (0, 1, 3)
    assert d.resum() == total
    assert d.is_complete()


def test_decompose_fractional_coefficients():
    total = _table([0, 1, 2]).scaled(Fraction(1, 2)).add(
        _table([0, 1, 3]).scaled(Fraction(1, 3)))
    d = decompose_graded(total)
    assert d.is_complete()
    assert d.resum() == total
    assert all(c > 0 for c, _ in d.parts)


def test_decompose_rejects_non_hk_table():
    t = GradedBettiTable(2, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(NotInConeCandidate) as exc:
        decompose_graded(t)
    assert "Herzog-Kuhl" in str(exc.value)
    assert exc.value.decomposition is not None


def test_decompose_failure_preserves_conservation():
    # moving mass within a homological column keeps column sums but
    # breaks the degree-weighted equations, so the screen fires with
    # an empty partial decomposition that still resums to the input
    big = _table([0, 1, 2], scale=5)
    entries = dict(big.entries)
    entries[(1, 1)] -= 4
    entries[(1, 3)] = entries.get((1, 3), 0) + 4
    t = GradedBettiTable(2, entries)
    with pytest.raises(NotInConeCandidate) as exc:
        decompose_graded(t)
    d = exc.value.decomposition
    assert not d.is_complete()
    assert d.parts == ()
    assert d.resum() == t


def test_decompose_stalls_mid_greedy_with_partial_parts():
    # solves both length equations yet sits outside the cone: after
    # one greedy extraction column 0 empties while columns 1 and 2 do
    # not, and the exception carries the partial work
    t = GradedBettiTable(2, {(0, 0): 1, (1, 1): 3, (1, 3): 1, (2, 2): 3})
    from betticone import check_hk_equations
    assert check_hk_equations(t)
    with pytest.raises(NotInConeCandidate, match="greedy chain stuck"):
        decompose_graded(t)
    try:
        decompose_graded(t)
    except NotInConeCandidate as exc:
        d = exc.decomposition
    assert [(c, tuple(p.degrees)) for c, p in d.parts] == [(1, (0, 1, 2))]
    assert dict(d.residual.entries) == {(1, 1): 1, (1, 3): 1, (2, 2): 2}
    assert d.resum() == t


def test_decompose_empty_table():
    d = decompose_graded(GradedBettiTable(3, {}))
    assert d.parts == ()
    assert d.residual.is_empty()
    assert d.is_complete()


def test_decomposition_resum_includes_residual():
    t = GradedBettiTable(2, {(0, 0): 2, (1, 1): 3, (2, 2): 1})
    try:
        d = decompose_graded(t)
    except NotInConeCandidate as exc:
        d = exc.decomposition
    assert d.resum() == t


def test_random_combinations_decompose_exactly():
    rng = random.Random(997)
    for _ in range(60):
        n = rng.randint(1, 4)
        total = None
        npieces = rng.randint(1, 3)
        for _ in range(npieces):
            degs = sorted(rng.sample(range(0, 9), n + 1))
            piece = hk_pure_table(degs).to_graded(nvars=n).scaled(
                Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            total = piece if total is None else total.add(piece)
        d = decompose_graded(total)
        assert d.is_complete()
        assert d.resum() == total
        # greedy merges same-degree picks, so at most npieces parts
        # cannot be asserted; termination bound is entry count
        assert len(d.parts) <= len(total.entries)


def _fraction_decompose_graded(t):
    """The greedy over Fraction entries that the library's integer
    greedy replaced, kept as an independent route."""
    def stuck(msg, parts, residual_entries):
        residual = GradedBettiTable(t.nvars, residual_entries)
        raise NotInConeCandidate(msg, Decomposition(parts, residual))

    if not check_hk_equations(t):
        stuck("table fails the Herzog-Kuhl equations; "
              "not a finite length candidate", [], t.entries)

    work = dict(t.entries)
    parts = []
    while work:
        pd = max(i for i, _ in work)
        if pd != t.nvars:
            stuck(f"projective dimension {pd} != nvars {t.nvars}; "
                  "greedy chain stuck", parts, work)
        degrees = []
        for i in range(pd + 1):
            js = [j for (k, j) in work if k == i]
            if not js:
                stuck(f"no entry left in column {i}; greedy chain stuck",
                      parts, work)
            degrees.append(min(js))
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            stuck(f"minimal degrees {degrees} are not strictly "
                  "increasing; greedy chain stuck", parts, work)
        pure = hk_pure_table(degrees)
        c = min(work[(i, d)] / b
                for i, (d, b) in enumerate(zip(degrees,
                                               pure.multiplicities)))
        for i, (d, b) in enumerate(zip(degrees, pure.multiplicities)):
            remaining = work[(i, d)] - c * b
            if remaining:
                work[(i, d)] = remaining
            else:
                del work[(i, d)]
        parts.append((Fraction(c), pure))
    return Decomposition(parts, GradedBettiTable(t.nvars, {}))


def _greedy_outcome(decompose, t):
    try:
        d, message = decompose(t), None
    except NotInConeCandidate as exc:
        d, message = exc.decomposition, str(exc)
    return message, d.parts, d.residual


def _random_greedy_input(rng, perturbed):
    """A rational table for the greedy over 1..5 variables, degrees
    from -3 up.  It sums pure tables along a chain of degree sequences
    or over random ones, with coefficients of mixed denominators.  A
    third of the unperturbed tables then lose a multiple of a pure
    table inside their support, which keeps them on the Herzog-Kuhl
    hyperplane but often takes them out of the cone; a perturbed table
    gets one more rational entry, which takes it off the hyperplane."""
    nvars = rng.randint(1, 5)
    table = GradedBettiTable(nvars, {})
    degrees = [rng.randint(-3, 0)]
    for _ in range(nvars):
        degrees.append(degrees[-1] + rng.randint(1, 3))
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            cut = rng.randint(0, nvars)
            degrees = [d + (i >= cut) for i, d in enumerate(degrees)]
        else:
            degrees = sorted(rng.sample(range(-3, 13), nvars + 1))
        table = table.add(hk_pure_table(degrees).to_graded().scaled(
            Fraction(rng.randint(1, 9), rng.randint(1, 12))))
    if perturbed:
        return table.add(GradedBettiTable(nvars, {
            (rng.randint(0, nvars), rng.randint(-3, 14)):
            Fraction(rng.randint(1, 9), rng.randint(1, 12))}))
    if rng.random() < 1 / 3:
        column = [sorted(table.column(i)) for i in range(nvars + 1)]
        degrees = [rng.choice(js) for js in column]
        if all(a < b for a, b in zip(degrees, degrees[1:])):
            pure = hk_pure_table(degrees)
            most = min(table.entry(i, d) / b for i, (d, b)
                       in enumerate(zip(degrees, pure.multiplicities)))
            cut = pure.to_graded(nvars).scaled(
                most * rng.choice((Fraction(1, 2), Fraction(1))))
            entries = dict(table.entries)
            for key, b in cut.entries.items():
                entries[key] -= b
            table = GradedBettiTable(nvars, entries)
    return table


def test_integer_greedy_matches_fraction_greedy_on_rational_tables():
    """Parts, residual and message agree with the Fraction greedy on
    2000 seeded rational tables, half of them off the hyperplane."""
    rng = random.Random(20261018)
    outcomes = Counter()
    for k in range(2000):
        t = _random_greedy_input(rng, perturbed=k % 2 == 1)
        got = _greedy_outcome(decompose_graded, t)
        assert got == _greedy_outcome(_fraction_decompose_graded, t)
        message = got[0]
        outcomes[message.split(";")[0].split()[0] if message else "ok"] += 1
    assert outcomes["table"] == 1000
    assert outcomes["ok"] >= 500
    assert sum(outcomes.values()) - outcomes["table"] - outcomes["ok"] >= 40


def test_complete_greedy_builds_its_result_unchecked():
    """A complete greedy builds its Decomposition and the empty residual
    without the checking constructors, and they hold what those
    constructors build from the same values."""
    t = _table((0, 1, 3, 5), Fraction(3, 2)).add(_table((0, 3, 5, 6)))
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        d = decompose_graded(t)
    finally:
        sys.setprofile(None)
    assert Decomposition.__init__.__code__ not in seen
    assert GradedBettiTable.__init__.__code__ not in seen
    assert d.is_complete() and d.resum() == t
    assert type(d.parts) is tuple
    assert all(type(c) is Fraction and c > 0 for c, _ in d.parts)
    empty = GradedBettiTable(t.nvars, {})
    assert [getattr(d.residual, name) for name in GradedBettiTable.__slots__] \
        == [getattr(empty, name) for name in GradedBettiTable.__slots__]

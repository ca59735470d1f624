"""Open cone of local Betti vectors over the regular local ring.

The membership test reduces to back-to-front partial sums of the
alternating sequence; the extremal rays are the 0/1 vectors with two
consecutive ones, reached as limits of pure tables with one stretched
degree gap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betticone import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    DegenerateSequence,
    DegreeSequence,
    GradedBettiTable,
    LocalBettiVector,
    NotOnHyperplane,
    hk_pure_table,
    is_in_local_cone,
    limit_degrees,
    limit_table,
    local_from_graded,
    local_ray_coefficients,
    ray_vector,
    sup_distance,
)


def test_membership_reads_a_plain_list_as_a_betti_vector():
    verdict = is_in_local_cone([1, 2, 1])
    assert verdict.verdict == INSIDE
    assert verdict.partial_sums == (1, 1)
    assert repr(verdict) == repr(is_in_local_cone(LocalBettiVector([1, 2,
                                                                    1])))


def test_ray_vectors_two_consecutive_ones():
    assert tuple(ray_vector(0, 2)) == (1, 1, 0)
    assert tuple(ray_vector(1, 2)) == (0, 1, 1)
    assert tuple(ray_vector(0, 3)) == (1, 1, 0, 0)
    assert tuple(ray_vector(2, 3)) == (0, 0, 1, 1)


def test_ray_vector_index_range():
    with pytest.raises(ValueError):
        ray_vector(2, 2)
    with pytest.raises(ValueError):
        ray_vector(-1, 2)


def test_membership_inside():
    verdict = is_in_local_cone(LocalBettiVector([1, 2, 1]))
    assert verdict.verdict == INSIDE
    assert verdict.is_inside()
    assert verdict.alternating_sum == 0
    assert verdict.partial_sums == (1, 1)


def test_membership_boundary_on_ray():
    for n in (2, 3, 4):
        for i in range(n):
            verdict = is_in_local_cone(ray_vector(i, n))
            assert verdict.verdict == BOUNDARY
    assert is_in_local_cone(LocalBettiVector([1, 1, 0])).verdict == BOUNDARY


def test_membership_outside():
    # alternating sum 1 - 1 + 1 = 1 != 0
    assert is_in_local_cone(LocalBettiVector([1, 1, 1])).verdict == OUTSIDE
    # a negative back partial sum
    assert is_in_local_cone(LocalBettiVector([1, 1, 2])).verdict == OUTSIDE
    assert is_in_local_cone(LocalBettiVector([0, 0, 0])).verdict == BOUNDARY


def test_ray_coefficients_of_interior_point():
    coeffs = local_ray_coefficients(LocalBettiVector([1, 2, 1]))
    assert coeffs == [1, 1]
    rebuilt = ray_vector(0, 2).scaled(coeffs[0]).add(
        ray_vector(1, 2).scaled(coeffs[1]))
    assert tuple(rebuilt) == (1, 2, 1)


def test_ray_coefficients_match_membership():
    v = LocalBettiVector([8, 15, 10, 3])  # columns of a length-3 table
    verdict = is_in_local_cone(v)
    assert verdict.verdict == INSIDE
    coeffs = local_ray_coefficients(v)
    assert all(c > 0 for c in coeffs)
    total = LocalBettiVector([0] * 4)
    for i, c in enumerate(coeffs):
        total = total.add(ray_vector(i, 3).scaled(c))
    assert total == v


def test_ray_coefficients_require_hyperplane():
    with pytest.raises(NotOnHyperplane):
        local_ray_coefficients(LocalBettiVector([1, 1, 1]))


def test_midpoint_of_shifted_tables_is_interior():
    a = local_from_graded(hk_pure_table([0, 2, 3]).to_graded())
    b = local_from_graded(hk_pure_table([0, 1, 3]).to_graded())
    mid = a.scaled(Fraction(1, 2)).add(b.scaled(Fraction(1, 2)))
    assert tuple(mid) == (Fraction(3, 2), 3, Fraction(3, 2))
    assert is_in_local_cone(mid).verdict == INSIDE
    # the two summands themselves are interior too
    assert is_in_local_cone(a).verdict == INSIDE
    assert is_in_local_cone(b).verdict == INSIDE


def test_local_from_graded_takes_column_sums():
    t = hk_pure_table([0, 1, 3, 5]).to_graded()
    v = local_from_graded(t)
    assert tuple(v) == (8, 15, 10, 3)
    assert v.n == 3


def test_limit_degrees_formula():
    assert limit_degrees(0, 100, 2) == DegreeSequence([0, 1, 101])
    assert limit_degrees(1, 10, 2) == DegreeSequence([0, 10, 11])
    assert limit_degrees(1, 3, 3) == DegreeSequence([0, 3, 4, 7])


def test_limit_degrees_rejects_degenerate():
    with pytest.raises(DegenerateSequence):
        limit_degrees(0, 1, 2)
    with pytest.raises(ValueError):
        limit_degrees(5, 10, 2)


def test_limit_degrees_refuses_non_integral_parameters():
    with pytest.raises(ValueError,
                       match="gap parameter must be an integer, got 2.7"):
        limit_degrees(0, 2.7, 2)


def test_limit_table_exact_values():
    v = limit_table(0, 100, 2)
    assert tuple(v) == (1, Fraction(101, 100), Fraction(1, 100))
    assert sup_distance(v, ray_vector(0, 2)) == Fraction(1, 100)


def test_limit_table_takes_what_limit_degrees_takes():
    """An integral float or Fraction ray index is read as its int, as
    limit_degrees reads it; a non-integral one is refused by name."""
    assert limit_table(1.0, 10, 2) == limit_table(Fraction(1), 10, 2) \
        == limit_table(1, 10, 2)
    with pytest.raises(ValueError,
                       match="ray index must be an integer, got 0.5"):
        limit_table(0.5, 10, 2)


def test_limit_tables_converge_to_each_ray():
    for n in (2, 3):
        for i in range(n):
            target = ray_vector(i, n)
            last = None
            for j in (2, 4, 8, 16, 32):
                dist = sup_distance(limit_table(i, j, n), target)
                assert dist <= Fraction(n + 1, j)
                if last is not None:
                    assert dist < last
                last = dist


def test_limit_distance_from_n_5_breaks_the_n_plus_one_bound_yet_decreases():
    # from n = 5 the distance exceeds (n+1)/j at small j, but it still
    # decreases strictly in j
    assert sup_distance(limit_table(0, 2, 5), ray_vector(0, 5)) \
        == Fraction(105, 32)
    for n in (5, 6):
        for i in range(n):
            target = ray_vector(i, n)
            dists = [sup_distance(limit_table(i, j, n), target)
                     for j in range(2, 65, 2)]
            assert all(a > b for a, b in zip(dists, dists[1:]))


def test_limit_table_is_normalized_at_the_ray_scale():
    # rescaled so the anchor entry is exactly 1; its neighbor tends to
    # 1 (from either side) and everything else decays like 1/j
    for j in (3, 7, 50):
        v = limit_table(1, j, 2)
        assert v[1] == 1
        assert abs(v[2] - 1) <= Fraction(3, j)
        assert v[0] <= Fraction(3, j)


def test_sup_distance_is_a_metric_on_samples():
    u = LocalBettiVector([1, 2, 1])
    v = LocalBettiVector([0, 1, 1])
    w = LocalBettiVector([1, 1, 0])
    assert sup_distance(u, u) == 0
    assert sup_distance(u, v) == sup_distance(v, u)
    assert sup_distance(u, w) <= sup_distance(u, v) + sup_distance(v, w)


def test_vector_keeps_given_fractions():
    half = Fraction(1, 2)
    v = LocalBettiVector([half, 1])
    assert v[0] is half
    assert type(v[1]) is Fraction and v[1] == 1


def test_vector_validation():
    with pytest.raises(ValueError):
        LocalBettiVector([])
    with pytest.raises(ValueError, match="different lengths"):
        LocalBettiVector([1, 1]).add(LocalBettiVector([1, 2, 1]))
    with pytest.raises(ValueError):
        is_in_local_cone(LocalBettiVector([-1, 0, 0]))


@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=2, max_size=6))
@settings(max_examples=200)
def test_verdict_trichotomy_matches_coefficients(values):
    v = LocalBettiVector(values)
    verdict = is_in_local_cone(v)
    assert verdict.verdict in (INSIDE, BOUNDARY, OUTSIDE)
    if verdict.verdict == OUTSIDE:
        return
    # on the hyperplane the ray coefficients are exactly the back
    # partial sums; positivity of all of them is interior membership
    coeffs = local_ray_coefficients(v)
    if verdict.verdict == INSIDE:
        assert all(c > 0 for c in coeffs)
    else:
        assert all(c >= 0 for c in coeffs)
        assert any(c == 0 for c in coeffs)
    rebuilt = LocalBettiVector([0] * len(values))
    for i, c in enumerate(coeffs):
        rebuilt = rebuilt.add(ray_vector(i, v.n).scaled(c))
    assert rebuilt == v


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=2, max_value=60),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=150)
def test_limit_tables_stay_inside_the_cone(i, j, n):
    if i >= n:
        return
    v = limit_table(i, j, n)
    assert is_in_local_cone(v).verdict == INSIDE


# The library sums in ints over the lcm of the denominators and builds
# its vectors without re-checking them.  These are the Fraction routes
# it replaced, kept as an independent reference.

def _fraction_local_from_graded(t):
    vals = [Fraction(0)] * (t.nvars + 1)
    for (i, _), b in t.entries.items():
        vals[i] += b
    return LocalBettiVector(vals)


def _fraction_back_partial_sums(v):
    sums = []
    acc = Fraction(0)
    for beta in reversed(LocalBettiVector(v).entries):
        acc = beta - acc
        sums.append(acc)
    sums.reverse()
    return sums


def _vector_rebuilt_publicly(v):
    """The public constructor accepts a vector the library built, and
    rebuilds the very same entries, Fractions included."""
    assert type(v) is LocalBettiVector and type(v.entries) is tuple
    assert all(type(b) is Fraction for b in v.entries)
    rebuilt = LocalBettiVector(v.entries)
    assert rebuilt == v and repr(rebuilt.entries) == repr(v.entries)


def _same_fractions(got, want):
    assert got == want
    assert all(type(x) is Fraction for x in got)


_NONNEGATIVE = st.one_of(
    st.integers(min_value=0, max_value=30),
    st.fractions(min_value=0, max_value=30, max_denominator=12))


@st.composite
def _graded_tables(draw):
    """Integer or rational entries, degrees in -8..20, nvars 1..6."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    return GradedBettiTable(nvars, draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=nvars),
                  st.integers(min_value=-8, max_value=20)),
        _NONNEGATIVE, max_size=12)))


@given(_graded_tables())
@settings(max_examples=300)
def test_column_sums_match_the_fraction_route(t):
    v = local_from_graded(t)
    _vector_rebuilt_publicly(v)
    assert v.n == t.nvars
    assert v == _fraction_local_from_graded(t)
    verdict = is_in_local_cone(v)
    _same_fractions([verdict.alternating_sum, *verdict.partial_sums],
                    _fraction_back_partial_sums(v))


@given(st.lists(_NONNEGATIVE, min_size=2, max_size=7))
@settings(max_examples=300)
def test_partial_sums_match_the_fraction_route(values):
    want = _fraction_back_partial_sums(values)
    for v in (values, LocalBettiVector(values)):
        verdict = is_in_local_cone(v)
        _same_fractions([verdict.alternating_sum, *verdict.partial_sums],
                        want)


def test_column_sums_refuse_a_table_over_no_variables():
    """nvars = 0 is a legal table, yet it has no beta_1."""
    t = GradedBettiTable(0, {(0, 0): 1})
    with pytest.raises(ValueError, match=re.escape(
            "need at least beta_0 and beta_1 (dim >= 1)")):
        local_from_graded(t)
    with pytest.raises(ValueError, match=re.escape(
            "need at least beta_0 and beta_1 (dim >= 1)")):
        local_from_graded(GradedBettiTable(0, {}))


@given(st.integers(min_value=0, max_value=5),
       st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=200)
def test_trusted_limit_values_pass_the_public_constructors(i, j, n):
    if i >= n:
        return
    d = limit_degrees(i, j, n)
    assert type(d) is DegreeSequence and type(d.degrees) is tuple
    assert all(type(x) is int for x in d.degrees)
    rebuilt = DegreeSequence(d.degrees)
    assert rebuilt == d and repr(rebuilt.degrees) == repr(d.degrees)
    v = limit_table(i, j, n)
    _vector_rebuilt_publicly(v)
    mult = hk_pure_table(DegreeSequence(list(d))).multiplicities
    assert v.entries == tuple(Fraction(b, mult[i]) for b in mult)
    assert v[i] == 1


def _fraction_verdict(v):
    sums = _fraction_back_partial_sums(v)
    total, partials = sums[0], sums[1:]
    if total != 0:
        return OUTSIDE
    if all(s > 0 for s in partials):
        return INSIDE
    if all(s >= 0 for s in partials):
        return BOUNDARY
    return OUTSIDE


@st.composite
def _vectors_near_the_hyperplane(draw):
    """sum c_i rho_i for rational c_i of either sign, zero included, so
    Inside, Boundary and Outside all occur on the hyperplane; half the
    time one entry is raised, which moves the vector off it."""
    c = draw(st.lists(st.fractions(min_value=-3, max_value=9,
                                   max_denominator=6),
                      min_size=1, max_size=6))
    v = [Fraction(0)] * (len(c) + 1)
    for i, ci in enumerate(c):
        v[i] += ci
        v[i + 1] += ci
    if draw(st.booleans()):
        v[draw(st.integers(min_value=0, max_value=len(c)))] += draw(
            st.fractions(min_value=Fraction(1, 6), max_value=3,
                         max_denominator=6))
    assume(all(b >= 0 for b in v))
    return v


@given(_vectors_near_the_hyperplane())
@settings(max_examples=400)
def test_integer_signs_match_the_fraction_verdict(values):
    want = _fraction_back_partial_sums(values)
    verdict = is_in_local_cone(values)
    assert verdict.verdict == _fraction_verdict(values)
    _same_fractions([verdict.alternating_sum, *verdict.partial_sums], want)
    if want[0] != 0:
        with pytest.raises(NotOnHyperplane) as exc:
            local_ray_coefficients(values)
        assert str(exc.value) == (
            f"alternating sum is {want[0]}, not 0; the rays span only "
            "that hyperplane")
    else:
        _same_fractions(local_ray_coefficients(values), want[1:])


def _numerators_hold(v):
    """A vector's entries are its int numerators over its scale."""
    assert type(v.numerators) is tuple and len(v.numerators) == len(v)
    assert all(type(c) is int and c >= 0 for c in v.numerators)
    assert type(v.scale) is int and v.scale > 0
    assert type(v.entries) is tuple
    for k, b in enumerate(v.entries):
        assert type(b) is Fraction
        assert b == Fraction(v.numerators[k], v.scale)


@given(_graded_tables(), st.lists(_NONNEGATIVE, min_size=2, max_size=7),
       _NONNEGATIVE, st.integers(min_value=0, max_value=5),
       st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=200)
def test_every_vector_holds_its_numerators(t, values, c, i, j, n):
    """Through the public constructor, local_from_graded, limit_table,
    add and scaled; the public constructor clears to the lcm of the
    denominators, the others may keep a multiple of it."""
    public = LocalBettiVector(values)
    assert public.scale == lcm(*(b.denominator for b in public.entries))
    graded = local_from_graded(t)
    assert graded.scale == t.scale
    vectors = [public, graded, public.scaled(c), public.add(public)]
    if graded.n == public.n:
        vectors.append(public.add(graded))
    if i < n:
        limit = limit_table(i, j, n)
        assert limit.numerators == hk_pure_table(limit_degrees(i, j, n)) \
            .multiplicities and limit.scale == limit.numerators[i]
        vectors.append(limit)
    for v in vectors:
        _numerators_hold(v)


@given(st.lists(_NONNEGATIVE, min_size=2, max_size=7))
@settings(max_examples=200)
def test_verdict_properties_are_fraction_tuples(values):
    """The verdict keeps int sums over the vector's scale, and its two
    properties build Fractions equal to the Fraction route on each
    read."""
    verdict = is_in_local_cone(values)
    want = _fraction_back_partial_sums(values)
    total = verdict.alternating_sum
    assert type(total) is Fraction and total == want[0]
    partials = verdict.partial_sums
    assert type(partials) is tuple and partials == tuple(want[1:])
    assert all(type(s) is Fraction for s in partials)
    assert verdict.partial_sums == partials
    assert verdict.partial_sums is not partials

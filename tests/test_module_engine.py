"""Finite bigraded modules over k[x,y] and the resolution oracle.

The oracle computes Betti numbers from Koszul homology, one bidegree
at a time, by exact rank computations.  For modules cut out of a
monomial staircase there is a second, purely combinatorial way to the
same numbers: classify each bidegree by which of its four neighboring
cells lie in the region.  _staircase_betti below implements that
independent route and the suite cross-checks the two on every fixture
and on randomized regions.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (
    BigradedBettiTable,
    FiniteModule,
    MonomialPair,
    NotContained,
    NotFiniteLength,
    PresentationMatrix,
    bigraded_betti,
    coarsen,
    coker_presentation,
    decompose_graded,
    dual_module,
    enumerate_box_rays,
    generic_rank,
    is_in_local_cone,
    k_polynomial,
    kernel_generator_degrees,
    local_from_graded,
    module_from_json_obj,
    monomial_quotient,
    seed_catalogue,
)
from betticone import _linalg, module_engine
from betticone._linalg import insert_row, integer_rows, rank
from betticone.bigraded import integral_bidegree
from betticone.module_engine import presentation_from_json_obj

SQUARE = MonomialPair([(0, 0)], [(2, 0), (1, 1), (0, 2)])
AXES_MOD = MonomialPair([(1, 0), (0, 1)], [(2, 0), (1, 2), (0, 3)])
WIDE_STAIRCASE = MonomialPair(
    [(4, 0), (2, 1), (1, 2), (0, 4)],
    [(6, 0), (3, 3), (0, 6)],
)

PACMAN = PresentationMatrix(
    rows=[(0, 0), (1, 1)],
    cols=[(3, 0), (2, 1), (1, 3), (0, 2)],
    entries=[
        [[(1, (3, 0))], [], [], [(1, (0, 2))]],
        [[], [(-1, (1, 0))], [(1, (0, 2))], []],
    ],
)

HEART = PresentationMatrix(
    rows=[(1, 0), (0, 1)],
    cols=[(3, 0), (2, 1), (1, 2), (0, 3)],
    entries=[
        [[(1, (2, 0))], [(1, (1, 1))], [(1, (0, 2))], []],
        [[], [(1, (2, 0))], [(1, (1, 1))], [(1, (0, 2))]],
    ],
)


def presentation_to_json_obj(pm):
    """The JSON object presentation_from_json_obj reads back as pm: one
    [coefficient, exponent] term per nonzero entry, the coefficient a
    string."""
    entries = []
    for r in range(len(pm.row_degrees)):
        row = []
        for c in range(len(pm.col_degrees)):
            s = pm.scalars[r][c]
            if s == 0:
                row.append([])
            else:
                e = pm.entry_exponent(r, c)
                row.append([[str(s), [e[0], e[1]]]])
        entries.append(row)
    return {
        "kind": "presentation",
        "rows": [[a, b] for a, b in pm.row_degrees],
        "cols": [[a, b] for a, b in pm.col_degrees],
        "entries": entries,
    }


_ONE = Fraction(1)


def _fraction_rref(m):
    """Row-reduce a copy of m; returns (reduced rows, pivot column list).

    The library's Gauss-Jordan over Fraction before it moved to integer
    kernels, kept verbatim: the reference routes below reduce with it,
    so they share no arithmetic with the library.
    """
    rows = [row[:] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pick = None
        for i in range(r, nrows):
            if rows[i][c]:
                pick = i
                break
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = _ONE / rows[r][c]
        if inv != _ONE:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _fraction_rank(m):
    return len(_fraction_rref(m)[1])


def _matrix_at(pm, alpha):
    """The map F1 -> F0 in bidegree alpha, with the row and column
    index lists that survived the degree truncation."""
    rows = [r for r, d in enumerate(pm.row_degrees)
            if d[0] <= alpha[0] and d[1] <= alpha[1]]
    cols = [c for c, d in enumerate(pm.col_degrees)
            if d[0] <= alpha[0] and d[1] <= alpha[1]]
    matrix = [[pm.scalars[r][c] for c in cols] for r in rows]
    return rows, cols, matrix


def _up_set(gens, box):
    cells = set()
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            if any(a >= g and b >= h for g, h in gens):
                cells.add((a, b))
    return cells


def _region(pair, box=(12, 12)):
    return _up_set(pair.gens_outer, box) - _up_set(pair.gens_inner, box)


def _staircase_betti(region):
    """Corner-count Betti numbers of a staircase region module.

    Every graded piece is 0- or 1-dimensional, so each homology rank
    at a bidegree is decided by the four cells (here, left, below,
    corner).  Derived by elementary case analysis on the three-term
    complex; shares no code with the Koszul-rank oracle.
    """
    entries = {}
    if not region:
        return entries
    hi_a = max(a for a, _ in region) + 1
    hi_b = max(b for _, b in region) + 1
    for a in range(0, hi_a + 1):
        for b in range(0, hi_b + 1):
            here = (a, b) in region
            left = (a - 1, b) in region
            below = (a, b - 1) in region
            corner = (a - 1, b - 1) in region
            b0 = 1 if here and not left and not below else 0
            b2 = 1 if corner and not left and not below else 0
            b1 = ((1 if left else 0) + (1 if below else 0)
                  - (1 if here and (left or below) else 0)
                  - (1 if corner and (left or below) else 0))
            for i, v in ((0, b0), (1, b1), (2, b2)):
                if v:
                    entries[(i, (a, b))] = v
    return entries


def _region_module(region):
    dims = {alpha: 1 for alpha in region}
    mult_x = {alpha: [[1]] for alpha in region
              if (alpha[0] + 1, alpha[1]) in region}
    mult_y = {alpha: [[1]] for alpha in region
              if (alpha[0], alpha[1] + 1) in region}
    return FiniteModule(dims, mult_x, mult_y)


def test_monomial_quotient_square_dims():
    m = monomial_quotient(SQUARE)
    assert sorted(m.dims) == [(0, 0), (0, 1), (1, 0)]
    assert m.total_dim() == 3


def test_monomial_quotient_axes_dims():
    m = monomial_quotient(AXES_MOD)
    assert sorted(m.dims) == [(0, 1), (0, 2), (1, 0), (1, 1)]


def test_monomial_quotient_requires_containment():
    with pytest.raises(NotContained):
        monomial_quotient(MonomialPair([(2, 0), (0, 2)], [(1, 1)]))


def test_monomial_quotient_detects_infinite_length():
    with pytest.raises(NotFiniteLength):
        monomial_quotient(MonomialPair([(0, 0)], [(1, 0)]))
    with pytest.raises(NotFiniteLength):
        monomial_quotient(MonomialPair([(1, 0)], [(3, 2)]))


def test_finite_module_rejects_noncommuting_maps():
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    mult_x = {(0, 0): [[1]], (0, 1): [[1]]}
    mult_y = {(0, 0): [[1]], (1, 0): [[-1]]}  # sign clash at (1,1)
    with pytest.raises(ValueError, match="commut"):
        FiniteModule(dims, mult_x, mult_y)


def test_map_accessors_return_fresh_rows():
    """The cells of a monomial quotient share stored maps, so a write
    into an accessor's result must reach none of them."""
    module = monomial_quotient(MonomialPair([(0, 0)], [(3, 0), (0, 3)]))
    assert len(bigraded_betti(module).entries) == 4
    module.map_x((0, 0))[0][0] = 0
    module.map_y((2, 0))[0][0] = 0
    assert module.map_x((0, 0)) == [[1]] and module.map_y((2, 0)) == [[1]]
    assert len(bigraded_betti(module).entries) == 4


def test_finite_module_rejects_bad_shapes():
    dims = {(0, 0): 2, (1, 0): 1}
    with pytest.raises(ValueError):
        FiniteModule(dims, {(0, 0): [[1]]}, {})


@pytest.mark.parametrize("mult_x, message", [
    ({(0, 0): ["12"]}, "mult_x at (0, 0) must be 1 x 2"),
    ({(0, 0): ("12",)}, "mult_x at (0, 0) must be 1 x 2"),
    ({(1, 0): "1"}, "mult_x at (1, 0) must be 1 x 1"),
    ({(2, 0): ""}, "mult_x at (2, 0) must be 0 x 1"),
], ids=["string-row", "string-row-in-tuple", "string-matrix",
        "empty-string-into-zero"])
def test_finite_module_refuses_strings_as_matrices(mult_x, message):
    """A string has a length but is no row: '12' is not [[1, 2]]."""
    dims = {(0, 0): 2, (1, 0): 1, (2, 0): 1}
    with pytest.raises(ValueError, match=re.escape(message)):
        FiniteModule(dims, mult_x, {})


@pytest.mark.parametrize("mult_x, mult_y, message", [
    ({(0, 0): [[5, 7], [1, 2]]}, {}, "mult_x at (0, 0) must be 0 x 1"),
    ({}, {(0, 0): "junk"}, "mult_y at (0, 0) must be 0 x 1"),
    ({(3, 3): None}, {}, "mult_x at (3, 3) must be 0 x 0"),
    ({(-1, 0): []}, {}, "mult_x at (-1, 0) must be 1 x 0"),
], ids=["into-zero", "junk-into-zero", "zero-to-zero", "out-of-zero"])
def test_finite_module_checks_maps_at_zero_pieces(mult_x, mult_y, message):
    """A map into or out of a zero piece is shape-checked like any
    other, and a well-shaped one is accepted but not stored."""
    with pytest.raises(ValueError, match=re.escape(message)):
        FiniteModule({(0, 0): 1}, mult_x, mult_y)
    m = FiniteModule({(0, 0): 1}, {(0, 0): [], (-1, 0): [[]]},
                     {(0, 0): [], (5, 5): []})
    assert m.mult_x == m.mult_y == {}


def test_finite_module_refuses_non_integral_dimensions():
    with pytest.raises(ValueError,
                       match="dimension must be an integer, got 1.5"):
        FiniteModule({(0, 0): 1.5}, {}, {})


def test_oracle_square_quotient():
    t = bigraded_betti(monomial_quotient(SQUARE))
    assert dict(t.entries) == {
        (0, (0, 0)): 1,
        (1, (2, 0)): 1, (1, (1, 1)): 1, (1, (0, 2)): 1,
        (2, (2, 1)): 1, (2, (1, 2)): 1,
    }


def test_oracle_koszul_module():
    t = bigraded_betti(monomial_quotient(
        MonomialPair([(0, 0)], [(1, 0), (0, 1)])))
    assert dict(t.entries) == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1, (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }


def test_oracle_axes_quotient_decomposes():
    whole = bigraded_betti(monomial_quotient(AXES_MOD))
    x_part = bigraded_betti(monomial_quotient(
        MonomialPair([(1, 0)], [(2, 0), (1, 2)])))
    y_part = bigraded_betti(monomial_quotient(
        MonomialPair([(0, 1)], [(1, 1), (0, 3)])))
    assert whole == x_part.add(y_part)
    assert dict(whole.entries) == {
        (0, (1, 0)): 1, (0, (0, 1)): 1,
        (1, (2, 0)): 1, (1, (1, 1)): 1, (1, (1, 2)): 1, (1, (0, 3)): 1,
        (2, (2, 2)): 1, (2, (1, 3)): 1,
    }


def test_oracle_wide_staircase():
    t = bigraded_betti(monomial_quotient(WIDE_STAIRCASE))
    assert dict(t.entries) == {
        (0, (4, 0)): 1, (0, (2, 1)): 1, (0, (1, 2)): 1, (0, (0, 4)): 1,
        (1, (6, 0)): 1, (1, (4, 1)): 1, (1, (2, 2)): 1,
        (1, (1, 4)): 1, (1, (0, 6)): 1, (1, (3, 3)): 1,
        (2, (6, 3)): 1, (2, (3, 6)): 1,
    }


def test_oracle_matches_staircase_corner_counts_on_fixtures():
    for pair in (SQUARE, AXES_MOD, WIDE_STAIRCASE):
        region = _region(pair)
        t = bigraded_betti(monomial_quotient(pair))
        assert dict(t.entries) == _staircase_betti(region)


def test_monomial_quotient_support_is_the_region():
    for pair in (SQUARE, AXES_MOD, WIDE_STAIRCASE):
        m = monomial_quotient(pair)
        assert set(m.dims) == _region(pair)
        assert all(v == 1 for v in m.dims.values())


@st.composite
def _antichain_pairs(draw):
    outer_budget = draw(st.integers(min_value=1, max_value=3))
    outer = sorted({
        (draw(st.integers(min_value=0, max_value=3)),
         draw(st.integers(min_value=0, max_value=3)))
        for _ in range(outer_budget)
    })
    # inner generators dominate some outer one and cap both axes so
    # the quotient stays finite
    max_a = max(a for a, _ in outer)
    max_b = max(b for _, b in outer)
    mids = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=5),
                  st.integers(min_value=1, max_value=5)),
        min_size=0, max_size=2))
    inner = [(max_a + 3, 0), (0, max_b + 3)]
    for da, db in mids:
        inner.append((da, db))
    return outer, inner


@given(_antichain_pairs())
@settings(max_examples=60, deadline=None)
def test_oracle_matches_staircase_corner_counts_randomized(pair_gens):
    outer, inner = pair_gens
    try:
        pair = MonomialPair(outer, inner)
        m = monomial_quotient(pair)
    except (NotContained, NotFiniteLength):
        return
    region = _region(pair)
    assert set(m.dims) == region
    assert dict(bigraded_betti(m).entries) == _staircase_betti(region)


def test_region_module_agrees_with_monomial_quotient():
    pair = WIDE_STAIRCASE
    direct = _region_module(_region(pair))
    assert bigraded_betti(direct) == bigraded_betti(monomial_quotient(pair))


def test_presentation_entry_exponents_are_forced():
    with pytest.raises(ValueError, match="exponent"):
        PresentationMatrix(
            rows=[(0, 0)], cols=[(2, 0)],
            entries=[[[(1, (1, 0))]]],  # degree (1,0) into a (2,0) slot
        )


def _per_cell_scalars(rows, cols, entries):
    """The constructor's entry loop as a per-cell reference route: every
    cell, empty or not, merges its terms and takes its forced exponent."""
    rows = [integral_bidegree(d, "row degree") for d in rows]
    cols = [integral_bidegree(d, "column degree") for d in cols]
    scalars = []
    for r, row in enumerate(entries):
        out = []
        for c, terms in enumerate(row):
            merged = {}
            for coeff, expo in terms:
                expo = integral_bidegree(expo, "entry exponent")
                merged[expo] = merged.get(expo, Fraction(0)) \
                    + Fraction(coeff)
            merged = {e: v for e, v in merged.items() if v != 0}
            forced = (cols[c][0] - rows[r][0], cols[c][1] - rows[r][1])
            if not merged:
                out.append(Fraction(0))
                continue
            if list(merged) != [forced] or min(forced) < 0:
                raise ValueError(
                    f"entry ({r}, {c}) must be a scalar multiple of "
                    f"the monomial with exponent {forced}")
            out.append(merged[forced])
        scalars.append(out)
    return scalars


def _entry(draw, forced):
    """One presentation entry for a cell of the given forced exponent:
    empty as a list or a tuple, a term pair that cancels, a term of the
    wrong exponent, a "3/2" coefficient, a plain (maybe zero) term, a
    zero term at a wrong exponent (zero, no error), a zero term at a
    malformed exponent (the exponent error), or a bad coefficient at a
    malformed exponent (the exponent error comes first)."""
    kind = draw(st.sampled_from(
        ("list", "tuple", "cancel", "wrong", "half", "plain", "zero wrong",
         "zero malformed", "both bad")))
    if kind == "list":
        return []
    if kind == "tuple":
        return ()
    if kind == "cancel":
        return [(1, forced), (-1, forced)]
    if kind == "wrong":
        return [(1, (forced[0] + 1, forced[1]))]
    if kind == "half":
        return [("3/2", forced)]
    if kind == "zero wrong":
        return [(0, (forced[0], forced[1] + 1))]
    malformed = draw(st.sampled_from(
        ((forced[0], 1.5), (forced[0],), None, (forced[0], "b"))))
    if kind == "zero malformed":
        return [(0, malformed)]
    if kind == "both bad":
        return [("x", malformed)]
    return [(draw(st.integers(-2, 2)), forced)]


def _outcome(build):
    try:
        return build()
    except ValueError as e:
        return ("ValueError", str(e))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_presentation_constructor_matches_the_per_cell_route(data):
    degree = st.tuples(st.integers(0, 3), st.integers(0, 3))
    rows = data.draw(st.lists(degree, min_size=0, max_size=3))
    cols = data.draw(st.lists(degree, min_size=0, max_size=4))
    entries = [[_entry(data.draw, (c[0] - r[0], c[1] - r[1])) for c in cols]
               for r in rows]
    got = _outcome(lambda: PresentationMatrix(rows, cols, entries).scalars)
    assert got == _outcome(lambda: _per_cell_scalars(rows, cols, entries))
    if not isinstance(got, tuple):
        assert all(type(v) is Fraction for row in got for v in row)


def _cleared_columns(pm):
    """Column c of pm.scalars times the lcm of its denominators."""
    out = []
    for c in range(len(pm.col_degrees)):
        column = [row[c] for row in pm.scalars]
        d = math.lcm(*(s.denominator for s in column))
        out.append([s.numerator * (d // s.denominator) for s in column])
    return out


def test_int_columns_are_the_cleared_scalar_columns():
    rng = random.Random(20121208)
    inputs = [PACMAN, HEART, _residue_field(3)]
    inputs += [_random_presentation(rng) for _ in range(60)]
    inputs += _coker_inputs(rng, 60, rational=True)
    inputs += [PresentationMatrix(rows=[], cols=cols, entries=[])
               for cols in ([], [(1, 0)], [(2, 1), (0, 3), (2, 1)])]
    rational = 0
    for pm in inputs:
        assert all(type(v) is int for column in pm.int_columns
                   for v in column)
        assert pm.int_columns == _cleared_columns(pm)
        rational += any(s.denominator > 1 for row in pm.scalars for s in row)
    assert rational > 30


def test_presentation_merges_and_cancels_terms():
    pm = PresentationMatrix(
        rows=[(0, 0)], cols=[(1, 0)],
        entries=[[[(1, (1, 0)), (-1, (1, 0))]]],
    )
    _, _, mat = _matrix_at(pm, (1, 0))
    assert mat == [[Fraction(0)]]


def test_generic_rank_values():
    assert generic_rank(PACMAN) == 2
    assert generic_rank(HEART) == 2
    koszul = PresentationMatrix(
        rows=[(0, 0)], cols=[(1, 0), (0, 1)],
        entries=[[[(1, (1, 0))], [(1, (0, 1))]]])
    assert generic_rank(koszul) == 1
    zero = PresentationMatrix(rows=[(0, 0)], cols=[(1, 0)], entries=[[[]]])
    assert generic_rank(zero) == 0


def test_coker_of_koszul_presentation_is_residue_field():
    pm = PresentationMatrix(
        rows=[(0, 0)], cols=[(1, 0), (0, 1)],
        entries=[[[(1, (1, 0))], [(1, (0, 1))]]])
    m = coker_presentation(pm)
    assert m.dims == {(0, 0): 1}


def test_coker_detects_infinite_length():
    pm = PresentationMatrix(rows=[(0, 0)], cols=[(1, 0)],
                            entries=[[[(1, (1, 0))]]])
    with pytest.raises(NotFiniteLength):
        coker_presentation(pm)


def _drop_column(pm, c):
    obj = presentation_to_json_obj(pm)
    del obj["cols"][c]
    for row in obj["entries"]:
        del row[c]
    return presentation_from_json_obj(obj)


def test_coker_scan_box_is_exact():
    """The cokernel dims equal rows minus rank over a box six steps
    wider than the degrees' hull, and an infinite cokernel still
    shows there, on the outermost layer."""
    rng = random.Random(20121208)
    outcomes = set()
    for _ in range(240):
        pm = _random_presentation(rng)
        if rng.random() < 0.5:
            # the first 2 * len(rows) columns are the pure x^p, y^q
            # relations, one pair per row
            pm = _drop_column(pm, rng.randrange(2 * len(pm.row_degrees)))
        lo = (min(a for a, _ in pm.row_degrees),
              min(b for _, b in pm.row_degrees))
        degrees = pm.row_degrees + pm.col_degrees
        far = (max(a for a, _ in degrees) + 6, max(b for _, b in degrees) + 6)
        dims = {}
        for a in range(lo[0] - 1, far[0] + 1):
            for b in range(lo[1] - 1, far[1] + 1):
                rows, _, matrix = _matrix_at(pm, (a, b))
                if len(rows) - _fraction_rank(matrix):
                    dims[(a, b)] = len(rows) - _fraction_rank(matrix)
        try:
            module = coker_presentation(pm)
        except NotFiniteLength:
            assert any(a == far[0] or b == far[1] for a, b in dims), \
                presentation_to_json_obj(pm)
            outcomes.add("infinite")
        else:
            assert module.dims == dims, presentation_to_json_obj(pm)
            outcomes.add("finite")
    assert outcomes == {"finite", "infinite"}


def test_heart_module_dimensions():
    m = coker_presentation(HEART)
    assert dict(m.dims) == {
        (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 0): 1, (0, 2): 1,
        (2, 1): 1, (1, 2): 1, (2, 2): 1,
    }
    assert m.total_dim() == 9


def test_heart_betti_table():
    t = bigraded_betti(coker_presentation(HEART))
    assert dict(t.entries) == {
        (0, (1, 0)): 1, (0, (0, 1)): 1,
        (1, (3, 0)): 1, (1, (2, 1)): 1, (1, (1, 2)): 1, (1, (0, 3)): 1,
        (2, (2, 2)): 1, (2, (3, 3)): 1,
    }


def _reduce_against(v, basis, pivots):
    """Subtract basis rows (in rref form with given pivots) to clear
    the pivot coordinates of v.  Returns the reduced vector."""
    v = v[:]
    for row, p in zip(basis, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _reduction_coker_presentation(pm):
    """Reference route for coker_presentation's maps.

    Same scan box and the same coset representatives (the rows missed
    by the column space pivots), but each map column is found by
    reducing the image's unit vector against the target's column
    space basis instead of being read off that basis.
    """
    if not pm.row_degrees:
        return FiniteModule({}, {}, {})
    lo = (min(a for a, _ in pm.row_degrees),
          min(b for _, b in pm.row_degrees))
    top = (max(a for a, _ in pm.row_degrees + pm.col_degrees),
           max(b for _, b in pm.row_degrees + pm.col_degrees))
    local = {}
    for a in range(lo[0], top[0] + 1):
        for b in range(lo[1], top[1] + 1):
            rows, _, matrix = _matrix_at(pm, (a, b))
            reduced, pivots = _fraction_rref(
                [list(col) for col in zip(*matrix)])
            basis = reduced[:len(pivots)]
            free = [k for k in range(len(rows)) if k not in set(pivots)]
            if free and (a == top[0] or b == top[1]):
                raise NotFiniteLength(f"cokernel is nonzero at {(a, b)}")
            local[(a, b)] = (rows, free, basis, pivots)
    dims = {alpha: len(free) for alpha, (_, free, _, _) in local.items()
            if free}
    maps = {(1, 0): {}, (0, 1): {}}
    for (a, b), (rows, free, _, _) in local.items():
        for step, store in maps.items():
            target = (a + step[0], b + step[1])
            if not free or not local.get(target, (0, []))[1]:
                continue
            t_rows, t_free, t_basis, t_pivots = local[target]
            columns = []
            for rid in free:
                vec = [Fraction(0)] * len(t_rows)
                vec[t_rows.index(rows[rid])] = Fraction(1)
                vec = _reduce_against(vec, t_basis, t_pivots)
                columns.append([vec[k] for k in t_free])
            store[(a, b)] = [[col[i] for col in columns]
                             for i in range(len(t_free))]
    return FiniteModule(dims, maps[(1, 0)], maps[(0, 1)])


def _coker_outcome(route, pm):
    """(dims, mult_x, mult_y) of route(pm) with each dict's order, or
    the NotFiniteLength it raised."""
    try:
        m = route(pm)
    except NotFiniteLength:
        return NotFiniteLength
    return [list(m.dims.items()), list(m.mult_x.items()),
            list(m.mult_y.items())]


def _coker_inputs(rng, count, rational=False):
    inputs = []
    for _ in range(count):
        pm = _random_presentation(rng, rational)
        if rng.random() < 0.45:
            # drop one row's pure x relation; most such cokernels then
            # escape along that row
            pm = PresentationMatrix(
                pm.row_degrees, pm.col_degrees[1:],
                [[[(s, pm.entry_exponent(r, c + 1))] if s else []
                  for c, s in enumerate(row[1:])]
                 for r, row in enumerate(pm.scalars)])
        inputs.append(pm)
    return inputs


def _infinite_after_routes_agree(inputs):
    """Check coker_presentation against the reduction route on every
    input; returns how many both refused as infinite."""
    outcomes = [(_coker_outcome(coker_presentation, pm),
                 _coker_outcome(_reduction_coker_presentation, pm))
                for pm in inputs]
    assert all(ours == ref for ours, ref in outcomes)
    return sum(ours is NotFiniteLength for ours, _ in outcomes)


def test_coker_maps_match_the_reduction_route():
    inputs = [PACMAN, HEART] + _coker_inputs(random.Random(5707), 600)
    infinite = _infinite_after_routes_agree(inputs)
    assert len(inputs) // 4 < infinite < len(inputs) // 2


def test_coker_maps_match_the_reduction_route_on_rational_coefficients():
    inputs = _coker_inputs(random.Random(31207), 300, rational=True)
    assert sum(s.denominator > 1 for pm in inputs
               for row in pm.scalars for s in row) > 300
    infinite = _infinite_after_routes_agree(inputs)
    assert len(inputs) // 4 < infinite < len(inputs) // 2


def _cell_scan_coker_presentation(pm):
    """Reference route for coker_presentation: the per-cell scan the
    library ran before its column space grew one column at a time.

    Same grid cells, top-layer check and message, but every cell's
    corner reduces its own block (the surviving columns on the
    surviving rows, in local positions) anew, and the maps are
    read off the target's normalized pivot vectors through a map from
    row ids to positions.
    """
    if not pm.row_degrees:
        return FiniteModule({}, {}, {})
    degrees = pm.row_degrees + pm.col_degrees
    lo = (min(a for a, _ in pm.row_degrees),
          min(b for _, b in pm.row_degrees))
    a_grid = sorted({a for a, _ in degrees if a >= lo[0]})
    b_grid = sorted({b for _, b in degrees if b >= lo[1]})
    top = (a_grid[-1], b_grid[-1])
    cells = {}
    pieces = []
    for a0, a1 in zip(a_grid, a_grid[1:] + [None]):
        for b0, b1 in zip(b_grid, b_grid[1:] + [None]):
            corner = (a0, b0)
            rows, _, matrix = _matrix_at(pm, corner)
            reduced, pivots = _fraction_rref(
                [list(col) for col in zip(*matrix)])
            lead = dict(zip(pivots, reduced))
            free = [k for k in range(len(rows)) if k not in lead]
            if not free:
                continue
            if a1 is None or b1 is None:
                raise NotFiniteLength(
                    f"cokernel is nonzero at {corner} on the top layer of "
                    f"[{lo}, {top}], so its support is unbounded")
            cells[corner] = (rows, free, lead)
            pieces += [((a, b), corner) for a in range(a0, a1)
                       for b in range(b0, b1)]
    pieces = dict(sorted(pieces))
    dims = {alpha: len(cells[corner][1]) for alpha, corner in pieces.items()}
    maps = ({}, {})
    for alpha, corner in pieces.items():
        rows, free, _ = cells[corner]
        for step, store in zip(((1, 0), (0, 1)), maps):
            target = pieces.get((alpha[0] + step[0], alpha[1] + step[1]))
            if target is None:
                continue
            t_rows, t_free, t_lead = cells[target]
            pos = {rid: k for k, rid in enumerate(t_rows)}
            columns = []
            for k in (pos[rows[f]] for f in free):
                if k in t_lead:
                    columns.append([-t_lead[k][f] for f in t_free])
                else:
                    columns.append([_ONE if f == k else Fraction(0)
                                    for f in t_free])
            store[alpha] = [list(row) for row in zip(*columns)]
    return FiniteModule(dims, *maps)


def _block_betti(mod):
    """Reference route for bigraded_betti: the Koszul oracle as it was
    before it reduced each stored map once, clearing and reducing both
    blocks anew at every bidegree."""
    entries = {}
    for alpha in sorted({(a + da, b + db) for a, b in mod.dims
                         for da in (0, 1) for db in (0, 1)}):
        a, b = alpha
        corner, left, below = (a - 1, b - 1), (a - 1, b), (a, b - 1)
        d_corner, d_left = mod.dim(corner), mod.dim(left)
        d_below, d_here = mod.dim(below), mod.dim(alpha)
        r2 = 0
        if d_corner and (d_left or d_below):
            r2 = rank(integer_rows(mod.map_y(corner) + mod.map_x(corner)))
        r1 = 0
        if d_here and (d_left or d_below):
            r1 = rank(integer_rows([x + y for x, y in zip(mod.map_x(left),
                                                          mod.map_y(below))]))
        for i, value in ((0, d_here - r1),
                         (1, d_left + d_below - r1 - r2),
                         (2, d_corner - r2)):
            if value:
                entries[(i, alpha)] = value
    return BigradedBettiTable(entries)


def _resolved(coker, betti, pm):
    """A module's pieces, maps, dual maps and both tables, each in its
    order, or the text of the NotFiniteLength the cokernel raised."""
    try:
        m = coker(pm)
    except NotFiniteLength as exc:
        return str(exc)
    dual = dual_module(m)
    return [list(m.dims.items()), list(m.mult_x.items()),
            list(m.mult_y.items()), list(dual.mult_x.items()),
            list(dual.mult_y.items()), list(betti(m).entries.items()),
            list(betti(dual).entries.items())]


def test_presentation_routes_match_the_per_cell_references():
    rng = random.Random(20121219)
    inputs = [PACMAN, HEART] + _coker_inputs(rng, 1000)
    inputs += _coker_inputs(rng, 1000, rational=True)
    infinite = 0
    for pm in inputs:
        ours = _resolved(coker_presentation, bigraded_betti, pm)
        assert ours == _resolved(_cell_scan_coker_presentation,
                                 _block_betti, pm), \
            presentation_to_json_obj(pm)
        infinite += isinstance(ours, str)
    assert {len(pm.row_degrees) for pm in inputs} == {1, 2, 3, 4}
    assert len(inputs) // 4 < infinite < len(inputs) // 2


def test_oracle_matches_the_block_reference_on_monomial_quotients():
    antichains = _antichains_below(5)
    finite = 0
    for outer in antichains:
        for inner in antichains:
            if not all(module_engine._below(outer, g) for g in inner):
                continue
            try:
                module = monomial_quotient(MonomialPair(outer, inner))
            except NotFiniteLength:
                continue
            finite += 1
            for m in (module, dual_module(module)):
                assert list(bigraded_betti(m).entries.items()) == \
                    list(_block_betti(m).entries.items())
    assert finite == 3323


_GROWTH_MARGINS = (2, 4, 8, 16, 32, 64)


def _scan_corners(degrees):
    """The degrees' coordinatewise maximum pushed out by each growth
    margin: the scan boxes the library tried before it scanned the box
    the degrees fix."""
    base = (max(a for a, _ in degrees), max(b for _, b in degrees))
    return [(base[0] + m, base[1] + m) for m in _GROWTH_MARGINS]


def _nullspace_basis(m, ncols):
    """Basis of {v : m v = 0} as a list of length-ncols vectors; ncols
    is the width, which an m without rows does not carry."""
    reduced, pivots = _fraction_rref(m)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def _span_kernel_scan(pm, lo, corner):
    cache = {}

    def kernel_at(alpha):
        if alpha not in cache:
            _, cols, matrix = _matrix_at(pm, alpha)
            cache[alpha] = (cols, _nullspace_basis(matrix, ncols=len(cols)))
        return cache[alpha]

    gens = {}
    for a in range(lo[0], corner[0] + 1):
        for b in range(lo[1], corner[1] + 1):
            alpha = (a, b)
            cols, basis = kernel_at(alpha)
            if not basis:
                continue
            pos = {c: k for k, c in enumerate(cols)}
            span = []
            for prev in ((a - 1, b), (a, b - 1)):
                pcols, pbasis = kernel_at(prev)
                for v in pbasis:
                    w = [Fraction(0)] * len(cols)
                    for k, c in enumerate(pcols):
                        w[pos[c]] = v[k]
                    span.append(w)
            fresh = len(basis) - (_fraction_rank(span) if span else 0)
            if fresh:
                gens[alpha] = fresh
    return gens


def _span_kernel_generator_degrees(pm):
    """Reference route for kernel_generator_degrees.

    Builds a nullspace basis in every bidegree of the scan box, embeds
    the bases of the two lower neighbours (multiplication by x and by
    y) and counts the basis vectors their span misses.  The scan box
    grows by the old growth margins until the generic-rank
    completeness test passes, so neither the library's box nor its
    count is shared.
    """
    ncols = len(pm.col_degrees)
    if ncols == 0:
        return []
    expected = ncols - _fraction_rank(pm.scalars)
    if expected == 0:
        return []
    lo = (min(a for a, _ in pm.col_degrees),
          min(b for _, b in pm.col_degrees))
    found = {}
    for corner in _scan_corners(pm.col_degrees):
        found = _span_kernel_scan(pm, lo, corner)
        if sum(found.values()) == expected:
            return [(alpha, found[alpha]) for alpha in sorted(found)]
    raise AssertionError(
        f"span route found {sum(found.values())} of {expected} kernel "
        f"generators")


_RATIONALS = tuple(Fraction(v) for v in (
    "0", "1/3", "-5/2", "7/10", "-1", "2", "-3/4", "11/6"))


def _random_presentation(rng, rational=False):
    """1-4 generator rows, each killed by its own pure x^p and y^q
    relation, plus up to four extra relations with coefficients in
    -2..2 on every row below their degree.  With rational set, every
    coefficient is drawn from _RATIONALS instead (nonzero on the pure
    relations)."""
    def pure():
        return rng.choice(_RATIONALS[1:]) if rational else 1

    def mixed():
        return rng.choice(_RATIONALS) if rational else rng.randint(-2, 2)

    rows = [(rng.randint(0, 2), rng.randint(0, 2))
            for _ in range(rng.randint(1, 4))]
    cols = []
    for r, (a, b) in enumerate(rows):
        cols.append(((a + rng.randint(1, 3), b), {r: pure()}))
        cols.append(((a, b + rng.randint(1, 3)), {r: pure()}))
    for _ in range(rng.randint(0, 4)):
        c = (rng.randint(0, 4), rng.randint(0, 4))
        cols.append((c, {r: mixed() for r, d in enumerate(rows)
                         if d[0] <= c[0] and d[1] <= c[1]}))
    entries = [[[(coeffs[r], (c[0] - d[0], c[1] - d[1]))]
                if coeffs.get(r) else [] for c, coeffs in cols]
               for r, d in enumerate(rows)]
    return PresentationMatrix(rows, [c for c, _ in cols], entries)


def test_kernel_degrees_match_the_span_route():
    koszul = PresentationMatrix(
        rows=[(0, 0)], cols=[(1, 0), (0, 1)],
        entries=[[[(1, (1, 0))], [(1, (0, 1))]]])
    injective = PresentationMatrix(rows=[(0, 0)], cols=[(1, 0)],
                                   entries=[[[(1, (1, 0))]]])
    zero = PresentationMatrix(rows=[(0, 0)], cols=[(1, 0), (0, 1)],
                              entries=[[[], []]])
    rng = random.Random(20121207)
    inputs = [PACMAN, HEART, koszul, injective, zero]
    inputs += [_random_presentation(rng) for _ in range(120)]
    for pm in inputs:
        assert kernel_generator_degrees(pm) == \
            _span_kernel_generator_degrees(pm), presentation_to_json_obj(pm)


def test_kernel_degrees_match_the_span_route_on_rational_coefficients():
    inputs = _coker_inputs(random.Random(31208), 120, rational=True)
    infinite = 0
    for pm in inputs:
        assert kernel_generator_degrees(pm) == \
            _span_kernel_generator_degrees(pm), presentation_to_json_obj(pm)
        infinite += _coker_outcome(coker_presentation, pm) is NotFiniteLength
    assert 0 < infinite < len(inputs)


def test_kernel_degrees_of_pacman_presentation():
    assert kernel_generator_degrees(PACMAN) == [((2, 3), 1), ((3, 2), 1)]


def test_kernel_degrees_of_koszul_and_injective_maps():
    koszul = PresentationMatrix(
        rows=[(0, 0)], cols=[(1, 0), (0, 1)],
        entries=[[[(1, (1, 0))], [(1, (0, 1))]]])
    assert kernel_generator_degrees(koszul) == [((1, 1), 1)]
    injective = PresentationMatrix(rows=[(0, 0)], cols=[(1, 0)],
                                   entries=[[[(1, (1, 0))]]])
    assert kernel_generator_degrees(injective) == []


def test_kernel_degrees_of_zero_map_are_column_degrees():
    zero = PresentationMatrix(rows=[(0, 0)], cols=[(1, 0), (0, 1)],
                              entries=[[[], []]])
    assert kernel_generator_degrees(zero) == [((0, 1), 1), ((1, 0), 1)]


def test_kernel_degrees_without_columns():
    for rows in ([], [(0, 0)], [(0, 0), (2, 1)]):
        pm = PresentationMatrix(rows=rows, cols=[],
                                entries=[[] for _ in rows])
        assert kernel_generator_degrees(pm) == []


@pytest.mark.parametrize("cols, kernel", [
    ([(2, 1), (0, 3), (1, 0)], [((0, 3), 1), ((1, 0), 1), ((2, 1), 1)]),
    ([(2, 1), (0, 3), (2, 1), (1, 0)],
     [((0, 3), 1), ((1, 0), 1), ((2, 1), 2)]),
])
def test_presentation_with_columns_and_no_rows(cols, kernel):
    """A map into the zero module: rank 0, every column a kernel
    generator, counted once, and a zero cokernel.  The int columns are
    read off the rows, of which there are none, so this pins that each
    column is still there, empty."""
    pm = PresentationMatrix(rows=[], cols=cols, entries=[])
    assert generic_rank(pm) == 0
    assert kernel_generator_degrees(pm) == kernel
    module = coker_presentation(pm)
    assert (module.dims, module.mult_x, module.mult_y) == ({}, {}, {})
    assert bigraded_betti(module).entries == {}


def test_second_syzygies_match_kernel_scan():
    """The oracle's top Betti degrees are the kernel generators.

    bigraded_betti works through Koszul homology ranks of the cokernel
    while kernel_generator_degrees counts generators from the ranks of
    the presentation matrix in each bidegree; they must land on the
    same multiset.
    """
    for pm in (PACMAN, HEART):
        t = bigraded_betti(coker_presentation(pm))
        top = sorted(
            (deg, count)
            for (i, deg), count in t.entries.items() if i == 2)
        assert top == kernel_generator_degrees(pm)


def test_dual_module_reverses_table():
    for build in (
        lambda: monomial_quotient(SQUARE),
        lambda: monomial_quotient(AXES_MOD),
        lambda: coker_presentation(HEART),
    ):
        m = build()
        t = bigraded_betti(m)
        td = bigraded_betti(dual_module(m))
        ca = max(a for a, _ in m.dims)
        cb = max(b for _, b in m.dims)
        expected = {
            (2 - i, (ca + 1 - a, cb + 1 - b)): v
            for (i, (a, b)), v in t.entries.items()
        }
        assert dict(td.entries) == expected


def test_dual_module_is_an_involution_on_tables():
    m = coker_presentation(HEART)
    t = bigraded_betti(m)
    tdd = bigraded_betti(dual_module(dual_module(m)))
    assert t == tdd


def test_double_dual_is_the_module():
    """For a module whose support starts at (0,0) the dual of the dual
    has the same pieces and the same stored maps; a zero map the
    module leaves out stays out."""
    rng = random.Random(20121209)
    modules = [monomial_quotient(p) for p in (SQUARE, AXES_MOD,
                                              WIDE_STAIRCASE)]
    modules += [coker_presentation(pm) for pm in [PACMAN, HEART]
                + [_random_presentation(rng) for _ in range(100)]]
    gap = FiniteModule({(0, 0): 1, (1, 0): 1, (1, 1): 2},
                       {(0, 0): [[0]]}, {(1, 0): [[1], [2]]})
    omitted = FiniteModule({(0, 0): 1, (1, 0): 1}, {}, {})
    modules += [gap, omitted]
    checked = 0
    for m in modules:
        if m.hull()[0] != (0, 0):
            continue
        twice = dual_module(dual_module(m))
        assert (twice.dims, twice.mult_x, twice.mult_y) == \
            (m.dims, m.mult_x, m.mult_y)
        checked += 1
    assert checked >= 20


def test_dual_of_heart_table():
    td = bigraded_betti(dual_module(coker_presentation(HEART)))
    assert dict(td.entries) == {
        (0, (0, 0)): 1, (0, (1, 1)): 1,
        (1, (3, 0)): 1, (1, (2, 1)): 1, (1, (1, 2)): 1, (1, (0, 3)): 1,
        (2, (3, 2)): 1, (2, (2, 3)): 1,
    }


def test_presentation_json_round_trip():
    obj = presentation_to_json_obj(PACMAN)
    back = presentation_from_json_obj(obj)
    assert back.row_degrees == PACMAN.row_degrees
    assert back.col_degrees == PACMAN.col_degrees
    assert kernel_generator_degrees(back) == \
        kernel_generator_degrees(PACMAN)


def test_module_from_json_dispatches_both_kinds():
    mono = module_from_json_obj({
        "kind": "monomial_quotient",
        "outer": [[0, 0]],
        "inner": [[2, 0], [1, 1], [0, 2]],
    })
    assert bigraded_betti(mono) == bigraded_betti(monomial_quotient(SQUARE))
    pres = module_from_json_obj(presentation_to_json_obj(HEART))
    assert bigraded_betti(pres) == bigraded_betti(coker_presentation(HEART))
    with pytest.raises((ValueError, KeyError)):
        module_from_json_obj({"kind": "mystery"})


def test_oracle_euler_characteristic_is_zero_total():
    """Alternating Betti sums equal the alternating dims convolution.

    Summing (-1)^i beta_i over all bidegrees gives the value of the
    numerator at s = (1, 1), which is 0 for any finite length module
    resolved by three free stages of equal total rank difference 0
    when weighted without degrees; checked as a plain integer here.
    """
    for pair in (SQUARE, AXES_MOD, WIDE_STAIRCASE):
        t = bigraded_betti(monomial_quotient(pair))
        total = sum(
            (v if i != 1 else -v) for (i, _), v in t.entries.items())
        assert total == 0


def _random_region(rng):
    cells = {(0, 0)}
    for _ in range(rng.randint(0, 8)):
        cells.add((rng.randint(0, 3), rng.randint(0, 3)))
    # close downward-left gaps so the cell set is a staircase region:
    # keep cells whose full lower-left path stays reachable is not
    # required; instead build up(min) minus holes that are up-closed
    mins = {c for c in cells
            if not any(d != c and d[0] <= c[0] and d[1] <= c[1]
                       for d in cells)}
    box = (6, 6)
    up = _up_set(mins, box)
    holes = set()
    for _ in range(rng.randint(0, 2)):
        seed = (rng.randint(2, 6), rng.randint(2, 6))
        holes |= {(a, b) for (a, b) in up
                  if a >= seed[0] and b >= seed[1]}
    return up - holes


def test_oracle_matches_corner_counts_on_random_regions():
    rng = random.Random(424242)
    for _ in range(40):
        region = _random_region(rng)
        if not region:
            continue
        m = _region_module(region)
        assert dict(bigraded_betti(m).entries) == _staircase_betti(region)


def _random_matrix(rng):
    """A seeded matrix: 0-7 rows of 0-7 entries (empty and 0-column
    shapes included, wide and tall), each entry zero or a signed
    fraction with a numerator up to 10^6 and a mixed denominator, with
    some rows and columns cleared."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    m = [[Fraction(rng.randint(-10 ** 6, 10 ** 6),
                   rng.choice((1, 1, 2, 3, 7, 10, 999983)))
          if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
         for _ in range(nrows)]
    if m and rng.random() < 0.5:
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if ncols and rng.random() < 0.5:
        c = rng.randrange(ncols)
        for row in m:
            row[c] = Fraction(0)
    if nrows > 1 and rng.random() < 0.3:
        # a combination of two rows, so the rank drops
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m[-1] = [a + f * b for a, b in zip(m[0], m[1])]
    return m


def test_linalg_matches_the_fraction_route():
    rng = random.Random(90210)
    inputs = [[], [[]], [[], []], [[Fraction(0)]], [[Fraction(3, 4)]]]
    inputs += [_random_matrix(rng) for _ in range(1500)]
    deficient = 0
    for m in inputs:
        reduced, pivots = _fraction_rref(m)
        rows = integer_rows(m)
        given = [row[:] for row in rows]
        for order in (rows, rows[::-1]):
            basis = {}
            for row in order:
                insert_row(basis, row)
            assert sorted(basis) == pivots, m
            assert all(type(x) is int for row in basis.values() for x in row)
            assert [[Fraction(x, basis[p][p]) for x in basis[p]]
                    for p in pivots] == reduced[:len(pivots)], m
        assert rows == given, m
        assert rank(rows) == len(pivots), m
        assert rows == given, m
        deficient += len(pivots) < min(len(m), len(m[0]) if m else 0)
    assert deficient > 300


def test_insert_row_into_a_full_span_clears_nothing(monkeypatch):
    """A basis with a pivot in every coordinate spans the whole space:
    a row inserted there changes neither the dict nor its row objects,
    and is never cleared."""
    cleared = []
    inner = _linalg._cleared

    def counted(row, p, c):
        cleared.append(c)
        return inner(row, p, c)

    monkeypatch.setattr(_linalg, "_cleared", counted)
    rng = random.Random(1207)
    for n in range(5):
        basis = {}
        while len(basis) < n:
            insert_row(basis, [rng.randint(-9, 9) for _ in range(n)])
        before = dict(basis)
        cleared.clear()
        for _ in range(20):
            insert_row(basis, [rng.randint(-9, 9) for _ in range(n)])
        assert cleared == []
        assert list(basis.items()) == list(before.items())
        assert all(basis[c] is before[c] for c in before)
    # one pivot short of full, the same row is cleared
    basis = {0: [1, 0, 0], 1: [0, 1, 0]}
    insert_row(basis, [1, 1, 0])
    assert cleared == [0, 1]
    assert basis == {0: [1, 0, 0], 1: [0, 1, 0]}


def _residue_field(k):
    """x, y, x^k, y^k presenting k[x, y]/(x, y)."""
    return PresentationMatrix(
        rows=[(0, 0)], cols=[(1, 0), (0, 1), (k, 0), (0, k)],
        entries=[[[(1, (1, 0))], [(1, (0, 1))], [(1, (k, 0))],
                  [(1, (0, k))]]])


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(module_engine, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module_engine, name, counted)
    return calls


def test_kernel_scan_ranks_only_the_column_grid(monkeypatch):
    calls = _counting(monkeypatch, "rank")
    assert kernel_generator_degrees(_residue_field(1000)) == \
        [((0, 1000), 1), ((1, 1), 1), ((1000, 0), 1)]
    assert 0 < len(calls) <= 9


def _distant_pair(k):
    """Residue fields at (0, 0) and (k, k), presented side by side."""
    return PresentationMatrix(
        rows=[(0, 0), (k, k)], cols=[(1, 0), (0, 1), (k + 1, k), (k, k + 1)],
        entries=[[[(1, (1, 0))], [(1, (0, 1))], [], []],
                 [[], [], [(1, (1, 0))], [(1, (0, 1))]]])


@pytest.mark.parametrize("pm", [_residue_field(60), _distant_pair(300)],
                         ids=["residue_field", "distant_pair"])
def test_presentation_scans_insert_each_column_once_per_line(monkeypatch, pm):
    """Both scans insert each column at most once per line of their
    a-grid; pm is one or two residue fields, one per row."""
    degrees = pm.row_degrees + pm.col_degrees
    lo = min(a for a, _ in pm.row_degrees)
    width = len(pm.col_degrees)
    calls = _counting(monkeypatch, "insert_row")
    assert sum(coker_presentation(pm).dims.values()) == len(pm.row_degrees)
    assert 0 < len(calls) <= len({a for a, _ in degrees if a >= lo}) * width
    calls.clear()
    assert sum(count for _, count in kernel_generator_degrees(pm)) == \
        width - len(pm.row_degrees)
    assert 0 < len(calls) <= len({a for a, _ in pm.col_degrees}) * width


@pytest.mark.parametrize("build", [
    lambda: coker_presentation(PresentationMatrix(
        rows=[(0, 0)], cols=[(200, 0), (0, 200)],
        entries=[[[(1, (200, 0))], [(1, (0, 200))]]])),
    lambda: monomial_quotient(MonomialPair([(0, 0)], [(200, 0), (0, 200)])),
], ids=["presentation", "monomial_quotient"])
def test_oracle_clears_each_stored_map_at_most_twice(monkeypatch, build):
    """k[x, y]/(x^200, y^200) from either input stores 79600 maps, all
    one object."""
    module = build()
    stored = {id(m) for maps in (module.mult_x, module.mult_y)
              for m in maps.values()}
    assert len(module.mult_x) + len(module.mult_y) == 2 * 199 * 200
    assert len(stored) == 1
    calls = _counting(monkeypatch, "integer_rows")
    assert bigraded_betti(module).entries == {
        (0, (0, 0)): 1, (1, (0, 200)): 1, (1, (200, 0)): 1,
        (2, (200, 200)): 1}
    assert 0 < len(calls) <= 2 * len(stored)


# The presentation CI resolves as empty.json: empty entries beside
# nonzero terms, a column of [] only at (3, 0), and at (1, 0) a term pair
# that cancels.
EMPTY_ENTRIES = presentation_from_json_obj({
    "kind": "presentation", "rows": [[0, 0], [1, 0]],
    "cols": [[1, 0], [3, 0], [2, 0], [0, 2], [1, 1], [3, 0], [1, 2]],
    "entries": [[[[1, [1, 0]], [-1, [1, 0]]], [], [[1, [2, 0]]],
                 [[1, [0, 2]]], [[1, [1, 1]]], [], []],
                [[], [], [], [], [[2, [0, 1]]], [[1, [2, 0]]],
                 [[1, [0, 2]]]]]})

# H5 of ROADMAP item 8: generators at (1, 0) and (0, 1), relations in
# total degree 4.
H5 = PresentationMatrix(
    rows=[(1, 0), (0, 1)],
    cols=[(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)],
    entries=[[[(1, (3, 0))], [(1, (2, 1))], [(1, (1, 2))], [(1, (0, 3))],
              []],
             [[], [(1, (3, 0))], [(1, (2, 1))], [(1, (1, 2))],
              [(1, (0, 3))]]])


def _unshared_cell_map(free, target):
    """Reference for module_engine._cell_map: the matrix read off before
    cells shared identities, a column per free row, the unit vector of
    a row the target keeps free and minus the target's pivot vector
    over its pivot entry otherwise."""
    t_free, t_lead = target
    columns = []
    for r in free:
        vector = t_lead.get(r)
        if vector is None:
            columns.append([_ONE if f == r else Fraction(0) for f in t_free])
        else:
            columns.append([Fraction(-vector[f], vector[r]) for f in t_free])
    return [list(row) for row in zip(*columns)]


def _checked_sharing(monkeypatch, pm):
    """Resolve pm, checking that every map coker_presentation stores is
    one _cell_map built and equals the unshared reference, that the
    module and its dual hold one identity object per size, and that
    the oracle matches the block reference on both, clearing each
    distinct stored map at most twice.  Returns the number of
    _cell_map calls and of distinct stored maps."""
    built = []
    cell_map = module_engine._cell_map

    def recorded(free, target, identities):
        m = cell_map(free, target, identities)
        built.append(m)
        assert m == _unshared_cell_map(free, target)
        return m

    monkeypatch.setattr(module_engine, "_cell_map", recorded)
    try:
        module = coker_presentation(pm)
    finally:
        monkeypatch.undo()
    distinct = module_engine._by_identity(module)
    assert distinct.keys() <= {id(m) for m in built}
    for m in (module, dual_module(module)):
        maps = module_engine._by_identity(m)
        sizes = [len(x) for x in maps.values()
                 if x == [[_ONE if i == j else 0 for j in range(len(x))]
                          for i in range(len(x))]]
        assert len(sizes) == len(set(sizes))
        calls = _counting(monkeypatch, "integer_rows")
        assert list(bigraded_betti(m).entries.items()) == \
            list(_block_betti(m).entries.items())
        monkeypatch.undo()
        assert len(calls) <= 2 * len(maps)
    return len(built), len(distinct)


@pytest.mark.parametrize("pm, built, distinct", [
    (_distant_pair(300), 0, 0),
    (EMPTY_ENTRIES, 5, 5),
    (HEART, 10, 6),
    (H5, 22, 11),
], ids=["distant_pair", "empty_entries", "heart", "h5"])
def test_cokernels_share_one_identity_per_size(monkeypatch, pm, built,
                                               distinct):
    """Pairs of cells with the same free rows store one identity per
    size, so HEART and H5 store fewer distinct maps than cell pairs."""
    assert _checked_sharing(monkeypatch, pm) == (built, distinct)


def test_random_cokernels_share_one_identity_per_size(monkeypatch):
    rng = random.Random(20121231)
    built = distinct = 0
    for pm in _coker_inputs(rng, 300) + _coker_inputs(rng, 100,
                                                      rational=True):
        try:
            counts = _checked_sharing(monkeypatch, pm)
        except NotFiniteLength:
            continue
        built += counts[0]
        distinct += counts[1]
    assert 0 < distinct < built * 3 // 4


def _k_polynomial_kernel_degrees(pm):
    """Reference route for kernel_generator_degrees off the cokernel's
    K-polynomial.  With K the kernel and M the cokernel,
    0 -> K -> F1 -> F0 -> M -> 0 is exact, so multiplying the Hilbert
    series by (1 - s1)(1 - s2) gives K(M) = [F0] - [F1] + [K], where [F]
    sums s^d over a free module's generator degrees d: K is free, and M
    has finite length, so its Betti table gives K(M).  So [K] is K(M)
    minus the row degrees plus the column degrees, and its nonzero
    coefficients are the kernel generators with their multiplicities."""
    kernel = dict(k_polynomial(bigraded_betti(coker_presentation(pm)))
                  .coefficients)
    for d in pm.row_degrees:
        kernel[d] = kernel.get(d, 0) - 1
    for d in pm.col_degrees:
        kernel[d] = kernel.get(d, 0) + 1
    return sorted((d, count) for d, count in kernel.items() if count)


def test_kernel_degrees_match_the_k_polynomial_route():
    rng = random.Random(20121209)
    inputs = [HEART, H5, PACMAN, EMPTY_ENTRIES, _residue_field(5)]
    inputs += [_random_presentation(rng) for _ in range(150)]
    inputs += [_random_presentation(rng, rational=True) for _ in range(50)]
    for pm in inputs:
        assert kernel_generator_degrees(pm) == \
            _k_polynomial_kernel_degrees(pm), presentation_to_json_obj(pm)


@pytest.mark.parametrize("pm", [
    HEART, H5, EMPTY_ENTRIES,
    _random_presentation(random.Random(7), rational=True),
], ids=["heart", "h5", "empty_entries", "rational"])
def test_presentation_calls_read_the_constructors_int_columns(monkeypatch,
                                                              pm):
    """The constructor clears the scalar grid once; generic_rank and
    both presentation scans clear it again nowhere."""
    assert pm.int_columns
    calls = _counting(monkeypatch, "integer_rows")
    generic_rank(pm)
    coker_presentation(pm)
    kernel_generator_degrees(pm)
    assert calls == []


def _commuting_module_data(rng):
    """Pieces of one dimension n on a random staircase region, x acting
    by a random n x n matrix A and y by a polynomial in A (A itself, a
    multiple, A^2 or zero), so the two commute; A is often singular, so
    the joint ranks are not settled by a block of full rank."""
    n = rng.randint(1, 3)
    a = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        a[-1] = [0] * n
    b = rng.choice((a, a, [[2 * v for v in row] for row in a],
                    [[sum(a[i][k] * a[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)],
                    [[0] * n for _ in range(n)]))
    region = _random_region(rng)
    return ({alpha: n for alpha in region},
            {(p, q): a for p, q in region if (p + 1, q) in region},
            {(p, q): b for p, q in region if (p, q + 1) in region})


def test_oracle_settles_one_map_twice_exactly():
    """The oracle reads one object twice as one map: the same modules,
    through the public constructor, with their equal stored maps made
    one object and left as equal copies, give the block reference's
    table, and so do their duals."""
    rng = random.Random(20121230)
    twice = 0
    for _ in range(150):
        data = _commuting_module_data(rng)
        copies = FiniteModule(*data)
        shared = FiniteModule(*data)
        first = {}
        for maps in (shared.mult_x, shared.mult_y):
            for alpha, m in maps.items():
                maps[alpha] = first.setdefault(repr(m), m)
        twice += sum(shared.mult_x.get(alpha) is m
                     for alpha, m in shared.mult_y.items())
        twice += sum(shared.mult_x.get((p - 1, q + 1)) is m
                     for (p, q), m in shared.mult_y.items())
        for m, n in ((copies, shared),
                     (dual_module(copies), dual_module(shared))):
            table = list(_block_betti(m).entries.items())
            assert list(bigraded_betti(m).entries.items()) == table
            assert list(bigraded_betti(n).entries.items()) == table
    assert twice > 5000


def _two_point_quotient(k):
    """(x^k, y^k) / (x^(k+1), x^k y, x y^k, y^(k+1)): residue fields at
    (k, 0) and (0, k)."""
    return MonomialPair([(k, 0), (0, k)],
                        [(k + 1, 0), (k, 1), (1, k), (0, k + 1)])


def _koszul_tables_at(*corners):
    """Sum of the residue field's Koszul table moved to each corner."""
    koszul = {(0, (0, 0)): 1, (1, (1, 0)): 1, (1, (0, 1)): 1,
              (2, (1, 1)): 1}
    return {(i, (a + c[0], b + c[1])): v
            for c in corners for (i, (a, b)), v in koszul.items()}


@pytest.mark.parametrize("k", [10, 10**6])
def test_resolve_cost_follows_the_module_not_the_degrees(k):
    """At k = 10**6 the degree hulls hold 10**12 bidegrees; the scans
    walk grid cells and the support, so both sizes finish alike and
    give the same tables up to translation."""
    assert bigraded_betti(coker_presentation(_residue_field(k))).entries \
        == _koszul_tables_at((0, 0))
    assert bigraded_betti(coker_presentation(_distant_pair(k))).entries \
        == _koszul_tables_at((0, 0), (k, k))
    assert bigraded_betti(monomial_quotient(_two_point_quotient(k))) \
        .entries == _koszul_tables_at((k, 0), (0, k))


class _CountedDims(dict):
    """A dims dict that records every key looked up in it."""

    def __init__(self, dims, calls):
        super().__init__(dims)
        self.calls = calls

    def get(self, key, default=None):
        self.calls.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.calls.append(key)
        return super().__getitem__(key)


def test_oracle_visits_the_support_not_its_hull():
    module = coker_presentation(_distant_pair(300))
    calls = []
    module.dims = _CountedDims(module.dims, calls)
    table = bigraded_betti(module)
    assert table.entries == _koszul_tables_at((0, 0), (300, 300))
    # 8 bidegrees (each support point plus (0,0), (1,0), (0,1), (1,1))
    # times the 4 pieces of their Koszul complexes; the hull plus one
    # would be 302 * 302 bidegrees
    assert 0 < len(calls) <= 64


def _guard_scan_region(pair):
    """The region over the generators' box plus a guard row and column,
    or None when it reaches the guard: the box scan that shares no code
    with the grid walk in monomial_quotient."""
    gens = pair.gens_outer + pair.gens_inner
    box = (max(a for a, _ in gens) + 1, max(b for _, b in gens) + 1)
    region = _region(pair, box)
    if any(a == box[0] or b == box[1] for a, b in region):
        return None
    return region


def test_monomial_quotient_matches_the_guard_scan():
    rng = random.Random(20121209)
    outcomes = set()
    for _ in range(3000):
        outer = [(rng.randint(0, 4), rng.randint(0, 4))
                 for _ in range(rng.randint(1, 3))]
        inner = [(rng.randint(0, 7), rng.randint(0, 7))
                 for _ in range(rng.randint(1, 4))]
        try:
            pair = MonomialPair(outer, inner)
        except NotContained:
            continue
        region = _guard_scan_region(pair)
        try:
            m = monomial_quotient(pair)
        except NotFiniteLength:
            assert region is None, pair
            outcomes.add("infinite")
            continue
        assert region is not None, pair
        assert m.dims == dict.fromkeys(region, 1), pair
        assert list(m.dims) == sorted(m.dims)
        assert set(m.mult_x) == {p for p in region
                                 if (p[0] + 1, p[1]) in region}, pair
        assert set(m.mult_y) == {p for p in region
                                 if (p[0], p[1] + 1) in region}, pair
        outcomes.add("finite" if region else "zero")
    assert outcomes == {"finite", "zero", "infinite"}


def test_constructors_refuse_non_integral_degrees():
    with pytest.raises(ValueError,
                       match="outer ideal exponent must be an integer, "
                             "got 0.5"):
        MonomialPair([(0.5, 0)], [(2, 0), (0.9, 1)])
    with pytest.raises(ValueError,
                       match="inner ideal exponent must be an integer, "
                             "got 0.9"):
        MonomialPair([(0, 0)], [(2, 0), (0.9, 1)])
    with pytest.raises(ValueError,
                       match="row degree must be an integer, got 0.7"):
        PresentationMatrix(rows=[(0.7, 0)], cols=[], entries=[[]])
    with pytest.raises(ValueError,
                       match="column degree must be an integer, got 1/2"):
        PresentationMatrix(rows=[(0, 0)], cols=[(Fraction(1, 2), 0)],
                           entries=[[[]]])
    with pytest.raises(ValueError,
                       match="entry exponent must be an integer, got 1.5"):
        PresentationMatrix(rows=[(0, 0)], cols=[(1, 0)],
                           entries=[[[(1, (1.5, 0))]]])
    assert PresentationMatrix(rows=[(0.0, 0)], cols=[(2.0, 0)],
                              entries=[[[(1, (2.0, 0))]]]).col_degrees == \
        ((2, 0),)


def _rebuilt_publicly(module):
    """The public constructor accepts a module a trusted producer built,
    and rebuilds the very same pieces and maps, types and order
    included (a module has no equality of its own)."""
    rebuilt = FiniteModule(module.dims, module.mult_x, module.mult_y)
    assert repr((rebuilt.dims, rebuilt.mult_x, rebuilt.mult_y)) == \
        repr((module.dims, module.mult_x, module.mult_y))


def _antichains_below(n):
    """Every nonempty antichain of exponent pairs in [0, n)^2."""
    return [tuple(zip(cols, sorted(rows, reverse=True)))
            for r in range(1, n + 1)
            for cols in itertools.combinations(range(n), r)
            for rows in itertools.combinations(range(n), r)]


def test_trusted_quotients_pass_the_public_constructor():
    antichains = _antichains_below(5)
    finite = 0
    for outer in antichains:
        for inner in antichains:
            if not all(module_engine._below(outer, g) for g in inner):
                continue
            try:
                module = monomial_quotient(MonomialPair(outer, inner))
            except NotFiniteLength:
                continue
            finite += 1
            _rebuilt_publicly(module)
            _rebuilt_publicly(dual_module(module))
    assert finite == 3323


def test_trusted_cokernels_and_duals_pass_the_public_constructor():
    rng = random.Random(20121209)
    inputs = [PACMAN] + [pm for _, pm in seed_catalogue()]
    inputs += [_random_presentation(rng) for _ in range(200)]
    for pm in inputs:
        module = coker_presentation(pm)
        _rebuilt_publicly(module)
        _rebuilt_publicly(dual_module(module))
    empty = PresentationMatrix(rows=[], cols=[], entries=[])
    _rebuilt_publicly(coker_presentation(empty))


def _coarsened_parts(table):
    """Run a bigraded table through the other two contexts: its total
    grading (tables.coarsen) must split completely into pure tables
    over two variables, and the column sums must lie inside the open
    local cone.  Returns the number of pure parts."""
    graded = coarsen(table)
    dec = decompose_graded(graded)
    assert dec.is_complete(), dict(table.entries)
    assert is_in_local_cone(local_from_graded(graded)).is_inside(), \
        dict(table.entries)
    return len(dec.parts)


# Listed rays per square box, and how many of them coarsen to one pure
# table: most bigraded extremal rays stop being extremal in the total
# grading.
PURE_AFTER_COARSENING = {3: (75, 24), 4: (441, 60), 5: (2698, 123)}


@pytest.mark.parametrize("box", sorted(PURE_AFTER_COARSENING))
def test_listed_rays_coarsen_into_the_graded_and_local_cones(box):
    rays = enumerate_box_rays((box, box))
    pure = sum(_coarsened_parts(t) == 1 for t in rays)
    assert (len(rays), pure) == PURE_AFTER_COARSENING[box]


def test_finite_modules_coarsen_into_the_graded_and_local_cones():
    """A finite length bigraded module is a graded one whose minimal
    resolution is the coarsened bigraded one, so each table below is
    a graded Betti table and must decompose.  The zero module's empty
    table sits on the local cone's boundary and is left out."""
    heart = coker_presentation(HEART)
    tables = [bigraded_betti(heart), bigraded_betti(dual_module(heart))]
    rng = random.Random(909)
    for k in range(1500):
        module = coker_presentation(_random_presentation(rng, k % 2 == 1))
        tables.append(bigraded_betti(module))
    nonzero = [t for t in tables if t.entries]
    assert len(nonzero) == 1474
    for t in nonzero:
        _coarsened_parts(t)

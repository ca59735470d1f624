"""Enumeration of certified extremal rays of the bigraded cone whose
Betti tables fit a degree box.

A finite length monomial quotient I/J has one-dimensional pieces on
the staircase region I minus J, and its table has support in the box
[0, B1] x [0, B2] exactly when the region lies in the grid
[0, B1) x [0, B2).  The candidates are those regions, generated by a
column walk that reads the table off column by column by counting
corners, plus the tables of a small catalogue of presentation seeds
that no monomial quotient reaches, stored as data.  The walk yields
only regions whose tables pass the valency certificate of the bigraded
layer, K-polynomial test included, each a distinct ray, and no seed
table is a region table (see enumerate_box_rays).

The walk cuts a branch by three necessary conditions of that
certificate, so it never cuts a region whose table certifies:
- table column a depends only on region columns a - 1 and a, so it is
  final once region column a is placed; a final column whose vertex
  count is not 0 or 2 (x-valency other than 1) fails in every
  completion (none mixes homological degrees, see _table_column);
- rows only gain vertices as columns are placed, so a row that would
  reach a third vertex (y-valency 2 or more) fails in every
  completion;
- each table column of two vertices joins their two rows, so the rows
  form paths and cycles; a cycle is closed for good (its rows and
  columns are full), so a vertex placed after it leaves the graph
  disconnected.
A region is yielded once a cycle has closed.  A staircase region has
finite length, so its table passes the K-polynomial test, which needs
the signed counts of each row to cancel: no row holds a single vertex,
so every row holds two and the graph is that one cycle.  The walk
over a whole box keeps exactly the certified regions (439 of 1145 at
box (4,4)); its state is one hashable frontier, and _step its one
transition.

The listing walks only the dense shapes, the certified tables that use
every table column and row, one walk of box k - 1 per k, and places
each in the box (461 steps at box (4,4) instead of the full walk's
1449); box_rays counts the swap classes off the same placements,
without a pass over the rays.  That walk, _dense_shapes, also cuts a
branch as soon as a finished table column is empty, and reads a
closed region's table off its columns at the leaf with
staircase_betti, the one route from columns to a table.  The full
walk over a box is the tests' reference route, pruned_regions in
tests/test_bigraded.py, written there on its own, without _step.  The
tests also keep the unpruned walk over every staircase region, and
every pair of generator antichains in the box with its quotient
module through the Koszul oracle.
"""

from itertools import combinations
from math import comb

from .bigraded import BigradedBettiTable, integral, integral_bidegree
from .errors import BoundTooLarge
from .module_engine import PresentationMatrix

DEFAULT_MAX_BOX = 6


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
    return BigradedBettiTable._trusted(entries)


def _step(a, prev, col, ends):
    """Region column col placed after prev: (part, ends_next) with
    part table column a, or None to cut by the module docstring's rules.

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


def _dense_shapes(k):
    """The certified region tables in box (k - 1, k - 1) that use all k
    table columns, each as its sorted (i, a, b) triples, each once,
    lazily, in a fixed order.

    A region is a set S = I minus J for monomial ideals J inside I,
    that is, an order-convex set of exponent pairs, given as a tuple
    of k - 1 columns, each None (empty) or a pair (l, u) for the
    cells (a, l) .. (a, u - 1).  The walk places columns left to
    right, carrying the column starts p of the up-set U = up(S) and q
    of V = U minus S, both k - 1 before the first cell: a column is
    empty, which leaves U's start at p and forces V's start there too,
    or an interval [l, u) with l <= p (else U's cell (a, p) would sit
    in V below S) and u <= q (V is closed upward).  Each choice goes
    through _step, which cuts by the module docstring's rules, and the
    walk recurses on what it returns, undoing nothing; it cuts also as
    soon as a finished table column is empty, and yields a region
    whose last step closes the cycle, its table read off its columns
    at the leaf by staircase_betti.  Without that last cut this is the
    tests' pruned_regions, the full walk of the box.
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


# The Betti tables of the catalogue's seeds as sorted, gcd-normalized
# keys: the heart's and its dual's.  Both certify; the tests rebuild
# them with the Koszul oracle from seed_catalogue.
SEED_KEYS = (
    (((0, (0, 1)), 1), ((0, (1, 0)), 1),
     ((1, (0, 3)), 1), ((1, (1, 2)), 1), ((1, (2, 1)), 1), ((1, (3, 0)), 1),
     ((2, (2, 2)), 1), ((2, (3, 3)), 1)),
    (((0, (0, 0)), 1), ((0, (1, 1)), 1),
     ((1, (0, 3)), 1), ((1, (1, 2)), 1), ((1, (2, 1)), 1), ((1, (3, 0)), 1),
     ((2, (2, 3)), 1), ((2, (3, 2)), 1)),
)


def enumerate_box_rays(bound, max_box=DEFAULT_MAX_BOX):
    """The certified rays of the catalogue with support in the box.

    Candidates are the tables of the staircase regions inside
    [0, B1) x [0, B2), which are exactly the finite length monomial
    quotients I/J whose table support fits in [0, B1] x [0, B2], plus
    the stored seed tables SEED_KEYS.  Certified tables are returned
    gcd-normalized, one per scalar class, sorted by their canonical
    keys, each with its entries in that sorted order.  A module
    outside the catalogue can have a certified table in the box that
    is not listed.

    The region tables are listed as placements of dense shapes: each
    table of _dense_shapes(k) with its columns a and rows b sent to
    cols[a] and rows[b], for k of the B1 + 1 table columns and k of
    the B2 + 1 rows.  These are exactly the certified region tables
    of the box, those the full walk (the tests' pruned_regions(B1,
    B2)) yields:
    - Stretching.  By _table_column, table column c is empty exactly
      when region columns c - 1 and c are equal (None outside the
      grid): its Euler characteristic at (c, b) is f(b) - f(b - 1),
      f(b) the cell count of column c minus that of column c - 1 at
      row b, which vanishes for all b only for equal columns, and for
      those the cells (c - 1, l) and (c, u - 1) that beta_0 and
      beta_2 need outside lie inside.
      Deleting a repeated region column keeps the starts of up(S) and
      of up(S) minus S nonincreasing, so it leaves a region, whose
      table loses column c, each table column depending only on its
      two region columns; repeating one inverts that.  Rows follow by
      transposing.  So deleting the empty table columns and rows maps
      the box's region tables onto dense ones, and inserting them
      inverts the map.  Both keep the vertices' column and row groups,
      so the certificate's graph is unchanged either way, and every
      region has finite length.
    - Dense means nonempty columns.  Every column and row of a
      certified table holds two vertices, so k nonempty columns hold
      2k vertices in k rows: a table _dense_shapes(k) yields uses all
      k rows of box k - 1 too, and 2 <= k <= min(B1, B2) + 1.
    - Distinct tables.  A placed table gives back its column set, its
      row set and, deleting the empty ones, its shape, so placements
      are distinct.
    - Sorted keys.  Increasing maps keep the (i, (a, b)) order, so no
      placed key is re-sorted.
    A seed is listed when its bidegrees lie in the box.  Every key is
    a table's sorted entries, and no two candidates share one, so the
    keys are listed without a gcd or a dedup:
    - Every count of a region table is 1.  By _table_column a count
      above 1 can only be beta_1 = 2 at (a, b), with region column
      a = [l, b) ending where column a - 1 = [b, u') starts.  Then
      beta_0 sits at (a, l) and beta_2 at (a, u'), three rows
      l < b < u' in one table column, which _step cuts.  So the gcd
      is 1, as it is for the stored seeds.
    - Distinct regions give distinct tables.  A table fixes its
      K-polynomial, and the K-polynomial divided by (1 - s1)(1 - s2)
      is the region's Hilbert series, whose coefficients are 1 on the
      region and 0 off it.  Proportional 0/1 series are equal.
    - The heart's table is no region table.  A region table with
      beta_0 at alpha + (1, 0) and alpha + (0, 1) has beta_1 at
      alpha + (1, 1): there left and below lie in the region and the
      corner alpha does not (beta_0 at alpha + (1, 0) needs it
      outside), so r2 = 0, r1 <= dim at alpha + (1, 1) <= 1, and
      beta_1 = 2 - r1 - r2 >= 1.  The heart has beta_0 at (1, 0) and
      (0, 1) and no beta_1 at (1, 1).
    - The dual's table is no region table either.  The dual of a
      region module is a region module (reflect the order-convex
      region in its hull), and the dual of the heart's dual has the
      heart's table.
    box_ray_codes sorts the keys once, as int codes, and each key is
    in the table's normal form, so box_rays builds the rays from them
    unchecked.
    """
    return box_rays(bound, max_box)[0]


def box_rays(bound, max_box=DEFAULT_MAX_BOX):
    """(rays, swap classes): enumerate_box_rays(bound, max_box) and
    count_up_to_swap of it, that is, box_ray_codes decoded."""
    codes, entries, swaps = box_ray_codes(bound, max_box)
    decode = entries.__getitem__
    return ([BigradedBettiTable._trusted(dict(map(decode, key)))
             for key in codes], swaps)


def box_ray_codes(bound, max_box=DEFAULT_MAX_BOX):
    """(codes, entries, swap classes) of the box from one pass over the
    dense shapes: codes the rays' sorted keys as int-code tuples, in
    the order of enumerate_box_rays, and entries[c] the one shared
    entry ((i, (a, b)), 1) of code c.

    The swap classes are counted off the placements.  Swapping x and
    y maps a region module to a region module and keeps the
    certificate, whose two valencies trade places, so the transpose
    S' of a dense shape S is a dense shape of the same k, and the
    mirror of S placed at columns C and rows R is S' placed at columns
    R and rows C.  Placements give distinct tables, so that mirror is
    listed exactly when R lies in [0, B1] and C in [0, B2], that is,
    both in [0, m] with m = min(B1, B2); it is the placement itself
    exactly when S' = S and C = R.  Each stored seed table is its own
    mirror, and a region table's mirror is a region table, never a
    seed.  Mirroring is an involution, so of N listed rays, M of them
    with their mirror listed and F their own mirror, the classes are
    the N - M rays without a listed mirror, (M - F) / 2 pairs and the F
    fixed rays: N - (M - F) / 2.  Over the placements
    M = sum_k s_k C(m + 1, k)^2 and F = sum_k f_k C(m + 1, k), with
    s_k the dense shapes for k and f_k the self-transpose ones; a
    listed seed adds 1 to both and drops out.  count_up_to_swap, which
    takes any tables, is the second route in the tests.

    The entry ((i, (a, b)), 1) has code (i (B1 + 1) + a) (B2 + 1) + b,
    increasing in (i, a, b) over the box, and every count is 1, so code
    tuples compare as the entry tuples do, prefixes included, and sort
    in the same order.
    """
    b1, b2 = integral_bidegree(bound, "box")
    max_box = integral(max_box, "max_box")
    if max_box < 0:
        raise ValueError(
            f"max_box must be a nonnegative integer, got {max_box}")
    if b1 < 0 or b2 < 0:
        raise ValueError("box corners must be nonnegative")
    if b1 > max_box or b2 > max_box:
        raise BoundTooLarge(
            f"box {bound} exceeds the guard {max_box}; raise --max-box "
            "if you mean it")

    width, height = b1 + 1, b2 + 1
    # code[i][x][y] is the code of ((i, (x, y)), 1) and entry[c] the
    # entry of code c.
    code = [[list(range((i * width + x) * height,
                        (i * width + x + 1) * height))
             for x in range(width)] for i in range(3)]
    entry = [((i, (x, y)), 1) for i in range(3) for x in range(width)
             for y in range(height)]
    m = min(b1, b2)
    keys = []
    mirrored = fixed = 0
    for k in range(2, m + 2):
        shapes = list(_dense_shapes(k))
        for cols in combinations(range(width), k):
            for rows in combinations(range(height), k):
                keys += [tuple([code[i][cols[a]][rows[b]]
                                for i, a, b in shape]) for shape in shapes]
        square = comb(m + 1, k)
        mirrored += len(shapes) * square * square
        fixed += square * sum(
            shape == sorted([(i, b, a) for i, a, b in shape])
            for shape in shapes)
    keys += [tuple([code[i][a][b] for (i, (a, b)), _ in key])
             for key in SEED_KEYS
             if all(a <= b1 and b <= b2 for (_, (a, b)), _ in key)]
    keys.sort()
    return keys, entry, len(keys) - (mirrored - fixed) // 2

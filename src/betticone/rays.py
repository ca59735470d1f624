"""Enumeration of certified extremal rays of the bigraded cone whose
Betti tables fit a degree box.

A finite length monomial quotient I/J has one-dimensional pieces on
the staircase region I minus J, and its table has support in the box
[0, B1] x [0, B2] exactly when the region lies in the grid
[0, B1) x [0, B2).  The candidates are those regions, plus the tables
of a small catalogue of presentation seeds that no monomial quotient
reaches, stored as data.  The listing keeps the regions whose tables
pass the valency certificate of the bigraded layer, K-polynomial test
included, each a distinct ray, and no seed table is a region table
(see enumerate_box_rays).

A region S = I minus J, J inside I monomial ideals, is an
order-convex set of exponent pairs, given by its columns, each None
(empty) or an interval [l, u) for the cells (a, l) .. (a, u - 1).
With p and q the column starts of up(S) and of up(S) minus S, both
at the top before the first cell, a column may be empty, which keeps
p and sets q to p, or an interval [l, u) with l <= p (else up(S)'s
cell (a, p) would sit below S outside it) and u <= q (up(S) minus S
is closed upward), which sets p to l and q to u.  So l and u never
rise from one column to the next.

Corner count.  Every piece of a region module is one-dimensional with
identity multiplications, so its Koszul homology at (a, b) depends
only on which of the cells (a, b), (a - 1, b), (a, b - 1) and
(a - 1, b - 1) lie in the region: table column a depends only on
region columns a - 1 and a.  For a region column [l, u) at a, beta_0
sits at (a, l) when (a - 1, l) is outside, beta_2 at (a + 1, u) when
(a + 1, u - 1) is outside, and beta_1 follows from the Euler
characteristic beta_0 - beta_1 + beta_2 = here - left - below +
corner, which, as a function of b, is +1 at l and -1 at u for column
a and the reverse for column a - 1.  Between region columns P and C
(None outside the grid) table column a therefore holds, every count 1
unless said:
- nothing when P = C (the Euler characteristic vanishes, and the
  cells beta_0 and beta_2 need outside lie inside);
- beta_0 at l and beta_1 at u when P is None and C = [l, u);
- beta_1 at l and beta_2 at u when P = [l, u) and C is None;
- beta_0 at l' and beta_1 at l when C = [l', u) lowers P = [l, u)'s
  start to l' < l;
- beta_1 at u' and beta_2 at u when C = [l, u') lowers P's end to
  l < u' < u;
- beta_0 at l', beta_1 at l and at u' (one beta_1 = 2 when l = u')
  and beta_2 at u when C = [l', u') lowers both, l' < l and u' < u.
No vertex mixes homological degrees.  The tests read every table off
this way (_table_column in tests/test_bigraded.py) and match the
Koszul oracle on every region of box (4,4).

Dense shapes.  The listing places the dense shapes of each k: the
certified region tables in box (k - 1, k - 1) that use all k table
columns (see enumerate_box_rays).  They are exactly the tables of the
regions of k - 1 nonempty columns [l_a, u_a) with u_0 = k - 1 in
which each later column lowers exactly one endpoint of the one before
to a row not used yet: l to some l' < l, or u to some unused u' with
l < u' < u.  A certified table holds 0 or 2 vertices in each column
and row, and its graph is one cycle.  So, by the corner count:
- No region column is empty.  An empty first or last column, or two
  equal neighbours, leave a table column empty.  An empty column c
  between nonempty ones has u_{c+1} <= p = l_{c-1}, so the table
  columns up to c, whose vertices lie in rows l_a or u_a >= l_{c-1}
  for a < c, and those after c, in rows <= u_{c+1}, share at most the
  one row l_{c-1}, that is, one row edge.  Both parts hold vertices,
  and a cycle through both crosses between them an even number of
  times, at least twice, along row edges only, so the graph is
  disconnected.
- Each step lowers exactly one endpoint: moving neither leaves a
  table column empty, and moving both puts the rows l' < l < u, three
  of them, into one table column.
- So table column 0 joins rows l_0 and u_0, each step joins the
  moving endpoint's old row to its new one, and the last table column
  joins the last l and u.  In order from l_0 down the l's, across to
  the last u and up the u's, these k edges close one walk through k
  rows counted with repeats (two to start, one per step); each row it
  visits gets two vertices per visit.  The graph is one cycle with two
  vertices in every row exactly when those k rows are distinct, which
  is what "not used yet" says, and a repeated row holds four.
  Then the k rows are all of [0, k - 1], and u_0, the highest, is
  k - 1.
Conversely each such sequence is a region (l and u never rise, and
l < u) whose graph is that one cycle of single-degree vertices, and a
region has finite length, so it certifies.  The tests check this
against their walk of every certified region of the box for k up to
6 (8 in the slow tier), and count Cat(k - 1) dense shapes, of which
C(k - 1, floor((k - 1) / 2)) are their own transpose, checked to
k = 10; neither count is proven here.
"""

from itertools import combinations
from math import comb

from .bigraded import BigradedBettiTable, integral, integral_bidegree
from .errors import BoundTooLarge
from .module_engine import PresentationMatrix

DEFAULT_MAX_BOX = 6


def _dense_shapes(k):
    """The dense shapes of k, each as its sorted (i, a, b) triples, each
    once, lazily, in the lexicographic order of their region columns.

    grow(a, low, high) places region column a after column
    a - 1 = [low, high), and table column a with it, in closed form
    (module docstring); column 0 is the step that lowers the start of
    the empty [k - 1, k - 1), and a = k - 1 places the last table
    column.
    The steps are tried in (low, high) order: l to each l' < l, all
    unused (every used row is an l or a u, at least l), then u to the
    highest unused row below u, if that lies above l.  A u step past an
    unused row would strand it, as u never returns above its new value
    and l stays below, so it would leave a row unused.  So the rows at
    or above u are used, and while a row is unused there is a step: l
    can fall if l > 0, and else the unused row lies in (l, u).  The
    unused rows number the steps left, so every call yields a shape:
    the work is linear in the output.  The triples of each degree i
    come in column order, so the concatenation is sorted.
    """
    used = [False] * (k - 1) + [True]
    zeros, ones, twos = [], [], []

    def grow(a, low, high):
        if a == k - 1:
            yield zeros + ones + [(1, a, low)] + twos + [(2, a, high)]
            return
        for row in range(low):
            used[row] = True
            zeros.append((0, a, row))
            ones.append((1, a, low))
            yield from grow(a + 1, row, high)
            zeros.pop()
            ones.pop()
            used[row] = False
        row = high - 1
        while row > low and used[row]:
            row -= 1
        if row > low:
            used[row] = True
            ones.append((1, a, row))
            twos.append((2, a, high))
            yield from grow(a + 1, low, row)
            ones.pop()
            twos.pop()
            used[row] = False

    yield from grow(0, k - 1, k - 1)


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
    - Stretching.  By the corner count (module docstring), table
      column c is empty exactly when region columns c - 1 and c are
      equal (None outside the grid).  Deleting a repeated region
      column keeps the starts of up(S) and of up(S) minus S
      nonincreasing, so it leaves a region, whose table loses column
      c, each table column depending only on its two region columns;
      repeating one inverts that.  Rows follow by transposing.  So deleting the empty table columns and rows maps
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
    - Every count of a region table is 1.  By the corner count a
      count above 1 can only be beta_1 = 2 at (a, l), with region
      column a = [l', l) lowering both endpoints of column
      a - 1 = [l, u).  Then beta_0 sits at (a, l') and beta_2 at
      (a, u), three rows l' < l < u in one table column, which the
      certificate refuses.  So the gcd is 1, as it is for the stored
      seeds.
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

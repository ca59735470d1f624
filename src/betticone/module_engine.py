"""Finite length bigraded modules over T = k[x, y] presented
concretely, and a brute force Betti table oracle for them.

A module is stored one bidegree at a time: the dimension of each
graded piece together with the two multiplication maps as exact
rational matrices.  Betti numbers then come out of the Koszul complex

    M(-1,-1) --(y, -x)--> M(-1,0) + M(0,-1) --(x  y)--> M

restricted to a single bidegree, so no Groebner machinery is needed.
Module maps hold Fraction entries; _linalg reduces int rows only, so
rationals are cleared here, once where they enter: a presentation's
scalar grid by columns, once, in its constructor (int_columns, which
generic_rank and both presentation scans read), and each distinct
stored map once per Betti table, by rows and, when two maps must be
set side by side, by columns.  The ranks involved are the same for any
field of characteristic zero.
"""

from fractions import Fraction
from math import lcm

from ._linalg import insert_row, integer_rows, rank, transpose
from .bigraded import (BigradedBettiTable, integral, integral_bidegree,
                       json_bidegree, json_bidegrees, json_list,
                       json_rational)
from .errors import InternalInconsistency, NotContained, NotFiniteLength

ZERO = Fraction(0)
ONE = Fraction(1)
_X = (1, 0)
_Y = (0, 1)


def _shift(alpha, step):
    return (alpha[0] + step[0], alpha[1] + step[1])


def _below(degrees, alpha):
    """Indices of the degrees that are <= alpha coordinatewise."""
    return [k for k, d in enumerate(degrees)
            if d[0] <= alpha[0] and d[1] <= alpha[1]]


def _compose(a, b, ncols):
    """Matrix product a b; ncols is b's width, which an empty b lacks."""
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x), ZERO)
             for j in range(ncols)] for row in a]


class FiniteModule:
    """A finite length bigraded T-module given by components and maps.

    dims maps a bidegree to the dimension of that graded piece (zero
    pieces are dropped).  mult_x[alpha] is the matrix of multiplication
    by x from the piece at alpha to the piece at alpha + (1,0), columns
    indexed by the source; missing entries mean the zero map.  The
    constructor checks every shape, [] into a zero piece included, with
    the matrix and each row a list or tuple (a string is no row), and
    that the two multiplications commute; it stores a map only between
    nonzero pieces.
    """

    __slots__ = ("dims", "mult_x", "mult_y")

    def __init__(self, dims, mult_x, mult_y):
        self.dims = {}
        for alpha, d in dict(dims).items():
            d = integral(d, "dimension")
            if d < 0:
                raise ValueError(f"negative dimension at {alpha}")
            alpha = integral_bidegree(alpha)
            if d:
                self.dims[alpha] = d
        self.mult_x = self._check_maps(mult_x, _X, "x")
        self.mult_y = self._check_maps(mult_y, _Y, "y")
        self._check_commuting()

    @classmethod
    def _trusted(cls, dims, mult_x, mult_y):
        """A module over fields already in the form __init__ produces:
        dims maps int bidegrees to positive ints, and each map holds a
        Fraction matrix of the right shape only where source and target
        are nonzero, the two multiplications commuting.  It skips every
        check, so only library code whose module has that form by
        construction calls it, and says why at the call."""
        module = cls.__new__(cls)
        module.dims, module.mult_x, module.mult_y = dims, mult_x, mult_y
        return module

    def _check_maps(self, maps, step, name):
        clean = {}
        for alpha, matrix in dict(maps).items():
            alpha = integral_bidegree(alpha)
            src = self.dim(alpha)
            dst = self.dim(_shift(alpha, step))
            if not (isinstance(matrix, (list, tuple)) and len(matrix) == dst
                    and all(isinstance(r, (list, tuple)) and len(r) == src
                            for r in matrix)):
                raise ValueError(
                    f"mult_{name} at {alpha} must be {dst} x {src}")
            if src and dst:
                clean[alpha] = [[v if type(v) is Fraction else Fraction(v)
                                 for v in row] for row in matrix]
        return clean

    def _check_commuting(self):
        for alpha in self.dims:
            top = _shift(alpha, (1, 1))
            if self.dim(top) == 0:
                continue
            d0 = self.dim(alpha)
            via_x = _compose(self.map_y(_shift(alpha, _X)),
                             self.map_x(alpha), d0)
            via_y = _compose(self.map_x(_shift(alpha, _Y)),
                             self.map_y(alpha), d0)
            if via_x != via_y:
                raise ValueError(
                    f"multiplication maps do not commute at {alpha}")

    def dim(self, alpha):
        return self.dims.get(tuple(alpha), 0)

    def map_x(self, alpha):
        return self._materialize(self.mult_x, alpha, _X)

    def map_y(self, alpha):
        return self._materialize(self.mult_y, alpha, _Y)

    def _materialize(self, maps, alpha, step):
        """Fresh rows: one stored map may serve many bidegrees, so a
        caller that writes into the result must not reach it."""
        alpha = tuple(alpha)
        if alpha in maps:
            return [list(row) for row in maps[alpha]]
        dst = self.dim(_shift(alpha, step))
        src = self.dim(alpha)
        return [[ZERO] * src for _ in range(dst)]

    def total_dim(self):
        return sum(self.dims.values())

    def hull(self):
        """Smallest box ((alo, blo), (ahi, bhi)) containing the support."""
        if not self.dims:
            return ((0, 0), (0, 0))
        avals = [a for a, _ in self.dims]
        bvals = [b for _, b in self.dims]
        return ((min(avals), min(bvals)), (max(avals), max(bvals)))


class MonomialPair:
    """Monomial ideals J inside I of k[x, y], each by exponent pairs.

    Generating sets are reduced to the minimal ones (drop any exponent
    pair that is coordinatewise above another).  Containment J <= I is
    checked generator by generator.
    """

    __slots__ = ("gens_outer", "gens_inner")

    def __init__(self, gens_outer, gens_inner):
        self.gens_outer = _minimal_gens(gens_outer, "outer ideal")
        self.gens_inner = _minimal_gens(gens_inner, "inner ideal")
        for g in self.gens_inner:
            if not _below(self.gens_outer, g):
                raise NotContained(
                    f"inner generator {g} is not a multiple of any outer "
                    "generator")

    def __repr__(self):
        return (f"MonomialPair({list(self.gens_outer)}, "
                f"{list(self.gens_inner)})")


def _minimal_gens(gens, label):
    pts = sorted({integral_bidegree(g, f"{label} exponent") for g in gens})
    if not pts:
        raise ValueError(f"{label} needs at least one generator")
    for a, b in pts:
        if a < 0 or b < 0:
            raise ValueError(f"{label} has a negative exponent ({a}, {b})")
    return tuple(p for p in pts if len(_below(pts, p)) == 1)


def monomial_quotient(pair):
    """The module I/J of a monomial pair, as a FiniteModule.

    The graded pieces sit on the staircase region between the two
    ideals, every nonzero piece is one dimensional, and multiplication
    is the identity wherever source and target both lie in the region.
    Column a of the region is [low, high), the lowest b of an outer
    and of an inner generator at or left of a.  Both change only at
    generator a-coordinates, so the region is walked one interval per
    step of their grid.  It is infinite exactly when a column has a low
    but no high, or the last step's column (it repeats to the right
    forever, so it is walked with no width) is nonempty.

    The module is built unchecked: its pieces are one-dimensional at
    int bidegrees, a map is the 1 x 1 identity exactly where source
    and target lie in the region, and the two multiplications commute
    because both ways round from a cell to its (1,1) neighbour are the
    identity (the region is order-convex, so both middle cells lie in
    it whenever the two ends do).
    """
    go, gi = pair.gens_outer, pair.gens_inner
    grid = sorted({a for a, _ in go + gi})
    region = []
    for a0, a1 in zip(grid, grid[1:] + grid[-1:]):
        low = min((b for a, b in go if a <= a0), default=None)
        high = min((b for a, b in gi if a <= a0), default=None)
        if low is None or (high is not None and low >= high):
            continue
        if high is None or a1 == a0:
            raise NotFiniteLength(
                f"quotient of {list(go)} by {list(gi)} has unbounded "
                "support")
        region += [(a, b) for a in range(a0, a1) for b in range(low, high)]
    inside = set(region)
    one = [[ONE]]
    mult_x = {p: one for p in region if _shift(p, _X) in inside}
    mult_y = {p: one for p in region if _shift(p, _Y) in inside}
    return FiniteModule._trusted(dict.fromkeys(region, 1), mult_x, mult_y)


class PresentationMatrix:
    """A bigraded matrix between free modules F1 -> F0 over k[x, y].

    Row r carries the generator degree row_degrees[r] of F0, column c
    the degree col_degrees[c] of F1.  Bihomogeneity forces the (r, c)
    entry to be a scalar times the single monomial of exponent
    col - row, so each entry is given as a list of (coefficient,
    exponent pair) terms that must collapse to at most one term of
    exactly that exponent.

    scalars[r][c] is the Fraction coefficient of entry (r, c), and
    int_columns[c] is column c of scalars times the lcm of its
    denominators, a list of ints (empty with no rows).  Rationals are
    cleared there once, in the constructor: scaling a column changes
    neither the column space nor the rank of any block of rows, so
    every rank the scans and generic_rank take reads those columns.
    Both fields are read-only: int_columns is derived from scalars
    once, so a write into either after construction is not seen by
    the other.
    """

    __slots__ = ("row_degrees", "col_degrees", "scalars", "int_columns")

    def __init__(self, rows, cols, entries):
        self.row_degrees = tuple(integral_bidegree(d, "row degree")
                                 for d in rows)
        self.col_degrees = tuple(integral_bidegree(d, "column degree")
                                 for d in cols)
        if len(entries) != len(self.row_degrees):
            raise ValueError("one entry row per row degree is required")
        width = len(self.col_degrees)
        columns = [[0] * len(self.row_degrees) for _ in range(width)]
        dens = [1] * width
        scalars = []
        for r, row in enumerate(entries):
            if len(row) != width:
                raise ValueError(f"entry row {r} has the wrong length")
            out = []
            for c, terms in enumerate(row):
                if isinstance(terms, (list, tuple)) and not terms:
                    out.append(ZERO)
                    continue
                merged = {}
                for coeff, expo in terms:
                    expo = integral_bidegree(expo, "entry exponent")
                    coeff = Fraction(coeff)
                    merged[expo] = (merged[expo] + coeff if expo in merged
                                    else coeff)
                live = [e for e, v in merged.items() if v]
                if not live:
                    out.append(ZERO)
                    continue
                forced = self.entry_exponent(r, c)
                if live != [forced] or min(forced) < 0:
                    raise ValueError(
                        f"entry ({r}, {c}) must be a scalar multiple of "
                        f"the monomial with exponent {forced}")
                value = merged[forced]
                out.append(value)
                columns[c][r] = value.numerator
                if value.denominator != 1:
                    dens[c] = lcm(dens[c], value.denominator)
            scalars.append(out)
        for c, d in enumerate(dens):
            if d != 1:
                columns[c] = [row[c].numerator * (d // row[c].denominator)
                              for row in scalars]
        self.scalars = scalars
        self.int_columns = columns

    def entry_exponent(self, r, c):
        return (self.col_degrees[c][0] - self.row_degrees[r][0],
                self.col_degrees[c][1] - self.row_degrees[r][1])


def generic_rank(pm):
    """Rank of the presentation matrix over the fraction field k(x, y).

    Writing m^e for the monomial x^e0 y^e1, entry (r, c) is
    s_rc * m^(col_c - row_r), so the matrix equals D_rows^-1 * S * D_cols
    where S is the scalar grid and D_rows, D_cols are the diagonal
    matrices of the monomials m^row_r and m^col_c.  Both diagonals are
    invertible over k(x, y), hence the rank is the rank of S, which is
    the rank of its transpose: of the int columns.
    """
    return rank(pm.int_columns)


def _by_b(degrees):
    """(b, index, a) for each degree (a, b), sorted by b and then by
    index: the order a scan walks any a-line in, so each scan call sorts
    its rows and columns once and filters them per line."""
    return sorted((b, k, a) for k, (a, b) in enumerate(degrees))


def _column_spans(pm, order, a, b_grid):
    """The scan both presentation scans share, along one grid line.

    For each b of b_grid, upward, yields the number of columns of degree
    <= (a, b) and their span: columns are pm.int_columns, inserted with
    insert_row in the order _by_b(pm.col_degrees) gives as b passes
    their degree, so each is inserted once per line and the span, keyed
    by pivot row, is updated in place.  It is in global row coordinates:
    a nonzero scalar at (r, c) needs row r <= column c, so these
    columns are zero off the rows of degree <= (a, b), and the span is
    the one of the block those rows and columns cut out.
    """
    columns = pm.int_columns
    line = [(b, columns[c]) for b, c, ca in order if ca <= a]
    basis = {}
    inserted = 0
    for b in b_grid:
        while inserted < len(line) and line[inserted][0] <= b:
            insert_row(basis, line[inserted][1])
            inserted += 1
        yield inserted, basis


def coker_presentation(pm):
    """Cokernel of a presentation matrix as a FiniteModule.

    In each bidegree the free pieces are spanned by one monomial per
    surviving row or column, the matrix of the map is just the scalar
    grid restricted to those indices, and the cokernel basis is the set
    of surviving rows missed by the column space pivots.  The column
    space is _column_spans' reduced span: its pivot rows and its pivot
    vectors up to scale are those of the block's reduced row echelon
    form, which is unique, and the block's columns vanish off the
    surviving rows.  The vector led by row r is nonzero at r and zero
    at the other pivot rows.  So a free row is its own cokernel basis
    vector, and a pivot row r is, modulo the column space, minus that
    vector over its entry at r, read on the free rows.  The x and y
    maps are read off the target's vectors, in global row ids.

    The degrees fix the scan box.  Let lo be the coordinatewise minimum
    of the row degrees and D the coordinatewise maximum of all row and
    column degrees.  Below lo no row survives, so the cokernel is zero
    there.  For b fixed and a >= D_a no row or column survives at
    (a, b) that did not survive at (D_a, b), so the piece at (a, b) is
    the piece at (D_a, b), and likewise in b.  The cokernel therefore
    has finite length exactly when it vanishes on the top layer
    {a = D_a} or {b = D_b} of [lo, D], and then its whole support lies
    in [lo, D]; a nonzero piece on that layer raises NotFiniteLength.

    The distinct row and column coordinates cut [lo, D] into grid
    cells.  The lower corner of the cell holding alpha takes, on each
    axis, the largest degree coordinate at most alpha's, so a degree is
    <= alpha exactly when it is <= that corner: every bidegree of a
    cell has the corner's surviving rows and columns.  So the scan
    walks the corners, line by line in a and upward in b, counting
    the surviving rows as it goes; a cell is zero when the span has a
    pivot in each of them.  It raises at the first nonzero cell on the top
    layer (its corner is the first nonzero bidegree there), expands
    only nonzero cells into pieces, and reads the map between two
    cells off once.

    Maps are shared.  Every pair of bidegrees in the same two cells
    stores the one map read off for them, and every pair of cells with
    the same free rows stores one identity per size (_cell_map): a free
    row that stays free maps to its own unit vector.  No code mutates
    a stored map; each consumer builds new lists from it, so a shared
    map stays right for every bidegree that stores it.

    The module is built unchecked: every piece has its cell's free
    rows as basis, so its dimension is a positive int at an int
    bidegree; a map is stored only between two pieces, as a matrix of
    Fraction entries of shape target free rows by source free rows; and
    both multiplications are induced by the inclusions of free modules,
    which commute, so their maps on the quotient commute.
    """
    if not pm.row_degrees:
        return FiniteModule._trusted({}, {}, {})
    degrees = pm.row_degrees + pm.col_degrees
    lo = (min(a for a, _ in pm.row_degrees),
          min(b for _, b in pm.row_degrees))
    a_grid = sorted({a for a, _ in degrees if a >= lo[0]})
    b_grid = sorted({b for _, b in degrees if b >= lo[1]})
    top = (a_grid[-1], b_grid[-1])
    row_order = _by_b(pm.row_degrees)
    col_order = _by_b(pm.col_degrees)
    cells = {}
    pieces = []
    for a0, a1 in zip(a_grid, a_grid[1:] + [None]):
        rows = [(b, r) for b, r, a in row_order if a <= a0]
        surviving = 0
        spans = _column_spans(pm, col_order, a0, b_grid)
        for b0, b1, (_, basis) in zip(b_grid, b_grid[1:] + [None], spans):
            while surviving < len(rows) and rows[surviving][0] <= b0:
                surviving += 1
            if surviving == len(basis):
                continue
            corner = (a0, b0)
            if a1 is None or b1 is None:
                raise NotFiniteLength(
                    f"cokernel is nonzero at {corner} on the top layer of "
                    f"[{lo}, {top}], so its support is unbounded")
            free = sorted(r for _, r in rows[:surviving] if r not in basis)
            cells[corner] = (free, dict(basis))
            pieces += [((a, b), corner) for a in range(a0, a1)
                       for b in range(b0, b1)]
    pieces = dict(sorted(pieces))
    dims = {alpha: len(cells[corner][0]) for alpha, corner in pieces.items()}
    maps = {}
    identities = {}
    mult_x = {}
    mult_y = {}
    piece = pieces.get
    for alpha, corner in pieces.items():
        a, b = alpha
        for target, store in ((piece((a + 1, b)), mult_x),
                              (piece((a, b + 1)), mult_y)):
            if target is None:
                continue
            m = maps.get((corner, target))
            if m is None:
                m = maps[corner, target] = _cell_map(
                    cells[corner][0], cells[target], identities)
            store[alpha] = m
    return FiniteModule._trusted(dims, mult_x, mult_y)


def _cell_map(free, target, identities):
    """Matrix of the inclusion of a cell's cokernel basis, its free
    rows, into the target cell's cokernel, in its free rows.

    Every identity it returns is the one identities holds for its size,
    so all pairs of cells of a call share it.  A free row that stays
    free maps to its unit vector, so a target with the same free rows
    gets the identity at once.  A square map read off pivot vectors
    that equals the identity is swapped for it too; the identity is
    symmetric, so comparing the columns compares the matrix."""
    t_free, t_lead = target
    n = len(free)
    identity = None
    if n == len(t_free):
        identity = identities.get(n)
        if identity is None:
            identity = identities[n] = [[ONE if i == j else ZERO
                                         for j in range(n)]
                                        for i in range(n)]
        if free == t_free:
            return identity
    columns = []
    for r in free:
        vector = t_lead.get(r)
        if vector is None:
            columns.append([ONE if f == r else ZERO for f in t_free])
        else:
            columns.append([Fraction(-vector[f], vector[r]) for f in t_free])
    if columns == identity:
        return identity
    return transpose(columns)


def _by_identity(mod):
    """The module's distinct stored maps, keyed by identity.  A key is
    valid while the module holds the map, so it is used within a call."""
    return {id(m): m for maps in (mod.mult_x, mod.mult_y)
            for m in maps.values()}


def bigraded_betti(mod):
    """Betti table of a finite module from Koszul homology.

    In bidegree alpha the complex is
        M(a-1, b-1) -> M(a-1, b) + M(a, b-1) -> M(a, b)
    with maps (y, -x) and (x, y); the three Betti numbers there are the
    dimensions of its homology, which elementary rank counting turns
    into the formulas below.  Only the support shifted by (0,0), (1,0),
    (0,1) or (1,1) meets a nonzero piece, and negating the x rows of
    the first map keeps its rank.

    Each distinct stored map is reduced once per call.  Distinct is by
    identity: a presentation's cokernel shares one map per pair of
    cells and one identity per size, a monomial quotient one 1 x 1
    identity, and the dual one transpose of each (coker_presentation
    gives the proof); no code mutates a stored map, so an object's
    ranks hold at every bidegree that stores it.  r2 is the rank of y
    over x stacked, r1 of x and y side by side.  A zero piece at the
    corner (r2) or here (r1) stores neither map, so the rank is 0; a
    missing map is zero, so the rank is the other map's; and one
    object twice has the rank of that map, as [m; -m] and [m | m] have
    the row and column space of m.  Two distinct maps have a joint rank
    at least the larger of their ranks and at most the common width
    (r2) or height (r1), so a block of full rank there settles it.
    Otherwise r2 stacks the two maps' int rows, each row cleared of
    rationals on its own, and r1 stacks their int columns, since
    [x | y] has the rank of its transpose.  It stays the Koszul route:
    it reads no corner count and no mirrored table.
    """
    rows = {key: integer_rows(m) for key, m in _by_identity(mod).items()}
    ranks = {key: rank(r) for key, r in rows.items()}
    columns = {}

    def joint_rank(first, second, bound, side_by_side):
        """Rank of two distinct stored maps stacked, or side by side,
        bound being their common width or height."""
        found = max(ranks[id(first)], ranks[id(second)])
        if found == bound:
            return found
        if not side_by_side:
            return rank(rows[id(first)] + rows[id(second)])
        for m in (first, second):
            if id(m) not in columns:
                columns[id(m)] = integer_rows(transpose(m))
        return rank(columns[id(first)] + columns[id(second)])

    dim, x_at, y_at = mod.dims.get, mod.mult_x.get, mod.mult_y.get
    entries = {}
    support = set(mod.dims)
    support.update([(a + 1, b) for a, b in mod.dims])
    support.update([(a, b + 1) for a, b in mod.dims])
    support.update([(a + 1, b + 1) for a, b in mod.dims])
    for alpha in sorted(support):
        a, b = alpha
        corner = (a - 1, b - 1)
        left = (a - 1, b)
        below = (a, b - 1)
        d_corner = dim(corner, 0)
        d_left = dim(left, 0)
        d_below = dim(below, 0)
        d_here = dim(alpha, 0)
        r2 = r1 = 0
        if d_corner:
            first, second = y_at(corner), x_at(corner)
            if first is None or first is second:
                if second is not None:
                    r2 = ranks[id(second)]
            elif second is None:
                r2 = ranks[id(first)]
            else:
                r2 = joint_rank(first, second, d_corner, False)
        if d_here:
            first, second = x_at(left), y_at(below)
            if first is None or first is second:
                if second is not None:
                    r1 = ranks[id(second)]
            elif second is None:
                r1 = ranks[id(first)]
            else:
                r1 = joint_rank(first, second, d_here, True)
        b2 = d_corner - r2
        b1 = d_left + d_below - r1 - r2
        b0 = d_here - r1
        if b1 < 0:
            raise InternalInconsistency(
                f"negative middle homology at {alpha}")
        for i, value in ((0, b0), (1, b1), (2, b2)):
            if value:
                entries[(i, alpha)] = value
    # Each count is a dimension minus a rank, so a positive int once
    # zeros are dropped, with i in {0, 1, 2} at the int bidegrees the
    # module's dims hold shifted by (0,0), (1,0), (0,1) or (1,1).
    return BigradedBettiTable._trusted(entries)


def kernel_generator_degrees(pm):
    """Degrees (with multiplicity) of minimal kernel generators, sorted.

    The kernel K of a map of free modules over k[x, y] is itself free,
    of rank (columns - generic rank).

    Generators are counted from kernel dimensions alone.  Write h(alpha)
    for dim K_alpha: the columns of degree <= alpha minus the rank of
    the map there.  K sits in the free module F1, so x and y act
    injectively on K, and xK meets yK in xyK (x a = y b forces a = y c,
    and phi(c) = 0 because F0 is torsion-free).  The new generators at
    alpha therefore number h(alpha) - h(alpha - (1,0)) - h(alpha - (0,1))
    + h(alpha - (1,1)).

    The column degrees fix the scan box [lo, C], lo and C being their
    coordinatewise minimum and maximum.  A nonzero scalar at (r, c)
    needs row r <= column c, so every nonzero entry of a surviving
    column lies in a surviving row and h(alpha) depends on the
    surviving columns only: it is zero unless alpha >= lo and constant
    in a once a >= C_a (likewise in b).  So no generator lies outside
    [lo, C], and the counts over [lo, C] telescope to h(C), the columns
    minus the rank of the whole scalar grid, which is the generic rank:
    the rank of the int columns the scan reduces, since a matrix and its
    transpose have the same rank.  The completeness check below can thus
    only fail on an internal error.  With no columns, rank 0 means none
    is expected.

    The same argument inside [lo, C]: h only changes where a crosses a
    column a-coordinate or b a column b-coordinate.  So h is computed on
    the grid of distinct column coordinates alone, h(alpha - (1,0)) at
    a grid point is h at the grid neighbour to the left (zero past the
    first one), likewise below, and a bidegree off the grid gains no
    generator.  Since the surviving columns are zero outside the
    surviving rows, h is the number of columns _column_spans has
    inserted minus the size of their span.
    """
    expected = len(pm.col_degrees) - rank(pm.int_columns)
    if expected == 0:
        return []
    a_grid = sorted({a for a, _ in pm.col_degrees})
    b_grid = sorted({b for _, b in pm.col_degrees})
    order = _by_b(pm.col_degrees)
    h = [[0] * (len(b_grid) + 1)]
    for a in a_grid:
        h.append([0] + [inserted - len(basis) for inserted, basis
                        in _column_spans(pm, order, a, b_grid)])
    gens = []
    for i, a in enumerate(a_grid, 1):
        for j, b in enumerate(b_grid, 1):
            fresh = h[i][j] - h[i - 1][j] - h[i][j - 1] + h[i - 1][j - 1]
            if fresh:
                gens.append(((a, b), fresh))
    if sum(count for _, count in gens) != expected:
        lo, top = (a_grid[0], b_grid[0]), (a_grid[-1], b_grid[-1])
        raise InternalInconsistency(
            f"found {sum(count for _, count in gens)} of {expected} kernel "
            f"generators in [{lo}, {top}]")
    return gens


def dual_module(mod):
    """The graded dual, reflected so it is again nonnegatively graded.

    Writing c for the coordinatewise top corner of the support, the
    dual has dims'(alpha) = dims(c - alpha), and the map of the
    original from src to src + step, transposed, is the dual's from
    c - src - step; a map the original does not store is zero, and so
    stays absent.  Betti tables transform by
    beta'_{i, alpha} = beta_{2 - i, c + (1,1) - alpha}.  Each distinct
    stored map is transposed once, so the dual shares its maps where
    the original does: a cokernel's identity of each size, which
    coker_presentation shares because a free row that stays free maps
    to its unit vector, is transposed once into one identity of the
    dual.  transpose builds new lists and no code mutates a stored
    map, so the original's maps and the dual's stay apart.

    The dual is built unchecked: reflected dims, and stored maps
    between nonzero pieces transposed to the reversed shape, which
    commute as the originals do.
    """
    ca, cb = mod.hull()[1]
    flipped = {key: transpose(m) for key, m in _by_identity(mod).items()}
    dims = {(ca - a, cb - b): d for (a, b), d in mod.dims.items()}
    mult_x = {(ca - a - 1, cb - b): flipped[id(m)]
              for (a, b), m in mod.mult_x.items()}
    mult_y = {(ca - a, cb - b - 1): flipped[id(m)]
              for (a, b), m in mod.mult_y.items()}
    return FiniteModule._trusted(dims, mult_x, mult_y)


def _json_term(term):
    if not isinstance(term, (list, tuple)) or len(term) != 2:
        raise ValueError(
            f"entries terms must be [coefficient, exponent], got {term!r}")
    return (json_rational(term[0], "entries coefficient"),
            json_bidegree(term[1], "entries exponent"))


def presentation_from_json_obj(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "presentation":
        raise ValueError("expected a presentation object")
    entries = [[[_json_term(term) for term in json_list(cell, "entries")]
                for cell in json_list(row, "entries")]
               for row in json_list(obj["entries"], "entries")]
    return PresentationMatrix(json_bidegrees(obj["rows"], "rows"),
                              json_bidegrees(obj["cols"], "cols"), entries)


def module_from_json_obj(obj):
    """Build a FiniteModule from either JSON input form."""
    if not isinstance(obj, dict):
        raise ValueError("expected a module object")
    kind = obj.get("kind")
    if kind == "monomial_quotient":
        pair = MonomialPair(json_bidegrees(obj["outer"], "outer"),
                            json_bidegrees(obj["inner"], "inner"))
        return monomial_quotient(pair)
    if kind == "presentation":
        return coker_presentation(presentation_from_json_obj(obj))
    raise ValueError(f"unknown module kind {kind!r}")

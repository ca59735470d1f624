"""Exact linear algebra over the rationals: row reduction and rank.

Matrices are lists of row lists with Fraction entries.  Everything here
is dense and small: the oracle only ever sees a handful of basis
elements per bidegree, so a straightforward Gauss-Jordan with exact
pivots beats any clever sparse structure.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def rref(m):
    """Row-reduce a copy of m; returns (reduced rows, pivot column list)."""
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
        inv = ONE / rows[r][c]
        if inv != ONE:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m):
    return len(rref(m)[1])


def column_space_pivot_rows(m):
    """Coordinates (row indices) spanned by the columns of m.

    Row-reduces the transpose; the pivot columns of that reduction are
    the coordinates in which a column-space basis leads.  Used to pick
    deterministic coset representatives: the complement of these
    coordinates projects to a basis of the cokernel.
    """
    reduced, pivots = rref(transpose(m))
    basis = [reduced[i] for i in range(len(pivots))]
    return basis, pivots

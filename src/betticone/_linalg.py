"""Exact linear algebra over the rationals.

Matrices are lists of row lists with Fraction entries.  Everything here
is dense and small: the oracle only ever sees a handful of basis
elements per bidegree, so a straightforward Gauss-Jordan with exact
pivots beats any clever sparse structure.
"""

from fractions import Fraction

from .errors import InternalInconsistency

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_matrix(nrows, ncols):
    return [[ZERO] * ncols for _ in range(nrows)]


def identity_matrix(n):
    m = zero_matrix(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def rref(m):
    """Row-reduce a copy of m; returns (reduced rows, pivot column list)."""
    rows = copy_matrix(m)
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


def nullspace_basis(m, ncols=None):
    """Basis of {v : m v = 0} as a list of length-ncols vectors.

    ncols must be supplied when m has no rows (the kernel is then all
    of the ncols-dimensional space).
    """
    if not m:
        if ncols is None:
            raise InternalInconsistency("need ncols for an empty matrix")
        return [row[:] for row in identity_matrix(ncols)]
    ncols = len(m[0])
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


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


def reduce_against(v, basis, pivots):
    """Subtract basis rows (in rref form with given pivots) to clear
    the pivot coordinates of v.  Returns the reduced vector."""
    v = v[:]
    for row, p in zip(basis, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v

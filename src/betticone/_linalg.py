"""Exact linear algebra over the rationals: row reduction and rank.

Matrices are lists of row lists of rationals (int or Fraction).  Each
row is scaled once by the lcm of its denominators, and the reduction
then runs fraction-free in int: a row is only ever replaced by an
integer combination of itself and the pivot row, divided by the gcd of
its entries.  Scaling a row by a nonzero number changes neither the
rank nor the reduced row echelon form, and the rref is unique, so it
comes out exactly as a Gauss-Jordan over Fraction would give it, each
entry built once as Fraction(x, pivot).  Everything here is dense and
small: the oracle only ever sees a handful of basis elements per
bidegree, so a straightforward elimination beats any clever sparse
structure.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def integer_rows(m):
    """Each row of m times the lcm of its entries' denominators."""
    out = []
    for row in m:
        dens = [x.denominator for x in row]
        d = lcm(*dens)
        if d == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (d // q) for x, q in zip(row, dens)])
    return out


def _eliminate(rows, c, r, start):
    """Clear column c in rows[start:] (all but row r) against pivot row
    r, fraction-free, dividing each changed row by its gcd."""
    p = rows[r]
    pc = p[c]
    for i in range(start, len(rows)):
        f = rows[i][c]
        if f and i != r:
            row = [pc * a - f * b for a, b in zip(rows[i], p)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def _echelon(rows, full):
    """Pivot columns of the int rows, reduced in place; rows above a
    pivot are cleared too when full is set."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for pick in range(r, nrows):
            if rows[pick][c]:
                break
        else:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        _eliminate(rows, c, r, 0 if full else r + 1)
        pivots.append(c)
    return pivots


def rref(m):
    """Row-reduce a copy of m; returns (reduced rows, pivot column list)."""
    rows = integer_rows(m)
    pivots = _echelon(rows, full=True)
    reduced = []
    for r, row in enumerate(rows):
        if r < len(pivots):
            p = row[pivots[r]]
            row = [Fraction(x, p) if x else ZERO for x in row]
        else:
            row = [ZERO] * len(row)
        reduced.append(row)
    return reduced, pivots


def rank(m):
    return len(_echelon(integer_rows(m), full=False))


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

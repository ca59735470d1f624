"""Exact linear algebra on int rows: row reduction and rank.

Matrices are lists of row lists of ints.  A caller holding rationals
clears them once, where they enter, with integer_rows: scaling a row
by a nonzero number changes neither the rank nor the row space, so it
changes neither the pivot columns nor the reduced row echelon form.
The reduction is fraction-free: a row is only ever replaced by an
integer combination of itself and the pivot row, divided by the gcd
of its entries.  Everything here is dense and small: the oracle only
ever sees a handful of basis elements per bidegree, so a
straightforward elimination beats any clever sparse structure.
"""

from math import gcd, lcm


def transpose(m):
    """Columns of m as rows; zip of no rows is already []."""
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
    pivot are cleared too when full is set.  Rows are replaced, never
    changed, so a shallow copy keeps the caller's rows intact."""
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


def rref(rows):
    """Fully reduce a copy of the int rows; returns (pivot rows, pivot
    columns).

    Pivot row k is zero at every pivot column but pivots[k]; divided
    by its entry there, it is row k of the reduced row echelon form.
    """
    rows = list(rows)
    pivots = _echelon(rows, full=True)
    return rows[:len(pivots)], pivots


def rank(rows):
    return len(_echelon(list(rows), full=False))

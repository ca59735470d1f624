"""Exact linear algebra on int rows: a reduced span grown one row at a
time, and rank as the size of that span.

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


def _cleared(row, p, c):
    """row with column c cleared against pivot row p, fraction-free:
    p[c] times row minus row[c] times p, divided by its gcd."""
    pc, f = p[c], row[c]
    row = [pc * a - f * b for a, b in zip(row, p)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def insert_row(basis, row):
    """Extend basis by one int row, keeping it fully reduced.

    basis maps each pivot column to its pivot row, which is zero before
    that column and at every other pivot column.  The row is cleared at
    every pivot column; if anything is left, its first nonzero column
    is the new pivot, cleared from the other pivot rows.  Those are zero
    before their own pivots, so only the ones with a pivot left of the
    new one change, and keep their pivots.  Each pivot row divided by
    its entry at the pivot is then a row of the reduced row echelon
    form of every row inserted, which is unique: it does not depend on
    the order of insertion.  The basis rows are replaced, never changed.

    A basis with a pivot in every coordinate spans the whole space: its
    rows are independent, as each is the only one nonzero at its pivot,
    and there are as many as coordinates.  A row then lies in that span
    and clears to zero, so it leaves the basis as it is and is not
    cleared at all.
    """
    if len(basis) == len(row):
        return
    for c, p in basis.items():
        if row[c]:
            row = _cleared(row, p, c)
    for c, x in enumerate(row):
        if x:
            break
    else:
        return
    for k, p in basis.items():
        if p[c]:
            basis[k] = _cleared(p, row, c)
    basis[c] = row


def rank(rows):
    """Rank of the int rows: the size of the span insert_row builds
    from them, which replaces rows and never changes them, so the
    caller's rows stay intact."""
    basis = {}
    for row in rows:
        insert_row(basis, row)
    return len(basis)

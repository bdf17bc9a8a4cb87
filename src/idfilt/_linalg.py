"""Generic exact row reduction over QQ only.

Handles Fractions through the Field interface, on dense lists of scalars;
every finite field, GF(p) and GF(p^m) alike, is eliminated in _kernels.
A row update negates its multiplier once, so each cell costs one field mul
and one add.
"""

from __future__ import annotations


def rref_generic(rows, field):
    """In-place reduced row echelon form; returns (rows, pivot_columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    zero = field.zero()
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one():
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                nf = field.neg(rows[i][c])
                rows[i] = [field.add(x, field.mul(nf, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def reduce_generic(rows, pivots, v, field):
    """Residue of v modulo the row space of an RREF basis."""
    out = list(v)
    for k, c in enumerate(pivots):
        f = out[c]
        if not field.is_zero(f):
            nf = field.neg(f)
            out = [field.add(x, field.mul(nf, y)) for x, y in zip(out, rows[k])]
    return out

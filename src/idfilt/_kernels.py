"""Row reduction kernels over finite fields.

Over a finite field, every membership test ends in reduce_mod_p, on the
basis rows whose pivots the vector meets, and every elimination that
gls._rref cannot finish by its structural presolve ends in rref_mod_p on an
int64 matrix; so does each prime of the multimodular elimination over QQ.
Bases and stacks are (row, column, value) coordinates.  Over a finite
field the presolve takes out the unit rows and reduces the triangular part
of the rest, the first row at each leading column, sparsely; it makes
dense only the Schur complement, the other rows' nonzero remainders on
their own columns, so the tall stacks of multiples X^A g reach rref_mod_p
as small blocks or not at all, and the kernel's result is read back as
coordinates.  The kernels are vectorized numpy: each pivot step clears its
column with one outer-product update.  One pivot loop serves every finite
field; only the pivot scaling and the row update differ, and the field
decides which runs:

* GF(p) (tables is None): entries in [0, p) with % p arithmetic.
  PrimeField rejects any p with (p-1)^2 + (p-1) >= 2^63, so int64 products
  never overflow.
* GF(p^m): entries are the field's int codes in [0, q), and tables is the
  field's (ADD, MUL, NEG, INV) lookup arrays, so a row update is
  ADD[x, MUL[NEG[f], y]].
"""

from __future__ import annotations

import numpy as np


def _arith(p, tables):
    """(scale, axpy): scale(row, c) is row / c, and axpy(x, f, y) is x - f y
    for a scalar f, or x - outer(f, y) for a column f of multipliers.  axpy
    works in place on x, which the callers own: a fresh temporary per row
    block would double the kernel's time."""
    if tables is None:
        def scale(row, c):
            return (row * pow(c, p - 2, p)) % p

        def axpy(x, f, y):
            x -= f[..., None] * y
            x %= p
            return x
    else:
        add, mul, neg, inv = tables
        q, add = len(neg), add.ravel()

        def scale(row, c):
            return mul[inv[c]].take(row)

        def axpy(x, f, y):
            # ADD[x, MUL[NEG[f], y]], read from the flat ADD table
            x *= q
            x += mul[neg[f]].take(y, axis=-1)
            return add.take(x)
    return scale, axpy


def rref_mod_p(mat: np.ndarray, p: int, tables=None):
    """Reduced row echelon form of mat over GF(p), or over GF(p^m) when
    tables holds that field's lookup arrays.

    Consumes mat (int64, entries reduced mod p, or codes).  Returns
    (rows, pivots) with unit pivot columns, zero rows dropped.
    """
    a = np.ascontiguousarray(mat, dtype=np.int64)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return a[:0].copy(), np.empty(0, dtype=np.int64)
    scale, axpy = _arith(p, tables)
    pivots = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = scale(a[r], int(a[r, c]))
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = axpy(a[hit], col[hit], a[r])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], np.asarray(pivots, dtype=np.int64)


def reduce_mod_p(rows: np.ndarray, pivots: np.ndarray, v: np.ndarray, p: int, tables=None):
    """Residue of vector v modulo the row space of an RREF basis, over
    GF(p) or, given its tables, GF(p^m)."""
    out = np.array(v, dtype=np.int64)
    if tables is None:
        out %= p
    _, axpy = _arith(p, tables)
    for k, c in enumerate(pivots):
        f = out[c]
        if f:
            out = axpy(out, f, rows[k])
    return out


def backend_name() -> str:
    return "numpy"

"""Row reduction kernels over prime fields.

This is the hot loop of the whole library: every ideal image, membership
test, subspace sum and intersection funnels into a reduced row echelon
computation on an int64 matrix with entries in [0, p).  The kernels are
vectorized numpy: each pivot step clears its column with one outer-product
update.  Entries stay below p, and PrimeField rejects any p with
(p-1)^2 + (p-1) >= 2^63, so int64 products never overflow.
"""

from __future__ import annotations

import numpy as np


def rref_mod_p(mat: np.ndarray, p: int):
    """Reduced row echelon form of mat over F_p.

    Consumes mat (int64, entries reduced mod p).  Returns (rows, pivots)
    with unit pivot columns, zero rows dropped.  The rows own their memory
    when rows were dropped, so a kept basis does not pin the whole buffer.
    """
    a = np.ascontiguousarray(mat, dtype=np.int64)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return a[:0].copy(), np.empty(0, dtype=np.int64)
    pivots = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return (a if r == rows else a[:r].copy()), np.asarray(pivots, dtype=np.int64)


def reduce_mod_p(rows: np.ndarray, pivots: np.ndarray, v: np.ndarray, p: int):
    """Residue of vector v modulo the row space of an RREF basis."""
    out = np.ascontiguousarray(v, dtype=np.int64) % p
    for k, c in enumerate(pivots):
        f = out[c]
        if f:
            out = (out - f * rows[k]) % p
    return out


def backend_name() -> str:
    return "numpy"

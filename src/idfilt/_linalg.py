"""Exact row reduction over QQ, by certified multimodular elimination.

rref_generic never eliminates over the rationals.  It follows the
multimodular echelon form (Stein, Modular Forms: A Computational Approach,
section 7):

1. Each row is scaled by the lcm of its denominators, giving an integer
   matrix A with the same RREF: int64 when every entry fits, else Python
   ints.
2. A is reduced modulo primes just below 2^31 by the numpy kernel
   _kernels.rref_mod_p (they satisfy its (p-1)^2 + (p-1) < 2^63 bound).
   rank(A mod p) <= rank(A) for every p, and a good prime gives the leftmost
   pivots, so only the primes with the highest rank, then the smallest pivot
   list, are kept; a better prime discards the ones kept before it.
3. The kept residues are combined by CRT, and each distinct value is read
   back as a fraction by maximal quotient rational reconstruction
   (Monagan, ISSAC 2004).
4. The candidate B, with pivot columns P, is certified exactly.  With L the
   lcm of its denominators, C = L*B is an integer matrix, and the identity
   L*A = A[:, P] @ C is checked, on the non-pivot columns, modulo small
   primes q whose product exceeds twice the bound on both sides; each
   product is exact in float64, since k*(q-1)^2 < 2^53 for the inner
   dimension k.  The identity puts the row space of A inside that of B,
   and rank(A) >= rank(A mod p) = rank(B) makes them equal; B has unit
   pivot columns and zeros left of each pivot, so it is the canonical RREF
   of A.

When reconstruction or the certificate fails, the next prime is added.
Step 1 reads each input cell once, for its numerator and denominator, in one
pass over the rows.  The output is handled per distinct value: each distinct
nonzero value is one shared Fraction, and zero comes back as the int 0.

reduce_generic computes the residue of one vector exactly, by object-array
updates on the nonzero columns of each basis row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import gcd, isqrt, lcm, prod
from operator import mul

import numpy as np

from ._kernels import rref_mod_p
from .fields import is_prime

# the elimination primes lie below this bound; any p < 2^31 meets the
# kernel's int64 bound
_ELIM_BOUND = 1 << 31
# entries of A below this in absolute value are stored as int64
_INT64_SAFE = 1 << 62
# Monagan's threshold is 2^c * log2(m); a larger c makes a spurious
# reconstruction rarer and needs more primes for the same values
_MQRR_BITS = 10


@lru_cache(maxsize=None)
def _prime(bound: int, i: int) -> int:
    """The i-th largest prime below bound (i = 0 is the largest), found on
    first use; callers ask for i = 0, 1, 2, ... in turn."""
    n = _prime(bound, i - 1) if i else bound
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


def _integer_rows(rows):
    """(A, max |A|): the matrix of equal-length rows with each row scaled by
    the lcm of its denominators, which keeps its RREF.  A is int64 when every
    entry fits, else an object array of Python ints."""
    shape = len(rows), len(rows[0])
    cells = list(chain.from_iterable(rows))
    num = np.array([v.numerator for v in cells], dtype=object).reshape(shape)
    den = np.array([v.denominator for v in cells], dtype=object).reshape(shape)
    if not (den == 1).all():
        scale = np.array([lcm(*set(row)) for row in den.tolist()], dtype=object)
        num *= scale[:, None] // den
    norm = max(map(abs, num.ravel().tolist()), default=0)
    return (num.astype(np.int64) if norm < _INT64_SAFE else num), norm


def _residues(A, p: int):
    """A mod p as int64 entries in [0, p)."""
    return np.asarray(A % p, dtype=np.int64)


def _mqrr(u: int, m: int):
    """The fraction n/d with n == u*d (mod m) read off the largest quotient of
    the Euclidean algorithm on (m, u), or None when no quotient exceeds the
    threshold 2^c log2(m) (Monagan's maximal quotient rational
    reconstruction)."""
    T = m.bit_length() << _MQRR_BITS
    if u == 0:
        return 0 if m > T else None
    n = d = 0
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 and r0 > T:
        q = r0 // r1
        if q > T:
            n, d, T = r1, t1, q
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if d == 0 or gcd(n, d) != 1:
        return None
    return Fraction(n, d)


def _reconstruct(kept, shape):
    """(values, index) of the rational matrix whose residues modulo the kept
    primes are the kept RREF rows, or None when a value does not reconstruct
    from them yet."""
    # number the distinct residue tuples one prime at a time: index < cells
    # and p < 2^31 keep index * p + residue inside int64
    index = np.zeros(prod(shape), dtype=np.int64)
    for p, red in kept:
        _, first, index = np.unique(index * p + red.ravel(), return_index=True,
                                    return_inverse=True)
    primes = [p for p, _ in kept]
    m = prod(primes)
    crt = [(m // p) * pow(m // p, -1, p) for p in primes]
    values = []
    for residues in zip(*(red.ravel()[first].tolist() for _, red in kept)):
        x = _mqrr(sum(map(mul, residues, crt)) % m, m)
        if x is None:
            return None
        values.append(x)
    return values, index.reshape(shape)


def _certified(A, norm, values, index, pivots) -> bool:
    """Whether L*A == A[:, pivots] @ (L*B) holds exactly for the candidate
    B = values[index] with pivot columns pivots, L the lcm of its
    denominators and norm = max |A|.  Together with rank(A) >= len(pivots)
    this proves B is the RREF of A.

    B has unit pivot columns by construction, so the identity holds on them
    and only the other columns are checked.  The products are float64
    einsum sums of integers below 2^53, so they are exact; einsum, unlike
    the BLAS matmul, allocates no work buffer that would stay resident."""
    L = lcm(*(v.denominator for v in values))
    C = np.array([v.numerator * (L // v.denominator) for v in values], dtype=object)
    cnorm = max(map(abs, C), default=0)
    bound = 2 * max(L * norm, len(pivots) * norm * cnorm)
    free = np.ones(index.shape[1], dtype=bool)
    free[pivots] = False
    index = index[:, free]
    # k (q-1)^2 < 2^53 for the inner dimension k = len(pivots)
    qbound = isqrt((1 << 53) >> len(pivots).bit_length())
    modulus = 1
    for i in count():
        if modulus > bound:
            return True
        q = _prime(qbound, i)
        modulus *= q
        Aq = _residues(A, q)
        rhs = np.einsum("ik,kj->ij", Aq[:, pivots].astype(np.float64),
                        _residues(C, q)[index].astype(np.float64))
        rhs %= q
        lhs = Aq[:, free]
        lhs *= L % q
        lhs %= q
        if not np.array_equal(lhs, rhs):
            return False


def rref_generic(rows):
    """Canonical RREF over QQ of a nonempty list of equal-length rows of
    rationals: Fractions, and ints for zero.  Each cell's numerator and
    denominator are read once.

    Returns (matrix, pivots): the nonzero RREF rows as an object array, one
    shared Fraction per distinct nonzero value and the int 0 for zero, and
    the pivot columns as ints.
    """
    A, norm = _integer_rows(rows)
    best, kept = None, []
    for i in count():
        p = _prime(_ELIM_BOUND, i)
        red, piv = rref_mod_p(_residues(A, p), p)
        piv = piv.tolist()
        profile = (-len(piv), piv)
        if best is not None and profile > best:
            continue  # p divides a minor that fixes the echelon form over QQ
        if profile != best:
            best, kept = profile, []
        kept.append((p, red))
        cand = _reconstruct(kept, red.shape)
        if cand is not None and _certified(A, norm, *cand, piv):
            values, index = cand
            return np.array(values, dtype=object)[index], piv


def reduce_generic(rows, pivots, v):
    """Residue of v modulo the row space of an RREF basis, as a new object
    array."""
    out = np.array(v, dtype=object)
    for row, c in zip(rows, pivots):
        f = out[c]
        if f:
            nz = np.flatnonzero(row)
            out[nz] -= f * row[nz]
    return out

"""Exact coefficient arithmetic over F_p, F_{p^m} and Q, plus binomial services.

Scalars are plain Python values and every operation goes through a Field
object: ints in [0, p) for a prime field, int codes in [0, p^m) for an
extension field (its coefficient digits in base p, lowest first; add, neg,
mul and inv are table lookups), and fractions.Fraction for the rationals.
All values are immutable and every operation is a pure function, so fields
and scalars can be shared freely across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class FieldError(ValueError):
    pass


# The GF(p) elimination kernels hold a - f*b (a, f, b in [0, p)) in int64.
_INT64_MAX = 2 ** 63 - 1


def _check_word_size(p: int) -> None:
    if (p - 1) ** 2 + (p - 1) > _INT64_MAX:
        raise FieldError(f"GF({p}) is too large: the int64 elimination kernels "
                         "need (p-1)^2 + (p-1) < 2^63")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# binomial coefficients


def binom_mod_p(i: int, j: int, p: int) -> int:
    """C(i, j) mod p by digit products in base p.

    Total: returns 0 whenever j > i (some base-p digit of j then exceeds the
    matching digit of i).
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if j < 0 or j > i:
        return 0
    out = 1
    while j > 0 or i > 0:
        a, b = i % p, j % p
        if b > a:
            return 0
        out = (out * math.comb(a, b)) % p
        i //= p
        j //= p
    return out


def binom_multi(I, J) -> int:
    """Componentwise product of binomial coefficients, as an exact integer."""
    if len(I) != len(J):
        raise FieldError("multi-index length mismatch")
    out = 1
    for a, b in zip(I, J):
        if b > a:
            return 0
        out *= math.comb(a, b)
    return out


# ---------------------------------------------------------------------------
# fields

# fixed defining polynomials (lowest coefficient first, monic) so that
# extension-field output is reproducible bit for bit
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),          # g^2 + g + 1
    (2, 3): (1, 1, 0, 1),       # g^3 + g + 1
    (2, 4): (1, 1, 0, 0, 1),    # g^4 + g + 1
    (3, 2): (2, 2, 1),          # g^2 + 2g + 2
    (3, 3): (1, 2, 0, 1),       # g^3 + 2g + 1
    (3, 4): (2, 0, 0, 2, 1),    # g^4 + 2g^3 + 2
    (5, 2): (2, 4, 1),          # g^2 + 4g + 2
    (7, 2): (3, 6, 1),          # g^2 + 6g + 3
}


class Field:
    """Common interface for the three coefficient domains."""

    kind: str
    p: int
    m: int
    # the kernel's (ADD, MUL, NEG, INV) lookup arrays over GF(p^m); GF(p)
    # eliminates with % p arithmetic instead
    tables = None

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = self.one(), a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frobenius_root(self, a, e: int):
        """The unique b with b^(p^e) = a; identity when e = 0."""
        raise NotImplementedError

    def sort_key(self, a):
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    @property
    def char(self) -> int:
        return self.p

    def __repr__(self):
        return self.spec_str()

    def spec_str(self) -> str:
        raise NotImplementedError


class PrimeField(Field):
    kind = "prime-field"
    m = 1

    def __init__(self, p: int):
        _check_word_size(p)  # before is_prime: its trial division is slow for huge p
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def frobenius_root(self, a, e):
        # Frobenius is the identity on the prime field
        return a % self.p

    def elements(self):
        return list(range(self.p))

    def sort_key(self, a):
        return (a,)

    def to_str(self, a):
        return str(a % self.p)

    def spec_str(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


# An ExtensionField keeps q x q add and mul tables, so a supplied modulus is
# refused above this q before any table exists: at the bound each table is a
# 512 KB int64 array plus a list of cached small ints.
MAX_EXTENSION_Q = 256


def _tables(digits, p, modulus):
    """ADD, MUL (q x q), NEG and INV (length q) of GF(p^m) as int64 arrays
    indexed by codes, from the (q, m) digits of every code.  INV[0] is 0 and
    means nothing."""
    place = p ** np.arange(digits.shape[1])
    # times[k] holds the digits of a * g^k for every code a; multiplying by g
    # moves each digit up one place and folds g^m back by the monic modulus
    times = [digits]
    for _ in range(digits.shape[1] - 1):
        t = times[-1]
        times.append((np.pad(t[:, :-1], ((0, 0), (1, 0))) - t[:, -1:] * modulus[:-1]) % p)
    add = (digits[:, None] + digits) % p @ place
    mul = np.einsum("bk,kam->abm", digits, np.stack(times)) % p @ place
    return add, mul, -digits % p @ place, (mul == 1).argmax(axis=1)


class ExtensionField(Field):
    """F_{p^m} with each element an int code in [0, q): sum d_k g^k, with
    digits d_k in [0, p) and g a root of the modulus, has the code
    sum d_k p^k.

    add, neg, mul and inv are lookups in tables built once per field: the
    scalar methods read Python lists, the elimination kernel the numpy
    arrays in `tables`.  sort_key and to_str read the digits.
    """

    kind = "extension-field"

    def __init__(self, p: int, m: int, modulus=None):
        if m < 2:
            raise FieldError("extension degree must be >= 2")
        if modulus is None:
            # every built-in key has a prime p and a small q, so only a
            # supplied modulus needs the size test and the primality test
            modulus = BUILTIN_MODULI.get((p, m))
            if modulus is None:
                raise FieldError(f"no built-in modulus for GF({p}^{m}); supply one")
        else:
            # q >= 2^m, so a large m fails before p^m is computed
            if m > MAX_EXTENSION_Q.bit_length() or p ** m > MAX_EXTENSION_Q:
                raise FieldError(f"GF({p}^{m}) is too large: the field tables "
                                 f"need q = p^m <= {MAX_EXTENSION_Q}")
            if not is_prime(p):
                raise FieldError(f"{p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1:
            raise FieldError("modulus degree must equal the extension degree")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.q = p ** m
        digits = np.arange(self.q)[:, None] // p ** np.arange(m) % p
        self.tables = _tables(digits, p, np.array(modulus))
        # F_p[g]/(modulus) is a field, i.e. the monic modulus is irreducible,
        # exactly when 1 is a multiple of every nonzero element
        mul = self.tables[1]
        if modulus[-1] != 1 or not (mul[1:] == 1).any(axis=1).all():
            raise FieldError("modulus is reducible over the prime field")
        self._add, self._mul, self._neg, self._inv = (t.tolist() for t in self.tables)
        self._digits = [tuple(d) for d in digits.tolist()]

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def generator(self):
        return self.p

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def is_zero(self, a):
        return a == 0

    def frobenius_root(self, a, e):
        if e == 0:
            return a
        k = (-e) % self.m
        return self.pow(a, self.p ** k)

    def elements(self):
        return list(range(self.q))

    def sort_key(self, a):
        return self._digits[a]

    def to_str(self, a):
        a = self._digits[a]
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                g = "g" if i == 1 else f"g^{i}"
                parts.append(g if c == 1 else f"{c}*{g}")
        return "(" + "+".join(parts) + ")"

    def spec_str(self):
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.p, self.m, self.modulus))


class RationalField(Field):
    kind = "rationals"
    p = 0
    m = 1

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def frobenius_root(self, a, e):
        if e == 0:
            return Fraction(a)
        raise FieldError("characteristic 0 has no Frobenius roots")

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    def to_str(self, a):
        return str(a)

    def spec_str(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")


def _prime_power(q: int):
    """(p, m) with q = p^m and p prime; FieldError when q is no prime power."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    _check_word_size(q)  # q >= p, and this bounds the root search below
    for m in range(q.bit_length(), 0, -1):
        p = round(q ** (1 / m))
        if p ** m == q:
            # the largest such m leaves the smallest root: a prime iff q is
            # a prime power
            if is_prime(p):
                return p, m
            break
    raise FieldError(f"{q} is not a prime power")


def field_from_spec(text: str) -> Field:
    """Parse the field syntax used in spec files: GF(p), GF(q), GF(p^m), QQ.

    A prime power q spelled out, as in GF(9), is the same field as GF(3^2).
    """
    s = text.strip()
    if s == "QQ":
        return RationalField()
    if s.startswith("GF(") and s.endswith(")"):
        base, caret, exp = s[3:-1].partition("^")
        try:
            p, m = int(base), int(exp) if caret else 1
        except ValueError:
            raise FieldError(f"bad field spec {text!r}")
        if not caret:
            p, m = _prime_power(p)
        if m == 1:
            return PrimeField(p)
        return ExtensionField(p, m)
    raise FieldError(f"bad field spec {text!r}; expected GF(p), GF(p^m) or QQ")

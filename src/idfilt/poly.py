"""Sparse multivariate polynomials over an exact coefficient field.

Terms live in a dict mapping exponent tuples to nonzero scalars.  The ring
is always read through a TruncationContext: local computations are exact in
the Artinian quotient R/m^(D+1), which is the single architectural decision
this library rests on.  The image of a localized or completed ideal in that
quotient equals the image of the plain polynomial ideal, so no local term
orders or division algorithms are ever needed; truncated multiplication and
exact linear algebra carry everything.

The constructors are the one place that drops zero coefficients, so the
arithmetic loops accumulate without testing for zero; the public one also
reduces GF(p) coefficients to residues in [0, p).  mul_trunc is the one
product loop (the full product and the monomial shift are truncated products
at D = inf or D) and pow_trunc the one square-and-multiply.

Polynomials are immutable after construction; all operations return fresh
values and are safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dfield
from operator import add, sub

from .fields import Field, FieldError


# multi-index helpers (exponent vectors are plain tuples)

def mi_add(a, b):
    return tuple(map(add, a, b))

def mi_sub(a, b):
    return tuple(map(sub, a, b))


def grlex_key(exps):
    """Sort key: total degree ascending, then lexicographically descending."""
    return (sum(exps), tuple(-e for e in exps))


@dataclass(frozen=True)
class TruncationContext:
    """Ambient data: variable count, field, truncation degree, boundary set.

    boundary holds 0-based indices of the variables cutting out the simple
    normal crossing divisor used by the logarithmic operators.
    """

    field: Field
    nvars: int
    D: int
    boundary: frozenset = dfield(default_factory=frozenset)

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.D < 1:
            raise ValueError("truncation degree must be >= 1")
        if not all(0 <= i < self.nvars for i in self.boundary):
            raise ValueError("boundary indices out of range")


class Poly:
    """Sparse polynomial; no stored coefficient is zero."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            # a GF(p) scalar is kept as its residue in [0, p), so polynomials
            # that print alike are equal, with equal hashes and sort keys
            p = field.p if field.kind == "prime-field" else 0
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent length mismatch")
                if p:
                    c %= p
                    if c:
                        clean[tuple(exps)] = c
                elif not field.is_zero(c):
                    clean[tuple(exps)] = c
        self.terms = clean

    @staticmethod
    def _of(field: Field, nvars: int, terms):
        """An arithmetic result that keeps terms, a fresh dict keyed by
        exponent tuples of length nvars: the zero rule alone, which rebuilds
        the dict only when it holds a zero, without __init__'s checks."""
        out = object.__new__(Poly)
        out.field, out.nvars, out.terms = field, nvars, terms
        is_zero = field.is_zero
        for c in terms.values():
            if is_zero(c):
                out.terms = {e: c for e, c in terms.items() if not is_zero(c)}
                break
        return out

    # constructors -----------------------------------------------------

    @staticmethod
    def zero(field, nvars):
        return Poly(field, nvars)

    @staticmethod
    def const(field, nvars, c):
        return Poly(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def one(field, nvars):
        return Poly.const(field, nvars, field.one())

    @staticmethod
    def variable(field, nvars, i):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(field, nvars, {exps: field.one()})

    @staticmethod
    def monomial(field, nvars, exps, c=None):
        c = field.one() if c is None else c
        return Poly(field, nvars, {tuple(exps): c})

    # basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self):
        """Order at the origin: minimal total degree; math.inf for zero."""
        if not self.terms:
            return math.inf
        return min(sum(e) for e in self.terms)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def graded_component(self, n: int) -> "Poly":
        return Poly._of(self.field, self.nvars,
                        {e: c for e, c in self.terms.items() if sum(e) == n})

    def truncate(self, D: int) -> "Poly":
        """The terms of degree <= D; self when no term is above D, as a Poly
        is never changed after construction."""
        if self.degree() <= D:
            return self
        return Poly._of(self.field, self.nvars,
                        {e: c for e, c in self.terms.items() if sum(e) <= D})

    # arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldError("polynomials over different fields")
        if self.nvars != other.nvars:
            raise ValueError("polynomials with different variable counts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = F.add(out[e], c) if e in out else c
        return Poly._of(F, self.nvars, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly._of(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        F = self.field
        return Poly._of(F, self.nvars, {e: F.mul(c, v) for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul_trunc(other, math.inf)

    def mul_trunc(self, other: "Poly", D) -> "Poly":
        """Product with every term of total degree > D discarded."""
        self._check(other)
        F = self.field
        mul, plus = F.mul, F.add
        right = [(e2, c2, sum(e2)) for e2, c2 in other.terms.items()]
        out = {}
        for e1, c1 in self.terms.items():
            room = D - sum(e1)
            for e2, c2, d2 in right:
                if d2 > room:
                    continue
                e = mi_add(e1, e2)
                c = mul(c1, c2)
                out[e] = plus(out[e], c) if e in out else c
        return Poly._of(F, self.nvars, out)

    def shift(self, exps, D=None) -> "Poly":
        """Multiply by the monomial X^exps, optionally truncating at D."""
        mono = Poly.monomial(self.field, self.nvars, exps)
        return self.mul_trunc(mono, math.inf if D is None else D)

    def pow(self, n: int) -> "Poly":
        return self.pow_trunc(n, math.inf)

    def pow_trunc(self, n: int, D) -> "Poly":
        """self^n with every term of total degree > D discarded."""
        if n < 0:
            raise ValueError("negative power")
        out = Poly.one(self.field, self.nvars)
        base = self.truncate(D)
        while n:
            if n & 1:
                out = out.mul_trunc(base, D)
            if n > 1:
                base = base.mul_trunc(base, D)
            n >>= 1
        return out

    def pe_power_root(self, e: int) -> "Poly | None":
        """The g with g^(p^e) = self, or None when no such polynomial exists.

        Needs every exponent divisible by p^e; coefficients take Frobenius
        roots, which exist uniquely over any finite field.  Exact, no
        truncation involved.
        """
        F = self.field
        if e == 0:
            return self
        if F.char == 0:
            raise FieldError("characteristic 0 has no Frobenius roots")
        q = F.char ** e
        out = {}
        for exps, c in self.terms.items():
            if any(x % q for x in exps):
                return None
            out[tuple(x // q for x in exps)] = F.frobenius_root(c, e)
        return Poly._of(F, self.nvars, out)

    def substitute_linear(self, matrix) -> "Poly":
        """Replace x_i by sum_j matrix[i][j] x_j (an invertible linear change)."""
        F, d = self.field, self.nvars
        lin = [Poly(F, d, {tuple(1 if k == j else 0 for k in range(d)): matrix[i][j]
                           for j in range(d)}) for i in range(d)]
        cache = [{0: Poly.one(F, d)} for _ in range(d)]

        def var_pow(i, n):
            c = cache[i]
            if n not in c:
                c[n] = var_pow(i, n - 1) * lin[i]
            return c[n]

        out = Poly.zero(F, d)
        for exps, c in self.terms.items():
            t = Poly.const(F, d, c)
            for i, n in enumerate(exps):
                if n:
                    t = t * var_pow(i, n)
            out = out + t
        return out

    # ordering / presentation ---------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def sort_key(self):
        """The (grlex_key, scalar sort key) pairs of the terms, in graded-lex
        order: exponents are distinct, so the pairs sort by their first."""
        F = self.field
        return tuple(sorted((grlex_key(e), F.sort_key(c)) for e, c in self.terms.items()))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def default_names(nvars: int):
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


def poly_str(f: Poly, names=None) -> str:
    """Canonical rendering: graded-lex term order, declaration-order variables."""
    names = names or default_names(f.nvars)
    if f.is_zero():
        return "0"
    F = f.field
    parts = []
    for exps, c in f.sorted_terms():
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cs = F.to_str(c)
        if not factors:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(factors))
        elif cs == "-1" and F.char == 0:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(cs + "*" + "*".join(factors))
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


class PolyParseError(ValueError):
    pass


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a variable name
_TOKEN = re.compile(rf"\s*({IDENTIFIER.pattern}|\d+|\^|\*|\+|-)")


def parse_poly(text: str, names, field: Field) -> Poly:
    """Parse the polynomial grammar: +, -, optional *, ^, ints, variables."""
    nvars = len(names)
    index = {n: i for i, n in enumerate(names)}
    pos = 0
    tokens = []
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if not mo:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"bad character {text[pos:].strip()[0]!r} in polynomial")
        tokens.append(mo.group(1))
        pos = mo.end()
    if not tokens:
        raise PolyParseError("empty polynomial")

    out = Poly.zero(field, nvars)
    i = 0
    sign = 1
    first = True
    while i < len(tokens):
        if tokens[i] in "+-":
            sign = -1 if tokens[i] == "-" else 1
            i += 1
            if i >= len(tokens):
                raise PolyParseError("dangling sign")
        elif not first:
            raise PolyParseError(f"expected + or - before {tokens[i]!r}")
        first = False
        coeff = 1
        exps = [0] * nvars
        need_factor = True
        while i < len(tokens) and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*":
                if need_factor:
                    raise PolyParseError("misplaced *")
                need_factor = True
                i += 1
                continue
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
            elif tok in index:
                v = index[tok]
                e = 1
                i += 1
                if i < len(tokens) and tokens[i] == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i].isdigit():
                        raise PolyParseError("expected integer exponent after ^")
                    e = int(tokens[i])
                    i += 1
                exps[v] += e
            elif tok == "^":
                raise PolyParseError("misplaced ^")
            else:
                raise PolyParseError(f"unknown variable {tok!r}")
            need_factor = False
        if need_factor:
            raise PolyParseError("empty term")
        c = field.from_int(sign * coeff)
        out = out + Poly.monomial(field, nvars, exps, c)
        sign = 1
    return out

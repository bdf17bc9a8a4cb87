"""Hasse partial differential operators and their logarithmic variants.

Operators are stored as finite sums c_J * d_{X^J} in the basis of divided
partials, which act term by term: d_{X^J}(X^I) = C(I, J) X^(I-J).  This is
the positive-characteristic replacement for iterated d/dx (whose divided
form d^J/J! does not exist when J! vanishes mod p), and it makes every
application a per-term binomial formula.

Application of a bare d_{X^J} to a polynomial is exact; a full operator
(with polynomial coefficients) works in the truncated ring of its context.
All functions are pure and all values immutable.
"""

from __future__ import annotations

import itertools
import math

from .fields import FieldError, binom_multi
from .poly import Poly, TruncationContext, grlex_key, mi_add, mi_sub
from .values import SatValue
from . import gls


def hasse_apply(f: Poly, J) -> Poly:
    """Divided partial d_{X^J} applied to f; exact on polynomials."""
    J = tuple(J)
    if len(J) != f.nvars:
        raise ValueError("multi-index length mismatch")
    F = f.field
    out = {}
    for I, c in f.terms.items():
        b = binom_multi(I, J)
        if b and not F.is_zero(b := F.from_int(b)):
            # zero in F when p | b; I -> I - J is injective, so every key
            # is written once
            out[mi_sub(I, J)] = F.mul(c, b)
    return Poly._of(F, f.nvars, out)


def boundary_part(J, ctx: TruncationContext):
    """J_E: zero out the components of J away from the boundary divisor."""
    return tuple(j if i in ctx.boundary else 0 for i, j in enumerate(J))


def log_apply(f: Poly, J, ctx: TruncationContext) -> Poly:
    """Logarithmic operator X^(J_E) d_{X^J}, truncated at D.

    Preserves every power of the boundary ideal: the monomial factor puts
    back what the derivative removed along the divisor directions.
    """
    J = tuple(J)
    return hasse_apply(f, J).shift(boundary_part(J, ctx), ctx.D)


def sub_multiindices(J):
    """All K with K <= J componentwise."""
    return itertools.product(*[range(j + 1) for j in J])


class DiffOp:
    """Finite sum of coefficient * d_{X^J}."""

    __slots__ = ("ctx", "summands")

    def __init__(self, ctx: TruncationContext, summands):
        self.ctx = ctx
        clean = {}
        for coeff, J in summands:
            J = tuple(J)
            if coeff.is_zero():
                continue
            prev = clean.get(J)
            clean[J] = coeff if prev is None else prev + coeff
        self.summands = tuple(sorted(
            ((c, J) for J, c in clean.items() if not c.is_zero()),
            key=lambda s: grlex_key(s[1])))

    @staticmethod
    def hasse(ctx, J) -> "DiffOp":
        return DiffOp(ctx, [(Poly.one(ctx.field, ctx.nvars), tuple(J))])

    @staticmethod
    def identity(ctx) -> "DiffOp":
        return DiffOp.hasse(ctx, (0,) * ctx.nvars)

    @staticmethod
    def zero(ctx) -> "DiffOp":
        return DiffOp(ctx, [])

    @property
    def degree(self) -> int:
        if not self.summands:
            return 0
        return max(sum(J) for _, J in self.summands)

    def is_zero(self) -> bool:
        return not self.summands

    def apply(self, f: Poly) -> Poly:
        """Action on f in R/m^(D+1)."""
        ctx = self.ctx
        out = Poly.zero(ctx.field, ctx.nvars)
        for coeff, J in self.summands:
            out = out + coeff.mul_trunc(hasse_apply(f, J), ctx.D)
        return out

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if self.ctx != other.ctx:
            raise ValueError("context mismatch between operators")
        return DiffOp(self.ctx, list(self.summands) + list(other.summands))

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.ctx, [(coeff.scale(c), J) for coeff, J in self.summands])

    def mul_poly(self, g: Poly) -> "DiffOp":
        """Left-multiply by a ring element: g * D."""
        D = self.ctx.D
        return DiffOp(self.ctx, [(g.mul_trunc(coeff, D), J) for coeff, J in self.summands])

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator acting as self o other, expanded in the divided basis.

        Uses the product rule on the inner coefficients plus the basis
        composition d_A o d_B = C(A+B, A) d_(A+B).
        """
        if self.ctx != other.ctx:
            raise ValueError("context mismatch between operators")
        ctx = self.ctx
        F = ctx.field
        out = []
        for c1, J1 in self.summands:
            for c2, J2 in other.summands:
                for A in sub_multiindices(J1):
                    B = mi_sub(J1, A)
                    dA_c2 = hasse_apply(c2, A)
                    if dA_c2.is_zero():
                        continue
                    b = F.from_int(binom_multi(mi_add(B, J2), B))
                    if F.is_zero(b):
                        continue
                    coeff = c1.mul_trunc(dA_c2, ctx.D).scale(b)
                    if not coeff.is_zero():
                        out.append((coeff, mi_add(B, J2)))
        return DiffOp(ctx, out)

    def __repr__(self):
        from .poly import poly_str
        if not self.summands:
            return "DiffOp(0)"
        bits = []
        for c, J in self.summands:
            bits.append(f"({poly_str(c)})*d{J}")
        return "DiffOp(" + " + ".join(bits) + ")"


def product_rule_check(f: Poly, g: Poly, J) -> bool:
    """d_J(fg) == sum over K+L=J of d_K(f) d_L(g); a self-test oracle."""
    J = tuple(J)
    lhs = hasse_apply(f * g, J)
    rhs = Poly.zero(f.field, f.nvars)
    for K in sub_multiindices(J):
        L = mi_sub(J, K)
        rhs = rhs + hasse_apply(f, K) * hasse_apply(g, L)
    return lhs == rhs


def ideal_order(gens, ctx: TruncationContext) -> SatValue:
    """Order at the origin of the generated ideal, saturated at D+1.

    Simply the minimum generator order; the value agrees with the
    differential characterization (order >= n iff all divided partials of
    degree < n vanish at the origin), which the test suite cross-checks.
    """
    best = math.inf
    for g in gens:
        best = min(best, g.order())
    if best > ctx.D:
        return SatValue.at_least(ctx.D + 1)
    return SatValue.exact(int(best))


def diff_ideal_gens(gens, n: int, ctx: TruncationContext):
    """Generators of Diff^n(I): all divided partials of degree <= n."""
    out = []
    for g in gens:
        for J in gls.monomial_basis(ctx.nvars, n)[0]:
            h = hasse_apply(g, J)
            if not h.is_zero():
                out.append(h)
    return out


def is_pe_power_generated(gens, e: int, ctx: TruncationContext) -> bool:
    """Is the ideal generated by p^e-th power elements, tested at truncation.

    Equivalent criterion: invariance under all differential operators of
    degree <= p^e - 1, i.e. the truncated images of Diff^(p^e-1)(I) and I
    agree.  Certified exact when every generator has degree at most
    D - (p^e - 1); see pe_power_precision_ok.
    """
    if ctx.field.char == 0:
        raise FieldError("p^e-power generation needs positive characteristic")
    if e == 0:
        return True
    n = ctx.field.char ** e - 1
    base = gls.ideal_image(gens, ctx)
    bigger = gls.ideal_image(diff_ideal_gens(gens, n, ctx), ctx)
    return base.equals(bigger)


def pe_power_precision_ok(gens, e: int, ctx: TruncationContext) -> bool:
    """True when the is_pe_power_generated verdict is certified exact.

    Divided partials lower degree by at most p^e - 1, so generators of
    degree <= D - (p^e - 1) keep the comparison inside the precision window.
    """
    n = ctx.field.char ** e - 1
    return all(g.degree() <= ctx.D - n for g in gens)

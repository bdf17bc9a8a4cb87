"""Rationally and finitely generated idealistic filtrations.

A filtration assigns to every rational level a an ideal I_a, decreasing in
a, with I_a * I_b inside I_(a+b) and I_0 = R.  Here one is presented by a
finite list of (polynomial, positive rational level) generators; the ideal
at level a is generated by the products of generators whose levels sum to
at least a, and at a <= 0 by the empty product 1, so I_0 = R comes out of
the same construction as every other level.  All ideals are taken as images in
R/m^(D+1), each the canonical GradedSubspace it spans.

After saturation almost every generator is a monomial X^e.  Their part of
every level ideal at once is one table over the columns: w(E), the largest
level of a product of monomial generators that divides X^E, built once per
filtration (gls.monomial_weights).  Only the products P of the generators
with two or more terms are walked, and I_a is spanned by the rows P X^A
with w(A) in a window at a minus the level of P (see _minimal_products).

Normalization drops zero polynomials and non-positive levels (both carry no
information), and detects generators that are units at the origin, which
force every level ideal to be the whole local ring.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .gls import GradedSubspace, ideal_image, monomial_weights
from .poly import Poly, TruncationContext
from .values import SatValue, sat_min


class FiltrationSpec:
    """Finite generator presentation of an idealistic filtration."""

    __slots__ = ("ctx", "gens", "grid_denominator", "trivial_full",
                 "_level_cache", "_tables")

    def __init__(self, ctx: TruncationContext, gens):
        clean = {}  # (level, sort key) -> the first generator with that key
        for f, a in gens:
            if f.field != ctx.field or f.nvars != ctx.nvars:
                raise ValueError("generator does not live in the ambient ring")
            if not isinstance(a, Fraction):
                a = Fraction(a)
            if a.numerator <= 0 or f.is_zero():
                continue
            clean.setdefault((a, f.sort_key()), (f, a))
        self.ctx = ctx
        self.gens = tuple(clean[key] for key in sorted(clean))
        # level ideals jump only on the grid 1/grid_denominator, and a
        # positive-level unit generator makes every one of them all of R
        self.grid_denominator = math.lcm(*(a.denominator for _, a in self.gens))
        self.trivial_full = any(f.order() == 0 for f, _ in self.gens)
        self._level_cache = {}
        self._tables = None

    # presentation ---------------------------------------------------------

    def grid_levels(self, up_to=None):
        """Positive multiples of 1/denominator up to the truncation degree."""
        top = Fraction(self.ctx.D if up_to is None else up_to)
        delta = self.grid_denominator
        return [Fraction(k, delta) for k in range(1, math.floor(top * delta) + 1)]

    def __eq__(self, other):
        return (isinstance(other, FiltrationSpec) and self.ctx == other.ctx
                and self.gens == other.gens)

    def __repr__(self):
        from .poly import poly_str
        inner = ", ".join(f"({poly_str(f)} @ {a})" for f, a in self.gens)
        return f"FiltrationSpec[{inner}]"

    def _over(self, ctx) -> "FiltrationSpec":
        """The same normalized generators over ctx, with nothing cached: the
        weight table has one entry per monomial of its own ring."""
        out = object.__new__(FiltrationSpec)
        out.ctx, out.gens, out._level_cache, out._tables = ctx, self.gens, {}, None
        out.grid_denominator, out.trivial_full = self.grid_denominator, self.trivial_full
        return out

    def copy(self) -> "FiltrationSpec":
        """The same filtration with no level ideal cached; nothing is
        normalized again."""
        return self._over(self.ctx)

    def truncated(self, n: int) -> "FiltrationSpec":
        """The same generators over R/m^(n+1) (same field, variables and
        boundary), and the filtration itself at n = D.  Its level ideals
        are the images of these in that quotient: the quotient map is a
        ring map, and a generator it kills only drops out of products that
        vanish there anyway.  The generators are kept as they are, since
        the level ideals truncate them at n, so read only the level ideals
        of a truncation: its mu_P counts the generators that vanish at n."""
        if not 1 <= n <= self.ctx.D:
            raise ValueError("can only truncate at 1..D")
        if n == self.ctx.D:
            return self
        return self._over(dataclasses.replace(self.ctx, D=n))

    # level ideals -----------------------------------------------------------

    def _level_tables(self):
        """(w, reach, walked), built once, levels as integers in units of
        1/grid_denominator: w is the weight table of the one-term generators
        (gls.monomial_weights), reach[b] the largest level of a product of
        generators of order <= b, and walked the (polynomial, level, order)
        of the others, by ascending level, all truncated at D.  Generators
        that vanish at D, or units, read at level 0 only, are left out."""
        if self._tables is None:
            D, delta = self.ctx.D, self.grid_denominator
            mons, walked, reach = [], [], [0] * (D + 1)
            for f, lvl in self.gens:
                p, lvl, o = f.truncate(D), int(lvl * delta), f.order()
                if not 0 < o <= D:
                    continue
                if len(p.terms) == 1:
                    mons.append((next(iter(p.terms)), lvl))
                else:
                    walked.append((p, lvl, o))
                for b in range(o, D + 1):
                    reach[b] = max(reach[b], reach[b - o] + lvl)
            self._tables = monomial_weights(mons, self.ctx), reach, walked
        return self._tables

    def _minimal_products(self, a: Fraction):
        """(P, s, m) triples whose rows P X^A with a - s <= w(A) < a - s + m
        span I_a, w the monomial weight table.  P is a product of the
        generators with two or more terms, s its level and m its least
        factor level (inf for P = 1), in units of 1/grid_denominator.

        The walk takes generators by ascending level, so each product comes
        once and its first factor is the least.  It lists 1 when
        reach[D] >= a.  A product below a, of order o <= D with
        s + reach[D - o] >= a, is listed and extended; one at or above a is
        listed when it is minimal, s - m < a.

        Exact, by induction on the factors: a row P X^A with
        w(A) >= a - s + m is f P' X^A with f the least factor, and P' is
        listed at level s - m.  A product Q of order <= D at level >= a is
        P M, P walked and M monomial: either Q is a multiple of a listed
        minimal product, or P is listed below a and M = c X^E with
        w(E) >= a - s.  reach cuts only branches with no such completion.
        A unit generator makes every level the whole ring, which its powers
        reach at order 0, so then 1 alone is listed, at level a.
        """
        D = self.ctx.D
        a = math.ceil(Fraction(a) * self.grid_denominator)
        one = Poly.one(self.ctx.field, self.ctx.nvars)
        if a <= 0 or self.trivial_full:
            return [(one, max(a, 0), math.inf)]
        _, reach, walked = self._level_tables()
        out = []

        def walk(i, prod, level, order, least):
            out.append((prod, level, least))
            for j in range(i, len(walked)):
                f, lvl, ordf = walked[j]
                s, o, m = level + lvl, order + ordf, min(least, lvl)
                if o <= D and a <= s < a + m:
                    out.append((prod.mul_trunc(f, D), s, m))
                elif o <= D and s < a <= s + reach[D - o]:
                    walk(j, prod.mul_trunc(f, D), s, o, m)

        if reach[D] >= a:
            walk(0, one, 0, 0, math.inf)
        return out

    def ideal_at_level(self, a) -> GradedSubspace:
        """Truncated image of I_a; the full ring I_0 = R for a <= 0."""
        # the level ideal is a step function jumping only on the rational
        # grid, and a unit generator makes every level the level-0 ideal
        delta = self.grid_denominator
        key = 0 if self.trivial_full else max(0, math.ceil(Fraction(a) * delta))
        hit = self._level_cache.get(key)
        if hit is None:
            prods = self._minimal_products(Fraction(key, delta))
            w = self._level_tables()[0]
            cols = [((key - s <= w) & (w < key - s + m)).nonzero()[0] for _, s, m in prods]
            hit = ideal_image([P for P, _, _ in prods], self.ctx, cols)
            self._level_cache[key] = hit
        return hit

    # invariants at the origin ----------------------------------------------

    def mu_P(self) -> SatValue:
        """Multiplicity at the origin: min of ord(f)/a over the generators.

        Minimizing over generators is exact for a generated filtration
        because order is superadditive over products and sums.  A generator
        invisible at precision D contributes a flagged lower bound.
        """
        vals = []
        for f, a in self.gens:
            o = f.order()
            if o > self.ctx.D:
                vals.append(SatValue.at_least(Fraction(self.ctx.D + 1) / a))
            else:
                vals.append(SatValue.exact(Fraction(int(o)) / a))
        return sat_min(vals)

    def in_support(self) -> bool:
        """Does the origin lie in the support, i.e. is mu_P >= 1.

        Generators of order beyond the truncation degree are zero in the
        working quotient, so a precision-limited bound counts as in-support.
        """
        return not self.mu_P().lt_certain(1)


def is_integral_witness(F: FiltrationSpec, f: Poly, a, coeffs) -> bool:
    """Verify a monic integral dependence of (f, a) on the filtration.

    Checks f^n + c_1 f^(n-1) + ... + c_n = 0 in the truncated ring and that
    each c_i lies in the level-(i*a) ideal.  True certifies that (f, a) is
    integral over the filtration as witnessed.
    """
    if not coeffs:
        raise ValueError("need at least one witness coefficient")
    a = Fraction(a)
    D = F.ctx.D
    n = len(coeffs)
    acc = f.pow_trunc(n, D)
    for i, c in enumerate(coeffs, start=1):
        acc = acc + c.truncate(D).mul_trunc(f.pow_trunc(n - i, D), D)
    if not acc.is_zero():
        return False
    for i, c in enumerate(coeffs, start=1):
        ct = c.truncate(D)
        if ct.is_zero():
            continue
        if not F.ideal_at_level(i * a).contains_poly(ct):
            return False
    return True

"""Rationally and finitely generated idealistic filtrations.

A filtration assigns to every rational level a an ideal I_a, decreasing in
a, with I_a * I_b inside I_(a+b) and I_0 = R.  Here one is presented by a
finite list of (polynomial, positive rational level) generators; the ideal
at level a is generated by the products of generators whose levels sum to
at least a, and at a <= 0 by the empty product 1, so I_0 = R comes out of
the same construction as every other level.  The minimal such products, the
ones that fall short of a once any one factor is removed, suffice: every
other qualifying product is a multiple of one of them.  All ideals are taken
as images in R/m^(D+1), each the canonical GradedSubspace it spans.

Normalization drops zero polynomials and non-positive levels (both carry no
information), and detects generators that are units at the origin, which
force every level ideal to be the whole local ring.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .gls import GradedSubspace, ideal_image
from .poly import Poly, TruncationContext
from .values import SatValue, sat_min


def _level_fits(data, D, top):
    """fits[i][b] for b = 0..D: the bitset whose bit s says that some product
    of the generators data[i:] (polynomial, integer level, order), each
    repeated freely, has order <= b and level s < top.  The empty product
    gives s = 0.  Filled as an unbounded knapsack from the last generator."""
    mask = (1 << top) - 1
    row = [1] * (D + 1)
    fits = [row]
    for _, lvl, ordf in reversed(data):
        row = list(row)
        if ordf == 0:
            # a unit: repeating it costs no order, so close each bitset
            for b, bits in enumerate(row):
                while (grown := (bits | bits << lvl) & mask) != bits:
                    bits = grown
                row[b] = bits
        else:
            for b in range(ordf, D + 1):
                row[b] |= row[b - ordf] << lvl & mask
        fits.append(row)
    fits.reverse()
    return fits


class FiltrationSpec:
    """Finite generator presentation of an idealistic filtration."""

    __slots__ = ("ctx", "gens", "_level_cache")

    def __init__(self, ctx: TruncationContext, gens):
        clean = {}  # (level, sort key) -> the first generator with that key
        for f, a in gens:
            if f.field != ctx.field or f.nvars != ctx.nvars:
                raise ValueError("generator does not live in the ambient ring")
            a = Fraction(a)
            if a <= 0 or f.is_zero():
                continue
            clean.setdefault((a, f.sort_key()), (f, a))
        self.ctx = ctx
        self.gens = tuple(clean[key] for key in sorted(clean))
        self._level_cache = {}

    # presentation ---------------------------------------------------------

    @property
    def trivial_full(self) -> bool:
        """A positive-level unit generator makes every level ideal all of R."""
        return any(f.order() == 0 for f, _ in self.gens)

    @property
    def grid_denominator(self) -> int:
        return math.lcm(*(a.denominator for _, a in self.gens))

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

    def truncated(self, n: int) -> "FiltrationSpec":
        """The same generators truncated at n, over R/m^(n+1) (same field,
        variables and boundary).  Its level ideals are the images of these in
        that quotient: the quotient map is a ring map, and a generator it
        kills only drops out of products that vanish there anyway."""
        if not 1 <= n <= self.ctx.D:
            raise ValueError("can only truncate at 1..D")
        ctx = dataclasses.replace(self.ctx, D=n)
        return FiltrationSpec(ctx, [(f.truncate(n), a) for f, a in self.gens])

    # level ideals -----------------------------------------------------------

    def _minimal_products(self, a: Fraction):
        """The minimal generator products reaching level a: those that fall
        short of it once any one factor is removed.

        Generators are walked by ascending level, so the first factor of a
        branch has the least level, and a product is minimal exactly when
        dropping that factor leaves it below a.  A branch stops before a
        product that is not minimal, as no extension of it is, or whose
        order exceeds D (over a field the orders of factors add up, so it
        vanishes in the quotient).  Levels are walked as integers in units
        of 1/grid_denominator.

        A branch is entered only when some completion of it is minimal.  The
        table fits[i][b] (see _level_fits) holds the levels of the products
        of generators i, i+1, ... of order <= b.  A branch at generator i
        with level below a, order o and least factor level m completes to a
        minimal product exactly when one of those products, of order at most
        D - o, lands its level in [a, a + m): the first prefix of that
        completion to reach a is then minimal too, as its level lies in the
        same window.  So every product built divides one that is returned.
        """
        D = self.ctx.D
        delta = self.grid_denominator
        a = math.ceil(Fraction(a) * delta)
        one = Poly.one(self.ctx.field, self.ctx.nvars)
        if a <= 0:
            return [one]
        data = [(f.truncate(D), int(lvl * delta), f.order()) for f, lvl in self.gens]
        fits = _level_fits(data, D, a + max((lvl for _, lvl, _ in data), default=0))
        out = []

        def walk(i, prod, level, order, least):
            if i >= len(data) or least and not (
                    fits[i][D - order] >> (a - level) & ((1 << least) - 1)):
                return
            walk(i + 1, prod, level, order, least)
            f, lvl, ordf = data[i]
            least = least or lvl
            window = (1 << least) - 1
            while level < a:
                order += ordf
                level += lvl
                if order > D or level - least >= a:
                    break
                if level < a and not fits[i][D - order] >> (a - level) & window:
                    break
                prod = prod.mul_trunc(f, D)
                if level >= a:
                    out.append(prod)
                else:
                    walk(i + 1, prod, level, order, least)

        walk(0, one, 0, 0, 0)
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
            hit = ideal_image(prods, self.ctx)
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

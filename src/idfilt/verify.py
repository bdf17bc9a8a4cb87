"""The invariant corpus: every structural law the library rests on, run as
randomized and exhaustive suites with a fixed seed.

Each suite exercises one law (binomial digit products, the generalized
product rule, saturation closure, pure generation of the leading algebra,
the supporting congruences, the nonsingularity criterion, ...) and reports
an instance count.  `run_all` drives them and is what `idfilt verify`
calls; the pytest acceptance module reuses individual suites.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from itertools import combinations

from . import fields as fields_mod
from .diffop import (DiffOp, hasse_apply, ideal_order,
                     is_pe_power_generated, log_apply, product_rule_check)
from .fields import ExtensionField, PrimeField, RationalField, binom_multi
from .filtration import FiltrationSpec, is_integral_witness
from .gls import GradedSubspace, greedy_independent, ideal_image, monomial_basis
from .invariants import (HSystem, coefficient_decompose_check,
                         coefficient_default_mu, mu_tilde,
                         nonsingularity_check, supporting1_check,
                         supporting2_check, supporting3_check)
from .leading import extract_lgs, linear_coefficients, pure_part
from .poly import Poly, TruncationContext, mi_sub, poly_str
from .saturation import (RadicalProbeBounds, b_saturate_probe, d_saturate,
                         frobenius_probe, radical_probe, theta_monomial)


@dataclass
class SuiteResult:
    name: str
    law: str
    instances: int = 0
    failures: list = dfield(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, detail: str = "", *args):
        """Count one instance; on failure record detail.format(*args), which
        is built only then, so passing checks pay no formatting."""
        self.instances += 1
        if not ok:
            self.failures.append(detail.format(*args) if args
                                 else detail or f"instance {self.instances}")

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        out = f"[{mark}] {self.name}: {self.law} ({self.instances} instances)"
        if self.failures:
            out += f" -- first failure: {self.failures[0]}"
        return out


# ---------------------------------------------------------------------------
# random generators


def rand_scalar(rng, F, nonzero=False):
    while True:
        if F.char == 0:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            # m digits in [0, p), lowest first, make the field's int code
            # (one digit, the residue itself, over GF(p))
            c = sum(rng.randrange(F.p) * F.p ** k for k in range(F.m))
        if not nonzero or not F.is_zero(c):
            return c


def rand_exps(rng, d, max_deg, min_deg=0):
    while True:
        e = tuple(rng.randint(0, max_deg) for _ in range(d))
        if min_deg <= sum(e) <= max_deg:
            return e


def _split_fits(vs, room, m):
    """Integer feasibility: does some split of m among the exponent vectors
    vs sum to at most room in every coordinate, that is, does some product
    of m of the monomials X^v divide X^room."""
    if len(vs) == 1:
        return all(m * x <= c for x, c in zip(vs[0], room))
    for take in range(m + 1):
        left = [c - take * x for x, c in zip(vs[0], room)]
        if all(c >= 0 for c in left) and _split_fits(vs[1:], left, m - take):
            return True
    return False


def rand_poly(rng, F, d, max_deg, terms=4, min_ord=0, nonzero=True):
    t = {}
    for _ in range(terms):
        e = rand_exps(rng, d, max_deg, min_ord)
        t[e] = rand_scalar(rng, F)
    f = Poly(F, d, {e: c for e, c in t.items() if not F.is_zero(c)})
    if nonzero and f.is_zero():
        return rand_poly(rng, F, d, max_deg, terms, min_ord, nonzero)
    return f


def rand_spec(rng, F, d, D, ngens):
    """Random spec with levels of denominator at most 4."""
    ctx = TruncationContext(F, d, D)
    gens = []
    for _ in range(ngens):
        den = rng.choice([1, 2, 3, 4])
        num = rng.randint(1, 3 * den)
        f = rand_poly(rng, F, d, max_deg=min(4, D), terms=3, min_ord=1)
        gens.append((f, Fraction(num, den)))
    return FiltrationSpec(ctx, gens)


def rand_hsystem(rng, F, d, D):
    """Random valid system: x_l^(p^e_l) plus a higher-order tail; half the
    time skewed by a unipotent change of variables so the initial-form
    roots are not coordinate-aligned and normalization does real work."""
    p = F.char
    profiles = [(0,), (1,), (0, 0), (0, 1), (1, 1)]
    if p == 2 and D >= 4:
        profiles += [(0, 2), (2,), (1, 2)]
    prof = rng.choice([pr for pr in profiles if len(pr) <= d and
                       all(p ** e <= D for e in pr)])
    entries = []
    for l, e in enumerate(sorted(prof)):
        q = p ** e
        lead = Poly.monomial(F, d, tuple(q if k == l else 0 for k in range(d)))
        tail = (rand_poly(rng, F, d, max_deg=min(q + 2, D), terms=2,
                          min_ord=q + 1, nonzero=False)
                if q < D else Poly.zero(F, d))  # no room for a tail above q
        entries.append((lead + tail, e))
    if rng.random() < 0.5:
        skew = [[F.one() if i == j else
                 (rand_scalar(rng, F) if i < j else F.zero())
                 for j in range(d)] for i in range(d)]
        entries = [(h.substitute_linear(skew).truncate(D), e)
                   for h, e in entries]
    return HSystem(TruncationContext(F, d, D), entries)


# ---------------------------------------------------------------------------
# suites


def suite_hasse_basis(rng) -> SuiteResult:
    res = SuiteResult("hasse_basis", "divided partials act by binomials on monomials")
    flds = [PrimeField(2), PrimeField(3), PrimeField(5), RationalField()]
    for F in flds:
        for d in (1, 2, 3):
            idxs = monomial_basis(d, 8)[0]
            for I in idxs:
                for J in idxs:
                    got = hasse_apply(Poly.monomial(F, d, I), J)
                    b = F.from_int(binom_multi(I, J))
                    want = (Poly.zero(F, d) if F.is_zero(b) or any(
                        j > i for i, j in zip(I, J))
                        else Poly.monomial(F, d, mi_sub(I, J), b))
                    res.check(got == want, "I={} J={} over {}", I, J, F)
    return res


def suite_product_rule(rng) -> SuiteResult:
    res = SuiteResult("product_rule", "generalized product rule for divided partials")
    flds = [PrimeField(2), PrimeField(3), PrimeField(5), RationalField(),
            ExtensionField(3, 2)]
    for F in flds:
        for _ in range(500):
            d = rng.choice([1, 2, 3])
            f = rand_poly(rng, F, d, 6, terms=4, nonzero=False)
            g = rand_poly(rng, F, d, 6, terms=4, nonzero=False)
            J = rand_exps(rng, d, 4)
            res.check(product_rule_check(f, g, J), "J={} over {}", J, F)
    return res


def suite_lucas(rng) -> SuiteResult:
    res = SuiteResult("lucas", "binomials mod p by digit products; p-power scaling")
    for p in (2, 3, 5, 7):
        for i in range(201):
            for j in range(201):
                want = math.comb(i, j) % p if j <= i else 0
                got = fields_mod.binom_mod_p(i, j, p)
                res.instances += 1
                if got != want:
                    res.failures.append(f"C({i},{j}) mod {p}: {got} != {want}")
        for e in range(4):
            q = p ** e
            for i in range(31):
                for j in range(31):
                    res.check(
                        fields_mod.binom_mod_p(q * i, q * j, p)
                        == fields_mod.binom_mod_p(i, j, p),
                        "C({0}*{1},{0}*{2}) vs C({1},{2}) mod {3}", q, i, j, p)
    return res


def suite_field_axioms(rng) -> SuiteResult:
    res = SuiteResult("field_axioms", "field laws and bijective Frobenius, q <= 81")
    exts = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
    flds = [PrimeField(p) for p in (2, 3, 5, 7, 11, 13)] + \
        [ExtensionField(p, m) for p, m in exts] + [RationalField()]
    for F in flds:
        for _ in range(60):
            a, b, c = (rand_scalar(rng, F) for _ in range(3))
            res.check(F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c)),
                      "distributivity over {}", F)
            res.check(F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c)),
                      "associativity over {}", F)
            if not F.is_zero(a):
                res.check(F.mul(a, F.inv(a)) == F.one(), "inverse over {}", F)
        if F.char and F.p ** F.m <= 81 and F.kind != "rationals":
            elements = F.elements()
            for e in (1, 2):
                seen = set()
                for x in elements:
                    r = F.frobenius_root(x, e)
                    seen.add(r)
                    res.check(F.pow(r, F.char ** e) == x,
                              "frobenius root of {} over {}", x, F)
                res.check(len(seen) == len(elements), "frobenius bijective {}", F)
    return res


def suite_pe_roots(rng) -> SuiteResult:
    res = SuiteResult("pe_roots", "p^e-th roots of polynomial p^e-th powers")
    flds = [PrimeField(2), PrimeField(3), ExtensionField(2, 2), ExtensionField(3, 2)]
    for F in flds:
        p = F.char
        for _ in range(60):
            e = rng.choice([1, 2] if p == 2 else [1])
            maxdeg = 24 // p ** e
            g = rand_poly(rng, F, rng.choice([1, 2]), max(1, maxdeg), terms=3)
            f = g.pow(p ** e)
            res.check(f.pe_power_root(e) == g, "root of power over {}", F)
        f = rand_poly(rng, F, 2, 4)
        res.check(f.pe_power_root(0) == f, "e=0 is the identity")
    # a non-power must be rejected
    F2 = PrimeField(2)
    xy = Poly(F2, 2, {(2, 0): 1, (1, 1): 1})
    res.check(xy.pe_power_root(1) is None, "x^2+xy has no square root")
    return res


def suite_diffop_laws(rng) -> SuiteResult:
    res = SuiteResult("diffop_laws",
                      "composition, order lowering, Frobenius powers, log invariance")
    flds = [PrimeField(2), PrimeField(3), RationalField()]
    for F in flds:
        d = 2
        ctx = TruncationContext(F, d, 16)
        for _ in range(40):
            d1 = DiffOp(ctx, [(rand_poly(rng, F, d, 2, 2, nonzero=False),
                               rand_exps(rng, d, 3)) for _ in range(2)])
            d2 = DiffOp(ctx, [(rand_poly(rng, F, d, 2, 2, nonzero=False),
                               rand_exps(rng, d, 3)) for _ in range(2)])
            f = rand_poly(rng, F, d, 8, terms=5, nonzero=False)
            res.check(d1.compose(d2).apply(f) == d1.apply(d2.apply(f)),
                      "compose action over {}", F)
            res.check(d1.compose(d2).degree <= d1.degree + d2.degree,
                      "degree additivity bound")
        for _ in range(40):
            f = rand_poly(rng, F, d, 8, terms=5)
            J = rand_exps(rng, d, 4)
            g = hasse_apply(f, J)
            res.check(g.is_zero() or g.order() >= f.order() - sum(J),
                      "order lowered by at most |J|")
        if F.char:
            p = F.char
            for _ in range(30):
                e = rng.choice([1, 2])
                h = rand_poly(rng, F, d, 3, terms=3)
                K = rand_exps(rng, d, 2)
                lhs = hasse_apply(h.pow(p ** e), tuple(p ** e * k for k in K))
                rhs = hasse_apply(h, K).pow(p ** e)
                res.check(lhs == rhs, "frobenius power identity over {}", F)
        # logarithmic invariance: images of boundary powers stay inside
        ctxb = TruncationContext(F, d, 8, frozenset({0}))
        bnd = Poly.variable(F, d, 0)
        for t in (1, 2, 3):
            It = ideal_image([bnd.pow(t)], ctxb)
            for J in monomial_basis(d, 3)[0]:
                g = rand_poly(rng, F, d, 4, 2, nonzero=False)
                img = log_apply(bnd.pow(t).mul_trunc(g, ctxb.D), J, ctxb)
                res.check(It.contains_poly(img),
                          "log operator leaves (x^{}) stable over {}", t, F)
    return res


def suite_pe_power_generated(rng) -> SuiteResult:
    res = SuiteResult("pe_power_generated",
                      "p^e-power generation iff invariance under low-degree partials")
    # forward: ideals of p^e-th powers are invariant
    count = 0
    while count < 100:
        p = rng.choice([2, 3])
        e = rng.choice([1, 2] if p == 2 else [1])
        d = rng.choice([1, 2, 3])
        F = PrimeField(p)
        D = 12
        q = p ** e
        gens = [rand_poly(rng, F, d, max(1, D // q), terms=2).pow(q)
                for _ in range(rng.choice([1, 2]))]
        ctx = TruncationContext(F, d, D)
        ok = is_pe_power_generated(gens, e, ctx)
        res.check(ok, "powers p={} e={} gens={}", p, e,
                  None if ok else [poly_str(g) for g in gens])
        count += 1

    # converse: exhaustive monomial antichains in 2 variables, degree <= p^2
    def antichains(maxdeg, max_size):
        mons = [(i, j) for i in range(maxdeg + 1) for j in range(maxdeg + 1)
                if 0 < i + j <= maxdeg]
        for size in range(1, max_size + 1):
            for combo in combinations(mons, size):
                if all(not (a[0] <= b[0] and a[1] <= b[1]) and
                       not (b[0] <= a[0] and b[1] <= a[1])
                       for a, b in combinations(combo, 2)):
                    yield combo

    def brute_power_generated(gens_exps, q):
        # monomial oracle: the subideal of q-th power monomials must regenerate
        pow_gens = [tuple(q * (-(-c // q)) for c in g) for g in gens_exps]
        return all(any(all(pg[i] <= g[i] for i in range(2)) for pg in pow_gens)
                   for g in gens_exps)

    for p, e, max_size in ((2, 1, 3), (2, 2, 3), (3, 1, 2)):
        F = PrimeField(p)
        q = p ** e
        D = min(p * p + q - 1, 12)
        ctx = TruncationContext(F, 2, D)
        for combo in antichains(p * p, max_size):
            gens = [Poly.monomial(F, 2, g) for g in combo]
            got = is_pe_power_generated(gens, e, ctx)
            want = brute_power_generated(combo, q)
            res.check(got == want, "monomial {} p={} e={}", combo, p, e)
    return res


def suite_ideal_order(rng) -> SuiteResult:
    res = SuiteResult("ideal_order",
                      "order function matches the differential-vanishing test")
    for F in (PrimeField(2), PrimeField(5), RationalField()):
        ctx = TruncationContext(F, 2, 8)
        for _ in range(40):
            gens = [rand_poly(rng, F, 2, 5, terms=3, min_ord=rng.choice([0, 1, 2]))
                    for _ in range(rng.choice([1, 2]))]
            got = ideal_order(gens, ctx)
            # all partials of degree < n kill the origin iff order >= n
            for n in range(1, 6):
                vanish = all(
                    hasse_apply(g, J).constant_term() == F.zero()
                    for g in gens for J in monomial_basis(2, n - 1)[0])
                res.check(vanish == got.ge(n), "n={} gens over {}", n, F)
    return res


def suite_gls_laws(rng) -> SuiteResult:
    res = SuiteResult("gls_laws", "ideal images, membership, sums and meets")
    for F in (PrimeField(2), PrimeField(3), RationalField()):
        ctx = TruncationContext(F, 2, 7)
        for _ in range(25):
            gens = [rand_poly(rng, F, 2, 4, 3, min_ord=1) for _ in range(2)]
            S = ideal_image(gens, ctx)
            # redundant generators do not change the image
            extra = gens[0].mul_trunc(rand_poly(rng, F, 2, 2, 2, nonzero=False),
                                      ctx.D) + gens[1]
            S2 = ideal_image(gens + [extra], ctx)
            res.check(S.equals(S2), "idempotence over {}", F)
            # x_i * member stays a member
            f = gens[0]
            if f.degree() + 1 <= ctx.D:
                res.check(S.contains_poly(f.shift((1, 0), ctx.D)),
                          "variable multiple stays inside")
            A = ideal_image([gens[0]], ctx)
            B = ideal_image([gens[1]], ctx)
            s = A.sum_with(B)
            t = A.intersect(B)
            res.check(A.dim + B.dim == s.dim + t.dim,
                      "dimension formula over {}", F)
            # per-degree dimension formula for homogeneous spans
            Ah = GradedSubspace.from_polys(
                ctx, [rand_poly(rng, F, 2, 3, 2).graded_component(2) for _ in range(2)])
            Bh = GradedSubspace.from_polys(
                ctx, [rand_poly(rng, F, 2, 3, 2).graded_component(2) for _ in range(2)])
            sh, th = Ah.sum_with(Bh), Ah.intersect(Bh)
            for n in range(ctx.D + 1):
                res.check(Ah.slice_dims()[n] + Bh.slice_dims()[n]
                          == sh.slice_dims()[n] + th.slice_dims()[n],
                          "graded dimension formula")
    return res


def suite_filtration_laws(rng) -> SuiteResult:
    res = SuiteResult("filtration_laws",
                      "level ideals: monotone, multiplicative, grid-stepped")
    for F in (PrimeField(2), PrimeField(3), RationalField()):
        for _ in range(12):
            spec = rand_spec(rng, F, 2, 6, rng.choice([1, 2]))
            delta = spec.grid_denominator
            levels = spec.grid_levels(4)
            for a in levels[: 8]:
                Ia = spec.ideal_at_level(a)
                b = a + Fraction(1, delta)
                res.check(Ia.contains_subspace(spec.ideal_at_level(b)),
                          "monotone at {} over {}", a, F)
                # step function: nothing changes strictly between grid points
                mid = a + Fraction(1, 2 * delta)
                res.check(spec.ideal_at_level(mid).equals(
                    spec.ideal_at_level(b)), "grid step function")
            a, b = levels[0], levels[min(1, len(levels) - 1)]
            Ia, Ib, Iab = (spec.ideal_at_level(t) for t in (a, b, a + b))
            for f in Ia.basis_polys()[:3]:
                for g in Ib.basis_polys()[:3]:
                    res.check(Iab.contains_poly(f.mul_trunc(g, spec.ctx.D)),
                              "multiplicativity over {}", F)
            # brute multiplicity: sampled elements never beat the generator min
            mu = spec.mu_P()
            if mu.is_exact:
                worst = None
                for f, a in spec.gens:
                    for g, b in spec.gens:
                        h = f.mul_trunc(g, spec.ctx.D)
                        if not h.is_zero():
                            r = Fraction(int(h.order())) / (a + b)
                            worst = r if worst is None else min(worst, r)
                ok = worst is None or worst >= mu.q
                res.check(ok, "mu_P is the infimum over sampled products")
    return res


def suite_d_saturation(rng) -> SuiteResult:
    res = SuiteResult("d_saturation",
                      "derivative closure: idempotent, enlarging, closed")
    specs = []
    for F in (PrimeField(2), PrimeField(3), RationalField()):
        for _ in range(17):
            specs.append(rand_spec(rng, F, 2, 6, rng.choice([1, 2])))
    for spec in specs:
        ds = d_saturate(spec)
        dds = d_saturate(ds)
        for a in spec.grid_levels(3):
            res.check(ds.ideal_at_level(a).equals(dds.ideal_at_level(a)),
                      "idempotence at {}", a)
            res.check(ds.ideal_at_level(a).contains_subspace(
                spec.ideal_at_level(a)), "enlargement at {}", a)
        for f, a in ds.gens:
            top = math.ceil(a) - 1
            for J in monomial_basis(spec.ctx.nvars, max(top, 0))[0]:
                g = hasse_apply(f, J)
                lvl = a - sum(J)
                if g.is_zero() or lvl <= 0 or g.degree() > spec.ctx.D:
                    continue
                res.check(ds.ideal_at_level(lvl).contains_poly(g),
                          "differential closure")
    return res


def suite_radical_probe(rng) -> SuiteResult:
    res = SuiteResult("radical_probe",
                      "probe soundness against exact monomial asymptotics")
    bounds = RadicalProbeBounds()
    for p in (2, 3, 5):
        F = PrimeField(p)
        ctx = TruncationContext(F, 2, 10)
        for _ in range(25):
            # common-level monomial filtration: radical levels are theta-exact
            vs = [rand_exps(rng, 2, 3, 1), rand_exps(rng, 2, 3, 1)]
            L = rng.choice([1, 2])
            spec = FiltrationSpec(ctx, [(Poly.monomial(F, 2, v), L) for v in vs])
            r = rand_exps(rng, 2, 2, 1)
            theta = theta_monomial([Poly.monomial(F, 2, v) for v in vs],
                                   Poly.monomial(F, 2, r))
            true_level = theta * L
            for a in (true_level / 2, true_level, true_level * 2):
                if a <= 0:
                    continue
                verdict = radical_probe(spec, Poly.monomial(F, 2, r), a, bounds)
                if verdict.member:
                    res.check(a <= true_level,
                              "unsound member at {} > theta*L={}", a, true_level)
                    continue
                # cross-check against brute integer feasibility at level a
                witness = False
                for n in range(1, bounds.n_max + 1):
                    if n * sum(r) > ctx.D:
                        continue
                    if _split_fits(vs, [n * c for c in r], math.ceil(n * a / L)):
                        witness = True
                        break
                res.check(not witness,
                          "probe missed an integral witness at level {}", a)
        # frobenius probe members must also be radical members
        for _ in range(10):
            g = rand_poly(rng, F, 2, 2, 2, min_ord=1)
            a = Fraction(rng.randint(1, 2))
            spec = FiltrationSpec(ctx, [(g.pow(p), p * a)])
            fv = frobenius_probe(spec, g, a, bounds)
            rv = radical_probe(spec, g, a, bounds)
            res.check(fv.member and rv.member,
                      "frobenius and radical probes agree on p-th powers")
    return res


def suite_ds_sd_interchange(rng) -> SuiteResult:
    res = SuiteResult("ds_sd_interchange",
                      "differentiated probe members re-certify after saturation")
    bounds = RadicalProbeBounds()
    corpus = []
    for p in (2, 3):
        F = PrimeField(p)
        ctx = TruncationContext(F, 2, 10)
        for k in range(9):
            g = rand_poly(rng, F, 2, 2, terms=2, min_ord=1)
            a = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
            extra = [(rand_poly(rng, F, 2, 3, 2, min_ord=1), Fraction(3))] \
                if k % 2 else []
            corpus.append((FiltrationSpec(ctx, [(g.pow(p), p * a)] + extra),
                           g, a))
        # monomial squares: (x^2, y^2) certify xy at level 2
        x2 = Poly.monomial(F, 2, (2, 0))
        y2 = Poly.monomial(F, 2, (0, 2))
        xy = Poly.monomial(F, 2, (1, 1))
        corpus.append((FiltrationSpec(ctx, [(x2, 2), (y2, 2)]), xy, Fraction(2)))
        corpus.extend(
            (FiltrationSpec(ctx, [(Poly.monomial(F, 2, (2 * k, 0)), 2 * k)]),
             Poly.monomial(F, 2, (k, 0)), Fraction(k)) for k in (2, 3))
    for spec, f, a in corpus:
        first = radical_probe(spec, f, a, bounds)
        res.check(first.member, "probe certifies the planted member")
        if not first.member:
            continue
        ds = d_saturate(spec)
        top = math.ceil(a) - 1
        for J in monomial_basis(spec.ctx.nvars, max(top, 0))[0]:
            g = hasse_apply(f, J)
            lvl = a - sum(J)
            if g.is_zero() or lvl <= 0:
                continue
            verdict = radical_probe(ds, g, lvl, bounds)
            res.check(verdict.member,
                      "derivative d_{} fails to re-certify at {}", J, lvl)
    return res


def suite_theta(rng) -> SuiteResult:
    res = SuiteResult("theta", "exact monomial asymptotic order vs brute force")

    def brute_theta(gen_exps, w, cap=30):
        best = Fraction(0)
        for n in range(1, cap + 1):
            target = [n * c for c in w]
            m = int(best * n)
            while _split_fits(gen_exps, target, m + 1):
                m += 1
            best = max(best, Fraction(m, n))
        return best

    F = RationalField()
    checked = 0
    trials = 0
    while checked < 50 and trials < 400:
        trials += 1
        d = rng.choice([2, 3])
        s = rng.choice([2, 3])
        gens = [rand_exps(rng, d, 5, 1) for _ in range(s)]
        w = rand_exps(rng, d, 4, 1)
        theta = theta_monomial([Poly.monomial(F, d, g) for g in gens],
                               Poly.monomial(F, d, w))
        brute = brute_theta(gens, w)
        res.check(brute <= theta, "brute force cannot exceed the exact value")
        if theta.denominator <= 30:
            res.check(theta == brute, "I={} r={}: {} vs {}", gens, w, theta, brute)
            checked += 1
        # closure rounding: r^n in closure(I^m) iff theta(I; r^n) >= m,
        # and that holds iff m/n <= theta
        n = rng.randint(1, 6)
        theta_n = theta_monomial([Poly.monomial(F, d, g) for g in gens],
                                 tuple(n * c for c in w))
        for m in range(1, 7):
            res.check((theta_n >= m) == (Fraction(m, n) <= theta),
                      "closure membership at m/n={}/{}", m, n)
    res.check(checked >= 50, "only {} brute-comparable instances drawn", checked)
    # the pinned instance
    got = theta_monomial([Poly.monomial(F, 2, (2, 0)), Poly.monomial(F, 2, (0, 3))],
                         Poly.monomial(F, 2, (1, 1)))
    res.check(got == Fraction(5, 6), "theta((x^2,y^3); xy) = 5/6")
    return res


def suite_integral_closure(rng) -> SuiteResult:
    res = SuiteResult("integral_closure",
                      "monic witnesses are accepted and probe-certified")
    bounds = RadicalProbeBounds()
    for F in (PrimeField(2), PrimeField(3), RationalField()):
        ctx = TruncationContext(F, 2, 8)
        for _ in range(20):
            g = rand_poly(rng, F, 2, 2, 2, min_ord=1)
            a = Fraction(rng.choice([1, 2]))
            n = rng.choice([2, 3])
            spec = FiltrationSpec(ctx, [(g.pow(n), n * a)])
            # g satisfies T^n - g^n = 0 with -g^n at level n*a
            coeffs = [Poly.zero(F, 2)] * (n - 1) + [-(g.pow(n))]
            res.check(is_integral_witness(spec, g, a, coeffs),
                      "power witness accepted")
            res.check(radical_probe(spec, g, a, bounds).member,
                      "witnessed element is probe-certified")
            # an unrelated element is rejected
            other = Poly.variable(F, 2, 1)
            if spec.ideal_at_level(a).contains_poly(other):
                continue
            res.check(not is_integral_witness(spec, other, a, [-other]),
                      "non-member witness rejected")
    return res


def suite_localization_regression(rng) -> SuiteResult:
    res = SuiteResult("localization_regression",
                      "global probe misses the localized radical member")
    QQ = RationalField()
    ctx = TruncationContext(QQ, 2, 8)
    x = Poly.variable(QQ, 2, 0)
    y = Poly.variable(QQ, 2, 1)
    bounds = RadicalProbeBounds()
    for i in range(1, 5):
        gens = []
        for j in range(1, i + 1):
            phi = Poly.one(QQ, 2)
            for t in range(1, j + 1):
                phi = phi * (x - Poly.const(QQ, 2, Fraction(t)))
            gens.append((phi * y, Fraction(1) - Fraction(1, j)))
        spec = FiltrationSpec(ctx, gens)
        verdict = radical_probe(spec, y, 1, bounds)
        res.check(not verdict.member,
                  "(y,1) must stay undetected with {} generators", i)
    return res


def suite_leading_pure(rng) -> SuiteResult:
    res = SuiteResult("leading_pure",
                      "pure chain, pure generation, and the system conditions")
    specs = []
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(8):
            specs.append(d_saturate(rand_spec(rng, F, 2, 8, rng.choice([1, 2]))))
        ctx = TruncationContext(F, 2, 10)
        specs.append(d_saturate(FiltrationSpec(
            ctx, [(Poly(F, 2, {(2, 0): 1, (0, 3): 1}), Fraction(2))])))
    for spec in specs:
        ctx = spec.ctx
        F = ctx.field
        p = F.char
        lgs, sig, L = extract_lgs(spec)
        emax = len(sig.values) - 1
        # chain of pure parts, root coordinates: an earlier root lies in U_e
        # iff greedy pivoting does not keep it after the roots of U_e
        prev_roots = None
        for e in range(emax + 1):
            basis, roots = pure_part(L, e)
            rows = [linear_coefficients(v) for v in roots]
            if prev_roots is not None:
                for v in prev_roots:
                    keep = greedy_independent(F, rows + [linear_coefficients(v)])
                    res.check(len(rows) not in keep, "pure chain inclusion")
            res.check(len(basis) <= ctx.nvars, "pure dimension bounded by d")
            prev_roots = roots
        # sigma monotone
        res.check(all(sig.values[i] >= sig.values[i + 1]
                      for i in range(len(sig.values) - 1)), "sigma non-increasing")
        # LGS conditions: orders, purity, lift independence, spanning
        forms = []
        for h, e in lgs:
            q = p ** e
            res.check(h.order() == q, "entry order equals its level")
            lead = h.graded_component(q)
            res.check(lead.pe_power_root(e) is not None if e else True,
                      "initial form is pure")
            forms.append((lead, q))
        for e in range(emax + 1):
            q = p ** e
            lifted = [f.pow(q // qq) for f, qq in forms if q % qq == 0 and qq <= q]
            span = GradedSubspace.from_polys(ctx, lifted)
            basis, _ = pure_part(L, e)
            res.check(span.dim == len(basis) and all(map(span.contains_poly, basis)),
                      "lifts form a pure basis at e={}", e)
        # pure generation: monomials in the initial forms span L degree-wise
        for n in range(1, ctx.D + 1):
            prods = []

            def walk(i, cur, deg):
                if deg == n:
                    prods.append(cur)
                    return
                if i >= len(forms) or deg > n:
                    return
                walk(i + 1, cur, deg)
                f, q = forms[i]
                acc, dd = cur, deg
                while dd + q <= n:
                    acc = acc.mul_trunc(f, ctx.D)
                    dd += q
                    walk(i + 1, acc, dd)

            walk(0, Poly.one(F, ctx.nvars), 0)
            span = GradedSubspace.from_polys(ctx, prods)
            target = L.piece(n)
            res.check(span.equals(target),
                      "pure generation fails in degree {} for {}", n, spec)
        # purity via composite operators: all proper splittings kill entries
        for h, e in lgs:
            q = p ** e
            if e == 0:
                continue
            for A in monomial_basis(ctx.nvars, q - 1)[0]:
                if sum(A) == 0:
                    continue
                for B in monomial_basis(ctx.nvars, q - sum(A))[0]:
                    if sum(B) == 0 or sum(A) + sum(B) != q:
                        continue
                    g = hasse_apply(hasse_apply(h, B), A)
                    res.check(g.constant_term() == F.zero(),
                              "composite operators keep entries in m")
    return res


def _swap_xy(f: Poly) -> Poly:
    """f in two variables with the variables exchanged."""
    return Poly(f.field, 2, {(e[1], e[0]): c for e, c in f.terms.items()})


def suite_sigma_mu(rng) -> SuiteResult:
    res = SuiteResult("sigma_mu", "showcase invariants and choice independence")
    F2, QQ = PrimeField(2), RationalField()
    ctx = TruncationContext(F2, 2, 10)
    wk = Poly(F2, 2, {(2, 0): 1, (0, 3): 1})  # x^2 + y^3
    Fd = d_saturate(FiltrationSpec(ctx, [(wk, Fraction(2))]))
    lgs, sig, _ = extract_lgs(Fd)
    res.check(sig.trimmed() == [2, 1, 1], "char-2 sigma {}", sig.trimmed())
    res.check(len(lgs) == 1 and lgs.entries[0][1] == 1,
              "char-2 system: one entry at e=1")
    H = HSystem(ctx, lgs)
    mt = mu_tilde(Fd, H)
    res.check(mt.is_exact and mt.q == 2, "char-2 mu_tilde {}", mt)

    ctx0 = TruncationContext(QQ, 2, 10)
    wk0 = Poly(QQ, 2, {(2, 0): Fraction(1), (0, 3): Fraction(1)})
    Fd0 = d_saturate(FiltrationSpec(ctx0, [(wk0, Fraction(2))]))
    lgs0, sig0, _ = extract_lgs(Fd0)
    res.check(list(sig0.values) == [1], "char-0 sigma {}", sig0.values)
    res.check(len(lgs0) == 1 and lgs0.entries[0][1] == 0,
              "char-0 system at e=0")

    # mu_tilde does not depend on which valid system is chosen
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(6):
            spec = d_saturate(rand_spec(rng, F, 2, 8, 2))
            lgs1, _, L = extract_lgs(spec)
            if not lgs1.entries:
                res.instances += 1
                continue
            H1 = HSystem(spec.ctx, lgs1)
            # alternative system: same extraction after swapping the variables
            swapped = FiltrationSpec(spec.ctx, [(_swap_xy(f), a) for f, a in spec.gens])
            lgs2, _, _ = extract_lgs(swapped)
            if not lgs2.entries:
                res.instances += 1
                continue
            H2 = HSystem(spec.ctx, [(_swap_xy(h), e_) for h, e_ in lgs2.entries])
            m1 = mu_tilde(spec, H1)
            m2 = mu_tilde(spec, H2)
            res.check(m1 == m2, "mu_tilde differs across systems: {} vs {}", m1, m2)
    return res


def suite_supporting_laws(rng) -> SuiteResult:
    res = SuiteResult("supporting_laws",
                      "the D_u product rule, F_v rewriting, and the meet law")
    systems = []
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(8):
            systems.append(rand_hsystem(rng, F, rng.choice([2, 3]), 10))
    for H in systems:
        ctx = H.ctx
        F = ctx.field
        p = F.char
        bound = H.u_bound()
        umax = min(3, (bound - 1) if bound is not None else 3)
        for u in range(0, umax + 1):
            for _ in range(2):
                r = rng.randint(0, 3)
                beta = rand_poly(rng, F, ctx.nvars, 5, 3, min_ord=r)
                l = rng.randrange(len(H.entries))
                res.check(supporting1_check(H, beta, l, u, r),
                          "D_u rule u={} l={}", u, l)
        for r in range(0, min(ctx.D, 8) + 1, 2):
            res.check(supporting3_check(H, r), "meet law r={}", r)
        if (bound is None and len(H.entries) >= 1) or (bound is not None and bound > 1):
            v = 1 if bound is None else min(bound - 1, 2)
            if v >= 1:
                s = rng.randint(2, 4)
                betas = [rand_poly(rng, F, ctx.nvars, 4, 2,
                                   min_ord=max(0, s - H.level(l)), nonzero=False)
                         for l in range(len(H.entries))]
                alpha = Poly.zero(F, ctx.nvars)
                for bl, hl in zip(betas, H.normalized):
                    alpha = alpha - bl.mul_trunc(hl, ctx.D)
                res.check(supporting2_check(H, alpha, betas, v, s),
                          "F_v rewriting v={} s={}", v, s)
    return res


def suite_coefficient_decomposition(rng) -> SuiteResult:
    res = SuiteResult("coefficient_decomposition",
                      "level ideals decompose along H-monomials")
    built = 0
    while built < 30:
        p = rng.choice([2, 3])
        F = PrimeField(p)
        d = rng.choice([2, 3])
        D = rng.choice([6, 8])
        H = rand_hsystem(rng, F, d, D)
        spec = d_saturate(FiltrationSpec(
            H.ctx, [(h, Fraction(p ** e)) for h, e in H.entries]))
        try:
            mu = coefficient_default_mu(spec, H, 64)
        except ValueError:
            continue
        for a in (Fraction(1), Fraction(3, 2), Fraction(2)):
            res.check(coefficient_decompose_check(spec, H, a, mu),
                      "decomposition at level {} (p={}, d={})", a, p, d)
        built += 1
    return res


def suite_nonsingularity(rng) -> SuiteResult:
    res = SuiteResult("nonsingularity",
                      "saturated systems land at level one and cut the support")
    F2 = PrimeField(2)
    ctx = TruncationContext(F2, 2, 10)
    x = Poly.variable(F2, 2, 0)
    y = Poly.variable(F2, 2, 1)
    spec = FiltrationSpec(ctx, [(x, 1), (y.pow(2), 2)])
    sat, added = b_saturate_probe(spec)
    res.check([(poly_str(g), str(a)) for g, a, _ in added] == [("y", "1")],
              "probe adds the missing square root")
    lgs, _, _ = extract_lgs(sat)
    H = HSystem(ctx, lgs)
    res.check([(poly_str(h), e) for h, e in H.entries] == [("x", 0), ("y", 0)],
              "system is {(x,0),(y,0)}")
    rep = nonsingularity_check(sat, H, probe_saturated=True)
    res.check(rep["passed"], "showcase passes all three checks")
    res.check(rep["lgs_linear_forms_independent"] is True,
              "level-one forms cut a nonsingular center")

    only_d = d_saturate(FiltrationSpec(ctx, [(y.pow(2), 2)]))
    lgs2, _, _ = extract_lgs(only_d)
    H2 = HSystem(ctx, lgs2)
    rep2 = nonsingularity_check(only_d, H2, probe_saturated=False)
    res.check(not rep2["all_level_one"]["ok"]
              and "radical-saturated" in (rep2["all_level_one"]["diagnosis"] or ""),
              "unsaturated variant is diagnosed")

    triv = FiltrationSpec(ctx, [(x, 1)])
    sat3, _ = b_saturate_probe(triv)
    lgs3, _, _ = extract_lgs(sat3)
    rep3 = nonsingularity_check(sat3, HSystem(ctx, lgs3),
                                probe_saturated=True)
    res.check(rep3["passed"], "already-saturated example passes")
    return res


def suite_report_determinism(rng) -> SuiteResult:
    res = SuiteResult("report_determinism", "byte-identical reports, spec round trip")
    import json
    from .pipeline import analyze
    from .specfile import parse_spec, print_spec
    text = """
field: GF(2)
vars: x, y
truncation: 10
gen: x^2 + y^3 @ 2
"""
    spec = parse_spec(text)
    a = json.dumps(analyze(spec), sort_keys=True)
    b = json.dumps(analyze(parse_spec(text)), sort_keys=True)
    res.check(a == b, "same input gives the same bytes")
    res.check(parse_spec(print_spec(spec)) == spec, "round trip")
    spec2 = parse_spec("field: QQ\nvars: x, y\ntruncation: 6\n"
                       "gen: x @ 1\ngen: y^2 @ 3/2\ncandidate: y @ 1\n"
                       "radical_n_max: 6\nemax: 0\n")
    res.check(parse_spec(print_spec(spec2)) == spec2, "round trip with options")
    return res


ALL_SUITES = [
    suite_hasse_basis,
    suite_product_rule,
    suite_lucas,
    suite_field_axioms,
    suite_pe_roots,
    suite_diffop_laws,
    suite_pe_power_generated,
    suite_ideal_order,
    suite_gls_laws,
    suite_filtration_laws,
    suite_d_saturation,
    suite_radical_probe,
    suite_ds_sd_interchange,
    suite_theta,
    suite_integral_closure,
    suite_localization_regression,
    suite_leading_pure,
    suite_sigma_mu,
    suite_supporting_laws,
    suite_coefficient_decomposition,
    suite_nonsingularity,
    suite_report_determinism,
]


def run_all(seed: int = 0, out=None):
    """Run every suite with per-suite derived seeds; returns (results, ok)."""
    results = []
    for i, suite in enumerate(ALL_SUITES):
        rng = random.Random(f"{seed}:{i}")
        r = suite(rng)
        results.append(r)
        if out is not None:
            print(r.line(), file=out)
    return results, all(r.passed for r in results)

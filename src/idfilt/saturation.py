"""Saturation operations on filtrations.

Differential saturation has an explicit finite presentation: adjoin every
divided partial of every generator, with the level dropped by the operator
degree.  Radical saturation (n-th roots plus level continuity, equivalently
integral closure for finitely generated filtrations) has no such finite
recipe here; it is approached by a bounded membership probe whose "member"
verdicts are sound and whose "not detected" verdicts are inconclusive.  The
composite probe pipeline under-approximates the joint saturation, which
equals radical-after-differential applied once each.

Exception: for monomial ideals the asymptotic order theta is computed
exactly from the Newton polyhedron by a small rational linear program, and
feeds candidate levels to the probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diffop import hasse_apply, log_apply
from .fields import FieldError, RationalField
from .filtration import FiltrationSpec
from .gls import monomial_basis, rref
from .poly import Poly


@dataclass(frozen=True)
class RadicalProbeBounds:
    """Search bounds: the max root exponent n_max, and the grid denominator,
    which the probe does not read: it only sets the grid step by which
    invariants.coefficient_default_mu stays below mu_H."""

    n_max: int = 8
    grid: int = 64

    def __post_init__(self):
        if self.n_max < 1 or self.grid < 1:
            raise ValueError("probe bounds must be positive")


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of a bounded radical-membership probe.

    member verdicts carry a reproducible witness exponent n, with f^n in
    I_(n*a); not-detected is inconclusive (membership may hold beyond the
    bounds), and precision_limited says no exponent fit the truncation.
    """

    member: bool
    witness_n: int | None = None
    precision_limited: bool = False


# ---------------------------------------------------------------------------
# differential saturation


def _derivative_gens(F: FiltrationSpec, apply_op):
    out = []
    for f, a in F.gens:
        top = math.ceil(a) - 1  # so |J| < a
        for J in monomial_basis(F.ctx.nvars, max(top, 0))[0]:
            level = a - sum(J)
            if level <= 0:
                continue
            g = apply_op(f, J)
            if not g.is_zero():
                out.append((g, level))
    return out


def d_saturate(F: FiltrationSpec) -> FiltrationSpec:
    """Differential saturation by the explicit generator recipe.

    The result is generated by all (d_{X^J} f, a - |J|) with |J| < a;
    derivatives landing at level <= 0 are trivial and dropped.
    """
    gens = _derivative_gens(F, lambda f, J: hasse_apply(f, J))
    return FiltrationSpec(F.ctx, gens)


def d_saturate_log(F: FiltrationSpec) -> FiltrationSpec:
    """Logarithmic differential saturation along the boundary divisor."""
    ctx = F.ctx
    if not ctx.boundary:
        return d_saturate(F)
    gens = _derivative_gens(F, lambda f, J: log_apply(f, J, ctx))
    return FiltrationSpec(ctx, gens)


# ---------------------------------------------------------------------------
# radical probe


def _probe(F: FiltrationSpec, f: Poly, a, exponents) -> ProbeVerdict:
    a = Fraction(a)
    if a <= 0:
        raise ValueError("probe level must be positive")
    degf = f.degree()
    if f.is_zero():
        return ProbeVerdict(True, witness_n=1)
    tried = False
    for n in exponents:
        if n * degf > F.ctx.D:
            continue
        tried = True
        if F.ideal_at_level(n * a).contains_poly(f.pow(n)):
            return ProbeVerdict(True, witness_n=n)
    return ProbeVerdict(False, precision_limited=not tried)


def radical_probe(F: FiltrationSpec, f: Poly, a, bounds: RadicalProbeBounds) -> ProbeVerdict:
    """Bounded test for (f, a) lying in the radical saturation.

    Tests f^n in I_(n*a) for n up to n_max.  Such an n is a monic integral
    dependence t^n - f^n of (f, a) whose one coefficient lies in I_(n*a),
    so member verdicts are sound (in the truncated model); not-detected is
    not a certificate of absence.
    """
    return _probe(F, f, a, range(1, bounds.n_max + 1))


def frobenius_probe(F: FiltrationSpec, f: Poly, a, bounds: RadicalProbeBounds) -> ProbeVerdict:
    """Radical probe restricted to p-power exponents.

    In positive characteristic the root condition for p-power exponents
    already implies the full one (given continuity), so member verdicts
    here must agree with radical_probe wherever both apply.
    """
    p = F.ctx.field.char
    if p == 0:
        raise FieldError("Frobenius probe needs positive characteristic")
    exps = []
    n = p
    while n <= bounds.n_max:
        exps.append(n)
        n *= p
    return _probe(F, f, a, exps)


# ---------------------------------------------------------------------------
# exact theta for monomial ideals


def _exps_of(mon):
    if isinstance(mon, Poly):
        if len(mon.terms) != 1:
            raise ValueError("not a monomial")
        return next(iter(mon.terms))
    return tuple(mon)


def _theta_lp(gen_exps, w):
    """max sum(lam) subject to sum lam_i v_i <= w, lam >= 0, exactly.

    Exact primal simplex on the standard form [V^T | I_d] x = w, x >= 0,
    whose last d columns are the slacks.  The slack basis is feasible because
    w >= 0, and the LP is bounded because every generator of a proper ideal
    has a positive coordinate, which bounds its lam by w there.  Each pivot is
    one elimination of [M_B | V^T | I_d | w] over QQ: its first d columns
    are the basis columns, so the columns after them are the tableau
    B^-1 [V^T | I_d | w].  Bland's rule (Bland 1977) picks the lowest
    column with positive reduced cost to enter and breaks ratio-test ties
    by the lowest basic index, so degenerate pivots cannot cycle.
    """
    vs = sorted(set(map(tuple, gen_exps)))
    # a generator dominating another never helps the maximum
    vs = [v for v in vs if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vs)]
    d, s = len(w), len(vs)
    A = [[v[i] for v in vs] + [int(k == i) for k in range(d)] + [w[i]] for i in range(d)]
    basis = list(range(s, s + d))
    QQ = RationalField()
    while True:
        red, _ = rref(QQ, [[row[j] for j in basis] + row for row in A])
        tab = [row[d:] for row in red]
        lam = [t for b, t in zip(basis, tab) if b < s]
        # reduced cost of column j: c_j - c_B B^-1 A_j, with c = 1 on lam, 0 on slacks
        enter = next((j for j in range(s + d) if (j < s) - sum(t[j] for t in lam) > 0), None)
        if enter is None:
            return Fraction(sum(t[-1] for t in lam))
        rows = [i for i, t in enumerate(tab) if t[enter] > 0]
        if not rows:
            raise ValueError("theta LP is unbounded: a generator exponent vector is zero")
        basis[min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))] = enter


def theta_monomial(I, r) -> Fraction:
    """Asymptotic order sup{m/n : r^n in I^m} of a monomial r along a
    monomial ideal I, computed exactly.

    For a monomial ideal the sup equals the optimum of the rational linear
    program over the Newton polyhedron and is attained, hence rational.  So
    X^u lies in the integral closure of I^m exactly when
    theta_monomial(I, u) >= m.  I must be a nonempty proper ideal whose
    generators have as many variables as r.
    """
    gen_exps = [_exps_of(m) for m in I]
    if not gen_exps:
        raise ValueError("need a nonempty monomial generating set")
    if any(sum(v) == 0 for v in gen_exps):
        raise ValueError("not a proper ideal")
    w = _exps_of(r)
    if any(len(v) != len(w) for v in gen_exps):
        raise ValueError("variable count mismatch")
    return _theta_lp(gen_exps, w)


# ---------------------------------------------------------------------------
# composite saturation probe


def _root_candidates(F: FiltrationSpec):
    p = F.ctx.field.char
    out = []
    if p == 0:
        return out
    for f, a in F.gens:
        e = 1
        while p ** e <= max(f.degree(), 1):
            g = f.pe_power_root(e)
            if g is None:
                break
            out.append((g, a / p ** e))
            e += 1
    return out


def _theta_candidates(F: FiltrationSpec, roots):
    """Level upgrades via exact theta, available when every generator is a
    monomial (so the common-level ideal is monomial)."""
    if not F.gens or F.trivial_full:
        return []
    if any(len(f.terms) != 1 for f, _ in F.gens):
        return []
    # the numerators' lcm is an integer multiple of every level
    L = math.lcm(*(a.numerator for _, a in F.gens))
    gen_exps = []
    for f, a in F.gens:
        k = L / a
        exps = next(iter(f.terms))
        gen_exps.append(tuple(int(k) * e for e in exps))
    out = []
    pool = [(f, a) for f, a in F.gens] + list(roots)
    for g, cur in pool:
        if len(g.terms) != 1:
            continue
        theta = _theta_lp(gen_exps, next(iter(g.terms)))
        lvl = theta * L
        if lvl > cur:
            out.append((g, lvl))
    return out


def b_saturate_probe(F: FiltrationSpec, bounds: RadicalProbeBounds = RadicalProbeBounds(),
                     candidates=(), sat: FiltrationSpec | None = None):
    """Differential saturation followed by probe-certified radical additions.

    Candidate pool: p^e-th roots of the differentially saturated
    generators, exact theta upgrades when the generators are all monomial,
    and caller-supplied pairs.  Every probe member not already in the
    saturation (witness n = 1) is adjoined and the result re-closed under
    derivatives, so each addition genuinely lies in the joint saturation;
    the output under-approximates it.  A caller that has d_saturate_log(F)
    already passes it as sat; the probe's level ideals are cached on a copy
    of it, so the caller's object does not hold them.

    Returns (saturated FiltrationSpec, list of (poly, level, witness_n)).
    """
    sat = d_saturate_log(F) if sat is None else sat.copy()
    roots = _root_candidates(sat)
    pool = list(roots) + _theta_candidates(sat, roots) + \
        [(g, Fraction(a)) for g, a in candidates]
    added = []
    seen = set()
    for g, a in pool:
        a = Fraction(a)
        if a <= 0 or g.is_zero():
            continue
        key = (a, g.sort_key())
        if key in seen:
            continue
        seen.add(key)
        verdict = radical_probe(sat, g, a, bounds)
        # witness n = 1 is g in I_a itself: a member already, nothing to add
        if verdict.member and verdict.witness_n != 1:
            added.append((g, a, verdict.witness_n))
    if not added:
        return sat, []
    enriched = FiltrationSpec(F.ctx, list(sat.gens) + [(g, a) for g, a, _ in added])
    closed = d_saturate_log(enriched)
    return closed, added

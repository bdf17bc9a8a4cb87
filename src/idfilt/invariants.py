"""Order modulo an H-system, mu-tilde, and the nonsingularity machinery.

An H-system is a list of filtration elements h_l at Frobenius levels p^e_l
with pure, jointly independent initial forms (a leading generator system,
or the slightly weaker variant that only asks for independence).  A linear
change of variables normalizes the initial forms to pure powers of the
first N variables; in those coordinates one can build the operator D_u,
which acts like a divided partial "in the direction of h_L", and derive the
rewriting machinery behind the coefficient decomposition and the
nonsingularity criterion.

ord_H(f) is the largest n with f in m^n + (H).  With graded-lex echelon
bases this is one reduction: eliminating f against the canonical basis of
the ideal image leaves a residue whose order IS ord_H(f), because echelon
rows live in the span of monomials at or above their pivot degree.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import DiffOp
from .filtration import FiltrationSpec
from .gls import GradedSubspace, ideal_image, power_m, rref, subspace_intersect
from .leading import LGS
from .poly import Poly, TruncationContext
from .values import SatValue, sat_min


def _ceil_frac(q: Fraction) -> int:
    return -(-q.numerator // q.denominator)


def _inverse(field, M):
    """Inverse of a square matrix over field, or None when it is singular."""
    n = len(M)
    red, piv = rref(field, [list(M[i]) + [field.one() if j == i else field.zero()
                                          for j in range(n)] for i in range(n)])
    if piv != list(range(n)):
        return None
    return [row[n:] for row in red]


class HSystem:
    """Elements with pure independent initial forms, plus normalizing coords.

    Conditions checked at construction: ord(h_l) equals p^e_l, the initial
    form is the p^e_l-th power of a linear form, and those root forms are
    linearly independent.  Whether the initial forms also span every pure
    part (the full leading-generator-system condition) is recorded in
    spanning_checked, not re-derived here.
    """

    __slots__ = ("ctx", "entries", "roots", "normalized", "spanning_checked",
                 "_ideal_space")

    def __init__(self, ctx: TruncationContext, entries, spanning_checked=False):
        entries = sorted(entries, key=lambda he: he[1])
        p = ctx.field.char
        roots = []
        for h, e in entries:
            if p == 0 and e > 0:
                raise ValueError("positive Frobenius level in characteristic 0")
            q = p ** e if p else 1
            if h.order() != q:
                raise ValueError("entry order does not match its level")
            lead = h.graded_component(q)
            v = lead.pe_power_root(e) if e > 0 else lead
            if v is None or v.degree() != 1 or not v.graded_component(0).is_zero():
                raise ValueError("initial form is not a pure power of a linear form")
            roots.append(v)
        if roots:
            span = GradedSubspace.from_polys(ctx, roots)
            if span.dim != len(roots):
                raise ValueError("initial-form roots are linearly dependent")
        self.ctx = ctx
        self.entries = tuple((h, e) for h, e in entries)
        self.roots = tuple(roots)
        self.spanning_checked = spanning_checked
        self.normalized = self._normalize()
        self._ideal_space = None

    @staticmethod
    def from_lgs(ctx: TruncationContext, lgs: LGS) -> "HSystem":
        return HSystem(ctx, list(lgs.entries), spanning_checked=True)

    # --- normalizing coordinates -------------------------------------------

    def _coords_matrix(self):
        """Rows: root forms extended to a basis by greedy unit vectors."""
        ctx = self.ctx
        F = ctx.field
        d = ctx.nvars
        rows = []
        for v in self.roots:
            row = [F.zero()] * d
            for exps, c in v.terms.items():
                row[exps.index(1)] = c
            rows.append(row)
        for i in range(d):
            if len(rows) == d:
                break
            unit = [F.one() if j == i else F.zero() for j in range(d)]
            _, piv = rref(F, rows + [unit])
            if len(piv) == len(rows) + 1:
                rows.append(unit)
        return rows

    def _normalize(self):
        """Entries rewritten in coordinates where h_l = z_l^(p^e_l) + h.o.t."""
        if not self.entries:
            return ()
        ctx = self.ctx
        V = self._coords_matrix()
        Vinv = _inverse(ctx.field, V)
        if Vinv is None:
            raise ValueError("coords do not normalize the system")
        return tuple(h.substitute_linear(Vinv).truncate(ctx.D)
                     for h, _ in self.entries)

    # --- level bookkeeping ---------------------------------------------------

    @property
    def exponents(self):
        return [e for _, e in self.entries]

    def level(self, l: int) -> int:
        p = self.ctx.field.char
        return p ** self.entries[l][1] if p else 1

    @property
    def e_min(self) -> int:
        return self.entries[0][1]

    @property
    def min_block(self) -> int:
        """Number L of entries at the minimal Frobenius level."""
        e = self.e_min
        return sum(1 for _, ee in self.entries if ee == e)

    @property
    def e_next(self):
        """Next distinct exponent, or None when the block is everything."""
        e = self.e_min
        rest = [ee for _, ee in self.entries if ee > e]
        return min(rest) if rest else None

    def u_bound(self):
        """D_u is defined for 0 <= u < p^(e_next - e_min); None if unbounded."""
        if self.e_next is None:
            return None
        p = self.ctx.field.char
        return p ** (self.e_next - self.e_min)

    def ideal_space(self) -> GradedSubspace:
        if self._ideal_space is None:
            self._ideal_space = ideal_image([h for h, _ in self.entries], self.ctx).space
        return self._ideal_space

    def polys(self):
        return [h for h, _ in self.entries]

    def to_json(self):
        from .poly import poly_str
        p = self.ctx.field.char
        return [{"h": poly_str(h), "e": e, "level": p ** e if p else 1}
                for h, e in self.entries]


# ---------------------------------------------------------------------------
# ord_H and mu-tilde


def ord_H(f: Poly, H: HSystem) -> SatValue:
    """sup{n : f in m^n + (H)}, measured in the truncated ring.

    The graded-lex residue of f modulo the ideal image has order exactly
    ord_H(f); a zero residue means membership at full truncation, reported
    as infinity established at precision D.
    """
    r = H.ideal_space().reduce_poly(f.truncate(H.ctx.D))
    if r.is_zero():
        if not H.entries and f.is_zero():
            return SatValue.infinity()
        return SatValue.infinity(at_precision=bool(H.entries))
    return SatValue.exact(int(r.order()))


def mu_tilde(F: FiltrationSpec, H: HSystem) -> SatValue:
    """inf of ord_H(f)/a over the generators (valid for generated
    filtrations by superadditivity of ord_H over products and sums)."""
    vals = []
    for f, a in F.gens:
        vals.append(ord_H(f, H).over(a))
    return sat_min(vals)


# ---------------------------------------------------------------------------
# the operators D_u and F_v (in normalized coordinates)


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _inverse_matrix_trunc(H: HSystem, M):
    """Inverse of a matrix of truncated ring elements with unit constant
    term, by the terminating geometric series on the maximal-ideal part."""
    ctx = H.ctx
    F = ctx.field
    L = len(M)
    M0 = [[M[i][j].constant_term() for j in range(L)] for i in range(L)]
    C0 = _inverse(F, M0)
    if C0 is None:
        raise ValueError("coords do not normalize the system")
    # A = C0*M = I + N with N in m
    def matmul(A, B):
        out = []
        for i in range(L):
            row = []
            for j in range(L):
                acc = Poly.zero(F, ctx.nvars)
                for k in range(L):
                    a = A[i][k]
                    b = B[k][j]
                    if isinstance(a, Poly) and isinstance(b, Poly):
                        acc = acc + a.mul_trunc(b, ctx.D)
                    elif isinstance(a, Poly):
                        acc = acc + a.scale(b)
                    else:
                        acc = acc + b.scale(a)
                row.append(acc)
            out.append(row)
        return out

    A = matmul(C0, M)
    N = [[A[i][j] - (Poly.one(F, ctx.nvars) if i == j else Poly.zero(F, ctx.nvars))
          for j in range(L)] for i in range(L)]
    # sum over k of (-N)^k, stops once the power vanishes in the quotient
    series = [[Poly.one(F, ctx.nvars) if i == j else Poly.zero(F, ctx.nvars)
               for j in range(L)] for i in range(L)]
    term = [[Poly.one(F, ctx.nvars) if i == j else Poly.zero(F, ctx.nvars)
             for j in range(L)] for i in range(L)]
    negN = [[-N[i][j] for j in range(L)] for i in range(L)]
    for _ in range(ctx.D):
        term = matmul(term, negN)
        if all(term[i][j].is_zero() for i in range(L) for j in range(L)):
            break
        series = [[series[i][j] + term[i][j] for j in range(L)] for i in range(L)]
    return matmul(series, C0)


def du_matrix(H: HSystem):
    """M = [d_{z_i^(p^e)}(h_l)] over the minimal-level block, normalized
    coordinates; its constant part is the identity by construction."""
    from .diffop import hasse_apply
    ctx = H.ctx
    p = ctx.field.char
    e = H.e_min
    q = p ** e if p else 1
    L = H.min_block
    M = []
    for i in range(L):
        J = tuple(q if k == i else 0 for k in range(ctx.nvars))
        M.append([hasse_apply(H.normalized[l], J) for l in range(L)])
    return M


def build_Du(H: HSystem, u: int) -> DiffOp:
    """The operator sum over |T|=u of c^T d_{X^(p^e T)}, with C the inverse
    of the normalized-block matrix; acts in normalized coordinates.
    D_0 is the identity and D_(-1) is zero by convention."""
    ctx = H.ctx
    if u < 0:
        return DiffOp.zero(ctx)
    if u == 0:
        return DiffOp.identity(ctx)
    if not H.entries:
        raise ValueError("empty system has no D_u")
    bound = H.u_bound()
    if bound is not None and u >= bound:
        raise ValueError("u out of range for this system")
    p = ctx.field.char
    q = p ** H.e_min if p else 1
    L = H.min_block
    C = _inverse_matrix_trunc(H, du_matrix(H))
    last = C[L - 1]
    summands = []
    for T in _compositions(u, L):
        coeff = Poly.one(ctx.field, ctx.nvars)
        for j, t in enumerate(T):
            if t:
                coeff = coeff.mul_trunc(last[j].pow_trunc(t, ctx.D), ctx.D)
        if coeff.is_zero():
            continue
        J = tuple(q * T[i] if i < L else 0 for i in range(ctx.nvars))
        summands.append((coeff, J))
    return DiffOp(ctx, summands)


def build_Fv(H: HSystem, v: int) -> DiffOp:
    """F_v = sum_{u=1..v} (-1)^u h_L^(u-1) D_u, normalized coordinates."""
    ctx = H.ctx
    if v < 1:
        raise ValueError("v must be at least 1")
    hL = H.normalized[H.min_block - 1]
    out = DiffOp.zero(ctx)
    sign_minus = ctx.field.neg(ctx.field.one())
    for u in range(1, v + 1):
        term = build_Du(H, u).mul_poly(hL.pow_trunc(u - 1, ctx.D))
        if u % 2 == 1:
            term = term.scale(sign_minus)
        out = out + term
    return out


def _congruent(a: Poly, b: Poly, power: int, D: int) -> bool:
    """a == b modulo m^power, compared within the truncation window."""
    cut = min(power, D + 1)
    diff = a - b
    return all(sum(e) >= cut for e in diff.terms)


def supporting1_check(H: HSystem, beta: Poly, l: int, u: int, r: int) -> bool:
    """D_u(beta h_l) == (D_u beta) h_l + delta_{L,l} D_(u-1) beta modulo
    m^(r + p^e_l - u p^e + 1); beta is given in normalized coordinates."""
    ctx = H.ctx
    if r < 0 or u < 0:
        raise ValueError("u and r must be nonnegative")
    bound = H.u_bound()
    if bound is not None and u >= bound:
        raise ValueError("u out of range for this system")
    if beta.order() < r:
        raise ValueError("beta must lie in m^r")
    p = ctx.field.char
    q = p ** H.e_min if p else 1
    hl = H.normalized[l]
    Du = build_Du(H, u)
    Dum1 = build_Du(H, u - 1)
    lhs = Du.apply(beta.mul_trunc(hl, ctx.D))
    rhs = Du.apply(beta).mul_trunc(hl, ctx.D)
    if l == H.min_block - 1:
        rhs = rhs + Dum1.apply(beta)
    power = r + H.level(l) - u * q + 1
    return _congruent(lhs, rhs, power, ctx.D)


def supporting2_check(H: HSystem, alpha: Poly, betas, v: int, s: int) -> bool:
    """The F_v rewriting congruence: with alpha + sum beta_l h_l in m^(s+1)
    and ord(beta_l) >= s - p^e_l, the L-th coefficient satisfies
    beta_L == F_v alpha + (-1)^v h_L^v D_v beta_L + sum_{l != L} (F_v beta_l) h_l
    modulo m^(s - p^e + 1); everything in normalized coordinates."""
    ctx = H.ctx
    p = ctx.field.char
    q = p ** H.e_min if p else 1
    bound = H.u_bound()
    if v < 1 or (bound is not None and v >= bound):
        raise ValueError("v out of range for this system")
    if len(betas) != len(H.entries):
        raise ValueError("one beta per system entry")
    acc = alpha
    for bl, hl in zip(betas, H.normalized):
        acc = acc + bl.mul_trunc(hl, ctx.D)
    if acc.order() < s + 1:
        raise ValueError("alpha + sum beta_l h_l must lie in m^(s+1)")
    for l, bl in enumerate(betas):
        if bl.order() < s - H.level(l):
            raise ValueError("beta_l must lie in m^(s - p^e_l)")
    Lidx = H.min_block - 1
    Fv = build_Fv(H, v)
    Dv = build_Du(H, v)
    hL = H.normalized[Lidx]
    rhs = Fv.apply(alpha)
    tail = hL.pow_trunc(v, ctx.D).mul_trunc(Dv.apply(betas[Lidx]), ctx.D)
    if v % 2 == 1:
        tail = -tail
    rhs = rhs + tail
    for l, bl in enumerate(betas):
        if l != Lidx:
            rhs = rhs + Fv.apply(bl).mul_trunc(H.normalized[l], ctx.D)
    return _congruent(betas[Lidx], rhs, s - q + 1, ctx.D)


def coefficient_default_mu(F: FiltrationSpec, H: HSystem, grid: int = 64) -> Fraction:
    """A valid mu below mu_H: one grid step under a finite value, or any
    large number when mu_H is infinite (the statement then needs none)."""
    m = mu_tilde(F, H)
    if m.is_infinite:
        return Fraction(F.ctx.D * max(1, len(H.entries) + 1))
    return max(Fraction(0), m.q - Fraction(1, grid))


def _h_power(H: HSystem, B, D: int) -> Poly:
    out = Poly.one(H.ctx.field, H.ctx.nvars)
    for (h, _), b in zip(H.entries, B):
        if b:
            out = out.mul_trunc(h.pow_trunc(b, D), D)
    return out


def _b_range(H: HSystem, a: Fraction):
    """All exponent vectors B with |[B]| < a + p^(e_N)."""
    p = H.ctx.field.char
    levels = [p ** e if p else 1 for _, e in H.entries]
    top = a + (levels[-1] if levels else 1)
    out = []

    def walk(i, cur, weight):
        if i == len(levels):
            out.append(tuple(cur))
            return
        b = 0
        while weight + b * levels[i] < top:
            walk(i + 1, cur + [b], weight + b * levels[i])
            b += 1

    walk(0, [], Fraction(0))
    return out


def coefficient_decompose_check(F: FiltrationSpec, H: HSystem, a, mu) -> bool:
    """Does I_a equal the sum over B of I'_(a-|[B]|) H^B, where
    I'_t = I_t intersect m^(ceil(mu t)); requires mu below mu_H."""
    ctx = F.ctx
    a = Fraction(a)
    mu = Fraction(mu)
    mh = mu_tilde(F, H)
    if not mh.is_infinite and mh.q <= mu:
        raise ValueError("hypothesis violated: mu must be below mu_H")
    lhs = F.ideal_at_level(a).space
    if a <= 0:
        return lhs.dim == power_m(0, ctx).dim
    rhs = GradedSubspace.zero(ctx)
    p = ctx.field.char
    levels = [p ** e if p else 1 for _, e in H.entries]
    for B in _b_range(H, a):
        t = a - sum(b * q for b, q in zip(B, levels))
        hb = _h_power(H, B, ctx.D)
        if hb.is_zero():
            continue
        if t <= 0:
            term = ideal_image([hb], ctx).space
        else:
            cut = _ceil_frac(mu * t)
            it = subspace_intersect(F.ideal_at_level(t).space, power_m(cut, ctx))
            rows = [f.mul_trunc(hb, ctx.D) for f in it.basis_polys()]
            term = GradedSubspace.from_polys(ctx, [f for f in rows if not f.is_zero()])
        rhs = rhs.sum_with(term)
    return rhs.equals(lhs)


def supporting3_check(H: HSystem, r: int) -> bool:
    """(sum R h_l) intersect m^r == sum m^(r - p^e_l) h_l at truncation."""
    ctx = H.ctx
    if r < 0 or r > ctx.D:
        raise ValueError("r out of range")
    lhs = subspace_intersect(H.ideal_space(), power_m(r, ctx))
    from .gls import monomial_basis, poly_to_vec
    mons, _, _ = monomial_basis(ctx.nvars, ctx.D)
    vecs = []
    for l, (h, _) in enumerate(H.entries):
        low = max(0, r - H.level(l))
        ht = h.truncate(ctx.D)
        budget = ctx.D - int(ht.order())
        for A in mons:
            if low <= sum(A) <= budget:
                g = ht.shift(A, ctx.D)
                if not g.is_zero():
                    vecs.append(poly_to_vec(g, ctx))
    rhs = GradedSubspace.from_vectors(ctx, vecs)
    return lhs.equals(rhs)


# ---------------------------------------------------------------------------
# nonsingularity principle


def nonsingularity_check(F: FiltrationSpec, H: HSystem,
                         probe_saturated: bool = False) -> dict:
    """Verify the three conclusions of the nonsingularity criterion.

    Requires mu_H infinite.  (1) every level ideal is generated by the
    H-monomials of at least that weight; (2) all entries sit at level one;
    (3) the origin lies in the support exactly when it lies on V(H).
    A failing (2) on saturated input is diagnosed as insufficient radical
    saturation rather than a defect of the system.
    """
    ctx = F.ctx
    mh = mu_tilde(F, H)
    if not mh.is_infinite:
        raise ValueError("theorem hypotheses not met: mu_H is finite")
    p = ctx.field.char
    levels = [p ** e if p else 1 for _, e in H.entries]

    gen_fail = []
    for a in F.grid_levels():
        keep = [_h_power(H, B, ctx.D)
                for B in _b_range(H, a)
                if sum(b * q for b, q in zip(B, levels)) >= a]
        rhs = ideal_image([g for g in keep if not g.is_zero()], ctx)
        lhs = F.ideal_at_level(a)
        if not rhs.space.contains_subspace(lhs.space):
            gen_fail.append(a)
    bad = [(h, e) for h, e in H.entries if e != 0]
    diagnosis = None
    if bad:
        diagnosis = ("entries above level one; the filtration is not "
                     "radical-saturated enough"
                     + (" at the current probe bounds (raise n_max/grid or "
                        "supply root candidates)"
                        if probe_saturated else
                        " (apply the radical probe before this check)"))
    in_supp = F.in_support()
    on_vh = all(h.constant_term() == ctx.field.zero() for h, _ in H.entries)

    from .poly import poly_str
    report = {
        "generated_by_h": {"ok": not gen_fail,
                           "failing_levels": [str(a) for a in gen_fail]},
        "all_level_one": {"ok": not bad,
                          "entries": [{"h": poly_str(h), "e": e} for h, e in bad],
                          "diagnosis": diagnosis},
        "support": {"origin_in_support": in_supp, "origin_on_vh": on_vh,
                    "ok": in_supp == on_vh},
        "lgs_linear_forms_independent": None,
    }
    if not bad and H.entries:
        lin = [h.graded_component(1) for h, _ in H.entries]
        span = GradedSubspace.from_polys(ctx, lin)
        report["lgs_linear_forms_independent"] = span.dim == len(H.entries)
    report["passed"] = bool(report["generated_by_h"]["ok"]
                            and report["all_level_one"]["ok"]
                            and report["support"]["ok"])
    return report

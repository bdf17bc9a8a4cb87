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

The ideals generated by the H-monomials of weight >= a are the level ideals
of one filtration, HSystem.filtration(), generated by the pairs
(h_l, p^e_l); (H) is its level-1 ideal.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .diffop import DiffOp
from .filtration import FiltrationSpec
from .gls import Coords, GradedSubspace, monomial_basis, multiples, power_m, rref
from .leading import linear_coefficients
from .poly import Poly, TruncationContext
from .values import SatValue, sat_min


class HSystem:
    """Elements with pure independent initial forms, plus normalizing coords.

    Conditions checked at construction: ord(h_l) equals p^e_l, the initial
    form is the p^e_l-th power of a linear form, and those root forms are
    linearly independent.  The last check falls out of the one elimination
    that picks the normalizing coordinates.  Whether the initial forms also
    span every pure part (the full leading-generator-system condition) is
    not checked here.
    """

    __slots__ = ("ctx", "entries", "roots", "normalized", "_filtration", "_ord", "_du_row")

    def __init__(self, ctx: TruncationContext, entries):
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
            v = lead.pe_power_root(e)
            if v is None or v.degree() != 1 or not v.graded_component(0).is_zero():
                raise ValueError("initial form is not a pure power of a linear form")
            roots.append(v)
        self.ctx = ctx
        self.entries = tuple((h, e) for h, e in entries)
        self.roots = tuple(roots)
        self.normalized = self._normalize()
        self._filtration = None
        self._ord = {}  # f -> ord_H(f), filled by ord_H
        self._du_row = None  # D_u's coefficient row, filled by build_Du

    # --- normalizing coordinates -------------------------------------------

    def _coords(self):
        """(V, V^-1): the rows of V are the root forms, extended to a basis
        by greedy unit vectors.

        One elimination of [W | I_d], where the columns of W are the k roots
        and then the d unit vectors.  Its pivots, all in W, are the greedy
        keep: the unit vectors it keeps complete the basis, and a root it
        skips means the roots are dependent.  The kept columns of W are V^T,
        which the elimination turns into I_d, so the right block is
        (V^T)^-1, the transpose of V^-1.
        """
        F = self.ctx.field
        d, k = self.ctx.nvars, len(self.roots)
        units = [[F.one() if j == i else F.zero() for j in range(d)] for i in range(d)]
        cols = [linear_coefficients(v) for v in self.roots] + units
        red, keep = rref(F, [list(row) + unit for row, unit in zip(zip(*cols), units)])
        if keep[:k] != list(range(k)):
            raise ValueError("initial-form roots are linearly dependent")
        return [cols[c] for c in keep], [list(col) for col in zip(*(row[k + d:] for row in red))]

    def _normalize(self):
        """Entries rewritten in coordinates where h_l = z_l^(p^e_l) + h.o.t."""
        if not self.entries:
            return ()
        _, Vinv = self._coords()
        return tuple(h.substitute_linear(Vinv).truncate(self.ctx.D)
                     for h, _ in self.entries)

    # --- level bookkeeping ---------------------------------------------------

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

    def filtration(self) -> FiltrationSpec:
        """The filtration generated by the pairs (h_l, p^e_l)."""
        if self._filtration is None:
            self._filtration = FiltrationSpec(
                self.ctx, [(h, self.level(l)) for l, (h, _) in enumerate(self.entries)])
        return self._filtration

    def ideal_space(self) -> GradedSubspace:
        """The image of the ideal (H)."""
        return self.filtration().ideal_at_level(1)

    def to_json(self):
        from .poly import poly_str
        return [{"h": poly_str(h), "e": e, "level": self.level(l)}
                for l, (h, e) in enumerate(self.entries)]


# ---------------------------------------------------------------------------
# ord_H and mu-tilde


def ord_H(f: Poly, H: HSystem) -> SatValue:
    """sup{n : f in m^n + (H)}, measured in the truncated ring.

    The graded-lex residue of f modulo the ideal image has order exactly
    ord_H(f); a zero residue means membership at full truncation, reported
    as infinity established at precision D.  The value is kept on H.
    """
    v = H._ord.get(f)
    if v is None:
        r = H.ideal_space().reduce_poly(f.truncate(H.ctx.D))
        v = H._ord[f] = (SatValue.infinity(at_precision=bool(H.entries))
                         if r.is_zero() else SatValue.exact(int(r.order())))
    return v


def mu_tilde(F: FiltrationSpec, H: HSystem) -> SatValue:
    """inf of ord_H(f)/a over the generators (valid for generated
    filtrations by superadditivity of ord_H over products and sums)."""
    return sat_min(ord_H(f, H).over(a) for f, a in F.gens)


# ---------------------------------------------------------------------------
# the operators D_u and F_v (in normalized coordinates)


def _inverse_last_row(H: HSystem, M):
    """Last row of M^-1, for a matrix M of truncated ring elements whose
    constant part is the identity (as du_matrix's is), by the terminating
    series e_L times the sum over k of (I - M)^k: one row times a matrix
    per term."""
    ctx = H.ctx
    L = len(M)
    one = Poly.one(ctx.field, ctx.nvars)
    zero = Poly.zero(ctx.field, ctx.nvars)
    step = [[(one if i == j else zero) - M[i][j] for j in range(L)] for i in range(L)]
    # I - M lies in m, so its powers vanish in the quotient by k = D + 1
    series = term = [one if j == L - 1 else zero for j in range(L)]
    for _ in range(ctx.D):
        term = [sum((term[k].mul_trunc(step[k][j], ctx.D) for k in range(L)), zero)
                for j in range(L)]
        if all(t.is_zero() for t in term):
            break
        series = [s + t for s, t in zip(series, term)]
    return series


def du_matrix(H: HSystem):
    """M = [d_{z_i^(p^e)}(h_l)] over the minimal-level block, normalized
    coordinates; its constant part is the identity by construction."""
    from .diffop import hasse_apply
    ctx = H.ctx
    q = H.level(0)
    L = H.min_block
    M = []
    for i in range(L):
        J = tuple(q if k == i else 0 for k in range(ctx.nvars))
        M.append([hasse_apply(H.normalized[l], J) for l in range(L)])
    return M


def build_Du(H: HSystem, u: int) -> DiffOp:
    """The operator sum over |T|=u of c^T d_{X^(p^e T)}, with c the last
    row of the inverse of the normalized-block matrix; acts in normalized
    coordinates.  D_0 is the identity and D_(-1) is zero by convention."""
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
    q = H.level(0)
    L = H.min_block
    if H._du_row is None:
        H._du_row = _inverse_last_row(H, du_matrix(H))
    summands = []
    mons, _, degree_of = monomial_basis(L, u)
    for T in mons[bisect_left(degree_of, u):]:  # the exponents of degree u
        coeff = Poly.one(ctx.field, ctx.nvars)
        for j, t in enumerate(T):
            if t:
                coeff = coeff.mul_trunc(H._du_row[j].pow_trunc(t, ctx.D), ctx.D)
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
    q = H.level(0)
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
    q = H.level(0)
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
    """All exponent vectors B with |[B]| < a."""
    levels = [H.level(l) for l in range(len(H.entries))]
    out = []

    def walk(i, cur, weight):
        if i == len(levels):
            out.append(tuple(cur))
            return
        b = 0
        while weight + b * levels[i] < a:
            walk(i + 1, cur + [b], weight + b * levels[i])
            b += 1

    walk(0, [], Fraction(0))
    return out


def coefficient_decompose_check(F: FiltrationSpec, H: HSystem, a, mu) -> bool:
    """Does I_a equal the sum over B of I'_(a-|[B]|) H^B, where
    I'_t = I_t intersect m^(ceil(mu t)); requires mu below mu_H.  The terms
    with |[B]| >= a (I'_t = R) span H.filtration()'s level-a ideal together."""
    ctx = F.ctx
    a = Fraction(a)
    mu = Fraction(mu)
    mh = mu_tilde(F, H)
    if not mh.is_infinite and mh.q <= mu:
        raise ValueError("hypothesis violated: mu must be below mu_H")
    lhs = F.ideal_at_level(a)
    if a <= 0:
        return lhs.dim == len(monomial_basis(ctx.nvars, ctx.D)[0])
    blocks = [H.filtration().ideal_at_level(a).basis]
    for B in _b_range(H, a):
        hb = _h_power(H, B, ctx.D)
        if hb.is_zero():
            continue
        t = a - sum(b * H.level(l) for l, b in enumerate(B))
        it = F.ideal_at_level(t).meet_power_m(math.ceil(mu * t))
        if not any(B):  # H^B = 1: the basis of I'_a as it is
            blocks.append(it.basis)
            continue
        prods = [f.mul_trunc(hb, ctx.D) for f in it.basis_polys()]
        blocks.append(Coords.of_polys(prods, ctx))
    return GradedSubspace.from_vectors(ctx, Coords.stack(blocks)).equals(lhs)


def supporting3_check(H: HSystem, r: int) -> bool:
    """(sum R h_l) intersect m^r == sum m^(r - p^e_l) h_l at truncation.

    ord(h_l) = p^e_l, so the right side lies in the left one by
    construction, and they are equal when the right side's rank reaches
    the left side's dim."""
    ctx = H.ctx
    if r < 0 or r > ctx.D:
        raise ValueError("r out of range")
    blocks = [multiples(h, ctx, power_m(r - H.level(l), ctx).basis.cols)
              for l, (h, _) in enumerate(H.entries)] or [Coords.of_polys([], ctx)]
    rank = GradedSubspace.from_vectors(ctx, Coords.stack(blocks)).dim
    return H.ideal_space().meet_power_m(r).dim == rank


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

    (1) is decided from the generators first: I_a is spanned by multiples
    of generator products whose levels sum to at least a, and H's
    filtration is decreasing and multiplicative (also modulo m^(D+1)), so
    once every generator (f, a) lies in its level-a ideal no level can
    fail.  Only when some generator does not is every grid level tested,
    which is exact and names the failing levels.
    """
    ctx = F.ctx
    mh = mu_tilde(F, H)
    if not mh.is_infinite:
        raise ValueError("theorem hypotheses not met: mu_H is finite")
    HF = H.filtration()
    gen_fail = []
    if not all(HF.ideal_at_level(a).contains_poly(f.truncate(ctx.D))
               for f, a in F.gens):
        for a in F.grid_levels():
            if not HF.ideal_at_level(a).contains_subspace(F.ideal_at_level(a)):
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
        # at level one the roots are the linear parts, and HSystem refuses
        # dependent roots
        "lgs_linear_forms_independent": True if not bad and H.entries else None,
    }
    report["passed"] = bool(report["generated_by_h"]["ok"]
                            and report["all_level_one"]["ok"]
                            and report["support"]["ok"])
    return report

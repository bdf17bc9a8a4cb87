import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from idfilt import invariants, pipeline
from idfilt.fields import ExtensionField, PrimeField, RationalField
from idfilt.filtration import FiltrationSpec
from idfilt.gls import Coords, GradedSubspace, ideal_image, monomial_basis
from idfilt.invariants import (HSystem, _b_range, _h_power, _inverse_last_row, build_Du,
                               build_Fv, coefficient_decompose_check, du_matrix,
                               coefficient_default_mu, mu_tilde,
                               nonsingularity_check, ord_H,
                               supporting1_check, supporting2_check,
                               supporting3_check)
from idfilt.leading import extract_lgs
from idfilt.pipeline import analyze
from idfilt.poly import Poly, poly_str
from idfilt.saturation import b_saturate_probe, d_saturate
from idfilt.specfile import parse_spec
from idfilt.values import SatValue
from idfilt.verify import rand_hsystem, rand_poly
from tests.conftest import ctx_of, mk


def showcase_sat(F2):
    ctx = ctx_of(F2, 2, 10)
    return d_saturate(FiltrationSpec(ctx, [(mk(F2, "x^2 + y^3"), 2)]))


def test_hsystem_validation(F2, QQ):
    ctx = ctx_of(F2, 2, 10)
    HSystem(ctx, [(mk(F2, "x^2 + y^3"), 1)])
    with pytest.raises(ValueError):
        HSystem(ctx, [(mk(F2, "x*y"), 1)])  # initial form not pure
    with pytest.raises(ValueError):
        HSystem(ctx, [(mk(F2, "x^3"), 1)])  # order does not match the level
    with pytest.raises(ValueError):
        HSystem(ctx, [(mk(F2, "x^2"), 1), (mk(F2, "x^2 + y^3"), 1)])  # same root
    with pytest.raises(ValueError):
        HSystem(ctx_of(QQ, 2, 10), [(mk(QQ, "x^2"), 1)])  # char 0, e > 0


def test_hsystem_dependent_roots(F2, QQ):
    for F in (F2, QQ):
        ctx = ctx_of(F, 2, 10)
        with pytest.raises(ValueError, match="initial-form roots are linearly dependent"):
            HSystem(ctx, [(mk(F, "x"), 0), (mk(F, "x + y^2"), 0)])


def test_hsystem_coords_complete_roots_greedily(F3):
    # root x + y: e_x completes it, e_y is then dependent, e_z completes it
    # V^-1 comes out of the same elimination
    ctx = ctx_of(F3, 3, 6)
    H = HSystem(ctx, [(mk(F3, "x + y", ("x", "y", "z")), 0)])
    assert H._coords() == ([[1, 1, 0], [1, 0, 0], [0, 0, 1]],
                           [[0, 1, 0], [1, 2, 0], [0, 0, 1]])
    H = HSystem(ctx, [(mk(F3, "y^3 + z^4", ("x", "y", "z")), 1)])
    assert H._coords() == ([[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                           [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_ord_h_examples(F2):
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x^2 + y^3"), 1)])
    got = ord_H(mk(F2, "y^3"), H)
    assert got.is_exact and got.q == 3
    assert ord_H(mk(F2, "x^2 + y^3"), H).is_infinite
    empty = HSystem(ctx, [])
    plain = ord_H(mk(F2, "x^2"), empty)
    assert plain.q == 2  # reduces to the order at the origin
    assert ord_H(Poly.zero(F2, 2), empty).is_infinite


def test_ord_h_matches_definition_randomized(rng, F2, F5, QQ):
    # the single-reduction shortcut equals the definitional membership scan
    from idfilt.gls import power_m
    from idfilt.verify import rand_poly
    for F in (F2, F5, QQ):
        ctx = ctx_of(F, 2, 8)
        h = Poly.variable(F, 2, 0) + rand_poly(
            rng, F, 2, 3, 2, min_ord=2, nonzero=False).truncate(8)
        H = HSystem(ctx, [(h, 0)])
        for _ in range(12):
            f = rand_poly(rng, F, 2, 6, 4, nonzero=False).truncate(8)
            got = ord_H(f, H)
            want = None
            for n in range(0, ctx.D + 2):
                S = power_m(n, ctx).sum_with(H.ideal_space())
                if not S.contains_poly(f):
                    want = n - 1
                    break
            if want is None:
                assert got.is_infinite
            else:
                assert got.is_exact and got.q == want


def test_ord_h_degreewise_obstruction(F2):
    # y^3 in m^3 + (H) but not in m^4 + (H): check against the direct sums
    from idfilt.gls import power_m
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x^2 + y^3"), 1)])
    f = mk(F2, "y^3")
    for n in range(0, ctx.D + 1):
        direct = power_m(n, ctx).sum_with(H.ideal_space()).contains_poly(f)
        assert direct == (n <= 3)


def test_mu_tilde_examples(F2):
    ctx = ctx_of(F2, 2, 10)
    F = showcase_sat(F2)
    lgs, _, _ = extract_lgs(F)
    H = HSystem(ctx, lgs)
    got = mu_tilde(F, H)
    assert got.is_exact and got.q == 2
    Fx = FiltrationSpec(ctx, [(mk(F2, "x"), 1)])
    inf_prec = mu_tilde(Fx, HSystem(ctx, [(mk(F2, "x"), 0)]))
    assert inf_prec.is_infinite and inf_prec.at_precision
    empty_inf = mu_tilde(FiltrationSpec(ctx, []), H)
    assert empty_inf.is_infinite and not empty_inf.at_precision


def test_mu_tilde_brute_force(F2):
    # independent path: scan residue orders of whole level ideals
    ctx = ctx_of(F2, 2, 10)
    F = showcase_sat(F2)
    lgs, _, _ = extract_lgs(F)
    H = HSystem(ctx, lgs)
    W = H.ideal_space()
    best = None
    for k in range(1, ctx.D + 1):
        a = Fraction(k)
        residues = [W.reduce_poly(f) for f in F.ideal_at_level(a).basis_polys()]
        orders = [int(r.order()) for r in residues if not r.is_zero()]
        if orders:
            val = Fraction(min(orders)) / a
            best = val if best is None else min(best, val)
    assert best == mu_tilde(F, H).q == 2


def test_build_du_examples(F2, QQ):
    ctxq = ctx_of(QQ, 2, 10)
    Hx = HSystem(ctxq, [(mk(QQ, "x"), 0)])
    for u in (0, 1, 3):
        Du = build_Du(Hx, u)
        assert Du.summands[0][1] == (u, 0) and len(Du.summands) == 1
    assert build_Du(Hx, -1).is_zero()
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x^2 + y^3"), 1)])
    D1 = build_Du(H, 1)
    assert [J for _, J in D1.summands] == [(2, 0)]


def test_du_row_computed_once_per_system(QQ, monkeypatch):
    calls = []

    def counted(H, M):
        calls.append(H)
        return _inverse_last_row(H, M)

    monkeypatch.setattr(invariants, "_inverse_last_row", counted)
    H = HSystem(ctx_of(QQ, 2, 10), [(mk(QQ, "x + y^2"), 0), (mk(QQ, "y + x^3"), 0)])
    ops = [build_Du(H, u) for u in (1, 2, 3, 1)] + [build_Fv(H, 3)]
    assert calls == [H]
    monkeypatch.undo()
    fresh = HSystem(H.ctx, H.entries)
    again = [build_Du(fresh, u) for u in (1, 2, 3, 1)] + [build_Fv(fresh, 3)]
    assert [op.summands for op in ops] == [op.summands for op in again]


def test_build_du_range_errors(F2):
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x"), 0), (mk(F2, "y^2"), 1)])
    assert H.u_bound() == 2
    build_Du(H, 1)
    with pytest.raises(ValueError):
        build_Du(H, 2)


def test_supporting1_examples(rng, F2, QQ):
    ctxq = ctx_of(QQ, 2, 10)
    Hx = HSystem(ctxq, [(mk(QQ, "x"), 0)])
    # one-variable divided-power identity, exact
    assert supporting1_check(Hx, mk(QQ, "x^2 + x*y"), 0, 2, 2)
    assert supporting1_check(Hx, mk(QQ, "x^2 + x*y"), 0, 0, 2)
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x^2 + y^3"), 1)])
    for u in (0, 1, 2):
        assert supporting1_check(H, mk(F2, "x*y + y^2"), 0, u, 2)
    with pytest.raises(ValueError):
        supporting1_check(H, mk(F2, "x"), 0, 1, 3)  # beta not in m^3


def test_supporting2_example(F2):
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x"), 0), (mk(F2, "y^2"), 1)])
    betas = [mk(F2, "x*y"), mk(F2, "y")]
    alpha = Poly.zero(F2, 2)
    for bl, hl in zip(betas, H.normalized):
        alpha = alpha - bl.mul_trunc(hl, ctx.D)
    assert supporting2_check(H, alpha, betas, 1, 3)


def test_supporting3_examples(F2, QQ):
    ctxq = ctx_of(QQ, 2, 10)
    Hx = HSystem(ctxq, [(mk(QQ, "x"), 0)])
    assert supporting3_check(Hx, 3)
    assert supporting3_check(Hx, 0)
    ctx = ctx_of(F2, 2, 10)
    H = HSystem(ctx, [(mk(F2, "x"), 0), (mk(F2, "y^2 + x^3"), 1)])
    for r in (0, 2, 4, 6):
        assert supporting3_check(H, r)


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), ExtensionField(3, 2),
                               RationalField()], ids=str)
def test_supporting3_rank_matches_canonical_bases(F):
    """supporting3_check compares a dim with a rank, since its right side
    lies in (H) meet m^r by construction; on random systems, at every r,
    that answers as the two canonical bases, the right side built from the
    products X^A h_l with |A| >= r - p^e_l, compare."""
    rng = random.Random(f"supporting3:{F}")
    for _ in range(4):
        H = rand_hsystem(rng, F, rng.choice([2, 3]), rng.choice([5, 6]))
        ctx = H.ctx
        mons = monomial_basis(ctx.nvars, ctx.D)[0]
        for r in range(ctx.D + 1):
            lhs = H.ideal_space().meet_power_m(r)
            rhs = GradedSubspace.from_polys(ctx, [
                Poly.monomial(F, ctx.nvars, A).mul_trunc(h, ctx.D)
                for l, (h, _) in enumerate(H.entries) for A in mons
                if sum(A) >= r - H.level(l)])
            assert supporting3_check(H, r) == lhs.equals(rhs)


def test_coefficient_examples(F2, QQ):
    ctxq = ctx_of(QQ, 2, 8)
    Fq = d_saturate(FiltrationSpec(ctxq, [(mk(QQ, "x"), 1)]))
    Hq = HSystem(ctxq, [(mk(QQ, "x"), 0)])
    mu = coefficient_default_mu(Fq, Hq)
    assert coefficient_decompose_check(Fq, Hq, 2, mu)
    assert coefficient_decompose_check(Fq, Hq, Fraction(-1), mu)
    ctx = ctx_of(F2, 2, 10)
    F = showcase_sat(F2)
    lgs, _, _ = extract_lgs(F)
    H = HSystem(ctx, lgs)
    mu2 = coefficient_default_mu(F, H)
    for a in (1, Fraction(3, 2), 2, 3):
        assert coefficient_decompose_check(F, H, a, mu2)


def test_coefficient_hypothesis_violation(F2):
    ctx = ctx_of(F2, 2, 10)
    F = showcase_sat(F2)
    lgs, _, _ = extract_lgs(F)
    H = HSystem(ctx, lgs)
    with pytest.raises(ValueError):
        coefficient_decompose_check(F, H, 1, Fraction(5))  # mu >= mu_H = 2


def test_nonsingularity_showcase(F2):
    ctx = ctx_of(F2, 2, 10)
    spec = FiltrationSpec(ctx, [(mk(F2, "x"), 1), (mk(F2, "y^2"), 2)])
    sat, added = b_saturate_probe(spec)
    lgs, _, _ = extract_lgs(sat)
    H = HSystem(ctx, lgs)
    assert [(poly_str(h), e) for h, e in H.entries] == [("x", 0), ("y", 0)]
    rep = nonsingularity_check(sat, H, probe_saturated=True)
    assert rep["passed"]
    assert rep["support"]["origin_in_support"] and rep["support"]["origin_on_vh"]

    only_d = d_saturate(FiltrationSpec(ctx, [(mk(F2, "y^2"), 2)]))
    lgs2, _, _ = extract_lgs(only_d)
    H2 = HSystem(ctx, lgs2)
    rep2 = nonsingularity_check(only_d, H2)
    assert not rep2["passed"] and not rep2["all_level_one"]["ok"]
    assert "radical-saturated" in rep2["all_level_one"]["diagnosis"]

    simple = FiltrationSpec(ctx, [(mk(F2, "x"), 1)])
    sat3, _ = b_saturate_probe(simple)
    lgs3, _, _ = extract_lgs(sat3)
    assert nonsingularity_check(sat3, HSystem(ctx, lgs3),
                                probe_saturated=True)["passed"]


def test_nonsingularity_requires_infinite_mu(F2):
    F = showcase_sat(F2)
    lgs, _, _ = extract_lgs(F)
    H = HSystem(F.ctx, lgs)
    with pytest.raises(ValueError):
        nonsingularity_check(F, H)


def test_ord_h_superadditive(rng, F2):
    ctx = ctx_of(F2, 2, 8)
    H = HSystem(ctx, [(mk(F2, "x + y^2"), 0)])
    from idfilt.verify import rand_poly
    for _ in range(30):
        f = rand_poly(rng, F2, 2, 3, 3)
        g = rand_poly(rng, F2, 2, 3, 3)
        of, og = ord_H(f, H), ord_H(g, H)
        assert of.is_infinite or of.q >= f.order()  # never below ord_P
        ofg = ord_H(f.mul_trunc(g, ctx.D), H)
        if of.is_infinite or og.is_infinite:
            assert ofg.is_infinite or ofg.q > min(
                x.q for x in (of, og) if not x.is_infinite)
            continue
        if of.q + og.q <= ctx.D:
            assert ofg.is_infinite or ofg.q >= of.q + og.q


def test_empty_system_checks(F2, QQ):
    for F in (F2, QQ):
        ctx = ctx_of(F, 2, 6)
        H = HSystem(ctx, [])
        assert H.ideal_space().dim == 0
        assert all(supporting3_check(H, r) for r in range(ctx.D + 1))
        Fx = FiltrationSpec(ctx, [(mk(F, "x + y^2"), 1), (mk(F, "y^3"), Fraction(3, 2))])
        mu = coefficient_default_mu(Fx, H)
        assert mu == Fraction(63, 64)
        for a in (Fraction(-1), 0, Fraction(1, 2), 1, 3):
            assert coefficient_decompose_check(Fx, H, a, mu)
        # only a filtration that vanishes at truncation has mu_H infinite here
        for gens in ([], [(mk(F, "x^7"), 1)]):
            rep = nonsingularity_check(FiltrationSpec(ctx, gens), H)
            assert rep["passed"] and rep["generated_by_h"]["failing_levels"] == []
            assert rep["lgs_linear_forms_independent"] is None


def h_monomial_ideal(H, a):
    """The ideal of the H-monomials of weight >= a, written as ideal_image of
    every H^B with a <= |[B]| < a + p^(e_N), p^(e_N) the largest level."""
    ctx = H.ctx
    levels = [H.level(l) for l in range(len(H.entries))]
    top = a + (max(levels) if levels else 1)
    gens = []
    for B in product(*[range(math.ceil(top / q)) for q in levels]):
        if a <= sum(b * q for b, q in zip(B, levels)) < top:
            hb = Poly.one(ctx.field, ctx.nvars)
            for (h, _), b in zip(H.entries, B):
                hb = hb.mul_trunc(h.pow_trunc(b, ctx.D), ctx.D)
            gens.append(hb)
    return ideal_image(gens, ctx)


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), ExtensionField(3, 2)],
                         ids=str)
def test_h_filtration_levels_match_h_monomials(F):
    rng = random.Random(f"h-filtration:{F}")
    for _ in range(4):
        H = rand_hsystem(rng, F, rng.choice([2, 3]), rng.choice([5, 6]))
        for k in range(1, 2 * H.ctx.D + 1):
            a = Fraction(k, 2)
            assert H.filtration().ideal_at_level(a).equals(h_monomial_ideal(H, a))


def count_products(monkeypatch):
    """The filtrations whose level ideals get built, one entry per
    FiltrationSpec._minimal_products call (a level-cache miss)."""
    built = []
    minimal_products = FiltrationSpec._minimal_products

    def counted(self, a):
        built.append(self)
        return minimal_products(self, a)

    monkeypatch.setattr(FiltrationSpec, "_minimal_products", counted)
    return built


def test_generated_by_h_failing_levels(F2, QQ, monkeypatch):
    # I_3 = (x^2) is not inside (x^3), the H-monomials of weight >= 3
    for F in (F2, QQ):
        ctx = ctx_of(F, 2, 6)
        H = HSystem(ctx, [(mk(F, "x"), 0)])
        Fx = FiltrationSpec(ctx, [(mk(F, "x"), 1), (mk(F, "x^2"), 3)])
        built = count_products(monkeypatch)
        rep = nonsingularity_check(Fx, H)
        # the generator x^2 @ 3 fails, so every grid level of Fx is built
        assert sum(s is Fx for s in built) == len(Fx.grid_levels()) == 6
        want = []
        for a in Fx.grid_levels():
            ref = h_monomial_ideal(H, a)
            assert H.filtration().ideal_at_level(a).equals(ref)
            if not ref.contains_subspace(Fx.ideal_at_level(a)):
                want.append(str(a))
        assert rep["generated_by_h"]["failing_levels"] == want == ["3", "4", "5", "6"]


def test_generated_by_h_builds_no_grid_level(F2, monkeypatch):
    # x @ 1/800 and x @ 1 at D = 6: a grid of 4,800 levels, and both
    # generators lie in H's level ideals, so none of them is built
    ctx = ctx_of(F2, 2, 6)
    sat, _ = b_saturate_probe(FiltrationSpec(
        ctx, [(mk(F2, "x"), Fraction(1, 800)), (mk(F2, "x"), 1)]))
    lgs, _, _ = extract_lgs(sat)
    H = HSystem(ctx, lgs)
    Fx = FiltrationSpec(ctx, sat.gens)  # a fresh level cache
    assert len(Fx.grid_levels()) == 4800
    built = count_products(monkeypatch)
    rep = nonsingularity_check(Fx, H, probe_saturated=True)
    assert rep["passed"] and rep["generated_by_h"]["failing_levels"] == []
    assert not any(s is Fx for s in built)
    assert 0 < len(built) <= len(Fx.gens)


def reference_generated_by_h(F, H):
    """The grid loop: compare the level ideals at every grid level."""
    HF = H.filtration()
    fail = [a for a in F.grid_levels()
            if not HF.ideal_at_level(a).contains_subspace(F.ideal_at_level(a))]
    return {"ok": not fail, "failing_levels": [str(a) for a in fail]}


def generated_by_h_case(rng, F, D):
    """One random F made of multiples r*h_l over a random H; the verdict is
    checked against the grid loop.  Returns (generators in H's level
    ideals, verdict, H)."""
    if F.char:
        H = rand_hsystem(rng, F, 2, D)
    else:
        H = HSystem(ctx_of(F, 2, D), [(mk(F, h), 0) for h in rng.choice(
            [["x + y^2"], ["x - 2*y + x*y", "y + 3*x^2"]])])
    levels = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(3), Fraction(D + 1)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        h = rng.choice(H.entries)[0]
        r = rand_poly(rng, F, 2, 2, terms=2)
        gens.append((r.mul_trunc(h, D), rng.choice(levels)))
    Fx = FiltrationSpec(H.ctx, gens)
    assert mu_tilde(Fx, H).is_infinite
    got = nonsingularity_check(Fx, H)["generated_by_h"]
    assert got == reference_generated_by_h(Fx, H)
    HF = H.filtration()
    gens_in = all(HF.ideal_at_level(a).contains_poly(f.truncate(D))
                  for f, a in Fx.gens)
    return gens_in, got["ok"], H


def test_generated_by_h_matches_grid_reference(QQ):
    # F from multiples r*h_l, so mu_H is infinite; a random multiple at a
    # level above that of h_l, or above D, mostly lies outside H's level
    # ideal, so both the generator test and the grid fallback decide
    rng = random.Random(17)
    fields = (PrimeField(2), PrimeField(3), QQ)
    seen = set()
    for F in fields:
        for _ in range(12):
            seen.add(generated_by_h_case(rng, F, rng.choice([5, 6]))[:2])
    assert {(True, True), (False, True), (False, False)} <= seen
    # D = 4 meets GF(2)'s top level 4 (and D = 3 GF(3)'s level 3), where
    # rand_hsystem draws h_l with no tail
    top = 0
    for F, D in ((fields[0], 4), (fields[1], 3), (fields[2], 4)):
        for _ in range(6):
            H = generated_by_h_case(rng, F, D)[2]
            top += any(H.level(l) == D for l in range(len(H.entries)))
    assert top > 0


INFINITE_MU = """field: GF(3)
vars: x, y, z
truncation: 10
gen: x + z^4 @ 1
gen: y^3 @ 3
"""


def test_analyze_reduces_each_generator_once_modulo_h(monkeypatch):
    # mu_H is infinite and H is nonempty, so every reader of ord_H runs: the
    # ord_H table, mu-tilde, and the hypotheses of the nonsingularity and
    # coefficient checks
    systems, reduced = [], []
    init, reduce_poly = HSystem.__init__, GradedSubspace.reduce_poly

    def recorded(self, ctx, entries):
        init(self, ctx, entries)
        systems.append(self)

    def counted(self, f):
        reduced.append((self, f))
        return reduce_poly(self, f)

    monkeypatch.setattr(HSystem, "__init__", recorded)
    monkeypatch.setattr(GradedSubspace, "reduce_poly", counted)
    report = analyze(parse_spec(INFINITE_MU))
    assert report["nonsingularity"]["applicable"]
    assert "ok" in report["checks"]["coefficient_level_1"]
    [H] = systems
    assert H.entries
    mod_h = [f for S, f in reduced if S is H.ideal_space()]
    gens = {g["poly"] for g in report["saturation"]["b_probe"]["gens"]}
    assert len(mod_h) == len(set(mod_h)) == len(gens) > 2


def test_ord_h_values_belong_to_their_system(F2, monkeypatch):
    # two systems for one F, as verify's choice-independence check builds:
    # each reduces f modulo its own (H), once however often it is asked
    ctx = ctx_of(F2, 2, 6)
    Fx = FiltrationSpec(ctx, [(mk(F2, "x"), 1), (mk(F2, "y^3"), 2)])
    H1 = HSystem(ctx, [(mk(F2, "x"), 0)])
    H2 = HSystem(ctx, [(mk(F2, "x + y^2"), 0)])
    reduced = []
    reduce_poly = GradedSubspace.reduce_poly

    def counted(self, f):
        reduced.append(self)
        return reduce_poly(self, f)

    monkeypatch.setattr(GradedSubspace, "reduce_poly", counted)
    for _ in range(2):
        assert ord_H(mk(F2, "x"), H1).is_infinite
        assert ord_H(mk(F2, "x"), H2) == SatValue.exact(2)
        assert mu_tilde(Fx, H1) == SatValue.exact(Fraction(3, 2))
        assert mu_tilde(Fx, H2) == SatValue.exact(Fraction(3, 2))
    assert [sum(S is H.ideal_space() for S in reduced) for H in (H1, H2)] == [2, 2]


def reference_inverse_matrix_trunc(H: HSystem, M):
    """Inverse of a matrix M of truncated ring elements whose constant part
    is the identity (as du_matrix's is), by the terminating series
    sum over k of (I - M)^k."""
    ctx = H.ctx
    L = len(M)
    one = Poly.one(ctx.field, ctx.nvars)
    zero = Poly.zero(ctx.field, ctx.nvars)

    def matmul(A, B):
        return [[sum((A[i][k].mul_trunc(B[k][j], ctx.D) for k in range(L)), zero)
                 for j in range(L)] for i in range(L)]

    ident = [[one if i == j else zero for j in range(L)] for i in range(L)]
    step = [[ident[i][j] - M[i][j] for j in range(L)] for i in range(L)]
    # I - M lies in m, so its powers vanish in the quotient by k = D + 1
    series = term = ident
    for _ in range(ctx.D):
        term = matmul(term, step)
        if all(t.is_zero() for row in term for t in row):
            break
        series = [[s + t for s, t in zip(rs, rt)] for rs, rt in zip(series, term)]
    return series


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), PrimeField(5),
                               ExtensionField(2, 2), ExtensionField(3, 2)], ids=str)
def test_du_matrix_is_identity_plus_maximal_ideal(F):
    # normalized coordinates make h_l = z_l^(p^e) + (higher order), so the
    # series inverse needs no constant-part inverse; build_Du reads only the
    # last row of the inverse, which must be the full series inverse's
    rng = random.Random(5)
    for _ in range(25):
        H = rand_hsystem(rng, F, 3, 8)
        M = du_matrix(H)
        L = len(M)
        ident = [[F.one() if i == j else F.zero() for j in range(L)] for i in range(L)]
        assert [[m.constant_term() for m in row] for row in M] == ident
        C = reference_inverse_matrix_trunc(H, M)
        for i in range(L):
            for j in range(L):
                prod = sum((C[i][k].mul_trunc(M[k][j], H.ctx.D) for k in range(L)),
                           Poly.zero(F, 3))
                assert prod == (Poly.one(F, 3) if i == j else Poly.zero(F, 3))
        last = _inverse_last_row(H, M)
        assert last == C[L - 1]
        for j in range(L):
            prod = sum((last[k].mul_trunc(M[k][j], H.ctx.D) for k in range(L)),
                       Poly.zero(F, 3))
            assert prod == (Poly.one(F, 3) if j == L - 1 else Poly.zero(F, 3))


def reference_decompose_check(F: FiltrationSpec, H: HSystem, a, mu) -> bool:
    """coefficient_decompose_check as it was when every term, H^0 = 1
    included, went through basis_polys, mul_trunc and dense N-vectors."""
    ctx = F.ctx
    a = Fraction(a)
    mu = Fraction(mu)
    mh = mu_tilde(F, H)
    if not mh.is_infinite and mh.q <= mu:
        raise ValueError("hypothesis violated: mu must be below mu_H")
    lhs = F.ideal_at_level(a)
    if a <= 0:
        return lhs.dim == len(monomial_basis(ctx.nvars, ctx.D)[0])
    rows = list(H.filtration().ideal_at_level(a).basis.dense(ctx.field))
    for B in _b_range(H, a):
        hb = _h_power(H, B, ctx.D)
        if hb.is_zero():
            continue
        t = a - sum(b * H.level(l) for l, b in enumerate(B))
        it = F.ideal_at_level(t).meet_power_m(math.ceil(mu * t))
        prods = (f.mul_trunc(hb, ctx.D) for f in it.basis_polys())
        rows += list(Coords.of_polys([g for g in prods if not g.is_zero()], ctx).dense(ctx.field))
    N = len(monomial_basis(ctx.nvars, ctx.D)[0])
    stack = Coords.of_rows(np.array(rows, dtype=np.int64).reshape(len(rows), N))
    return GradedSubspace.from_vectors(ctx, stack).equals(lhs)


def test_coefficient_decompose_matches_reference():
    # the d-saturated H-generated filtration always decomposes; with one more
    # generator, and not saturated, some levels fail, so both verdicts occur
    rng = random.Random(11)
    verdicts = []
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(12):
            d = rng.choice([2, 3])
            H = rand_hsystem(rng, F, d, rng.choice([6, 8]))
            gens = [(h, Fraction(p ** e)) for h, e in H.entries]
            extra = (rand_poly(rng, F, d, 4, terms=2, min_ord=1),
                     Fraction(rng.randint(1, 3), rng.choice([1, 2])))
            for spec in (d_saturate(FiltrationSpec(H.ctx, gens)),
                         FiltrationSpec(H.ctx, gens + [extra])):
                mh, mu = mu_tilde(spec, H), coefficient_default_mu(spec, H, 64)
                if not mh.is_infinite and mh.q <= mu:
                    continue  # mu_H = 0: no mu lies below it
                for a in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)):
                    got = coefficient_decompose_check(spec, H, a, mu)
                    assert got == reference_decompose_check(spec, H, a, mu)
                    verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_coefficient_decompose_check_builds_no_dense_stack(monkeypatch):
    """The check stacks coordinates, so its peak allocation at GF(3), d=4,
    D=12 stays well below that of N-wide dense rows (about 59 MB for this
    spec), whatever the host: tracemalloc counts numpy's buffers too."""
    peaks = []
    check = pipeline.coefficient_decompose_check

    def traced(*args):
        tracemalloc.start()
        try:
            return check(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(pipeline, "coefficient_decompose_check", traced)
    rep = analyze(parse_spec("field: GF(3)\nvars: x, y, z, w\ntruncation: 12\n"
                             "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n"))
    assert rep["checks"]["coefficient_level_1"]["ok"]
    assert len(peaks) == 1 and peaks[0] < 40 * 2 ** 20, peaks

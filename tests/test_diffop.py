from fractions import Fraction
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idfilt.diffop import (DiffOp, hasse_apply, ideal_order,
                           is_pe_power_generated, log_apply,
                           pe_power_precision_ok, product_rule_check)
from idfilt.fields import ExtensionField, FieldError, PrimeField, RationalField
from idfilt.gls import ideal_image, monomial_basis
from idfilt.poly import Poly, poly_str
from tests.conftest import ctx_of, mk


def test_hasse_apply_examples(QQ, F2, F3):
    # C(5,2) = 10 by the factorial oracle, then reduced into each field
    x5q, x5f2, x5f3 = (mk(F, "x^5", ("x",)) for F in (QQ, F2, F3))
    assert poly_str(hasse_apply(x5q, (2,))) == "10*x^3"
    assert hasse_apply(x5f2, (2,)).is_zero()
    assert poly_str(hasse_apply(x5f3, (2,))) == "x^3"
    f = mk(QQ, "x^2 + 3*x*y")
    assert hasse_apply(f, (0, 0)) == f
    # d_{x^j}(x^p) = C(p,j) x^(p-j) = 0 mod p for 0 < j < p
    for p in (2, 3, 5):
        F = PrimeField(p)
        xp = mk(F, f"x^{p}", ("x",))
        for j in range(1, p):
            assert hasse_apply(xp, (j,)).is_zero()


def test_log_apply_examples(QQ):
    ctx = ctx_of(QQ, 2, 10, boundary=(0,))  # boundary divisor {x = 0}
    xg = mk(QQ, "x^2 + x*y")  # x * (x + y)
    out = log_apply(xg, (1, 0), ctx)
    assert out == mk(QQ, "2*x^2 + x*y")  # x * d_x(x(x+y))
    assert log_apply(xg, (0, 0), ctx) == xg
    y2 = mk(QQ, "y^2")
    assert log_apply(y2, (0, 1), ctx) == mk(QQ, "2*y")  # y not in the boundary


def test_log_invariance_of_boundary_powers(rng, F3):
    ctx = ctx_of(F3, 2, 8, boundary=(0,))
    x = Poly.variable(F3, 2, 0)
    for t in (1, 2, 3):
        It = ideal_image([x.pow(t)], ctx)
        for J in monomial_basis(2, 3)[0]:
            g = mk(F3, "1 + x*y + y^2")
            img = log_apply(x.pow(t).mul_trunc(g, ctx.D), J, ctx)
            assert It.contains_poly(img)


def test_compose_examples(QQ, F2):
    ctxq = ctx_of(QQ, 1, 10)
    dx = DiffOp.hasse(ctxq, (1,))
    d2 = dx.compose(dx)
    # one-variable composition: iterating d_x twice doubles d_{x^2}
    assert d2.apply(mk(QQ, "x^4", ("x",))) == mk(QQ, "12*x^2", ("x",))
    assert len(d2.summands) == 1 and d2.summands[0][1] == (2,)
    ctx2 = ctx_of(F2, 1, 10)
    dx2 = DiffOp.hasse(ctx2, (1,))
    assert dx2.compose(dx2).is_zero()
    ident = DiffOp.identity(ctxq)
    d = DiffOp(ctxq, [(mk(QQ, "x", ("x",)), (2,))])
    assert ident.compose(d).apply(mk(QQ, "x^3", ("x",))) == d.apply(mk(QQ, "x^3", ("x",)))


def test_compose_matches_application(rng, F3):
    ctx = ctx_of(F3, 2, 16)
    for _ in range(30):
        def rop():
            return DiffOp(ctx, [(mk(F3, "1 + x"), (rng.randint(0, 2), rng.randint(0, 1))),
                                (mk(F3, "y"), (rng.randint(0, 1), rng.randint(0, 2)))])
        d1, d2 = rop(), rop()
        f = mk(F3, "x^3 + x*y^2 + y")
        assert d1.compose(d2).apply(f) == d1.apply(d2.apply(f))
        assert d1.compose(d2).degree <= d1.degree + d2.degree


def test_compose_context_mismatch(F2, F3):
    with pytest.raises(ValueError):
        DiffOp.hasse(ctx_of(F2, 1, 5), (1,)).compose(DiffOp.hasse(ctx_of(F3, 1, 5), (1,)))


def test_product_rule_examples(rng, F5, QQ):
    for _ in range(40):
        def rnd(F):
            t = {(rng.randint(0, 3), rng.randint(0, 3)):
                 F.from_int(rng.randint(-3, 3)) for _ in range(4)}
            return Poly(F5, 2, {k: v % 5 for k, v in t.items()})
        f, g = rnd(F5), rnd(F5)
        J = (rng.randint(0, 2), rng.randint(0, 2))
        assert product_rule_check(f, g, J)
    one = Poly.one(QQ, 2)
    assert product_rule_check(mk(QQ, "x^2 + y"), one, (1, 1))
    # Vandermonde identity through monomials
    assert product_rule_check(mk(QQ, "x^3", ("x", "y")), mk(QQ, "x^4", ("x", "y")), (3, 0))


def test_ideal_order_examples(F2):
    ctx = ctx_of(F2, 2, 10)
    assert ideal_order([mk(F2, "x^2 + y^3")], ctx).q == 2
    empty = ideal_order([], ctx)
    assert empty.kind == "at_least" and empty.q == 11
    zero = ideal_order([Poly.zero(F2, 2)], ctx)
    assert zero.kind == "at_least"
    assert ideal_order([mk(F2, "x^2 + y^3"), mk(F2, "y")], ctx).q == 1


def test_is_pe_power_generated_examples(F2, F3, QQ):
    for F in (F2, F3):
        p = F.char
        ctx = ctx_of(F, 1, 12)
        xp = mk(F, f"x^{p}", ("x",))
        x = mk(F, "x", ("x",))
        assert is_pe_power_generated([xp], 1, ctx)
        assert not is_pe_power_generated([x], 1, ctx)
        assert is_pe_power_generated([x], 0, ctx)
    with pytest.raises(FieldError):
        is_pe_power_generated([mk(QQ, "x", ("x",))], 1, ctx_of(QQ, 1, 12))


def test_pe_power_precision_flag(F2):
    ctx = ctx_of(F2, 2, 6)
    assert pe_power_precision_ok([mk(F2, "x^4")], 1, ctx)
    assert not pe_power_precision_ok([mk(F2, "x^6")], 1, ctx)


def test_frobenius_power_identity(rng, F2, F3):
    # divided partials commute with Frobenius powers
    for F in (F2, F3):
        p = F.char
        for _ in range(25):
            e = rng.choice([1, 2])
            t = {(rng.randint(0, 2), rng.randint(0, 2)):
                 F.from_int(rng.randint(1, p)) for _ in range(3)}
            h = Poly(F, 2, t)
            K = (rng.randint(0, 2), rng.randint(0, 1))
            lhs = hasse_apply(h.pow(p ** e), tuple(p ** e * k for k in K))
            assert lhs == hasse_apply(h, K).pow(p ** e)


# hasse_apply against the per-term formula d_{X^J}(X^I) = C(I, J) X^(I-J),
# with the binomials from factorials and the field reached through from_int.

HASSE_FIELDS = [PrimeField(2), PrimeField(3), ExtensionField(3, 2), RationalField()]


def ref_hasse(f, J):
    F = f.field
    out = {}
    for I, c in f.terms.items():
        if all(i >= j for i, j in zip(I, J)):
            b = 1
            for i, j in zip(I, J):
                b *= factorial(i) // (factorial(j) * factorial(i - j))
            out[tuple(i - j for i, j in zip(I, J))] = F.mul(c, F.from_int(b))
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def assert_hasse(f, J):
    out = hasse_apply(f, J)
    assert out.terms == ref_hasse(f, J)
    assert not any(f.field.is_zero(c) for c in out.terms.values())


@st.composite
def poly_and_index(draw):
    F = draw(st.sampled_from(HASSE_FIELDS))
    scalar = (st.sampled_from(F.elements()) if F.char
              else st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    exps = st.tuples(st.integers(0, 7), st.integers(0, 7))
    f = Poly(F, 2, draw(st.dictionaries(exps, scalar, max_size=6)))
    return f, draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(poly_and_index())
def test_hasse_apply_matches_binomial_formula(fJ):
    assert_hasse(*fJ)


@pytest.mark.parametrize("F", HASSE_FIELDS, ids=str)
def test_hasse_apply_multi_term_with_vanishing_binomials(F):
    # over GF(3): C(3,1) = 3 and C(6,3) = 20 = 2, C(4,1) = 4 = 1, C(5,2) = 10 = 1,
    # C(3,3) = 1; over GF(2) C(2,1), C(6,1) and C(4,1) vanish
    f = mk(F, "x^3 + x^4*y + x^2 + x^6*y^3 + y^5 + 1")
    for J in ((1, 0), (2, 0), (3, 0), (1, 1), (0, 2), (3, 3), (0, 0), (7, 0)):
        assert_hasse(f, J)
    if F.char == 3:
        assert hasse_apply(f, (1, 0)) == mk(F, "x^3*y + 2*x")
    if F.char == 2:
        assert hasse_apply(mk(F, "x^2 + x^6*y + x^4*y^2"), (1, 0)).is_zero()

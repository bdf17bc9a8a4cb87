import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idfilt.fields import ExtensionField, FieldError, PrimeField, RationalField
from idfilt.filtration import FiltrationSpec
from idfilt.poly import (Poly, PolyParseError, TruncationContext, parse_poly,
                         poly_str)
from tests.conftest import ctx_of, mk


def test_mul_trunc_examples(QQ, F2):
    x, y = mk(QQ, "x"), mk(QQ, "y")
    assert poly_str(x.mul_trunc(y, 10)) == "x*y"
    x6 = mk(F2, "x^6")
    assert x6.mul_trunc(x6, 10).is_zero()
    one_x = mk(QQ, "1 + x")
    assert poly_str(one_x.mul_trunc(one_x, 1)) == "1 + 2*x"


def test_mul_trunc_matches_truncated_product(rng, F3, QQ):
    for F in (F3, QQ):
        for _ in range(60):
            def rnd():
                t = {}
                for _ in range(4):
                    e = (rng.randint(0, 4), rng.randint(0, 4))
                    t[e] = F.from_int(rng.randint(-3, 3))
                return Poly(F, 2, t)
            f, g = rnd(), rnd()
            D = rng.randint(1, 6)
            assert f.mul_trunc(g, D) == (f * g).truncate(D)
            assert_same(f.mul_trunc(g, D), ref_mul(F, f.terms, g.terms, D))


def test_order_examples(QQ):
    assert mk(QQ, "x^2 + y^3").order() == 2
    assert Poly.zero(QQ, 2).order() == math.inf
    assert mk(QQ, "1 + x").order() == 0


def test_order_multiplicative(rng, F5, QQ):
    for F in (F5, QQ):
        for _ in range(60):
            def rnd():
                t = {(rng.randint(0, 3), rng.randint(0, 3)):
                     F.from_int(rng.randint(1, 4)) for _ in range(3)}
                return Poly(F, 2, t)
            f, g = rnd(), rnd()
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).order() == f.order() + g.order()


def test_graded_component(QQ):
    f = mk(QQ, "x^2 + y^3")
    assert poly_str(f.graded_component(2)) == "x^2"
    assert f.graded_component(1).is_zero()
    g = mk(QQ, "x^2 + x*y")
    assert g.graded_component(2) == g


def test_pe_power_root_examples(F2):
    f = mk(F2, "x^2 + y^2")
    assert poly_str(f.pe_power_root(1)) == "x + y"
    assert mk(F2, "x^2 + x*y").pe_power_root(1) is None
    g = mk(F2, "x + y^3")
    assert g.pe_power_root(0) == g


def test_pe_power_root_randomized(rng, F2, F3, F9):
    from idfilt.fields import ExtensionField
    F4 = ExtensionField(2, 2)
    for F in (F2, F3, F4, F9):
        p = F.char
        for _ in range(40):
            e = 1 if p == 3 else (1 if rng.random() < 0.5 else 2)
            maxdeg = 24 // p ** e
            t = {}
            for _ in range(3):
                exps = (rng.randint(0, maxdeg), rng.randint(0, max(0, maxdeg - 1)))
                if sum(exps) <= maxdeg:
                    if F.m == 1:
                        t[exps] = rng.randrange(1, p)
                    else:
                        t[exps] = rng.randrange(p ** F.m)
            g = Poly(F, 2, t)
            if g.is_zero():
                continue
            assert g.pow(p ** e).pe_power_root(e) == g


def test_pe_power_root_char0_errors(QQ):
    with pytest.raises(FieldError):
        mk(QQ, "x^2").pe_power_root(1)


def test_truncation_context_validation(F2):
    with pytest.raises(ValueError):
        TruncationContext(F2, 2, 0)
    with pytest.raises(ValueError):
        TruncationContext(F2, 0, 4)
    with pytest.raises(ValueError):
        TruncationContext(F2, 2, 4, frozenset({5}))


def test_parse_and_print_roundtrip(QQ, F5):
    for F in (QQ, F5):
        for text in ("x^2 + y^3", "2*x*y", "1 + x + x*y^4", "x - y" if F.char == 0 else "x + y"):
            f = parse_poly(text, ["x", "y"], F)
            assert parse_poly(poly_str(f), ["x", "y"], F) == f


def test_parse_implicit_multiplication(QQ):
    assert parse_poly("2x y", ["x", "y"], QQ) == parse_poly("2*x*y", ["x", "y"], QQ)


def test_parse_errors(QQ):
    for bad in ("x^", "x + ", "w + 1", "x ^ y", "", "x++y"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, ["x", "y"], QQ)


def test_canonical_printing_is_graded_lex(QQ):
    f = parse_poly("y^2 + x + x*y + 1", ["x", "y"], QQ)
    assert poly_str(f) == "1 + x + x*y + y^2"


def test_substitute_linear(QQ):
    f = mk(QQ, "x^2 + y")
    # x -> x + y, y -> y
    m = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    g = f.substitute_linear(m)
    assert g == mk(QQ, "x^2 + 2*x*y + y^2 + y")


# Arithmetic against a schoolbook reference on the Field interface.  The
# reference works on plain term dicts and drops zero sums only at the end.

ARITH_FIELDS = [PrimeField(2), PrimeField(3), ExtensionField(3, 2), RationalField()]
ORACLE = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def ref_clean(F, terms):
    return {e: c for e, c in terms.items() if not F.is_zero(c)}


def ref_add(F, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = F.add(out.get(e, F.zero()), c)
    return ref_clean(F, out)


def ref_mul(F, a, b, D=math.inf):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= D:
                out[e] = F.add(out.get(e, F.zero()), F.mul(c1, c2))
    return ref_clean(F, out)


def ref_pow(F, a, n, nvars, D=math.inf):
    out = {(0,) * nvars: F.one()}
    for _ in range(n):
        out = ref_mul(F, out, a, D)
    return out


def assert_same(f, want):
    assert f.terms == want
    assert not any(f.field.is_zero(c) for c in f.terms.values())


def scalars(F):
    if F.char:
        return st.sampled_from(F.elements())
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def poly_pairs(draw):
    F = draw(st.sampled_from(ARITH_FIELDS))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))

    def poly():
        return Poly(F, 2, draw(st.dictionaries(exps, scalars(F), max_size=5)))
    return F, poly(), poly()


@ORACLE
@given(poly_pairs(), st.integers(0, 9))
def test_products_match_schoolbook(fg, D):
    F, f, g = fg
    assert_same(f * g, ref_mul(F, f.terms, g.terms))
    assert_same(f.mul_trunc(g, D), ref_mul(F, f.terms, g.terms, D))
    assert_same((f * g).truncate(D), ref_mul(F, f.terms, g.terms, D))
    assert_same(f * (-f), ref_mul(F, f.terms, (-f).terms))


@ORACLE
@given(poly_pairs(), st.integers(0, 4), st.integers(0, 9))
def test_powers_match_schoolbook(fg, n, D):
    F, f, _ = fg
    assert_same(f.pow(n), ref_pow(F, f.terms, n, 2))
    assert_same(f.pow_trunc(n, D), ref_pow(F, f.terms, n, 2, D))


@ORACLE
@given(poly_pairs(), st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 9))
def test_sums_shifts_and_scales_match_schoolbook(fg, E, D):
    F, f, g = fg
    assert_same(f + g, ref_add(F, f.terms, g.terms))
    assert_same(f + (-f), {})
    assert_same(f - g + g, f.terms)
    assert_same(f.shift(E), ref_mul(F, f.terms, {E: F.one()}))
    assert_same(f.shift(E, D), ref_mul(F, f.terms, {E: F.one()}, D))
    assert_same(f.scale(F.zero()), {})
    assert_same(f.scale(F.neg(F.one())), (-f).terms)


@pytest.mark.parametrize("F", ARITH_FIELDS, ids=str)
def test_cancelling_products(F):
    x, y = Poly.variable(F, 2, 0), Poly.variable(F, 2, 1)
    want = (x * x - y * y).terms
    assert_same((x + y) * (x - y), want)
    assert_same((x + y).mul_trunc(x - y, 2), want)
    assert_same((x + y).mul_trunc(x - y, 1), {})
    f = x + y * y + Poly.one(F, 2)
    assert_same(f + (-f), {})
    if F.char:
        # the Frobenius: (x + 1)^p = x^p + 1, every middle binomial vanishes
        p = F.char
        want = {(p, 0): F.one(), (0, 0): F.one()}
        assert_same((x + Poly.one(F, 2)).pow(p), want)
        assert_same((x + Poly.one(F, 2)).pow_trunc(p, p), want)
        assert_same((x + Poly.one(F, 2)).pow_trunc(p, p - 1), {(0, 0): F.one()})


def test_prime_field_coefficients_are_residues(F3):
    # 5 = 2 = -1 in GF(3): one polynomial, whichever representative is given
    alike = [Poly(F3, 1, {(1,): c}) for c in (5, 2, -1)]
    assert all(f.terms == {(1,): 2} for f in alike)
    assert len(set(alike)) == 1 and len({f.sort_key() for f in alike}) == 1
    assert {poly_str(f) for f in alike} == {"2*x"}
    assert Poly(F3, 1, {(1,): 3, (2,): -3}).is_zero()
    assert Poly.monomial(F3, 2, (1, 1), 7) == mk(F3, "x*y")
    F = FiltrationSpec(ctx_of(F3, 1, 6), [(f, 1) for f in alike])
    assert len(F.gens) == 1

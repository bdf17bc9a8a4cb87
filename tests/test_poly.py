import math
from fractions import Fraction

import pytest

from idfilt.fields import FieldError
from idfilt.poly import (Poly, PolyParseError, TruncationContext, parse_poly,
                         poly_str)
from tests.conftest import mk


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

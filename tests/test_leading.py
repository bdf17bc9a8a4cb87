import dataclasses
from fractions import Fraction

import pytest

from idfilt.fields import FieldError, PrimeField
from idfilt.filtration import FiltrationSpec
from idfilt.gls import GradedSubspace, ideal_image
from idfilt.leading import (default_emax, extract_lgs, leading_algebra,
                            pure_part, sigma)
from idfilt.poly import Poly, poly_str
from idfilt.saturation import d_saturate, d_saturate_log
from tests.conftest import ctx_of, mk


def showcase(F, D=10):
    ctx = ctx_of(F, 2, D)
    f = Poly(F, 2, {(2, 0): F.one(), (0, 3): F.one()})  # x^2 + y^3
    return d_saturate(FiltrationSpec(ctx, [(f, Fraction(2))]))


def test_leading_algebra_char0(QQ):
    # d_x contributes (2x, 1); d_y lands in degree 2 and dies in G_1
    L = leading_algebra(showcase(QQ))
    assert [poly_str(f) for f in L.piece(1).basis_polys()] == ["x"]


def test_leading_algebra_char2(F2):
    L = leading_algebra(showcase(F2))
    assert L.piece(1).basis_polys() == []
    assert [poly_str(f) for f in L.piece(2).basis_polys()] == ["x^2"]


def test_leading_algebra_empty(F2):
    ctx = ctx_of(F2, 2, 6)
    L = leading_algebra(d_saturate(FiltrationSpec(ctx, [])))
    assert all(L.piece(n).dim == 0 for n in range(1, 7))
    assert L.piece(0).dim == 1


def test_leading_algebra_is_multiplicative(F2):
    L = leading_algebra(showcase(F2))
    ctx = L.ctx
    for a in range(1, 5):
        for b in range(1, 5):
            if a + b > ctx.D:
                continue
            target = GradedSubspace.from_polys(ctx, L.piece(a + b).basis_polys())
            for f in L.piece(a).basis_polys():
                for g in L.piece(b).basis_polys():
                    assert target.contains_poly(f.mul_trunc(g, ctx.D))


def test_pure_part_examples(F2, QQ):
    ctx = ctx_of(F2, 2, 10)
    L = leading_algebra(showcase(F2))
    basis0, roots0 = pure_part(L, 0)
    assert basis0 == [] == roots0  # L_1 = 0: no contact hypersurface
    basis1, roots1 = pure_part(L, 1)
    assert [poly_str(f) for f in basis1] == ["x^2"]
    assert [poly_str(f) for f in roots1] == ["x"]
    gens = [(mk(F2, "x^2"), 2), (mk(F2, "x*y"), 2)]
    L2 = leading_algebra(FiltrationSpec(ctx, gens))
    assert {poly_str(f) for f in L2.piece(2).basis_polys()} == {"x^2", "x*y"}
    pb, roots = pure_part(L2, 1)
    assert [poly_str(f) for f in pb] == ["x^2"]
    L3 = leading_algebra(FiltrationSpec(ctx, [(mk(F2, "x^2 + y^2"), 2)]))
    assert [poly_str(f) for f in L3.piece(2).basis_polys()] == ["x^2 + y^2"]
    pb2, roots2 = pure_part(L3, 1)
    assert [poly_str(f) for f in roots2] == ["x + y"]
    # characteristic zero only has the degree-one pure part
    Lq = leading_algebra(showcase(QQ))
    b, r = pure_part(Lq, 0)
    assert [poly_str(f) for f in b] == ["x"]
    with pytest.raises(FieldError):
        pure_part(Lq, 1)


def test_leading_algebra_builds_no_level_ideal(F2):
    F = showcase(F2)
    leading_algebra(F)
    assert F._level_cache == {}


def test_extract_lgs_builds_only_pure_levels(F2):
    # D = 10 over GF(2): the pure parts live in degrees 1, 2, 4 and 8.  The
    # root x^2 comes at level 2, so levels 4 and 8, which add none, are read
    # in R/m^5 and R/m^9 and never built over the whole ring
    F = showcase(F2)
    extract_lgs(F)
    assert set(F._level_cache) == {1, 2}


def test_extract_lgs_builds_full_levels_only_for_new_roots(F2):
    # roots x at level 1 and y at level 4; levels 2 and 8 add none
    ctx = ctx_of(F2, 2, 10)
    F = d_saturate(FiltrationSpec(ctx, [(mk(F2, "x + y^3"), 1), (mk(F2, "y^4"), 4)]))
    lgs, sig, _ = extract_lgs(F)
    assert [(poly_str(h), e) for h, e in lgs] == [("x + y^3", 0), ("y^4", 2)]
    assert sig.values == (1, 1, 0, 0)
    assert set(F._level_cache) == {1, 4}


def _pure_specs(rng, field):
    """Saturated specs over field: seeded random ones, one with a boundary
    and one with a unit generator."""
    from idfilt.verify import rand_poly, rand_spec
    specs = []
    for D in (6, 9, 9, 10):
        spec = rand_spec(rng, field, rng.choice([2, 3]), D, 3)
        # a high-degree term that the small rings cut away
        tail = rand_poly(rng, field, spec.ctx.nvars, max_deg=D, terms=2, min_ord=D - 2)
        specs.append(FiltrationSpec(spec.ctx, list(spec.gens) + [(tail, 1)]))
    ctx = ctx_of(field, 3, 9, boundary=[2])
    specs.append(FiltrationSpec(ctx, [(mk(field, "x + z^4", "xyz"), 1),
                                      (mk(field, "y^3 + x*z^2", "xyz"), 3)]))
    specs.append(FiltrationSpec(ctx_of(field, 2, 9),
                                [(mk(field, "1 + x^5"), Fraction(1, 2))]))
    return [d_saturate_log(F) for F in specs]


@pytest.mark.parametrize("field", ["F2", "F3", "F9"])
def test_pure_parts_read_in_the_truncated_ring(field, rng, request):
    # L_q depends only on I_q modulo m^(q+1): the same basis and roots
    field = request.getfixturevalue(field)
    p = field.char
    for F in _pure_specs(rng, field):
        L = leading_algebra(F)
        e = 0
        while p ** e <= F.ctx.D:
            small = F.truncated(p ** e)
            assert small.ctx == dataclasses.replace(F.ctx, D=p ** e)
            assert pure_part(leading_algebra(small), e) == pure_part(L, e)
            e += 1


def test_truncated_is_bounded_by_the_truncation(F2):
    F = showcase(F2)
    assert F.truncated(F.ctx.D) == F
    for n in (0, F.ctx.D + 1):
        with pytest.raises(ValueError):
            F.truncated(n)


def test_extract_lgs_showcase_char2(F2):
    lgs, sig, _ = extract_lgs(showcase(F2), 2)
    assert [(poly_str(h), e) for h, e in lgs] == [("x^2 + y^3", 1)]
    assert list(sig.values) == [2, 1, 1]
    assert sig.trimmed() == [2, 1, 1] and sig.stabilized


def test_extract_lgs_showcase_char0(QQ):
    lgs, sig, _ = extract_lgs(showcase(QQ))
    assert [(poly_str(h), e) for h, e in lgs] == [("x", 0)]
    assert list(sig.values) == [1]


class LevelTable(FiltrationSpec):
    """Level ideals given outright by generators, with no product rule
    between the levels."""

    def __init__(self, ctx, table):
        super().__init__(ctx, [])
        self.table = table

    def ideal_at_level(self, a):
        return ideal_image(self.table.get(a, []), self.ctx)

    def truncated(self, n):
        return LevelTable(dataclasses.replace(self.ctx, D=n),
                          {a: [g.truncate(n) for g in gens]
                           for a, gens in self.table.items()})


def test_sigma_not_stabilized_when_an_earlier_root_leaves(F2):
    # A generated filtration, saturated or not, never loses a root: h in I_1
    # puts h^p in I_p.  This table drops x after e = 0: U_0 = <x>, then
    # U_1 = U_2 = <y>.  The last two levels agree and add no root, but x
    # has left the chain, so sigma has not stabilized.
    F = LevelTable(ctx_of(F2, 2, 4), {1: [mk(F2, "x")], 2: [mk(F2, "y^2")],
                                      4: [mk(F2, "y^4")]})
    lgs, sig, _ = extract_lgs(F)
    assert [(poly_str(h), e) for h, e in lgs] == [("x", 0), ("y^2", 1)]
    assert sig.values == (1, 1, 1) and not sig.stabilized


def test_extract_lgs_empty(F2):
    ctx = ctx_of(F2, 2, 10)
    lgs, sig, _ = extract_lgs(d_saturate(FiltrationSpec(ctx, [])))
    assert len(lgs) == 0
    assert sig.trimmed() == [2, 2]


def test_sigma_direct(F2, QQ):
    assert sigma(showcase(F2), 2).values == (2, 1, 1)
    assert sigma(showcase(QQ)).values == (1,)


def test_default_emax(F2, QQ):
    assert default_emax(ctx_of(F2, 2, 10)) == 3  # 2^3 = 8 <= 10 < 16
    assert default_emax(ctx_of(QQ, 2, 10)) == 0
    # exact at the boundaries D = p^k and p^k - 1, where a float log can slip
    for p in (2, 3, 5, 7, 11, 13):
        F = PrimeField(p)
        for k in (1, 2, 3, 4, 5):
            assert default_emax(ctx_of(F, 2, p ** k)) == k
            assert default_emax(ctx_of(F, 2, p ** k - 1)) == k - 1


def test_lgs_conditions_reverified(rng, F2, F3):
    from idfilt.verify import rand_spec
    for F in (F2, F3):
        p = F.char
        for _ in range(6):
            spec = d_saturate(rand_spec(rng, F, 2, 8, 2))
            lgs, sig, L = extract_lgs(spec)
            assert len(lgs) <= 2
            for h, e in lgs:
                q = p ** e
                assert h.order() == q
                lead = h.graded_component(q)
                assert e == 0 or lead.pe_power_root(e) is not None
            # lifted initial forms give a basis of each pure part
            emax = len(sig.values) - 1
            for e in range(emax + 1):
                q = p ** e
                lifted = [h.graded_component(p ** ee).pow(q // p ** ee)
                          for h, ee in lgs if ee <= e]
                span = GradedSubspace.from_polys(spec.ctx, lifted)
                basis, _ = pure_part(L, e)
                assert span.equals(GradedSubspace.from_polys(spec.ctx, basis))


def test_showcase_over_extension_fields(F9):
    # same invariants through the pure-python linear algebra tier
    from idfilt.fields import ExtensionField
    F4 = ExtensionField(2, 2)
    lgs, sig, _ = extract_lgs(showcase(F4), 2)
    assert sig.values == (2, 1, 1)
    assert [(poly_str(h), e) for h, e in lgs] == [("x^2 + y^3", 1)]
    # char-3 mirror: x^3 + y^4 at level 3 over GF(9)
    ctx = ctx_of(F9, 2, 10)
    f = Poly(F9, 2, {(3, 0): F9.one(), (0, 4): F9.one()})
    spec = d_saturate(FiltrationSpec(ctx, [(f, Fraction(3))]))
    lgs9, sig9, _ = extract_lgs(spec, 2)
    assert sig9.values == (2, 1, 1)
    assert [e for _, e in lgs9] == [1]


def test_sigma_non_increasing_and_bounded(rng, F2):
    from idfilt.verify import rand_spec
    for _ in range(6):
        spec = d_saturate(rand_spec(rng, F2, 2, 8, 2))
        sig = sigma(spec)
        vals = sig.values
        assert all(0 <= v <= 2 for v in vals)
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

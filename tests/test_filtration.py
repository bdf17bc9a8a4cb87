import itertools
import math
import random
from fractions import Fraction

import pytest

from idfilt.filtration import FiltrationSpec, is_integral_witness
from idfilt.gls import GradedSubspace, ideal_image, monomial_basis, power_m
from idfilt.poly import Poly, poly_str
from tests.conftest import ctx_of, mk


def test_ideal_at_level_single_generator(QQ):
    ctx = ctx_of(QQ, 2, 8)
    F = FiltrationSpec(ctx, [(mk(QQ, "x"), 1)])
    I = F.ideal_at_level(Fraction(5, 2))
    # minimal power: n * 1 >= 5/2 forces n = 3
    assert I.contains_poly(mk(QQ, "x^3"))
    assert not I.contains_poly(mk(QQ, "x^2"))


def test_ideal_at_level_empty_generators(QQ):
    ctx = ctx_of(QQ, 2, 6)
    E = FiltrationSpec(ctx, [])
    assert E.ideal_at_level(7).dim == 0
    full = E.ideal_at_level(-1)
    assert full.contains_poly(Poly.one(QQ, 2))


@pytest.mark.parametrize("name", ["F2", "F9", "QQ"])
def test_ideals_are_graded_subspaces(name, request):
    F = request.getfixturevalue(name)
    ctx = ctx_of(F, 2, 6)
    gens = [mk(F, "x^2 + y^3"), mk(F, "x*y")]
    assert type(ideal_image(gens, ctx)) is GradedSubspace
    spec = FiltrationSpec(ctx, [(gens[0], 2), (gens[1], Fraction(3, 2))])
    for a in (-1, 0, 1, Fraction(5, 2), 7):
        assert type(spec.ideal_at_level(a)) is GradedSubspace


@pytest.mark.parametrize("name", ["F2", "F9", "QQ"])
def test_level_zero_is_the_whole_ring(name, request):
    F = request.getfixturevalue(name)
    ctx = ctx_of(F, 2, 6)
    spec = FiltrationSpec(ctx, [(mk(F, "x^2 + y^3"), 2), (mk(F, "y"), Fraction(1, 2))])
    full = spec.ideal_at_level(0)
    assert full.equals(power_m(0, ctx))
    for a in (-1, Fraction(-5, 2)):
        assert spec.ideal_at_level(a) is full
    assert not spec.ideal_at_level(Fraction(1, 2)).equals(full)


def test_unit_generator_gives_the_whole_ring_at_every_level(F3):
    ctx = ctx_of(F3, 2, 6)
    spec = FiltrationSpec(ctx, [(mk(F3, "1 + x"), 3), (mk(F3, "y^2"), 1)])
    full = spec.ideal_at_level(0)
    assert full.equals(power_m(0, ctx))
    for a in spec.grid_levels() + [Fraction(1, 3), 100]:
        assert spec.ideal_at_level(a) is full


def test_ideal_at_level_products(QQ):
    ctx = ctx_of(QQ, 2, 6)
    F = FiltrationSpec(ctx, [(mk(QQ, "x"), 1), (mk(QQ, "y^2"), 2)])
    I2 = F.ideal_at_level(2)
    assert I2.contains_poly(mk(QQ, "x^2"))
    assert I2.contains_poly(mk(QQ, "y^2"))
    assert not I2.contains_poly(mk(QQ, "x*y"))


def test_levels_nonpositive_and_zero_gens_normalized(QQ):
    ctx = ctx_of(QQ, 2, 6)
    F = FiltrationSpec(ctx, [(mk(QQ, "x"), 1), (Poly.zero(QQ, 2), 3),
                             (mk(QQ, "y"), Fraction(-1, 2))])
    assert len(F.gens) == 1


def test_unit_generator_short_circuits(QQ):
    ctx = ctx_of(QQ, 2, 6)
    F = FiltrationSpec(ctx, [(mk(QQ, "1 + x"), 2)])
    assert F.trivial_full
    assert F.ideal_at_level(100).contains_poly(Poly.one(QQ, 2))
    assert F.mu_P().q == 0 and not F.in_support()


def test_mu_examples(QQ):
    ctx = ctx_of(QQ, 2, 8)
    assert FiltrationSpec(ctx, [(mk(QQ, "x^2"), 1)]).mu_P().q == 2
    got = FiltrationSpec(ctx, [(mk(QQ, "x"), 2), (mk(QQ, "y^3"), 1)]).mu_P()
    assert got.q == Fraction(1, 2)
    assert FiltrationSpec(ctx, []).mu_P().is_infinite


def test_mu_precision_flag(QQ):
    ctx = ctx_of(QQ, 2, 4)
    deep = FiltrationSpec(ctx, [(mk(QQ, "x^6"), 1)])
    got = deep.mu_P()
    assert got.kind == "at_least" and got.q == 5
    assert deep.in_support()


def test_in_support_examples(QQ):
    ctx = ctx_of(QQ, 2, 8)
    assert FiltrationSpec(ctx, [(mk(QQ, "x^2"), 1)]).in_support()
    assert not FiltrationSpec(ctx, [(mk(QQ, "x"), 2)]).in_support()
    assert FiltrationSpec(ctx, []).in_support()


def test_level_ideals_monotone_and_multiplicative(rng, F3):
    ctx = ctx_of(F3, 2, 6)
    for _ in range(10):
        t = {(rng.randint(0, 2), rng.randint(1, 2)): rng.randrange(1, 3)
             for _ in range(2)}
        F = FiltrationSpec(ctx, [(Poly(F3, 2, t), Fraction(rng.randint(1, 4), 2))])
        delta = F.grid_denominator
        for k in range(1, 6):
            a = Fraction(k, delta)
            big, small = F.ideal_at_level(a), F.ideal_at_level(a + Fraction(1, delta))
            assert big.contains_subspace(small)
        a = Fraction(1, delta)
        Ia, I2a = F.ideal_at_level(a), F.ideal_at_level(2 * a)
        for f in Ia.basis_polys()[:4]:
            for g in Ia.basis_polys()[:4]:
                assert I2a.contains_poly(f.mul_trunc(g, ctx.D))


def test_level_ideal_grid_step(QQ):
    ctx = ctx_of(QQ, 2, 6)
    F = FiltrationSpec(ctx, [(mk(QQ, "x"), Fraction(3, 2))])
    # the ideal only changes when ceil(2a) does
    assert F.ideal_at_level(Fraction(5, 4)).equals(
        F.ideal_at_level(Fraction(6, 4)))
    assert not F.ideal_at_level(Fraction(6, 4)).equals(
        F.ideal_at_level(Fraction(7, 4)))


def test_mu_P_brute_force_cross_check(rng, F2):
    # the min over generators equals the inf over sampled ideal elements
    ctx = ctx_of(F2, 2, 8)
    F = FiltrationSpec(ctx, [(mk(F2, "x^2 + y^3"), 2), (mk(F2, "y^2"), 1)])
    mu = F.mu_P().q
    worst = None
    for a in (1, 2, 3):
        I = F.ideal_at_level(a)
        for f in I.basis_polys():
            if f.is_zero():
                continue
            r = Fraction(int(f.order()), a)
            worst = r if worst is None else min(worst, r)
    assert worst >= mu
    assert mu == min(Fraction(2, 2), Fraction(2, 1))


def test_level_ideal_vs_unpruned_enumeration(rng, F3):
    # the minimal-antichain product search must match the full enumeration
    from idfilt.gls import ideal_image
    from idfilt.verify import rand_spec
    for _ in range(12):
        spec = rand_spec(rng, F3, 2, 6, 2)
        ctx = spec.ctx
        delta = spec.grid_denominator
        for k in (1, 4, 9):
            a = Fraction(k, delta)
            data = [(f.truncate(ctx.D), lvl, int(f.order()))
                    for f, lvl in spec.gens]
            maxn = [ctx.D // max(o, 1) for _, _, o in data]
            prods = []
            for counts in itertools.product(*[range(n + 1) for n in maxn]):
                if sum(c * lvl for c, (_, lvl, _) in zip(counts, data)) < a:
                    continue
                if sum(c * o for c, (_, _, o) in zip(counts, data)) > ctx.D:
                    continue
                prod = Poly.one(F3, 2)
                for c, (g, _, _) in zip(counts, data):
                    for _ in range(c):
                        prod = prod.mul_trunc(g, ctx.D)
                if not prod.is_zero():
                    prods.append(prod)
            assert spec.ideal_at_level(a).equals(
                ideal_image(prods, ctx))


def unpruned_walk(spec, a):
    """The walk of _minimal_products without its order-budget table: it may
    enter branches that return nothing, but returns the same list."""
    D = spec.ctx.D
    delta = spec.grid_denominator
    a = math.ceil(Fraction(a) * delta)
    one = Poly.one(spec.ctx.field, spec.ctx.nvars)
    if a <= 0:
        return [one]
    data = [(f.truncate(D), int(lvl * delta), f.order()) for f, lvl in spec.gens]
    out = []

    def walk(i, prod, level, order, least):
        if i >= len(data):
            return
        walk(i + 1, prod, level, order, least)
        f, lvl, ordf = data[i]
        least = least or lvl
        while level < a:
            order += ordf
            level += lvl
            if order > D or level - least >= a:
                break
            prod = prod.mul_trunc(f, D)
            if level >= a:
                out.append(prod)
            else:
                walk(i + 1, prod, level, order, least)

    walk(0, one, 0, 0, 0)
    return out


def brute_force_minimal(spec, a):
    """Every exponent vector of order <= D that reaches the level a and falls
    short of it once any one used generator is removed, with its product.
    No minimal vector repeats a generator of level l more than ceil(a / l)
    times, which bounds the search also for a unit generator."""
    ctx = spec.ctx
    orders = [f.order() for f, _ in spec.gens]
    levels = [lvl for _, lvl in spec.gens]
    ranges = [range(min(ctx.D // o if o else math.inf, math.ceil(a / lvl)) + 1)
              for o, lvl in zip(orders, levels)]
    found = []
    for counts in itertools.product(*ranges):
        level = sum(c * lvl for c, lvl in zip(counts, levels))
        if (level < a or sum(c * o for c, o in zip(counts, orders)) > ctx.D
                or any(c and level - lvl >= a for c, lvl in zip(counts, levels))):
            continue
        prod = Poly.one(ctx.field, ctx.nvars)
        for c, (g, _) in zip(counts, spec.gens):
            for _ in range(c):
                prod = prod.mul_trunc(g, ctx.D)
        found.append((counts, prod))
    return found


def walk_prefixes(vectors):
    """The walk's nodes on the way to the given exponent vectors: each
    (c_0, ..., c_(i-1), k, 0, ...) with 1 <= k <= c_i."""
    return {c[:i] + (k,) + (0,) * (len(c) - i - 1)
            for c in vectors for i, ci in enumerate(c) for k in range(1, ci + 1)}


def counted_minimal_products(spec, a, monkeypatch):
    """spec._minimal_products(a) and the number of mul_trunc calls it made."""
    calls = []
    mul = Poly.mul_trunc

    def counting(self, other, D):
        calls.append(None)
        return mul(self, other, D)

    with monkeypatch.context() as m:
        m.setattr(Poly, "mul_trunc", counting)
        got = spec._minimal_products(a)
    return got, len(calls)


@pytest.mark.parametrize("name", ["F2", "F3", "F9", "QQ"])
def test_minimal_products_are_the_minimal_exponent_vectors(name, request, rng, monkeypatch):
    # the walk returns exactly the brute-force minimal products, and every
    # product it builds is a prefix of one of them: no wasted mul_trunc
    from idfilt.verify import rand_spec
    F = request.getfixturevalue(name)
    for _ in range(8):
        spec = rand_spec(rng, F, 2, 6, rng.choice([1, 2, 3]))
        delta = spec.grid_denominator
        for a in (Fraction(1, delta), Fraction(4, delta) - Fraction(1, 7), Fraction(9, delta),
                  Fraction(3)):
            want = brute_force_minimal(spec, a)
            got, built = counted_minimal_products(spec, a, monkeypatch)
            assert sorted(p.sort_key() for p in got) == sorted(p.sort_key() for _, p in want)
            assert built == len(walk_prefixes([c for c, _ in want]))


@pytest.mark.parametrize("name", ["F2", "F3", "F9", "QQ"])
def test_minimal_products_keep_the_unpruned_walk_order(name, request, rng):
    # pruning skips only branches that return nothing: same list, same order
    from idfilt.verify import rand_spec
    F = request.getfixturevalue(name)
    for _ in range(10):
        spec = rand_spec(rng, F, 3, rng.choice([4, 6, 8]), rng.choice([1, 2, 3, 4]))
        for k in (1, 2, 3, 5, 8, 13, 21):
            a = Fraction(k, spec.grid_denominator)
            assert spec._minimal_products(a) == unpruned_walk(spec, a)


def test_minimal_products_edge_cases(F3, monkeypatch):
    ctx = ctx_of(F3, 2, 6)
    cases = [
        # no generators at a positive level: no product reaches it
        (FiltrationSpec(ctx, []), [Fraction(1), Fraction(7, 2)]),
        # a unit generator, which ideal_at_level never walks at a > 0: the
        # order-0 repeats are bounded by the level alone
        (FiltrationSpec(ctx, [(mk(F3, "1 + x"), Fraction(1, 2)), (mk(F3, "y^2"), 1)]),
         [Fraction(1, 2), Fraction(2), Fraction(7, 2)]),
        (FiltrationSpec(ctx, [(mk(F3, "2"), 3)]), [Fraction(1), Fraction(10)]),
        # a generator of order beyond D, beside one that fits
        (FiltrationSpec(ctx, [(mk(F3, "x^7 + y^9"), Fraction(1, 3)), (mk(F3, "x*y"), 2)]),
         [Fraction(1, 3), Fraction(2), Fraction(5)]),
        (FiltrationSpec(ctx, [(mk(F3, "y^8"), 1)]), [Fraction(1)]),
        # levels between grid points
        (FiltrationSpec(ctx_of(F3, 2, 8), [(mk(F3, "x"), Fraction(1, 2)),
                                           (mk(F3, "y^2"), Fraction(2, 3))]),
         [Fraction(5, 4), Fraction(4, 3), Fraction(7, 6), Fraction(17, 5)]),
    ]
    for spec, levels in cases:
        for a in levels:
            want = brute_force_minimal(spec, a)
            got, built = counted_minimal_products(spec, a, monkeypatch)
            assert sorted(p.sort_key() for p in got) == sorted(p.sort_key() for _, p in want)
            assert got == unpruned_walk(spec, a)
            assert built == len(walk_prefixes([c for c, _ in want]))
    assert FiltrationSpec(ctx, [])._minimal_products(Fraction(1)) == []


def test_integral_witness_examples(QQ):
    ctx = ctx_of(QQ, 2, 8)
    F = FiltrationSpec(ctx, [(mk(QQ, "x^2"), 2)])
    # x^2 - x^2 = 0 with c_2 = -x^2 at level 2
    assert is_integral_witness(F, mk(QQ, "x"), 1, [Poly.zero(QQ, 2), -mk(QQ, "x^2")])
    # any member with its own negation as witness
    G = FiltrationSpec(ctx, [(mk(QQ, "x"), 1)])
    assert is_integral_witness(G, mk(QQ, "x^2"), 2, [-mk(QQ, "x^2")])
    assert not is_integral_witness(G, mk(QQ, "y"), 1, [-mk(QQ, "y")])
    with pytest.raises(ValueError):
        is_integral_witness(G, mk(QQ, "x"), 1, [])


def test_minimal_products_between_grid_points(F3):
    # the walk counts levels in grid units, rounding a target up to the grid
    ctx = ctx_of(F3, 2, 8)
    F = FiltrationSpec(ctx, [(mk(F3, "x"), Fraction(1, 2)), (mk(F3, "y^2"), Fraction(2, 3))])
    key = lambda prods: sorted(p.sort_key() for p in prods)
    assert key(F._minimal_products(Fraction(5, 4))) == key(F._minimal_products(Fraction(4, 3)))
    # the minimal products reaching 7/6: x^3 (3/2), y^4 (4/3) and x*y^2
    # (7/6); x^2*y^2 (5/3) is not one, since y^2 with one x (7/6) still
    # reaches the level
    got = {poly_str(p) for p in F._minimal_products(Fraction(7, 6))}
    assert got == {"x^3", "y^4", "x*y^2"}
    assert [poly_str(p) for p in F._minimal_products(0)] == ["1"]


def two_key_generators(ctx, gens):
    """FiltrationSpec's generators as they were built with two sort keys per
    generator: dedupe on (level, sort key) in a set, then sort the list."""
    clean = []
    seen = set()
    for f, a in gens:
        a = Fraction(a)
        if a <= 0 or f.is_zero():
            continue
        key = (a, f.sort_key())
        if key in seen:
            continue
        seen.add(key)
        clean.append((f, a))
    clean.sort(key=lambda fa: (fa[1], fa[0].sort_key()))
    return tuple(clean)


@pytest.mark.parametrize("name", ["F2", "F3", "F9", "QQ"])
def test_generators_match_the_two_key_construction(name, request):
    """One dict keyed by (level, sort key) keeps the same generators, the
    first of each key, in the same order: on seeded lists with exact
    duplicates, scalar twins, equal polynomials at other levels, zero
    polynomials and non-positive levels."""
    F = request.getfixturevalue(name)
    rnd = random.Random(f"gens:{name}")
    levels = [Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(5, 2), 3, 0, -1]
    for _ in range(40):
        ctx = ctx_of(F, rnd.randint(1, 3), rnd.randint(2, 6))
        mons = monomial_basis(ctx.nvars, ctx.D)[0]

        def scalar():
            if F.char:
                return rnd.randrange(1, F.p ** F.m)
            return Fraction(rnd.choice([-3, -1, 1, 2, 5]), rnd.choice([1, 2, 3]))

        gens = [(Poly(F, ctx.nvars, {rnd.choice(mons): scalar()
                                     for _ in range(rnd.randint(1, 3))}),
                 rnd.choice(levels)) for _ in range(rnd.randint(1, 6))]
        gens.append((Poly.zero(F, ctx.nvars), 1))
        for _ in range(rnd.randint(2, 10)):
            f, a = rnd.choice(gens)
            kind = rnd.randrange(3)
            if kind == 0:
                gens.append((Poly(F, ctx.nvars, f.terms), a))  # an equal copy
            elif kind == 1:
                gens.append((f.scale(scalar()), a))  # a scalar twin, or a copy
            else:
                gens.append((f, rnd.choice(levels)))
        rnd.shuffle(gens)
        got = FiltrationSpec(ctx, gens).gens
        want = two_key_generators(ctx, gens)
        assert got == want
        assert [id(f) for f, _ in got] == [id(f) for f, _ in want]

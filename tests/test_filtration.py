import bisect
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from idfilt.filtration import FiltrationSpec, is_integral_witness
from idfilt.gls import Coords, GradedSubspace, ideal_image, monomial_basis, multiples, power_m
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


def test_levels_read_once_and_copies_share_generators(QQ):
    """A Fraction level is kept as given and an int becomes a Fraction; a
    copy shares the normalized generators and caches no level ideal."""
    ctx = ctx_of(QQ, 2, 6)
    a = Fraction(3, 2)
    F = FiltrationSpec(ctx, [(mk(QQ, "x"), a), (mk(QQ, "y"), 2), (mk(QQ, "x*y"), Fraction(0))])
    assert [b for _, b in F.gens] == [a, 2] and F.gens[0][1] is a
    assert all(type(b) is Fraction for _, b in F.gens)
    F.ideal_at_level(1)
    G = F.copy()
    assert G == F and G.gens is F.gens and G._level_cache == {} and F._level_cache


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


def every_column(ctx):
    return np.arange(len(monomial_basis(ctx.nvars, ctx.D)[0]))


def unpruned_span(polys, ctx):
    """The span of every X^A p, each p's multiples stacked as they come: no
    column mask and no weight table."""
    blocks = [multiples(p, ctx, every_column(ctx)) for p in polys]
    return (GradedSubspace.from_vectors(ctx, Coords.stack(blocks)) if blocks
            else GradedSubspace.zero(ctx))


def enumerated_products(spec, a):
    """Every product of the generators, each repeated freely, of order <= D
    and level >= a, by brute force over count vectors.  A unit never needs
    more than ceil(a / level) copies."""
    ctx = spec.ctx
    orders = [f.order() for f, _ in spec.gens]
    levels = [lvl for _, lvl in spec.gens]
    ranges = [range((ctx.D // o if o else max(0, math.ceil(a / lvl))) + 1)
              for o, lvl in zip(orders, levels)]
    prods = []
    for counts in itertools.product(*ranges):
        if (sum(c * lvl for c, lvl in zip(counts, levels)) < a
                or sum(c * o for c, o in zip(counts, orders)) > ctx.D):
            continue
        prod = Poly.one(ctx.field, ctx.nvars)
        for c, (g, _) in zip(counts, spec.gens):
            for _ in range(c):
                prod = prod.mul_trunc(g, ctx.D)
        prods.append(prod)
    return prods


def level_ideal_cases(F, rnd):
    """Seeded filtrations in two variables: mixed generators, no monomial
    generator, only monomial generators, and mixed with a unit.  Levels are
    integers and halves; the monomials come with a scalar twin at another
    level and a generator that truncates to a monomial."""
    levels = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)]

    def scalar():
        if F.char:
            return rnd.randrange(1, F.p ** F.m)
        return Fraction(rnd.choice([-3, -1, 1, 2]), rnd.choice([1, 2]))

    for kind in ("mixed", "no monomial", "only monomials", "unit") * 3:
        ctx = ctx_of(F, 2, rnd.randint(3, 6))
        mons = monomial_basis(2, ctx.D)[0][1:]
        gens = []
        if kind != "only monomials":
            for _ in range(rnd.randint(1, 2)):
                exps = rnd.sample(mons, rnd.randint(2, 3))
                gens.append((Poly(F, 2, {e: scalar() for e in exps}), rnd.choice(levels)))
        if kind != "no monomial":
            m = Poly.monomial(F, 2, rnd.choice(mons), scalar())
            gens += [(m, rnd.choice(levels)), (m.scale(scalar()), rnd.choice(levels))]
            gens.append((Poly.monomial(F, 2, rnd.choice(mons), scalar())
                         + Poly.monomial(F, 2, (ctx.D + 1, 1)), rnd.choice(levels)))
        if kind == "unit":
            gens.append((mk(F, "1 + x"), rnd.choice(levels)))
        yield FiltrationSpec(ctx, gens)


def test_level_ideal_vs_unpruned_enumeration(F2, F3, F9, QQ):
    # the weight table and the walk of the other generators span what the
    # multiples of every product reaching the level span
    for F in (F2, F3, F9, QQ):
        rnd = random.Random(f"enumeration:{F!r}")
        for spec in level_ideal_cases(F, rnd):
            for a in (0, Fraction(1, 2), 1, Fraction(7, 5), 2, 3, Fraction(9, 2)):
                want = unpruned_span(enumerated_products(spec, a), spec.ctx)
                assert spec.ideal_at_level(a).equals(want), (spec, a)


def walked_generators(spec):
    """The generators _minimal_products walks: two or more terms at D."""
    D = spec.ctx.D
    return [(f.truncate(D), lvl) for f, lvl in spec.gens
            if 0 < f.order() <= D and len(f.truncate(D).terms) > 1]


def brute_force_triples(spec, a):
    """The (product, level, least factor level) triples _minimal_products
    lists at a, levels in grid units, from their definition over count
    vectors of the walked generators: order <= D, and either level >= a
    with every factor needed to reach it (a minimal vector), or level
    below a and some product of all non-unit generators, of order at most
    D minus the vector's, taking it to a."""
    ctx, delta = spec.ctx, spec.grid_denominator
    a = math.ceil(Fraction(a) * delta)
    walked = walked_generators(spec)
    every = [(int(lvl * delta), f.order()) for f, lvl in spec.gens if 0 < f.order() <= ctx.D]
    reach = [max(sum(c * lvl for c, (lvl, _) in zip(counts, every)) for counts in
                 itertools.product(*[range(b // o + 1) for _, o in every])
                 if sum(c * o for c, (_, o) in zip(counts, every)) <= b)
             for b in range(ctx.D + 1)]
    found = []
    for counts in itertools.product(*[range(ctx.D // f.order() + 1) for f, _ in walked]):
        level = sum(c * int(lvl * delta) for c, (_, lvl) in zip(counts, walked))
        order = sum(c * f.order() for c, (f, _) in zip(counts, walked))
        least = min((int(lvl * delta) for c, (_, lvl) in zip(counts, walked) if c),
                    default=math.inf)
        if order > ctx.D:
            continue
        if a <= level < a + least or level < a <= level + reach[ctx.D - order]:
            prod = Poly.one(ctx.field, ctx.nvars)
            for c, (g, _) in zip(counts, walked):
                for _ in range(c):
                    prod = prod.mul_trunc(g, ctx.D)
            found.append((prod, level, least))
    return found


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


def triple_keys(triples):
    return sorted((p.sort_key(), s, m) for p, s, m in triples)


@pytest.mark.parametrize("name", ["F2", "F3", "F9", "QQ"])
def test_minimal_products_are_the_minimal_exponent_vectors(name, request, rng, monkeypatch):
    # the products at or above a are the minimal exponent vectors of the
    # walked generators, the ones below a those that can still reach it, and
    # each product but the empty one costs one mul_trunc: none is wasted
    from idfilt.verify import rand_spec
    F = request.getfixturevalue(name)
    for _ in range(8):
        spec = rand_spec(rng, F, 2, 6, rng.choice([1, 2, 3]))
        delta = spec.grid_denominator
        for a in (Fraction(1, delta), Fraction(4, delta) - Fraction(1, 7), Fraction(9, delta),
                  Fraction(3)):
            got, built = counted_minimal_products(spec, a, monkeypatch)
            assert triple_keys(got) == triple_keys(brute_force_triples(spec, a))
            assert built == max(0, len(got) - 1)


def unpruned_walk(spec, a):
    """The walk of _minimal_products without its reach cut, each triple kept
    only when it adds a row: when some multiplier X^A of degree <= D - order
    has a - s <= w(A) < a - s + m."""
    D, delta = spec.ctx.D, spec.grid_denominator
    a = math.ceil(Fraction(a) * delta)
    degree_of = monomial_basis(spec.ctx.nvars, D)[2]
    w = spec._level_tables()[0]
    walked = [(f, int(lvl * delta), f.order()) for f, lvl in walked_generators(spec)]
    out = []

    def walk(i, prod, level, order, least):
        k = bisect.bisect_right(degree_of, D - order)
        if ((a - level <= w[:k]) & (w[:k] < a - level + least)).any():
            out.append((prod, level, least))
        if level >= a:
            return
        for j in range(i, len(walked)):
            f, lvl, ordf = walked[j]
            if order + ordf <= D and level + lvl - min(least, lvl) < a:
                walk(j, prod.mul_trunc(f, D), level + lvl, order + ordf, min(least, lvl))

    walk(0, Poly.one(spec.ctx.field, spec.ctx.nvars), 0, 0, math.inf)
    return out


def with_rows(spec, a, triples):
    keep = unpruned_walk(spec, a)
    return [t for t in triples if t in keep]


@pytest.mark.parametrize("name", ["F2", "F3", "F9", "QQ"])
def test_minimal_products_keep_the_unpruned_walk_order(name, request, rng):
    # the reach cut skips only branches that add no row: the same triples
    # that add rows, in the same order
    from idfilt.verify import rand_spec
    F = request.getfixturevalue(name)
    for _ in range(10):
        spec = rand_spec(rng, F, 3, rng.choice([4, 6, 8]), rng.choice([1, 2, 3, 4]))
        for k in (1, 2, 3, 5, 8, 13, 21):
            a = Fraction(k, spec.grid_denominator)
            assert with_rows(spec, a, spec._minimal_products(a)) == unpruned_walk(spec, a)


def test_minimal_products_edge_cases(F3, monkeypatch):
    ctx = ctx_of(F3, 2, 6)
    one, inf = Poly.one(F3, 2), math.inf
    cases = [
        # no product reaches a level above every generator's reach
        (FiltrationSpec(ctx, []), Fraction(1), []),
        # a level <= 0: the empty product alone, with every column
        (FiltrationSpec(ctx, []), Fraction(0), [(one, 0, inf)]),
        (FiltrationSpec(ctx, [(mk(F3, "x + y^2"), 1)]), Fraction(-3, 2), [(one, 0, inf)]),
        # a unit reaches every level with its powers, which span what 1 spans
        (FiltrationSpec(ctx, [(mk(F3, "1 + x"), Fraction(1, 2)), (mk(F3, "y^2"), 1)]),
         Fraction(7, 2), [(one, 7, inf)]),
        (FiltrationSpec(ctx, [(mk(F3, "2"), 3)]), Fraction(10), [(one, 10, inf)]),
        # only monomial generators: nothing is walked, the table holds them
        (FiltrationSpec(ctx, [(mk(F3, "x"), 1), (mk(F3, "2*y^2"), 1)]), Fraction(3),
         [(one, 0, inf)]),
        # a generator that vanishes at D is left out, and x^7 + y^2, which
        # truncates to the monomial y^2, goes to the weight table
        (FiltrationSpec(ctx, [(mk(F3, "x^7 + y^9"), Fraction(1, 3)),
                              (mk(F3, "x^7 + y^2"), 1)]), Fraction(2), [(one, 0, inf)]),
        # x + y^2 reaches at most level 2 within order 2: the cut lists
        # nothing, not even the empty product
        (FiltrationSpec(ctx_of(F3, 2, 2), [(mk(F3, "x + y^2"), 1)]), Fraction(3), []),
    ]
    for spec, a, want in cases:
        got, built = counted_minimal_products(spec, a, monkeypatch)
        assert (got, built) == (want, 0), (spec, a)
        want_span = unpruned_span(enumerated_products(spec, a), spec.ctx)
        assert spec.ideal_at_level(a).equals(want_span), (spec, a)


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
    # the walk counts levels in grid units (here sixths), rounding a target
    # up to the grid
    ctx = ctx_of(F3, 2, 8)
    F = FiltrationSpec(ctx, [(mk(F3, "x + y^3"), Fraction(1, 2)),
                             (mk(F3, "y^2 + x^3"), Fraction(2, 3))])
    key = lambda triples: sorted((poly_str(p), s, m) for p, s, m in triples)
    assert key(F._minimal_products(Fraction(5, 4))) == key(F._minimal_products(Fraction(4, 3)))
    # f = x + y^3 (3/6) and g = y^2 + x^3 (4/6) at 7/6: the products below
    # it are 1, f, f^2 and g, and the minimal ones that reach it f^3, f*g
    # and g^2; f^2*g (10/6) is not minimal, since f*g (7/6) reaches the level
    got = [(poly_str(p), s, m) for p, s, m in F._minimal_products(Fraction(7, 6))]
    f, g = mk(F3, "x + y^3"), mk(F3, "y^2 + x^3")
    want = [(Poly.one(F3, 2), 0, math.inf), (f, 3, 3), (f.pow(2), 6, 3), (f.pow(3), 9, 3),
            (f * g, 7, 3), (g, 4, 4), (g.pow(2), 8, 4)]
    assert got == [(poly_str(p.truncate(8)), s, m) for p, s, m in want]
    assert [(poly_str(p), s, m) for p, s, m in F._minimal_products(0)] == [("1", 0, math.inf)]


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


def truncation_cases(F, rnd):
    """Seeded filtrations in two variables whose generators change under
    truncation at small n: one vanishes below degree 3, one becomes a
    monomial, two at one level become equal, beside a random generator; every
    other case adds a unit.  Levels are integers, halves and thirds."""
    levels = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2]

    def term(lo, hi):
        if F.char:
            c = rnd.randrange(1, F.p ** F.m)
        else:
            c = Fraction(rnd.choice([-3, -1, 1, 2]), rnd.choice([1, 2]))
        exps = rnd.choice([e for e in monomial_basis(2, hi)[0] if sum(e) >= lo])
        return Poly.monomial(F, 2, exps, c)

    for case in range(6):
        D = rnd.randint(4, 6)
        head, twin = term(1, 2), term(1, 2) + term(2, 2)
        tails = [term(3, D), term(3, D) + term(4, D)]
        gens = [(term(3, 3) + term(4, D), rnd.choice(levels)),
                (head + tails[0], rnd.choice(levels)),
                (term(1, D) + term(1, D) + term(2, D), rnd.choice(levels))]
        a = rnd.choice(levels)
        gens += [(twin + tails[0], a), (twin + tails[1], a)]
        if case % 2:
            gens.append((Poly.one(F, 2) + term(1, D), rnd.choice(levels)))
        yield FiltrationSpec(ctx_of(F, 2, D), gens)


@pytest.mark.parametrize("name", ["F2", "F3", "F9", "QQ"])
def test_truncation_is_the_generators_over_the_smaller_ring(name, request):
    """F.truncated(n) keeps F's generators and reads them in R/m^(n+1): its
    level ideals are those of the generators truncated at n and normalized
    again, at every grid level a <= n + 1, and its weight table is its own.
    The grid and the unit flag are those of the generators, and truncating
    at D is F itself.  F's own level ideals are built first, so a truncation
    that kept F's tables or F's ring would read them."""
    F = request.getfixturevalue(name)
    rnd = random.Random(f"truncation:{name}")
    for spec in truncation_cases(F, rnd):
        D = spec.ctx.D
        delta = math.lcm(*(a.denominator for _, a in spec.gens))
        unit = any(f.order() == 0 for f, _ in spec.gens)
        for a in spec.grid_levels():
            spec.ideal_at_level(a)
        assert spec.truncated(D) is spec
        for G in [spec, spec.copy()] + [spec.truncated(n) for n in range(1, D)]:
            assert (G.grid_denominator, G.trivial_full) == (delta, unit)
        for n in range(1, D):
            small = spec.truncated(n)
            ctx = dataclasses.replace(spec.ctx, D=n)
            assert small.ctx == ctx and small.gens is spec.gens
            ref = FiltrationSpec(ctx, [(f.truncate(n), a) for f, a in spec.gens])
            assert n > 2 or len(ref.gens) < len(spec.gens)
            for a in spec.grid_levels(n + 1):
                assert small.ideal_at_level(a).equals(ref.ideal_at_level(a)), (spec, n, a)
            # the weight table has one entry per monomial of its own ring
            N = len(monomial_basis(2, n)[0])
            assert unit or len(small._level_tables()[0]) == N

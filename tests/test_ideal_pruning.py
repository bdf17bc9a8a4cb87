"""ideal_image stacks only a pruned generating set; the span must not move.

The pruning (gls._pruned) drops monomial multiples c X^E q of a kept q, and
the one-term generators become one set of unit columns.  These tests compare ideal_image with the unpruned stack of every generator's
multiples, check that each dropped generator lies in the span of what was
kept, and check that no kept generator is a monomial multiple of another.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idfilt import gls
from idfilt.fields import ExtensionField, PrimeField, RationalField
from idfilt.filtration import FiltrationSpec
from idfilt.gls import GradedSubspace, ideal_image, monomial_basis, multiples
from idfilt.poly import Poly, TruncationContext, poly_str
from idfilt.saturation import RadicalProbeBounds, b_saturate_probe
from idfilt.specfile import parse_spec
from tests.conftest import ctx_of, mk
from tests.test_cli import PINNED_REPORTS
from tests.test_filtration import counted_minimal_products

FIELDS = [PrimeField(2), PrimeField(3), ExtensionField(3, 2), RationalField()]

PRUNING = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def unpruned(gens, ctx):
    blocks = [multiples(g, ctx) for g in gens]
    return (GradedSubspace.from_vectors(ctx, gls.Coords.stack(blocks)) if blocks
            else GradedSubspace.zero(ctx))


def nonzero_scalars(F):
    if F.char:
        return st.integers(1, F.p ** F.m - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def generator_lists(draw):
    """A context and a shuffled list of generators: general polynomials, their
    scalar and monomial multiples (some reaching past D), monomials, and
    polynomials inside the ideal of those monomials."""
    F = draw(st.sampled_from(FIELDS))
    ctx = TruncationContext(F, draw(st.integers(1, 3)), draw(st.integers(1, 5)),
                            frozenset())
    mons = monomial_basis(ctx.nvars, ctx.D)[0]
    low = [m for m in mons if sum(m) <= 2]
    exps = st.sampled_from(mons)
    base = [Poly(F, ctx.nvars, draw(st.dictionaries(exps, nonzero_scalars(F),
                                                    min_size=1, max_size=3)))
            for _ in range(draw(st.integers(1, 3)))]
    monos = [Poly.monomial(F, ctx.nvars, draw(exps), draw(nonzero_scalars(F)))
             for _ in range(draw(st.integers(0, 3)))]
    gens = base + monos
    for _ in range(draw(st.integers(0, 6))):
        g = draw(st.sampled_from(gens))
        gens.append(g.shift(draw(st.sampled_from(low))).scale(draw(nonzero_scalars(F))))
    for m in monos[:2]:
        # a combination of monomial multiples of m: inside the monomial ideal
        terms = {tuple(x + y for x, y in zip(next(iter(m.terms)), A)): draw(nonzero_scalars(F))
                 for A in draw(st.lists(st.sampled_from(low), min_size=1, max_size=3))}
        gens.append(Poly(F, ctx.nvars, terms))
    return ctx, draw(st.permutations(gens))


def monomial_multiple(p, q):
    """Is p = c X^E q for a scalar c and a monomial X^E.  A monomial shift keeps
    the order of exponent tuples, so the smallest terms must correspond."""
    F = p.field
    ep, eq = min(p.terms), min(q.terms)
    E = tuple(x - y for x, y in zip(ep, eq))
    if min(E) < 0 or len(p.terms) != len(q.terms):
        return False
    c = F.mul(p.terms[ep], F.inv(q.terms[eq]))
    return q.shift(E).scale(c) == p


@PRUNING
@given(generator_lists())
def test_pruning_keeps_the_span(case):
    ctx, gens = case
    assert ideal_image(gens, ctx).equals(unpruned(gens, ctx))
    kept = gls._pruned(gens, ctx)
    truncated = [g.truncate(ctx.D) for g in gens]
    assert all(p in truncated for p in kept)
    span = unpruned(kept, ctx)
    for g in truncated:
        if g not in kept:
            assert span.contains_subspace(GradedSubspace.from_vectors(ctx, multiples(g, ctx)))


@PRUNING
@given(generator_lists())
def test_kept_generators_are_irredundant(case):
    ctx, gens = case
    kept = gls._pruned(gens, ctx)
    for i, p in enumerate(kept):
        assert not any(monomial_multiple(p, q) for j, q in enumerate(kept) if j != i)


def test_pruning_examples(F3, QQ):
    for F in (F3, QQ):
        ctx = ctx_of(F, 2, 6)
        gens = [mk(F, t) for t in ("x*y^3", "2*y^3", "y^3", "x^2 + y", "x^3 + x*y",
                                   "x^2*y + y^2", "x*y^3 + y^4", "x^7 + y^5")]
        # 2*y^3 before its scalar multiple y^3 (equal order keeps list order),
        # x^3 + x*y = x (x^2 + y), x^2 y + y^2 = y (x^2 + y), and x^7 + y^5
        # truncates to y^5; x y^3 + y^4 = y^3 (x + y) is no monomial multiple
        assert [poly_str(p) for p in gls._pruned(gens, ctx)] == [
            "y + x^2", "2*y^3", "x*y^3 + y^4"]


def test_pruning_cuts_the_rows_of_the_saturated_level_ideal(monkeypatch):
    # the level-3 ideal of this pin's saturation has 137 minimal products,
    # 9,024 rows, before pruning; ideal_image hands the presolve 582, the
    # unit rows of the monomial products' columns and the multiples of the
    # other products that _pruned keeps; the walk that finds them builds
    # 196 products, each a divisor of one it returns
    spec = parse_spec(PINNED_REPORTS["gf3_d3_D12"][0])
    opts = spec.options
    F0 = FiltrationSpec(spec.context(), spec.gens)
    Fb, _ = b_saturate_probe(F0, RadicalProbeBounds(opts.radical_n_max, opts.radical_grid),
                             opts.candidates)
    ctx = Fb.ctx
    prods, built = counted_minimal_products(Fb, Fraction(3), monkeypatch)
    assert built == 196
    stacked = sum(len(multiples(g, ctx)) for g in prods)
    handed = []
    rref = gls._rref

    def counting_rref(field, rows):
        handed.append(len(rows))
        return rref(field, rows)

    monkeypatch.setattr(gls, "_rref", counting_rref)
    got = ideal_image(prods, ctx)
    assert (len(prods), stacked, handed) == (137, 9024, [582])
    monkeypatch.undo()
    assert got.equals(unpruned(prods, ctx))


def reference_divides(a, b) -> bool:
    """Does the monomial X^a divide X^b (the pairwise test _pruned used to
    make)."""
    return all(x <= y for x, y in zip(a, b))


def reference_pruned(gens, ctx):
    """_pruned as it was written before it sorted each generator's exponents
    once: per-term pairs, the content by zip, and a Python divisibility
    test."""
    F = ctx.field
    contents = {}
    kept = []
    for p in sorted((g.truncate(ctx.D) for g in gens), key=Poly.order):
        if p.is_zero():
            continue
        terms = sorted(p.terms.items())
        E = tuple(map(min, zip(*(e for e, _ in terms))))
        scale = F.inv(terms[0][1])
        P = tuple((tuple(x - y for x, y in zip(e, E)), F.mul(scale, c)) for e, c in terms)
        seen = contents.setdefault(P, [])
        if any(reference_divides(K, E) for K in seen):
            continue
        seen.append(E)
        kept.append(p)
    return kept


def random_scalar(F, rnd):
    if F.char:
        return rnd.randrange(1, F.p ** F.m)
    return Fraction(rnd.choice([-3, -2, -1, 1, 2, 5]), rnd.choice([1, 2, 3]))


def random_generators(F, rnd):
    """A context and a list holding base generators, exact duplicates, scalar
    twins, monomial multiples (some past D), monomials, terms above D and
    generators that truncate to zero."""
    ctx = TruncationContext(F, rnd.randint(1, 4), rnd.randint(2, 7), frozenset())
    d, D = ctx.nvars, ctx.D
    mons = monomial_basis(d, D + 2)[0]

    def poly(n):
        return Poly(F, d, {rnd.choice(mons): random_scalar(F, rnd) for _ in range(n)})

    gens = [poly(rnd.randint(1, 4)) for _ in range(rnd.randint(1, 5))]
    gens += [Poly.monomial(F, d, rnd.choice(mons), random_scalar(F, rnd))
             for _ in range(rnd.randint(0, 3))]
    gens += [Poly.monomial(F, d, (D + 1,) + (0,) * (d - 1))]  # zero truncation
    for _ in range(rnd.randint(3, 12)):
        g = rnd.choice(gens)
        kind = rnd.randrange(3)
        if kind == 0:
            gens.append(g)
        elif kind == 1:
            gens.append(g.scale(random_scalar(F, rnd)))
        else:
            gens.append(g.shift(rnd.choice(mons[:comb(2 + d, d)])).scale(random_scalar(F, rnd)))
    rnd.shuffle(gens)
    return ctx, gens


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_pruning_matches_the_pairwise_reference(F):
    rnd = random.Random(f"pruned:{F!r}")
    for _ in range(150):
        ctx, gens = random_generators(F, rnd)
        want = reference_pruned(gens, ctx)
        got = gls._pruned(gens, ctx)
        assert [p.terms for p in got] == [p.terms for p in want]
        assert [list(p.terms) for p in got] == [list(p.terms) for p in want]


def monomial_mixture(F, rnd):
    """A context and a list for ideal_image's split by term count: general
    polynomials, monomials (some above D), a polynomial that truncates to a
    monomial, scalar twins of monomials, monomial multiples of the general
    polynomials, a zero polynomial and, in some lists, a constant."""
    ctx = TruncationContext(F, rnd.randint(1, 4), rnd.randint(2, 7), frozenset())
    d, D = ctx.nvars, ctx.D
    mons = monomial_basis(d, D + 2)[0]
    high = [m for m in mons if sum(m) > D]

    def poly(n):
        return Poly(F, d, {rnd.choice(mons[1:]): random_scalar(F, rnd) for _ in range(n)})

    base = [poly(rnd.randint(2, 4)) for _ in range(rnd.randint(1, 3))]
    monos = [Poly.monomial(F, d, rnd.choice(mons[1:]), random_scalar(F, rnd))
             for _ in range(rnd.randint(1, 5))]
    gens = base + monos + [Poly.zero(F, d)]
    gens.append(Poly(F, d, {rnd.choice(mons[1:comb(D + d, d)]): random_scalar(F, rnd),
                            rnd.choice(high): random_scalar(F, rnd)}))
    gens += [m.scale(random_scalar(F, rnd)) for m in rnd.sample(monos, min(2, len(monos)))]
    gens += [g.shift(rnd.choice(mons[:comb(2 + d, d)])).scale(random_scalar(F, rnd))
             for g in rnd.choices(base, k=3)]
    if rnd.randrange(4) == 0:
        gens.append(Poly.const(F, d, random_scalar(F, rnd)))
    rnd.shuffle(gens)
    return ctx, gens


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_monomial_columns_keep_the_span(F):
    """ideal_image with the one-term generators as one column set spans what
    the multiples of every generator span."""
    rnd = random.Random(f"columns:{F!r}")
    for _ in range(60):
        ctx, gens = monomial_mixture(F, rnd)
        assert ideal_image(gens, ctx).equals(unpruned(gens, ctx))


def test_no_one_term_generator_reaches_pruning_or_multiples(monkeypatch):
    """During analyze of the gf3_d3_D12 pin, ideal_image takes every monomial
    generator as columns: neither _pruned nor multiples sees one."""
    from idfilt.pipeline import analyze
    seen = []
    pruned, mults = gls._pruned, gls.multiples

    def counting_pruned(gens, ctx):
        gens = list(gens)
        seen.extend(gens)
        return pruned(gens, ctx)

    def counting_multiples(g, ctx, low=0):
        seen.append(g)
        return mults(g, ctx, low)

    monkeypatch.setattr(gls, "_pruned", counting_pruned)
    monkeypatch.setattr(gls, "multiples", counting_multiples)
    analyze(parse_spec(PINNED_REPORTS["gf3_d3_D12"][0]))
    assert seen and all(len(g.terms) > 1 for g in seen)

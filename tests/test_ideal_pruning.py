"""Level ideals and ideal_image stack fewer rows; the span must not move.

ideal_image takes the one-term generators as one set of unit columns, and a
level ideal takes its monomial generators as one weight table over the
columns, walking only the products of its other generators.  These tests
compare both with the plain stack of every generator's multiples, and pin
the products and rows of a saturated level ideal.
"""

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idfilt import gls
from idfilt.fields import ExtensionField, PrimeField, RationalField
from idfilt.filtration import FiltrationSpec
from idfilt.gls import ideal_image, monomial_basis
from idfilt.poly import Poly, TruncationContext
from idfilt.saturation import RadicalProbeBounds, b_saturate_probe
from idfilt.specfile import parse_spec
from tests.test_cli import PINNED_REPORTS
from tests.test_filtration import counted_minimal_products, unpruned_span

FIELDS = [PrimeField(2), PrimeField(3), ExtensionField(3, 2), RationalField()]

PRUNING = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


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


@PRUNING
@given(generator_lists())
def test_pruning_keeps_the_span(case):
    ctx, gens = case
    assert ideal_image(gens, ctx).equals(unpruned_span(gens, ctx))


def saturated_pin():
    """The b-saturated filtration of the gf3_d3_D12 pin: eleven generators,
    one of them, x^3 + y^4 + z^5, with more than one term."""
    spec = parse_spec(PINNED_REPORTS["gf3_d3_D12"][0])
    opts = spec.options
    F0 = FiltrationSpec(spec.context(), spec.gens)
    Fb, _ = b_saturate_probe(F0, RadicalProbeBounds(opts.radical_n_max, opts.radical_grid),
                             opts.candidates)
    return Fb


def basis_digest(S):
    B = S.basis
    return hashlib.sha256(B.rows.tobytes() + B.cols.tobytes() + B.vals.tobytes()).hexdigest()


# level -> (products walked, mul_trunc calls, rows handed to _rref, dim,
# basis digest prefix).  The digests and dims were recorded from the
# all-generator walk with pruned stacks, which built 15, 52, 196, 567, 1,450
# and 232 products and handed 659, 628, 582, 949, 636 and 69 rows.
SATURATED_LEVELS = {
    1: (2, 1, 452, 449, "4ebe0ed3580c"),
    2: (2, 1, 446, 436, "a6939784ceb3"),
    3: (2, 1, 437, 414, "95493c7ed179"),
    4: (3, 2, 422, 378, "fe77cd3704dc"),
    6: (3, 2, 334, 257, "6dd0279dd9c2"),
    9: (4, 3, 51, 46, "4675d10ef5c1"),
}


def test_pruning_cuts_the_rows_of_the_saturated_level_ideal(monkeypatch):
    # the ten monomial generators are one weight table and only the powers
    # of x^3 + y^4 + z^5 are walked, so each level builds at most three
    # products; the rows are the multiples of the empty product and of
    # those powers by the columns in their weight windows
    Fb = saturated_pin()
    for a, (nprods, nbuilt, nrows, dim, digest) in SATURATED_LEVELS.items():
        prods, built = counted_minimal_products(Fb, Fraction(a), monkeypatch)
        handed = []
        rref = gls._rref

        def counting_rref(field, rows):
            handed.append(len(rows))
            return rref(field, rows)

        monkeypatch.setattr(gls, "_rref", counting_rref)
        Fb._level_cache.clear()
        got = Fb.ideal_at_level(a)
        monkeypatch.undo()
        assert (len(prods), built, handed, got.dim) == (nprods, nbuilt, [nrows], dim), a
        assert basis_digest(got).startswith(digest), a


def test_level_six_builds_at_most_two_products(monkeypatch):
    Fb = saturated_pin()
    calls = []
    mul = Poly.mul_trunc

    def counting(self, other, D):
        calls.append(None)
        return mul(self, other, D)

    monkeypatch.setattr(Poly, "mul_trunc", counting)
    Fb.ideal_at_level(6)
    assert len(calls) <= 2


def random_scalar(F, rnd):
    if F.char:
        return rnd.randrange(1, F.p ** F.m)
    return Fraction(rnd.choice([-3, -2, -1, 1, 2, 5]), rnd.choice([1, 2, 3]))


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
        assert ideal_image(gens, ctx).equals(unpruned_span(gens, ctx))


def test_no_one_term_generator_reaches_pruning_or_multiples(monkeypatch):
    """During analyze of the gf3_d3_D12 pin, ideal_image takes every monomial
    generator and every one-term product as columns: multiples never sees
    one."""
    from idfilt.pipeline import analyze
    seen = []
    mults = gls.multiples

    def counting_multiples(g, ctx, cols):
        seen.append(g)
        return mults(g, ctx, cols)

    monkeypatch.setattr(gls, "multiples", counting_multiples)
    analyze(parse_spec(PINNED_REPORTS["gf3_d3_D12"][0]))
    assert seen and all(len(g.terms) > 1 for g in seen)

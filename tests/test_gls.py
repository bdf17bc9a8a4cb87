import random
import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest

from idfilt import gls, verify
from idfilt.fields import PrimeField
from idfilt.gls import Coords, GradedSubspace, ideal_image, monomial_basis, power_m
from idfilt.poly import Poly, TruncationContext, grlex_key, poly_str
from tests.conftest import ctx_of, mk


def test_ideal_image_monomial_slices(F2):
    ctx = ctx_of(F2, 2, 3)
    I = ideal_image([mk(F2, "x")], ctx)
    # hand enumeration: deg1 {x}, deg2 {x^2, xy}, deg3 {x^3, x^2 y, x y^2}
    assert I.slice_dims() == [0, 1, 2, 3]
    assert [poly_str(f) for f in I.graded_slice(2).basis_polys()] == ["x^2", "x*y"]


def test_ideal_image_zero(F2):
    ctx = ctx_of(F2, 2, 3)
    I = ideal_image([Poly.zero(F2, 2)], ctx)
    assert I.dim == 0


def test_ideal_image_inhomogeneous_membership(F2):
    # rows are whole elements: x^2+y^3 is a member, its graded piece x^2 is not
    ctx = ctx_of(F2, 2, 4)
    I = ideal_image([mk(F2, "x^2 + y^3")], ctx)
    assert I.contains_poly(mk(F2, "x^2 + y^3"))
    assert not I.contains_poly(mk(F2, "x^2"))


def test_membership_documents_truncation_semantics(QQ):
    # x^2 + y^3 truncates to x^2 at D=2, so x^2 becomes a member there
    f = mk(QQ, "x^2 + y^3")
    I2 = ideal_image([f], ctx_of(QQ, 2, 2))
    I3 = ideal_image([f], ctx_of(QQ, 2, 3))
    assert I2.contains_poly(mk(QQ, "x^2"))
    assert not I3.contains_poly(mk(QQ, "x^2"))


def test_membership_errors_beyond_truncation(F2):
    ctx = ctx_of(F2, 2, 3)
    I = ideal_image([mk(F2, "x")], ctx)
    with pytest.raises(ValueError):
        I.contains_poly(mk(F2, "x^4"))


def test_sum_and_intersect_examples(F5):
    ctx = ctx_of(F5, 2, 4)
    S = ideal_image([mk(F5, "x")], ctx)
    zero = GradedSubspace.zero(ctx)
    assert S.sum_with(zero).equals(S)
    full = power_m(0, ctx)
    assert S.intersect(full).equals(S)
    meet = ideal_image([mk(F5, "x")], ctx).intersect(ideal_image([mk(F5, "y")], ctx))
    assert meet.equals(ideal_image([mk(F5, "x*y")], ctx))


def test_sum_intersect_dimension_formula(rng, F3, QQ):
    for F in (F3, QQ):
        ctx = ctx_of(F, 2, 5)
        for _ in range(20):
            def rnd():
                t = {(rng.randint(0, 3), rng.randint(0, 2)):
                     F.from_int(rng.randint(1, 3)) for _ in range(3)}
                f = Poly(F, 2, t)
                return f if not f.is_zero() else Poly.variable(F, 2, 0)
            A = ideal_image([rnd()], ctx)
            B = ideal_image([rnd()], ctx)
            s = A.sum_with(B)
            t = A.intersect(B)
            assert A.dim + B.dim == s.dim + t.dim


def test_ideal_image_redundant_generators(rng, F2):
    ctx = ctx_of(F2, 2, 6)
    f, g = mk(F2, "x^2 + y"), mk(F2, "x*y")
    base = ideal_image([f, g], ctx)
    combo = f.mul_trunc(mk(F2, "1 + x"), 6) + g.mul_trunc(mk(F2, "y"), 6)
    again = ideal_image([f, g, combo], ctx)
    assert base.equals(again)


def test_variable_multiple_stays_member(F3):
    ctx = ctx_of(F3, 2, 6)
    I = ideal_image([mk(F3, "x + y^2")], ctx)
    f = mk(F3, "x + y^2")
    for shift in ((1, 0), (0, 1)):
        assert I.contains_poly(f.shift(shift, ctx.D))


def test_power_m_conventions(F2):
    ctx = ctx_of(F2, 2, 4)
    N = len(monomial_basis(2, 4)[0])
    assert power_m(0, ctx).dim == N
    assert power_m(-3, ctx).dim == N
    assert power_m(5, ctx).dim == 0
    m2 = power_m(2, ctx)
    assert m2.dim == N - 3  # all monomials except 1, x, y
    assert m2.contains_poly(mk(F2, "x^2 + x*y^3"))
    assert not m2.contains_poly(mk(F2, "x + x^2"))


def test_dump_deterministic(F2):
    ctx = ctx_of(F2, 2, 3)
    S = ideal_image([mk(F2, "x"), mk(F2, "y^2")], ctx)
    assert S.dump() == S.dump()
    assert S.dump().splitlines()[0] == "x"


def test_context_mismatch_errors(F2, F3):
    A = ideal_image([mk(F2, "x")], ctx_of(F2, 2, 3))
    B = ideal_image([mk(F3, "x")], ctx_of(F3, 2, 3))
    with pytest.raises(ValueError):
        A.sum_with(B)


def test_extension_fields_use_the_numpy_kernel(monkeypatch):
    # GF(p^m) scalars are int codes in one int64 matrix format; the generic
    # kernel serves QQ only, so analyze over GF(3^2) never reaches it
    from idfilt import gls
    from idfilt.fields import ExtensionField
    from idfilt.pipeline import analyze
    from idfilt.specfile import parse_spec

    def generic(*args):
        raise AssertionError("generic kernel called")

    monkeypatch.setattr(gls, "rref_generic", generic)
    monkeypatch.setattr(gls, "reduce_generic", generic)
    assert gls._matrix(ExtensionField(3, 2), (2, 3)).dtype == np.int64
    rep = analyze(parse_spec("field: GF(3^2)\nvars: x, y, z\ntruncation: 6\n"
                             "gen: x + y^2 @ 1\ngen: y^3 + z^4 @ 3\n"))
    assert rep["input"]["field"] == "GF(3^2)"


def test_equals_reads_the_non_pivot_columns(F3):
    ctx = ctx_of(F3, 2, 2)
    A = ideal_image([mk(F3, "x + y^2")], ctx)
    B = ideal_image([mk(F3, "x + 2*y^2")], ctx)
    assert A.pivots == B.pivots and not A.equals(B)
    assert A.equals(ideal_image([mk(F3, "2*x + 2*y^2")], ctx))


@pytest.mark.parametrize("name", ["F2", "F9", "QQ"])
def test_vec_to_poly_round_trip(name, request):
    """A polynomial goes to its dense vector and back through a residue
    modulo zero, and comes back with its terms in graded-lex order."""
    F = request.getfixturevalue(name)
    ctx = ctx_of(F, 2, 4)
    f = mk(F, "y^4 + 2*x*y + x^2 + 3") if F.char != 2 else mk(F, "y^4 + x*y + 1")
    zero = GradedSubspace.zero(ctx)
    g = zero.reduce_poly(f)
    assert g == f and list(g.terms) == sorted(f.terms, key=grlex_key)
    assert Coords.of_polys([f], ctx).dense(F)[0].tolist() == [
        f.terms.get(m, 0) for m in monomial_basis(2, 4)[0]]
    assert zero.reduce_poly(Poly.zero(F, 2)).is_zero()


def test_monomial_basis_matches_filtered_product():
    for d in range(1, 5):
        for D in range(7):
            want = sorted((m for m in product(range(D + 1), repeat=d) if sum(m) <= D),
                          key=grlex_key)
            mons, index, degree_of = monomial_basis(d, D)
            assert list(mons) == want
            assert index == {m: i for i, m in enumerate(want)}
            assert degree_of == tuple(sum(m) for m in want)
    for d, D in ((6, 10), (5, 13)):
        assert len(monomial_basis(d, D)[0]) == comb(D + d, d)


@pytest.mark.parametrize("d, D", [(1, 5), (2, 10), (3, 12), (4, 16), (6, 10)])
def test_monomial_basis_is_the_sorted_graded_lex_list(d, D):
    """The columns built in graded-lex order are the tuples of degree <= D
    sorted by grlex_key."""
    mons = [()]
    for _ in range(d):
        mons = [m + (e,) for m in mons for e in range(D + 1 - sum(m))]
    want = sorted(mons, key=grlex_key)
    got, index, degree_of = monomial_basis(d, D)
    assert got == tuple(want)
    assert index == {m: i for i, m in enumerate(want)}
    assert degree_of == tuple(map(sum, want))


def test_every_stack_reaches_rref_as_coordinates(monkeypatch):
    """_rref eliminates a Coords and nothing else, on an analyze where every
    stage runs and on the verify suites that sum, meet and check."""
    stacks = []
    rref = gls._rref

    def checked(field, stack):
        assert isinstance(stack, gls.Coords), type(stack)
        stacks.append(stack)
        return rref(field, stack)

    monkeypatch.setattr(gls, "_rref", checked)
    from idfilt.pipeline import analyze
    from idfilt.specfile import parse_spec
    rep = analyze(parse_spec("field: GF(3)\nvars: x, y, z\ntruncation: 10\n"
                             "gen: x + z^4 @ 1\ngen: y^3 @ 3\n"))
    assert rep["nonsingularity"]["applicable"] and "coefficient_level_1" in rep["checks"]
    for suite in (verify.suite_gls_laws, verify.suite_leading_pure,
                  verify.suite_coefficient_decomposition):
        assert suite(random.Random(f"0:{verify.ALL_SUITES.index(suite)}")).passed
    assert stacks


def test_empty_stacks_skip_the_presolve(monkeypatch, F3):
    """A stack with no entries spans zero without a presolve round: the zero
    space, no polynomials, no generators, and a generator that vanishes at
    the truncation degree."""
    def presolve(*args):
        raise AssertionError("presolve called on an empty stack")

    monkeypatch.setattr(gls, "_singletons", presolve)
    ctx = ctx_of(F3, 2, 3)
    for S in (GradedSubspace.zero(ctx), GradedSubspace.from_polys(ctx, []),
              ideal_image([], ctx), ideal_image([mk(F3, "x^4")], ctx)):
        assert S.dim == 0 and S.basis.shape == (0, 10) and not S.basis_polys()
        assert S.equals(power_m(4, ctx))


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_power_m_builds_no_identity(F3):
    """m^0 at GF(3), d=4, D=12 is N = 1,820 unit rows, a few arrays of N
    entries, not an N x N identity (26 MB): tracemalloc counts numpy's
    buffers too."""
    ctx = TruncationContext(F3, 4, 12, frozenset())
    monomial_basis(4, 12)  # cached, and not the subject
    assert peak_bytes(power_m, 0, ctx) < 2 * 2 ** 20


def test_envelope_analyze_keeps_no_dense_basis():
    """analyze of the gf3_d4_D14 pin holds its bases as coordinates; dense
    bases peaked at about 250 MB."""
    from idfilt.pipeline import analyze
    from idfilt.specfile import parse_spec
    from tests.test_cli import PINNED_REPORTS
    spec = parse_spec(PINNED_REPORTS["gf3_d4_D14"][0])
    assert peak_bytes(analyze, spec) < 64 * 2 ** 20


def test_envelope_edge_reduces_h_without_a_dense_block():
    """analyze of the gf3_d4_D16 pin: the structural pivots reduce the
    stacks of H's multiples, whose blocks made dense for the kernel peaked
    at about 51 MB traced; about 4.5 MB remain."""
    from idfilt.pipeline import analyze
    from idfilt.specfile import parse_spec
    from tests.test_cli import PINNED_REPORTS
    spec = parse_spec(PINNED_REPORTS["gf3_d4_D16"][0])
    assert peak_bytes(analyze, spec) < 16 * 2 ** 20


@pytest.mark.parametrize("d, D", [(1, 5), (2, 10), (3, 12), (4, 16), (6, 10), (6, 16)])
def test_shift_map_matches_the_index_lookup(d, D):
    """The column of X^(A+e) from graded-lex ranks equals the index of A + e,
    for A over the prefix with |A + e| <= D, on sampled e (the first and
    last column among them)."""
    mons, index, degree_of = monomial_basis(d, D)
    picks = random.Random(f"{d}:{D}").sample(mons, min(25, len(mons)))
    for e in [mons[0], mons[-1]] + picks:
        k = sum(1 for n in degree_of if n + sum(e) <= D)
        want = [index[tuple(a + b for a, b in zip(A, e))] for A in mons[:k]]
        got = gls._shift_map(d, D, e)
        assert got.dtype == np.intp and got.tolist() == want
        assert not got.flags.writeable


def test_shift_map_caches_can_be_emptied():
    """The benchmark empties a module's caches by calling cache_clear on each
    of its callables that has one; the rank tables are found that way too,
    and a map built after the clear is the same."""
    want = gls._shift_map(3, 4, (1, 0, 0)).tolist()
    cleared = [name for name, fn in vars(gls).items()
               if callable(getattr(fn, "cache_clear", None))]
    assert {"_rank_tables", "_shift_map", "monomial_basis"} <= set(cleared)
    for name in cleared:
        getattr(gls, name).cache_clear()
    assert gls._rank_tables.cache_info().currsize == 0
    x = gls._shift_map(3, 4, (1, 0, 0))
    assert x.tolist() == want and len(x) == comb(3 + 3, 3)
    assert x[:10].tolist() == [1, 4, 5, 6, 10, 11, 12, 13, 14, 15]


def knapsack_weight(E, mons):
    """The largest level of a product of the weighted monomials, each
    repeated freely, that divides X^E: a brute-force recursion."""
    best = 0
    for e, lvl in mons:
        if all(x <= y for x, y in zip(e, E)):
            best = max(best, lvl + knapsack_weight(tuple(y - x for x, y in zip(e, E)), mons))
    return best


def test_monomial_weights_match_the_brute_force_knapsack():
    """On seeded lists in d <= 3 variables at D <= 8, with repeated
    exponents at other levels and a monomial of degree above D, which
    divides no column."""
    rnd = random.Random("weights")
    for _ in range(60):
        d, D = rnd.randint(1, 3), rnd.randint(1, 8)
        ctx = ctx_of(PrimeField(3), d, D)
        mons = monomial_basis(d, D)[0]
        pairs = [(rnd.choice(mons[1:]), rnd.randint(1, 7)) for _ in range(rnd.randint(1, 4))]
        pairs.append((pairs[0][0], rnd.randint(1, 7)))
        pairs.append(((D + 1,) + (0,) * (d - 1), 5))
        got = gls.monomial_weights(pairs, ctx)
        assert got.dtype == np.int64
        assert got.tolist() == [knapsack_weight(E, pairs) for E in mons]
    assert gls.monomial_weights([], ctx).tolist() == [0] * len(mons)

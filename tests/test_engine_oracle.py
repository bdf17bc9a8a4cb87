"""The elimination engine against a plain exact Gauss-Jordan oracle.

The oracle below uses nothing but the Field interface, so these tests check
both kernels the engine runs (the numpy kernel over GF(p) and, with table
lookups, over every built-in GF(p^m); the generic kernel over QQ) the same
way.  The field arithmetic itself is checked against an independent
reference in test_fields.
"""

from fractions import Fraction
from math import isqrt
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idfilt import _linalg, gls
from idfilt._kernels import rref_mod_p
from idfilt.fields import BUILTIN_MODULI, ExtensionField, PrimeField, RationalField
from idfilt.gls import GradedSubspace, monomial_basis
from idfilt.poly import Poly, TruncationContext

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(7), RationalField(),
          # the largest primes the int64 kernels accept
          PrimeField(2147483647)] + [ExtensionField(p, m) for p, m in sorted(BUILTIN_MODULI)]

ORACLE = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


# the oracle ------------------------------------------------------------------

def gauss_jordan(F, rows):
    """Canonical RREF (nonzero rows, pivot columns), leftmost pivots."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def residue(F, basis, v):
    rows, pivots = basis
    v = list(v)
    for row, c in zip(rows, pivots):
        f = v[c]
        v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
    return v


def meet(F, A, B):
    """Zassenhaus on the oracle's own elimination."""
    a, b = A[0], B[0]
    if not a or not b:
        return [], []
    N = len(a[0])
    zero = [F.zero()] * N
    red, _ = gauss_jordan(F, [r + r for r in a] + [r + zero for r in b])
    return gauss_jordan(F, [r[N:] for r in red if all(F.is_zero(x) for x in r[:N])])


def as_vec(f, ctx):
    return [f.terms.get(m, ctx.field.zero()) for m in monomial_basis(ctx.nvars, ctx.D)[0]]


def assert_stored(basis, F):
    """A basis lists its nonzero entries once each, sorted by row, then
    column: the order equals and basis_polys read."""
    rows, cols = basis.rows.tolist(), basis.cols.tolist()
    assert list(zip(rows, cols)) == sorted(set(zip(rows, cols)))
    assert not any(F.is_zero(x) for x in basis.vals.tolist())


def engine_basis(S):
    assert_stored(S.basis, S.ctx.field)
    return S.basis.dense(S.ctx.field).tolist(), list(S.pivots)


def assert_canonical(S):
    """S is already the canonical basis of its span: eliminating its own
    rows again gives the same rows and pivots."""
    assert engine_basis(GradedSubspace.from_vectors(S.ctx, S.basis)) == engine_basis(S)


# inputs ----------------------------------------------------------------------

def scalars(F):
    if F.char:  # residues over GF(p), int codes over GF(p^m)
        return st.integers(0, F.p ** F.m - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def contexts(draw):
    F = draw(st.sampled_from(FIELDS))
    return TruncationContext(F, draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                             frozenset())


def polys(draw, ctx):
    """A few sparse polynomials, plus a sum of two of them so that dependent
    rows occur often."""
    mons = monomial_basis(ctx.nvars, ctx.D)[0]
    out = [Poly(ctx.field, ctx.nvars,
                draw(st.dictionaries(st.sampled_from(mons), scalars(ctx.field),
                                     max_size=4)))
           for _ in range(draw(st.integers(0, 4)))]
    if len(out) >= 2 and draw(st.booleans()):
        out.append(out[0] + out[-1])
    return out


@st.composite
def two_sets(draw):
    """A context and two polynomial lists in it."""
    ctx = draw(contexts())
    return ctx, polys(draw, ctx), polys(draw, ctx)


@st.composite
def matrices(draw):
    F = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 6))
    return F, draw(st.lists(st.lists(scalars(F), min_size=ncols, max_size=ncols),
                            min_size=1, max_size=5))


@st.composite
def mostly_unit_rows(draw, F):
    """Rows that are mostly c*e_j, with c often not 1 and j often repeated,
    plus zero rows, chain rows c*e_j + c'*e_(j+1), which become singletons
    only once an earlier round has taken e_j, and a few denser rows."""
    ncols = draw(st.integers(1, 6))
    nonzero = scalars(F).filter(lambda c: not F.is_zero(c))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        j = draw(st.integers(0, ncols - 1))
        support = draw(st.sampled_from([{j}, {j}, {j}, set(), {j, min(j + 1, ncols - 1)},
                                        set(range(j, ncols))]))
        rows.append([draw(nonzero) if c in support else F.zero() for c in range(ncols)])
    return rows


# tests -----------------------------------------------------------------------

@ORACLE
@given(two_sets())
def test_from_polys_and_reduce_poly(case):
    ctx, gens, probes = case
    F = ctx.field
    S = GradedSubspace.from_polys(ctx, gens)
    want = gauss_jordan(F, [as_vec(f, ctx) for f in gens])
    assert engine_basis(S) == want
    # the constant 1 leaves a residue supported on the first column alone
    for f in probes + [Poly.one(F, ctx.nvars)]:
        r = as_vec(S.reduce_poly(f), ctx)
        assert r == residue(F, want, as_vec(f, ctx))
        assert S.contains_poly(f) == all(F.is_zero(x) for x in r)


@ORACLE
@given(two_sets())
def test_sum_and_intersect(case):
    ctx, ga, gb = case
    F = ctx.field
    A, B = GradedSubspace.from_polys(ctx, ga), GradedSubspace.from_polys(ctx, gb)
    a, b = gauss_jordan(F, [as_vec(f, ctx) for f in ga]), gauss_jordan(F, [as_vec(f, ctx) for f in gb])
    assert engine_basis(A.sum_with(B)) == gauss_jordan(F, a[0] + b[0])
    assert engine_basis(A.intersect(B)) == meet(F, a, b)
    assert_canonical(A.intersect(B))


@ORACLE
@given(two_sets())
def test_meet_power_m(case):
    ctx, gens, _ = case
    S = GradedSubspace.from_polys(ctx, gens)
    for n in range(ctx.D + 2):
        want = S.intersect(gls.power_m(n, ctx))
        assert engine_basis(S.meet_power_m(n)) == engine_basis(want)
        G = S.graded_slice(n)
        assert_canonical(G)
        rows = [r for r, deg in zip(S.basis_polys(), S.pivot_degrees()) if deg == n]
        assert G.basis_polys() == [f.graded_component(n) for f in rows]


@ORACLE
@given(two_sets(), st.data())
def test_multiples(case, data):
    ctx, gens, _ = case
    F, D = ctx.field, ctx.D
    mons = monomial_basis(ctx.nvars, D)[0]
    # a zero polynomial, and one with terms beyond the truncation degree
    extra = [Poly.zero(F, ctx.nvars)] + [g.shift((D,) * ctx.nvars) + g for g in gens[:1]]
    # the multipliers of degree >= low, and a drawn set of columns
    drawn = sorted(data.draw(st.sets(st.integers(0, len(mons) - 1))))
    for g in gens + extra:
        for A in [gls.power_m(low, ctx).pivots for low in range(D + 2)] + [drawn]:
            want = [as_vec(g.shift(mons[c], D), ctx) for c in A
                    if sum(mons[c]) <= D - g.order()]
            got = gls.multiples(g, ctx, np.array(A, dtype=np.intp))
            assert got.shape == (len(want), len(mons)) and len(got) == len(want)
            assert got.dense(F).tolist() == want


@ORACLE
@given(two_sets(), st.data())
def test_coordinate_section(case, data):
    ctx, gens, _ = case
    F = ctx.field
    N = len(monomial_basis(ctx.nvars, ctx.D)[0])
    keep = data.draw(st.sets(st.integers(0, N - 1)))
    S = GradedSubspace.from_polys(ctx, gens)
    coords = [[F.one() if j == c else F.zero() for j in range(N)] for c in sorted(keep)]
    want = meet(F, gauss_jordan(F, [as_vec(f, ctx) for f in gens]), (coords, sorted(keep)))
    assert engine_basis(S.coordinate_section(keep)) == want
    assert_canonical(S.coordinate_section(keep))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_coordinate_section_edges(F):
    """Keeping every column gives S back; keeping columns that miss the
    support of every basis row, or none, gives zero."""
    ctx = TruncationContext(F, 2, 3, frozenset())
    x, y = (Poly.variable(F, 2, i) for i in range(2))
    S = GradedSubspace.from_polys(ctx, [x + y.pow(2), x * y + y.pow(3)])
    N = len(monomial_basis(2, 3)[0])
    assert engine_basis(S.coordinate_section(range(N))) == engine_basis(S)
    support = set(S.basis.cols.tolist())
    for keep in (set(range(N)) - support, ()):
        assert S.coordinate_section(keep).dim == 0


@ORACLE
@given(matrices())
def test_rref(case):
    F, rows = case
    assert gls.rref(F, rows) == gauss_jordan(F, rows)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@ORACLE
@given(data=st.data())
def test_rref_mostly_unit_rows(F, data):
    rows = data.draw(mostly_unit_rows(F))
    assert gls.rref(F, rows) == gauss_jordan(F, rows)


def unit_row_cases(F):
    """(rows, shape of the block left to the kernel, or None when the
    presolve answers alone)."""
    z, o = F.zero(), F.one()
    c = (2 % F.p ** F.m or o) if F.char else Fraction(-3, 2)  # c != 1 unless q = 2
    return [
        ([[z, c, z], [z, o, z], [o, z, z], [z, z, c]], None),  # all rows unit, duplicates
        ([[z, z], [z, z]], None),  # all rows zero: no row is left for the kernel
        ([[o, z, z], [o, o, z], [z, o, o]], None),  # e_0, e_0+e_1, e_1+e_2: no column left
        # e_0, e_0+e_1 and c*e_4 are pivots after two rounds; two rows are left on
        # columns 2 and 3, and the zero row drops; over a finite field the first
        # of them is a structural pivot that clears the second
        ([[o, z, z, z, z], [o, o, z, z, z], [z, z, z, z, c], [z, z, o, o, z],
          [z, z, o, o, o], [z, z, z, z, z]], (2, 2) if not F.char else None),
        # no singleton; the first row is the structural pivot at column 0, and
        # the other two, reduced by it, are the Schur complement on columns 1-3
        ([[o, o, z, z], [o, z, c, z], [o, z, z, o]], (3, 4) if not F.char else (2, 3)),
    ]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_presolve_leaves_only_the_residual_block(F, monkeypatch):
    shapes = []

    def recorded(kernel):
        def call(mat, *args):
            shapes.append((len(mat), len(mat[0])))
            return kernel(mat, *args)
        return call

    monkeypatch.setattr(gls, "rref_mod_p", recorded(gls.rref_mod_p))
    monkeypatch.setattr(gls, "rref_generic", recorded(gls.rref_generic))
    for rows, shape in unit_row_cases(F):
        shapes.clear()
        assert gls.rref(F, rows) == gauss_jordan(F, rows)
        assert shapes == ([] if shape is None else [shape])


# the structural step over finite fields ---------------------------------------

STRUCTURAL_FIELDS = [PrimeField(2), PrimeField(3), ExtensionField(3, 2), PrimeField(2147483647)]


@st.composite
def structured_rows(draw, F, ncols):
    """Rows of two or more nonzeros whose leading columns come from a few
    columns, so that leads repeat and the rows after the first at a lead
    leave remainders; plus duplicates, scalar multiples, combinations of
    two rows (which cancel to zero once reduced), differences of a row with
    itself (zero rows), and now and then a unit row, all in drawn order."""
    nonzero = scalars(F).filter(lambda c: not F.is_zero(c))
    leads = draw(st.lists(st.integers(0, ncols - 2), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        j = draw(st.sampled_from(leads))
        tail = draw(st.sets(st.integers(j + 1, ncols - 1), min_size=1, max_size=3))
        rows.append([draw(nonzero) if c == j or c in tail else F.zero() for c in range(ncols)])
    for _ in range(draw(st.integers(0, 4))):
        a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(nonzero)
        u = draw(st.integers(0, ncols - 1))
        rows.append(draw(st.sampled_from([
            list(a), [F.mul(c, x) for x in a], [F.add(x, F.mul(c, y)) for x, y in zip(a, b)],
            [F.sub(x, x) for x in a], [c if k == u else F.zero() for k in range(ncols)]])))
    return draw(st.permutations(rows))


def schur_complement(F, rows):
    """The oracle's Schur complement of rows with no unit row: the residues,
    modulo the span of the first row at each leading column, of the other
    rows, those left nonzero restricted to the columns they hold."""
    lead = {}
    for row in rows:
        j = next((k for k, x in enumerate(row) if not F.is_zero(x)), None)
        if j is not None:
            lead.setdefault(j, row)
    pivots = gauss_jordan(F, list(lead.values()))
    rest = [residue(F, pivots, row) for row in rows
            if any(not F.is_zero(x) for x in row) and not any(row is r for r in lead.values())]
    rest = [v for v in rest if any(not F.is_zero(x) for x in v)]
    cols = [k for k in range(len(rows[0])) if any(not F.is_zero(v[k]) for v in rest)]
    return [[v[k] for k in cols] for v in rest]


@pytest.mark.parametrize("F", STRUCTURAL_FIELDS, ids=str)
@ORACLE
@given(data=st.data())
def test_structural_pivots_match_the_oracle(F, data):
    """gls.rref and from_vectors on stacks with repeated leading columns,
    dependent and zero rows and nonempty Schur complements equal the
    oracle's RREF; with no unit row, the kernel receives exactly the Schur
    complement, and nothing when it is empty."""
    ctx = TruncationContext(F, 2, 3, frozenset())
    N = len(monomial_basis(2, 3)[0])
    rows = data.draw(structured_rows(F, N))
    want = gauss_jordan(F, rows)
    blocks = []

    def kernel(mat, *args):
        blocks.append(mat.tolist())
        return rref_mod_p(mat, *args)

    with patch.object(gls, "rref_mod_p", kernel):
        assert gls.rref(F, rows) == want
        assert engine_basis(GradedSubspace.from_vectors(ctx, coords_of(F, rows, N))) == want
    if all(sum(not F.is_zero(x) for x in row) != 1 for row in rows):
        schur = schur_complement(F, rows)
        assert blocks == ([schur] * 2 if schur else [])


def coords_of(F, rows, ncols):
    """The nonzero cells of rows as a gls.Coords, listed last cell first, so
    that the presolve cannot rely on the order of its entries."""
    cells = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)
             if not F.is_zero(x)][::-1]
    r, c, v = zip(*cells) if cells else ((), (), ())
    dtype = np.int64 if F.char else object
    return gls.Coords(np.array(r, dtype=np.intp), np.array(c, dtype=np.intp),
                      np.array(v, dtype=dtype), (len(rows), ncols))


def assert_coords_match_oracle(F, rows, ncols):
    """_rref of the rows' coordinates is the dense oracle's RREF."""
    red, piv = gls._rref(F, coords_of(F, rows, ncols))
    want = gauss_jordan(F, rows) if rows else ([], [])
    assert_stored(red, F)
    assert (red.dense(F).tolist(), piv) == want
    assert red.shape == (len(piv), ncols)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@ORACLE
@given(data=st.data())
def test_coordinate_input_matches_dense(F, data):
    rows = data.draw(mostly_unit_rows(F))
    assert_coords_match_oracle(F, rows, len(rows[0]))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_coordinate_input_edge_cases(F):
    z = F.zero()
    # all-unit rows, an all-zero matrix, chained singletons that leave no
    # column to the kernel, a residual block after two rounds, and no rows
    for rows, _ in unit_row_cases(F):
        assert_coords_match_oracle(F, rows, len(rows[0]))
    assert_coords_match_oracle(F, [], 3)
    assert_coords_match_oracle(F, [[z, z, z]], 3)
    if F.char and F.m == 1:  # ints outside [0, p), nonzero mod p, are read modulo p
        p = F.p
        assert_coords_match_oracle(F, [[p + 1, z, 2 * p - 1], [z, p + 2, 1], [p + 1, 1, 1]], 3)


def test_rref_reads_raw_scalars_modulo_p():
    """rref() takes scalars from its caller: an entry 3 over GF(3), alone in
    its row, is zero there, not a unit pivot."""
    F = PrimeField(3)
    for raw, zero in (([[3, 0], [1, 1]], [[0, 0], [1, 1]]),
                      ([[0, 0, 3], [1, 2, 0], [4, 5, 6]], [[0, 0, 0], [1, 2, 0], [1, 2, 0]])):
        assert gls.rref(F, raw) == gls.rref(F, zero) == gauss_jordan(F, zero)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rref_returns_python_scalars(F):
    rows, pivots = gls.rref(F, [[F.zero(), F.one()], [F.one(), F.one()]])
    assert pivots == [0, 1] and rows == [[F.one(), F.zero()], [F.zero(), F.one()]]
    assert all(type(x) is type(F.one()) for row in rows for x in row)


# QQ: the multimodular elimination and its certificate -------------------------

QQ = RationalField()


@st.composite
def wide_matrices(draw):
    """QQ matrices with numerators and denominators up to 2^100, often with a
    dependent row, so that many primes, CRT and reconstruction are needed."""
    wide = st.builds(Fraction, st.integers(-2 ** 100, 2 ** 100), st.integers(1, 2 ** 100))
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(wide, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(wide)
        rows.append([x + c * y for x, y in zip(rows[0], rows[-1])])
    return rows


@ORACLE
@given(wide_matrices())
def test_rref_wide_rationals(rows):
    assert gls.rref(QQ, rows) == gauss_jordan(QQ, rows)


@st.composite
def qq_zero_kinds(draw):
    """(rows, probes): QQ vectors whose zero cells are all int 0, all
    Fraction(0) or a mix of both, as callers may hand them in."""
    ncols = draw(st.integers(2, 6))
    zero = draw(st.sampled_from([st.just(0), st.just(Fraction(0)),
                                 st.sampled_from([0, Fraction(0)])]))
    cell = st.one_of(zero, zero, scalars(QQ).filter(bool))
    vecs = st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=1, max_size=5)
    return draw(vecs), draw(vecs)


@ORACLE
@given(qq_zero_kinds())
def test_qq_zeros_of_either_type(case):
    rows, probes = case
    want = gauss_jordan(QQ, rows)
    got = gls.rref(QQ, rows)
    assert got == want and all(type(x) is Fraction for row in got[0] for x in row)
    ctx = TruncationContext(QQ, 1, len(rows[0]) - 1, frozenset())
    S = GradedSubspace.from_vectors(ctx, gls.Coords.of_rows(np.array(rows, dtype=object)))
    assert engine_basis(S) == want
    residues = [S.reduce_vec(np.array(v, dtype=object)).tolist() for v in probes]
    assert residues == [residue(QQ, want, v) for v in probes]
    T = GradedSubspace.from_vectors(ctx, gls.Coords.of_rows(np.array(probes, dtype=object)))
    assert S.contains_subspace(T) == all(not any(r) for r in residues)


def test_wide_entries_take_several_primes(monkeypatch):
    calls = []

    def counted(mat, p, tables=None):
        calls.append(p)
        return rref_mod_p(mat, p, tables)

    monkeypatch.setattr(_linalg, "rref_mod_p", counted)
    rows = [[Fraction(3 ** 70, 7 ** 30), Fraction(1), Fraction(-5 ** 40, 3)],
            [Fraction(2), Fraction(11 ** 35, 13 ** 20), Fraction(1, 2 ** 90)]]
    assert gls.rref(QQ, rows) == gauss_jordan(QQ, rows)
    assert len(calls) > 2 and len(set(calls)) == len(calls)


def test_bad_prime_keeps_the_rank():
    # rank 1 modulo the first elimination prime, rank 2 over QQ
    p1 = _linalg._prime(_linalg._ELIM_BOUND, 0)
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + p1)]]
    assert len(rref_mod_p(np.array([[1, 1], [1, 1 + p1]]) % p1, p1)[1]) == 1
    assert gls.rref(QQ, rows) == ([[1, 0], [0, 1]], [0, 1])


def test_certificate_rejects_tampered_candidates():
    rows = [[Fraction(2), Fraction(4), Fraction(1, 3), Fraction(5)],
            [Fraction(1), Fraction(5), Fraction(0), Fraction(-7, 2)],
            [Fraction(3), Fraction(9), Fraction(1, 3), Fraction(3, 2)]]
    A, norm = _linalg._integer_rows(rows)
    B, piv = _linalg.rref_generic(rows)
    assert (B.tolist(), piv) == gauss_jordan(QQ, rows)

    def certified(cand, pivots=piv):
        # each candidate cell is its own value
        index = np.arange(cand.size).reshape(cand.shape)
        return _linalg._certified(A, norm, cand.ravel().tolist(), index, pivots)

    assert certified(B)
    q = _linalg._prime(isqrt((1 << 53) >> len(piv).bit_length()), 0)
    for k, c in ((0, 2), (1, 3)):
        for delta in (Fraction(1, 7), Fraction(q), Fraction(-1)):
            bad = B.copy()
            bad[k, c] += delta
            assert not certified(bad)
    assert not certified(B[:1], piv[:1])  # a row space too small


def test_qq_engine_never_uses_field_arithmetic(monkeypatch):
    ctx = TruncationContext(QQ, 2, 3, frozenset())
    mons = monomial_basis(2, 3)[0]
    gens = [Poly(QQ, 2, {mons[1]: Fraction(1, 2), mons[4]: Fraction(3)}),
            Poly(QQ, 2, {mons[2]: Fraction(-2), mons[5]: Fraction(7, 3)}),
            Poly(QQ, 2, {mons[3]: Fraction(1)})]
    vecs = gls.Coords.of_polys(gens, ctx).dense(QQ)
    rows = vecs.tolist()
    probe = gens[0] + gens[2]

    def forbidden(*args):
        raise AssertionError("QQ field arithmetic called")

    monkeypatch.setattr(RationalField, "add", forbidden)
    monkeypatch.setattr(RationalField, "mul", forbidden)
    A = GradedSubspace.from_polys(ctx, gens[:2])
    B = GradedSubspace.from_polys(ctx, gens[1:])
    assert A.sum_with(B).dim == 3
    assert A.intersect(B).dim == 1
    assert A.coordinate_section(range(len(mons) // 2)).dim <= A.dim
    assert gls.rref(QQ, rows)[1] == [1, 2, 3]
    # vecs[1] lies in A, vecs[2] does not: the residues go through pivots
    assert not A.reduce_vec(vecs[1]).any() and A.reduce_vec(vecs[2]).any()
    assert A.contains_poly(gens[1]) and not A.contains_poly(gens[2])
    assert A.reduce_poly(probe) == gens[2]


def test_qq_presolve_tests_each_nonzero_cell_once(monkeypatch):
    """ideal_image hands the QQ multiples to the presolve as coordinates whose
    values are the generators' nonzero coefficients, so no Fraction is truth
    tested before the kernel runs (a dense stack was tested cell by cell)."""
    ctx = TruncationContext(QQ, 2, 6, frozenset())
    gens = [Poly(QQ, 2, {(2, 0): Fraction(1, 2), (0, 3): Fraction(1)}),
            Poly(QQ, 2, {(1, 1): Fraction(1), (0, 2): Fraction(-3, 5)})]
    truth, kernel = Fraction.__bool__, gls.rref_generic
    calls, before_kernel = [], []

    def counted(a):
        calls.append(a)
        return truth(a)

    def recorded(rows):
        before_kernel.append(len(calls))
        return kernel(rows)

    monkeypatch.setattr(gls, "rref_generic", recorded)
    monkeypatch.setattr(Fraction, "__bool__", counted)
    S = gls.ideal_image(gens, ctx)
    monkeypatch.undo()
    assert before_kernel == [0]
    every = np.arange(len(monomial_basis(ctx.nvars, ctx.D)[0]))
    stack = gls.Coords.stack([gls.multiples(g, ctx, every) for g in gens]).dense(QQ)
    assert engine_basis(S) == gauss_jordan(QQ, stack.tolist())


@ORACLE
@given(two_sets())
def test_contains_subspace_matches_row_residues(case):
    ctx, ga, gb = case
    A, B = GradedSubspace.from_polys(ctx, ga), GradedSubspace.from_polys(ctx, gb)
    for big, small in ((A, B), (B, A), (A, A.intersect(B)), (A.sum_with(B), B)):
        want = all(not big.reduce_vec(row).any() for row in small.basis.dense(ctx.field))
        assert big.contains_subspace(small) == want

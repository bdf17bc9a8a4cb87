import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from idfilt.filtration import FiltrationSpec
from idfilt.gls import rref
from idfilt.poly import Poly, poly_str
from idfilt.saturation import (RadicalProbeBounds, _theta_lp,
                               b_saturate_probe, d_saturate, d_saturate_log,
                               frobenius_probe, radical_probe, theta_monomial)
from idfilt.fields import FieldError, RationalField
from tests.conftest import ctx_of, mk


def gens_str(F):
    return sorted((poly_str(f), str(a)) for f, a in F.gens)


def test_d_saturate_examples(QQ, F2):
    F = FiltrationSpec(ctx_of(QQ, 2, 8), [(mk(QQ, "x^2"), 2)])
    assert gens_str(d_saturate(F)) == [("2*x", "1"), ("x^2", "2")]
    G = FiltrationSpec(ctx_of(F2, 2, 8), [(mk(F2, "x^2"), 2)])
    assert gens_str(d_saturate(G)) == [("x^2", "2")]
    E = FiltrationSpec(ctx_of(F2, 2, 8), [])
    assert d_saturate(E).gens == ()


def test_d_saturate_log_examples(QQ):
    ctxb = ctx_of(QQ, 2, 8, boundary=(0,))
    F = FiltrationSpec(ctxb, [(mk(QQ, "x^2"), 2)])
    got = gens_str(d_saturate_log(F))
    assert ("2*x^2", "1") in got and ("x^2", "2") in got
    G = FiltrationSpec(ctxb, [(mk(QQ, "y^2"), 2)])
    assert ("2*y", "1") in gens_str(d_saturate_log(G))
    # empty boundary: identical to the plain saturation
    H = FiltrationSpec(ctx_of(QQ, 2, 8), [(mk(QQ, "x*y"), 2)])
    assert d_saturate_log(H) == d_saturate(H)


def test_d_saturate_idempotent_and_enlarging(rng, F3):
    ctx = ctx_of(F3, 2, 6)
    F = FiltrationSpec(ctx, [(mk(F3, "x^2 + y^3"), Fraction(5, 2)),
                             (mk(F3, "x*y"), 1)])
    ds, dds = d_saturate(F), d_saturate(d_saturate(F))
    for k in range(1, 2 * ctx.D + 1):
        a = Fraction(k, 2)
        assert ds.ideal_at_level(a).equals(dds.ideal_at_level(a))
        assert ds.ideal_at_level(a).contains_subspace(
            F.ideal_at_level(a))


def test_radical_probe_examples(QQ):
    ctx = ctx_of(QQ, 2, 8)
    bounds = RadicalProbeBounds()
    F = FiltrationSpec(ctx, [(mk(QQ, "x^2"), 2)])
    got = radical_probe(F, mk(QQ, "x"), 1, bounds)
    assert got.member and got.witness_n == 2
    assert not radical_probe(F, mk(QQ, "y"), 1, bounds).member
    member_direct = radical_probe(F, mk(QQ, "x^2"), 2, bounds)
    assert member_direct.member and member_direct.witness_n == 1


@pytest.mark.parametrize("gens, f, a", [
    # theta puts y at level exactly 1 over (x @ 1, y^2 @ 2)
    ([("x", 1), ("y^2", 2)], "y", Fraction(65, 64)),
    ([("x", 1), ("y^2", 2)], "y", Fraction(129, 128)),
    # no level a > 0 holds a unit, nor y when x alone generates
    ([("x", 1)], "1", Fraction(1, 64)),
    ([("x", 1)], "y", Fraction(1, 128)),
])
def test_radical_probe_tests_level_a_itself(F2, gens, f, a):
    """f^n is tested in I_(n*a): a level ideal is constant on each interval
    ((k-1)/delta, k/delta], so one at a lower level is a larger ideal."""
    spec = FiltrationSpec(ctx_of(F2, 2, 10), [(mk(F2, g), b) for g, b in gens])
    assert not radical_probe(spec, mk(F2, f), a, RadicalProbeBounds()).member


def test_radical_probe_precision_flag(QQ):
    ctx = ctx_of(QQ, 2, 4)
    bounds = RadicalProbeBounds()
    F = FiltrationSpec(ctx, [(mk(QQ, "x"), 1)])
    got = radical_probe(F, mk(QQ, "x^5 + y^5"), 1, bounds)
    assert not got.member and got.precision_limited


def test_frobenius_probe_examples(F2, QQ):
    ctx = ctx_of(F2, 2, 8)
    bounds = RadicalProbeBounds()
    F = FiltrationSpec(ctx, [(mk(F2, "x^2"), 2)])
    got = frobenius_probe(F, mk(F2, "x"), 1, bounds)
    assert got.member and got.witness_n == 2
    # members of the filtration itself re-certify via n = p
    G = FiltrationSpec(ctx, [(mk(F2, "x*y"), 1)])
    assert frobenius_probe(G, mk(F2, "x*y"), 1, bounds).member
    assert not frobenius_probe(FiltrationSpec(ctx, [(mk(F2, "y"), 1)]),
                               mk(F2, "x"), 1, bounds).member
    with pytest.raises(FieldError):
        frobenius_probe(FiltrationSpec(ctx_of(QQ, 2, 8), [(mk(QQ, "x"), 1)]),
                        mk(QQ, "x"), 1, bounds)


def test_theta_examples(QQ):
    # brute force over n, m <= 30: (xy)^n in (x^2,y^3)^m iff some split fits
    def brute(vs, w, cap=30):
        best = Fraction(0)
        for n in range(1, cap + 1):
            for m in range(cap, 0, -1):
                if any(i * vs[0][0] + (m - i) * vs[1][0] <= n * w[0]
                       and i * vs[0][1] + (m - i) * vs[1][1] <= n * w[1]
                       for i in range(m + 1)):
                    best = max(best, Fraction(m, n))
                    break
        return best

    assert brute([(2, 0), (0, 3)], (1, 1)) == Fraction(5, 6)
    assert theta_monomial([mk(QQ, "x^2"), mk(QQ, "y^3")], mk(QQ, "x*y")) \
        == Fraction(5, 6)
    assert theta_monomial([mk(QQ, "x")], mk(QQ, "x")) == 1
    assert theta_monomial([mk(QQ, "x^2")], mk(QQ, "x^3")) == Fraction(3, 2)


def test_theta_errors(QQ):
    with pytest.raises(ValueError):
        theta_monomial([Poly.one(QQ, 2)], mk(QQ, "x"))
    with pytest.raises(ValueError):
        theta_monomial([], mk(QQ, "x"))
    with pytest.raises(ValueError):
        theta_monomial([mk(QQ, "x + y")], mk(QQ, "x"))


# closure membership X^u in cl(I^m) is asked as theta_monomial(I, u) >= m,
# so both ways of asking must reject the same bad inputs
@pytest.mark.parametrize("check", [
    theta_monomial,
    lambda I, r: theta_monomial(I, r) >= 1,
], ids=["theta_monomial", "monomial_closure_member"])
def test_monomial_input_checks_agree(QQ, check):
    x = mk(QQ, "x")
    with pytest.raises(ValueError, match="need a nonempty monomial generating set"):
        check([], x)
    with pytest.raises(ValueError, match="variable count mismatch"):
        check([x], (1, 0, 0))
    with pytest.raises(ValueError, match="variable count mismatch"):
        check([(1, 0, 0)], x)
    with pytest.raises(ValueError, match="not a proper ideal"):
        check([Poly.one(QQ, 2)], x)


def _theta_lp_enumeration(gen_exps, w):
    """max sum(lam) subject to sum lam_i v_i <= w, lam >= 0, exactly.

    Vertex enumeration over the basic solutions of the (bounded) feasible
    polyhedron; sizes here are tiny, so exhaustive bases are fine.
    """
    vs = [tuple(v) for v in gen_exps]
    # drop componentwise-dominated generators; they never help the maximum
    keep = []
    for v in sorted(set(vs)):
        if not any(all(u[i] <= v[i] for i in range(len(v))) and u != v for u in vs):
            keep.append(v)
    vs = keep
    s = len(vs)
    d = len(w)
    w = [Fraction(c) for c in w]
    # constraint rows: d inequality rows (A lam <= w), s nonnegativity rows
    rows = []
    for i in range(d):
        rows.append(([Fraction(v[i]) for v in vs], w[i]))
    for j in range(s):
        e = [Fraction(0)] * s
        e[j] = Fraction(1)
        rows.append((e, Fraction(0)))
    best = Fraction(0)
    QQ = RationalField()
    for combo in itertools.combinations(range(len(rows)), s):
        red, piv = rref(QQ, [rows[i][0] + [rows[i][1]] for i in combo])
        if piv != list(range(s)):  # singular basis: no vertex
            continue
        lam = [row[s] for row in red]
        if any(x < 0 for x in lam):
            continue
        ok = True
        for coeffs, bound in rows[:d]:
            if sum(c * x for c, x in zip(coeffs, lam)) > bound:
                ok = False
                break
        if ok:
            best = max(best, sum(lam))
    return best


THETA_LP = settings(max_examples=300, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def theta_lps(draw):
    """(generator exponents, w, n): d in 1..4 variables, 1..6 generators, some
    of them repeats of or componentwise above earlier ones, and a w whose
    coordinates may be zero, which makes ratio-test ties at ratio 0."""
    d = draw(st.integers(1, 4))
    nonzero = st.tuples(*[st.integers(0, 4)] * d).filter(any)
    gens = [draw(nonzero)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["new", "duplicate", "dominated"]))
        if kind == "new":
            gens.append(draw(nonzero))
            continue
        u = draw(st.sampled_from(gens))
        if kind == "dominated":
            u = tuple(c + draw(st.integers(0, 2)) for c in u)
        gens.append(u)
    w = draw(st.tuples(*[st.integers(0, 6)] * d))
    return gens, w, draw(st.integers(2, 5))


@THETA_LP
@given(theta_lps())
# (1,1) enters first with ratios 2/1 and 2/1: a tie, left to the lower slack
@example(([(1, 1), (2, 0), (0, 2)], (2, 2), 2))
# every ratio is 0: a degenerate pivot at the zero vertex
@example(([(1, 1), (1, 2)], (0, 0), 3))
# w = 0 in one coordinate caps every generator that uses it
@example(([(1, 0, 1), (0, 1, 0), (1, 1, 1), (1, 1, 1)], (3, 2, 0), 2))
def test_theta_lp_matches_vertex_enumeration(lp):
    gens, w, n = lp
    got = _theta_lp(gens, w)
    assert type(got) is Fraction
    assert got == _theta_lp_enumeration(gens, w)
    assert _theta_lp(gens, tuple(n * c for c in w)) == n * got


def test_theta_lp_examples():
    assert _theta_lp([(1, 1), (2, 0), (0, 2)], (2, 2)) == 2
    assert _theta_lp([(2, 0), (0, 3)], (1, 1)) == Fraction(5, 6)
    assert _theta_lp([(1, 1), (1, 2)], (0, 0)) == 0
    assert _theta_lp([(3,)], (7,)) == Fraction(7, 3)


def test_theta_lp_unbounded():
    # a zero exponent vector is the unit ideal: lam grows without bound
    with pytest.raises(ValueError, match="unbounded"):
        _theta_lp([(0, 0)], (1, 1))
    with pytest.raises(ValueError, match="unbounded"):
        _theta_lp([(1, 2), (0, 0)], (1, 1))


def test_monomial_closure_member(QQ):
    # X^u is in the integral closure of I^m exactly when theta(I; X^u) >= m
    I = [mk(QQ, "x^2"), mk(QQ, "y^3")]
    theta = theta_monomial(I, mk(QQ, "x*y"))
    for n in (1, 2, 3, 6):
        for m in range(1, 8):
            got = theta_monomial(I, tuple(n * c for c in (1, 1))) >= m
            assert got == (Fraction(m, n) <= theta)


def test_b_saturate_probe_examples(F2):
    ctx = ctx_of(F2, 2, 8)
    F = FiltrationSpec(ctx, [(mk(F2, "y^2"), 2)])
    sat, added = b_saturate_probe(F)
    assert [(poly_str(g), str(a), n) for g, a, n in added] == [("y", "1", 2)]
    assert sat.ideal_at_level(1).contains_poly(mk(F2, "y"))
    # already saturated: unchanged
    G = FiltrationSpec(ctx, [(mk(F2, "x"), 1)])
    sat2, added2 = b_saturate_probe(G)
    assert added2 == [] and gens_str(sat2) == [("x", "1")]
    E = FiltrationSpec(ctx, [])
    sat3, added3 = b_saturate_probe(E)
    assert added3 == [] and sat3.gens == ()


def test_b_saturate_probe_takes_the_d_saturation(F2, monkeypatch):
    # a caller's d-saturation is used as given, and its level cache stays empty
    from idfilt import pipeline, saturation
    from idfilt.specfile import parse_spec
    ctx = ctx_of(F2, 2, 8)
    for gens in ([(mk(F2, "y^2"), 2)], [(mk(F2, "x"), 1)]):
        F = FiltrationSpec(ctx, gens)
        Fd = d_saturate_log(F)
        sat, added = b_saturate_probe(F, sat=Fd)
        want_sat, want_added = b_saturate_probe(F)
        assert sat.gens == want_sat.gens and added == want_added
        assert Fd._level_cache == {}
        if not added:  # the copy shares the caller's generators
            assert sat is not Fd and sat.gens is Fd.gens
    # one analyze saturates F0 once, and once more only after an addition
    calls = []
    derivative_gens = saturation._derivative_gens
    monkeypatch.setattr(saturation, "_derivative_gens",
                        lambda *args: calls.append(None) or derivative_gens(*args))
    for gen, saturations in (("y^2 @ 2", 2), ("x @ 1", 1)):
        calls.clear()
        pipeline.analyze(parse_spec(f"field: GF(2)\nvars: x, y\ntruncation: 8\ngen: {gen}\n"))
        assert len(calls) == saturations


def test_b_saturate_theta_upgrade(QQ):
    # monomial generators: exact asymptotics raise the level of x
    ctx = ctx_of(QQ, 2, 8)
    F = FiltrationSpec(ctx, [(mk(QQ, "x^2"), 1), (mk(QQ, "x"), Fraction(1, 4))])
    sat, added = b_saturate_probe(F)
    raised = [a for g, a, _ in added if poly_str(g) == "x"]
    assert raised and max(raised) == Fraction(1, 2)
    assert sat.ideal_at_level(Fraction(1, 2)).contains_poly(mk(QQ, "x"))


def test_bounds_validation():
    with pytest.raises(ValueError):
        RadicalProbeBounds(0, 64)
    with pytest.raises(ValueError):
        RadicalProbeBounds(8, 0)

import itertools
import math

import pytest

from idfilt.fields import (BUILTIN_MODULI, ExtensionField, FieldError,
                           PrimeField, RationalField, binom_mod_p,
                           binom_multi, field_from_spec)


def test_binom_mod_p_examples():
    # factorial oracle: C(6,2)=15, C(4,2)=6
    assert math.comb(6, 2) == 15 and math.comb(4, 2) == 6
    assert binom_mod_p(6, 2, 2) == 15 % 2 == 1
    assert binom_mod_p(4, 2, 2) == 6 % 2 == 0
    for i in (0, 1, 7, 200):
        assert binom_mod_p(i, 0, 5) == 1
    assert binom_mod_p(3, 5, 3) == 0  # j > i


def test_binom_mod_p_vs_factorial_oracle():
    for p in (2, 3, 5, 7):
        for i in range(0, 120):
            for j in range(0, 120):
                want = math.comb(i, j) % p if j <= i else 0
                assert binom_mod_p(i, j, p) == want


def test_binom_mod_p_rejects_composite():
    with pytest.raises(FieldError):
        binom_mod_p(4, 2, 6)


def test_binom_multi_examples():
    assert binom_multi((2, 3), (1, 1)) == 2 * 3 == 6
    assert binom_multi((1, 1), (2, 0)) == 0
    assert binom_multi((4, 7, 2), (0, 0, 0)) == 1
    with pytest.raises(FieldError):
        binom_multi((1, 2), (1,))


def test_frobenius_root_prime_field_is_identity(F5):
    for c in range(5):
        for e in (0, 1, 3):
            assert F5.frobenius_root(c, e) == c


def test_frobenius_root_f9_by_exhaustion(F9):
    g = F9.generator()
    g2 = F9.mul(g, g)
    r = F9.frobenius_root(g2, 1)
    # cube back: r^3 must be g^2, and r is the unique such element
    assert F9.pow(r, 3) == g2
    assert sum(1 for x in F9.elements() if F9.pow(x, 3) == g2) == 1


def test_frobenius_root_all_small_fields():
    cases = [PrimeField(2), PrimeField(7), ExtensionField(2, 2),
             ExtensionField(2, 4), ExtensionField(3, 3), ExtensionField(5, 2)]
    for F in cases:
        q = F.p ** F.m
        assert q <= 81 or F.m == 1
        for e in (1, 2):
            for x in F.elements():
                assert F.pow(F.frobenius_root(x, e), F.p ** e) == x


def test_frobenius_root_char0_errors(QQ):
    assert QQ.frobenius_root(QQ.from_int(3), 0) == 3
    with pytest.raises(FieldError):
        QQ.frobenius_root(QQ.from_int(3), 1)


def test_builtin_moduli_are_irreducible():
    for (p, m) in BUILTIN_MODULI:
        ExtensionField(p, m)  # constructor re-checks irreducibility


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        ExtensionField(2, 2, (1, 0, 1))  # g^2 + 1 = (g+1)^2 over F_2


def test_field_axioms_randomized(rng):
    for F in (PrimeField(3), ExtensionField(2, 3), RationalField()):
        def r():
            if F.char == 0:
                from fractions import Fraction
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return rng.randrange(F.p ** F.m)
        for _ in range(80):
            a, b, c = r(), r(), r()
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(F.add(a, b), c) == F.add(F.mul(a, c), F.mul(b, c))
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one()


def test_field_from_spec():
    assert field_from_spec("GF(2)") == PrimeField(2)
    assert field_from_spec("GF(3^2)") == ExtensionField(3, 2)
    assert field_from_spec("GF(5^1)") == PrimeField(5)
    assert field_from_spec("QQ") == RationalField()
    with pytest.raises(FieldError):
        field_from_spec("GF(6)")
    assert field_from_spec("GF(4)") == ExtensionField(2, 2)
    with pytest.raises(FieldError):
        field_from_spec("R")


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 81])
def test_field_from_spec_prime_power_spelling(q):
    # GF(q) is the field GF(p^m) with q = p^m, and prints as GF(p^m)
    F = field_from_spec(f"GF({q})")
    assert F == field_from_spec(f"GF({F.p}^{F.m})")
    assert F.p ** F.m == q and F.spec_str() == f"GF({F.p}^{F.m})"


@pytest.mark.parametrize("q", [6, 12, 36, 100, 1])
def test_field_from_spec_rejects_non_prime_powers(q):
    with pytest.raises(FieldError, match="not a prime power"):
        field_from_spec(f"GF({q})")


@pytest.mark.parametrize("p", [4294967311, 10 ** 15 + 37])
def test_prime_field_beyond_int64_kernels_rejected(p):
    # the int64 kernels returned wrong RREFs silently at these primes; the
    # bound is checked before the (slow) primality test
    with pytest.raises(FieldError, match="too large"):
        PrimeField(p)
    with pytest.raises(FieldError, match="too large"):
        field_from_spec(f"GF({p})")


def test_largest_word_size_primes_accepted():
    assert field_from_spec("GF(2147483647)") == PrimeField(2147483647)


def test_extension_modulus_looked_up_before_primality(monkeypatch):
    # trial division of a 16-digit p took seconds before this spec failed on
    # the missing modulus; the lookup now comes first
    import idfilt.fields as fields

    def no_trial_division(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(fields, "is_prime", no_trial_division)
    with pytest.raises(FieldError, match="no built-in modulus"):
        field_from_spec("GF(1000000000000037^2)")
    monkeypatch.undo()
    with pytest.raises(FieldError):
        field_from_spec("GF(6^2)")
    with pytest.raises(FieldError, match="not prime"):
        ExtensionField(6, 2, modulus=(1, 1, 1))


# the extension-field tables against an independent reference -----------------

def _digits(code, p, m):
    return tuple(code // p ** k % p for k in range(m))


def _code(digits, p):
    return sum(d * p ** k for k, d in enumerate(digits))


def _polymul(a, b, p):
    """Schoolbook product of coefficient tuples (low first) over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return tuple(c % p for c in prod)


def _mulmod(a, b, modulus, p):
    """Digits of a*b: the product, then its top terms folded back by the
    monic modulus, highest first."""
    m = len(a)
    prod = list(_polymul(a, b, p))
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        for j, s in enumerate(modulus):
            prod[i - m + j] -= c * s
    return tuple(c % p for c in prod[:m])


def _tuple_str(a):
    """The rendering of a coefficient tuple (low first)."""
    if all(c == 0 for c in a[1:]):
        return str(a[0])
    parts = []
    for i, c in enumerate(a):
        if c:
            g = "" if i == 0 else "g" if i == 1 else f"g^{i}"
            parts.append(str(c) if i == 0 else g if c == 1 else f"{c}*{g}")
    return "(" + "+".join(parts) + ")"


@pytest.mark.parametrize("pm", sorted(BUILTIN_MODULI), ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_extension_tables_match_reference(pm):
    p, m = pm
    F, modulus = ExtensionField(p, m), BUILTIN_MODULI[pm]
    q = p ** m
    dig = [_digits(a, p, m) for a in range(q)]

    def mul(a, b):
        return _code(_mulmod(dig[a], dig[b], modulus, p), p)

    def power(a, n):
        out = 1
        for _ in range(n):
            out = mul(out, a)
        return out

    assert F.elements() == list(range(q))
    assert (F.zero(), F.one(), F.generator()) == (0, 1, _code((0, 1), p))
    for a in range(q):
        assert F.sort_key(a) == dig[a]
        assert F.to_str(a) == _tuple_str(dig[a])
        assert F.neg(a) == _code([-d % p for d in dig[a]], p)
        for b in range(q):
            assert F.add(a, b) == _code([(x + y) % p for x, y in zip(dig[a], dig[b])], p)
            assert F.mul(a, b) == mul(a, b)
        if a:
            assert mul(a, F.inv(a)) == 1
        for e in range(m + 1):
            assert power(F.frobenius_root(a, e), p ** e) == a
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_extension_scalars_render_as_before():
    F9, F8 = ExtensionField(3, 2), ExtensionField(2, 3)
    assert [F9.to_str(a) for a in (0, 2, 3, 5, 7)] == ["0", "2", "(g)", "(2+g)", "(1+2*g)"]
    assert F8.to_str(6) == "(g+g^2)" and F8.sort_key(6) == (0, 1, 1)
    # scalars are Python ints, so none of numpy's types reach a Poly
    assert all(type(x) is int for x in (F9.add(4, 5), F9.mul(4, 5), F9.neg(4), F9.inv(4)))


def test_supplied_modulus_size_bound(monkeypatch):
    import idfilt.fields as fields

    # g^8 + g^4 + g^3 + g + 1 (low first): the field of the AES S-box, at the
    # bound; its codes are the usual bytes, and 0x53 * 0xCA = 1 there
    aes = (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert fields.MAX_EXTENSION_Q == 256
    assert ExtensionField(2, 8, aes).mul(0x53, 0xCA) == 1

    def no_tables(*args):
        raise AssertionError("tables built")

    monkeypatch.setattr(fields, "_tables", no_tables)
    monkeypatch.setattr(fields, "is_prime", no_tables)
    # q = 512, q = 10201, and a degree whose p^m is never computed
    for p, m in ((2, 9), (101, 2), (2, 10 ** 9)):
        with pytest.raises(FieldError, match="too large"):
            ExtensionField(p, m, (1, 1, 1))


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_supplied_modulus_accepted_iff_irreducible(p, m):
    # the reducible monic polynomials of degree m are the products of two
    # monic ones of lower positive degree
    def monic(deg):
        return [low + (1,) for low in itertools.product(range(p), repeat=deg)]

    reducible = {_polymul(a, b, p) for k in range(1, m // 2 + 1)
                 for a in monic(k) for b in monic(m - k)}
    for f in monic(m):
        if f in reducible:
            with pytest.raises(FieldError, match="reducible"):
                ExtensionField(p, m, f)
        else:
            assert ExtensionField(p, m, f).modulus == f

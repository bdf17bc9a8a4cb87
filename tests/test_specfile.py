from fractions import Fraction

import pytest

from idfilt.specfile import SpecError, parse_spec, print_spec


VALID = """
# char-2 showcase
field: GF(2)
vars: x, y
truncation: 10
gen: x^2 + y^3 @ 2
"""


def test_parse_valid():
    spec = parse_spec(VALID)
    assert spec.field.spec_str() == "GF(2)"
    assert spec.names == ["x", "y"]
    assert spec.D == 10
    assert len(spec.gens) == 1 and spec.gens[0][1] == 2


def test_parse_error_bad_level():
    bad = VALID + "gen: x^2 @ two\n"
    with pytest.raises(SpecError) as exc:
        parse_spec(bad)
    assert exc.value.code == "E_LEVEL" and exc.value.line == 7


def test_parse_error_bad_field():
    with pytest.raises(SpecError) as exc:
        parse_spec("field: GF(6)\nvars: x\ntruncation: 4\n")
    assert exc.value.code == "E_FIELD"
    assert "prime power" in str(exc.value)


def test_parse_prime_power_field_spelling():
    body = "vars: x, y\ntruncation: 6\ngen: x^3 + y^4 @ 3\n"
    spec = parse_spec("field: GF(9)\n" + body)
    assert spec == parse_spec("field: GF(3^2)\n" + body)
    assert print_spec(spec).startswith("field: GF(3^2)\n")


def test_parse_error_prime_too_large():
    with pytest.raises(SpecError) as exc:
        parse_spec("field: GF(4294967311)\nvars: x\ntruncation: 4\n")
    assert exc.value.code == "E_FIELD" and exc.value.line == 1
    assert "int64" in str(exc.value)


def test_parse_error_unknown_variable():
    with pytest.raises(SpecError) as exc:
        parse_spec("field: QQ\nvars: x\ntruncation: 4\ngen: x + w @ 1\n")
    assert exc.value.code == "E_POLY"


def test_parse_error_envelope():
    with pytest.raises(SpecError) as exc:
        parse_spec("field: QQ\nvars: x\ntruncation: 40\n")
    assert exc.value.code == "E_TRUNC"
    with pytest.raises(SpecError) as exc:
        parse_spec("field: QQ\nvars: a, b, c, d, e, f, g\ntruncation: 4\n")
    assert exc.value.code == "E_VAR"


@pytest.mark.parametrize("nvars, D, refused", [(6, 16, True), (6, 12, True), (4, 16, False)])
def test_level0_ideal_size_envelope(nvars, D, refused):
    # refused when I_0 = R, an N x N int64 matrix with N = C(D+d, d), would
    # exceed 1 GiB: 74613 and 18564 monomials are too many, 4845 are not
    from math import comb

    from idfilt.specfile import MAX_LEVEL0_BYTES
    names = ", ".join("abcdef"[:nvars])
    text = f"field: QQ\nvars: {names}\ntruncation: {D}\ngen: a @ 1\n"
    N = comb(D + nvars, nvars)
    assert (8 * N * N > MAX_LEVEL0_BYTES) == refused
    if not refused:
        assert parse_spec(text).D == D
        return
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert exc.value.code == "E_TRUNC"
    assert f"N = {N}" in str(exc.value) and f"{8 * N * N} bytes" in str(exc.value)


def test_override_obeys_the_size_envelope():
    from idfilt.specfile import apply_overrides
    spec = parse_spec("field: GF(2)\nvars: a, b, c, d, e, f\ntruncation: 4\n")
    with pytest.raises(SpecError) as exc:
        apply_overrides(spec, {"truncation": 12})
    assert exc.value.code == "E_TRUNC" and "N = 18564" in str(exc.value)


def test_parse_error_missing_sections():
    with pytest.raises(SpecError):
        parse_spec("vars: x\ntruncation: 4\n")
    with pytest.raises(SpecError):
        parse_spec("field: QQ\ntruncation: 4\n")


def test_parse_boundary_and_options():
    spec = parse_spec(
        "field: GF(3)\nvars: x, y, z\ntruncation: 8\nboundary: x, z\n"
        "gen: x*y @ 3/2\ncandidate: z @ 1\nradical_n_max: 5\n"
        "radical_grid: 32\nemax: 2\n")
    assert spec.boundary == ["x", "z"]
    assert spec.gens[0][1] == Fraction(3, 2)
    assert spec.options.radical_n_max == 5
    assert spec.options.radical_grid == 32
    assert spec.options.emax == 2
    assert len(spec.options.candidates) == 1
    ctx = spec.context()
    assert ctx.boundary == frozenset({0, 2})


def test_roundtrip():
    for text in (
        VALID,
        "field: QQ\nvars: x, y\ntruncation: 6\ngen: x @ 1\ngen: y^2 @ 3/2\n",
        "field: GF(2^2)\nvars: u, v\ntruncation: 5\nboundary: u\n"
        "gen: u^2 + v @ 2\nemax: 1\n",
    ):
        spec = parse_spec(text)
        assert parse_spec(print_spec(spec)) == spec


@pytest.mark.parametrize("names", ["2, y", "x y, z", "x, y-1", "x, é"])
def test_parse_error_variable_name_the_grammar_cannot_read(names):
    # "2" would read as a scalar in a generator, "x y" as two names
    with pytest.raises(SpecError) as exc:
        parse_spec(f"field: GF(3)\nvars: {names}\ntruncation: 4\ngen: y^2 @ 1\n")
    assert exc.value.code == "E_VAR" and exc.value.line == 2
    assert "identifier" in str(exc.value)


def test_parse_identifier_names():
    spec = parse_spec("field: GF(3)\nvars: x_1, _y, Z9\ntruncation: 4\ngen: x_1*Z9 + _y^2 @ 1\n")
    assert spec.names == ["x_1", "_y", "Z9"]


def test_parse_error_repeated_boundary_variable():
    with pytest.raises(SpecError) as exc:
        parse_spec(VALID + "boundary: y, y\n")
    assert exc.value.code == "E_VAR" and exc.value.line == 7
    assert parse_spec(VALID + "boundary: y, x\n").boundary == ["y", "x"]

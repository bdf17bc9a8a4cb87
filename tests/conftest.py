import io
import random
from contextlib import redirect_stdout

import pytest

from idfilt.fields import ExtensionField, PrimeField, RationalField
from idfilt.poly import TruncationContext, parse_poly


@pytest.fixture
def F2():
    return PrimeField(2)


@pytest.fixture
def F3():
    return PrimeField(3)


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def F9():
    return ExtensionField(3, 2)


@pytest.fixture
def QQ():
    return RationalField()


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture(scope="session")
def verify_json():
    """(exit code, stdout bytes) of `idfilt verify --json` run in process: the
    whole invariant corpus, run once for every test that reads it."""
    from idfilt.cli import main
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--json"])
    return code, out.getvalue().encode()


def mk(field, text, names=("x", "y")):
    return parse_poly(text, list(names), field)


def ctx_of(field, nvars=2, D=10, boundary=()):
    return TruncationContext(field, nvars, D, frozenset(boundary))

"""SuiteResult.check formats a failure detail only when the check fails.

The detail is a format string and its operands; a passing check must not
touch them, and a failing one must record exactly the text an f-string of
the same operands gives.
"""

import random
import subprocess
import sys
from fractions import Fraction

from idfilt import diffop, verify
from idfilt.fields import ExtensionField, PrimeField, RationalField
from idfilt.filtration import FiltrationSpec
from idfilt.poly import Poly
from idfilt.verify import SuiteResult
from tests.conftest import ctx_of, mk


class Unprintable:
    def __format__(self, spec):
        raise AssertionError("formatted on a passing check")

    def __str__(self):
        raise AssertionError("formatted on a passing check")


def test_passing_check_does_not_format():
    res = SuiteResult("s", "law")
    res.check(True, "I={} over {}", Unprintable(), Unprintable())
    res.check(True, "{}", Unprintable())
    assert res.passed and res.instances == 2


def test_failing_check_matches_the_fstring(QQ):
    F = ExtensionField(3, 2)
    spec = FiltrationSpec(ctx_of(QQ, 2, 6), [(mk(QQ, "x^2 + y^3"), Fraction(3, 2)),
                                             (mk(QQ, "x*y"), 1)])
    I, J, a = (2, 0, 1), (1, 0, 0), Fraction(-5, 4)
    res = SuiteResult("s", "law")
    res.check(False, "I={} J={} over {}", I, J, F)
    res.check(False, "level {} over {} and {}", a, PrimeField(5), RationalField())
    res.check(False, "pure generation fails in degree {} for {}", 3, spec)
    res.check(False, "gens={}", ["x^2", "y"])
    res.check(False, "C({0}*{1},{0}*{2}) vs C({1},{2}) mod {3}", 9, 4, 2, 3)
    assert res.failures == [
        f"I={I} J={J} over {F}",
        f"level {a} over {PrimeField(5)} and {RationalField()}",
        f"pure generation fails in degree {3} for {spec}",
        f"gens={['x^2', 'y']}",
        f"C({9}*{4},{9}*{2}) vs C({4},{2}) mod {3}",
    ]
    assert res.failures[0] == "I=(2, 0, 1) J=(1, 0, 0) over GF(3^2)"
    assert res.failures[2] == ("pure generation fails in degree 3 for "
                               "FiltrationSpec[(x*y @ 1), (x^2 + y^3 @ 3/2)]")


def test_failing_check_without_operands():
    res = SuiteResult("s", "law")
    # no operands: the text is kept as written, braces and all
    res.check(False, "system is {(x,0),(y,0)}")
    res.check(False)
    assert res.failures == ["system is {(x,0),(y,0)}", "instance 2"]


def test_hasse_basis_failure_text(monkeypatch):
    # the first failure strings recorded before the checks took operands
    monkeypatch.setattr(verify, "hasse_apply", lambda f, J: Poly.zero(f.field, f.nvars))
    res = verify.suite_hasse_basis(random.Random(0))
    assert res.failures[0] == "I=(0,) J=(0,) over GF(2)" and len(res.failures) == 10577

    def wrong_on_qq_d3(f, J):
        g = diffop.hasse_apply(f, J)
        return g + g if f.nvars == 3 and f.field.char == 0 and sum(J) == 2 else g

    monkeypatch.setattr(verify, "hasse_apply", wrong_on_qq_d3)
    res = verify.suite_hasse_basis(random.Random(0))
    assert res.failures[0] == "I=(2, 0, 0) J=(2, 0, 0) over QQ" and len(res.failures) == 504


def test_pe_power_generated_failure_text(monkeypatch):
    # the generator list is rendered on failure only; the text is the one
    # recorded before the checks took operands
    monkeypatch.setattr(verify, "is_pe_power_generated", lambda gens, e, ctx: False)
    res = verify.suite_pe_power_generated(random.Random("0:6"))
    assert res.failures[0] == "powers p=3 e=1 gens=['x^3*y^6 + 2*x^9*z^3', 'y^9']"
    assert len(res.failures) == 144


RAND_HSYSTEM_AT_LEVEL_D = """
import random
from idfilt.fields import PrimeField
from idfilt.verify import rand_hsystem

top = {}
for p, D in ((2, 4), (3, 3)):
    for seed in range(30):
        H = rand_hsystem(random.Random(seed), PrimeField(p), 2, D)
        levels = [H.level(l) for l in range(len(H.entries))]
        assert max(levels) <= D
        top[p] = top.get(p, 0) + (D in levels)
print(top[2], top[3])
"""


def test_rand_hsystem_returns_at_a_level_equal_to_d():
    # a level p^e equal to D leaves no degree for a tail above it; run in a
    # child process so that a hang fails the test instead of stalling the run
    out = subprocess.run([sys.executable, "-c", RAND_HSYSTEM_AT_LEVEL_D],
                         capture_output=True, text=True, timeout=60, check=True)
    assert all(int(n) > 0 for n in out.stdout.split())

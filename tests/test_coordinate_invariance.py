"""The intrinsic report fields do not depend on the coordinates.

sigma, the pure dimensions, mu_P, mu-tilde, the (e, level) multiset of the
leading generator system, the precision flags and each check's verdict are
invariants of the filtration.  Each boundary-free benchmark spec at D <= 8
is analyzed as written and after one seeded invertible linear change of
its variables over its own field, x_i -> sum_j M_ij x_j, and those fields
must agree.  The ord_h table is left out: it lists the saturated
generators, which are not intrinsic.  A substitution sends the engine
through other matrices, pivots, column masks and weight tables than the
original.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from idfilt.gls import rref
from idfilt.pipeline import analyze
from idfilt.specfile import parse_spec
from tests.test_report_corpus import workloads

SPECS = sorted(name for name, (_, _, D, boundary, _) in workloads.SPECS.items()
               if D <= 8 and not boundary)


def random_invertible(F, d, rnd):
    def scalar():
        if F.char:
            return rnd.randrange(F.p ** F.m)
        return Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))

    while True:
        M = [[scalar() for _ in range(d)] for _ in range(d)]
        if len(rref(F, M)[1]) == d:
            return M


def intrinsic(report):
    leading, mu = report["leading"], report["mu"]
    return {
        "sigma": leading["sigma"],
        "sigma_full": leading["sigma_full"],
        "pure_dims": leading["pure_dims"],
        "lgs": sorted((h["e"], h["level"]) for h in leading["lgs"]),
        "mu_p": mu["mu_p"],
        "mu_tilde": mu["mu_tilde"],
        "in_support": mu["in_support"],
        "flags": report["precision"]["flags"],
        "applicable": report["nonsingularity"]["applicable"],
        "checks": {k: v.get("ok") for k, v in report["checks"].items()},
    }


def test_every_small_boundary_free_spec_is_covered():
    assert len(SPECS) == 8


@pytest.mark.parametrize("name", SPECS)
def test_intrinsic_fields_survive_a_linear_change_of_coordinates(name):
    spec = parse_spec(workloads.spec_text(name, workloads.variable_order(name, 0)))
    M = random_invertible(spec.field, len(spec.names), random.Random(f"coords:{name}"))
    moved = dataclasses.replace(spec, gens=[(f.substitute_linear(M), a) for f, a in spec.gens])
    assert moved.gens != spec.gens
    assert intrinsic(analyze(moved)) == intrinsic(analyze(spec))

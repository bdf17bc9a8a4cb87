"""Workloads of the pipeline benchmark: which specs each one runs, and how.

An op is one report on one spec, or one suite of the invariant corpus.  In
the report workloads the seed permutes the declared variable order of every
spec.  That changes column and pivot order, and so the work done, but not
the mathematics: the coordinate-free report fields stay fixed (see
oracle.py).  Seed 0 keeps the spec files exactly as written below, so its
reports can be compared byte for byte.

The cost of one spec moves by up to 25% between variable orders (QQ, d=3,
D=8).  So a run alternates its passes between the seed's order and the
reverse of it: each run then averages an antithetic pair of orders, and
runs under different seeds agree more closely.

verify_corpus runs the shipped corpus, `run_all(seed=VERIFY_CORPUS_SEED)`,
under every benchmark seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# name -> (field, vars, truncation, boundary, generators)
SPECS = {
    # analyze_prime: the tall-matrix regime of rref_mod_p and level-ideal rows
    "gf3_d3_D12": ("GF(3)", "x, y, z", 12, "", ["x^3 + y^4 + z^5 @ 3", "x*y*z @ 2"]),
    "gf2_d3_D10": ("GF(2)", "x, y, z", 10, "", ["x^3 + y^4 + z^5 @ 3", "x*y*z @ 2"]),
    "gf3_d4_D8": ("GF(3)", "x, y, z, w", 8, "", ["x^3 + y^4 + z^5 @ 3", "x*y*z @ 2"]),
    "gf3_d3_D10_infmu": ("GF(3)", "x, y, z", 10, "", ["x + z^4 @ 1", "y^3 @ 3"]),
    # the showcase; its invariants are cross-checked by a brute-force script
    "gf2_showcase": ("GF(2)", "x, y", 10, "", ["x^2 + y^3 @ 2"]),
    # analyze_generic: rref_generic on Fraction and tuple scalars
    "qq_showcase": ("QQ", "x, y", 10, "", ["x^2 + y^3 @ 2"]),
    "qq_d3_D6": ("QQ", "x, y, z", 6, "", ["x^3 + y^4 + z^5 @ 3", "x*y*z @ 2"]),
    "qq_d3_D8_infmu": ("QQ", "x, y, z", 8, "", ["x + y^2 @ 1", "y^2 @ 2"]),
    "gf9_d3_D6": ("GF(3^2)", "x, y, z", 6, "", ["x^3 + y^4 + z^5 @ 3", "x*y*z @ 2"]),
    "gf4_d2_D10": ("GF(2^2)", "x, y", 10, "", ["x^2 + y^3 @ 2"]),
    # report_mix: every spec has an infinite mu_H and a nonempty generator
    # system, so today every pipeline stage runs for every report
    "sat_gf2_boundary": ("GF(2)", "x, y, z", 10, "z", ["x + y^3 @ 1", "z^2 @ 2"]),
    "sat_gf2_d4_D8": ("GF(2)", "x, y, z, w", 8, "", ["x + z^3 @ 1", "y^2 @ 2", "w^4 @ 4"]),
    "sat_qq_d2_D8": ("QQ", "x, y", 8, "", ["x + y^2 @ 1", "y^2 @ 2"]),
    "sigma_gf5_d3_D10": ("GF(5)", "x, y, z", 10, "", ["x + y^3 @ 1", "z^5 @ 5"]),
    "sigma_gf9_d2_D8": ("GF(3^2)", "x, y", 8, "", ["x + y^2 @ 1", "y^3 @ 3"]),
    "sigma_gf3_d3_D9": ("GF(3)", "x, y, z", 9, "", ["x + y^2*z @ 1", "z^3 @ 3"]),
    "mu_gf3_d3_D10": ("GF(3)", "x, y, z", 10, "", ["y + x^4 @ 1", "z^3 @ 3"]),
    "mu_qq_d3_D6": ("QQ", "x, y, z", 6, "", ["x + y*z @ 1", "y @ 1"]),
    "mu_gf7_d2_D14": ("GF(7)", "x, y", 14, "", ["x + y^3 @ 1", "y^7 @ 7"]),
}

# workload -> [(report kind, spec name)]; verify_corpus runs the suites instead
WORKLOADS = {
    "analyze_prime": [("analyze", s) for s in (
        "gf3_d3_D12", "gf2_d3_D10", "gf3_d4_D8", "gf3_d3_D10_infmu", "gf2_showcase")],
    "analyze_generic": [("analyze", s) for s in (
        "qq_showcase", "qq_d3_D6", "qq_d3_D8_infmu", "gf9_d3_D6", "gf4_d2_D10")],
    "report_mix": [
        ("saturate", "sat_gf2_boundary"), ("saturate", "sat_gf2_d4_D8"),
        ("saturate", "sat_qq_d2_D8"),
        ("sigma", "sigma_gf5_d3_D10"), ("sigma", "sigma_gf9_d2_D8"),
        ("sigma", "sigma_gf3_d3_D9"),
        ("mu", "mu_gf3_d3_D10"), ("mu", "mu_qq_d3_D6"), ("mu", "mu_gf7_d2_D14"),
    ],
    "verify_corpus": [],
}

VERIFY = "verify_corpus"
# The corpus seed handed to verify.run_all.  It is pinned: the corpus's own
# seed changes the work of single suites severalfold (the slowest suite took
# 4.7 s to 22.5 s over corpus seeds 1..5), which no regression bound could
# absorb.
VERIFY_CORPUS_SEED = 0


@dataclass
class Op:
    kind: str        # analyze | saturate | sigma | mu
    spec_name: str
    text: str = ""   # spec file text after the seed's variable permutation
    canonical: bool = True  # the variable order is the one written in SPECS

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.spec_name}"


def spec_text(name: str, order) -> str:
    field, _, D, boundary, gens = SPECS[name]
    lines = [f"field: {field}", f"vars: {', '.join(order)}", f"truncation: {D}"]
    if boundary:
        lines.append(f"boundary: {boundary}")
    lines += [f"gen: {g}" for g in gens]
    return "\n".join(lines) + "\n"


def variable_order(name: str, seed: int):
    names = [v.strip() for v in SPECS[name][1].split(",")]
    if seed != 0:
        random.Random(f"{seed}:{name}").shuffle(names)
    return names


def build_ops(workload: str, seed: int, reverse: bool = False):
    """The ops of one pass, with the inputs the seed selects; reverse=True
    declares every spec's variables in the opposite order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    ops = []
    for kind, name in WORKLOADS[workload]:
        order = variable_order(name, seed)
        if reverse:
            order = order[::-1]
        canonical = order == variable_order(name, 0)
        ops.append(Op(kind, name, spec_text(name, order), canonical))
    return ops

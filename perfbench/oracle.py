"""Expected outputs of the benchmark's ops, and the check against them.

oracle.json holds, per (report kind, spec):

* sha256: the digest of the sorted-key JSON bytes that `idfilt <kind> --json`
  prints for the spec as written (seed 0);
* fields: the coordinate-free report fields, which must come out the same
  under every variable order the seed can pick.

Regenerate with `python3 perfbench/oracle.py --write`.  That runs every op
under seeds 0..5, in the seed's variable order and in its reverse, drops
(and records) any field that still varies with the variable order, and
cross-checks the showcase specs against tests/brute_force_showcase.py, which
shares no code with the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_PATH = HERE / "oracle.json"
CONFIRM_SEEDS = range(6)


def report_bytes(report: dict) -> bytes:
    """The bytes the command line prints for a report with --json."""
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def report_fields(kind: str, report: dict) -> dict:
    out = {}
    if kind in ("analyze", "saturate"):
        sat = report["saturation"]
        out["saturation_gens"] = [len(sat["d"]), len(sat["b_probe"]["gens"]),
                                  len(sat["b_probe"]["added"])]
    if kind in ("analyze", "sigma"):
        lead = report["leading"]
        out["sigma_full"] = lead["sigma_full"]
        out["pure_dims"] = lead["pure_dims"]
        out["stabilized"] = lead["stabilized"]
    if kind in ("analyze", "sigma", "mu"):
        out["lgs_e"] = [entry["e"] for entry in report["leading"]["lgs"]]
    if kind in ("analyze", "mu"):
        mu = report["mu"]
        out["mu_p"] = mu["mu_p"]
        out["mu_tilde"] = mu["mu_tilde"]
        out["in_support"] = mu["in_support"]
    if kind == "analyze":
        out["nonsingularity_passed"] = report["nonsingularity"].get("passed")
    return out


def check_report(op, report: dict, oracle: dict) -> list:
    """Mismatches of one op's report against the oracle; empty when correct."""
    want = oracle["ops"].get(op.name)
    if want is None:
        return [f"{op.name}: no oracle entry"]
    bad = []
    got = report_fields(op.kind, report)
    for key, value in want["fields"].items():
        if got.get(key) != value:
            bad.append(f"{op.name}: {key} = {got.get(key)!r}, expected {value!r}")
    if op.canonical:
        digest = hashlib.sha256(report_bytes(report)).hexdigest()
        if digest != want["sha256"]:
            bad.append(f"{op.name}: report bytes differ from the oracle digest")
    return bad


def load() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _brute_force_check(ops_out: dict) -> dict:
    """Compare the showcase invariants with the independent brute force."""
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "brute_force_showcase.py")],
                          capture_output=True, text=True, timeout=600, check=False)
    brute = json.loads(proc.stdout.strip().splitlines()[-1])
    pairs = (("char2", "analyze:gf2_showcase"), ("char0", "analyze:qq_showcase"))
    for char, op_name in pairs:
        got = ops_out[op_name]["fields"]
        want = brute[char]
        n = len(want["sigma"])
        mu = got["mu_tilde"]["value"] if isinstance(got["mu_tilde"], dict) else None
        ok = (got["sigma_full"][:n] == want["sigma"] and got["lgs_e"] == want["lgs_levels"]
              and mu is not None and Fraction(mu) == Fraction(want["mu_tilde"]))
        if not ok:
            raise SystemExit(f"brute force disagrees on {op_name}: {want} vs {got}")
    return brute


def write() -> None:
    from runner import report_fn, use_checkout_source
    from workloads import VERIFY, WORKLOADS, build_ops
    use_checkout_source()
    from idfilt.specfile import parse_spec

    ops_out, dropped = {}, {}
    for workload in WORKLOADS:
        if workload == VERIFY:
            continue
        per_seed = {}
        for seed in CONFIRM_SEEDS:
            for reverse in (False, True):
                for op in build_ops(workload, seed, reverse):
                    report = report_fn(op.kind)(parse_spec(op.text))
                    per_seed.setdefault(op.name, []).append(
                        (f"{seed}{' reversed' if reverse else ''}",
                         report_fields(op.kind, report)))
                    if seed == 0 and not reverse:
                        ops_out[op.name] = {
                            "sha256": hashlib.sha256(report_bytes(report)).hexdigest(),
                            "fields": {}}
                    print(f"seed {seed} {op.name}", file=sys.stderr, flush=True)
        for name, runs in per_seed.items():
            base = runs[0][1]
            for key, value in base.items():
                varies = [(s, f[key]) for s, f in runs if f[key] != value]
                if varies:
                    dropped[f"{name}.{key}"] = (f"varies with the variable order: seed 0 gives "
                                                f"{value!r}, seed {varies[0][0]} gives {varies[0][1]!r}")
                else:
                    ops_out[name]["fields"][key] = value
    brute = _brute_force_check(ops_out)
    payload = {"seeds_confirmed": list(CONFIRM_SEEDS), "ops": ops_out,
               "dropped_fields": dropped, "brute_force_showcase": brute}
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ORACLE_PATH.relative_to(ROOT)}: {len(ops_out)} ops, "
          f"{len(dropped)} dropped fields")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate oracle.json")
    if parser.parse_args().write:
        write()
    else:
        parser.print_help()

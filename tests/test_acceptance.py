"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavy lifting lives in the verify suites (shared with `idfilt verify`);
here every criterion is pinned at its stated size, tolerance (exact
throughout) and time budget.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from idfilt import fields as fields_mod
from idfilt import verify as V

HERE = Path(__file__).resolve().parent


def _run_suite(suite, seed=0):
    rng = random.Random(f"{seed}:{suite.__name__}")
    return suite(rng)


def _report(num, title, ok, extra=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {num}: {title}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num} failed: {title}"


def test_criterion_01_hasse_basis_law():
    t0 = time.time()
    res = _run_suite(V.suite_hasse_basis)
    dt = time.time() - t0
    ok = res.passed and dt < 10.0 and res.instances >= 4 * (9 ** 2 + 45 ** 2 + 165 ** 2)
    _report(1, "divided-partial basis law, exhaustive to degree 8",
            ok, f"{res.instances} checks in {dt:.1f}s")


def test_criterion_02_product_rule():
    res = _run_suite(V.suite_product_rule)
    _report(2, "generalized product rule on >= 500 triples per field",
            res.passed and res.instances >= 4 * 500, f"{res.instances} triples")


def test_criterion_03_lucas():
    res = _run_suite(V.suite_lucas)
    ok = res.passed and res.instances >= 4 * (201 * 201 + 31 * 31 * 4)
    _report(3, "digit-product binomials vs factorial oracle; p-power scaling",
            ok, f"{res.instances} pairs")


def test_criterion_04_pe_power_generation():
    res = _run_suite(V.suite_pe_power_generated)
    forward = 100
    ok = res.passed and res.instances >= forward + 500
    _report(4, "p^e-power generation: forward random, converse exhaustive",
            ok, f"{res.instances} ideals")


def test_criterion_05_d_saturation_laws():
    res = _run_suite(V.suite_d_saturation)
    _report(5, "differential saturation idempotent and closed on >= 50 specs",
            res.passed, f"{res.instances} subspace equalities")


def test_criterion_06_interchange():
    res = _run_suite(V.suite_ds_sd_interchange)
    _report(6, "differentiate-then-probe re-certifies on the curated corpus",
            res.passed and res.instances >= 20, f"{res.instances} probes")


def test_criterion_07_theta_oracle():
    res = _run_suite(V.suite_theta)
    _report(7, "exact monomial theta equals brute force (incl. 5/6 pin)",
            res.passed, f"{res.instances} instances")


def test_criterion_08_pure_generation():
    res = _run_suite(V.suite_leading_pure)
    _report(8, "leading algebra generated by the pure part, degreewise",
            res.passed, f"{res.instances} checks")


def test_criterion_09_showcase_with_brute_force():
    res = _run_suite(V.suite_sigma_mu)
    script = subprocess.run([sys.executable, str(HERE / "brute_force_showcase.py")],
                            capture_output=True, text=True)
    brute = json.loads(script.stdout) if script.returncode == 0 else {}
    ok = (res.passed and script.returncode == 0
          and brute.get("char2") == {"sigma": [2, 1, 1], "lgs_levels": [1],
                                     "mu_tilde": "2"}
          and brute.get("char0", {}).get("sigma") == [1]
          and brute.get("char0", {}).get("lgs_levels") == [0])
    _report(9, "char-2/char-0 showcase reproduced by the independent script",
            ok, f"brute output {script.stdout.strip()}")


def test_criterion_10_supporting_and_coefficient():
    t0 = time.time()
    r1 = _run_suite(V.suite_supporting_laws)
    r2 = _run_suite(V.suite_coefficient_decomposition)
    dt = time.time() - t0
    systems = 16 + 30  # systems built inside the two suites
    ok = r1.passed and r2.passed and dt < 120.0 and systems >= 30
    _report(10, "supporting laws and coefficient decomposition",
            ok, f"{r1.instances + r2.instances} checks in {dt:.1f}s")


def test_criterion_11_nonsingularity_end_to_end():
    res = _run_suite(V.suite_nonsingularity)
    _report(11, "saturated showcase passes; unsaturated variant is diagnosed",
            res.passed, f"{res.instances} checks")


def test_criterion_12_localization_regression():
    r1 = _run_suite(V.suite_localization_regression, seed=0)
    r2 = _run_suite(V.suite_localization_regression, seed=7)
    _report(12, "the truncated product-family spec keeps (y,1) undetected",
            r1.passed and r2.passed, "stable across seeds")


def test_criterion_13_determinism_and_mutation(tmp_path, monkeypatch):
    spec = tmp_path / "s.txt"
    spec.write_text("field: GF(2)\nvars: x, y\ntruncation: 10\n"
                    "gen: x^2 + y^3 @ 2\n", encoding="utf-8")
    outs = [subprocess.run([sys.executable, "-m", "idfilt.cli", "analyze",
                            str(spec), "--json"], capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    deterministic = outs[0] == outs[1]

    clean = _run_suite(V.suite_lucas)

    # seeded mutation: an off-by-one in the digit-product binomials must trip
    # the corpus and flip the verify exit status
    real = fields_mod.binom_mod_p

    def mutant(i, j, p):
        v = real(i, j, p)
        return (v + 1) % p if (i, j) != (0, 0) else v

    monkeypatch.setattr(fields_mod, "binom_mod_p", mutant)
    mutated = _run_suite(V.suite_lucas)
    monkeypatch.setattr(V, "ALL_SUITES", [V.suite_lucas])
    from idfilt.cli import main as cli_main
    exit_code = cli_main(["verify", "--json"])
    monkeypatch.undo()

    ok = deterministic and clean.passed and not mutated.passed and exit_code != 0
    _report(13, "byte-identical reports; verify trips under a Lucas mutation",
            ok)


def test_full_verify_exits_clean(verify_json, monkeypatch, capsys):
    # the corpus itself runs once a session (verify_json); the text rendering,
    # one "[pass]" line a suite and then the total, is read on two suites
    monkeypatch.setattr(V, "ALL_SUITES", [V.suite_field_axioms, V.suite_pe_roots])
    from idfilt.cli import main as cli_main
    assert cli_main(["verify"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert [l.split(":")[0] for l in text[:2]] == [
        "[pass] field_axioms", "[pass] pe_roots"]
    n = sum(int(l.rsplit("(", 1)[1].split()[0]) for l in text[:2])
    assert text[2:] == [f"2 suites, {n} instances, all passed"]
    code, out = verify_json
    suites = json.loads(out)["suites"]
    print(f"[PASS] full corpus: {len(suites)} suites via the CLI"
          if code == 0 else "[FAIL] full corpus")
    assert code == 0
    assert len(suites) >= 12 and all(s["passed"] for s in suites)

import hashlib
import json
import subprocess
import sys

import pytest

SHOWCASE = """field: GF(2)
vars: x, y
truncation: 10
gen: x^2 + y^3 @ 2
"""

NONSING = """field: GF(2)
vars: x, y
truncation: 10
gen: x @ 1
gen: y^2 @ 2
"""


def run_cli(*args, check=True):
    return subprocess.run([sys.executable, "-m", "idfilt.cli", *args],
                          capture_output=True, text=True, check=check)


@pytest.fixture
def showcase_file(tmp_path):
    p = tmp_path / "showcase.txt"
    p.write_text(SHOWCASE, encoding="utf-8")
    return str(p)


@pytest.fixture
def nonsing_file(tmp_path):
    p = tmp_path / "nonsing.txt"
    p.write_text(NONSING, encoding="utf-8")
    return str(p)


def test_analyze_json_showcase(showcase_file):
    out = run_cli("analyze", showcase_file, "--json")
    rep = json.loads(out.stdout)
    assert rep["leading"]["sigma"] == [2, 1, 1]
    assert rep["leading"]["lgs"] == [{"h": "x^2 + y^3", "e": 1, "level": 2}]
    assert rep["mu"]["mu_tilde"] == {"value": 2}
    assert rep["nonsingularity"]["applicable"] is False


def test_analyze_char0_analog(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text(SHOWCASE.replace("GF(2)", "QQ"), encoding="utf-8")
    rep = json.loads(run_cli("analyze", str(p), "--json").stdout)
    assert rep["leading"]["sigma"] == [1]
    assert rep["leading"]["lgs"][0]["e"] == 0


def test_analyze_empty_gens(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("field: GF(2)\nvars: x, y\ntruncation: 6\n", encoding="utf-8")
    rep = json.loads(run_cli("analyze", str(p), "--json").stdout)
    assert rep["leading"]["sigma"] == [2, 2]
    assert rep["mu"]["mu_p"] == "infinity"
    assert rep["mu"]["in_support"] is True


def test_analyze_nonsingularity_pipeline(nonsing_file):
    rep = json.loads(run_cli("analyze", nonsing_file, "--json").stdout)
    assert rep["saturation"]["b_probe"]["added"] == [
        {"poly": "y", "level": "1", "witness_n": 2}]
    assert rep["nonsingularity"]["passed"] is True
    assert [e["level"] for e in rep["leading"]["lgs"]] == [1, 1]


def test_analyze_byte_identical(showcase_file):
    a = run_cli("analyze", showcase_file, "--json").stdout
    b = run_cli("analyze", showcase_file, "--json").stdout
    assert a == b


def test_reports_compute_only_their_sections(monkeypatch):
    # saturate, sigma and mu never reach the nonsingularity or checks stages
    from idfilt import pipeline
    from idfilt.specfile import parse_spec
    specs = [parse_spec(text) for text in (SHOWCASE, NONSING)]
    full = [pipeline.analyze(spec) for spec in specs]

    def not_in_this_report(*args, **kwargs):
        raise AssertionError("stage outside the report was run")

    for name in ("nonsingularity_check", "supporting3_check",
                 "coefficient_default_mu", "coefficient_decompose_check"):
        monkeypatch.setattr(pipeline, name, not_in_this_report)
    for spec, rep in zip(specs, full):
        assert pipeline.saturate_report(spec) == {
            k: rep[k] for k in ("input", "saturation", "precision")}
        assert pipeline.sigma_report(spec) == {
            k: rep[k] for k in ("input", "leading", "precision")}
        assert pipeline.mu_report(spec) == {
            "input": rep["input"], "mu": rep["mu"],
            "leading": {"lgs": rep["leading"]["lgs"]},
            "precision": rep["precision"]}


# SHA-256 of the bytes `idfilt analyze --json` prints.  Reports are meant to
# be byte-reproducible, so a digest moves only with a deliberate report change.
PINNED_REPORTS = {
    "gf2_showcase": (SHOWCASE,
                     "49ab9335d37d8594d87101508d96b8431e1627a4257173da3a4c2d3790fd2535"),
    "qq_showcase": (SHOWCASE.replace("GF(2)", "QQ"),
                    "4c44797099095909d58d5e493ad6ce722b4d0d0f2858c4c43527f76782dd2f66"),
    # infinite mu_H: the nonsingularity and checks sections run
    "gf9_infmu": ("field: GF(3^2)\nvars: x, y\ntruncation: 8\n"
                  "gen: x + y^2 @ 1\ngen: y^3 @ 3\n",
                  "960267f51a58bf288a586ce3dfa0392938f9871fc95062194c0f54c52ae66e1b"),
    "gf2_boundary": ("field: GF(2)\nvars: x, y, z\ntruncation: 10\nboundary: z\n"
                     "gen: x + y^3 @ 1\ngen: z^2 @ 2\n",
                     "562fa9e52e10daba4ddd34bcc510d59a1b4196edde0050f982add4eaa06b9b3c"),
    "gf3_infmu": ("field: GF(3)\nvars: x, y, z\ntruncation: 6\n"
                  "gen: x + z^4 @ 1\ngen: y^3 @ 3\n",
                  "9a78c8311b89680a4cb0dbf07580f4eb327f82eb6736ff27a77c09f374266486"),
    "gf4_d2": ("field: GF(2^2)\nvars: x, y\ntruncation: 6\n"
               "gen: x^2 + y^3 @ 2\ngen: x*y^2 @ 3\n",
               "ebf641f2429490f788555b8c9c24c3ff6fe8e7bc352c1c5e5d865796f0caf2e3"),
    "gf27_infmu": ("field: GF(3^3)\nvars: x, y, z\ntruncation: 6\n"
                   "gen: x + z^4 @ 1\ngen: y^3 @ 3\n",
                   "34e77d7befeaebb26e37d3acd49599d5adc2a0823856586d3b08f5b2ac17b694"),
    # the saturated level ideals stack hundreds of monomial multiples, which
    # ideal_image prunes: the span, and so the report, must not move
    "gf3_d3_D12": ("field: GF(3)\nvars: x, y, z\ntruncation: 12\n"
                   "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n",
                   "d5f45be1d0adf75d682597fec9a5c7f6ecd00867a78554f7227648fd5f48fd68"),
    # QQ: the multimodular elimination must print what exact elimination did
    "qq_infmu": ("field: QQ\nvars: x, y, z\ntruncation: 6\n"
                 "gen: x + y^2 @ 1\ngen: y^2 @ 2\n",
                 "f64df3e12b8e0c8b3d9bd40230e944884c333b07a3ecb2c762263aad0e44c27b"),
    "qq_d3": ("field: QQ\nvars: x, y, z\ntruncation: 6\n"
              "gen: x^3+y^4+z^5 @ 3\ngen: x*y*z @ 2\n",
              "bdca48c226d184a16bdb60d9ba4a3aa8a740a420e3e70e3dc2df0a687f84eb89"),
    "qq_large_coefficients": (
        "field: QQ\nvars: x, y, z\ntruncation: 6\n"
        "gen: 1000003*x^2 + 999999937*y^3 - 123456789012345678901*z^4 @ 2\n"
        "gen: 7*x*y*z + 3*y^2 + 2*x*z @ 3\n",
        "d12f7ad59db9de32e44589e9d01e0c7bab81041196f8f5fc1b12a52a2a18f499"),
    # the level ideals come from minimal generator products only: levels off
    # a common grid, many same-level products, and a fourth variable
    "gf2_levels": ("field: GF(2)\nvars: x, y\ntruncation: 6\n"
                   "gen: x @ 1/3\ngen: y^2 @ 5/7\n",
                   "2cc4373179be974cbe5657ec97432efe7484c4dd6327092201d9777f51fc2ec2"),
    # grid denominator 800: D*800 = 4,800 grid levels, and the nonsingularity
    # check decides generation from the two generators without building one
    "gf2_grid800": ("field: GF(2)\nvars: x, y\ntruncation: 6\n"
                    "gen: x @ 1/800\ngen: x @ 1\n",
                    "ee04357246935d1beb6360f90e9d370aa009ac8a9df56967e94c9c1b7d717899"),
    "qq_dense": ("field: QQ\nvars: x, y, z\ntruncation: 6\n"
                 "gen: x^2 + 2*x*y + 3*y^2 - x*z + 5*z^2 + y^3 @ 2\n"
                 "gen: x*y + y*z + z*x + x^3 - 7*y^3 @ 2\n",
                 "69c6c4d44031227245d05eb73b2a28cd775ceb1be6bd4a0b2409f8a31e6f9166"),
    "gf3_d4_D10": ("field: GF(3)\nvars: x, y, z, w\ntruncation: 10\n"
                   "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n",
                   "e046f58adb86ea52919c190c33a9ff164e55c383efc158b3b4fa5c38607dcee1"),
    # all generators monomial: the probe's exact theta candidates feed the
    # report, one theta LP each (up to 7 generators in 3 variables)
    "gf3_monomial": ("field: GF(3)\nvars: x, y, z\ntruncation: 12\n"
                     "gen: x^3 @ 2\ngen: y^4 @ 3\ngen: z^5 @ 1\ngen: x*y*z @ 2\n",
                     "6f14970110bad8666ffb95b4bb2824f4306475fde5afec2f4db85c3abe25c34a"),
    # near the supported envelope: level-ideal stacks of up to 10,165 rows
    # over 3,060 columns, nearly all of them unit rows, which the presolve
    # takes from their coordinates
    "gf3_d4_D14": ("field: GF(3)\nvars: x, y, z, w\ntruncation: 14\n"
                   "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n",
                   "c719b920567a5331fa1211083f209046ba00b01c5796ba2c26de83780e716c80"),
    # the admitted edge at d=4: the stacks of H's multiples have distinct
    # leading columns per generator, which the structural pivots reduce
    # without a dense block; recorded before the structural step existed
    "gf3_d4_D16": ("field: GF(3)\nvars: x, y, z, w\ntruncation: 16\n"
                   "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n",
                   "0280269ff4db63d06e9f4aac1af8c6d63c5c51b2722942a26fdadc3ea29e87cd"),
    # the envelope's edge, d=6: bases of up to 6,997 rows over N = 8,008
    # columns, nearly all unit rows, recorded when bases were dense N-wide
    # arrays (about 1.7 GB), so it cross-checks the coordinate storage
    "gf2_d6_D10": ("field: GF(2)\nvars: x, y, z, w, u, v\ntruncation: 10\n"
                   "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n",
                   "7e14d0933ff01f3707639d9c96b725d476c12883206c15bdd02ef6a4e4c9e7a7"),
    # the E_TRUNC edge at d=5: one root at level 1, so every higher pure part
    # is read in R/m^(q+1) alone
    "gf2_d5_D13": ("field: GF(2)\nvars: x, y, z, w, u\ntruncation: 13\n"
                   "gen: x^3 + y^4 + z^5 @ 3\ngen: x*y*z @ 2\n",
                   "ef29d2aef31b61df121723ea9873ce4b9a8fe0c0aa83ff874d52795d56de4eed"),
    # roots at levels 1 and 2: level 2 is read in R/m^3, then lifted from the
    # level ideal over the whole ring
    "gf2_two_roots": ("field: GF(2)\nvars: x, y, z\ntruncation: 10\n"
                      "gen: x + z^3 @ 1\ngen: y^2 + z^5 @ 2\n",
                      "9eae31cd4b1c3c4adb9dd9b9d582b7b84c659172f042d2d75cb88fe6f78cf06b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_analyze_report_bytes_pinned(name, tmp_path, capsys):
    from idfilt.cli import main
    text, digest = PINNED_REPORTS[name]
    p = tmp_path / "spec.txt"
    p.write_text(text, encoding="utf-8")
    assert main(["analyze", str(p), "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_verify_json_pinned(verify_json):
    # the whole invariant corpus, byte for byte: 22 suites, 306,757 instances
    code, out = verify_json
    assert code == 0
    payload = json.loads(out)
    assert len(payload["suites"]) == 22
    assert sum(s["instances"] for s in payload["suites"]) == 306757
    assert hashlib.sha256(out).hexdigest() == (
        "4b9864568ce63eb0de982ad21c1fc77d5f49b54cd181abb49953c1844c3fae3e")


def test_text_rendering_is_default(showcase_file):
    out = run_cli("analyze", showcase_file)
    assert "sigma" in out.stdout and "{" not in out.stdout.splitlines()[0]


def test_saturate_sigma_mu_subcommands(showcase_file):
    sat = json.loads(run_cli("saturate", showcase_file, "--json").stdout)
    assert {"poly": "y^2", "level": "1"} in sat["saturation"]["d"]
    sig = json.loads(run_cli("sigma", showcase_file, "--json").stdout)
    assert sig["leading"]["sigma"] == [2, 1, 1]
    mu = json.loads(run_cli("mu", showcase_file, "--json").stdout)
    assert mu["mu"]["mu_tilde"] == {"value": 2}
    assert mu["mu"]["mu_p"] == {"value": 1}


def test_trunc_override(showcase_file):
    rep = json.loads(run_cli("analyze", showcase_file, "--json",
                             "--trunc", "8").stdout)
    assert rep["precision"]["D"] == 8


def test_candidates_file(tmp_path, nonsing_file):
    cand = tmp_path / "cands.txt"
    cand.write_text("y @ 1\n", encoding="utf-8")
    rep = json.loads(run_cli("analyze", nonsing_file, "--json",
                             "--candidates", str(cand)).stdout)
    assert rep["nonsingularity"]["passed"] is True


def test_candidate_workflow_three_vars(tmp_path):
    # the probe pool only roots whole generators; a combination like x^3
    # inside the level ideal needs a user candidate, which then certifies
    base = ("field: GF(3)\nvars: x, y, z\ntruncation: 9\n"
            "gen: x^3 + y^2*z @ 3\ngen: z^2 @ 2\n")
    p = tmp_path / "s.txt"
    p.write_text(base, encoding="utf-8")
    rep = json.loads(run_cli("analyze", str(p), "--json").stdout)
    assert rep["nonsingularity"]["passed"] is False
    assert "candidates" in rep["nonsingularity"]["all_level_one"]["diagnosis"]
    p.write_text(base + "candidate: x @ 1\n", encoding="utf-8")
    rep2 = json.loads(run_cli("analyze", str(p), "--json").stdout)
    assert rep2["nonsingularity"]["passed"] is True
    assert [e["level"] for e in rep2["leading"]["lgs"]] == [1, 1, 1]


def test_prime_power_field_spelling_same_report(tmp_path):
    body = "vars: x, y\ntruncation: 6\ngen: x^3 + y^4 @ 3\n"
    reports = []
    for field in ("GF(9)", "GF(3^2)"):
        p = tmp_path / f"{field}.txt"
        p.write_text(f"field: {field}\n" + body, encoding="utf-8")
        reports.append(run_cli("analyze", str(p), "--json").stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["input"]["field"] == "GF(3^2)"


def test_trunc_override_outside_envelope(showcase_file):
    from idfilt.specfile import MAX_TRUNC
    out = run_cli("analyze", showcase_file, "--trunc", str(MAX_TRUNC + 1), check=False)
    assert out.returncode != 0
    assert "spec error" in out.stderr and f"1..{MAX_TRUNC}" in out.stderr


def test_spec_error_exit(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("field: GF(6)\nvars: x\ntruncation: 4\n", encoding="utf-8")
    out = run_cli("analyze", str(p), check=False)
    assert out.returncode != 0
    assert "E_FIELD" in out.stderr


@pytest.mark.parametrize("flag, value, directive", [
    ("--trunc", "0", "truncation"),
    ("--emax", "-1", "emax"),
    ("--radical-n-max", "-1", "radical_n_max"),
    ("--radical-grid", "0", "radical_grid"),
])
def test_bad_override_is_a_spec_error(showcase_file, flag, value, directive):
    # the command-line overrides obey the rules of the spec directives
    from idfilt.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["analyze", showcase_file, flag, value])
    assert str(exc.value.code).startswith("spec error: ")
    assert directive in str(exc.value.code)

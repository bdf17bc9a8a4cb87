"""Self-tests of the benchmark harness:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
import runner
import workloads
from tracing import Tracer, layer_metrics, span_stats

runner.use_checkout_source()

ROOT = Path(__file__).resolve().parent.parent
SMALL = [op for op in workloads.build_ops("report_mix", 0)
         if op.spec_name in ("mu_gf7_d2_D14", "sigma_gf3_d3_D9")]


def _specs(ops):
    from idfilt.specfile import parse_spec
    return [parse_spec(op.text) for op in ops]


def _runner(timeout=60.0):
    return runner.Runner(oracle.load(), timeout, time.perf_counter() + 120)


def test_clean_reports_pass_the_oracle():
    res = _runner().report_pass(SMALL, _specs(SMALL))
    assert res.attempted == 2 and res.failures == []


def test_corrupted_report_is_one_failed_op():
    target = next(op for op in SMALL if op.kind == "mu")

    def corrupting_check(op, report, expected):
        if op is target:
            report["mu"]["mu_tilde"] = {"value": "1"}
        return oracle.check_report(op, report, expected)

    res = _runner().report_pass(SMALL, _specs(SMALL), check=corrupting_check)
    assert res.attempted == 2
    assert [name for name, _ in res.failures] == [target.name]
    assert "mu_tilde" in res.failures[0][1]


def test_changed_bytes_fail_only_the_canonical_order():
    op = next(op for op in SMALL if op.kind == "sigma")
    report = runner.report_fn(op.kind)(_specs([op])[0])
    report["input"]["truncation"] += 1      # not a checked field; the digest sees it
    assert oracle.check_report(op, report, oracle.load())
    reordered = dataclasses.replace(op, canonical=False)
    assert oracle.check_report(reordered, report, oracle.load()) == []


def test_forced_timeout_is_a_counted_failure(monkeypatch):
    slow = lambda spec: time.sleep(5)  # noqa: E731
    real = runner.report_fn
    monkeypatch.setattr(runner, "report_fn",
                        lambda kind: slow if kind == "mu" else real(kind))
    t0 = time.perf_counter()
    res = _runner(timeout=1.5).report_pass(SMALL, _specs(SMALL))
    assert time.perf_counter() - t0 < 4.5
    assert res.attempted == 2
    assert len(res.failures) == 1 and "timeout" in res.failures[0][1]


def test_raising_op_is_a_counted_failure():
    outcome = runner.call_with_timeout(lambda: 1 / 0, 1.0)
    assert outcome.result is None and outcome.error.startswith("ZeroDivisionError")


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0, 1, 2, 4, 5, 6, 9, 10, 11, 12])
    tr = Tracer(clock=lambda: next(ticks))
    leaf = tr.bind("leaf", lambda: None)
    mid = tr.bind("mid", lambda: leaf())
    inner = tr.bind("top", lambda: None)          # same name nested inside top
    top = tr.bind("top", lambda: (leaf(), mid(), inner()))
    top()
    spans = {(r[0], r[1]): (r[2] - r[1], r[3]) for r in tr.spans}
    assert spans == {("top", 0): (12, -1), ("leaf", 1): (1, 0), ("mid", 4): (5, 0),
                     ("leaf", 5): (1, 2), ("top", 10): (1, 0)}
    st = span_stats(tr.spans)
    assert st["top"] == {"calls": 2, "s": 12, "self_s": (12 - 1 - 5 - 1) + 1}
    assert st["mid"] == {"calls": 1, "s": 5, "self_s": 5 - 1}
    assert st["leaf"] == {"calls": 2, "s": 2, "self_s": 2}


def test_metric_names_match_benchmark_json():
    from idfilt import verify
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    suites = [s.__name__.removeprefix("suite_") for s in verify.ALL_SUITES]
    traced = set(layer_metrics([], {}, suites)) | {"trace.pass_s", "trace.overhead_s"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    import run
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_oracle_covers_every_report_op():
    names = {op.name for w in workloads.WORKLOADS for op in workloads.build_ops(w, 0)}
    assert names == set(oracle.load()["ops"])


def test_setup_probe_parses_every_input():
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(runner.SRC), "report_mix"]
    texts = "\0".join(op.text for op in workloads.build_ops("report_mix", 3))
    assert subprocess.run(probe, input=texts, text=True).returncode == 0
    broken = subprocess.run(probe, input=texts + "\0field: QQ\nvars: x\n", text=True,
                            capture_output=True)
    assert broken.returncode != 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_seed_fixes_the_inputs(seed):
    a = [op.text for op in workloads.build_ops("analyze_prime", seed)]
    b = [op.text for op in workloads.build_ops("analyze_prime", seed)]
    assert a == b

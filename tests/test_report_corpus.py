"""Every benchmark spec's reports, byte for byte.

The 19 specs of perfbench/workloads.py, each run through the four report
commands (analyze, saturate, sigma, mu) with its variables declared in the
written order and in the reverse order: 152 reports.  Each report's SHA-256
of the `--json` bytes is pinned in report_corpus.json, so a change to any
report shows as a failing test and a reviewed digest update.

Regenerate the digest file (only for a deliberate report change) with

    PYTHONPATH=src python tests/test_report_corpus.py --write
"""

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "report_corpus.json"
KINDS = ("analyze", "saturate", "sigma", "mu")
ORDERS = ("declared", "reversed")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclass in it looks itself up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
CASES = [(name, kind, order) for name in sorted(workloads.SPECS)
         for kind in KINDS for order in ORDERS]


def case_id(name, kind, order):
    return f"{kind}:{name}:{order}"


def report_digest(name, kind, order, directory):
    """SHA-256 of what `idfilt <kind> <spec> --json` prints for one case."""
    from idfilt.cli import main
    names = workloads.variable_order(name, 0)
    if order == "reversed":
        names = names[::-1]
    path = Path(directory) / f"{name}-{order}.txt"
    path.write_text(workloads.spec_text(name, names), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([kind, str(path), "--json"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_case(pinned):
    assert len(CASES) == 152
    assert sorted(pinned) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("name,kind,order", CASES, ids=[case_id(*c) for c in CASES])
def test_report_bytes_pinned(name, kind, order, tmp_path, pinned):
    assert report_digest(name, kind, order, tmp_path) == pinned[case_id(name, kind, order)]


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_report_corpus.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        table = {case_id(*c): report_digest(*c, tmp) for c in CASES}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")

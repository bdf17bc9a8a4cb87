"""The library names the benchmark tracer binds still exist and are called.

perfbench/tracing.py patches idfilt functions and methods by name, some of
them private.  Renaming or deleting one would break `perfbench/run.py
--trace 1` without failing any other test, so this installs the tracer
around one analyze run and checks the spans it records.
"""

import importlib.util
from pathlib import Path

import idfilt.leading
from idfilt.pipeline import analyze
from idfilt.specfile import parse_spec

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

SHOWCASE = """field: GF(2)
vars: x, y
truncation: 10
gen: x^2 + y^3 @ 2
"""

# the presolve leaves the showcase nothing to eliminate; this spec leaves the
# kernel one Schur complement, so the kernel's span is recorded too
SCHUR = """field: GF(3)
vars: x, y, z
truncation: 8
gen: x + y^2 + z^3 @ 1
gen: x + y^3 @ 1
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer_and_uninstalls():
    tracing = load_tracing()
    original = idfilt.leading.pure_part
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        analyze(parse_spec(SHOWCASE))
        analyze(parse_spec(SCHUR))
    finally:
        tracer.uninstall()
    names = {rec[tracing.NAME] for rec in tracer.spans}
    for name in ("leading.pure_part", "leading.extract_lgs", "filtration.ideal_at_level",
                 "filtration.minimal_products", "gls.ideal_image", "kernels.rref_mod_p",
                 "invariants.ord_H", "pipeline.mu"):
        assert name in names, name
    assert tracer.counters["poly.mul_trunc"][0] > 0
    # ideal_image eliminates its stacked multiples through from_vectors, whose
    # span measures the rows handed in
    assert tracing.layer_metrics(tracer.spans, tracer.counters, [])["gls.ideal_image.rows"] > 0
    assert idfilt.leading.pure_part is original

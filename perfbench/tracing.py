"""Spans and counters recorded around idfilt's public functions.

The tracer lives in the benchmark, not in the library: install() replaces a
function in every idfilt module that binds it (so `gls.rref_mod_p` and
`pipeline.extract_lgs` are caught where their callers look them up) and
replaces class attributes such as FiltrationSpec.ideal_at_level.  Each call
then records a span [name, start, end, parent index, measure].  Spans stay
in memory until the run writes them out.  The hot Poly methods and the
Hasse operators only count calls and total seconds.

Span and counter times are process CPU seconds, less the benchmark's own
reference timings, as the end-to-end figures are (but not rescaled to the
nominal host speed).  A span's self time is
its duration minus the durations of its child spans.  Time in counted-only
calls stays in the enclosing span's self time.
"""

from __future__ import annotations

import sys
import time

NAME, START, END, PARENT, MEASURE = range(5)

# pipeline-module bindings -> stage; the stage span wraps the layer span
STAGES = {
    "d_saturate": "d_saturate", "d_saturate_log": "d_saturate",
    "b_saturate_probe": "b_probe", "extract_lgs": "extract_lgs",
    "mu_tilde": "mu", "ord_H": "mu", "nonsingularity_check": "nonsingularity",
    "supporting3_check": "checks", "coefficient_default_mu": "checks",
    "coefficient_decompose_check": "checks",
}
STAGE_NAMES = ("d_saturate", "b_probe", "extract_lgs", "mu", "nonsingularity", "checks")
SATURATION_SPANS = ("saturation.d_saturate", "saturation.d_saturate_log",
                    "saturation.b_saturate_probe")


class Tracer:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = []      # [name, start, end, parent index or -1, measure]
        self.counters = {}   # name -> [calls, seconds]
        self._stack = []
        self._undo = []

    # recording -------------------------------------------------------------

    def bind(self, name, fn, measure=None):
        """fn wrapped so that each call records a span; measure(args, out)
        fills the span's measure field."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    rec[MEASURE] = measure(args, out)
                return out
            finally:
                stack.pop()
                rec[END] = clock()
        return traced

    def count(self, name, fn):
        """fn wrapped so that calls are only counted and timed in total."""
        cell = self.counters.setdefault(name, [0, 0.0])
        clock = self.clock

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - t0
        return counted

    # patching --------------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def everywhere(self, module, attr, wrap):
        """Replace module.attr by wrap(original) in every idfilt module binding it."""
        original = getattr(sys.modules[module], attr)
        wrapped = wrap(original)
        for modname, mod in list(sys.modules.items()):
            if modname == "idfilt" or modname.startswith("idfilt."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def method(self, cls, attr, wrap):
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def _rref_shape(args, out):
    mat, rank = args[0], len(out[1])
    if hasattr(mat, "shape"):
        rows, cols = mat.shape
        return [int(rows), int(cols), rank, int(args[1])]
    return [len(mat), len(mat[0]) if mat else 0, rank, None]


def _gens_out(args, out):
    return len((out[0] if isinstance(out, tuple) else out).gens)


def install(tracer: Tracer) -> None:
    """Put the benchmark's spans and counters around idfilt's layers."""
    import idfilt
    import idfilt.verify  # noqa: F401  (binds many of the names patched below)
    from idfilt import _linalg, pipeline
    from idfilt.filtration import FiltrationSpec
    from idfilt.gls import GradedSubspace
    from idfilt.poly import Poly

    def span(name, measure=None):
        return lambda fn: tracer.bind(name, fn, measure)

    def counter(name):
        return lambda fn: tracer.count(name, fn)

    E, M = tracer.everywhere, tracer.method
    original_rref_generic = _linalg.rref_generic
    E("idfilt._kernels", "rref_mod_p", span("kernels.rref_mod_p", _rref_shape))
    E("idfilt._kernels", "reduce_mod_p", span("kernels.reduce_mod_p"))
    E("idfilt._linalg", "rref_generic", span("linalg.rref_generic", _rref_shape))
    E("idfilt._linalg", "reduce_generic", span("linalg.reduce_generic"))
    # HSystem._coords_matrix imports rref_generic from _linalg at call time for
    # its d x d basis completion; count that apart from the gls engine's calls
    tracer._set(_linalg, "rref_generic",
                tracer.bind("invariants.coords_rref", original_rref_generic, _rref_shape))
    E("idfilt.gls", "ideal_image", span("gls.ideal_image"))
    M(GradedSubspace, "from_vectors", span("gls.from_vectors", lambda a, out: len(a[1])))
    M(GradedSubspace, "reduce_vec", span("gls.reduce_vec"))
    M(GradedSubspace, "sum_with", span("gls.sum_with"))
    M(GradedSubspace, "intersect", span("gls.intersect"))
    M(FiltrationSpec, "ideal_at_level", span("filtration.ideal_at_level"))
    M(FiltrationSpec, "_minimal_products",
      span("filtration.minimal_products", lambda a, out: len(out)))
    M(Poly, "shift", counter("poly.shift"))
    M(Poly, "mul_trunc", counter("poly.mul_trunc"))
    for fn in ("leading_algebra", "pure_part", "extract_lgs"):
        E("idfilt.leading", fn, span(f"leading.{fn}"))
    for fn in ("ord_H", "nonsingularity_check", "supporting3_check",
               "coefficient_decompose_check"):
        E("idfilt.invariants", fn, span(f"invariants.{fn}"))
    for fn in ("d_saturate", "d_saturate_log", "b_saturate_probe"):
        E("idfilt.saturation", fn, span(f"saturation.{fn}", _gens_out))
    for fn in ("radical_probe", "frobenius_probe"):
        E("idfilt.saturation", fn, counter(f"saturation.{fn}"))
    for fn in ("hasse_apply", "log_apply"):
        E("idfilt.diffop", fn, counter(f"diffop.{fn}"))
    E("idfilt.specfile", "parse_spec", span("specfile.parse_spec"))
    for attr, stage in STAGES.items():
        tracer._set(pipeline, attr, tracer.bind(f"pipeline.{stage}", getattr(pipeline, attr)))


# analysis ------------------------------------------------------------------

def span_stats(spans):
    """Per span name: calls, s (outermost spans of that name), self_s."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    stats = {}
    for i, rec in enumerate(spans):
        st = stats.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = rec[END] - rec[START]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        if not any(spans[j][NAME] == rec[NAME] for j in ancestors(spans, i)):
            st["s"] += dur
    return stats


def ancestors(spans, i):
    j = spans[i][PARENT]
    while j >= 0:
        yield j
        j = spans[j][PARENT]


def _root(spans, i):
    root = i
    for root in ancestors(spans, i):
        pass
    return root


def stage_calls(spans) -> int:
    """Stage executions: consecutive spans of one stage under one op count once."""
    n, prev = 0, None
    for i, rec in enumerate(spans):
        if rec[NAME].startswith("pipeline."):
            key = (rec[NAME], _root(spans, i))
            n += key != prev
            prev = key
    return n


def layer_metrics(spans, counters, suite_names):
    """Every per-layer metric of the traced pass, by name."""
    st = span_stats(spans)

    def get(name, key):
        return st.get(name, {}).get(key, 0)

    def children_of(parent_name, child_name):
        return [r for r in spans if r[NAME] == child_name and r[PARENT] >= 0
                and spans[r[PARENT]][NAME] == parent_name]

    out = {}
    for layer, fn in (("kernels", "rref_mod_p"), ("linalg", "rref_generic")):
        name = f"{layer}.{fn}"
        shapes = [r[MEASURE] for r in spans if r[NAME] == name]
        rows = sum(s[0] for s in shapes)
        out[f"{name}.calls"] = len(shapes)
        out[f"{name}.s"] = get(name, "s")
        out[f"{name}.cells"] = sum(s[0] * s[1] for s in shapes)
        out[f"{name}.rank_ratio"] = sum(s[2] for s in shapes) / rows if rows else 0.0
    for name in ("kernels.reduce_mod_p", "linalg.reduce_generic"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "s")
    out["invariants.coords_rref.calls"] = get("invariants.coords_rref", "calls")
    level = "filtration.ideal_at_level"
    out[f"{level}.calls"] = get(level, "calls")
    out[f"{level}.self_s"] = get(level, "self_s")
    misses = len(children_of(level, "gls.ideal_image"))
    out[f"{level}.miss_ratio"] = misses / out[f"{level}.calls"] if out[f"{level}.calls"] else 0.0
    out["filtration.products"] = sum(r[MEASURE] for r in spans
                                     if r[NAME] == "filtration.minimal_products")
    out["gls.ideal_image.self_s"] = get("gls.ideal_image", "self_s")
    out["gls.ideal_image.rows"] = sum(r[MEASURE] for r in
                                      children_of("gls.ideal_image", "gls.from_vectors"))
    for fn in ("from_vectors", "reduce_vec", "sum_with", "intersect"):
        out[f"gls.{fn}.calls"] = get(f"gls.{fn}", "calls")
        out[f"gls.{fn}.self_s"] = get(f"gls.{fn}", "self_s")
    for fn in ("shift", "mul_trunc"):
        calls, seconds = counters.get(f"poly.{fn}", (0, 0.0))
        out[f"poly.{fn}.calls"] = calls
        out[f"poly.{fn}.s"] = seconds
    for stage in STAGE_NAMES:
        out[f"pipeline.{stage}.s"] = get(f"pipeline.{stage}", "s")
    out["pipeline.stage_calls"] = stage_calls(spans)
    out["leading.leading_algebra.s"] = get("leading.leading_algebra", "s")
    out["leading.pure_part.calls"] = get("leading.pure_part", "calls")
    out["leading.pure_part.self_s"] = get("leading.pure_part", "self_s")
    out["leading.extract_lgs.self_s"] = get("leading.extract_lgs", "self_s")
    out["invariants.ord_H.calls"] = get("invariants.ord_H", "calls")
    out["invariants.ord_H.self_s"] = get("invariants.ord_H", "self_s")
    for fn in ("nonsingularity_check", "supporting3_check", "coefficient_decompose_check"):
        out[f"invariants.{fn}.self_s"] = get(f"invariants.{fn}", "self_s")
    for fn in ("radical_probe", "frobenius_probe"):
        out[f"saturation.{fn}.calls"] = counters.get(f"saturation.{fn}", (0, 0.0))[0]
    out["saturation.gens_out"] = sum(
        r[MEASURE] for i, r in enumerate(spans) if r[NAME] in SATURATION_SPANS
        and not any(spans[j][NAME] in SATURATION_SPANS for j in ancestors(spans, i)))
    for fn in ("hasse_apply", "log_apply"):
        calls, seconds = counters.get(f"diffop.{fn}", (0, 0.0))
        out[f"diffop.{fn}.calls"] = calls
        out[f"diffop.{fn}.s"] = seconds
    for suite in suite_names:
        out[f"verify.{suite}.s"] = get(f"verify:{suite}", "s")
    out["specfile.parse_spec.s"] = get("specfile.parse_spec", "s")
    return out

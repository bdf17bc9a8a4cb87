"""The analysis pipeline behind the command line.

analyze() runs saturation, leading-algebra extraction and the invariants on
one parsed spec and returns a plain dict; the saturate, sigma and mu
reports compute only the shared sections they slice, never the
nonsingularity and checks sections.  Rendering (JSON or text) happens in
the CLI.  Identical input and options give an identical dict, and the
JSON dump sorts keys, so reports are byte-reproducible.
"""

from __future__ import annotations

from .filtration import FiltrationSpec
from .invariants import (HSystem, coefficient_decompose_check,
                         coefficient_default_mu, mu_tilde,
                         nonsingularity_check, ord_H, supporting3_check)
from .leading import default_emax, extract_lgs
from .poly import poly_str
from .saturation import (RadicalProbeBounds, b_saturate_probe, d_saturate,
                         d_saturate_log)
from .specfile import SpecFile


def _gens_json(F: FiltrationSpec, names):
    return [{"poly": poly_str(f, names), "level": str(a)} for f, a in F.gens]


def _shared_sections(spec: SpecFile):
    """The sections every report reads: input, saturation, leading, mu and
    precision (whose flags need sigma and mu-tilde).

    Returns (sections, Fb, H, mt, bounds); analyze() builds its remaining
    sections from the last four.
    """
    ctx = spec.context()
    names = spec.names
    opts = spec.options
    bounds = RadicalProbeBounds(opts.radical_n_max, opts.radical_grid)

    F0 = FiltrationSpec(ctx, spec.gens)
    Fd = d_saturate_log(F0) if ctx.boundary else d_saturate(F0)
    Fb, added = b_saturate_probe(F0, bounds, opts.candidates, sat=Fd)

    emax = opts.emax if opts.emax is not None else default_emax(ctx)
    emax = min(emax, default_emax(ctx))  # beyond log_p D nothing is visible
    lgs, sig, _ = extract_lgs(Fb, emax)
    H = HSystem(ctx, lgs)

    mu_p = F0.mu_P()
    mt = mu_tilde(Fb, H)
    ord_table = [{"poly": poly_str(f, names), "level": str(a),
                  "ord_h": ord_H(f, H).to_json()} for f, a in Fb.gens]

    precision_flags = []
    if mu_p.kind == "at_least":
        precision_flags.append("mu_p is a lower bound at precision D")
    if mt.is_infinite and mt.at_precision:
        precision_flags.append("mu_tilde is infinite at precision D")
    if not sig.stabilized:
        precision_flags.append("sigma not stabilized within the computed range")

    sections = {
        "input": {
            "field": ctx.field.spec_str(),
            "vars": list(names),
            "truncation": ctx.D,
            "boundary": list(spec.boundary),
            "gens": _gens_json(F0, names),
            "options": opts.to_json(names),
        },
        "saturation": {
            "d": _gens_json(Fd, names),
            "b_probe": {
                "gens": _gens_json(Fb, names),
                "added": [{"poly": poly_str(g, names), "level": str(a),
                           "witness_n": n} for g, a, n in added],
                "bounds": {"n_max": bounds.n_max, "grid": bounds.grid},
            },
        },
        "leading": {
            "pure_dims": [ctx.nvars - v for v in sig.values],
            "sigma": sig.trimmed(),
            "sigma_full": list(sig.values),
            "stabilized": sig.stabilized,
            "lgs": H.to_json(),
        },
        "mu": {
            "mu_p": mu_p.to_json(),
            "in_support": F0.in_support(),
            "mu_tilde": mt.to_json(),
            "ord_h_table": ord_table,
        },
        "precision": {"D": ctx.D, "flags": precision_flags},
    }
    return sections, Fb, H, mt, bounds


def analyze(spec: SpecFile) -> dict:
    report, Fb, H, mt, bounds = _shared_sections(spec)
    ctx = Fb.ctx

    if mt.is_infinite:
        nonsing = nonsingularity_check(Fb, H, probe_saturated=True)
        nonsing["applicable"] = True
    else:
        nonsing = {"applicable": False,
                   "reason": "mu_H is finite; theorem hypotheses not met"}

    checks = {}
    if H.entries:
        r = min(H.level(-1) + 1, ctx.D)
        checks["supporting3"] = {"r": r, "ok": supporting3_check(H, r)}
        try:
            mu = coefficient_default_mu(Fb, H, bounds.grid)
            checks["coefficient_level_1"] = {
                "mu": str(mu), "ok": coefficient_decompose_check(Fb, H, 1, mu)}
        except ValueError as exc:
            checks["coefficient_level_1"] = {"skipped": str(exc)}

    report["nonsingularity"] = nonsing
    report["checks"] = checks
    return report


def saturate_report(spec: SpecFile) -> dict:
    shared = _shared_sections(spec)[0]
    return {k: shared[k] for k in ("input", "saturation", "precision")}


def sigma_report(spec: SpecFile) -> dict:
    shared = _shared_sections(spec)[0]
    return {k: shared[k] for k in ("input", "leading", "precision")}


def mu_report(spec: SpecFile) -> dict:
    shared = _shared_sections(spec)[0]
    return {"input": shared["input"], "mu": shared["mu"],
            "leading": {"lgs": shared["leading"]["lgs"]},
            "precision": shared["precision"]}

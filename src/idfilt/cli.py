"""Command line front end.

Subcommands: analyze, saturate, sigma, mu (all take a spec file), and
verify (runs the invariant corpus).  JSON with sorted keys is the single
machine-readable output; the default text rendering is a view of the same
structure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import analyze, mu_report, saturate_report, sigma_report
from .specfile import SpecError, apply_overrides, parse_spec


def _load_spec(args):
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"cannot read spec file: {exc}")
    try:
        spec = parse_spec(text)
        apply_overrides(spec, {"truncation": args.trunc, "emax": args.emax,
                               "radical_n_max": args.radical_n_max,
                               "radical_grid": args.radical_grid})
    except SpecError as exc:
        raise SystemExit(f"spec error: {exc}")
    if args.candidates is not None:
        try:
            with open(args.candidates, "r", encoding="utf-8") as fh:
                lines = fh.read()
        except OSError as exc:
            raise SystemExit(f"cannot read candidates file: {exc}")
        body = "\n".join(f"candidate: {ln}" for ln in lines.splitlines()
                         if ln.split("#", 1)[0].strip())
        stub = (f"field: {spec.field.spec_str()}\n"
                f"vars: {', '.join(spec.names)}\n"
                f"truncation: {spec.D}\n" + body)
        try:
            spec.options.candidates.extend(parse_spec(stub).options.candidates)
        except SpecError as exc:
            raise SystemExit(f"candidates error: {exc}")
    return spec


def _render_text(node, indent=0, out=None):
    pad = "  " * indent
    if isinstance(node, dict):
        for key in sorted(node):
            val = node[key]
            if isinstance(val, (dict, list)) and val:
                print(f"{pad}{key}:", file=out)
                _render_text(val, indent + 1, out)
            else:
                print(f"{pad}{key}: {_scalar(val)}", file=out)
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                print(f"{pad}-", file=out)
                _render_text(item, indent + 1, out)
            else:
                print(f"{pad}- {_scalar(item)}", file=out)
    else:
        print(f"{pad}{_scalar(node)}", file=out)


def _scalar(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (dict, list)) and not v:
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _render_text(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idfilt",
        description="Exact idealistic-filtration calculus at a point: "
                    "saturations, leading generator systems, sigma and mu-tilde.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_command(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("spec", help="filtration spec file")
        p.add_argument("--json", action="store_true", help="emit sorted-key JSON")
        p.add_argument("--trunc", type=int, default=None,
                       help="override the truncation degree")
        p.add_argument("--emax", type=int, default=None,
                       help="highest Frobenius level to inspect")
        p.add_argument("--radical-n-max", type=int, default=None,
                       help="max root exponent for the radical probe")
        p.add_argument("--radical-grid", type=int, default=None,
                       help="denominator of the grid step that puts the coefficient "
                            "check's default mu below mu_H")
        p.add_argument("--candidates", default=None,
                       help="file of extra probe candidates, '<poly> @ <level>' lines")
        return p

    add_spec_command("analyze", "full pipeline: saturate, leading data, invariants")
    add_spec_command("saturate", "emit the saturation generator lists")
    add_spec_command("sigma", "emit the sigma sequence and the generator system")
    add_spec_command("mu", "emit mu at the origin and mu-tilde")

    pv = sub.add_parser("verify", help="run the whole invariant corpus")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "verify":
        from .verify import run_all
        results, ok = run_all(seed=args.seed,
                              out=None if args.json else sys.stdout)
        if args.json:
            payload = {
                "seed": args.seed,
                "ok": ok,
                "suites": [{"name": r.name, "law": r.law,
                            "instances": r.instances,
                            "passed": r.passed,
                            "failures": r.failures[:5]} for r in results],
            }
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            n = sum(r.instances for r in results)
            print(f"{len(results)} suites, {n} instances, "
                  + ("all passed" if ok else "FAILURES PRESENT"))
        return 0 if ok else 1

    spec = _load_spec(args)
    builder = {"analyze": analyze, "saturate": saturate_report,
               "sigma": sigma_report, "mu": mu_report}[args.command]
    _emit(builder(spec), args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())

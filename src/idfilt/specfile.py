"""Filtration spec files: the text format consumed by the command line.

Line-oriented, # comments, one directive per line:

    field: GF(2) | GF(p^m) | QQ
    vars: x, y, z
    truncation: 10
    boundary: x, y          (optional)
    gen: x^2 + y^3 @ 2      (repeatable; level is a rational)
    candidate: y @ 1        (optional; extra probe candidates)
    radical_n_max: 8        (optional probe bound)
    radical_grid: 64        (optional; default-mu grid step)
    emax: 3                 (optional)

Variable names are distinct identifiers ([A-Za-z_][A-Za-z_0-9]*, the names
the polynomial grammar reads), and boundary names distinct declared ones.
Parsing reports the first error with its line number and a stable code.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from math import comb

from .fields import Field, FieldError, field_from_spec
from .poly import IDENTIFIER, PolyParseError, TruncationContext, parse_poly, poly_str

MAX_VARS = 6
MAX_TRUNC = 16
# largest admissible level-0 ideal I_0 = R: its basis is an N x N matrix
# over the N = C(D+d, d) monomials of degree <= D, counted at 8 bytes a cell
MAX_LEVEL0_BYTES = 1 << 30
# least admissible value of each integer option directive
_OPTION_MIN = {"radical_n_max": 1, "radical_grid": 1, "emax": 0}


class SpecError(ValueError):
    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"line {line}: [{code}] {message}")
        self.code = code
        self.line = line


@dataclass
class SpecOptions:
    radical_n_max: int = 8
    radical_grid: int = 64
    emax: int | None = None
    candidates: list = dfield(default_factory=list)  # (Poly, Fraction)

    def to_json(self, names=None):
        return {
            "radical_n_max": self.radical_n_max,
            "radical_grid": self.radical_grid,
            "emax": self.emax,
            "candidates": [{"poly": poly_str(f, names), "level": str(a)}
                           for f, a in self.candidates],
        }


@dataclass
class SpecFile:
    field: Field
    names: list
    D: int
    boundary: list
    gens: list  # (Poly, Fraction)
    options: SpecOptions = dfield(default_factory=SpecOptions)

    def context(self) -> TruncationContext:
        idx = frozenset(self.names.index(b) for b in self.boundary)
        return TruncationContext(self.field, len(self.names), self.D, idx)


def _parse_level(text: str):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def parse_spec(text: str) -> SpecFile:
    field = None
    names = None
    D = None
    boundary = []
    gen_lines = []          # (lineno, poly text, level text)
    candidate_lines = []
    options = SpecOptions()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError("E_PARSE", lineno, f"expected 'key: value', got {line!r}")
        key, val = (s.strip() for s in line.split(":", 1))
        if key == "field":
            try:
                field = field_from_spec(val)
            except FieldError as exc:
                raise SpecError("E_FIELD", lineno, str(exc))
        elif key == "vars":
            names = [v.strip() for v in val.split(",") if v.strip()]
            if not names or len(set(names)) != len(names):
                raise SpecError("E_VAR", lineno, "need distinct variable names")
            for v in names:
                if not IDENTIFIER.fullmatch(v):
                    raise SpecError("E_VAR", lineno, f"variable name {v!r} is not an identifier")
            if len(names) > MAX_VARS:
                raise SpecError("E_VAR", lineno,
                                f"at most {MAX_VARS} variables are supported")
        elif key == "truncation":
            try:
                D = int(val)
            except ValueError:
                raise SpecError("E_TRUNC", lineno, f"bad truncation degree {val!r}")
        elif key == "boundary":
            boundary = [v.strip() for v in val.split(",") if v.strip()]
            if len(set(boundary)) != len(boundary):
                raise SpecError("E_VAR", lineno, "boundary variables repeat")
        elif key in ("gen", "candidate"):
            if "@" not in val:
                raise SpecError("E_GEN", lineno, "expected '<poly> @ <level>'")
            ptext, ltext = val.rsplit("@", 1)
            (gen_lines if key == "gen" else candidate_lines).append(
                (lineno, ptext.strip(), ltext.strip()))
        elif key in _OPTION_MIN:
            setattr(options, key, _option(key, val, lineno))
        else:
            raise SpecError("E_PARSE", lineno, f"unknown directive {key!r}")

    if field is None:
        raise SpecError("E_FIELD", 0, "missing 'field:' directive")
    if names is None:
        raise SpecError("E_VAR", 0, "missing 'vars:' directive")
    if D is None:
        raise SpecError("E_TRUNC", 0, "missing 'truncation:' directive")
    _check_trunc(D, len(names))
    for b in boundary:
        if b not in names:
            raise SpecError("E_VAR", 0, f"boundary variable {b!r} not declared")

    def build(lines):
        out = []
        for lineno, ptext, ltext in lines:
            level = _parse_level(ltext)
            if level is None:
                raise SpecError("E_LEVEL", lineno, f"bad rational level {ltext!r}")
            try:
                f = parse_poly(ptext, names, field)
            except PolyParseError as exc:
                raise SpecError("E_POLY", lineno, str(exc))
            out.append((f, level))
        return out

    gens = build(gen_lines)
    options.candidates = build(candidate_lines)
    return SpecFile(field, names, D, boundary, gens, options)


def _check_trunc(D, nvars):
    """D, if it lies in 1..MAX_TRUNC and the level-0 ideal of the ring fits
    in MAX_LEVEL0_BYTES; checked before anything is allocated."""
    if not 1 <= D <= MAX_TRUNC:
        raise SpecError("E_TRUNC", 0,
                        f"truncation degree {D} outside supported envelope "
                        f"1..{MAX_TRUNC}")
    N = comb(D + nvars, nvars)
    if 8 * N * N > MAX_LEVEL0_BYTES:
        raise SpecError("E_TRUNC", 0,
                        f"{nvars} variables at truncation {D} span N = {N} "
                        f"monomials; the level-0 ideal, an N x N int64 matrix "
                        f"of {8 * N * N} bytes, exceeds the {MAX_LEVEL0_BYTES} "
                        f"byte limit")
    return D


def _option(key, val, lineno):
    try:
        n = int(val)
    except ValueError:
        raise SpecError("E_OPTION", lineno, f"bad integer for {key}: {val!r}")
    if n < _OPTION_MIN[key]:
        raise SpecError("E_OPTION", lineno, f"{key} must be at least {_OPTION_MIN[key]}")
    return n


def apply_overrides(spec: SpecFile, overrides) -> None:
    """Set the directives in the mapping overrides (truncation or an option
    name; None leaves the value) on spec, by the rules the parser applies to
    the file's own directives.  Errors report line 0."""
    for key, val in overrides.items():
        if val is None:
            continue
        if key == "truncation":
            spec.D = _check_trunc(val, len(spec.names))
        else:
            setattr(spec.options, key, _option(key, val, 0))


def print_spec(spec: SpecFile) -> str:
    """Canonical text for a spec; parse_spec(print_spec(s)) == s."""
    lines = [
        f"field: {spec.field.spec_str()}",
        f"vars: {', '.join(spec.names)}",
        f"truncation: {spec.D}",
    ]
    if spec.boundary:
        lines.append(f"boundary: {', '.join(spec.boundary)}")
    for f, a in spec.gens:
        lines.append(f"gen: {poly_str(f, spec.names)} @ {a}")
    for f, a in spec.options.candidates:
        lines.append(f"candidate: {poly_str(f, spec.names)} @ {a}")
    opts = spec.options
    if opts.radical_n_max != 8:
        lines.append(f"radical_n_max: {opts.radical_n_max}")
    if opts.radical_grid != 64:
        lines.append(f"radical_grid: {opts.radical_grid}")
    if opts.emax is not None:
        lines.append(f"emax: {opts.emax}")
    return "\n".join(lines) + "\n"

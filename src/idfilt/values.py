"""Saturating order / multiplicity values.

Quantities measured in the truncated ring R/m^(D+1) come in three flavours:
an exact value, a lower bound that hit the precision ceiling ("at least q,
at precision D"), and infinity.  Infinity additionally records whether it
was established only at the working precision (e.g. membership in an ideal
image, exact in the quotient but a ">= D+1" statement about R) or is
vacuously exact (empty infimum, the zero polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SatValue:
    kind: str  # "exact" | "at_least" | "infinity"
    q: Fraction | None = None
    at_precision: bool = False

    @staticmethod
    def exact(q) -> "SatValue":
        return SatValue("exact", Fraction(q))

    @staticmethod
    def at_least(q) -> "SatValue":
        return SatValue("at_least", Fraction(q), True)

    @staticmethod
    def infinity(at_precision: bool = False) -> "SatValue":
        return SatValue("infinity", None, at_precision)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinity"

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def over(self, a) -> "SatValue":
        """Divide by a positive rational level."""
        a = Fraction(a)
        if a <= 0:
            raise ValueError("level must be positive")
        if self.kind == "infinity":
            return self
        return SatValue(self.kind, self.q / a, self.at_precision)

    def ge(self, bound) -> bool:
        """Certified >= bound (true for at_least values whose floor passes)."""
        if self.kind == "infinity":
            return True
        return self.q >= Fraction(bound)

    def lt_certain(self, bound) -> bool:
        """Certified < bound; only exact values can certify this."""
        return self.kind == "exact" and self.q < Fraction(bound)

    def to_json(self):
        if self.kind == "infinity":
            return "infinity"
        q = self.q
        val = int(q) if q.denominator == 1 else str(q)
        if self.kind == "exact":
            return {"value": val}
        return {"at_least": val}

    def __str__(self):
        if self.kind == "infinity":
            return "infinity" + (" (at precision)" if self.at_precision else "")
        if self.kind == "exact":
            return str(self.q)
        return f">= {self.q} (at precision)"


def sat_min(values) -> SatValue:
    """Minimum under the saturating semantics; empty input gives exact infinity.

    Exact values compare by value.  An at_least bound below every exact value
    keeps the result a lower bound; infinities only win when nothing finite
    is present (they then keep an at_precision flag if any carried one).
    """
    values = list(values)
    finite = [v for v in values if v.kind != "infinity"]
    if not finite:
        at_prec = any(v.at_precision for v in values)
        return SatValue.infinity(at_precision=at_prec)
    best = min(v.q for v in finite)
    exact = [v for v in finite if v.kind == "exact"]
    if exact:
        best_exact = min(v.q for v in exact)
        if best_exact <= best:
            return SatValue.exact(best_exact)
    return SatValue.at_least(best)

"""Exact calculus of idealistic filtrations at a point.

Everything is computed in the Artinian quotient R/m^(D+1) over F_p, F_{p^m}
or Q: divided-power differential operators, differential and (probe-level)
radical saturation, leading algebras and generator systems, and the sigma
and mu-tilde invariants, all with exact arithmetic.
"""

from .fields import (ExtensionField, Field, FieldError, PrimeField,
                     RationalField, binom_mod_p, binom_multi, field_from_spec)
from .poly import Poly, TruncationContext, parse_poly, poly_str
from .values import SatValue
from .diffop import (DiffOp, hasse_apply, ideal_order, is_pe_power_generated,
                     log_apply, product_rule_check)
from .gls import GradedSubspace, ideal_image, power_m
from .filtration import FiltrationSpec, is_integral_witness
from .saturation import (ProbeVerdict, RadicalProbeBounds, b_saturate_probe,
                         d_saturate, d_saturate_log, frobenius_probe,
                         radical_probe, theta_monomial)
from .leading import (LGS, LeadingAlgebra, SigmaSeq, extract_lgs,
                      leading_algebra, pure_part, sigma)
from .invariants import (HSystem, build_Du, build_Fv,
                         coefficient_decompose_check, mu_tilde,
                         nonsingularity_check, ord_H, supporting1_check,
                         supporting2_check, supporting3_check)
from .specfile import SpecFile, SpecError, parse_spec, print_spec
from .pipeline import analyze

__version__ = "0.1.0"

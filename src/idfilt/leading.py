"""Leading algebra, pure parts, leading generator systems and sigma.

The leading algebra collects, degree by degree, the initial forms of
filtration elements whose level matches their order.  For a differentially
saturated filtration it is generated by its pure part: initial forms that
are p^e-th powers of linear forms.  A leading generator system picks
filtration elements realizing compatible bases of all pure parts; in
characteristic zero it reduces to a basis of the degree-one part (the
classical maximal-contact data), while in characteristic p the degree-one
part may vanish and higher Frobenius levels take over.

Root coordinates make everything plain linear algebra in F^d: taking p^e-th
roots identifies the pure part at level e with a subspace U_e of the span
of the variables, and a root is its d-vector of coefficients.  The chain
U_0 <= U_1 <= ... is then read by one elimination of d-column rows per
level: it grows the chosen roots to a basis of U_e in greedy order, and its
rank shows whether the earlier roots stay inside U_e.  Each new initial
form w is lifted to the element w - (residue of w) of the level ideal; its
canonical basis is reduced, so that difference is the unique combination
of its rows with initial form w.

The leading algebra is not stored: LeadingAlgebra reads each graded piece
from the filtration's cached level ideal when asked, and the extraction
asks only for the pure degrees 1, p, p^2, ....  The piece L_q depends only
on I_q modulo m^(q+1): graded-lex columns of degree <= q are a prefix of
all columns, so the echelon rows of I_q with pivots in that prefix, cut to
it, are the canonical basis of its image in R/m^(q+1).  Once a root is
chosen, a level may add none, so the extraction reads it from the
filtration truncated at q and builds I_q over R/m^(D+1) only to lift a
new root.  No level ideal outside the pure degrees is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldError
from .filtration import FiltrationSpec
from .gls import GradedSubspace, greedy_independent, monomial_basis
from .poly import Poly, TruncationContext


class LeadingAlgebra:
    """The graded pieces L_n = in(I_n) in G_n, read from the level ideals.

    A view, not a copy: piece(n) slices the cached canonical echelon basis
    of I_n, so only the degrees a caller reads are ever computed.
    """

    __slots__ = ("F",)

    def __init__(self, F: FiltrationSpec):
        self.F = F

    @property
    def ctx(self) -> TruncationContext:
        return self.F.ctx

    def piece(self, n: int) -> GradedSubspace:
        """Canonical basis of L_n, a subspace of the degree-n columns."""
        return self.F.ideal_at_level(n).graded_slice(n)


def leading_algebra(F: FiltrationSpec) -> LeadingAlgebra:
    """L_n = initial forms of level-n elements of order n, for n <= D.

    The structure theory applies to a differentially saturated input; this
    is not enforced.
    """
    return LeadingAlgebra(F)


def linear_coefficients(v: Poly):
    """The d-vector of coefficients of the linear form v."""
    row = [v.field.zero()] * v.nvars
    for exps, c in v.terms.items():
        row[exps.index(1)] = c
    return row


def pure_part(L: LeadingAlgebra, e: int):
    """Pure part of L at Frobenius level e, with p^e-th roots of its basis.

    The pure part is the intersection of L_{p^e} with the span of the pure
    power monomials x_i^(p^e); over a finite field that span is exactly the
    Frobenius image of G_1, so the computation is exact.  Returns
    (homogeneous basis, linear-form roots).
    """
    ctx = L.ctx
    p = ctx.field.char
    if e == 0:
        basis = L.piece(1).basis_polys()
        return basis, list(basis)
    if p == 0:
        raise FieldError("characteristic 0 has pure parts only in degree 1")
    q = p ** e
    if q > ctx.D:
        raise ValueError("p^e exceeds the truncation degree")
    _, index, _ = monomial_basis(ctx.nvars, ctx.D)
    pure = [index[tuple(q if j == i else 0 for j in range(ctx.nvars))]
            for i in range(ctx.nvars)]
    basis = L.piece(q).coordinate_section(pure).basis_polys()
    return basis, [w.pe_power_root(e) for w in basis]


def default_emax(ctx: TruncationContext) -> int:
    """Largest e with p^e <= D; pure parts beyond are invisible at truncation."""
    p, e = ctx.field.char, 0
    while p and p ** (e + 1) <= ctx.D:
        e += 1
    return e


@dataclass(frozen=True)
class LGS:
    """Leading generator system: (element, Frobenius level) pairs.

    Each element lies in m^(p^e) with pure initial form, and the Frobenius
    lifts of the initial forms give a basis of every pure part.
    """

    entries: tuple  # ((Poly, int e), ...) ordered by nondecreasing e

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class SigmaSeq:
    """The invariant sigma: e maps to d minus the pure-part dimension."""

    values: tuple
    stabilized: bool

    def trimmed(self):
        """Drop trailing repeats past the first stable pair; the tail is
        constant once the pure-part chain stabilizes."""
        vals = list(self.values)
        if not self.stabilized:
            return vals
        last_change = 0
        for i in range(1, len(vals)):
            if vals[i] != vals[i - 1]:
                last_change = i
        return vals[: last_change + 2]


def extract_lgs(F: FiltrationSpec, E_max: int | None = None):
    """Deterministic leading generator system of a saturated filtration.

    Walks the pure parts by increasing Frobenius level; whenever the root
    space grows, the previously chosen roots are extended to a basis by
    greedy pivoting on coefficient vectors, and each new initial form is
    lifted to a filtration element of the level ideal.  Until the first
    root, a pure part is read from F's level ideal I_q, which a nonzero
    pure part then needs for its lift anyway; after it, from
    F.truncated(q), which is F at q = D, so I_q is built over R/m^(D+1)
    only for a level that adds a root.  Returns (LGS, SigmaSeq,
    LeadingAlgebra of F).
    """
    ctx = F.ctx
    p = ctx.field.char
    if E_max is None:
        E_max = default_emax(ctx)
    if p > 0 and p ** E_max > ctx.D:
        raise ValueError("p^E_max exceeds the truncation degree")
    L = leading_algebra(F)

    chosen = []  # coefficient vectors of the chosen roots, independent
    entries = []
    prev_dim = None
    stabilized = False
    sigma_vals = []
    for e in range(E_max + 1):
        q = p ** e
        Lq = leading_algebra(F.truncated(q)) if chosen else L
        basis, roots = pure_part(Lq, e)
        rows = [linear_coefficients(v) for v in roots]
        sigma_vals.append(ctx.nvars - len(rows))
        # the chosen roots are independent, so they are the first pivots
        k = len(chosen)
        new = greedy_independent(ctx.field, chosen + rows)[k:]
        # chain inclusion: earlier roots must still be roots at this level,
        # i.e. they add nothing to the span of the (independent) rows
        chain_ok = k + len(new) == len(rows)
        for i in new:
            chosen.append(rows[i - k])
            entries.append((_lift_initial_form(F, basis[i - k]), e))
        # stabilized means chain equality at the last two computed levels
        stabilized = (prev_dim is not None and chain_ok and not new
                      and len(rows) == prev_dim)
        prev_dim = len(rows)
    lgs = LGS(tuple(entries))
    sig = SigmaSeq(tuple(sigma_vals), stabilized)
    return lgs, sig, L


def _lift_initial_form(F: FiltrationSpec, w: Poly) -> Poly:
    """The element of the level ideal I_q with initial form w, a pure-part
    basis element of degree q: w minus its residue, which over the reduced
    basis is the combination of the rows whose pivots w meets, at w's
    coefficients."""
    q = w.degree()
    h = w - F.ideal_at_level(q).reduce_poly(w)
    if h.graded_component(q) != w:
        raise RuntimeError("initial form is not realized by the level ideal")
    return h


def sigma(F: FiltrationSpec, E_max: int | None = None) -> SigmaSeq:
    """The invariant sigma(e) = d - dim of the pure part at level e.

    In characteristic zero the sequence is the single value d - dim L_1.
    """
    _, sig, _ = extract_lgs(F, E_max)
    return sig

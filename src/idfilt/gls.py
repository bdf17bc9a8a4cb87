"""Exact linear algebra on subspaces of the truncated ring R/m^(D+1).

A subspace is stored as one reduced row echelon basis over ALL monomials of
degree <= D, with columns in graded-lex order (degree ascending, then
lexicographically descending exponents).  Inhomogeneous generators like
x^2+y^3 do not split into graded pieces, so the whole-space echelon form is
the primary representation and per-degree slices are derived views:

* rows whose pivot monomial has degree >= n span exactly S `intersect` m^n,
  because an echelon row is zero left of its pivot (meet_power_m(n) is that
  row slice: a subset of canonical RREF rows is canonical for its span);
* the degree-n components of the rows with pivot degree exactly n form a
  basis of the image of S `intersect` m^n in G_n = m^n/m^(n+1).

Pivot choice is always the leftmost (graded-lex smallest) column, so every
basis is the canonical RREF of its row space and outputs are deterministic.
An ideal of the truncated ring needs no type of its own: its image is the
subspace it spans, closed under multiplication by the variables, and the
canonical basis describes it completely.  The multipliers X^A with
low <= |A| <= k are one column range, so multiples(g, ctx, low) gives each
term c X^e of g as coordinates through the cached shift map of X^e (a
Coords: rows, columns, values), and ideal_image stacks those of a pruned
generating set and returns the GradedSubspace they span.  A generator
that is a monomial multiple c X^E q of a kept generator q adds no row
outside the span of the others, so it is dropped first.  The span, and so
the canonical basis, is the same; on saturated level ideals most minimal
generator products are such multiples (GF(3), d=3, D=12, level 3: 137
minimal products and 9,024 rows become 16 and 1,704).

Every basis, over every field, is one 2-D numpy array: int64 over a finite
field (residues in [0, p) over GF(p), the field's int codes in [0, q) over
GF(p^m)) and an object array over QQ, whose nonzero cells are Fractions and
whose zero cells are numpy's own int 0, so that a truth test of a zero cell
runs in C (a zero may also be Fraction(0); no code reads which type a zero
has).  Row selection, scattering and comparison are therefore one code
path, and a zero test is `not v.any()` in both formats; only the private
helpers _matrix, _rref and _reduce know the format and pick the kernel:
the numpy kernel (rref_mod_p / reduce_mod_p, with the field's lookup tables
over GF(p^m)) for every finite field, rref_generic / reduce_generic for QQ.
Over QQ, rref_generic eliminates modulo word-size primes in that same
numpy kernel and certifies the rational result exactly (see _linalg);
reduce_generic, exact object-array updates on the nonzero columns of each
basis row, only serves the residue of a single vector.
Containment of subspaces is one rank test, dim(S + T) == dim(S), on every
field, and a meet is one Zassenhaus elimination (intersect); a coordinate
section, the vectors supported on given columns, is the meet with their
unit vectors.  rref() offers the same engine for small matrices outside the
truncated ring.

Every stack reaches _rref as coordinates, none built dense: multiples,
polynomials (Coords.of_polys), and the bases a sum, a meet or a check
stacks (Coords.of_rows).  _rref first takes out the unit rows: the
multiples X^A g are mostly rows with one nonzero, whose columns U are then
pivot columns of the RREF with unit rows e_c.  Clearing U from the other
rows can leave new singletons, so this repeats; it is the singleton step of
structured Gaussian elimination (LaMacchia and Odlyzko, "Solving large
sparse linear systems over finite fields", CRYPTO 1990), structural pivots
found before any arithmetic.  Only the rows left nonzero, on the columns
outside U, are made dense for the kernel.  Those RREF rows vanish on U and
the rows e_c vanish on their pivots, so the two sets together, sorted by
pivot, are the canonical RREF of the whole matrix.  At GF(3), d=4, D=14 the
largest level-ideal stack, 10,165 x 3,060 with 11,881 nonzeros, leaves the
kernel 20 x 493.

Dense rows over at most N = C(D+d, d) columns; the supported envelope is
d <= 6, D <= 16, and the spec parser refuses a ring whose level-0 ideal,
an N x N matrix at 8 bytes a cell, would exceed 1 GiB.  Finished subspaces
are immutable and shareable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

from ._kernels import reduce_mod_p, rref_mod_p
from ._linalg import reduce_generic, rref_generic
from .poly import Poly, TruncationContext, grlex_key, mi_sub


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, D: int):
    """All exponent tuples of degree <= D in graded-lex column order."""
    mons = [()]
    for _ in range(nvars):
        mons = [m + (e,) for m in mons for e in range(D + 1 - sum(m))]
    mons.sort(key=grlex_key)
    index = {m: i for i, m in enumerate(mons)}
    degree_of = tuple(sum(m) for m in mons)
    return tuple(mons), index, degree_of


@lru_cache(maxsize=None)
def _shift_map(nvars: int, D: int, e):
    """Column of X^(A+e) for each column A with |A| + |e| <= D; those A are
    a prefix of the columns.  Read-only, since every caller shares it."""
    mons, index, degree_of = monomial_basis(nvars, D)
    k = bisect_right(degree_of, D - sum(e))
    out = np.fromiter((index[tuple(x + y for x, y in zip(A, e))] for A in mons[:k]),
                      dtype=np.intp, count=k)
    out.flags.writeable = False
    return out


# The helpers below are the only code that knows how a field's
# matrices are stored and which kernel eliminates them.  Everything else
# indexes, stacks and compares the 2-D arrays they return.


def _matrix(field, shape):
    """A zero matrix in the field's array format: int64 entries (residues in
    [0, p) for GF(p), codes in [0, q) for GF(p^m)) over a finite field, an
    object array over QQ whose zero cells are the int 0."""
    # int64 zeros come from calloc, so unwritten zero pages stay free; an
    # object array is written through, one reference to the int 0 a cell
    return np.zeros(shape, dtype=np.int64 if field.char else object)


class Coords:
    """A matrix as its nonzero entries: row indices, column indices, values
    in the field's format (no (row, col) pair twice) and its shape.  len()
    is its row count, as for a stack of vectors."""

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    def __len__(self):
        return self.shape[0]

    @staticmethod
    def stack(blocks):
        """A nonempty list of blocks one under the other."""
        offsets = np.cumsum([0] + [len(b) for b in blocks])
        return Coords(np.concatenate([b.rows + o for b, o in zip(blocks, offsets)]),
                      np.concatenate([b.cols for b in blocks]),
                      np.concatenate([b.vals for b in blocks]),
                      (int(offsets[-1]), blocks[0].shape[1]))

    @staticmethod
    def of_rows(mat):
        """The nonzero entries of a matrix in the field's format."""
        r, c = mat.nonzero()
        return Coords(r, c, mat[r, c], mat.shape)

    @staticmethod
    def of_polys(polys, ctx):
        """One row per polynomial, holding its terms of degree <= D."""
        mons, index, _ = monomial_basis(ctx.nvars, ctx.D)
        cells = [(i, index[e], c) for i, f in enumerate(polys)
                 for e, c in f.terms.items() if e in index]
        r, c, vals = zip(*cells) if cells else ((), (), ())
        return Coords(np.array(r, dtype=np.intp), np.array(c, dtype=np.intp),
                      np.array(vals, dtype=np.int64 if ctx.field.char else object),
                      (len(polys), len(mons)))


def _rref(field, stack):
    """(canonical RREF rows as a matrix, pivot columns as ints) of the rows
    of a Coords.

    The singleton presolve takes the unit rows out; the field's kernel
    eliminates only the rows it leaves nonzero, on the columns it has not
    taken, made dense, and the unit rows e_c of the taken columns c join its
    RREF rows at their sorted pivot positions."""
    taken, cnt, left = _singletons(stack.rows, stack.cols, stack.shape)
    units, free, live = taken.nonzero()[0], (~taken).nonzero()[0], cnt.nonzero()[0]
    r, c, vals = stack.rows[left], stack.cols[left], stack.vals[left]
    if field.char and field.tables is None:
        vals %= field.p  # Poly coefficients may lie outside [0, p)
    block = _matrix(field, (live.size, free.size))
    block[live.searchsorted(r), free.searchsorted(c)] = vals
    if not live.size:
        red, piv = block, []
    elif field.char:
        red, piv = rref_mod_p(block, field.p, field.tables)
    else:
        red, piv = rref_generic(list(block))
    piv = free[piv]
    pivots = np.sort(np.concatenate([units, piv]))
    out = _matrix(field, (len(pivots), stack.shape[1]))
    out[pivots.searchsorted(units), units] = field.one()
    out[pivots.searchsorted(piv)[:, None], free] = red
    return out, pivots.tolist()


def _singletons(r, c, shape):
    """(taken, cnt, left) for the nonzero entries at rows r, columns c: the
    columns taken as unit pivots, each row's count of nonzeros outside them,
    and the indices of the entries outside them.  A round takes the columns
    of the rows counted 1, drops the entries in those columns and subtracts
    their bincount; clearing them can leave new singletons for the next."""
    cnt = np.bincount(r, minlength=shape[0])
    taken = np.zeros(shape[1], dtype=bool)
    left = np.arange(len(r))
    while True:
        cols = c[cnt[r] == 1]
        if not cols.size:
            return taken, cnt, left
        taken[cols] = True
        hit = taken[c]
        cnt -= np.bincount(r[hit], minlength=shape[0])
        stay = ~hit
        r, c, left = r[stay], c[stay], left[stay]


def _reduce(field, rows, pivots, v):
    """Residue of the vector v modulo the row space of an RREF basis."""
    if field.char:
        return reduce_mod_p(rows, np.asarray(pivots, dtype=np.int64), v, field.p,
                            field.tables)
    return reduce_generic(rows, pivots, v)


def rref(field, rows):
    """Reduced row echelon form of a list of rows of field scalars.

    Returns (rows, pivots): the nonzero RREF rows as lists of the field's
    scalars (Python ints over GF(p)) and their pivot columns.
    """
    if not rows:
        return [], []
    mat = np.array(rows, dtype=np.int64 if field.char else object)
    if field.char and field.tables is None:
        mat %= field.p  # else an entry p alone in its row would be a unit pivot
    red, piv = _rref(field, Coords.of_rows(mat))
    zero = field.zero()
    return [[x if x else zero for x in row] for row in red.tolist()], piv


def greedy_independent(field, vecs):
    """Indices of the vectors that the greedy order keeps, each independent
    of those kept before it: the pivot columns of one elimination of the
    matrix whose columns are the vectors."""
    return rref(field, list(zip(*vecs)))[1]


def poly_to_vec(f: Poly, ctx: TruncationContext):
    mons, index, _ = monomial_basis(ctx.nvars, ctx.D)
    v = _matrix(ctx.field, len(mons))
    for e, c in f.terms.items():
        v[index[e]] = c
    return v


def vec_to_poly(v, ctx: TruncationContext) -> Poly:
    mons, _, _ = monomial_basis(ctx.nvars, ctx.D)
    nz = np.flatnonzero(v)
    return Poly(ctx.field, ctx.nvars, {mons[i]: c for i, c in zip(nz.tolist(), v[nz].tolist())})


class GradedSubspace:
    """Canonical echelon basis of a subspace of the truncated ring."""

    __slots__ = ("ctx", "rows", "pivots")

    def __init__(self, ctx: TruncationContext, rows, pivots):
        self.ctx = ctx
        self.rows = rows
        self.pivots = tuple(pivots)

    # construction -------------------------------------------------------

    @staticmethod
    def from_polys(ctx, polys) -> "GradedSubspace":
        return GradedSubspace.from_vectors(ctx, Coords.of_polys(polys, ctx))

    @staticmethod
    def from_vectors(ctx, stack) -> "GradedSubspace":
        """Echelon basis of the span of a Coords' rows (none: the zero space)."""
        return GradedSubspace(ctx, *_rref(ctx.field, stack))

    @staticmethod
    def zero(ctx) -> "GradedSubspace":
        return GradedSubspace.from_polys(ctx, [])

    # queries --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check_ctx(self, other: "GradedSubspace"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch between subspaces")

    def reduce_vec(self, v):
        return _reduce(self.ctx.field, self.rows, self.pivots, v)

    def contains_poly(self, f: Poly) -> bool:
        if f.degree() > self.ctx.D:
            raise ValueError("polynomial exceeds truncation degree")
        return not self.reduce_vec(poly_to_vec(f, self.ctx)).any()

    def reduce_poly(self, f: Poly) -> Poly:
        """Canonical residue of f modulo this subspace."""
        if f.degree() > self.ctx.D:
            raise ValueError("polynomial exceeds truncation degree")
        return vec_to_poly(self.reduce_vec(poly_to_vec(f, self.ctx)), self.ctx)

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        """One rank test: other lies in self iff their sum is no bigger."""
        return self.sum_with(other).dim == self.dim

    def equals(self, other: "GradedSubspace") -> bool:
        """Same canonical basis: the same pivots, then the same rows."""
        self._check_ctx(other)
        return self.pivots == other.pivots and bool(np.array_equal(self.rows, other.rows))

    def pivot_degrees(self):
        _, _, degree_of = monomial_basis(self.ctx.nvars, self.ctx.D)
        return [degree_of[c] for c in self.pivots]

    def meet_power_m(self, n: int) -> "GradedSubspace":
        """S `intersect` m^n: the rows whose pivot degree is >= n (a suffix,
        since pivots ascend), already in canonical form."""
        _, _, degree_of = monomial_basis(self.ctx.nvars, self.ctx.D)
        k = bisect_left(self.pivots, n, key=degree_of.__getitem__)
        return GradedSubspace(self.ctx, self.rows[k:], self.pivots[k:])

    def graded_slice(self, n: int) -> "GradedSubspace":
        """Image of S `intersect` m^n in G_n: the rows of pivot degree n cut
        to their degree-n columns, a column range that holds those pivots,
        so the cut rows are already canonical."""
        _, _, degree_of = monomial_basis(self.ctx.nvars, self.ctx.D)
        lo, hi = bisect_left(degree_of, n), bisect_right(degree_of, n)
        i, j = bisect_left(self.pivots, lo), bisect_left(self.pivots, hi)
        rows = _matrix(self.ctx.field, (j - i, len(degree_of)))
        rows[:, lo:hi] = self.rows[i:j, lo:hi]
        return GradedSubspace(self.ctx, rows, self.pivots[i:j])

    def slice_dims(self):
        dims = [0] * (self.ctx.D + 1)
        for d in self.pivot_degrees():
            dims[d] += 1
        return dims

    def basis_polys(self):
        return [vec_to_poly(row, self.ctx) for row in self.rows]

    def basis_coords(self) -> Coords:
        """The canonical basis rows as a stack."""
        return Coords.of_rows(self.rows)

    # subspace arithmetic ---------------------------------------------------

    def sum_with(self, other: "GradedSubspace") -> "GradedSubspace":
        self._check_ctx(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        stack = Coords.stack([self.basis_coords(), other.basis_coords()])
        return GradedSubspace(self.ctx, *_rref(self.ctx.field, stack))

    def intersect(self, other: "GradedSubspace") -> "GradedSubspace":
        """Zassenhaus: reduce [[A A],[B 0]], written as coordinates; the rows
        with a pivot in the right half vanish on the left one, and their
        right halves are the canonical basis of the meet."""
        self._check_ctx(other)
        ctx = self.ctx
        if self.dim == 0 or other.dim == 0:
            return GradedSubspace.zero(ctx)
        A, B = self.basis_coords(), other.basis_coords()
        a, N = self.dim, A.shape[1]
        block = Coords(np.concatenate([A.rows, A.rows, B.rows + a]),
                       np.concatenate([A.cols, A.cols + N, B.cols]),
                       np.concatenate([A.vals, A.vals, B.vals]), (a + other.dim, 2 * N))
        red, piv = _rref(ctx.field, block)
        k = bisect_left(piv, N)  # a copy, so the 2N-wide rows can be freed
        return GradedSubspace(ctx, red[k:, N:].copy(), [c - N for c in piv[k:]])

    def coordinate_section(self, keep_columns) -> "GradedSubspace":
        """Subspace of vectors supported only on the given columns: the meet
        with the span of their unit vectors."""
        keep = sorted(set(keep_columns))
        units = _matrix(self.ctx.field, (len(keep), self.rows.shape[1]))
        units[np.arange(len(keep)), keep] = self.ctx.field.one()
        return self.intersect(GradedSubspace(self.ctx, units, keep))

    def dump(self) -> str:
        """One line per basis vector, graded-lex sorted."""
        from .poly import poly_str
        return "\n".join(poly_str(f) for f in self.basis_polys())


def multiples(g: Poly, ctx: TruncationContext, low: int = 0) -> Coords:
    """The rows X^A g for low <= |A| <= D - ord(g), in coordinates: each term
    c X^e of g puts c in row A at the column of X^(A+e), for every A with
    |A + e| <= D (no rows when g vanishes at truncation D)."""
    _, _, degree_of = monomial_basis(ctx.nvars, ctx.D)
    start = bisect_left(degree_of, low)
    stop = max(start, bisect_right(degree_of, ctx.D - g.order()))
    cols = [_shift_map(ctx.nvars, ctx.D, e)[start:stop] for e in g.terms]
    sizes = [len(k) for k in cols]
    vals = np.array(list(g.terms.values()), dtype=np.int64 if ctx.field.char else object)
    none = np.empty(0, dtype=np.intp)
    return Coords(np.concatenate([np.arange(n) for n in sizes] + [none]),
                  np.concatenate(cols + [none]), np.repeat(vals, sizes),
                  (stop - start, len(degree_of)))


def _divides(a, b) -> bool:
    """Does the monomial X^a divide X^b."""
    return all(x <= y for x, y in zip(a, b))


def _pruned(gens, ctx: TruncationContext):
    """The truncations of gens minus the monomial multiples of others.

    Write a truncated generator p = c X^E P with X^E the monomial gcd of its
    terms and P monic (its smallest term, by exponent tuple, has coefficient
    1).  Two generators with the same P differ by a monomial factor exactly
    when one content E divides the other, so per P only the contents minimal
    under division are kept, walking the generators by ascending order,
    which within one P is ascending |E|.  Duplicates and scalar multiples
    fall out too.

    Every dropped generator's multiples X^A p with |A| + ord(p) <= D are
    multiples, within the same bound, of the kept ones, so the generated
    ideal's image, and its canonical basis, are unchanged.
    """
    F = ctx.field
    contents = {}  # monic primitive part -> minimal contents kept so far
    kept = []
    for p in sorted((g.truncate(ctx.D) for g in gens), key=Poly.order):
        if p.is_zero():
            continue
        terms = sorted(p.terms.items())
        E = tuple(map(min, zip(*(e for e, _ in terms))))
        scale = F.inv(terms[0][1])
        P = tuple((mi_sub(e, E), F.mul(scale, c)) for e, c in terms)
        seen = contents.setdefault(P, [])
        if any(_divides(K, E) for K in seen):
            continue
        seen.append(E)
        kept.append(p)
    return kept


def ideal_image(gens, ctx: TruncationContext) -> GradedSubspace:
    """Span of {X^A g : |A| + ord(g) <= D}: the image of the ideal (gens).

    The multiples are stacked only for the generators _pruned keeps: it drops
    monomial multiples of kept generators, which add no row outside the span
    of the rest.  So the span, and the canonical basis, is that of the full
    stack."""
    blocks = [multiples(g, ctx) for g in _pruned(gens, ctx)] or [Coords.of_polys([], ctx)]
    return GradedSubspace.from_vectors(ctx, Coords.stack(blocks))


def power_m(n: int, ctx: TruncationContext) -> GradedSubspace:
    """Image of m^n: full ring when n <= 0, zero space beyond D."""
    _, _, degree_of = monomial_basis(ctx.nvars, ctx.D)
    start, N = bisect_left(degree_of, n), len(degree_of)
    k = np.arange(N - start)
    rows = _matrix(ctx.field, (N - start, N))
    rows[k, start + k] = ctx.field.one()
    return GradedSubspace(ctx, rows, range(start, N))

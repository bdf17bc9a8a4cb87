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
canonical basis describes it completely.  multiples(g, ctx, cols) gives
the rows X^A g for the multipliers X^A among an ascending column array:
each term c X^e of g goes through the cached shift map of X^e (a Coords:
rows, columns, values), and ideal_image returns the GradedSubspace that
the generators' multiples span.  A shift map is array arithmetic, no
lookup per monomial: the graded-lex rank of X^B is a sum of binomial
coefficients of the suffix sums B_i + ... + B_(d-1), and those of A + e
are those of A shifted by those of e.  The multiples of a one-term
generator c X^e are the unit vectors of the columns X^(A+e), so
ideal_image marks all of them in one boolean mask over the columns, which
joins the stack as unit rows.  monomial_weights reads a whole family of
monomial ideals from one table: w(E), the largest level of a product of
weighted monomials dividing X^E, so that the columns with w >= a span the
level-a part.  A level ideal is the stack of P X^A over the products P of
its other generators, with X^A in such a column set (see filtration).

Every basis, like every stack, is a Coords: its nonzero entries, sorted by
row, then column, as int64 values over a finite field (residues in [0, p)
over GF(p), codes in [0, q) over GF(p^m)) and Fractions over QQ.  A slice by
pivot degree is a row range, and equal spaces have equal arrays.  Dense
arrays are only the block the presolve leaves the kernel and the vector of
a membership test (_matrix; over QQ its zero cells are the int 0, so
`not v.any()` runs in C); a canonical row is zero on every other pivot, so
reduce_vec makes dense only the rows of the pivots v meets.  _rref and
reduce_vec pick the kernel: rref_mod_p / reduce_mod_p (with the field's
lookup tables over GF(p^m)) for every finite field, rref_generic /
reduce_generic for QQ.
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
stacks.  _rref presolves them by structural pivots, found before any
arithmetic (LaMacchia and Odlyzko, "Solving large sparse linear systems
over finite fields", CRYPTO 1990).  First the unit rows: the level
ideals' stacks are mostly rows with one nonzero, whose columns U are then
pivot columns of the RREF with unit rows e_c; clearing U from the other
rows can leave new singletons, so this repeats.  Then, over a finite
field, the leading columns of the rows left: the first row at each
distinct leading column is a pivot, and those rows form a triangular
block A (Faugere and Lachartre, "Parallel Gaussian elimination for
Groebner bases computations in finite fields", PASCO 2010).  A is made
unit-led and reduced among itself sparsely, from its rightmost lead to its
leftmost, into rows that vanish on each other's leads; the other rows,
reduced by it in one pass, vanish on every lead, and only their nonzero
remainders, the Schur complement, are made dense on their own columns for
the kernel.  Its RREF rows vanish on U and on A's leads; reducing A by
them, the three sets of rows, sorted by pivot, are the canonical RREF of
the whole matrix.  Over QQ the rows left after the unit rows go to the
multimodular kernel as they are.  At GF(3), d=4, D=14 the stack of H's
multiples, 1,365 x 3,060 with 3,081 nonzeros, leaves 861 rows with
distinct leads, so the kernel gets nothing.

Vectors have N = C(D+d, d) coordinates; the supported envelope is d <= 6,
D <= 16.  The spec parser still refuses a ring whose level-0 ideal, as an
N x N matrix at 8 bytes a cell, would exceed 1 GiB, though that ideal is
now N unit rows.  Finished subspaces are immutable and shareable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import comb
from operator import itemgetter

import numpy as np

from ._kernels import reduce_mod_p, rref_mod_p
from ._linalg import reduce_generic, rref_generic
from .poly import Poly, TruncationContext


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, D: int):
    """All exponent tuples of degree <= D in graded-lex column order, built
    in that order: level[t] lists the tuples of degree t lexicographically
    descending, first exponent from t down to 0, each followed by the
    tuples of the remaining variables and degree in the same order."""
    level = [[(t,)] for t in range(D + 1)]
    for _ in range(nvars - 1):
        level = [[(a,) + r for a in range(t, -1, -1) for r in level[t - a]]
                 for t in range(D + 1)]
    mons = tuple(m for part in level for m in part)
    index = {m: i for i, m in enumerate(mons)}
    degree_of = tuple(t for t, part in enumerate(level) for _ in part)
    return mons, index, degree_of


@lru_cache(maxsize=None)
def _rank_tables(nvars: int, D: int):
    """(sums, tables) that give the column of a monomial X^B by arithmetic.

    sums[i] holds B_i + ... + B_(d-1) for every column B, and tables[i][a] is
    C(a + k - 1, k) with k = d - i, the number of monomials of degree < a in
    k variables.  The column of X^B is the sum over i of
    tables[i][B_i + ... + B_(d-1)]: for i = 0 the columns of smaller degree,
    for i >= 1 the columns of degree |B| that agree with B on x_0..x_(i-2)
    and have a larger exponent of x_(i-1), which come first in graded-lex
    order."""
    mons = np.array(monomial_basis(nvars, D)[0], dtype=np.intp)
    suffix = np.cumsum(mons[:, ::-1], axis=1)[:, ::-1]
    sums = tuple(np.ascontiguousarray(suffix[:, i]) for i in range(nvars))
    tables = tuple(np.array([comb(a + k - 1, k) for a in range(D + 1)], dtype=np.intp)
                   for k in range(nvars, 0, -1))
    return sums, tables


@lru_cache(maxsize=None)
def _shift_map(nvars: int, D: int, e):
    """Column of X^(A+e) for each column A with |A| + |e| <= D; those A are
    a prefix of the columns.  The suffix sums of A + e are those of A plus
    those of e, so the map is one table lookup and one addition per variable
    (_rank_tables).  Read-only, since every caller shares it."""
    sums, tables = _rank_tables(nvars, D)
    k = bisect_right(monomial_basis(nvars, D)[2], D - sum(e))
    shifts = list(accumulate(reversed(e)))[::-1]  # e_i + ... + e_(d-1)
    out = sum(T[s:][S[:k]] for T, S, s in zip(tables, sums, shifts))
    out.flags.writeable = False
    return out


def _matrix(field, shape):
    """A zero dense matrix in the field's array format: int64 entries
    (residues in [0, p) for GF(p), codes in [0, q) for GF(p^m)) over a
    finite field, an object array over QQ whose zero cells are the int 0."""
    # int64 zeros come from calloc, so unwritten zero pages stay free; an
    # object array is written through, one reference to the int 0 a cell
    return np.zeros(shape, dtype=np.int64 if field.char else object)


class Coords:
    """A matrix as its nonzero entries: row indices, column indices, values
    in the field's format (no (row, col) pair twice) and its shape.  len()
    is its row count, as for a stack of vectors.  A basis lists its entries
    by row, then column; a stack, in any order."""

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

    def dense(self, field):
        """The matrix in the field's dense format."""
        out = _matrix(field, self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def polys(self, ctx):
        """One polynomial per row, its terms in entry order: graded-lex
        order when the entries are sorted by row, then column."""
        mons = monomial_basis(ctx.nvars, ctx.D)[0]
        terms = [{} for _ in range(len(self))]
        for r, c, x in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
            terms[r][mons[c]] = x
        return [Poly(ctx.field, ctx.nvars, t) for t in terms]

    def row_range(self, i, j):
        """Rows i to j - 1 of a matrix whose entries are sorted by row."""
        a, b = self.rows.searchsorted((i, j))
        return Coords(self.rows[a:b] - i, self.cols[a:b], self.vals[a:b],
                      (j - i, self.shape[1]))


def _rref(field, stack):
    """(canonical RREF basis, pivot columns as ints) of the rows of a Coords.

    A stack with no entries spans zero.  Otherwise the presolve takes the
    unit rows out (_singletons) and, over a finite field, reduces the
    triangular part of the rows they leave (_structural); the field's
    kernel eliminates only the rows left nonzero, made dense on their own
    columns (_kernel), and the triangular rows are reduced by the kernel's
    rows.  The unit rows e_c, the triangular rows and the kernel's rows,
    sorted by pivot, are the basis."""
    N = stack.shape[1]
    if not stack.vals.size:
        return Coords(stack.rows, stack.cols, stack.vals, (0, N)), []
    taken, left = _singletons(stack.rows, stack.cols, stack.shape)
    units = taken.nonzero()[0]
    if not left.size:
        return _units_of(field, units, N), units.tolist()
    r, c, vals = stack.rows[left], stack.cols[left], stack.vals[left]
    tri = {}
    if field.char:
        if field.tables is None:
            vals %= field.p  # Poly coefficients may lie outside [0, p)
        tri, (r, c, vals) = _structural(field, r, c, vals)
    piv, (kp, kc, kv) = _kernel(field, r, c, vals, stack.shape)
    if tri and piv.size:
        by_pivot = _row_dicts(kp, kc, kv)
        tri = {lead: _reduced(field, row, by_pivot) for lead, row in tri.items()}
    leads = np.fromiter(tri, np.intp, len(tri))
    sizes, tc, tv = _entries(tri.values())
    pivots = np.sort(np.concatenate([units, leads, piv]))
    owner = np.concatenate([units, np.repeat(leads, sizes), kp])
    cols = np.concatenate([units, tc, kc])
    vals = np.concatenate([np.full(units.size, field.one(), dtype=vals.dtype), tv, kv])
    rows = pivots.searchsorted(owner)
    order = (rows * N + cols).argsort(kind="stable")
    return Coords(rows[order], cols[order], vals[order], (pivots.size, N)), pivots.tolist()


def _singletons(r, c, shape):
    """(taken, left) for the nonzero entries at rows r, columns c: the
    columns taken as unit pivots and the indices of the entries outside
    them.  A round takes the columns of the rows with one nonzero left,
    drops the entries in those columns and subtracts their bincount from
    the rows' counts; clearing them can leave new singletons for the next."""
    cnt = np.bincount(r, minlength=shape[0])
    taken = np.zeros(shape[1], dtype=bool)
    left = np.arange(len(r))
    while True:
        cols = c[cnt[r] == 1]
        if not cols.size:
            return taken, left
        taken[cols] = True
        hit = taken[c]
        cnt -= np.bincount(r[hit], minlength=shape[0])
        stay = ~hit
        r, c, left = r[stay], c[stay], left[stay]


def _structural(field, r, c, vals):
    """(tri, Schur complement) of the entries at rows r, columns c over a
    finite field.

    The first row at each distinct leading column is a structural pivot.
    Made unit-led and back-substituted among themselves from the rightmost
    lead to the leftmost, they form tri: dicts from column to value, keyed
    by lead, each vanishing on the other leads, since the rows it subtracts
    were reduced before it and start right of its lead.  Every other row,
    reduced by tri in one pass, vanishes on all leads; the nonzero
    remainders, as (rows, columns, values) arrays, are the Schur complement."""
    order = np.lexsort((c, r))
    tri, rest = {}, []
    for row in _row_dicts(r[order], c[order], vals[order]).values():
        lead = next(iter(row))
        if lead in tri:
            rest.append(row)
        else:
            tri[lead] = row
    for lead in sorted(tri, reverse=True):
        row = tri[lead]
        s = field.inv(row[lead])
        if s != 1:
            row = {j: field.mul(s, x) for j, x in row.items()}
        tri[lead] = _reduced(field, row, tri, lead)
    schur = [row for row in (_reduced(field, row, tri) for row in rest) if row]
    sizes, sc, sv = _entries(schur)
    return tri, (np.repeat(np.arange(len(schur)), sizes), sc, sv)


def _row_dicts(keys, cols, vals):
    """{key: {column: value}} of the entries (arrays), in entry order."""
    out = {}
    for i, j, x in zip(keys.tolist(), cols.tolist(), vals.tolist()):
        out.setdefault(i, {})[j] = x
    return out


def _entries(rows):
    """(sizes, columns, values) of dict rows over a finite field: each
    row's entry count, then the columns and values of all rows in order."""
    rows = list(rows)
    sizes = [len(row) for row in rows]
    n = sum(sizes)
    return (sizes, np.fromiter(chain.from_iterable(rows), np.intp, n),
            np.fromiter(chain.from_iterable(row.values() for row in rows), np.int64, n))


def _reduced(field, row, by, keep=None):
    """The dict row minus x times by[j] for each entry x at a column j of
    by other than keep.  The rows of by are unit at their key and vanish on
    each other's keys, so one pass clears every such column."""
    out = row
    for j, x in row.items():
        if j != keep and j in by:
            if out is row:
                out = dict(row)
            f = field.neg(x)
            for k, y in by[j].items():
                out[k] = field.add(out.get(k, 0), field.mul(f, y))
    return out if out is row else {k: x for k, x in out.items() if x}


def _kernel(field, r, c, vals, shape):
    """(pivots, (pivot, column, value) of each nonzero) of the RREF of the
    entries at rows r, columns c: the field's kernel on them made dense,
    on the rows and columns that hold them."""
    if not r.size:
        none = np.empty(0, dtype=np.intp)
        return none, (none, none, vals)
    (live, i), (free, j) = _ranks(r, shape[0]), _ranks(c, shape[1])
    block = Coords(i, j, vals, (live.size, free.size)).dense(field)
    if field.char:
        red, piv = rref_mod_p(block, field.p, field.tables)
    else:
        red, piv = rref_generic(list(block))
    piv = free[piv]
    kr, kc = red.nonzero()
    return piv, (piv[kr], free[kc], red[kr, kc])


def _ranks(idx, n):
    """(the distinct values of an index array below n, ascending, and the
    rank of each entry among them)."""
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return seen.nonzero()[0], (np.cumsum(seen) - 1)[idx]


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
    return [[x if x else zero for x in row] for row in red.dense(field).tolist()], piv


def greedy_independent(field, vecs):
    """Indices of the vectors that the greedy order keeps, each independent
    of those kept before it: the pivot columns of one elimination of the
    matrix whose columns are the vectors."""
    return rref(field, list(zip(*vecs)))[1]


class GradedSubspace:
    """Canonical echelon basis of a subspace of the truncated ring: a Coords
    with entries sorted by row, then column, and its pivot columns."""

    __slots__ = ("ctx", "basis", "pivots")

    def __init__(self, ctx: TruncationContext, basis: Coords, pivots):
        self.ctx = ctx
        self.basis = basis
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
        return _units(ctx, np.arange(0))

    # queries --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check_ctx(self, other: "GradedSubspace"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch between subspaces")

    def reduce_vec(self, v):
        """Residue of the dense vector v: v minus v[c] times the row of each
        pivot c that v meets, the only rows made dense for the kernel."""
        F, B = self.ctx.field, self.basis
        pivots = np.array(self.pivots, dtype=np.int64)
        hit = v[pivots].nonzero()[0]
        met = np.zeros(self.dim, dtype=bool)
        met[hit] = True
        sel = met[B.rows]
        rows = Coords(hit.searchsorted(B.rows[sel]), B.cols[sel], B.vals[sel],
                      (hit.size, B.shape[1])).dense(F)
        if F.char:
            return reduce_mod_p(rows, pivots[hit], v, F.p, F.tables)
        return reduce_generic(rows, pivots[hit], v)

    def _residue(self, f: Poly):
        if f.degree() > self.ctx.D:
            raise ValueError("polynomial exceeds truncation degree")
        return self.reduce_vec(Coords.of_polys([f], self.ctx).dense(self.ctx.field)[0])

    def contains_poly(self, f: Poly) -> bool:
        return not self._residue(f).any()

    def reduce_poly(self, f: Poly) -> Poly:
        """Canonical residue of f modulo this subspace."""
        return Coords.of_rows(self._residue(f)[None]).polys(self.ctx)[0]

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        """One rank test: other lies in self iff their sum is no bigger."""
        return self.sum_with(other).dim == self.dim

    def equals(self, other: "GradedSubspace") -> bool:
        """Same canonical basis: the same pivots, then the same entries."""
        self._check_ctx(other)
        a, b = self.basis, other.basis
        return self.pivots == other.pivots and all(
            np.array_equal(x, y)
            for x, y in ((a.rows, b.rows), (a.cols, b.cols), (a.vals, b.vals)))

    def pivot_degrees(self):
        _, _, degree_of = monomial_basis(self.ctx.nvars, self.ctx.D)
        return [degree_of[c] for c in self.pivots]

    def meet_power_m(self, n: int) -> "GradedSubspace":
        """S `intersect` m^n: the rows whose pivot degree is >= n (a suffix,
        since pivots ascend), already in canonical form."""
        _, _, degree_of = monomial_basis(self.ctx.nvars, self.ctx.D)
        k = bisect_left(self.pivots, n, key=degree_of.__getitem__)
        return GradedSubspace(self.ctx, self.basis.row_range(k, self.dim), self.pivots[k:])

    def graded_slice(self, n: int) -> "GradedSubspace":
        """Image of S `intersect` m^n in G_n: the rows of pivot degree n cut
        to their degree-n columns, a column range that holds those pivots,
        so the cut rows are already canonical."""
        _, _, degree_of = monomial_basis(self.ctx.nvars, self.ctx.D)
        lo, hi = bisect_left(degree_of, n), bisect_right(degree_of, n)
        i, j = bisect_left(self.pivots, lo), bisect_left(self.pivots, hi)
        part = self.basis.row_range(i, j)
        cut = part.cols < hi
        return GradedSubspace(self.ctx, Coords(part.rows[cut], part.cols[cut], part.vals[cut],
                                               part.shape), self.pivots[i:j])

    def slice_dims(self):
        dims = [0] * (self.ctx.D + 1)
        for d in self.pivot_degrees():
            dims[d] += 1
        return dims

    def basis_polys(self):
        return self.basis.polys(self.ctx)

    # subspace arithmetic ---------------------------------------------------

    def sum_with(self, other: "GradedSubspace") -> "GradedSubspace":
        self._check_ctx(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        stack = Coords.stack([self.basis, other.basis])
        return GradedSubspace(self.ctx, *_rref(self.ctx.field, stack))

    def intersect(self, other: "GradedSubspace") -> "GradedSubspace":
        """Zassenhaus: reduce [[A A],[B 0]], written as coordinates; the rows
        with a pivot in the right half vanish on the left one, and their
        right halves are the canonical basis of the meet."""
        self._check_ctx(other)
        ctx = self.ctx
        if self.dim == 0 or other.dim == 0:
            return GradedSubspace.zero(ctx)
        A, B = self.basis, other.basis
        a, N = self.dim, A.shape[1]
        block = Coords(np.concatenate([A.rows, A.rows, B.rows + a]),
                       np.concatenate([A.cols, A.cols + N, B.cols]),
                       np.concatenate([A.vals, A.vals, B.vals]), (a + other.dim, 2 * N))
        red, piv = _rref(ctx.field, block)
        k = bisect_left(piv, N)
        meet = red.row_range(k, len(piv))
        return GradedSubspace(ctx, Coords(meet.rows, meet.cols - N, meet.vals, (len(meet), N)),
                              [c - N for c in piv[k:]])

    def coordinate_section(self, keep_columns) -> "GradedSubspace":
        """Subspace of vectors supported only on the given columns: the meet
        with the span of their unit vectors."""
        return self.intersect(_units(self.ctx, np.unique(np.fromiter(keep_columns, np.intp))))

    def dump(self) -> str:
        """One line per basis vector, graded-lex sorted."""
        from .poly import poly_str
        return "\n".join(poly_str(f) for f in self.basis_polys())


def multiples(g: Poly, ctx: TruncationContext, cols) -> Coords:
    """The rows X^A g for the columns A of the ascending array cols with
    |A| + ord(g) <= D, in coordinates: each term c X^e of g puts c in row j
    at the column of X^(A+e) for A = cols[j], when |A + e| <= D.  Those A
    are a prefix of cols, since columns ascend by degree (no rows when g
    vanishes at truncation D)."""
    _, _, degree_of = monomial_basis(ctx.nvars, ctx.D)
    maps = [_shift_map(ctx.nvars, ctx.D, e) for e in g.terms]
    parts = [m[cols[:cols.searchsorted(len(m))]] for m in maps]
    sizes = [len(k) for k in parts]
    vals = np.array(list(g.terms.values()), dtype=np.int64 if ctx.field.char else object)
    none = np.empty(0, dtype=np.intp)
    return Coords(np.concatenate([np.arange(n) for n in sizes] + [none]),
                  np.concatenate(parts + [none]), np.repeat(vals, sizes),
                  (int(cols.searchsorted(bisect_right(degree_of, ctx.D - g.order()))),
                   len(degree_of)))


def monomial_weights(mons, ctx: TruncationContext):
    """w over the N columns, int64: w[E] is the largest level of a product of
    the monomials X^e of the (exponent, integer level) pairs mons, each
    repeated freely, that divides X^E (0 for the empty product).

    An unbounded knapsack over the exponent lattice.  Each shift map sends
    a column A to A + e, of higher degree when e has positive degree, so
    the columns of degree t are final once every lower degree has pushed
    w + level along the maps: one maximum per degree over the (source,
    target, level) triples of all maps, sorted by source."""
    _, _, degree_of = monomial_basis(ctx.nvars, ctx.D)
    w = np.zeros(len(degree_of), dtype=np.int64)
    top = dict(sorted(mons, key=itemgetter(1)))  # each exponent at its largest level
    if not top:
        return w
    maps = [_shift_map(ctx.nvars, ctx.D, e) for e in top]
    src = np.concatenate([np.arange(len(m)) for m in maps])
    order = src.argsort(kind="stable")
    src, dst = src[order], np.concatenate(maps)[order]
    lvl = np.repeat(list(top.values()), [len(m) for m in maps])[order]
    bounds = src.searchsorted([bisect_left(degree_of, t) for t in range(ctx.D + 2)])
    for lo, hi in zip(bounds, bounds[1:]):
        np.maximum.at(w, dst[lo:hi], w[src[lo:hi]] + lvl[lo:hi])
    return w


def ideal_image(gens, ctx: TruncationContext, cols=None) -> GradedSubspace:
    """Span of the rows X^A g for the generators g and every X^A with
    |A| + ord(g) <= D: the image of the ideal (gens).  With cols, one
    ascending column array per generator, only the X^A among its columns.

    The rows of a one-term generator c X^e are the unit vectors of the
    columns X^(A+e), so all of them are one boolean mask over the N columns,
    marked through the shift maps.  The mask joins the stack as its unit
    rows, which the presolve takes in its first round; the other generators
    stack their multiples, if they have any multipliers."""
    N = len(monomial_basis(ctx.nvars, ctx.D)[0])
    every = np.arange(N)
    mask = np.zeros(N, dtype=bool)
    blocks = []
    for g, A in zip(gens, repeat(every) if cols is None else cols):
        p = g.truncate(ctx.D)
        if len(p.terms) == 1:
            m = _shift_map(ctx.nvars, ctx.D, next(iter(p.terms)))
            mask[m[A[:A.searchsorted(len(m))]]] = True
        elif p.terms and A.size:
            blocks.append(multiples(p, ctx, A))
    units = _units(ctx, mask.nonzero()[0]).basis
    return GradedSubspace.from_vectors(ctx, Coords.stack([units] + blocks))


def _units(ctx: TruncationContext, cols) -> GradedSubspace:
    """The span of the unit vectors e_c for an ascending array of columns c."""
    N = len(monomial_basis(ctx.nvars, ctx.D)[0])
    return GradedSubspace(ctx, _units_of(ctx.field, cols, N), cols.tolist())


def _units_of(field, cols, N):
    """The unit rows e_c of N columns for an ascending array of columns c,
    already canonical: row k is e_(cols[k])."""
    vals = np.full(cols.size, field.one(), dtype=np.int64 if field.char else object)
    return Coords(np.arange(cols.size), cols, vals, (cols.size, N))


def power_m(n: int, ctx: TruncationContext) -> GradedSubspace:
    """Image of m^n: full ring when n <= 0, zero space beyond D."""
    _, _, degree_of = monomial_basis(ctx.nvars, ctx.D)
    return _units(ctx, np.arange(bisect_left(degree_of, n), len(degree_of)))

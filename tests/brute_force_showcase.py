#!/usr/bin/env python3
"""Independent brute-force computation of the showcase invariants.

Recomputes, from scratch and with its own data structures, the invariants
of the filtration generated by (x^2 + y^3, 2) truncated at degree 10:

  * over GF(2): sigma = (2, 1, 1), a single generator-system entry at
    Frobenius level e = 1 (empty degree-1 pure part), mu-tilde = 2;
  * over Q:     sigma = (1), a single entry at e = 0.

Everything here is deliberately naive: dict-of-monomial polynomials, full
product enumeration of the level ideals up to degree 10, dense Gaussian
elimination, per-degree membership by rank comparisons, and the infimum for
mu-tilde scanned over whole level ideals rather than generator shortcuts.
No imports from the library under test.
"""

import itertools
import json
import math
import sys
from fractions import Fraction

D = 10
NV = 2


# --- tiny polynomial layer: dict[(i, j)] -> coefficient ----------------------

def padd(f, g, fld):
    out = dict(f)
    for k, v in g.items():
        s = fld["add"](out.get(k, fld["zero"]), v)
        if s == fld["zero"]:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def pmul(f, g, fld, cap=D):
    out = {}
    for (a, b), u in f.items():
        for (c, d), v in g.items():
            if a + c + b + d > cap:
                continue
            k = (a + c, b + d)
            s = fld["add"](out.get(k, fld["zero"]), fld["mul"](u, v))
            if s == fld["zero"]:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def hasse(f, j1, j2, fld):
    out = {}
    for (a, b), v in f.items():
        c = math.comb(a, j1) * math.comb(b, j2)
        cv = fld["mul"](v, fld["from_int"](c))
        if cv != fld["zero"] and a >= j1 and b >= j2:
            k = (a - j1, b - j2)
            s = fld["add"](out.get(k, fld["zero"]), cv)
            if s == fld["zero"]:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def order(f):
    return min((a + b for a, b in f), default=None)


MONS = sorted(((i, j) for i in range(D + 1) for j in range(D + 1)
               if i + j <= D), key=lambda m: (m[0] + m[1], m))
IDX = {m: k for k, m in enumerate(MONS)}


def vec(f, fld):
    v = [fld["zero"]] * len(MONS)
    for k, c in f.items():
        v[IDX[k]] = c
    return v


def rank(rows, fld):
    rows = [list(r) for r in rows if any(c != fld["zero"] for c in r)]
    rnk = 0
    ncols = len(MONS)
    used = []
    for c in range(ncols):
        piv = None
        for i in range(rnk, len(rows)):
            if rows[i][c] != fld["zero"]:
                piv = i
                break
        if piv is None:
            continue
        rows[rnk], rows[piv] = rows[piv], rows[rnk]
        inv = fld["inv"](rows[rnk][c])
        rows[rnk] = [fld["mul"](inv, x) for x in rows[rnk]]
        for i in range(len(rows)):
            if i != rnk and rows[i][c] != fld["zero"]:
                t = rows[i][c]
                rows[i] = [fld["sub"](x, fld["mul"](t, y))
                           for x, y in zip(rows[i], rows[rnk])]
        rnk += 1
        used.append(c)
        if rnk == len(rows):
            break
    return rnk, rows[:rnk], used


def field_gf2():
    return {"zero": 0, "one": 1, "from_int": lambda n: n % 2,
            "add": lambda a, b: (a + b) % 2, "sub": lambda a, b: (a - b) % 2,
            "mul": lambda a, b: (a * b) % 2,
            "inv": lambda a: a}


def field_q():
    Z = Fraction(0)
    return {"zero": Z, "one": Fraction(1), "from_int": Fraction,
            "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
            "mul": lambda a, b: a * b, "inv": lambda a: 1 / a}


# --- the showcase filtration -------------------------------------------------

def saturated_generators(fld):
    """All divided partials of (x^2+y^3, 2) with positive residual level."""
    f = {(2, 0): fld["one"], (0, 3): fld["one"]}
    gens = []
    for j1 in range(3):
        for j2 in range(3):
            if j1 + j2 >= 2:
                continue
            g = hasse(f, j1, j2, fld)
            if g:
                gens.append((g, 2 - j1 - j2))
    return gens


def level_ideal_vectors(gens, a, fld):
    """Spanning vectors of the level-a ideal image: all monomial multiples
    of all generator products whose levels sum to at least a."""
    prods = []
    maxn = [D // max(order(g), 1) for g, _ in gens]
    for counts in itertools.product(*[range(n + 1) for n in maxn]):
        if sum(c * lvl for c, (_, lvl) in zip(counts, gens)) < a:
            continue
        prod = {(0, 0): fld["one"]}
        for c, (g, _) in zip(counts, gens):
            for _ in range(c):
                prod = pmul(prod, g, fld)
        if prod:
            prods.append(prod)
    out = []
    for prod in prods:
        o = order(prod)
        for (i, j) in MONS:
            if i + j + o <= D:
                out.append(vec(pmul(prod, {(i, j): fld["one"]}, fld), fld))
    return out


def leading_dims(gens, fld, pure_degrees):
    """dim L_n and dim of its pure slice for the requested degrees n.

    L_n is the image of (level-n ideal) `intersect` m^n in degree n; the
    kernel of the below-degree-n projection carries it, and the pure slice
    dimension comes from a projection-rank difference.
    """
    dims = {}
    for n, pure_cols in pure_degrees.items():
        vs = level_ideal_vectors(gens, n, fld)
        low_cols = [IDX[m] for m in MONS if sum(m) < n]
        deg_cols = [IDX[m] for m in MONS if sum(m) == n]
        # kernel of the low projection, inside the span
        rk_all, rows, _ = rank(vs, fld)
        low_rank = rank([[r[c] for c in low_cols] + [fld["zero"]] * (
            len(MONS) - len(low_cols)) for r in rows], fld)[0]
        # rows of the reduced span supported at degree >= n
        high = [r for r in rows
                if all(r[c] == fld["zero"] for c in low_cols)]
        lead = [[r[c] for c in deg_cols] + [fld["zero"]] * (
            len(MONS) - len(deg_cols)) for r in high]
        dimL = rank(lead, fld)[0]
        # pure slice: dim of intersection with the pure coordinate block
        nonpure = [k for k, m in enumerate(
            [m for m in MONS if sum(m) == n]) if m not in pure_cols]
        proj = [[r[k] for k in nonpure] + [fld["zero"]] * (
            len(MONS) - len(nonpure)) for r in rank(lead, fld)[1]]
        dim_pure = dimL - rank(proj, fld)[0]
        dims[n] = (dimL, dim_pure)
    return dims


def member_mod_h(vectors, hvecs, n, fld):
    """Is every vector inside m^n + (H-ideal)? rank comparison."""
    base = list(hvecs)
    for m in MONS:
        if sum(m) >= n:
            base.append(vec({m: fld["one"]}, fld))
    rk_base = rank(base, fld)[0]
    rk_joint = rank(base + list(vectors), fld)[0]
    return rk_joint == rk_base


def mu_tilde_brute(gens, hpoly, fld):
    hvecs = []
    o = order(hpoly)
    for (i, j) in MONS:
        if i + j + o <= D:
            hvecs.append(vec(pmul(hpoly, {(i, j): fld["one"]}, fld), fld))
    best = None
    for a in range(1, D + 1):
        vs = level_ideal_vectors(gens, a, fld)
        if not vs:
            continue
        vs = rank(vs, fld)[1]  # echelon rows: the same span, fewer rows
        if member_mod_h(vs, hvecs, D + 1, fld):
            continue  # whole level inside (H): contributes infinity
        n = 0
        while n <= D and member_mod_h(vs, hvecs, n + 1, fld):
            n += 1
        val = Fraction(n, a)
        best = val if best is None else min(best, val)
    return best


def main():
    report = {}

    # characteristic 2
    f2 = field_gf2()
    gens2 = saturated_generators(f2)
    pure_targets = {1: [(1, 0), (0, 1)], 2: [(2, 0), (0, 2)],
                    4: [(4, 0), (0, 4)]}
    dims = leading_dims(gens2, f2, pure_targets)
    sigma2 = [NV - dims[1][1], NV - dims[2][1], NV - dims[4][1]]
    # generator-system levels: a new entry wherever the pure dimension grows
    # beyond the Frobenius image of the previous one
    pure_seq = [dims[1][1], dims[2][1], dims[4][1]]
    entries = []
    prev = 0
    for e, dim_pure in enumerate(pure_seq):
        for _ in range(dim_pure - prev):
            entries.append(e)
        prev = dim_pure
    # mu-tilde with H = the unique degree-2 element with pure initial form:
    # the generator x^2 + y^3 itself
    h2 = {(2, 0): 1, (0, 3): 1}
    mu2 = mu_tilde_brute(gens2, h2, f2)
    report["char2"] = {"sigma": sigma2, "lgs_levels": entries,
                       "mu_tilde": str(mu2)}

    # characteristic 0
    fq = field_q()
    gensq = saturated_generators(fq)
    dimsq = leading_dims(gensq, fq, {1: [(1, 0), (0, 1)]})
    sigmaq = [NV - dimsq[1][1]]
    entriesq = [0] * dimsq[1][1]
    hq = {(1, 0): Fraction(1)}  # the echelon lift of the degree-1 pure part
    muq = mu_tilde_brute(gensq, hq, fq)
    report["char0"] = {"sigma": sigmaq, "lgs_levels": entriesq,
                       "mu_tilde": str(muq)}

    print(json.dumps(report, sort_keys=True))

    ok = (report["char2"] == {"sigma": [2, 1, 1], "lgs_levels": [1],
                              "mu_tilde": "2"}
          and report["char0"]["sigma"] == [1]
          and report["char0"]["lgs_levels"] == [0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

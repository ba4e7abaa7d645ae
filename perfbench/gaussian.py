"""Seeded Gaussian-rational transports of the cyclic-group instances.

The generator writes C[Z_n] and K(Z_n) as explicit tables (the wire format
of ``mhopf.serialize.instance_to_json``) in the basis b_j = sum_i U[i][j] e_i,
where U is unit upper triangular with one seeded small-height Gaussian-rational
off-diagonal entry.  The transported tables carry genuinely rational and
imaginary structure constants, so the library works with non-integer scalars
and non-unit elimination pivots, while the instance stays isomorphic to the
builtin one (every check must pass).

This module uses only ``fractions``: the inputs never depend on the program
under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

# a Gaussian rational is a pair (re, im) of Fractions
G0 = (Fraction(0), Fraction(0))
G1 = (Fraction(1), Fraction(0))

# real and imaginary parts of the off-diagonal entry
_PARTS = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gneg(x):
    return (-x[0], -x[1])


def _wire(x):
    return [x[0].numerator, x[0].denominator, x[1].numerator, x[1].denominator]


# -- the builtin tables, as old-basis coordinate maps ----------------------------


def cyclic_tables(n: int, kind: str) -> dict:
    """Structure of C[Z_n] ("group") or K(Z_n) ("function") on keys 0..n-1.

    product[(p, q)], coproduct[p] and antipode[p] are {key: G} / {(k1, k2): G}
    dicts; counit[p] is a G.
    """
    keys = range(n)
    if kind == "group":
        product = {(p, q): {(p + q) % n: G1} for p in keys for q in keys}
        coproduct = {p: {(p, p): G1} for p in keys}
        counit = {p: G1 for p in keys}
    elif kind == "function":
        product = {(p, q): ({p: G1} if p == q else {}) for p in keys for q in keys}
        coproduct = {a: {(p, (a - p) % n): G1 for p in keys} for a in keys}
        counit = {p: (G1 if p == 0 else G0) for p in keys}
    else:
        raise ValueError(f"kind={kind!r}")
    antipode = {p: {(-p) % n: G1} for p in keys}
    return {
        "n": n,
        "product": product,
        "coproduct": coproduct,
        "counit": counit,
        "antipode": antipode,
    }


# -- the basis change -------------------------------------------------------------


def random_unitriangular(n: int, rng: random.Random) -> list:
    """Unit upper triangular U with one seeded entry in its first row.

    The entry sits in cell (0, j) for a random j >= 1 and equals r + s*i
    with r, s drawn from {-1, -1/2, 1/2, 1}.  Every such choice makes the
    library do the same number of scalar operations (other cells, or a real
    entry, change that number), so seeds differ in their inputs but not in
    the amount of work.
    """
    u = [[G1 if i == j else G0 for j in range(n)] for i in range(n)]
    u[0][rng.randrange(1, n)] = (rng.choice(_PARTS), rng.choice(_PARTS))
    return u


def unitriangular_inverse(u: list) -> list:
    """Exact inverse of an upper unitriangular matrix by back-substitution."""
    n = len(u)
    v = [[G1 if i == j else G0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = G0
            for k in range(i + 1, j + 1):
                acc = gadd(acc, gmul(u[i][k], v[k][j]))
            v[i][j] = gneg(acc)
    return v


def _new_coords(v: list, old: dict) -> dict:
    """Old-basis vector {i: G} -> new-basis vector {r: G} via V = U^-1."""
    out = {}
    for i, c in old.items():
        for r in range(len(v)):
            if v[r][i] != G0:
                out[r] = gadd(out.get(r, G0), gmul(v[r][i], c))
    return {r: c for r, c in out.items() if c != G0}


def _new_tensor(v: list, old: dict) -> dict:
    out = {}
    for (p, q), c in old.items():
        for r in range(len(v)):
            if v[r][p] == G0:
                continue
            for s in range(len(v)):
                if v[s][q] != G0:
                    w = gmul(gmul(v[r][p], v[s][q]), c)
                    out[(r, s)] = gadd(out.get((r, s), G0), w)
    return {k: c for k, c in out.items() if c != G0}


def transport(tables: dict, u: list) -> dict:
    """The same Hopf structure in the basis b_j = sum_i U[i][j] e_i."""
    n = tables["n"]
    v = unitriangular_inverse(u)
    col = [{i: u[i][j] for i in range(n) if u[i][j] != G0} for j in range(n)]
    product = {}
    for j in range(n):
        for k in range(n):
            old: dict = {}
            for a, ca in col[j].items():
                for b, cb in col[k].items():
                    for l, cl in tables["product"][(a, b)].items():
                        old[l] = gadd(old.get(l, G0), gmul(gmul(ca, cb), cl))
            product[(j, k)] = _new_coords(v, old)
    coproduct, counit, antipode = {}, {}, {}
    for j in range(n):
        delta: dict = {}
        eps = G0
        s: dict = {}
        for a, ca in col[j].items():
            for pq, c in tables["coproduct"][a].items():
                delta[pq] = gadd(delta.get(pq, G0), gmul(ca, c))
            eps = gadd(eps, gmul(ca, tables["counit"][a]))
            for l, cl in tables["antipode"][a].items():
                s[l] = gadd(s.get(l, G0), gmul(ca, cl))
        coproduct[j] = _new_tensor(v, delta)
        counit[j] = eps
        antipode[j] = _new_coords(v, s)
    return {
        "n": n,
        "product": product,
        "coproduct": coproduct,
        "counit": counit,
        "antipode": antipode,
    }


def to_instance_json(tables: dict, domain: str) -> dict:
    """Explicit-table description accepted by ``instance_from_json``.

    No identity is given, so the loader solves for it.
    """
    n = tables["n"]

    def element(vec):
        return {"domain": domain, "terms": [[k, *_wire(vec[k])] for k in sorted(vec)]}

    return {
        "domain": domain,
        "basis": list(range(n)),
        "product": [
            [j, k, element(tables["product"][(j, k)])] for j in range(n) for k in range(n)
        ],
        "coproduct": [
            [
                j,
                {
                    "domains": [domain, domain],
                    "terms": [
                        [list(pq), *_wire(c)]
                        for pq, c in sorted(tables["coproduct"][j].items())
                    ],
                },
            ]
            for j in range(n)
        ],
        "counit": [[j, _wire(tables["counit"][j])] for j in range(n)],
        "antipode": [[j, element(tables["antipode"][j])] for j in range(n)],
    }


def gaussian_instances(seed: int, n: int = 3) -> dict:
    """{"K": blob, "C": blob}: K(Z_n) and C[Z_n], each in its own seeded basis."""
    rng = random.Random(f"gaussian-Z{n}/{seed}")
    out = {}
    for label, kind, domain in (
        ("K", "function", f"gK(Z{n})"),
        ("C", "group", f"gC[Z{n}]"),
    ):
        u = random_unitriangular(n, rng)
        out[label] = to_instance_json(transport(cyclic_tables(n, kind), u), domain)
    return out

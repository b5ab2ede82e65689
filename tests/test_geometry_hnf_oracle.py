"""Checks cone geometry and intersect_cones against test-local copies of
the kernel_basis enumeration they replaced.

Before facet normals came from signed maximal minors, each (d-1)-subset
of rays (or of tight constraints) got a full kernel_basis, and every
candidate facet had its rank checked.  The copies below keep that code.
On seeded random cones in ranks 1-4 (non-simplicial, lower-dimensional,
line-containing, with non-extreme or repeated generators) both must agree
on which inputs raise GeometryError and on every stored piece of
geometry; on seeded cone pairs, intersect_cones must return the same rays
in the same order.
"""

import random
from itertools import combinations

import pytest

from toricstacks.fan import (
    Cone,
    GeometryError,
    _dot,
    _facet_data,
    intersect_cones,
    primitivize,
)
from toricstacks.intlinalg import (
    identity,
    kernel_basis,
    matvec,
    rank,
    solve_many_in_span,
    transpose,
)

N_CONES = 400
N_PAIRS = 300


def hnf_facet_data(coords, d, span):
    """_facet_data as written with one kernel_basis per subset and a rank
    check per candidate facet; returns the sets, the span normals and
    their ambient lifts."""
    k = len(coords)
    seen = {}
    for sub in combinations(range(k), d - 1):
        rows = [coords[i] for i in sub] or [tuple([0] * d)]
        ker = transpose(kernel_basis(rows))
        if len(ker) != 1:
            continue
        w = ker[0]
        pairings = [_dot(w, c) for c in coords]
        if all(p <= 0 for p in pairings):
            w = tuple(-x for x in w)
            pairings = [-p for p in pairings]
        elif not all(p >= 0 for p in pairings):
            continue
        zero_set = frozenset(i for i, p in enumerate(pairings) if p == 0)
        if zero_set in seen:
            continue
        through = [coords[i] for i in zero_set]
        if rank(through) == d - 1:
            seen[zero_set] = w
    sets = tuple(sorted(seen, key=sorted))
    span_normals = tuple(seen[s] for s in sets)
    ambient = solve_many_in_span(transpose(span), span_normals)
    assert None not in ambient
    return sets, span_normals, ambient


def hnf_cone_geometry(n, generators):
    """Cone.__init__ as written before the minors construction, with no
    full-dimensional or simplicial shortcut: (rays, dim, perp rows, facet
    sets, facet normals) of a nonzero cone, or GeometryError."""
    gens = []
    for v in generators:
        p = primitivize(v)
        if p not in gens:
            gens.append(p)
    perp_rows = transpose(kernel_basis(gens))
    span = kernel_basis(perp_rows) if perp_rows else identity(n)
    d = len(transpose(span))
    coords = list(solve_many_in_span(span, gens))
    facet_sets, span_normals, facet_normals = hnf_facet_data(coords, d, span)
    if rank(span_normals) != d:
        raise GeometryError("cone is not strongly convex")
    keep = []
    for i in range(len(coords)):
        through = [w for s, w in zip(facet_sets, span_normals) if i in s]
        if rank(through) == d - 1:
            keep.append(i)
    if len(keep) != len(gens):
        gens = [gens[i] for i in keep]
        relabel = {old: new for new, old in enumerate(keep)}
        facet_sets = tuple(frozenset(relabel[i] for i in s if i in relabel)
                           for s in facet_sets)
    return tuple(gens), d, perp_rows, facet_sets, facet_normals


def hnf_intersect_cones(a, b):
    """intersect_cones as written with one kernel_basis per subset of
    tight constraints."""
    n = a.ambient_rank
    eqs = list(a.perp_rows) + list(b.perp_rows)
    span = kernel_basis(eqs) if eqs else identity(n)
    e = len(transpose(span))
    if e == 0:
        return Cone(n, ())
    span_cols = transpose(span)
    ineqs = [tuple(_dot(w, col) for col in span_cols)
             for w in a.facet_normals + b.facet_normals]
    rays = []
    for sub in combinations(range(len(ineqs)), e - 1):
        rows = [ineqs[i] for i in sub] or [tuple([0] * e)]
        ker = transpose(kernel_basis(rows))
        if len(ker) != 1:
            continue
        for y in (ker[0], tuple(-x for x in ker[0])):
            if all(_dot(row, y) >= 0 for row in ineqs):
                v = primitivize(matvec(span, y))
                if v not in rays:
                    rays.append(v)
    return Cone(n, rays)


KINDS = ("full", "lower-dimensional", "line", "non-extreme", "simplicial")


def _random_generators(rng: random.Random, n: int, kind: str):
    bound = rng.choice((1, 2, 3))

    def vec(m):
        while True:
            v = tuple(rng.randint(-bound, bound) for _ in range(m))
            if any(v):
                return v

    if kind == "lower-dimensional" and n >= 2:
        # Integer combinations of fewer than n random vectors (a lattice
        # that need not be saturated).
        basis = [vec(n) for _ in range(rng.randint(1, n - 1))]
        gens = []
        for _ in range(rng.randint(1, 5)):
            c = [rng.randint(0, 2) for _ in basis]
            g = tuple(sum(x * b[j] for x, b in zip(c, basis))
                      for j in range(n))
            if any(g):
                gens.append(g)
        return gens or [basis[0]]
    if kind == "simplicial":
        return [vec(n) for _ in range(rng.randint(1, n))]
    gens = [vec(n) for _ in range(rng.randint(1, n + 3))]
    if kind == "line":
        gens.append(tuple(-x for x in rng.choice(gens)))
    elif kind == "non-extreme":
        a, b = rng.choice(gens), rng.choice(gens)
        s = tuple(x + y for x, y in zip(a, b))
        if any(s):
            gens.insert(rng.randrange(len(gens) + 1), s)
        gens.append(tuple(2 * x for x in rng.choice(gens)))
    return gens


def _cones():
    rng = random.Random(20190425)
    out = []
    for i in range(N_CONES):
        n = 1 + i % 4
        out.append((n, _random_generators(rng, n,
                                          KINDS[i // 4 % len(KINDS)])))
    return out


def _geometry_or_error(build):
    try:
        return build()
    except GeometryError:
        return GeometryError


def _key(c: Cone):
    return c.rays, c.dim, c.perp_rows, c.facet_sets, c.facet_normals


def span_coordinates(c: Cone):
    """A basis of c's saturated span lattice (columns) and each ray's
    coordinates in it, solved as Cone.__init__ solves them; Cone once
    stored both (the identity and the rays for a full-dimensional cone, n
    empty rows and no rays for the zero cone)."""
    if not c.perp_rows:
        return identity(c.ambient_rank), c.rays
    span = kernel_basis(c.perp_rows)
    return span, solve_many_in_span(span, c.rays)


def test_cone_geometry_matches_hnf_enumeration():
    counts = {"raised": 0, "full": 0, "lower": 0, "simplicial": 0,
              "pruned": 0}
    for n, gens in _cones():
        new = _geometry_or_error(lambda: _key(Cone(n, gens)))
        old = _geometry_or_error(lambda: hnf_cone_geometry(n, gens))
        assert new == old, (n, gens)
        if new is GeometryError:
            counts["raised"] += 1
            continue
        counts["full" if new[1] == n else "lower"] += 1
        counts["simplicial"] += len(new[0]) == new[1]
        if len(new[0]) < len({primitivize(g) for g in gens}):
            counts["pruned"] += 1
    # The draw covers every branch it is meant to.
    assert min(counts.values()) >= 20, counts


def test_facet_data_matches_hnf_enumeration():
    for n, gens in _cones():
        try:
            c = Cone(n, gens)
        except GeometryError:
            continue
        span, coords = span_coordinates(c)
        sets, span_normals = _facet_data(coords, c.dim)
        old_sets, old_normals, _ = hnf_facet_data(coords, c.dim, span)
        assert (sets, span_normals) == (old_sets, old_normals), (n, gens)


def test_intersect_cones_matches_hnf_enumeration():
    rng = random.Random(20190426)
    cones = []
    for n, gens in _cones():
        try:
            cones.append(Cone(n, gens))
        except GeometryError:
            pass
    by_rank = {n: [c for c in cones if c.ambient_rank == n]
               for n in range(1, 5)}
    counts = {"zero": 0, "nonzero": 0, "equalities": 0}
    for i in range(N_PAIRS):
        pool = by_rank[1 + i % 4]
        a, b = rng.choice(pool), rng.choice(pool)
        if i % 2:
            # Let b share some of a's rays, so that the cut is often more
            # than the origin.
            shared = [r for r in a.rays if rng.random() < 0.6]
            try:
                b = Cone(a.ambient_rank, shared + list(b.rays[:2]))
            except GeometryError:
                pass
        cut = intersect_cones(a, b)
        assert cut.rays == hnf_intersect_cones(a, b).rays, (a, b)
        counts["zero" if cut.is_zero else "nonzero"] += 1
        counts["equalities"] += bool(a.perp_rows or b.perp_rows)
    assert min(counts.values()) >= 50, counts


@pytest.mark.parametrize("gens", [
    [(1, 0), (-1, 0)],
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)],
    [(1, 1), (1, -1), (0, 1), (0, -1)],
])
def test_cones_with_a_line_raise(gens):
    with pytest.raises(GeometryError):
        Cone(len(gens[0]), gens)
    with pytest.raises(GeometryError):
        hnf_cone_geometry(len(gens[0]), gens)

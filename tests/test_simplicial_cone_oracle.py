"""Checks the facet and face construction of simplicial cones against the
adjugate construction and the enumeration that came before it.

Every cone now builds its facets over the (d-1)-subsets of its rays
(_facet_data) and its faces as the closure of its facets under
intersection.  A cone with n independent rays in rank n once read its
facet normals off one adjugate of its rays instead, and took every subset
of its rays as its faces; _simplicial_facets below keeps that code as
written, on the adjugate test_kernel_generator_oracle keeps, and is the
reference test_lazy_geometry_oracle imports.  Before the adjugate, every
cone enumerated its facets (one signed-minors kernel_generator per
subset, also kept in test_kernel_generator_oracle), found its span with
two kernel_basis calls, and closed its facet sets under intersection; the
enumerated_* copies keep that code.  On seeded generator sets in ranks
1-5 (square sets with determinants of both signs and |det| > 1, singular
square sets, non-primitive and duplicate generators, and d rays in rank
n > d) all must agree on which inputs raise GeometryError and on every
stored piece of geometry, faces included.
"""

import random
from itertools import combinations

from corpus import corpus_cones
from test_chow_certificate import clear_package_caches
from test_geometry_hnf_oracle import span_coordinates
from test_kernel_generator_oracle import adjugate, det, kernel_generator
from toricstacks import fan
from toricstacks.chow import exceptional_stratum, verify_vanishing
from toricstacks.fan import Cone, Fan, GeometryError, _dot, _facet_data, \
    primitivize
from toricstacks.intlinalg import (
    identity,
    kernel_basis,
    rank,
    solve_many_in_span,
    transpose,
)

N_SETS = 2500
KINDS = ("square", "scaled", "duplicate", "singular", "lower-dimensional")


def _simplicial_facets(coords):
    """_facet_data of d independent rays in rank d: column i of their
    adjugate pairs to det with ray i and to 0 with the rest, so sign(det)
    times it, made primitive, is facet i's normal."""
    volume, adj = adjugate(coords)
    assert volume, "rays are dependent"
    sign, d = (1 if volume > 0 else -1), len(coords)
    cols = transpose(adj)
    # Sorted by ray set, the facet without ray d-1 comes first.
    order = range(d - 1, -1, -1)
    normals = tuple(primitivize([sign * x for x in cols[i]]) for i in order)
    for i, w in zip(order, normals):
        assert all(_dot(w, c) > 0 if j == i else _dot(w, c) == 0
                   for j, c in enumerate(coords)), "normal is not inward"
    return tuple(frozenset(range(d)) - {i} for i in order), normals


def enumerated_facet_data(coords, d):
    """_facet_data as written before the adjugate: one kernel_generator
    per (d-1)-subset of rays, kept when every ray lies on one side."""
    seen = {}
    for sub in combinations(range(len(coords)), d - 1):
        w = kernel_generator([coords[i] for i in sub])
        if w is None:
            continue
        pairings = [_dot(w, c) for c in coords]
        if all(p <= 0 for p in pairings):
            w = tuple(-x for x in w)
            pairings = [-p for p in pairings]
        elif not all(p >= 0 for p in pairings):
            continue
        seen.setdefault(
            frozenset(i for i, p in enumerate(pairings) if p == 0), w)
    sets = tuple(sorted(seen, key=sorted))
    return sets, tuple(seen[s] for s in sets)


def closed_faces(k, facet_sets):
    """face_ray_sets as written before the power set: the closure of the
    facet sets under intersection, plus the cone itself."""
    everything = frozenset(range(k))
    found, frontier = {everything}, {everything}
    while frontier:
        frontier = {f & s for f in frontier for s in facet_sets} - found
        found |= frontier
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def enumerated_geometry(n, generators):
    """Cone.__init__ as written before the adjugate: (rays, dim, perp
    rows, facet sets, facet normals, faces) of a nonzero cone, or
    GeometryError."""
    gens = []
    for v in generators:
        p = primitivize(v)
        if p not in gens:
            gens.append(p)
    perp_rows = transpose(kernel_basis(gens))
    if perp_rows:
        span = kernel_basis(perp_rows)
        coords = list(solve_many_in_span(span, gens))
    else:
        span, coords = identity(n), gens
    d = len(span[0])
    facet_sets, span_normals = enumerated_facet_data(coords, d)
    if perp_rows:
        facet_normals = solve_many_in_span(transpose(span), span_normals)
    else:
        facet_normals = span_normals
    if len(gens) != d:
        if rank(span_normals) != d:
            raise GeometryError("cone is not strongly convex")
        keep = [i for i in range(len(coords))
                if rank([w for s, w in zip(facet_sets, span_normals)
                         if i in s]) == d - 1]
        if len(keep) != len(gens):
            gens = [gens[i] for i in keep]
            relabel = {old: new for new, old in enumerate(keep)}
            facet_sets = tuple(
                frozenset(relabel[i] for i in s if i in relabel)
                for s in facet_sets)
    return (tuple(gens), d, perp_rows, facet_sets, facet_normals,
            closed_faces(len(gens), facet_sets))


def _random_generators(rng: random.Random, n: int, kind: str):
    bound = rng.choice((1, 2, 3, 5))

    def vec(m):
        while True:
            v = tuple(rng.randint(-bound, bound) for _ in range(m))
            if any(v):
                return v

    if kind == "lower-dimensional" and n >= 2:
        # d rays in rank n > d: integer combinations of d random vectors.
        d = rng.randint(1, n - 1)
        basis = [vec(n) for _ in range(d)]
        gens = []
        for _ in range(d):
            c = vec(d)
            g = tuple(sum(x * b[j] for x, b in zip(c, basis))
                      for j in range(n))
            gens.append(g if any(g) else basis[0])
        return gens
    gens = [vec(n) for _ in range(n)]
    if kind == "scaled":
        i = rng.randrange(n)
        gens[i] = tuple(rng.choice((2, 3)) * x for x in gens[i])
    elif kind == "duplicate":
        # An extra generator on the ray of another: dedup leaves n.
        g = rng.choice(gens)
        gens.insert(rng.randrange(n + 1),
                    tuple(rng.choice((1, 2)) * x for x in g))
    elif kind == "singular" and n >= 2:
        a, b = rng.sample(range(n), 2)
        s, t = rng.choice((-1, 1, 2)), rng.choice((-1, 0, 1))
        g = tuple(s * x + t * y for x, y in zip(gens[a], gens[b]))
        gens[rng.randrange(n)] = g if any(g) else gens[a]
    return gens


def _sets():
    rng = random.Random(20190428)
    return [(1 + i % 5,
             _random_generators(rng, 1 + i % 5, KINDS[i // 5 % len(KINDS)]))
            for i in range(N_SETS)]


def _geometry_or_error(build):
    try:
        return build()
    except GeometryError:
        return GeometryError


def _key(c: Cone):
    return (c.rays, c.dim, c.perp_rows, c.facet_sets, c.facet_normals,
            c.face_ray_sets())



def test_cone_geometry_matches_enumeration():
    seen = {"positive det": 0, "negative det": 0, "|det| > 1": 0,
            "non-primitive": 0, "duplicate": 0, "singular raised": 0,
            "singular general": 0, "lower simplicial": 0, "rank 5": 0}
    for n, gens in _sets():
        new = _geometry_or_error(lambda: _key(Cone(n, gens)))
        old = _geometry_or_error(lambda: enumerated_geometry(n, gens))
        assert new == old, (n, gens)
        distinct = {primitivize(g) for g in gens}
        square = len(gens) == n == len(distinct)
        if square and det(gens) == 0:
            seen["singular raised" if new is GeometryError
                 else "singular general"] += 1
        if new is GeometryError:
            continue
        rays, d = new[0], new[1]
        if len(rays) == d == n:
            m = det(rays)
            seen["positive det" if m > 0 else "negative det"] += 1
            seen["|det| > 1"] += abs(m) > 1
            seen["non-primitive"] += any(primitivize(g) != g for g in gens)
            seen["duplicate"] += len(gens) > n
            seen["rank 5"] += n == 5
        elif len(rays) == d < n:
            seen["lower simplicial"] += 1
    # The draw covers every case it is meant to.
    assert min(seen.values()) >= 50, seen


def test_facet_data_matches_enumeration_on_simplicial_cones():
    # The adjugate, the program's _facet_data and the enumeration agree on
    # the span coordinates of every simplicial cone, lower-dimensional ones
    # included.
    checked = lower = 0
    for n, gens in _sets():
        try:
            c = Cone(n, gens)
        except GeometryError:
            continue
        if len(c.rays) == c.dim:
            _, coords = span_coordinates(c)
            assert _simplicial_facets(coords) == _facet_data(coords, c.dim) \
                == enumerated_facet_data(coords, c.dim), (n, gens)
            checked += 1
            lower += c.dim < n
    assert checked >= 1500 and lower >= 50


def test_fan_cones_match_face_vector_sets():
    for sigma in corpus_cones():
        for f in (exceptional_stratum(sigma).subdivision,
                  Fan(sigma.ambient_rank, [sigma])):
            expected = {frozenset(f.rays.index(r) for r in face)
                        for s in f.maximal_cones
                        for face in f.cone(s).face_vector_sets()}
            assert f.cones == expected


def test_corpus_verdict_builds_no_enumerated_facet(monkeypatch):
    # sigma itself is not simplicial: it is built before the count.
    sigma = corpus_cones()[18]
    clear_package_caches()
    calls = []
    real = fan.kernel_basis

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fan, "kernel_basis", counting)
    assert verify_vanishing(sigma, 4).conclusion
    # Only the stratum's projection along v needs a kernel.
    assert len(calls) == 1

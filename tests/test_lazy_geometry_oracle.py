"""Checks the cone and fan geometry built on first read against eager
copies of the code it replaced.

A cone builds its facet sets and normals at construction, on one path, and
its faces (Cone.face_ray_sets) when they are first read; a fan builds its
face lattice (Fan.cones) when it is first read.  Before, a cone built its
faces at construction too, as every subset of its rays when simplicial,
and n independent rays in rank n built their facets from one adjugate
(test_simplicial_cone_oracle keeps that reference).  eager_geometry below
keeps that Cone.__init__ and face_ray_sets, eager_fan_cones the face
enumeration of the old Fan.__init__.  Both must agree with the code on
every stored field, on the faces and on the fan's cones (and their
grouping by dimension, Fan.cones_of_dim), and must raise GeometryError on
the same inputs, over three sets of inputs:
- the seeded generator kinds of test_simplicial_cone_oracle;
- every cone of the subdivision and stratum fans of the corpus and the
  negative corpus;
- seeded chains of star subdivisions of the complete fan of (P^1)^r.
"""

import random
from itertools import combinations, product

import pytest

from corpus import corpus_cones
from test_chow_certificate import clear_package_caches
from test_negative_corpus import NEGATIVE
from test_simplicial_cone_oracle import _sets, _simplicial_facets
from toricstacks import fan
from toricstacks.chow import exceptional_stratum, verify_vanishing
from toricstacks.fan import (
    Cone,
    Fan,
    GeometryError,
    _facet_data,
    primitivize,
    star_subdivision,
)
from toricstacks.intlinalg import (
    det,
    identity,
    kernel_basis,
    rank,
    solve_many_in_span,
    transpose,
)


def eager_faces(k, dim, facet_sets):
    """face_ray_sets: every subset of a simplicial cone's rays, otherwise
    the closure of the facet sets under intersection, plus the cone."""
    if k == dim:
        return tuple(frozenset(s) for j in range(k + 1)
                     for s in combinations(range(k), j))
    everything = frozenset(range(k))
    found, frontier = {everything}, {everything}
    while frontier:
        frontier = {f & s for f in frontier for s in facet_sets} - found
        found |= frontier
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def eager_geometry(n, generators):
    """Cone.__init__ as written when every cone built its facets at
    construction: (rays, dim, perp rows, facet sets, facet normals,
    faces), or GeometryError."""
    gens = []
    for v in generators:
        if len(v) != n:
            raise GeometryError("generator length %d, ambient rank %d"
                                % (len(v), n))
        p = primitivize(v)
        if p not in gens:
            gens.append(p)
    if not gens:
        return ((), 0, identity(n), (), (), (frozenset(),))
    found = len(gens) == n and det(gens) and _simplicial_facets(gens)
    perp_rows = () if found else transpose(kernel_basis(gens))
    if perp_rows:
        span = kernel_basis(perp_rows)
        coords = list(solve_many_in_span(span, gens))
    else:
        span, coords = identity(n), gens
    d = len(span[0])
    facet_sets, span_normals = found or _facet_data(coords, d)
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
            eager_faces(len(gens), d, facet_sets))


def eager_fan_cones(f: Fan) -> frozenset:
    """The face enumeration of the old Fan.__init__, over the eager faces
    of each maximal cone."""
    index = {r: i for i, r in enumerate(f.rays)}
    out = set()
    for s in f.maximal_cones:
        geometry = eager_geometry(f.ambient_rank, f.cone(s).rays)
        rays, faces = geometry[0], geometry[-1]
        out.update(frozenset(index[rays[i]] for i in face) for face in faces)
    return frozenset(out)


def lazy_geometry(c: Cone):
    return (c.rays, c.dim, c.perp_rows, c.facet_sets, c.facet_normals,
            c.face_ray_sets())


def _or_error(build):
    try:
        return build()
    except GeometryError:
        return GeometryError


def assert_same_fan(f: Fan):
    # Every cone of the fan, maximal ones as the fan holds them.
    for s in f.cones:
        c = f.cone(s)
        assert lazy_geometry(c) == eager_geometry(f.ambient_rank, c.rays)
    assert f.cones == eager_fan_cones(f)
    # Fan.cones_of_dim groups the face lattice once; before, each call
    # scanned and sorted every cone.
    for d in range(f.ambient_rank + 2):
        assert f.cones_of_dim(d) == sorted(
            (s for s in f.cones if f.cone(s).dim == d), key=sorted)


def test_seeded_generator_kinds():
    raised = 0
    for n, gens in _sets():
        new = _or_error(lambda: Cone(n, gens))
        old = _or_error(lambda: eager_geometry(n, gens))
        if new is GeometryError or old is GeometryError:
            assert new is old, (n, gens)
            raised += 1
            continue
        assert lazy_geometry(new) == old, (n, gens)
    assert raised >= 100


FIELDS = ("rays", "dim", "perp_rows", "facet_sets", "facet_normals",
          "face_ray_sets")


def test_fields_read_in_any_order():
    # Whichever field a fresh cone is asked for first, it and every field
    # read after it hold the eager value.
    for n, gens in _sets()[:500]:
        old = _or_error(lambda: eager_geometry(n, gens))
        if old is GeometryError:
            continue
        for i, name in enumerate(FIELDS):
            c = Cone(n, gens)
            first = getattr(c, name)
            assert (first() if callable(first) else first) == old[i]
            assert lazy_geometry(c) == old


def _strata():
    cones = corpus_cones() + [Cone(n, rays) for n, rays, _c, _k in NEGATIVE]
    return [exceptional_stratum(sigma) for sigma in cones]


def test_corpus_subdivision_and_stratum_fans():
    strata = _strata()
    assert len(strata) == 20 + len(NEGATIVE)
    for stratum in strata:
        assert_same_fan(stratum.subdivision)
        assert_same_fan(stratum.quotient.fan)


def complete_fan(r):
    """The complete fan of (P^1)^r: rays +-e_i, one cone per orthant."""
    def unit(i, s):
        return tuple(s if j == i else 0 for j in range(r))
    return Fan(r, [Cone(r, [unit(i, s[i]) for i in range(r)])
                   for s in product((1, -1), repeat=r)])


def grown_fans():
    """Seeded chains of star subdivisions of complete fans, at maximal and
    at lower cones, every step kept."""
    rng = random.Random(20261019)
    out = []
    for r, n_rays in ((2, 8), (3, 10), (3, 12)):
        f = complete_fan(r)
        out.append(f)
        while len(f.rays) < n_rays:
            if rng.random() < 0.5:
                pick = rng.choice(f.maximal_cones)
            else:
                pick = rng.choice(sorted(f.cones - {frozenset()}, key=sorted))
            f = star_subdivision(f, f.cone(pick))
            out.append(f)
    return out


def test_star_subdivided_complete_fans():
    fans = grown_fans()
    assert len(fans) == 18
    for f in fans:
        assert_same_fan(f)


def test_fan_raises_at_construction():
    # The face lattice is built later, but the checks of the old
    # constructor still run at once.
    with pytest.raises(GeometryError):
        Fan(2, [Cone(2, [(1, 0)]), Cone(3, [(1, 0, 0)])])
    with pytest.raises(GeometryError):
        Fan.from_data(2, [[1, 0], [1, 1], [0, 1]], [[0, 1, 2]])


def test_verdict_builds_only_the_input_facets(monkeypatch):
    # verify_vanishing reads the input cone's facets (exceptional_stratum
    # joins v with them), which the cone built at construction, before the
    # spy is installed, and no facet of a subdivision or stratum cone: it
    # runs no facet enumeration at all.
    calls = []
    real = fan._facet_data

    def spy(coords, d):
        calls.append(tuple(coords))
        return real(coords, d)

    cones = corpus_cones()
    monkeypatch.setattr(fan, "_facet_data", spy)
    clear_package_caches()
    for sigma in cones:
        verify_vanishing(sigma, 4)
    assert calls == []

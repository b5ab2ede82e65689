"""Pins the cone geometry behind every corpus comparison, and checks
star_subdivision against the facet-cone construction it replaced.

GEOMETRY_DIGEST is a sha256 over, for each corpus cone sigma: sigma's own
geometry, the rays and maximal cones of the star subdivision f2, the rays,
maximal cones and ray pairs of the star quotient fan of the new ray, and
the geometry (rays, dim, perp rows, facet sets, facet normals) of every
cone of both fans.  The key once held each cone's span basis and ray
coordinates too, and its digest was computed on the code as it stood
before Cone construction solved all right-hand sides against one HNF and
before star_subdivision read sigma's facet data instead of building a
cone per facet.  When Cone stopped storing those two fields, the digest
below was taken over the reduced key on the code just before that
change, where the full-key digest still held; so it pins the same
geometry.  Any change to a canonical basis, a facet order or a ray order
shows up here.  The digest is taken twice:
over the general star_subdivision of the one-cone fan with
star_quotient_fan, and over the fans exceptional_stratum builds straight
from sigma's facets.
"""

import hashlib
import itertools
import random

from toricstacks.fan import (
    Cone,
    Fan,
    GeometryError,
    exceptional_stratum,
    make_cone,
    star_subdivision,
    star_vector,
)

from corpus import corpus_cones
from test_stratum_oracle import cone_star_quotient_fan

GEOMETRY_DIGEST = \
    "fa5e30670528277183ba407d2685e03b7f12400e0e58c5717bdb851786752a8f"


def facets(c):
    """One Cone per facet of c, in facet-set order, as the removed
    fan.facets built them."""
    if c.is_zero:
        return []
    if c.dim == 1:
        return [Cone(c.ambient_rank, ())]
    return [Cone(c.ambient_rank, [c.rays[i] for i in sorted(s)])
            for s in c.facet_sets]


def _cone_key(c: Cone) -> tuple:
    return (c.rays, c.dim, c.perp_rows,
            tuple(tuple(sorted(s)) for s in c.facet_sets), c.facet_normals)


def _fan_key(f: Fan) -> tuple:
    return (f.ambient_rank, f.rays,
            tuple(tuple(sorted(s)) for s in f.maximal_cones),
            tuple(_cone_key(f.cone(s)) for s in sorted(f.cones, key=sorted)))


def searched(sigma):
    """The subdivision and quotient as the general star_subdivision of the
    one-cone fan and star_quotient_fan build them."""
    f2 = star_subdivision(Fan(sigma.ambient_rank, [sigma]), sigma)
    return f2, cone_star_quotient_fan(f2, star_vector(sigma))


def built(sigma):
    """The subdivision and quotient exceptional_stratum builds from sigma's
    facets."""
    stratum = exceptional_stratum(sigma)
    return stratum.subdivision, stratum.quotient


def geometry_digest(construct) -> str:
    h = hashlib.sha256()
    for idx, sigma in enumerate(corpus_cones()):
        f2, q = construct(sigma)
        h.update(repr((idx, _cone_key(sigma), _fan_key(f2), _fan_key(q.fan),
                       q.pairs)).encode())
    return h.hexdigest()


def test_corpus_geometry_pinned():
    assert geometry_digest(searched) == GEOMETRY_DIGEST
    assert geometry_digest(built) == GEOMETRY_DIGEST


def facet_cone_star_subdivision(f: Fan, c: Cone) -> Fan:
    """star_subdivision as it was written before it read sigma's facet
    data: one Cone per facet, and a containment test for the star vector."""
    if not f.has_cone(c):
        raise GeometryError("subdivision cone is not a cone of the fan")
    if c.is_zero:
        raise GeometryError("cannot subdivide at the zero cone")
    v = star_vector(c)
    new_max = []
    for s in f.maximal_cones:
        sigma = f.cone(s)
        if not sigma.contains_cone(c):
            new_max.append(sigma)
            continue
        for mu in facets(sigma):
            if mu.contains(v):
                continue
            new_max.append(Cone(f.ambient_rank, list(mu.rays) + [v]))
    return Fan(f.ambient_rank, new_max, ray_hint=f.rays)


def assert_same_subdivision(f: Fan, c: Cone) -> Fan:
    new = star_subdivision(f, c)
    old = facet_cone_star_subdivision(f, c)
    assert _fan_key(new) == _fan_key(old)
    assert [new.cone(s).rays for s in new.maximal_cones] \
        == [old.cone(s).rays for s in old.maximal_cones]
    return new


def test_matches_facet_cones_on_corpus():
    for sigma in corpus_cones():
        assert_same_subdivision(Fan(sigma.ambient_rank, [sigma]), sigma)


SQUARE_RAYS = ((1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1))


def test_matches_facet_cones_on_square_ray_and_edge():
    square = make_cone(3, SQUARE_RAYS)
    f = Fan(3, [square])
    at_ray = assert_same_subdivision(f, make_cone(3, SQUARE_RAYS[:1]))
    assert len(at_ray.maximal_cones) == 2
    at_edge = assert_same_subdivision(f, make_cone(3, SQUARE_RAYS[:2]))
    assert len(at_edge.maximal_cones) == 3


def test_matches_facet_cones_on_a_one_dimensional_cone():
    # The only facet of a ray is the zero cone, so the new cone is [v].
    ray = make_cone(2, [(-2, -3)])
    f = Fan(2, [ray, make_cone(2, [(1, 0), (0, 1)])])
    new = assert_same_subdivision(f, ray)
    assert new.rays == f.rays


def _orthant_fan(r: int) -> Fan:
    cones = [make_cone(r, [tuple(s[i] if j == i else 0 for j in range(r))
                           for i in range(r)])
             for s in itertools.product((1, -1), repeat=r)]
    return Fan(r, cones)


def test_matches_facet_cones_on_seeded_complete_fans():
    # Seeded chains of star subdivisions of the complete fan of (P^1)^r,
    # at maximal cones (untouched orthants first) and at random lower
    # cones, compared after every step.
    rng = random.Random(20190421)
    for r, n_rays in ((2, 9), (3, 12), (3, 14), (4, 11)):
        f = _orthant_fan(r)
        while len(f.rays) < n_rays:
            orthants = [s for s in f.maximal_cones
                        if all(sum(map(abs, f.rays[i])) == 1 for i in s)]
            if rng.random() < 0.5:
                pick = rng.choice(orthants or f.maximal_cones)
            else:
                pick = rng.choice(sorted(f.cones - {frozenset()}, key=sorted))
            f = assert_same_subdivision(f, f.cone(pick))

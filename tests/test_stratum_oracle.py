"""exceptional_stratum and star_quotient_fan against the general
constructions they replaced.

For a full-dimensional cone sigma with interior star vector v, the star
subdivision is Delta = v * (boundary of sigma) and the projection along v
maps the boundary bijectively onto the stratum's fan L, so
exceptional_stratum builds Delta straight from sigma's facets.  The oracle
below is the construction it replaced: the general star_subdivision of the
one-cone fan (a face lattice, containment tests) and the star quotient fan
of v as cone_star_quotient_fan builds it, one Cone per star cone, with the
ray matching read off the quotient's pairs.  Every field of the stratum
must agree, the fans in ray order, maximal-cone order and per-cone ray
order too, on the corpus, the negative corpus, 800 seeded cones in ranks
2-3, the rank-1 cones and 180 seeded rank-4 cones, some of them with a
non-simplicial Delta.  The build searches nothing: it runs no face lattice
and no containment test.

star_quotient_fan builds every orbit fan as exceptional_stratum builds L,
from the rays that span a 2-face with the ray in each star cone.  It must
equal cone_star_quotient_fan field by field, dropped rays included, at
every ray of thousands of seeded fans, hundreds of them with a
non-pyramidal star, where some ray spans a 2-face with the ray in no cone
and is dropped.

Both fans of the stratum are built as index data, so neither the stratum
nor a verdict on it constructs a Cone; every cone of both fans, built when
first read, must equal the searched construction's cone field by field.
The star ray must pair positively with every facet normal of sigma: a star
ray on a facet or outside sigma is an internal error.
"""

import pytest

from corpus import corpus_cones
from test_chow_certificate import NEGATIVE_DATA, clear_package_caches, \
    random_cones, random_rank4_cones
from test_lazy_geometry_oracle import grown_fans
from toricstacks import fan
from toricstacks.chow import verify_vanishing
from toricstacks.fan import (
    Cone,
    Fan,
    GeometryError,
    StarQuotient,
    UserError,
    content,
    exceptional_stratum,
    make_cone,
    primitivize,
    star_quotient_fan,
    star_subdivision,
    star_vector,
)
from toricstacks.intlinalg import kernel_basis, matvec, transpose
from toricstacks.ktheory import verify_k_vanishing


def cone_star_quotient_fan(f: Fan, ray) -> StarQuotient:
    """star_quotient_fan as written with one Cone per star cone: each
    maximal cone containing the ray, its other rays projected along the
    ray in sorted index order, and a Fan over those cones, which keeps
    only the extreme images.  A source ray whose primitive image is a ray
    of no projected cone is dropped."""
    ray = tuple(int(x) for x in ray)
    if ray not in f.rays:
        raise GeometryError("%s is not a ray of the fan" % (ray,))
    ri = f.rays.index(ray)
    n = f.ambient_rank
    q = transpose(kernel_basis((ray,)))
    star_max = [s for s in f.maximal_cones if ri in s]
    image = {i: matvec(q, f.rays[i])
             for i in sorted({j for s in star_max for j in s if j != ri})}
    quotient = Fan(n - 1, [Cone(n - 1, [image[i] for i in sorted(s - {ri})])
                           for s in star_max])
    pairs, dropped = [], []
    for i, img in image.items():
        prim = primitivize(img)
        if prim in quotient.rays:
            pairs.append((i, quotient.rays.index(prim), content(img)))
        else:
            dropped.append(i)
    return StarQuotient(fan=quotient, projection=q, ray_index=ri,
                        pairs=tuple(pairs), dropped=tuple(dropped))


def searched_stratum(sigma) -> tuple:
    """The stratum as the general subdivision and quotient built it, with
    the matching failures it used to record asserted absent."""
    f2 = star_subdivision(Fan(sigma.ambient_rank, [sigma]), sigma)
    v = star_vector(sigma)
    v_idx = f2.rays.index(v)
    quotient = cone_star_quotient_fan(f2, v)
    dst = {src: d for src, d, _mult in quotient.pairs}
    surviving = tuple(i for i in range(len(f2.rays)) if i != v_idx)
    assert not quotient.dropped
    assert all(i in dst for i in surviving)
    return (f2, v, v_idx, quotient, surviving, dst)


def _order(f: Fan) -> tuple:
    return (f.maximal_cones, tuple(f.cone(s).rays for s in f.maximal_cones))


def test_stratum_matches_the_searched_construction():
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    for seed in (11, 23, 31, 47):
        cones += random_cones(seed, 200)
    cones += [make_cone(1, [(1,)]), make_cone(1, [(-1,)])]
    rank4 = [c for seed in (5, 7, 11) for c in random_rank4_cones(seed, 60)]
    non_simplicial = 0
    for sigma in cones + rank4:
        built = tuple(exceptional_stratum(sigma))
        searched = searched_stratum(sigma)
        assert len(built) == len(searched)
        for field, (a, b) in enumerate(zip(built, searched)):
            assert a == b, (sigma, field)
        assert _order(built[0]) == _order(searched[0]), sigma
        assert _order(built[3].fan) == _order(searched[3].fan), sigma
        delta = built[0]
        non_simplicial += any(len(s) != delta.cone(s).dim
                              for s in delta.maximal_cones)
    assert non_simplicial > 0


def test_stratum_runs_no_search(monkeypatch):
    def searching(*args):
        raise AssertionError("exceptional_stratum searched")

    cones = corpus_cones() + random_rank4_cones(11, 60)
    monkeypatch.setattr(Fan, "has_cone", searching)
    monkeypatch.setattr(Cone, "contains_cone", searching)
    monkeypatch.setattr(Cone, "contains", searching)
    for sigma in cones:
        exceptional_stratum(sigma)


def _quotient_key(q: StarQuotient) -> tuple:
    return (q.fan, _order(q.fan), q.projection, q.ray_index, q.pairs,
            q.dropped)


def test_star_quotient_fan_matches_the_cone_construction():
    # The orbit fan of every ray of: the one-cone fan of each corpus,
    # negative-corpus and seeded cone, its stratum's Delta and L, and its
    # star subdivision at each proper face; and the seeded star
    # subdivisions of complete fans.  A ray adjacent to another in no
    # cone (a non-pyramidal star) is dropped.  Every fan here is a
    # fan by construction (each passes validate_fan), so none trips the
    # repeated-or-nested check.
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    cones += random_cones(59, 150) + random_rank4_cones(13, 30)
    fans = grown_fans()
    for sigma in cones:
        one = Fan(sigma.ambient_rank, [sigma])
        stratum = exceptional_stratum(sigma)
        fans += [one, stratum.subdivision, stratum.quotient.fan]
        fans += [star_subdivision(one, one.cone(s)) for s in one.cones
                 if s and s != one.maximal_cones[0]]
    pairs = non_empty = 0
    for f in fans:
        for ray in f.rays:
            new = star_quotient_fan(f, ray)
            assert _quotient_key(new) == \
                _quotient_key(cone_star_quotient_fan(f, ray)), (f, ray)
            pairs += 1
            non_empty += bool(new.dropped)
    assert pairs >= 5000 and non_empty >= 200, (pairs, non_empty)


def _fields(c: Cone) -> tuple:
    return (c.ambient_rank, c.rays, c.dim, c.perp_rows, c.facet_sets,
            c.facet_normals, c.face_ray_sets())


def test_verdicts_build_no_cone(monkeypatch):
    rank4 = [c for seed in (5, 7, 11) for c in random_rank4_cones(seed, 60)
             if len(c.rays) > 4]
    cones = corpus_cones() + rank4
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    for sigma in cones:
        sigma.facet_normals  # inputs and their facets exist before the spy
    built = []
    real = Cone.__init__

    def spy(self, *args):
        built.append(args)
        real(self, *args)

    clear_package_caches()
    monkeypatch.setattr(Cone, "__init__", spy)
    for sigma in cones:
        verify_vanishing(sigma, 2)
        try:
            verify_k_vanishing(sigma, 2)
        except UserError:  # the box cannot hold the cone
            pass
    strata = [exceptional_stratum(sigma) for sigma in cones]
    assert built == []
    monkeypatch.undo()
    non_simplicial = 0
    for sigma, stratum in zip(cones, strata):
        searched = searched_stratum(sigma)
        for lazy, eager in ((stratum.subdivision, searched[0]),
                            (stratum.quotient.fan, searched[3].fan)):
            for s in lazy.cones:
                assert _fields(lazy.cone(s)) == _fields(eager.cone(s)), \
                    (sigma, s)
        delta = stratum.subdivision
        non_simplicial += any(len(s) != delta.cone(s).dim
                              for s in delta.maximal_cones)
    assert non_simplicial > 0


def _on_a_facet(sigma, v):
    return primitivize(tuple(map(sum, zip(*(
        sigma.rays[i] for i in sigma.facet_sets[0])))))


def _outside(sigma, v):
    return tuple(-x for x in v)


@pytest.mark.parametrize("move", [_on_a_facet, _outside])
def test_star_ray_off_the_interior_is_an_internal_error(monkeypatch, move):
    real = fan.star_vector
    monkeypatch.setattr(fan, "star_vector",
                        lambda sigma: move(sigma, real(sigma)))
    for sigma in corpus_cones():
        with pytest.raises(AssertionError, match="not interior"):
            exceptional_stratum(sigma)

"""exceptional_stratum against the general construction it replaced.

For a full-dimensional cone sigma with interior star vector v, the star
subdivision is Delta = v * (boundary of sigma) and the projection along v
maps the boundary bijectively onto the stratum's fan L, so
exceptional_stratum builds Delta straight from sigma's facets.  The oracle
below is the construction it replaced: the general star_subdivision of the
one-cone fan (a face lattice, containment tests) and the star quotient fan
of v, with the ray matching read off the quotient's pairs.  Every field of
the stratum must agree, the fans in ray order, maximal-cone order and
per-cone ray order too, on the corpus, the negative corpus, 800 seeded
cones in ranks 2-3, the rank-1 cones and 180 seeded rank-4 cones, some of
them with a non-simplicial Delta.  The build searches nothing: it runs no
face lattice and no containment test.
"""

from corpus import corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones, \
    random_rank4_cones
from toricstacks.fan import (
    Cone,
    Fan,
    exceptional_stratum,
    make_cone,
    star_quotient_fan,
    star_subdivision,
    star_vector,
)


def searched_stratum(sigma) -> tuple:
    """The stratum as the general subdivision and quotient built it, with
    the matching failures it used to record asserted absent."""
    f2 = star_subdivision(Fan(sigma.ambient_rank, [sigma]), sigma)
    v = star_vector(sigma)
    v_idx = f2.rays.index(v)
    quotient = star_quotient_fan(f2, v)
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

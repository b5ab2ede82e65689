"""Checks fan.primitive_collections against two oracles.

primitive_collections runs Apriori over ray-index tuples, each face
carrying the bit mask of the maximal cones that hold it, and leaves out
every ray that all maximal cones hold.  The oracles:
- test_fan.oracle_primitive_collections, a brute force over every subset
  of the rays;
- apriori_rescan, the level-by-level search that rescans every maximal
  cone for each candidate set, kept verbatim from before the masks.
All three must return the same list, in the same order, of frozensets, on
the subdivisions Delta and stratum fans L of the corpus and the negative
corpus, on a seeded sample of the surface and solid census cones' Delta
and L, on seeded complete fans of rank 3 and 4 built by star subdivision
of the simplex fan, and on a single-cone fan and the point fan.
"""

import random

import pytest

import test_solid_census
import test_surface_census
from corpus import corpus_cones
from test_fan import oracle_primitive_collections
from test_negative_corpus import NEGATIVE
from toricstacks.fan import (
    Cone,
    Fan,
    exceptional_stratum,
    primitive_collections,
    star_subdivision,
)


def apriori_rescan(f: Fan) -> list[frozenset]:
    n = len(f.rays)
    maximal = f.maximal_cones
    level = {(i,) for i in range(n)}
    collections: list[frozenset] = []
    while level:
        grown = set()
        for t in level:
            for i in range(t[-1] + 1, n):
                u = t + (i,)
                if any(m.issuperset(u) for m in maximal):
                    grown.add(u)
                elif all(u[:j] + u[j + 1:] in level for j in range(len(t))):
                    collections.append(frozenset(u))
        level = grown
    return sorted(collections, key=sorted)


def assert_agree(f: Fan) -> list:
    got = primitive_collections(f)
    assert all(type(c) is frozenset for c in got), f
    assert got == oracle_primitive_collections(f), f
    assert got == apriori_rescan(f), f
    return got


def stratum_fans(cones) -> list:
    fans = []
    for sigma in cones:
        stratum = exceptional_stratum(sigma)
        fans += [stratum.subdivision, stratum.quotient.fan]
    return fans


def census_cones(seed: int) -> list:
    rng = random.Random(seed)
    surfaces = rng.sample(test_surface_census.TYPES, 40)
    solids = rng.sample(test_solid_census.TYPES, 40)
    return [test_surface_census.surface_cone(*t) for t in surfaces] \
        + [test_solid_census.type_cone(form) for form in solids]


def simplex_fan(rank: int) -> Fan:
    rays = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays.append(tuple([-1] * rank))
    return Fan(rank, [Cone(rank, [r for r in rays if r != skip])
                      for skip in rays])


def complete_fans(seed: int, count: int) -> list:
    """Simplex fans of rank 3 and 4, each star-subdivided at up to five
    seeded nonzero cones."""
    rng = random.Random(seed)
    fans = []
    for trial in range(count):
        f = simplex_fan(3 + trial % 2)
        for _ in range(rng.randint(0, 5)):
            s = rng.choice(sorted((s for s in f.cones if s), key=sorted))
            f = star_subdivision(f, f.cone(s))
        fans.append(f)
    return fans


SETS = {
    "corpus": lambda: stratum_fans(corpus_cones()),
    "negative": lambda: stratum_fans(
        [Cone(n, rays) for n, rays, _c, _k in NEGATIVE]),
    "census": lambda: stratum_fans(census_cones(20190601)),
    "complete": lambda: complete_fans(20190602, 40),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_masks_match_both_oracles(name):
    fans = SETS[name]()
    found = [assert_agree(f) for f in fans]
    assert sum(map(bool, found)) > len(fans) // 2
    # Collections of three or more rays occur, so the search goes past
    # its second level.
    if name in ("corpus", "complete"):
        assert any(len(c) > 2 for cs in found for c in cs)


def test_single_cone_and_point_fans():
    cone = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert assert_agree(Fan(3, [cone])) == []
    assert assert_agree(Fan(2, [Cone(2, [])])) == []

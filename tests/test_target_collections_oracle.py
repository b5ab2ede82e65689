"""The stratum side of the Chow comparison reuses the subdivision's
primitive collections.

v lies in every maximal cone of Delta = v * (boundary of sigma), and a set
of surviving rays lies in v + F exactly when its image under dst lies in
pi(F), a maximal cone of L = pi(boundary of sigma).  So L's primitive
collections are Delta's carried across dst, and exceptional_comparison
builds the target presentation from them instead of searching L again.
The oracle is the search it replaced: primitive_collections(L), order
included, and chow_ring_stack(L) for the whole target presentation.  The
cones are the corpus, the negative corpus, 400 seeded cones in ranks 2-3
and 180 seeded rank-4 cones, some with a non-simplicial Delta; the
comparison is built whether or not it later fails.
"""

from corpus import corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones, \
    random_rank4_cones
from toricstacks import chow
from toricstacks.chow import (
    ComparisonError,
    chow_ring_stack,
    exceptional_comparison,
    exceptional_stratum,
)
from toricstacks.fan import make_cone, primitive_collections


def test_target_collections_are_the_subdivisions_carried_across(
        monkeypatch):
    built = []
    presentation = chow.chow_presentation

    def recording(n, kernel, collections):
        collections = list(collections)
        p = presentation(n, kernel, collections)
        built.append((collections, p))
        return p

    monkeypatch.setattr(chow, "chow_presentation", recording)
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    for seed in (11, 23):
        cones += random_cones(seed, 200)
    cones += [c for seed in (5, 7, 11) for c in random_rank4_cones(seed, 60)]
    unidentified = 0
    for sigma in cones:
        stratum = exceptional_stratum(sigma)
        built.clear()
        try:
            exceptional_comparison(stratum, 1)
        except ComparisonError:
            unidentified += 1
        assert len(built) == 2  # the source, then the target
        collections, target = built[1]
        quotient = stratum.quotient.fan
        assert collections == primitive_collections(quotient), sigma
        assert target == chow_ring_stack(quotient), sigma
    assert unidentified > 0

"""The h-vector gives the free rank of every Chow piece, with no SNF.

The star subdivision Delta of a full-dimensional cone at its star vector is
the join of that ray with the cone's proper faces, and the star quotient
fan L is its link, a complete fan.  When every cone is simplicial, the ray
forms are a linear system of parameters of the Stanley-Reisner ring over Q
and balls and spheres are Cohen-Macaulay (Reisner 1976), so the degree-k
piece has free rank h_k (Stanley, Combinatorics and Commutative Algebra,
ch. II).  h(Delta) = h(L) followed by 0, and h(L) is palindromic
(Dehn-Sommerville).  Checked on the corpus, the negative corpus and 400
seeded cones, against the presentations chow_ring_stack builds from the
ray relations alone, and on 180 seeded rank-4 cones, where a cone with a
non-simplicial facet gives a non-simplicial Delta that h_vector refuses.
"""

import pytest

from corpus import corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones, \
    random_rank4_cones
from toricstacks.chow import chow_ring_stack, exceptional_stratum
from toricstacks.fan import Fan, h_vector, make_cone
from toricstacks.graded import graded_piece


def free_ranks(f: Fan, top: int) -> tuple:
    p = chow_ring_stack(f)
    return tuple(graded_piece(p, k).free_rank for k in range(top + 1))


def test_h_vector_of_small_fans():
    p2 = Fan.from_data(2, [[1, 0], [0, 1], [-1, -1]],
                       [[0, 1], [1, 2], [0, 2]])
    assert h_vector(p2) == (1, 1, 1)
    assert h_vector(Fan.from_data(2, [[1, 0], [0, 1]], [[0, 1]])) \
        == (1, 0, 0)
    assert h_vector(Fan.from_data(1, [[1], [-1]], [[0], [1]])) == (1, 1)
    assert h_vector(Fan.from_data(0, [], [[]])) == (1,)


def test_h_vector_needs_a_simplicial_fan():
    square = Fan.from_data(3, [[1, 0, 1], [0, -1, 1], [-1, 0, 1],
                               [0, 1, 1]], [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="simplicial"):
        h_vector(square)


def assert_h_identities(cone) -> None:
    rank = cone.ambient_rank
    stratum = exceptional_stratum(cone)
    h_source = h_vector(stratum.subdivision)
    h_target = h_vector(stratum.quotient.fan)
    assert h_source == h_target + (0,), cone
    assert h_target == h_target[::-1], cone
    assert free_ranks(stratum.subdivision, rank + 1) == h_source + (0,)
    assert free_ranks(stratum.quotient.fan, rank) == h_target + (0,)


def test_piece_free_ranks_are_the_h_vector():
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    cones += random_cones(11, 200) + random_cones(23, 200)
    for cone in cones:
        assert_h_identities(cone)


def test_rank4_cones_h_vector():
    non_simplicial = 0
    for seed in (5, 7, 11):
        for cone in random_rank4_cones(seed, 60):
            delta = exceptional_stratum(cone).subdivision
            if all(len(s) == delta.cone(s).dim for s in delta.maximal_cones):
                assert_h_identities(cone)
                continue
            non_simplicial += 1
            with pytest.raises(ValueError, match="simplicial"):
                h_vector(delta)
    assert non_simplicial == 8

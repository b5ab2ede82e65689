"""verify_vanishing stops computing pieces at the first zero degree.

The Chow presentation has one degree-1 variable per ray, so its ring is
generated in degree 1 and A^K = 0 forces A^k = A^1 * A^(k-1) = 0 for every
k >= K.  verify_vanishing records the pieces after the first zero piece of
degree >= 1 as 0 without computing them.  The oracle here computes every
degree with graded_piece and must agree, on the corpus, the negative
corpus and seeded random cones.
"""

from corpus import CORPUS_DATA, corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones
from toricstacks.chow import (
    _chow_presentation,
    exceptional_stratum,
    verify_vanishing,
)
from toricstacks.fan import make_cone
from toricstacks.graded import graded_piece

# First degree >= 1 whose piece is 0, per corpus cone (CORPUS_DATA order):
# the cone's rank every time.
FIRST_ZERO_DEGREE = (2, 2, 2, 2, 2, 2, 2, 2, 2,
                     3, 3, 3, 3, 3, 3, 3,
                     4, 4, 4, 4)


def every_piece(cone, max_deg: int) -> tuple:
    source = _chow_presentation(exceptional_stratum(cone).subdivision_cox)
    pieces = []
    for k in range(max_deg + 1):
        group = graded_piece(source, k)
        pieces.append((k, group.free_rank, group.torsion))
    return tuple(pieces)


def first_zero_degree(pieces) -> int | None:
    return next((k for k, free, torsion in pieces
                 if k >= 1 and (free, torsion) == (0, ())), None)


def test_pieces_equal_every_degree_computed():
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    cones += random_cones(47, 200)
    shortcut = 0
    for cone in cones:
        max_deg = cone.ambient_rank + 2
        pieces = verify_vanishing(cone, max_deg).pieces
        assert pieces == every_piece(cone, max_deg), cone.rays
        zero = first_zero_degree(pieces)
        if zero is not None and zero < max_deg:
            shortcut += 1
    # The shortcut is taken, so the comparison is not vacuous.
    assert shortcut >= len(corpus_cones())


def test_corpus_first_zero_degree():
    assert len(FIRST_ZERO_DEGREE) == len(CORPUS_DATA)
    for (rank, _rays), cone, zero in zip(CORPUS_DATA, corpus_cones(),
                                         FIRST_ZERO_DEGREE):
        pieces = verify_vanishing(cone, rank + 2).pieces
        assert first_zero_degree(pieces) == zero, cone.rays
        # Free and torsion-free below it, zero from it on.
        assert all(free and not torsion
                   for k, free, torsion in pieces if k < zero)
        assert all((free, torsion) == (0, ())
                   for k, free, torsion in pieces if k >= zero)

"""Pins the exact normal form of every corpus graded piece.

The digest covers torsion, free rank, projection and lift of each
graded_piece of chow_ring_stack(star_subdivision(cone)), for every corpus
cone at degrees 0-4 and, except the costly cone 18, at degree 5.  The
pinned value was computed on the code as it stood before the eliminations
in intlinalg stopped tracking transforms no caller reads, so it holds that
change to bit-identical output: any change to the sequence of row/column
operations, and hence to a canonical projection or lift, shows up here.
"""

import hashlib

from toricstacks.chow import chow_ring_stack
from toricstacks.fan import Fan, star_subdivision
from toricstacks.graded import graded_piece

from corpus import corpus_cones

PINNED_DIGEST = "62c0769f592f99d53e2016b274ed02115fde2e34f1563f69532d192289110486"
MAX_DEG = 4
SLOW_AT_DEG_5 = {18}


def normal_form_digest() -> str:
    h = hashlib.sha256()
    for idx, cone in enumerate(corpus_cones()):
        f = Fan(cone.ambient_rank, [cone])
        source = chow_ring_stack(star_subdivision(f, cone))
        top = MAX_DEG if idx in SLOW_AT_DEG_5 else MAX_DEG + 1
        for k in range(top + 1):
            g = graded_piece(source, k).group
            h.update(repr((idx, k, g.torsion, g.free_rank, g.projection,
                           g.lift)).encode())
    return h.hexdigest()


def test_corpus_normal_forms_pinned():
    assert normal_form_digest() == PINNED_DIGEST

"""Pins the exact normal form of every corpus graded piece.

Each digest covers torsion, free rank, projection and lift of graded
pieces of chow_ring_stack(star_subdivision(cone)), carried back to the
original monomial basis (carry_back.carried_back).  PINNED_DIGEST covers
every corpus cone at degrees 0-4 and, except cone 18, at degree 5; it was
computed on the code as it stood before the eliminations in intlinalg
stopped tracking transforms no caller reads.  PINNED_DIGEST_CONE_18_DEG_5
covers cone 18 at degree 5; it was computed on the code as it stood before
graded_piece eliminated the linear relations, when that piece was still
expanded over one variable per ray.  Any change to the sequence of
row/column operations, and hence to a canonical projection or lift, shows
up here.
"""

import hashlib

from toricstacks.chow import chow_ring_stack
from toricstacks.fan import Fan, star_subdivision
from carry_back import carried_back
from corpus import corpus_cones

PINNED_DIGEST = "62c0769f592f99d53e2016b274ed02115fde2e34f1563f69532d192289110486"
PINNED_DIGEST_CONE_18_DEG_5 = \
    "1025a688d9196945a1f66c7ec7723fc22feb0ddf5f80bf9ef12bb471b5588ab1"
MAX_DEG = 4
DEG_5_PINNED_SEPARATELY = {18}


def normal_form_digest(degrees_of) -> str:
    """sha256 over the pieces of each corpus cone at degrees_of(index)."""
    h = hashlib.sha256()
    for idx, cone in enumerate(corpus_cones()):
        degrees = degrees_of(idx)
        if not degrees:
            continue
        f = Fan(cone.ambient_rank, [cone])
        source = chow_ring_stack(star_subdivision(f, cone))
        for k in degrees:
            g = carried_back(source, k)
            h.update(repr((idx, k, g.torsion, g.free_rank, g.projection,
                           g.lift)).encode())
    return h.hexdigest()


def test_corpus_normal_forms_pinned():
    def degrees_of(idx):
        top = MAX_DEG if idx in DEG_5_PINNED_SEPARATELY else MAX_DEG + 1
        return range(top + 1)

    assert normal_form_digest(degrees_of) == PINNED_DIGEST


def test_cone_18_degree_5_pinned():
    assert normal_form_digest(lambda idx: (5,) if idx == 18 else ()) \
        == PINNED_DIGEST_CONE_18_DEG_5

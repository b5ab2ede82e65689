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

PINNED_CLASS_GROUP_DIGEST covers the class groups A_k: chow_relation_data
and the normal form of chow_groups in every degree k, on three fans of each
corpus and negative-corpus cone (the one-cone fan, its exceptional_stratum
subdivision Delta and its stratum fan L).  It was computed on the code as
it stood while both functions still lived in chow.
"""

import hashlib

from toricstacks.chow import chow_ring_stack
from toricstacks.fan import Cone, Fan, chow_groups, chow_relation_data, \
    exceptional_stratum, star_subdivision
from carry_back import carried_back
from corpus import corpus_cones
from test_negative_corpus import NEGATIVE

PINNED_DIGEST = "62c0769f592f99d53e2016b274ed02115fde2e34f1563f69532d192289110486"
PINNED_DIGEST_CONE_18_DEG_5 = \
    "1025a688d9196945a1f66c7ec7723fc22feb0ddf5f80bf9ef12bb471b5588ab1"
PINNED_CLASS_GROUP_DIGEST = \
    "4db882ee6fbde1087e1f9a10181e856494683059eb6a200bb236f0b82e6cc945"
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


def class_group_digest() -> str:
    """sha256 over the class-group relations and normal form in every
    degree of the one-cone fan, Delta and L of each pinned cone."""
    h = hashlib.sha256()
    cones = corpus_cones() + [Cone(rank, rays)
                              for rank, rays, _chow, _k in NEGATIVE]
    for idx, cone in enumerate(cones):
        stratum = exceptional_stratum(cone)
        fans = (Fan(cone.ambient_rank, [cone]), stratum.subdivision,
                stratum.quotient.fan)
        for which, f in enumerate(fans):
            for k in range(f.ambient_rank + 1):
                g = chow_groups(f, k)
                h.update(repr((idx, which, k, chow_relation_data(f, k),
                               g.torsion, g.free_rank, g.projection,
                               g.lift)).encode())
    return h.hexdigest()


def test_class_groups_pinned():
    assert class_group_digest() == PINNED_CLASS_GROUP_DIGEST

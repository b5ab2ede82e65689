"""Pins the exact normal form of every corpus graded piece.

Each digest covers torsion, free rank and projection of graded pieces of
chow_ring_stack(star_subdivision(cone)), carried back to the original
monomial basis (carry_back.carried_back).  PINNED_DIGEST covers every
corpus cone at degrees 0-4 and, except cone 18, at degree 5;
PINNED_DIGEST_CONE_18_DEG_5 covers cone 18 at degree 5.  Any change to
the sequence of row/column operations, and hence to a canonical
projection, shows up here.  The pieces' lifts were hashed too until the
eliminations in intlinalg stopped tracking an inverse transform and
AbelianGroup lost its lift; all three digests were recomputed without the
lift on the code as it stood just before, so they prove every projection
unchanged by that step.  The earlier, lift-hashing digests had held since
the eliminations stopped tracking transforms no caller reads (the corpus
digest) and since graded_piece eliminated the linear relations (cone 18).

PINNED_CLASS_GROUP_DIGEST covers the class groups A_k: chow_relation_data
and the normal form of chow_groups in every degree k, on three fans of each
corpus and negative-corpus cone (the one-cone fan, its exceptional_stratum
subdivision Delta and its stratum fan L).  It was first computed on the
code as it stood while both functions still lived in chow.
"""

import hashlib

from toricstacks.chow import chow_ring_stack
from toricstacks.fan import Cone, Fan, chow_groups, chow_relation_data, \
    exceptional_stratum, star_subdivision
from carry_back import carried_back
from corpus import corpus_cones
from test_negative_corpus import NEGATIVE

PINNED_DIGEST = "c52211cc8371c99b0fd9133e645457521e8d2455f5f9b53323b357235bcbeea2"
PINNED_DIGEST_CONE_18_DEG_5 = \
    "05d80597bec86a76874a9d59635a6b82bbc1821f8db4c044b120746f1e74077b"
PINNED_CLASS_GROUP_DIGEST = \
    "bdb57043d9ec66258c49ce8f398430f3b2104344170675079c69aa63cdd5c5aa"
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
            h.update(repr((idx, k, g.torsion, g.free_rank,
                           g.projection)).encode())
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
                               g.torsion, g.free_rank,
                               g.projection)).encode())
    return h.hexdigest()


def test_class_groups_pinned():
    assert class_group_digest() == PINNED_CLASS_GROUP_DIGEST

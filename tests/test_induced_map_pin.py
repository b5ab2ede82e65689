"""Pins induced_map and is_iso_up_to on the certified comparison maps.

COMPARISON_DIGEST is a sha256 over the induced map in degrees 0-3 and the
verdicts of is_iso_up_to(rm, 3), for the map of every corpus cone and every
seeded random cone (test_chow_certificate.random_cones(31, 200)) whose
exceptional comparison is certified.  Piece coordinates are canonical, so
the induced map depends only on the map, not on which preimages
induced_map picks for a reduced variable or for a source coordinate.  The
digest was computed on the code as it stood while the eliminations in
intlinalg still tracked an inverse transform, when induced_map read the
source piece's lift and _reduction's inverse map psi; it holds now that
induced_map solves for both.
"""

import hashlib

from corpus import corpus_cones
from test_chow_certificate import random_cones
from toricstacks.chow import (ComparisonError, exceptional_comparison,
                              exceptional_stratum)
from toricstacks.graded import induced_map, is_iso_up_to

COMPARISON_DIGEST = \
    "8bb7a3c43eec272f23ea1ddf04f5a56aa8850448d575ade98555647c951766b4"
MAX_DEG = 3


def comparison_digest() -> tuple[str, int]:
    """The digest and the number of certified maps it covers."""
    h = hashlib.sha256()
    count = 0
    for idx, cone in enumerate(corpus_cones() + random_cones(31, 200)):
        try:
            rm = exceptional_comparison(exceptional_stratum(cone), 0).map
        except ComparisonError:
            continue
        count += 1
        for k in range(MAX_DEG + 1):
            h.update(repr((idx, k, induced_map(rm, k))).encode())
        h.update(repr((idx, sorted(is_iso_up_to(rm, MAX_DEG).items())))
                 .encode())
    return h.hexdigest(), count


def test_induced_maps_pinned():
    digest, count = comparison_digest()
    assert count >= 150
    assert digest == COMPARISON_DIGEST

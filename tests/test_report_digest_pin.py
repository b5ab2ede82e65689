"""Pins the bytes of verify_vanishing reports on cones no benchmark runs.

REPORT_DIGEST is a sha256 over repr(tuple(verify_vanishing(cone, d))) for
d in 0, 1, 4 and 5 (outer loop) and, for each d, every cone of
corpus_cones() + random_cones(11, 200) + random_cones(23, 200) (inner
loop), with the package caches left as they are.  The seeded cones include
unidentified cones, cones whose comparison fails in some degree and cones
with torsion, which the corpus does not.  It was computed on the code as
it stood when a degree's verdict still came from an inverse-substitution
certificate or, failing that, from the induced map of is_iso_up_to; any
change to a verdict, a piece, a failure message or an extra row shows up
here.
"""

import hashlib

from corpus import corpus_cones
from test_chow_certificate import random_cones
from toricstacks.chow import verify_vanishing

REPORT_DIGEST = \
    "797d2a86e1ad06e078be2546230ab875d0047e0692eacf0986d68753c5f68ff5"
DEGREES = (0, 1, 4, 5)


def test_report_digest():
    cones = corpus_cones() + random_cones(11, 200) + random_cones(23, 200)
    digest = hashlib.sha256()
    for d in DEGREES:
        for cone in cones:
            digest.update(repr(tuple(verify_vanishing(cone, d))).encode())
    assert digest.hexdigest() == REPORT_DIGEST

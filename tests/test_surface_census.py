"""Pins how far the reduction reaches on every affine toric surface.

Every 2-dimensional strongly convex cone is GL2(Z)-equivalent to
cone(e2, d*e1 - k*e2) with 0 <= k < d and gcd(d, k) = 1, the type
1/d(1, k) (Cox-Little-Schenck, Toric Varieties, ch. 10).  So a census over
(d, k) with d <= 30, 278 types, covers every affine toric surface up to
that multiplicity, where the corpus (tests/corpus.py) was screened to pass.

Each type is pinned by each verifier's leg tuple:
- verify_vanishing at max_deg 4: (identified, first degree that does not
  compare as iso, first degree whose piece carries torsion, conclusion);
- verify_k_vanishing at box 3: (identified, stabilized, window torsion,
  conclusion).
The census is pinned by the digest of all tuples, plus readable counts.
Two oracles check it independently of the pin: 1/d(1, k) and 1/d(1, k')
with k * k' = 1 mod d are one cone up to swapping the rays, a GL2(Z) map,
and a seeded unimodular image of each cone is the same cone in another
basis; both must give the same tuples.

Every input cone here is simplicial and full-dimensional, so each is
known full-dimensional by its determinant and builds its facets over the
identity span, with no kernel computed.
"""

import hashlib
import json
import random
from collections import Counter
from math import gcd

from toricstacks.chow import verify_vanishing
from toricstacks.fan import Cone
from toricstacks.ktheory import verify_k_vanishing

MAX_D = 30
DIGEST = "549c187126bd68fe8956140b023628afa40b103becbd63509a50203401763eec"
TYPES = [(d, k) for d in range(1, MAX_D + 1) for k in range(d)
         if gcd(d, k) == 1]


def surface_cone(d: int, k: int) -> Cone:
    return Cone(2, [(0, 1), (d, -k)])


def legs(c: Cone) -> tuple:
    r = verify_vanishing(c, 4)
    first_non_iso = next((deg for deg, ok in r.verdicts if not ok), None)
    first_torsion = next((deg for deg, _free, t in r.pieces if t), None)
    q = verify_k_vanishing(c, 3)
    return ((r.identified, first_non_iso, first_torsion, r.conclusion),
            (q.identified, q.stabilized, q.torsion, q.conclusion))


def census() -> dict:
    return {t: legs(surface_cone(*t)) for t in TYPES}


def digest(table: dict) -> str:
    rows = [[d, k, list(chow), list(kt)]
            for (d, k), (chow, kt) in sorted(table.items())]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def unimodular(rng: random.Random):
    """A seeded 2 x 2 integer matrix of determinant +-1, as rows: a product
    of elementary shears, with a row swap half the time."""
    g = [[1, 0], [0, 1]]
    for _ in range(4):
        i, s = rng.randrange(2), rng.choice((-3, -2, -1, 1, 2, 3))
        g[i] = [a + s * b for a, b in zip(g[i], g[1 - i])]
    return g[::-1] if rng.random() < 0.5 else g


def test_census_counts_and_digest():
    table = census()
    assert len(table) == 278
    chow = Counter(v[0] for v in table.values())
    kt = Counter(v[1] for v in table.values())
    # Chow: true exactly where Delta is smooth (d = 1, or k = 1); every
    # other type is identified but fails in degree 1, on torsion.
    assert chow == {(True, None, None, True): 30,
                    (True, 1, 1, False): 248}
    assert {t for t, v in table.items() if v[0][3]} == \
        {t for t in TYPES if t[0] == 1 or t[1] == 1}
    # K: identified, stabilized and torsion-free on the same 30 types,
    # unidentified on the other 248.
    assert kt == {(True, True, (), True): 30,
                  (False, False, None, False): 248}
    assert all(v[0][3] == v[1][3] for v in table.values())
    assert digest(table) == DIGEST


def test_inverse_types_agree():
    table = census()
    for (d, k), legs_dk in table.items():
        k_inv = pow(k, -1, d) if d > 1 else 0
        assert table[d, k_inv] == legs_dk, (d, k, k_inv)


def test_unimodular_images_agree():
    rng = random.Random(20261020)
    table = census()
    for (d, k), legs_dk in table.items():
        g = unimodular(rng)
        rays = [tuple(sum(a * x for a, x in zip(row, r)) for row in g)
                for r in surface_cone(d, k).rays]
        assert legs(Cone(2, rays)) == legs_dk, (d, k, g)

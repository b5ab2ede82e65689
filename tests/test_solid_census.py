"""Pins how far the reduction reaches on every simplicial 3-cone of small
multiplicity.

Write a simplicial 3-cone's rays as the columns of a matrix and put it in
row Hermite normal form: the cone is GL3(Z)-equivalent to one with rays
(1, 0, 0), (a, b, 0) and (c, e, f), where 0 <= a < b, 0 <= c, e < f and
each column is primitive; its multiplicity is b * f.  Reordering the rays
changes that form, so the least HNF over the 6 ray orders is a complete
invariant.  Multiplicity <= 16 gives 395 types, 68 of them of
multiplicity <= 8.  A type is isolated when every 2-face is smooth (its
two rays extend to a basis): the smooth cone and 140 isolated
singularities.

Each type is pinned by each verifier's leg tuple, as in
tests/test_surface_census.py:
- verify_vanishing at max_deg 4: (identified, first degree that does not
  compare as iso, first degree whose piece carries torsion, conclusion);
- verify_k_vanishing at box 3: (identified, stabilized, window torsion,
  conclusion).
The census is pinned by the digest of all tuples with the isolated flags,
plus readable counts.  Two oracles check it independently of the pin: a
seeded unimodular image of each cone, and a seeded permutation of its
rays, are the same cone and must give the same tuples.

Most types carry torsion in their pieces, so this census, with the
negative corpus, is what drives the Smith branch of the verdicts.
"""

import hashlib
import json
import random
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import gcd

from toricstacks.chow import verify_vanishing
from toricstacks.fan import Cone
from toricstacks.intlinalg import from_columns, hnf_form, transpose
from toricstacks.ktheory import verify_k_vanishing

MAX_MULT = 16
DIGEST = "8c1ac5ce402aeb388b09ce7477519d55008672bcc44009c36af8b7ff9ad82b76"


def canonical(rays) -> tuple:
    """The least row HNF of the ray matrix (rays as columns) over the ray
    orders."""
    return min(hnf_form(from_columns(order, 3))
               for order in permutations(rays))


def hnf_types() -> list:
    """The canonical forms of the simplicial 3-cones of multiplicity at
    most MAX_MULT, sorted."""
    found = set()
    for b in range(1, MAX_MULT + 1):
        for f in range(1, MAX_MULT // b + 1):
            for a in range(b):
                if gcd(a, b) != 1:
                    continue
                for c in range(f):
                    for e in range(f):
                        if gcd(gcd(c, e), f) == 1:
                            found.add(canonical(
                                [(1, 0, 0), (a, b, 0), (c, e, f)]))
    return sorted(found)


TYPES = hnf_types()


def type_cone(form) -> Cone:
    return Cone(3, transpose(form))


def isolated(form) -> bool:
    """Is every 2-face smooth: do the 2 x 2 minors of each pair of rays
    have gcd 1?"""
    rays = transpose(form)
    for i in range(3):
        for j in range(i + 1, 3):
            r, s = rays[i], rays[j]
            minors = [r[p] * s[q] - r[q] * s[p]
                      for p in range(3) for q in range(p + 1, 3)]
            if gcd(*minors) != 1:
                return False
    return True


def legs(c: Cone) -> tuple:
    r = verify_vanishing(c, 4)
    first_non_iso = next((deg for deg, ok in r.verdicts if not ok), None)
    first_torsion = next((deg for deg, _free, t in r.pieces if t), None)
    q = verify_k_vanishing(c, 3)
    return ((r.identified, first_non_iso, first_torsion, r.conclusion),
            (q.identified, q.stabilized, q.torsion, q.conclusion))


@lru_cache(maxsize=None)
def census() -> dict:
    return {t: legs(type_cone(t)) for t in TYPES}


def digest(table: dict) -> str:
    rows = [[[list(row) for row in t], isolated(t), list(chow), list(kt)]
            for t, (chow, kt) in sorted(table.items())]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def unimodular(rng: random.Random):
    """A seeded 3 x 3 integer matrix of determinant +-1, as rows: a product
    of elementary shears, then a seeded row order."""
    g = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-2, -1, 1, 2))
        g[i] = [x + s * y for x, y in zip(g[i], g[j])]
    rng.shuffle(g)
    return g


def test_enumeration():
    assert len(TYPES) == 395
    assert sum(1 for t in TYPES if t[1][1] * t[2][2] <= 8) == 68
    assert sum(map(isolated, TYPES)) == 141
    for t in TYPES:
        assert canonical(transpose(t)) == t
        assert t[1][0] == t[2][0] == t[2][1] == 0 and t[0][0] == 1


def test_census_counts_and_digest():
    table = census()
    chow = Counter(v[0] for v in table.values())
    kt = Counter(v[1] for v in table.values())
    # Chow: true on 16 types, every one isolated; 84 more are identified
    # and iso in every degree but carry torsion from degree 1, 6 are
    # identified but not iso in degree 1, and the substitution certificate
    # fails on the other 289, whose subdivided pieces carry torsion from
    # degree 1 too.
    assert chow == {(True, None, None, True): 16,
                    (True, None, 1, False): 84,
                    (True, 1, 1, False): 6,
                    (False, None, 1, False): 289}
    # K: identified, stabilized and torsion-free on 100 types, unidentified
    # on the other 295.
    assert kt == {(True, True, (), True): 100,
                  (False, False, None, False): 295}
    # Every Chow conclusion is a K conclusion too; 59 of the 100 K
    # conclusions are isolated types.
    assert Counter((isolated(t), v[0][3], v[1][3])
                   for t, v in table.items()) == {
        (True, True, True): 16, (True, False, True): 43,
        (False, False, True): 41, (True, False, False): 82,
        (False, False, False): 213}
    assert digest(table) == DIGEST


def test_unimodular_images_agree():
    rng = random.Random(20261020)
    table = census()
    for t, legs_t in table.items():
        g = unimodular(rng)
        rays = [tuple(sum(a * x for a, x in zip(row, r)) for row in g)
                for r in type_cone(t).rays]
        assert legs(Cone(3, rays)) == legs_t, (t, g)


def test_ray_permutations_agree():
    rng = random.Random(20261021)
    table = census()
    for t, legs_t in table.items():
        rays = list(type_cone(t).rays)
        rng.shuffle(rays)
        assert legs(Cone(3, rays)) == legs_t, (t, rays)

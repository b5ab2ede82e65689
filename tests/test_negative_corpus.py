"""Negative corpus: cones on which a vanishing verifier fails, with every
report pinned.

tests/corpus.py lists only cones screened to pass, so these cones exercise
the failure paths instead:
- an identification whose degree comparisons fail on torsion;
- a substitution that fails its well-definedness certificate;
- a stratum exponent lattice that does not map to zero in X(G);
- a boxed window whose radius is smaller than a generator exponent;
- comparisons that hold in every checked degree while the graded pieces
  keep torsion, including cone 0 of fixtures/strongness_example.json
  (A^1 contains Z/3).

The random cones were drawn with random.Random(11) and random.Random(23):
ambient rank 2 or 3, rank or rank + 1 generators with entries in -3..3,
kept when strongly convex and full-dimensional.  Every report is the full
tuple of verify_vanishing(cone, 3) and verify_k_vanishing(cone, 3),
pinned from an implementation in which each verifier built its own
subdivision and ray matching, so a changed verdict, failure reason, star
ray or graded piece shows here.
"""

import pytest

from toricstacks.chow import verify_vanishing
from toricstacks.fan import Cone
from toricstacks.ktheory import verify_k_vanishing

# (ambient rank, generators, Chow report, K report); a K report given as a
# string is the message of the ValueError the verifier raises instead.
NEGATIVE = [
    (2, ((-3, 1), (1, -2)),
     (((-3, 1), (1, -2)),
      (-2, -1),
      3,
      True,
      None,
      (1, -2),
      ((0, True), (1, False), (2, False), (3, False)),
      ((0, 1, ()), (1, 1, (5,)), (2, 0, (5, 5)), (3, 0, (5, 5))),
      'Z',
      False),
     (((-3, 1), (1, -2)),
      (-2, -1),
      3,
      False,
      "the stratum's exponent lattice does not map to zero; the character "
      'groups are not identified over Z',
      None,
      None,
      False,
      None,
      False)),
    (2, ((-2, 1), (-1, 3)),
     (((-2, 1), (-1, 3)),
      (-3, 4),
      3,
      True,
      None,
      (1, -2),
      ((0, True), (1, False), (2, False), (3, False)),
      ((0, 1, ()), (1, 1, (5,)), (2, 0, (5, 5)), (3, 0, (5, 5))),
      'Z',
      False),
     (((-2, 1), (-1, 3)),
      (-3, 4),
      3,
      False,
      "the stratum's exponent lattice does not map to zero; the character "
      'groups are not identified over Z',
      None,
      None,
      False,
      None,
      False)),
    (3, ((3, 2, -1), (-3, 2, -3), (1, -2, 1)),
     (((3, 2, -1), (-3, 2, -3), (1, -2, 1)),
      (1, 2, -3),
      3,
      True,
      None,
      (1, -1, -1),
      ((0, True), (1, False), (2, False), (3, False)),
      ((0, 1, ()),
       (1, 1, (4, 4)),
       (2, 1, (4, 4, 4, 4, 4)),
       (3, 0, (4, 4, 4, 4, 4, 4, 4, 4, 4))),
      'Z',
      False),
     (((3, 2, -1), (-3, 2, -3), (1, -2, 1)),
      (1, 2, -3),
      3,
      False,
      "the stratum's exponent lattice does not map to zero; the character "
      'groups are not identified over Z',
      None,
      None,
      False,
      None,
      False)),
    (3, ((-1, 3, 3), (-1, 0, -1), (2, -3, -3)),
     (((-1, 3, 3), (-1, 0, -1), (2, -3, -3)),
      (0, 0, -1),
      3,
      True,
      None,
      (0, -1, 0),
      ((0, True), (1, True), (2, True), (3, True)),
      ((0, 1, ()), (1, 1, (3,)), (2, 1, (3, 3)), (3, 0, (3, 3, 3))),
      'Z',
      False),
     (((-1, 3, 3), (-1, 0, -1), (2, -3, -3)),
      (0, 0, -1),
      3,
      True,
      None,
      9,
      (),
      True,
      True,
      True)),
    (3, ((1, -1, 0), (1, -1, 2), (2, 0, -3), (2, 1, 0)),
     (((1, -1, 0), (1, -1, 2), (2, 0, -3), (2, 1, 0)),
      (6, -1, -1),
      3,
      True,
      None,
      (-14, 0, -13, 26),
      ((0, True), (1, True), (2, True), (3, True)),
      ((0, 1, ()), (1, 2, ()), (2, 1, (2,)), (3, 0, (2, 27170))),
      'Z',
      False),
     'box radius 3 is smaller than a generator exponent [-2, -9]'),
    (3, ((3, 1, -1), (-1, -1, 0), (-1, -2, 3)),
     (((3, 1, -1), (-1, -1, 0), (-1, -2, 3)),
      (1, -2, 2),
      3,
      False,
      'substitution does not map relations into relations; witness (1, '
      '(((1, 0, 0, 0), 1), ((0, 0, 1, 0), 4), ((0, 0, 0, 1), 5)))',
      None,
      (),
      ((0, 1, ()), (1, 1, (7,)), (2, 1, (7, 7)), (3, 0, (7, 7, 7))),
      'Z',
      False),
     (((3, 1, -1), (-1, -1, 0), (-1, -2, 3)),
      (1, -2, 2),
      3,
      False,
      "the stratum's exponent lattice does not map to zero; the character "
      'groups are not identified over Z',
      None,
      None,
      False,
      None,
      False)),
    (3, ((-1, -2, 0), (-1, 0, 1), (2, 0, 3), (1, -1, 1)),
     (((-1, -2, 0), (-1, 0, 1), (2, 0, 3), (1, -1, 1)),
      (1, -3, 5),
      3,
      False,
      'substitution does not map relations into relations; witness (1, '
      '(((1, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 0), 5), ((0, 0, 0, 1, 0), 3), '
      '((0, 0, 0, 0, 1), 9)))',
      None,
      (),
      ((0, 1, ()), (1, 2, (5,)), (2, 1, (5, 5, 5)), (3, 0, (5, 5, 5, 180))),
      'Z',
      False),
     (((-1, -2, 0), (-1, 0, 1), (2, 0, 3), (1, -1, 1)),
      (1, -3, 5),
      3,
      False,
      "the stratum's exponent lattice does not map to zero; the character "
      'groups are not identified over Z',
      None,
      None,
      False,
      None,
      False)),
    (3, ((1, 0, 1), (1, 1, 1), (1, 0, 4)),
     (((1, 0, 1), (1, 1, 1), (1, 0, 4)),
      (3, 1, 6),
      3,
      True,
      None,
      (0, -1, 0),
      ((0, True), (1, True), (2, True), (3, True)),
      ((0, 1, ()), (1, 1, (3,)), (2, 1, (3, 3)), (3, 0, (3, 3, 3))),
      'Z',
      False),
     (((1, 0, 1), (1, 1, 1), (1, 0, 4)),
      (3, 1, 6),
      3,
      True,
      None,
      9,
      (),
      True,
      True,
      True)),
]


@pytest.mark.parametrize("rank, rays, chow, k", NEGATIVE)
def test_chow_report_pinned(rank, rays, chow, k):
    assert tuple(verify_vanishing(Cone(rank, rays), 3)) == chow


@pytest.mark.parametrize("rank, rays, chow, k", NEGATIVE)
def test_k_report_pinned(rank, rays, chow, k):
    cone = Cone(rank, rays)
    if isinstance(k, str):
        with pytest.raises(ValueError) as info:
            verify_k_vanishing(cone, 3)
        assert str(info.value) == k
    else:
        assert tuple(verify_k_vanishing(cone, 3)) == k


def test_corpus_is_negative():
    # Every Chow conclusion is false, and the failure reasons cover both
    # identification failures named in the module docstring.
    assert not any(chow[-1] for _n, _rays, chow, _k in NEGATIVE)
    failures = {report[4] for _n, _rays, chow, k in NEGATIVE
                for report in (chow, k) if not isinstance(report, str)}
    assert any(f and f.startswith("substitution does not map")
               for f in failures)
    assert any(f and f.startswith("the stratum's exponent lattice")
               for f in failures)

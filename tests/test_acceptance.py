"""Acceptance checks for the headline computations.

Each test records one verdict line (printed in the run summary) and then
asserts it.  Everything is exact integer equality; there are no
tolerances anywhere in this file.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from corpus import CORPUS_DATA, corpus_cones
from test_chow import twisted_group
from toricstacks.chow import (
    chow_ring_stack,
    exceptional_comparison,
    exceptional_stratum,
    preimage_check,
    verify_vanishing,
)
from toricstacks.cox import cox, strong_divisor_check
from toricstacks.fan import (
    Fan,
    chow_groups,
    is_refinement,
    make_cone,
    primitive_collections,
    star_subdivision,
    star_vector,
    validate_fan,
)
from toricstacks.graded import graded_piece
from toricstacks.intlinalg import (
    hnf,
    matmul,
    snf,
    solve_in_span,
)
from toricstacks.ktheory import boxed_quotient, k_ring_stack, verify_k_vanishing

SQUARE_RAYS = ((1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1))


def square_cone():
    return make_cone(3, SQUARE_RAYS)


def square_fan():
    return Fan(3, [square_cone()])


def subdivided_square():
    f = square_fan()
    return star_subdivision(f, square_cone())


def p1xp1_fan():
    return Fan.from_data(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
                         [[0, 2], [2, 1], [1, 3], [3, 0]])


def test_criterion_1_character_group_and_weights(acceptance):
    cd = cox(square_fan())
    g = cd.char_group
    t = len(g.torsion)
    free_block = tuple(w[t:] for w in cd.weights)
    ok = (g.structure() == (1, (2,))
          and free_block == ((1,), (-1,), (1,), (-1,)))
    assert acceptance(1, ok, "X(G) = %s, free weight block (1, -1, 1, -1)"
                      % g.describe())


def test_criterion_2_subdivision_and_kernel(acceptance):
    sub = subdivided_square()
    cd = cox(sub)
    expected_h, _ = hnf(((1, 0, -1, 0, 0),
                         (0, 1, 0, -1, 0),
                         (1, 1, 1, 1, 1)))
    expected_kernel = tuple(row for row in expected_h if any(row))
    ok = (len(sub.rays) == 5
          and (0, 0, 1) in sub.rays
          and len(sub.maximal_cones) == 4
          and cd.primitive_collections == [frozenset({0, 2}),
                                           frozenset({1, 3})]
          and cd.kernel == expected_kernel)
    assert acceptance(2, ok, "5 rays incl (0, 0, 1), 4 maximal cones, "
                      "collections {0,2} {1,3}, kernel matches in HNF")


def test_criterion_3_graded_ranks(acceptance):
    sub_ring = chow_ring_stack(subdivided_square())
    sub_pieces = [graded_piece(sub_ring, k).structure()
                  for k in range(5)]
    cone_ring = chow_ring_stack(square_fan())
    cone_ranks = [graded_piece(cone_ring, k).free_rank
                  for k in range(6)]
    ok = (sub_pieces == [(1, ()), (2, ()), (1, ()), (0, ()), (0, ())]
          and cone_ranks == [1] * 6)
    assert acceptance(3, ok, "subdivided ranks (1, 2, 1, 0, 0) torsion "
                      "free; single-cone ranks 0..5 all 1")


def test_criterion_4_exceptional_comparison(acceptance):
    comp = exceptional_comparison(exceptional_stratum(square_cone()), 4)
    rep = verify_vanishing(square_cone(), 4)
    ok = (comp.extra_row == (-2, -2, 0, 0)
          and comp.verdicts == tuple((k, True) for k in range(5))
          and rep.conclusion)
    assert acceptance(4, ok, "t_v -> -2s1 - 2s2 mod kernel, iso in "
                      "degrees 0..4, vanishing conclusion true")


def test_criterion_5_class_group_of_faces(acceptance):
    g = chow_groups(square_fan(), 2)
    ok = g.structure() == (1, (2,))
    assert acceptance(5, ok, "A_2 = %s" % g.describe())


def test_criterion_6_boxed_k_quotient(acceptance):
    bq = boxed_quotient(k_ring_stack(subdivided_square()), 3)
    rep = verify_k_vanishing(square_cone(), 3)
    ok = (bq.window_group.structure() == (4, ())
          and bq.stabilized
          and bq.contains({(2, 0): 1, (0, 0): -1})
          and bq.contains({(0, 2): 1, (0, 0): -1})
          and rep.conclusion)
    assert acceptance(6, ok, "window rank 4 torsion free, stabilized, "
                      "both squares in the relation lattice, conclusion "
                      "true")


STRONG_RAYS = [[1, 0, 1], [1, 1, 1], [-1, 0, 1], [0, -1, 1], [1, 0, 4]]
STRONG_CONES = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]]
STRONG_WEIGHTS = ((3, -2, 1, -2, 0), (2, -3, 0, -3, 1))


def test_criterion_7_strongness_example(acceptance):
    f = Fan.from_data(3, STRONG_RAYS, STRONG_CONES)
    charts = strong_divisor_check(STRONG_WEIGHTS, f, 4)
    minima = {c.invertible: c.min_power for c in charts}
    failing = minima.get((0, 1))
    powers = [c.min_power for c in charts]
    w = tuple(row[4] for row in STRONG_WEIGHTS)
    in_span_15 = all(
        solve_in_span(tuple(tuple(row[j] for j in c.invertible)
                            for row in STRONG_WEIGHTS),
                      tuple(15 * x for x in w)) is not None
        for c in charts)
    ok = (not any(c.in_span for c in charts if c.invertible == (0, 1))
          and failing == 5
          and minima == {(2, 3): 3, (0, 3): 5, (0, 1): 5, (1, 2): 3}
          and None not in powers
          and lcm(*powers) == 15
          and in_span_15)
    assert acceptance(7, ok, "chart minima 3/5/5/3, (0, 1) not in the "
                      "unit span on D(x1*x2), 15x in span on every chart")


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    prod = Fraction(sign)
    for i in range(n):
        prod *= m[i][i]
    assert prod.denominator == 1
    return int(prod)


def _suite_normal_forms():
    rng = random.Random(86)
    for trial in range(500):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        h, u = hnf(m)
        if matmul(u, m) != h or abs(_det(u)) != 1 or hnf(h)[0] != h:
            return "hnf identity broke at trial %d" % trial
        d, u2, v = snf(m)
        if matmul(matmul(u2, m), v) != d:
            return "snf product broke at trial %d" % trial
        if abs(_det(u2)) != 1 or abs(_det(v)) != 1:
            return "snf transform not unimodular at trial %d" % trial
        diag = [d[i][i] for i in range(min(nr, nc))]
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j and x:
                    return "snf off-diagonal entry at trial %d" % trial
        if any(x < 0 for x in diag):
            return "negative snf diagonal at trial %d" % trial
        for a, b in zip(diag, diag[1:]):
            if (b % a if a else b) != 0:
                return "snf divisibility broke at trial %d" % trial
    return None


def _suite_subdivision():
    for c in corpus_cones():
        f = Fan(c.ambient_rank, [c])
        sub = star_subdivision(f, c)
        if not validate_fan(sub).ok:
            return "subdivision of %s is not a fan" % (c.rays,)
        if not is_refinement(sub, f):
            return "subdivision of %s does not refine it" % (c.rays,)
    return None


def _exhaustive_minimal_nonfaces(f):
    maximal = f.maximal_cones

    def is_face(s):
        return any(s <= m for m in maximal)

    out = []
    for size in range(1, len(f.rays) + 1):
        for combo in combinations(range(len(f.rays)), size):
            s = frozenset(combo)
            if is_face(s):
                continue
            proper = [frozenset(t) for k in range(size)
                      for t in combinations(combo, k)]
            if all(is_face(t) for t in proper):
                out.append(s)
    return sorted(out, key=sorted)


def _suite_collections():
    for c in corpus_cones():
        f = Fan(c.ambient_rank, [c])
        for fan in (f, star_subdivision(f, c)):
            if primitive_collections(fan) != _exhaustive_minimal_nonfaces(fan):
                return "collections disagree with the oracle on %s" \
                    % (tuple(fan.rays),)
    return None


def _suite_preimage():
    for c in corpus_cones():
        rep = preimage_check(c)
        if not rep.ok or rep.preimage != ((star_vector(c),),):
            return "preimage of the distinguished point over %s is %s" \
                % (c.rays, rep.preimage)
    return None


def _suite_vanishing():
    for c in corpus_cones():
        rep = verify_vanishing(c, 4)
        if not rep.conclusion:
            return "vanishing conclusion false on %s" % (c.rays,)
    return None


def _suite_basis_invariance():
    rng = random.Random(17)
    for c in corpus_cones():
        f = Fan(c.ambient_rank, [c])
        for k in range(f.ambient_rank + 1):
            expected = chow_groups(f, k).structure()
            for _ in range(2):
                got = twisted_group(f, k, rng).structure()
                if got != expected:
                    return "twisted A_%d of %s gave %s, expected %s" \
                        % (k, c.rays, got, expected)
    return None


def test_criterion_8_property_suites(acceptance):
    suites = (
        ("normal forms", _suite_normal_forms),
        ("subdivision", _suite_subdivision),
        ("collections", _suite_collections),
        ("preimage", _suite_preimage),
        ("vanishing", _suite_vanishing),
        ("basis invariance", _suite_basis_invariance),
    )
    failures = [msg for _, run in suites if (msg := run()) is not None]
    n_cones = len(CORPUS_DATA)
    ranks = sorted({rank for rank, _ in CORPUS_DATA})
    detail = ("500 normal-form trials and 5 fan suites over %d cones in "
              "ranks %d..%d" % (n_cones, ranks[0], ranks[-1])
              if not failures else "; ".join(failures))
    assert acceptance(8, not failures, detail)


def test_criterion_9_rank_cross_check(acceptance):
    f = p1xp1_fan()
    k_rank = boxed_quotient(k_ring_stack(f), 3).window_group.free_rank
    chow_total = sum(chow_groups(f, k).free_rank
                     for k in range(f.ambient_rank + 1))
    ok = k_rank == 4 and chow_total == 4
    assert acceptance(9, ok, "Chow total rank %d, K window rank %d"
                      % (chow_total, k_rank))


def test_corpus_is_large_enough():
    ranks = [rank for rank, _ in CORPUS_DATA]
    assert len(CORPUS_DATA) >= 20
    assert set(ranks) == {2, 3, 4}

import math
import random

import pytest

from toricstacks.cox import (
    TorusFactorError,
    cox,
    strong_divisor_check,
)
from toricstacks.fan import Fan, GeometryError, star_subdivision
from toricstacks.intlinalg import hnf, rank, snf, solve_in_span, \
    transpose

SQUARE_RAYS = [[1, 0, 1], [0, -1, 1], [-1, 0, 1], [0, 1, 1]]


def square_fan():
    return Fan.from_data(3, SQUARE_RAYS, [[0, 1, 2, 3]])


def subdivided_square_fan():
    f = square_fan()
    return star_subdivision(f, f.cone({0, 1, 2, 3}))


def p1_fan():
    return Fan.from_data(1, [[1], [-1]], [[0], [1]])


def p2_fan():
    return Fan.from_data(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])


def quadrant_fan():
    return Fan.from_data(2, [[1, 0], [0, 1]], [[0, 1]])


def test_square_cone_cox():
    cd = cox(square_fan())
    assert cd.char_group.structure() == (1, (2,))
    assert cd.char_group.describe() == "Z/2 + Z"
    # Coordinates are (torsion, free); the free block carries the alternating
    # weights, the torsion block the mod-2 pattern of the odd-indexed rays.
    assert cd.weights == ((1, 1), (0, -1), (1, 1), (0, -1))
    assert [w[1:] for w in cd.weights] == [(1,), (-1,), (1,), (-1,)]
    assert cd.kernel == ((1, 0, 1, 2), (0, 1, 0, -1), (0, 0, 2, 2))
    assert cd.primitive_collections == []


def test_square_cone_kernel_is_the_relation_lattice():
    # The three divisor relations span the same lattice as the stored basis.
    cd = cox(square_fan())
    spanning = [(1, 0, -1, 0), (0, 1, 0, -1), (1, 1, 1, 1)]
    h, _ = hnf(spanning)
    assert tuple(r for r in h if any(r)) == cd.kernel


def test_subdivided_square_cox():
    cd = cox(subdivided_square_fan())
    assert cd.char_group.structure() == (2, ())
    assert cd.weights == ((1, 0), (0, 1), (1, 0), (0, 1), (-2, -2))
    spanning = [(1, 0, -1, 0, 0), (0, 1, 0, -1, 0), (1, 1, 1, 1, 1)]
    h, _ = hnf(spanning)
    assert tuple(r for r in h if any(r)) == cd.kernel
    assert cd.primitive_collections == [frozenset({0, 2}), frozenset({1, 3})]


def test_p1_cox():
    cd = cox(p1_fan())
    assert cd.char_group.structure() == (1, ())
    assert cd.kernel == ((1, -1),)
    assert cd.primitive_collections == [frozenset({0, 1})]


def test_smooth_basis_fan():
    cd = cox(quadrant_fan())
    assert cd.char_group.is_trivial
    # Trivial character group means every exponent vector is a relation, so
    # the kernel lattice is all of Z^2 and its canonical basis is the
    # identity.
    assert cd.kernel == ((1, 0), (0, 1))
    assert cd.primitive_collections == []
    assert cd.weights == ((), ())


def test_rank_and_torsion_invariants():
    for f in (square_fan(), subdivided_square_fan(), p1_fan(), p2_fan(),
              quadrant_fan()):
        cd = cox(f)
        r, n = len(f.rays), f.ambient_rank
        assert cd.char_group.free_rank == r - n
        d, _, _ = snf(f.rays)
        diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
        smooth_lattice = all(x == 1 for x in diag)
        assert (not cd.char_group.torsion) == smooth_lattice
        for row in cd.kernel:
            assert not any(cd.char_group.project(row))


def test_torus_factor_rejected():
    f = Fan.from_data(2, [[1, 0]], [[0]])
    with pytest.raises(TorusFactorError):
        cox(f)
    # Rays spanning a proper subspace are rejected even when there are many.
    g = Fan.from_data(3, [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
                      [[0, 1], [1, 2], [0, 2]])
    with pytest.raises(TorusFactorError):
        cox(g)


def test_torus_factor_message_names_the_ray_rank():
    coplanar = Fan.from_data(3, [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
                             [[0, 1], [1, 2], [0, 2]])
    with pytest.raises(TorusFactorError,
                       match="rank-2 sublattice of Z\\^3"):
        cox(coplanar)
    with pytest.raises(TorusFactorError,
                       match="rank-0 sublattice of Z\\^2"):
        cox(Fan.from_data(2, [], [[]]))
    # A rank-0 fan (a point) has no torus factor.
    cd = cox(Fan.from_data(0, [], [[]]))
    assert cd.kernel == () and cd.weights == ()
    assert cd.char_group.is_trivial


STRONG_RAYS = [[1, 0, 1], [1, 1, 1], [-1, 0, 1], [0, -1, 1], [1, 0, 4]]
STRONG_CONES = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]]
STRONG_WEIGHTS = [[3, -2, 1, -2, 0], [2, -3, 0, -3, 1]]


def strongness_fan():
    return Fan.from_data(3, STRONG_RAYS, STRONG_CONES)


def test_strongness_fixture_is_a_star_subdivision():
    base = Fan.from_data(3, STRONG_RAYS[:4], [[0, 1, 2, 3]])
    sub = star_subdivision(base, base.cone({0, 1, 2, 3}))
    data = sub.to_data()
    assert data["rays"] == STRONG_RAYS
    assert sorted(data["max_cones"]) == sorted(STRONG_CONES)
    # The weight rows really annihilate the ray matrix.
    from toricstacks.intlinalg import matmul
    for row in matmul(STRONG_WEIGHTS, STRONG_RAYS):
        assert not any(row)


def test_strong_divisor_check_minima():
    reps = strong_divisor_check(STRONG_WEIGHTS, strongness_fan(), 4, bound=20)
    by_chart = {rep.invertible: rep for rep in reps}
    # Chart inverting the first two coordinates: (0,1) is not an integer
    # combination of (3,2) and (-2,-3), but five times it is.
    rep = by_chart[(0, 1)]
    assert rep.in_span is False
    assert rep.min_power == 5
    # Regression values for the remaining charts, from the first search run.
    assert {rep.invertible: rep.min_power for rep in reps} == {
        (2, 3): 3, (0, 3): 5, (0, 1): 5, (1, 2): 3}
    minima = [rep.min_power for rep in reps]
    assert math.lcm(*minima) == 15
    # Power 15 lands in every chart's span: the admissible powers for a
    # chart form a subgroup of Z, so it suffices that each minimum divides.
    for rep in reps:
        assert 15 % rep.min_power == 0
    for rep in strong_divisor_check(
            [[15 * x for x in row] for row in STRONG_WEIGHTS],
            strongness_fan(), 4, bound=1):
        # Scaling the matrix scales w_m and the span alike, so this does not
        # retest membership; it only exercises the bound=1 path.
        assert rep.min_power in (1, None)


def test_strong_divisor_check_direct_power_membership():
    from toricstacks.intlinalg import solve_in_span

    f = strongness_fan()
    w5 = [row[4] for row in STRONG_WEIGHTS]
    for cone_set in f.maximal_cones:
        invertible = sorted(set(range(5)) - cone_set)
        cols = [[row[j] for j in invertible] for row in STRONG_WEIGHTS]
        assert solve_in_span(cols, [15 * x for x in w5]) is not None


def test_strong_divisor_check_trivial_group():
    # A trivial character group has zero weight coordinates; membership is
    # vacuous and the minimal power is 1 on every chart.
    f = quadrant_fan()
    cd = cox(f)
    wmat = transpose(cd.weights)
    reps = strong_divisor_check(wmat, f, 0)
    assert all(rep.in_span and rep.min_power == 1 for rep in reps)


def test_strong_divisor_check_unknown_and_errors():
    f = quadrant_fan()
    reps = strong_divisor_check([[1, 0], [0, 1]], f, 0, bound=5)
    # The only chart inverts nothing, and no multiple of e_0 is zero.
    assert reps == (reps[0],)
    assert reps[0].invertible == ()
    assert reps[0].min_power is None
    assert reps[0].in_span is False
    with pytest.raises(ValueError):
        strong_divisor_check([[1, 0, 0]], f, 0)
    with pytest.raises(ValueError):
        strong_divisor_check([[1, 0]], f, 2)
    with pytest.raises(ValueError):
        strong_divisor_check([[1, 0]], f, 0, bound=0)


def search_min_power(weights, f, m, bound):
    """Reference strongness minima by search: per chart, the least k in
    1..bound with k * w_m in the invertible span, else None."""
    r = len(f.rays)
    w_m = [row[m] for row in weights]
    out = []
    for cone_set in f.maximal_cones:
        invertible = sorted(set(range(r)) - cone_set)
        cols = [[row[j] for j in invertible] for row in weights]
        out.append(next((k for k in range(1, bound + 1)
                         if solve_in_span(cols, [k * x for x in w_m])
                         is not None), None))
    return out


def test_strong_divisor_check_matches_search():
    rng = random.Random(17)
    fans = (strongness_fan(), subdivided_square_fan(), p2_fan())
    seen = set()
    for _ in range(300):
        f = rng.choice(fans)
        r = len(f.rays)
        weights = [[rng.randint(-6, 6) for _ in range(r)]
                   for _ in range(rng.randint(1, 3))]
        m = rng.randrange(r)
        bound = rng.randint(1, 12)
        reps = strong_divisor_check(weights, f, m, bound=bound)
        expected = search_min_power(weights, f, m, bound)
        assert [rep.min_power for rep in reps] == expected
        assert [rep.in_span for rep in reps] == [k == 1 for k in expected]
        # A None is either an infinite order (w_m outside the rational
        # span) or a finite order above the bound; the sample has both.
        w_m = [row[m] for row in weights]
        for k, cone_set in zip(expected, f.maximal_cones):
            cols = [[row[j] for j in range(r) if j not in cone_set]
                    for row in weights]
            free = rank([c + [w] for c, w in zip(cols, w_m)]) > rank(cols)
            seen.add("found" if k else "never" if free else "exhausted")
    assert seen == {"found", "exhausted", "never"}


@pytest.mark.parametrize("weights, m, message", [
    (5, 4, "weights is not an array: 5"),
    ([1, 2, 3, 4, 5], 4, "weights row 0 is not an array: 1"),
    ([[3, -2, 1, -2, 0], [2, -3, 0, -3, 1.5]], 4,
     "weights row 1 entry 4 is not an integer: 1.5"),
    ([[3, -2, 1, -2, 0], [True, -3, 0, -3, 1]], 4,
     "weights row 1 entry 0 is not an integer: true"),
    (STRONG_WEIGHTS, 4.7, "ray index is not an integer: 4.7"),
    (STRONG_WEIGHTS, True, "ray index is not an integer: true"),
])
def test_strong_divisor_check_rejects_non_integers(weights, m, message):
    with pytest.raises(GeometryError) as info:
        strong_divisor_check(weights, strongness_fan(), m)
    assert str(info.value) == message

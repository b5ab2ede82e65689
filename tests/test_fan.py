import json
import random
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest

from test_fan_combinatorics_oracle import old_orbit_relation_data
from toricstacks.fan import (
    Cone,
    Fan,
    GeometryError,
    intersect_cones,
    is_refinement,
    make_cone,
    minimal_containing_cone,
    orbit_relation_data,
    preimage_orbit_closure,
    primitive_collections,
    star_quotient_fan,
    star_subdivision,
    star_vector,
    validate_fan,
)
from toricstacks.intlinalg import det, matvec

SQUARE_RAYS = [(1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1)]


def square_fan():
    return Fan.from_data(3, SQUARE_RAYS, [[0, 1, 2, 3]])


def quadrant_fan():
    return Fan.from_data(2, [[1, 0], [0, 1]], [[0, 1]])


def p2_fan():
    return Fan.from_data(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])


def oracle_primitive_collections(f):
    # Independent brute force: a collection is a ray set contained in no
    # cone all of whose proper subsets are contained in some cone.
    n = len(f.rays)
    contained = {s: any(set(s) <= m for m in f.maximal_cones)
                 for size in range(n + 1)
                 for s in combinations(range(n), size)}
    out = []
    for s, inside in contained.items():
        if inside or not s:
            continue
        if all(contained[t] for r in s
               for t in [tuple(x for x in s if x != r)]):
            out.append(frozenset(s))
    return sorted(out, key=sorted)


def test_make_cone_normalizes():
    c = make_cone(2, [(2, 0), (3, 3), (0, 5), (1, 1)])
    # (3,3) primitivizes to the duplicate (1,1), which is not extreme
    assert c.rays == ((1, 0), (0, 1))


def test_make_cone_errors():
    with pytest.raises(GeometryError):
        make_cone(2, [(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        make_cone(2, [(1, 0), (-1, 0)])
    with pytest.raises(GeometryError):
        make_cone(2, [(1, 0), (-1, 1), (0, -1)])
    with pytest.raises(GeometryError):
        make_cone(3, [(1, 0)])


def test_square_cone_frozen():
    c = make_cone(3, SQUARE_RAYS)
    assert c.rays == tuple(SQUARE_RAYS)
    assert c.dim == 3
    assert c.facet_sets == (frozenset({0, 1}), frozenset({0, 3}),
                            frozenset({1, 2}), frozenset({2, 3}))
    assert c.facet_normals == ((-1, 1, 1), (-1, -1, 1), (1, 1, 1), (1, -1, 1))
    assert star_vector(c) == (0, 0, 1)
    assert [sorted(s) for s in c.face_ray_sets()] == [
        [], [0], [1], [2], [3], [0, 1], [0, 3], [1, 2], [2, 3], [0, 1, 2, 3]]


def test_containment_random():
    rng = random.Random(7)
    tried = 0
    while tried < 60:
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 1))]
        try:
            c = make_cone(n, gens)
        except GeometryError:
            continue
        tried += 1
        coeffs = [rng.randint(0, 4) for _ in c.rays]
        pt = tuple(sum(a * r[i] for a, r in zip(coeffs, c.rays))
                   for i in range(n))
        assert c.contains(pt)
        interior = tuple(sum(r[i] for r in c.rays) for i in range(n))
        # The sum of the rays lies in the relative interior: in the span,
        # and strictly inside every facet.
        assert not any(matvec(c.perp_rows, interior))
        assert all(sum(map(mul, w, interior)) > 0 for w in c.facet_normals)
        # strong convexity: the negated interior point never lies in c
        assert not c.contains(tuple(-x for x in interior))
        if c.dim >= 2:
            # A ray lies on some facet.
            assert not all(sum(map(mul, w, c.rays[0])) > 0
                           for w in c.facet_normals)


def test_intersect_cones_frozen():
    a = make_cone(2, [(1, 0), (0, 1)])
    b = make_cone(2, [(1, 1), (1, -1)])
    assert frozenset(intersect_cones(a, b).rays) == frozenset({(1, 0), (1, 1)})
    c = make_cone(2, [(0, 1), (-1, 0)])
    assert intersect_cones(a, c).rays == ((0, 1),)
    assert intersect_cones(b, c).is_zero


def test_fan_from_data_rejects_bad_input():
    with pytest.raises(GeometryError):
        Fan.from_data(2, [[2, 0], [0, 1]], [[0, 1]])
    with pytest.raises(GeometryError):
        Fan.from_data(2, [[0, 0], [0, 1]], [[0, 1]])
    with pytest.raises(GeometryError):
        Fan.from_data(2, [[1, 0], [1, 0]], [[0, 1]])
    with pytest.raises(GeometryError):
        Fan.from_data(2, [[1, 0], [0, 1]], [[0, 2]])
    with pytest.raises(GeometryError):
        # middle ray is not extreme in its cone
        Fan.from_data(2, [[1, 0], [1, 1], [0, 1]], [[0, 1, 2]])
    with pytest.raises(GeometryError):
        Fan.from_data(2, [[1, 0], [0, 1]], [[0]])


@pytest.mark.parametrize("rays, cones, message", [
    ([[1, 0], [1, 2], [0, 1]], [[0], [0, 1], [1, 2]],
     "cone 0 is a face of cone 1"),
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [1, 0]],
     "cone 2 repeats cone 0"),
    ([[1, 0], [0, 1]], [[0, 1, 0]], "cone 0 lists ray 0 twice"),
    ([[1, 0], [0, 1]], [[0, 1], []], "cone 1 is a face of cone 0"),
    ([[1, 0], [0, 1], [-1, 0]], [[0, 1], [2, 1], [1]],
     "cone 2 is a face of cone 0"),
])
def test_fan_from_data_keeps_the_input_cones(rays, cones, message):
    # Fan.__init__ would drop such an entry, so cone i of the input would
    # no longer be maximal cone i of the fan.
    with pytest.raises(GeometryError) as err:
        Fan.from_data(2, rays, cones)
    assert str(err.value) == message


def test_fan_from_data_rejects_a_cone_inside_another():
    # The diagonal (1, 0, 1), (-1, 0, 1) of the square cone is no face.
    rays = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
    with pytest.raises(GeometryError) as err:
        Fan.from_data(3, rays, [[0, 2], [0, 1, 2, 3]])
    assert str(err.value) == "cone 0 is inside cone 1"


def test_fan_init_still_drops_repeated_and_contained_cones():
    a, b = make_cone(2, [(1, 0), (0, 1)]), make_cone(2, [(1, 0)])
    f = Fan(2, [b, a, a])
    assert f.maximal_cones == (frozenset({0, 1}),)


@pytest.mark.parametrize("rank, rays, cones, message", [
    (2, [[1, 0], [True, 1]], [[0, 1]],
     "ray 1 entry 0 is not an integer: true"),
    (2, [[1, 0], [1.5, 1]], [[0, 1]],
     "ray 1 entry 0 is not an integer: 1.5"),
    (2, [[1, 0], ["a", 1]], [[0, 1]],
     'ray 1 entry 0 is not an integer: "a"'),
    (True, [[1]], [[0]], "rank is not an integer: true"),
    (2, [[1, 0], [0, 1]], [[0, 1.0]],
     "cone 0 entry 1 is not an integer: 1.0"),
    (2, [[1, 0], 7], [[0]], "ray 1 is not an array: 7"),
    (2, [[1, 0]], [0], "cone 0 is not an array: 0"),
    (-1, [], [[]], "rank is negative: -1"),
])
def test_fan_from_data_rejects_non_integers(rank, rays, cones, message):
    with pytest.raises(GeometryError) as err:
        Fan.from_data(rank, rays, cones)
    assert str(err.value) == message


def test_validate_fan():
    assert validate_fan(square_fan()).ok
    assert validate_fan(quadrant_fan()).ok
    assert validate_fan(p2_fan()).ok
    assert validate_fan(Fan.from_data(2, [], [[]])).ok
    bad = Fan.from_data(2, [[1, 0], [0, 1], [1, 1], [1, -1]], [[0, 1], [2, 3]])
    rep = validate_fan(bad)
    assert not rep.ok
    assert rep.violations[0].first == (0, 1)
    assert rep.violations[0].second == (2, 3)


def test_star_subdivision_square():
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    assert f2.rays == tuple(SQUARE_RAYS) + ((0, 0, 1),)
    assert sorted(sorted(s) for s in f2.maximal_cones) == [
        [0, 1, 4], [0, 3, 4], [1, 2, 4], [2, 3, 4]]
    assert validate_fan(f2).ok
    assert is_refinement(f2, f)
    assert not is_refinement(f, f2)
    assert all(abs(det(f2.cone(s).rays)) == 1 for s in f2.maximal_cones)


def test_star_subdivision_at_ray_is_identity_on_smooth_fans():
    for f in (quadrant_fan(), p2_fan()):
        for i in range(len(f.rays)):
            g = star_subdivision(f, f.cone({i}))
            assert g.to_data() == f.to_data()


def test_star_subdivision_at_edge():
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    g = star_subdivision(f2, f2.cone({0, 4}))
    assert len(g.rays) == 6
    assert g.rays[5] == (1, 0, 2)
    assert validate_fan(g).ok
    assert is_refinement(g, f2) and is_refinement(g, f)


def test_star_subdivision_requires_fan_cone():
    f = quadrant_fan()
    with pytest.raises(GeometryError):
        star_subdivision(f, make_cone(2, [(1, 1)]))
    with pytest.raises(GeometryError):
        star_subdivision(f, make_cone(2, []))


def test_primitive_collections():
    f = square_fan()
    assert primitive_collections(f) == []
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    assert primitive_collections(f2) == [frozenset({0, 2}), frozenset({1, 3})]
    assert primitive_collections(p2_fan()) == [frozenset({0, 1, 2})]
    for fan in (f, f2, p2_fan(), quadrant_fan()):
        assert primitive_collections(fan) == oracle_primitive_collections(fan)


def test_is_refinement_negative():
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    assert is_refinement(f, f)
    assert is_refinement(f2, f2)
    # half of the subdivision does not cover the support
    half = Fan(3, [f2.cone({0, 1, 4}), f2.cone({1, 2, 4})], ray_hint=f2.rays)
    assert not is_refinement(half, f)
    # same rank, unrelated support
    assert not is_refinement(quadrant_fan(), p2_fan())


def test_preimage_orbit_closure():
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    big = f.cone({0, 1, 2, 3})
    assert [t.rays for t in preimage_orbit_closure(f2, f, big)] == [((0, 0, 1),)]
    edge = f.cone({0, 1})
    assert [t.rays for t in preimage_orbit_closure(f2, f, edge)] == [
        ((1, 0, 1), (0, -1, 1))]
    zero = make_cone(3, [])
    assert [t.rays for t in preimage_orbit_closure(f2, f, zero)] == [()]
    with pytest.raises(GeometryError):
        preimage_orbit_closure(f, f2, zero)


def test_minimal_containing_cone():
    f = square_fan()
    v = make_cone(3, [(0, 0, 1)])
    assert minimal_containing_cone(f, v) == frozenset({0, 1, 2, 3})
    assert minimal_containing_cone(f, f.cone({0, 1})) == frozenset({0, 1})
    assert minimal_containing_cone(f, make_cone(3, [(1, 0, 0)])) is None


def test_star_quotient_square():
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    sq = star_quotient_fan(f2, (0, 0, 1))
    assert sq.projection == ((1, 0, 0), (0, 1, 0))
    assert sq.fan.rays == ((1, 0), (0, -1), (0, 1), (-1, 0))
    assert sorted(sorted(s) for s in sq.fan.maximal_cones) == [
        [0, 1], [0, 2], [1, 3], [2, 3]]
    assert sq.pairs == ((0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1))
    assert sq.dropped == ()
    assert validate_fan(sq.fan).ok


def test_star_quotient_drops_a_ray_adjacent_in_no_cone():
    # The square cone's star at (1, 0, 1) is not a pyramid: the opposite
    # corner (-1, 0, 1) spans no 2-face with it, and its image lies inside
    # the quotient cone, spanned by the two neighbours' images.
    sq = star_quotient_fan(square_fan(), (1, 0, 1))
    assert sq.fan.rays == ((-1, -1), (-1, 1))
    assert sq.pairs == ((1, 0, 1), (3, 1, 1))
    assert sq.dropped == (2,)


def test_star_quotient_multiplicities():
    # the projected generators need not stay primitive
    f = Fan.from_data(2, [[1, 0], [1, 4]], [[0, 1]])
    f2 = star_subdivision(f, f.cone({0, 1}))
    assert f2.rays == ((1, 0), (1, 4), (1, 2))
    sq = star_quotient_fan(f2, (1, 2))
    assert sq.fan.rays == ((1,), (-1,))
    assert sq.pairs == ((0, 0, 2), (1, 1, 2))
    with pytest.raises(GeometryError):
        star_quotient_fan(f2, (5, 5))


def test_star_quotient_isolated_ray():
    f = Fan.from_data(2, [[1, 0]], [[0]])
    sq = star_quotient_fan(f, (1, 0))
    assert sq.fan.rays == ()
    assert sq.fan.maximal_cones == (frozenset(),)
    assert sq.pairs == () and sq.dropped == ()


def test_orbit_relation_data_zero_cone():
    data = orbit_relation_data(quadrant_fan(), make_cone(2, []))
    assert [(d.sigma_rays, d.pairings) for d in data] == [
        (((1, 0),), (1, 0)), (((0, 1),), (0, 1))]
    assert all(d.m_tau_basis == ((1, 0), (0, 1)) for d in data)


def test_orbit_relation_data_ray():
    f = square_fan()
    data = orbit_relation_data(f, f.cone({0}))
    # The generators into the two cones are (0, -1, 1) and (0, 1, 1).
    assert [(d.sigma_rays, d.pairings) for d in data] == [
        (((1, 0, 1), (0, -1, 1)), (-1, -1)),
        (((1, 0, 1), (0, 1, 1)), (-1, 1))]
    assert all(d.m_tau_basis == ((1, 0, -1), (0, 1, 0)) for d in data)
    with pytest.raises(GeometryError):
        orbit_relation_data(f, make_cone(3, [(1, 1, 1)]))


def test_orbit_relation_data_lower_dimensional():
    # The generator is (1, 0, 0), but the other ray (1, -1, 0) is twice it
    # modulo (1, 1, 0): the pairing is <u, r> / <w, r> = 2 / 2.
    f = Fan(3, [make_cone(3, [(1, 1, 0), (1, -1, 0)])])
    [d] = orbit_relation_data(f, make_cone(3, [(1, 1, 0)]))
    assert d.m_tau_basis == ((1, -1, 0), (0, 0, 1))
    assert d.pairings == (1, 0)


def test_orbit_relation_orientation_random():
    # the reference's transverse generator always pairs positively with the
    # facet normal and is primitive modulo the span of tau
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    for fan in (f, f2, p2_fan(), quadrant_fan()):
        for s in fan.cones:
            tau = fan.cone(s)
            for _, sigma_rays, _, n_gen in old_orbit_relation_data(fan, tau):
                sigma = make_cone(fan.ambient_rank, sigma_rays)
                assert not tau.contains(n_gen)
                # n_gen plus a deep interior point of tau lands in sigma
                if tau.rays:
                    depth = tuple(1000 * sum(r[i] for r in tau.rays)
                                  for i in range(fan.ambient_rank))
                    shifted = tuple(a + b for a, b in zip(n_gen, depth))
                    assert sigma.contains(shifted)
                else:
                    assert sigma.contains(n_gen)


def test_fan_data_roundtrip():
    for f in (square_fan(), quadrant_fan(), p2_fan()):
        d = f.to_data()
        g = Fan.from_data(d["rank"], d["rays"], d["max_cones"])
        assert g.to_data() == d


def test_cone_counts_of_subdivided_square():
    f = square_fan()
    f2 = star_subdivision(f, f.cone({0, 1, 2, 3}))
    assert [len(f2.cones_of_dim(d)) for d in range(4)] == [1, 5, 8, 4]


def test_fan_value_semantics():
    from toricstacks.cox import cox

    path = Path(__file__).resolve().parent.parent / "fixtures" \
        / "strongness_example.json"
    data = json.loads(path.read_text())

    def build(rays=data["rays"], cones=data["max_cones"]):
        return Fan.from_data(data["rank"], rays, cones)

    f1, f2 = build(), build()
    assert f1 is not f2
    assert f1 == f2 and hash(f1) == hash(f2)
    assert len({f1, f2}) == 1
    # Reading the lazily built face lattice changes neither.
    f1.cones_of_dim(1)
    assert f1 == f2 and hash(f1) == hash(f2)
    assert build(cones=data["max_cones"][::-1]) == f1
    assert cox(f1) == cox(f2)
    assert "at 0x" not in repr(cox(f1))
    assert eval(repr(f1), {"Fan": Fan}) == f1
    assert f1 != build(cones=data["max_cones"][:-1])
    # The same rays listed in another order make another fan: the variable
    # order of every presentation built from it differs.
    order = [4, 0, 1, 2, 3]
    rays = [data["rays"][i] for i in order]
    cones = [[order.index(i) for i in c] for c in data["max_cones"]]
    reordered = build(rays=rays, cones=cones)
    assert set(reordered.rays) == set(f1.rays)
    assert reordered != f1
    assert f1 != square_fan() and f1 != data

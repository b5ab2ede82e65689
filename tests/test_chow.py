import random

import pytest

from toricstacks.chow import (
    chow_ring_stack,
    exceptional_comparison,
    exceptional_stratum,
    preimage_check,
    verify_vanishing,
)
from toricstacks.fan import Fan, GeometryError, chow_groups, \
    chow_relation_data, make_cone, orbit_relation_data
from toricstacks.graded import graded_piece, induced_map, ring_map
from toricstacks.intlinalg import cokernel

SQUARE_RAYS = [(1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1)]


def square_cone():
    return make_cone(3, SQUARE_RAYS)


def square_fan():
    return Fan(3, [square_cone()])


def p2_fan():
    return Fan.from_data(2, [[1, 0], [0, 1], [-1, -1]],
                         [[0, 1], [1, 2], [0, 2]])


def p1_fan():
    return Fan.from_data(1, [[1], [-1]], [[0], [1]])


def quadrant_fan():
    return Fan.from_data(2, [[1, 0], [0, 1]], [[0, 1]])


def ranks(p, max_deg):
    return [graded_piece(p, k).free_rank for k in range(max_deg + 1)]


def test_chow_ring_stack_examples():
    assert ranks(chow_ring_stack(square_fan()), 5) == [1, 1, 1, 1, 1, 1]
    f = square_fan()
    from toricstacks.fan import star_subdivision
    fs = star_subdivision(f, f.cone({0, 1, 2, 3}))
    assert ranks(chow_ring_stack(fs), 3) == [1, 2, 1, 0]
    assert ranks(chow_ring_stack(quadrant_fan()), 3) == [1, 0, 0, 0]


def test_chow_groups_square_cone():
    f = square_fan()
    assert chow_groups(f, 2).structure() == (1, (2,))
    assert chow_groups(f, 2).describe() == "Z/2 + Z"
    assert chow_groups(f, 3).structure() == (1, ())
    assert chow_groups(f, 1).structure() == (0, (2,))
    assert chow_groups(f, 0).is_trivial
    with pytest.raises(ValueError):
        chow_groups(f, 4)
    with pytest.raises(ValueError):
        chow_groups(f, -1)


def test_chow_groups_p2():
    f = p2_fan()
    assert [chow_groups(f, k).structure() for k in range(3)] \
        == [(1, ()), (1, ()), (1, ())]
    # Hand-written relation columns.  k=0: generators are the three maximal
    # cones; each ray tau contributes one column with +-1 at the two cones
    # it borders.  k=1: generators are the rays; the zero cone contributes
    # the pairing columns of the two unit characters.
    gens0, cols0 = chow_relation_data(f, 0)
    assert gens0 == ((0, 1), (0, 2), (1, 2))
    assert cols0 == ((1, -1, 0), (1, 0, -1), (0, 1, -1))
    gens1, cols1 = chow_relation_data(f, 1)
    assert gens1 == ((0,), (1,), (2,))
    assert cols1 == ((1, 0, -1), (0, 1, -1))


def test_chow_groups_p1_and_affine_plane():
    f = p1_fan()
    assert chow_groups(f, 0).structure() == (1, ())
    assert chow_groups(f, 1).structure() == (1, ())
    g = quadrant_fan()
    assert chow_groups(g, 0).is_trivial
    assert chow_groups(g, 1).is_trivial
    assert chow_groups(g, 2).structure() == (1, ())


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for col in range(n):
            m[i][col] += q * m[j][col]
    if rng.random() < 0.5 and n:
        m[0] = [-x for x in m[0]]
    return m


def twisted_group(f, k, rng):
    """The dimension-k class group with each tau's character basis B
    replaced by a random unimodular recombination U B, whose pairings with
    n_{sigma,tau} are U times the pairings of B; the cokernel must not
    notice."""
    n = f.ambient_rank
    gens = [frozenset(s) for s in f.cones_of_dim(n - k)]
    gen_index = {s: i for i, s in enumerate(gens)}
    columns = []
    for tau_set in f.cones_of_dim(n - k - 1):
        data = orbit_relation_data(f, f.cone(tau_set))
        if not data:
            continue
        for row in random_unimodular(rng, len(data[0].m_tau_basis)):
            col = [0] * len(gens)
            for datum in data:
                s = frozenset(f.rays.index(r) for r in datum.sigma_rays)
                col[gen_index[s]] += sum(a * b
                                         for a, b in zip(row, datum.pairings))
            columns.append(tuple(col))
    matrix = tuple(zip(*columns)) if columns else tuple(() for _ in gens)
    return cokernel(matrix)


def test_chow_groups_basis_invariance():
    rng = random.Random(11)
    for f in (square_fan(), p2_fan(), p1_fan()):
        for k in range(f.ambient_rank + 1):
            expected = chow_groups(f, k).structure()
            for _ in range(5):
                assert twisted_group(f, k, rng).structure() == expected


def test_exceptional_comparison_square():
    comp = exceptional_comparison(exceptional_stratum(square_cone()), 4)
    assert comp.extra_row == (-2, -2, 0, 0)
    assert comp.verdicts == tuple((k, True) for k in range(5))
    m = induced_map(comp.map, 1)
    assert len(m) == 2 and len(m[0]) == 2
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det in (1, -1)


def test_substitution_unique_mod_kernel():
    from toricstacks.cox import cox
    from toricstacks.graded import certify_well_defined

    comp = exceptional_comparison(exceptional_stratum(square_cone()), 3)
    kernel_row = cox(comp.stratum.quotient.fan).kernel[0]
    shifted = tuple(a + b for a, b in zip(comp.extra_row, kernel_row))
    sub = [list(row) for row in comp.map.substitution]
    sub[comp.stratum.star_index] = list(shifted)
    alt = ring_map(comp.source, comp.target, sub)
    assert certify_well_defined(alt).ok
    for k in range(4):
        assert induced_map(alt, k) == induced_map(comp.map, k)


def test_verify_vanishing_good_cones():
    rep = verify_vanishing(square_cone(), 4)
    assert rep.conclusion
    assert rep.identified and rep.failure is None
    assert rep.star_ray == (0, 0, 1)
    assert rep.pieces == ((0, 1, ()), (1, 2, ()), (2, 1, ()),
                          (3, 0, ()), (4, 0, ()))
    assert rep.point_class == "Z"
    assert rep.max_deg == 4

    assert verify_vanishing(make_cone(2, [(1, 0), (1, 2)]), 4).conclusion
    assert verify_vanishing(make_cone(2, [(1, 0), (0, 1)]), 4).conclusion
    assert verify_vanishing(make_cone(1, [(1,)]), 4).conclusion


def test_verify_vanishing_bad_cone():
    rep = verify_vanishing(make_cone(2, [(1, 0), (1, 4)]), 4)
    # The substitution exists and is well defined, but the groups differ
    # integrally: the subdivided side keeps 2-torsion the quotient side
    # lacks, so every positive degree fails the comparison.
    assert rep.identified
    assert dict(rep.verdicts)[0] is True
    assert dict(rep.verdicts)[1] is False
    assert rep.pieces[1] == (1, 1, (2,))
    assert not rep.conclusion


def test_preimage_check():
    assert preimage_check(square_cone()) == \
        preimage_check(square_cone())  # deterministic
    rep = preimage_check(square_cone())
    assert rep.ok and rep.preimage == (((0, 0, 1),),)
    rep2 = preimage_check(make_cone(2, [(1, 0), (0, 1)]))
    assert rep2.ok and rep2.preimage == (((1, 1),),)
    rep3 = preimage_check(make_cone(1, [(1,)]))
    assert rep3.ok and rep3.preimage == (((1,),),)


def test_full_dimensional_required():
    flat = make_cone(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        verify_vanishing(flat, 4)
    with pytest.raises(ValueError):
        exceptional_stratum(flat)
    with pytest.raises(ValueError):
        preimage_check(flat)


def test_zero_cone_has_no_preimage_check():
    # Rank 0: the zero cone is full-dimensional, but nothing subdivides it.
    zero = make_cone(0, [])
    for check in (preimage_check, exceptional_stratum):
        with pytest.raises(GeometryError,
                           match="cannot subdivide at the zero cone"):
            check(zero)

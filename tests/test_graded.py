import math

import pytest

import carry_back
from toricstacks.cox import cox
from toricstacks.fan import Fan, star_subdivision
from toricstacks.graded import (
    certify_well_defined,
    graded_piece,
    induced_map,
    is_iso_up_to,
    make_presentation,
    monomials,
    ring_map,
)


def presentation_of(f):
    cd = cox(f)
    n = len(f.rays)
    homs = [(len(c), {tuple(1 if i in c else 0 for i in range(n)): 1})
            for c in cd.primitive_collections]
    return make_presentation(n, cd.kernel, homs)


def square_fan():
    return Fan.from_data(3, [[1, 0, 1], [0, -1, 1], [-1, 0, 1], [0, 1, 1]],
                         [[0, 1, 2, 3]])


def subdivided_square_fan():
    f = square_fan()
    return star_subdivision(f, f.cone({0, 1, 2, 3}))


def unit(n, *idx):
    return {tuple(1 if i in idx else 0 for i in range(n)): 1}


def test_monomial_order_frozen():
    assert monomials(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                               (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert monomials(2, 0) == ((0, 0),)
    assert monomials(0, 0) == ((),)
    assert monomials(0, 1) == ()
    assert monomials(2, -1) == ()


def test_free_presentation_counts():
    for n in range(1, 5):
        p = make_presentation(n)
        for k in range(5):
            assert graded_piece(p, k).structure() \
                == (math.comb(n + k - 1, k), ())
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))


def test_square_cone_pieces():
    p = presentation_of(square_fan())
    structures = [graded_piece(p, k).structure() for k in range(6)]
    # Rank 1 in every degree; the degree-k piece carries k copies of Z/2
    # (regression values, cross-checked against the rank-1 divisor class
    # computation in test_cox).
    assert structures == [(1, ()), (1, (2,)), (1, (2, 2)), (1, (2, 2, 2)),
                          (1, (2, 2, 2, 2)), (1, (2, 2, 2, 2, 2))]


def test_subdivided_square_pieces():
    p = presentation_of(subdivided_square_fan())
    structures = [graded_piece(p, k).structure() for k in range(5)]
    assert structures == [(1, ()), (2, ()), (1, ()), (0, ()), (0, ())]


def test_degree_zero_is_always_z():
    for f in (square_fan(), subdivided_square_fan()):
        assert graded_piece(presentation_of(f), 0).structure() \
            == (1, ())


def test_linear_only_free_ring_oracle():
    # Saturated linear gens of rank r behave like a polynomial ring in
    # n - r variables, degreewise.
    p = make_presentation(3, [[1, 0, -1], [0, 1, -1]])
    for k in range(5):
        assert graded_piece(p, k).structure() \
            == (math.comb(1 + k - 1, k), ())
    # A non-saturated lattice leaves torsion behind instead.
    q = make_presentation(2, [[2, 0]])
    assert graded_piece(q, 1).structure() == (1, (2,))


def test_invariance_under_lattice_equivalent_generators():
    cd = cox(square_fan())
    spanning = [(1, 0, -1, 0), (0, -1, 0, 1), (1, 1, 1, 1)]
    p_canon = make_presentation(4, cd.kernel)
    p_raw = make_presentation(4, spanning)
    for k in range(5):
        assert graded_piece(p_canon, k) == graded_piece(p_raw, k)


def test_ring_map_validation():
    src = make_presentation(2)
    tgt = make_presentation(3)
    with pytest.raises(ValueError):
        ring_map(src, tgt, [[1, 0, 0]])
    with pytest.raises(ValueError):
        ring_map(src, tgt, [[1, 0], [0, 1]])


def blowup_map():
    quad = Fan.from_data(2, [[1, 0], [0, 1]], [[0, 1]])
    qs = star_subdivision(quad, quad.cone({0, 1}))
    src = presentation_of(qs)
    tgt = presentation_of(Fan.from_data(1, [[1], [-1]], [[0], [1]]))
    return ring_map(src, tgt, [[1, 0], [0, 1], [-1, 0]])


def test_blowup_comparison():
    rm = blowup_map()
    assert certify_well_defined(rm).ok
    assert carry_back.induced_map(rm, 1) == ((1,),)
    assert is_iso_up_to(rm, 4) == {k: True for k in range(5)}
    for p in (rm.source, rm.target):
        assert [graded_piece(p, k).structure() for k in range(3)] \
            == [(1, ()), (1, ()), (0, ())]


def test_certify_catches_bad_substitution():
    rm = blowup_map()
    bad = ring_map(rm.source, rm.target, [[1, 0], [0, 1], [1, 0]])
    cert = certify_well_defined(bad)
    assert not cert.ok
    degree, gen = cert.witness
    assert degree in (1, 2)
    assert gen


def test_identity_and_zero_maps():
    p = presentation_of(subdivided_square_fan())
    ident = ring_map(p, p, [[1 if j == i else 0 for j in range(5)]
                            for i in range(5)])
    assert certify_well_defined(ident).ok
    for k in range(4):
        n = graded_piece(p, k).coord_rank
        assert induced_map(ident, k) == tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    assert is_iso_up_to(ident, 4) == {k: True for k in range(5)}

    zero = ring_map(p, p, [[0] * 5] * 5)
    assert certify_well_defined(zero).ok
    assert induced_map(zero, 1) == ((0, 0), (0, 0))
    verdicts = is_iso_up_to(zero, 2)
    assert verdicts[0] is True
    assert verdicts[1] is False


def test_make_presentation_errors():
    with pytest.raises(ValueError):
        make_presentation(2, [[1, 0, 0]])
    with pytest.raises(ValueError):
        make_presentation(2, [], [(2, {(1, 0): 1})])
    with pytest.raises(ValueError):
        make_presentation(2, [], [(1, {(1, -1): 1})])
    with pytest.raises(ValueError):
        make_presentation(2, [], [(0, {(0, 0): 1})])
    # Mixed-degree generator bodies are rejected outright.
    with pytest.raises(ValueError):
        make_presentation(2, [], [(2, {(2, 0): 1, (1, 0): 1})])

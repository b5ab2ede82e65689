"""Checks graded_piece, which eliminates the linear relations before it
expands a degree, against a direct expansion over every monomial.

The direct expansion lives only here: every generator multiple of degree
k, linear ones included, expanded over all degree-k monomials in the
original variables, then one cokernel.  Each piece, carried back to those
monomials, must have the same structure and the same (canonical) free
block of the projection, its projection must kill every direct relation
column, and every coordinate vector must have an ambient representative,
solved for with express on the projection's columns, that the projection
sends back to it modulo torsion (groups carry no lift).  The projection
of an element's phi-expansion, which certify_well_defined applies to each
generator image, is checked against the same expansion through a local
normal_form: it is zero exactly on the direct relation lattice, and it
commutes with induced_map, which solves for its own lifts, on the
certified comparison maps.
"""

import random
from itertools import combinations_with_replacement

import pytest

from carry_back import carried_back, substitute
from corpus import corpus_cones
from test_chow_certificate import random_cones
from toricstacks.chow import (ComparisonError, exceptional_comparison,
                              exceptional_stratum)
from toricstacks.graded import (_expand, _reduction, graded_piece,
                                induced_map, make_presentation, monomials)
from toricstacks.intlinalg import cokernel, from_columns, matvec, transpose


def exponents(n_vars, degree):
    """Every degree-k exponent tuple in n variables, in no set order."""
    if degree < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(n_vars), degree):
        out.append(tuple(combo.count(i) for i in range(n_vars)))
    return out


def normal_form(p, k, element):
    """Coordinates in graded_piece(p, k) of a degree-k element: its
    expansion through _reduction's phi, projected."""
    phi = _reduction(p)
    vec = _expand(element.items(), phi.substitution, phi.target.n_vars, k)
    return graded_piece(p, k).project(vec)


def direct_relations(p, k, basis):
    """Generator multiples of degree k as columns over basis."""
    index = {m: i for i, m in enumerate(basis)}
    gens = [(1, {tuple(int(i == j) for j in range(p.n_vars)): c
                 for i, c in enumerate(row) if c})
            for row in p.linear_gens]
    gens += [(d, dict(items)) for d, items in p.homogeneous_gens]
    columns = []
    for degree, gen in gens:
        for shift in exponents(p.n_vars, k - degree):
            col = [0] * len(basis)
            for expt, coeff in gen.items():
                col[index[tuple(a + b for a, b in zip(expt, shift))]] += coeff
            columns.append(tuple(col))
    return columns


def direct_cokernel(p, k):
    """(basis, relation columns, cokernel) of the direct expansion, over
    graded's degree-k monomial order."""
    basis = monomials(p.n_vars, k)
    assert sorted(basis) == sorted(exponents(p.n_vars, k))
    columns = direct_relations(p, k, basis)
    return basis, columns, cokernel(from_columns(columns, len(basis)))


def check_against_direct(p, k):
    g = carried_back(p, k)
    basis, columns, ref = direct_cokernel(p, k)
    assert g.ambient_rank == len(basis)
    assert g.structure() == ref.structure()
    nt = len(g.torsion)
    assert g.projection[nt:] == ref.projection[nt:]
    for col in columns:
        assert not any(g.project(col))
    columns = transpose(g.projection)
    for i in range(g.coord_rank):
        e = tuple(int(i == j) for j in range(g.coord_rank))
        rep = g.express(columns, e)
        assert rep is not None and g.project(rep) == g.reduce(e)
    return g


EDGE_CASES = {
    "saturated": make_presentation(3, [[1, 0, -1], [0, 1, -1]]),
    "non-saturated": make_presentation(2, [[2, 0]]),
    "gcd torsion": make_presentation(2, [[4, 6]], [(2, {(1, 1): 1})]),
    "two torsion factors": make_presentation(
        3, [[2, 0, 0], [0, 6, 0]], [(2, {(1, 0, 1): 1})]),
    "redundant and zero rows": make_presentation(
        3, [[1, 1, 0], [2, 2, 0], [0, 0, 0], [1, 1, 0]],
        [(2, {(1, 0, 1): 1})]),
    "degree-1 homogeneous": make_presentation(
        3, [[1, -1, 0]],
        [(1, {(0, 0, 1): 2}), (1, {(1, 0, 0): 1, (0, 1, 0): 1}),
         (2, {(1, 1, 0): 1})]),
    "no linear generators": make_presentation(
        3, [], [(2, {(1, 1, 0): 1, (0, 0, 2): -3}), (3, {(1, 1, 1): 2})]),
    "no generators": make_presentation(2),
    "zero variables": make_presentation(0),
    "zero variables with generators": make_presentation(
        0, [[]], [(1, {})]),
    "one variable": make_presentation(1, [], [(3, {(3,): 4})]),
    "one variable, unit relation": make_presentation(1, [[1]]),
    "one variable, torsion": make_presentation(1, [[3]],
                                               [(2, {(2,): 2})]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_direct_expansion(name):
    for k in range(5):
        check_against_direct(EDGE_CASES[name], k)


def test_torsion_survives_elimination():
    assert check_against_direct(EDGE_CASES["non-saturated"], 1) \
        .structure() == (1, (2,))
    assert check_against_direct(EDGE_CASES["non-saturated"], 2) \
        .structure() == (1, (2, 2))
    assert check_against_direct(EDGE_CASES["two torsion factors"], 1) \
        .structure() == (1, (2, 6))


def random_presentation(rng):
    n = rng.randint(0, 4)
    lin = [[rng.randint(-3, 3) for _ in range(n)]
           for _ in range(rng.randint(0, 3))]
    if lin and rng.random() < 0.3:
        # a multiple of an existing row: redundant, maybe non-saturating
        lin.append([rng.choice((-2, 2, 3)) * x for x in rng.choice(lin)])
    homs = []
    for _ in range(rng.randint(0, 3)):
        degree = rng.randint(1, 3)
        support = exponents(n, degree)
        if not support:
            continue
        poly = {}
        for expt in rng.sample(support, min(len(support),
                                            rng.randint(1, 3))):
            poly[expt] = rng.choice((-3, -2, -1, 1, 2, 3))
        homs.append((degree, poly))
    return make_presentation(n, lin, homs)


def test_random_presentations_match_direct_expansion():
    rng = random.Random(3)
    torsion_seen = 0
    for _ in range(150):
        p = random_presentation(rng)
        for k in range(4):
            torsion_seen += bool(check_against_direct(p, k).torsion)
    assert torsion_seen  # the sample exercises the torsion block


def test_corpus_rings_match_direct_expansion():
    for cone in corpus_cones():
        comparison = exceptional_comparison(exceptional_stratum(cone), 0)
        for p in (comparison.source, comparison.target):
            for k in range(5):
                check_against_direct(p, k)


def _rings():
    rng = random.Random(5)
    rings = list(EDGE_CASES.values())
    rings += [random_presentation(rng) for _ in range(60)]
    for cone in corpus_cones():
        comparison = exceptional_comparison(exceptional_stratum(cone), 0)
        rings += [comparison.source, comparison.target]
    return rings


def _sample_elements(rng, basis, columns, ref) -> list:
    """Degree-k elements as coefficient dicts: zero, a random combination
    of relation columns, the same off by one monomial, a generic element,
    and per torsion coordinate of the direct cokernel a representative of
    its unit (not a relation) and d times it (a relation), solved for with
    express on the projection's columns."""
    vecs = []
    if basis and columns:
        relation = [0] * len(basis)
        for col in rng.sample(columns, min(3, len(columns))):
            c = rng.randint(-3, 3)
            relation = [a + c * b for a, b in zip(relation, col)]
        off = list(relation)
        off[rng.randrange(len(basis))] += rng.choice((-1, 1))
        vecs += [relation, off]
    if basis:
        vecs.append([rng.randint(-3, 3) for _ in basis])
    n, ref_columns = ref.coord_rank, transpose(ref.projection)
    for i, d in enumerate(ref.torsion):
        for scale in (1, d):
            vecs.append(ref.express(ref_columns, tuple(scale if j == i else 0
                                                       for j in range(n))))
    return [{}] + [{m: c for m, c in zip(basis, v) if c} for v in vecs]


def test_normal_form_zeroness_matches_direct_cokernel():
    rng = random.Random(47)
    answers = set()
    for p in _rings():
        for k in range(5):
            basis, columns, ref = direct_cokernel(p, k)
            for element in _sample_elements(rng, basis, columns, ref):
                vec = tuple(element.get(m, 0) for m in basis)
                expected = not any(ref.project(vec))
                assert (not any(normal_form(p, k, element))) == expected
                answers.add(expected)
    assert answers == {True, False}


def test_normal_form_commutes_with_induced_map():
    rng = random.Random(13)
    maps = []
    for cone in corpus_cones() + random_cones(31, 200):
        try:
            maps.append(exceptional_comparison(exceptional_stratum(cone),
                                               0).map)
        except ComparisonError:
            continue
    assert len(maps) >= 100
    for rm in maps:
        n, n_target = rm.source.n_vars, rm.target.n_vars
        for k in range(4):
            matrix = induced_map(rm, k)
            target = graded_piece(rm.target, k)
            basis = monomials(n, k)
            for _ in range(3):
                element = {m: rng.randint(-3, 3)
                           for m in rng.sample(basis, min(3, len(basis)))}
                image = substitute(element, rm.substitution, n_target)
                assert normal_form(rm.target, k, image) == target.reduce(
                    matvec(matrix, normal_form(rm.source, k, element)))

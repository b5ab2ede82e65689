"""Cross-checks the exact kernel against sympy's Smith normal form.

sympy shares no code with intlinalg, so agreeing invariant factors on a
few hundred seeded matrices (zero, rank-deficient, wide and tall) is an
independent check of cokernel and of snf's diagonal.  The same matrices
check that the transform-free Hermite form agrees with the tracked one.
Seeded square matrices check the test-local adjugate of
test_kernel_generator_oracle against sympy's det and adjugate, and the
facet normals of seeded simplicial cones against sympy's adjugate
columns: column i of adj pairs to det with ray i and to 0 with the rest,
so sign(det) times it, made primitive, is the inward normal of the facet
without ray i.  Skipped when sympy is not installed.
"""

import random

import pytest

from test_kernel_generator_oracle import adjugate, det
from toricstacks.fan import Cone, primitivize
from toricstacks.intlinalg import (
    cokernel,
    hnf,
    hnf_form,
    matmul,
    snf,
)

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

N_MATRICES = 200


def _random_matrix(rng: random.Random, kind: int):
    nr, nc = rng.randint(0, 7), rng.randint(0, 7)
    if kind == 1:  # wide
        nr, nc = rng.randint(1, 3), rng.randint(4, 9)
    elif kind == 2:  # tall
        nr, nc = rng.randint(4, 9), rng.randint(1, 3)
    if kind == 0:
        return [[0] * nc for _ in range(nr)]
    bound = rng.choice((1, 2, 5, 30))
    if kind == 3 and min(nr, nc) >= 2:  # rank at most min - 1
        r = rng.randint(0, min(nr, nc) - 1)
        left = [[rng.randint(-bound, bound) for _ in range(r)]
                for _ in range(nr)]
        right = [[rng.randint(-bound, bound) for _ in range(nc)]
                 for _ in range(r)]
        return [list(row) for row in matmul(left, right)] if r else \
            [[0] * nc for _ in range(nr)]
    return [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
             for _ in range(nc)] for _ in range(nr)]


def _matrices():
    rng = random.Random(20190420)
    return [_random_matrix(rng, i % 5) for i in range(N_MATRICES)]


def _sympy_structure(m):
    nr = len(m)
    nc = len(m[0]) if m else 0
    d = normalforms.smith_normal_form(sympy.Matrix(nr, nc, sum(m, [])),
                                      domain=sympy.ZZ)
    factors = sorted(abs(int(d[i, i])) for i in range(min(nr, nc))
                     if d[i, i])
    return nr - len(factors), tuple(x for x in factors if x > 1)


def test_matrix_mix_covers_the_awkward_shapes():
    ms = _matrices()
    assert any(m and not any(map(any, m)) for m in ms)
    assert any(len(m) and len(m[0]) > 2 * len(m) for m in ms)
    assert any(len(m) > 2 * len(m[0]) > 0 for m in ms if m)
    assert any(not m or not m[0] for m in ms)


def test_cokernel_structure_matches_sympy():
    for m in _matrices():
        assert cokernel(m).structure() == _sympy_structure(m), m


def test_transform_free_forms_match_tracked_ones():
    for m in _matrices():
        assert hnf_form(m) == hnf(m)[0], m


def test_snf_diagonal_matches_sympy():
    for m in _matrices():
        d = snf(m)[0]
        factors = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))
                   if d[i][i]]
        assert (len(m) - len(factors), tuple(x for x in factors if x > 1)) \
            == _sympy_structure(m), m


def test_adjugate_matches_sympy():
    rng = random.Random(20190427)
    seen = {"singular": 0, "regular": 0}
    for i in range(N_MATRICES):
        n = 1 + i % 5
        bound = rng.choice((1, 2, 5, 30))
        m = [[rng.randint(-bound, bound) for _ in range(n)]
             for _ in range(n)]
        if i % 4 == 0:  # a repeated row makes m singular
            m[-1] = list(m[0])
        d, adj = adjugate(m)
        expected = sympy.Matrix(m)
        assert d == expected.det(method="bareiss"), m
        if d:
            assert [list(row) for row in adj] == \
                expected.adjugate().tolist(), m
        else:
            assert adj is None, m
        seen["regular" if d else "singular"] += 1
    assert min(seen.values()) >= 40, seen


def test_facet_normals_match_sympy_adjugate():
    rng = random.Random(20190429)
    seen = {"negative det": 0, "|det| > 1": 0, "rank 5": 0}
    checked = 0
    for i in range(N_MATRICES):
        n = 1 + i % 5
        bound = rng.choice((1, 2, 5))
        gens = [[rng.randint(-bound, bound) for _ in range(n)]
                for _ in range(n)]
        if not det(gens):
            continue
        c = Cone(n, gens)
        adj = sympy.Matrix(c.rays).adjugate()
        sign = 1 if det(c.rays) > 0 else -1
        expected = {frozenset(range(n)) - {j}:
                    primitivize([sign * int(x) for x in adj[:, j]])
                    for j in range(n)}
        assert dict(zip(c.facet_sets, c.facet_normals)) == expected, gens
        assert c.facet_sets == tuple(sorted(expected, key=sorted)), gens
        checked += 1
        seen["negative det"] += sign < 0
        seen["|det| > 1"] += abs(det(c.rays)) > 1
        seen["rank 5"] += n == 5
    assert checked >= 150 and min(seen.values()) >= 20, (checked, seen)

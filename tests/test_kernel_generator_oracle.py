"""Checks det, adjugate and kernel_generator on seeded matrices.

kernel_generator is compared with kernel_basis, an HNF computation: it
must return None exactly when the kernel has more than one basis column,
and otherwise that column, sign included.  det is compared with cofactor
expansion and, when sympy is installed, with sympy's determinant.
adjugate, the test-local reference kept in test_simplicial_cone_oracle,
must return det and a matrix with m * adj = det * I, or (0, None) for a
singular matrix.
"""

import random

import pytest

from test_simplicial_cone_oracle import adjugate
from toricstacks.intlinalg import det, identity, kernel_basis, \
    kernel_generator, matmul, transpose

N_MATRICES = 300
KINDS = ("generic", "zero", "zero-row", "duplicate-row", "rank-deficient",
         "wide-entries")


def _random_rows(rng: random.Random, kind: str, nr: int, nc: int):
    bound = rng.choice((1, 2, 5, 30))
    if kind == "wide-entries":
        bound = 10 ** rng.randint(12, 40)
    rows = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
             for _ in range(nc)] for _ in range(nr)]
    if kind == "zero":
        rows = [[0] * nc for _ in range(nr)]
    elif kind == "zero-row" and rows:
        rows[rng.randrange(nr)] = [0] * nc
    elif kind == "duplicate-row" and nr >= 2:
        i, j = rng.sample(range(nr), 2)
        rows[i] = list(rows[j])
    elif kind == "rank-deficient" and min(nr, nc) >= 2:
        r = rng.randint(1, min(nr, nc) - 1)
        left = [[rng.randint(-bound, bound) for _ in range(r)]
                for _ in range(nr)]
        right = [[rng.randint(-bound, bound) for _ in range(nc)]
                 for _ in range(r)]
        rows = [list(row) for row in matmul(left, right)]
    return rows


def _kernel_cases():
    """(d-1) x d matrices for d = 1..6, every kind in turn."""
    rng = random.Random(20190423)
    out = []
    for i in range(N_MATRICES):
        d = 1 + i % 6
        out.append(_random_rows(rng, KINDS[i // 6 % len(KINDS)], d - 1, d))
    return out


def _square_cases():
    rng = random.Random(20190424)
    out = []
    for i in range(N_MATRICES):
        n = i % 7
        out.append(_random_rows(rng, KINDS[i // 7 % len(KINDS)], n, n))
    return out


def _expected_generator(rows, d):
    ker = transpose(kernel_basis(rows or [[0] * d]))
    return ker[0] if len(ker) == 1 else None


def test_kernel_generator_matches_kernel_basis():
    seen = {"none": 0, "vector": 0}
    for rows in _kernel_cases():
        d = len(rows) + 1
        got = kernel_generator(rows)
        assert got == _expected_generator(rows, d), rows
        seen["none" if got is None else "vector"] += 1
    assert seen["none"] >= 100 and seen["vector"] >= 100


@pytest.mark.parametrize("rows, expected", [
    ([], (1,)),
    ([[0, 0]], None),
    ([[3, 0]], (0, 1)),
    ([[0, 5]], (1, 0)),
    ([[2, 4]], (2, -1)),
    ([[-2, -4]], (2, -1)),
    ([[1, 0, 0], [0, 1, 0]], (0, 0, 1)),
    ([[1, 1, 1], [2, 2, 2]], None),
    ([[2, 0, 0], [0, 2, 0]], (0, 0, 1)),
    ([[0, 0, 1], [0, 1, 0]], (1, 0, 0)),
])
def test_kernel_generator_small(rows, expected):
    assert kernel_generator(rows) == expected


def test_kernel_generator_rejects_wrong_shape():
    with pytest.raises(ValueError):
        kernel_generator([[1, 2]] * 2)
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        adjugate([[1, 2]])
    with pytest.raises(ValueError):
        adjugate([[1, 2], [3]])


def _cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:]
                                               for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def test_det_matches_cofactor_expansion():
    for m in _square_cases():
        assert det(m) == _cofactor_det(m), m


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _square_cases():
        if m:
            assert det(m) == sympy.Matrix(m).det(method="bareiss"), m


def test_adjugate_inverts_up_to_det():
    seen = {"singular": 0, "negative": 0, "large": 0}
    for m in _square_cases():
        d, adj = adjugate(m)
        assert d == det(m), m
        if not d:
            assert adj is None, m
            seen["singular"] += 1
            continue
        n = len(m)
        scaled = tuple(tuple(d * x for x in row) for row in identity(n))
        assert matmul(m, adj) == scaled and matmul(adj, m) == scaled, m
        seen["negative"] += d < 0
        seen["large"] += abs(d) > 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("m, expected", [
    ([], (1, ())),
    ([[-3]], (-3, ((1,),))),
    ([[0, 1], [1, 0]], (-1, ((0, -1), (-1, 0)))),
    ([[2, 1], [0, 3]], (6, ((3, -1), (0, 2)))),
    ([[1, 2], [2, 4]], (0, None)),
])
def test_adjugate_small(m, expected):
    assert adjugate(m) == expected

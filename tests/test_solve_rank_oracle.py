"""Checks solve_many_in_span and rank on seeded matrices.

The solver is compared with a test-local copy of solve_in_span as it was
written before it shared one HNF across right-hand sides, and each answer
is checked on its own terms: a solution must solve, and "no solution" must
agree with the cokernel (an SNF computation, not an HNF back-substitution).
The rank is compared with the kernel's size and, when sympy is installed,
with sympy's rank.
"""

import random

import pytest

from toricstacks.intlinalg import (
    cokernel,
    freeze,
    hnf,
    kernel_basis,
    matmul,
    matvec,
    rank,
    solve_in_span,
    solve_many_in_span,
    transpose,
)

N_MATRICES = 200
KINDS = ("zero", "empty", "wide", "tall", "rank-deficient")


def _random_matrix(rng: random.Random, kind: str):
    bound = rng.choice((1, 2, 5, 30))
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "zero":
        return [[0] * nc for _ in range(nr)]
    if kind == "empty":
        return [[] for _ in range(nr)] if rng.random() < 0.5 else []
    if kind == "wide":
        nr, nc = rng.randint(1, 3), rng.randint(4, 8)
    elif kind == "tall":
        nr, nc = rng.randint(4, 8), rng.randint(1, 3)
    elif min(nr, nc) >= 2:  # rank-deficient: rank at most min - 1
        r = rng.randint(1, min(nr, nc) - 1)
        left = [[rng.randint(-bound, bound) for _ in range(r)]
                for _ in range(nr)]
        right = [[rng.randint(-bound, bound) for _ in range(nc)]
                 for _ in range(r)]
        return [list(row) for row in matmul(left, right)]
    return [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
             for _ in range(nc)] for _ in range(nr)]


def _matrices():
    rng = random.Random(20190422)
    return [_random_matrix(rng, KINDS[i % len(KINDS)])
            for i in range(N_MATRICES)]


def _right_hand_sides(rng: random.Random, m):
    """Images m * x (solvable), images plus a small error and random
    vectors (mostly unsolvable), and zero."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    bs = [tuple([0] * nr)]
    for _ in range(3):
        x = [rng.randint(-4, 4) for _ in range(nc)]
        image = matvec(m, x)
        bs.append(image)
        if nr:
            i = rng.randrange(nr)
            bs.append(tuple(y + (j == i) * rng.choice((1, 2, -3))
                            for j, y in enumerate(image)))
        bs.append(tuple(rng.randint(-6, 6) for _ in range(nr)))
    return bs


def reference_solve(m, b):
    """solve_in_span as written before it shared one HNF across
    right-hand sides."""
    m = freeze(m)
    nc = len(m[0]) if m else 0
    if nc == 0:
        return () if not any(b) else None
    h, u = hnf(transpose(m))
    res = [int(x) for x in b]
    z = [0] * len(h)
    for i, row in enumerate(h):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            break
        q, r = divmod(res[p], row[p])
        if r:
            return None
        z[i] = q
        res = [x - q * y for x, y in zip(res, row)]
    if any(res):
        return None
    return tuple(sum(z[i] * u[i][j] for i in range(len(u)))
                 for j in range(nc))


def _in_column_lattice(m, b) -> bool:
    if not m:
        return True
    return not any(cokernel(m).project(b))


def test_solve_many_matches_solve_in_span():
    rng = random.Random(7)
    seen = {"solved": 0, "unsolvable": 0}
    for m in _matrices():
        bs = _right_hand_sides(rng, m)
        many = solve_many_in_span(m, bs)
        assert len(many) == len(bs)
        for b, x in zip(bs, many):
            assert x == reference_solve(m, b) == solve_in_span(m, b)
            if x is None:
                assert not _in_column_lattice(m, b)
                seen["unsolvable"] += 1
            else:
                assert matvec(m, x) == tuple(b)
                seen["solved"] += 1
    assert min(seen.values()) > 100, seen


def test_solve_many_edge_cases():
    assert solve_many_in_span(((1, 2), (3, 4)), ()) == ()
    assert solve_many_in_span((), [(), ()]) == ((), ())
    assert solve_many_in_span(((), ()), [(0, 0), (0, 1)]) == ((), None)
    with pytest.raises(ValueError):
        solve_many_in_span(((1,), (2,)), [(1, 2), (1,)])


def _nullity(m) -> int:
    return len(transpose(kernel_basis(m)))


def test_rank_matches_kernel_size():
    for m in _matrices():
        nc = len(m[0]) if m else 0
        assert rank(m) + _nullity(m) == nc
        if m and nc:
            assert rank(transpose(m)) == rank(m)
        else:
            assert rank(m) == 0


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _matrices():
        nc = len(m[0]) if m else 0
        expected = sympy.Matrix(m).rank() if m and nc else 0
        assert rank(m) == expected

"""Checks the kernel basis that cone facets read against the
signed-minors generator it replaced, and keeps the dense references other
tests use.

_facet_data once took each facet normal from kernel_generator, the
primitive vector of a subset's signed maximal minors (through the Bareiss
det), and Cone skipped the kernel of n rays in rank n when their det was
nonzero.  Both left the library for the memoised kernel_basis; det and
kernel_generator below keep that code as written, with adjugate, the
fraction-free Gauss-Jordan reference simplicial cones once read their
facets from.  test_fan, test_simplicial_cone_oracle,
test_lazy_geometry_oracle, test_sympy_oracle and
test_fan_combinatorics_oracle import them.

On seeded (d-1) x d matrices, kernel_basis (the identity of rank 1 for
d = 1), read as _facet_data reads it, must have exactly one column when
kernel_generator returns a vector, and that column, sign included, and
more than one column when it returns None.  det is compared with cofactor
expansion and, when sympy is installed, with sympy's determinant.
adjugate must return det and a matrix with m * adj = det * I, or
(0, None) for a singular matrix.
"""

import random
from math import gcd

import pytest

from toricstacks.intlinalg import Matrix, Vector, identity, kernel_basis, \
    matmul, transpose


def det(m) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination: every intermediate entry is a minor of m, so each division
    is exact."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - x * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if a else 1


def kernel_generator(m) -> Vector | None:
    """The primitive generator of the kernel of a (d-1) x d integer matrix
    of rank d-1, signed like kernel_basis (first nonzero entry positive);
    None when the rank is below d-1.

    The kernel of such a matrix is spanned by its signed maximal minors,
    w_j = (-1)^j det(m without column j), which vanish together exactly
    when the rank drops; dividing by their content gives the generator.
    An empty matrix has d = 1 and kernel Z."""
    rows = [tuple(map(int, row)) for row in m]
    d = len(rows) + 1
    if any(len(row) != d for row in rows):
        raise ValueError("kernel generator needs a (d-1) x d matrix")
    w = [det([row[:j] + row[j + 1:] for row in rows]) for j in range(d)]
    g = 0
    for j in range(d):
        if j % 2:
            w[j] = -w[j]
        g = gcd(g, w[j])
    if not g:
        return None
    if next(x for x in w if x) < 0:
        g = -g
    return tuple(x // g for x in w)


def adjugate(m) -> tuple[int, Matrix | None]:
    """(det m, adj m), so m * adj = det * I, by fraction-free (Bareiss)
    Gauss-Jordan elimination of [m | I], where every division is exact;
    (0, None) for a singular m."""
    n = len(m)
    a = [list(map(int, row)) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    if any(len(row) != 2 * n for row in a):
        raise ValueError("adjugate of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0, None
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a:
            if row is not row_k:
                x = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = (row[j] * pivot - x * row_k[j]) // prev
        prev = pivot
    # a is now E [m | I] with E m = prev * I and prev = det(P m) for the
    # row swaps P, so E = sign * adj m.
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


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


def _facet_normal(rows, d):
    """The normal _facet_data reads for a (d-1)-subset with these rows:
    the one column of their kernel basis, or None when it has more."""
    basis = transpose(kernel_basis(rows)) if rows else identity(d)
    return basis[0] if len(basis) == 1 else None


def test_kernel_generator_matches_kernel_basis():
    seen = {"none": 0, "vector": 0}
    for rows in _kernel_cases():
        d = len(rows) + 1
        got = kernel_generator(rows)
        assert got == _facet_normal(rows, d), rows
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

import math
import random
from fractions import Fraction
from itertools import combinations

from toricstacks.intlinalg import (
    AbelianGroup,
    cokernel,
    from_columns,
    hnf,
    identity,
    kernel_basis,
    matmul,
    matvec,
    snf,
    solve_in_span,
    transpose,
)


# Independent oracle: rational Gaussian elimination, no shared code with the
# HNF/SNF path.

def rational_kernel_dim(m):
    rows = [[Fraction(x) for x in row] for row in m]
    nc = len(m[0]) if m else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        inv = 1 / pivot_row[c]
        rows[rank] = [x * inv for x in pivot_row]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return nc - rank


def gcd_of_maximal_minors(cols):
    # cols: list of column vectors, full column rank assumed.
    import math
    k = len(cols)
    n = len(cols[0]) if cols else 0
    g = 0
    for rows in combinations(range(n), k):
        sub = [[cols[j][i] for j in range(k)] for i in rows]
        g = math.gcd(g, _det(sub))
    return g


def _det(m):
    m = [row[:] for row in m]
    n = len(m)
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        # Fraction-free would need Bareiss; Fractions are fine at this size.
        for i in range(c + 1, n):
            f = Fraction(m[i][c], m[c][c])
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    prod = sign
    for i in range(n):
        prod *= m[i][i]
    assert prod.denominator == 1
    return int(prod)


def random_matrix(rng, max_dim=5, lo=-9, hi=9):
    nr = rng.randrange(1, max_dim + 1)
    nc = rng.randrange(1, max_dim + 1)
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_hnf_frozen():
    h, u = hnf([[2, 4], [1, 3]])
    assert h == ((1, 1), (0, 2))
    assert matmul(u, [[2, 4], [1, 3]]) == h
    assert u[0][0] * u[1][1] - u[0][1] * u[1][0] in (1, -1)


def test_hnf_trivial():
    h, u = hnf([[0, 0], [0, 0]])
    assert h == ((0, 0), (0, 0))
    assert u == identity(2)
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_canonical_form():
    rng = random.Random(101)
    for _ in range(200):
        m = random_matrix(rng)
        h, u = hnf(m)
        assert matmul(u, m) == h
        pivots = []
        for row in h:
            p = next((j for j, x in enumerate(row) if x), None)
            if p is None:
                continue
            pivots.append(p)
            assert row[p] > 0
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for k, p in enumerate(pivots):
            for i in range(k):
                assert 0 <= h[i][p] < h[k][p]
        # rows past the rank are zero
        rank = len(pivots)
        for row in h[rank:]:
            assert not any(row)


def test_snf_frozen():
    d, u, v = snf([[2, 4], [1, 3]])
    assert d == ((1, 0), (0, 2))
    assert matmul(matmul(u, [[2, 4], [1, 3]]), v) == d

    m = [[1, 0, -1, 0], [0, -1, 0, 1], [1, 1, 1, 1]]
    d, u, v = snf(m)
    assert [d[i][i] for i in range(3)] == [1, 1, 2]
    assert matmul(matmul(u, m), v) == d

    d, _, _ = snf([[0, 0], [0, 0]])
    assert d == ((0, 0), (0, 0))


def test_snf_identities_random():
    rng = random.Random(202)
    for _ in range(200):
        m = random_matrix(rng)
        d, u, v = snf(m)
        assert matmul(matmul(u, m), v) == d
        diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
        for i, x in enumerate(diag):
            assert x >= 0
            for j in range(len(d[i])):
                if j != i:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0


def test_cokernel_square_cone_weights():
    # Quotient of Z^4 by the pairing lattice of the four rays of the cone
    # over the unit square at height 1 (rotated 45 degrees).  The lattice
    # has index 2 in its saturation, so a Z/2 factor appears alongside Z;
    # the canonical free functional is (1,-1,1,-1).
    rays = ((1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1))
    g = cokernel(rays)
    assert g.structure() == (1, (2,))
    weights = [g.project(tuple(int(i == j) for j in range(4))) for i in range(4)]
    assert [w[1] for w in weights] == [1, -1, 1, -1]
    assert [w[0] for w in weights] == [1, 0, 1, 0]
    assert g.describe() == "Z/2 + Z"


def test_cokernel_trivial_and_torsion():
    assert cokernel(identity(3)).is_trivial
    m = transpose([[1, 0, -1, 0], [0, -1, 0, 1], [1, 1, 1, 1]])
    g = cokernel(m)
    assert g.structure() == (1, (2,))
    assert g.describe() == "Z/2 + Z"


def test_cokernel_unimodular_invariance():
    rng = random.Random(303)
    for _ in range(60):
        m = random_matrix(rng, max_dim=4, lo=-5, hi=5)
        g = cokernel(m)
        # Right-multiplying by a unimodular matrix preserves the column span.
        nc = len(m[0])
        w = [[int(i == j) for j in range(nc)] for i in range(nc)]
        for _ in range(6):
            i, j = rng.randrange(nc), rng.randrange(nc)
            if i != j:
                q = rng.randint(-2, 2)
                for r in range(nc):
                    w[r][i] += q * w[r][j]
        g2 = cokernel(matmul(m, w))
        assert g.structure() == g2.structure()
        assert g.projection == g2.projection


def test_cokernel_projection_lift_roundtrip():
    rng = random.Random(404)
    for _ in range(100):
        m = random_matrix(rng, max_dim=4)
        g = cokernel(m)
        k = g.coord_rank
        for i in range(k):
            e = tuple(int(j == i) for j in range(k))
            assert g.reduce(matvec(g.projection, g.lift_coords(e))) == g.reduce(e)


def test_from_columns():
    assert from_columns([], 3) == ((), (), ())
    assert from_columns((), 0) == ()
    cols = [(1, 2, 3), (4, 5, 6)]
    assert from_columns(cols, 3) == transpose(cols) == ((1, 4), (2, 5), (3, 6))
    assert cokernel(from_columns([], 3)).structure() == (3, ())


def test_kernel_basis_frozen():
    rays = ((1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1))
    beta = transpose(rays)
    kb = kernel_basis(beta)
    cols = transpose(kb)
    assert len(cols) == 1
    assert cols[0] in ((1, -1, 1, -1), (-1, 1, -1, 1))

    assert kernel_basis(identity(3)) == ((), (), ())
    assert kernel_basis([[0, 0, 0]]) == identity(3)


def test_kernel_basis_saturated():
    rng = random.Random(505)
    for _ in range(150):
        m = random_matrix(rng)
        kb = kernel_basis(m)
        cols = list(transpose(kb))
        for col in cols:
            assert not any(matvec(m, col))
        assert len(cols) == rational_kernel_dim(m)
        if cols:
            # Saturated lattice <=> gcd of maximal minors of the basis is 1.
            assert gcd_of_maximal_minors(cols) == 1


def test_solve_in_span_frozen():
    m = transpose([(3, 2), (-2, -3)])
    assert solve_in_span(m, (0, 1)) is None
    assert solve_in_span(m, (0, 15)) == (-6, -9)
    assert solve_in_span(m, (0, 0)) == (0, 0)


def test_solve_in_span_random():
    rng = random.Random(606)
    for _ in range(150):
        m = random_matrix(rng)
        nc = len(m[0])
        x = [rng.randint(-6, 6) for _ in range(nc)]
        b = matvec(m, x)
        s = solve_in_span(m, b)
        assert s is not None
        assert matvec(m, s) == b
        # Success must match the cokernel criterion exactly.
        g = cokernel(m)
        y = [rng.randint(-9, 9) for _ in range(len(m))]
        s2 = solve_in_span(m, y)
        killed = not any(g.project(tuple(y)))
        assert (s2 is not None) == killed


def test_solve_in_span_dimension_mismatch():
    try:
        solve_in_span([[1, 0], [0, 1]], (1, 2, 3))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_group_reduce_and_describe():
    g = AbelianGroup(ambient_rank=2, free_rank=1, torsion=(4,),
                     projection=((1, 0), (0, 1)), lift=((1, 0), (0, 1)))
    assert g.reduce((7, -3)) == (3, -3)
    assert g.describe() == "Z/4 + Z"
    assert cokernel(identity(2)).describe() == "0"


def _subgroup(group, cols):
    """Every element of the subgroup that cols generate in a finite group,
    by closure under adding a generator: an oracle with no linear
    algebra."""
    zero = group.reduce((0,) * group.coord_rank)
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for c in cols:
            y = group.reduce(tuple(a + b for a, b in zip(x, c)))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def test_group_generation_edge_cases():
    trivial = cokernel(identity(2))
    free = cokernel(((0,),))  # Z
    z6 = cokernel(((6,),))
    # No columns generate only the trivial group.
    assert trivial.generated_by([])
    assert not free.generated_by([])
    assert not z6.generated_by([])
    assert free.express([], (0,)) == () and free.express([], (1,)) is None
    assert z6.express([], (0,)) == () and z6.express([], (3,)) is None
    # The trivial group has no coordinates; any coefficients will do.
    assert trivial.coord_rank == 0
    assert trivial.generated_by([(), ()])
    assert trivial.express([(), ()], ()) == (0, 0)
    assert trivial.order(()) == 1
    # Pure torsion: 2 and 3 generate Z/6, 2 alone does not.
    assert z6.generated_by([(2,), (3,)])
    assert not z6.generated_by([(2,)])
    (x,) = z6.express([(2,)], (4,))
    assert (2 * x - 4) % 6 == 0
    assert z6.express([(2,)], (3,)) is None
    assert [z6.order((c,)) for c in range(6)] == [1, 6, 3, 2, 3, 6]
    # Free part: infinite order unless zero.
    assert free.order((0,)) == 1 and free.order((-2,)) is None
    assert free.generated_by([(-1,)]) and not free.generated_by([(2,)])
    assert free.express([(2,), (3,)], (1,)) is not None


def test_group_generation_random_torsion_groups():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(1, 3)
        group = cokernel([[rng.randint(-6, 6) if i != j else
                           rng.choice((2, 3, 4, 6, 9)) for j in range(n)]
                          for i in range(n)])
        if group.free_rank or group.is_trivial \
                or math.prod(group.torsion) > 60:
            continue
        cols = [group.reduce(tuple(rng.randint(0, 8)
                                   for _ in range(group.coord_rank)))
                for _ in range(rng.randint(0, 3))]
        span = _subgroup(group, cols)
        whole = _subgroup(group, [tuple(int(i == j) for j in
                                        range(group.coord_rank))
                                  for i in range(group.coord_rank)])
        assert group.generated_by(cols) == (span == whole)
        outcomes.add(("generated", span == whole))
        for target in whole:
            x = group.express(cols, target)
            assert (x is not None) == (target in span)
            outcomes.add(("expressed", x is not None))
            if x is not None:
                total = [sum(a * c[t] for a, c in zip(x, cols))
                         for t in range(group.coord_rank)]
                assert group.reduce(total) == target
            order = group.order(target)
            assert len(_subgroup(group, [target])) == order
    assert len(outcomes) == 4  # both answers of both questions occur

"""The elimination kernels against the ones they replaced.

intlinalg._hnf and intlinalg._snf apply every row and column operation
inline, on one list of working rows: u rides along as extra columns, v as
extra rows, and u_inv as the rows of its transpose.  The classes and
functions between the two rules below are the earlier kernels, kept
verbatim as the oracle: each row operation is a _RowOps method call and
each column operation an _SnfState one.  Both pick the same pivots (the
first entry of least absolute value) and take the same floor quotients,
so the reduced matrix and every transform asked for must agree entry for
entry, for every combination of transform flags, on seeded matrices of
every shape up to 8 x 8, those with no rows or no columns included.

The rest checks the Hermite memos: hnf_form, kernel_basis and the echelon
solve_many_in_span reads.  A hit returns what a miss returns, a list and
a tuple of one matrix share one entry, every cached value is made of
tuples (a caller that changed a list in place would change the memo), and
clearing the package caches empties them.
"""

import itertools
import random

from test_chow_certificate import clear_package_caches
from toricstacks import intlinalg
from toricstacks.intlinalg import (
    _xgcd,
    freeze,
    from_columns,
    hnf_form,
    identity,
    kernel_basis,
    matvec,
    solve_many_in_span,
    transpose,
)

# -- the earlier kernels, verbatim ------------------------------------------

class _RowOps:
    """A mutable matrix under unimodular row operations, tracking only the
    transforms asked for: u with work = u * original, u_inv with
    u * u_inv = 1.  An untracked transform is None and costs nothing."""

    def __init__(self, m, u: bool = False, u_inv: bool = False):
        self.a = [list(map(int, row)) for row in m]
        eye = identity(len(self.a))
        self.u = list(map(list, eye)) if u else None
        self.u_inv = list(map(list, eye)) if u_inv else None
        self.row_mats = [self.a] + ([self.u] if u else [])

    def swap(self, i, j):
        if i == j:
            return
        for mat in self.row_mats:
            mat[i], mat[j] = mat[j], mat[i]
        for row in self.u_inv or ():
            row[i], row[j] = row[j], row[i]

    def negate(self, i):
        for mat in self.row_mats:
            mat[i] = [-x for x in mat[i]]
        for row in self.u_inv or ():
            row[i] = -row[i]

    def submul(self, i, j, q):
        # row i -= q * row j;  the inverse transform gains col j += q * col i.
        if not q:
            return
        for mat in self.row_mats:
            mat[i] = [x - q * y for x, y in zip(mat[i], mat[j])]
        for row in self.u_inv or ():
            row[j] += q * row[i]


def _hnf(m, u: bool = False, u_inv: bool = False) -> _RowOps:
    """Row Hermite normal form (echelon, pivots positive, entries above a
    pivot reduced into [0, pivot)) with the transforms asked for."""
    ops = _RowOps(m, u, u_inv)
    a = ops.a
    nr = len(a)
    nc = len(a[0]) if a else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            piv = None
            for i in range(r, nr):
                if a[i][c] and (piv is None or abs(a[i][c]) < abs(a[piv][c])):
                    piv = i
            if piv is None:
                break
            ops.swap(r, piv)
            p = a[r][c]
            clean = True
            for i in range(r + 1, nr):
                if a[i][c]:
                    ops.submul(i, r, a[i][c] // p)
                    if a[i][c]:
                        clean = False
            if clean:
                break
        if a[r][c]:
            if a[r][c] < 0:
                ops.negate(r)
            p = a[r][c]
            for i in range(r):
                ops.submul(i, r, a[i][c] // p)
            r += 1
    return ops



class _SnfState:
    """Mutable Smith reduction state, a = u * original * v: row operations
    go through a _RowOps, and the column transform v is tracked (or None)
    on request.  Nothing tracks the inverse of v."""

    def __init__(self, m, u: bool = False, u_inv: bool = False,
                 v: bool = False):
        self.rows = _RowOps(m, u, u_inv)
        self.v = list(map(list, identity(len(m[0]) if len(m) else 0))) \
            if v else None

    @property
    def a(self):
        return self.rows.a

    def cswap(self, i, j):
        if i != j:
            for row in self.a + (self.v or []):
                row[i], row[j] = row[j], row[i]

    def csubmul(self, j, k, q):
        # col j -= q * col k
        if q:
            for row in self.a + (self.v or []):
                row[j] -= q * row[k]

    def two_by_two(self, i, j, p, p_inv, q):
        # a <- P*a*Q on rows/cols {i, j}, for 2x2 unimodular P, Q.
        rows = self.rows
        for mat in rows.row_mats:
            ri, rj = mat[i], mat[j]
            mat[i] = [p[0][0] * x + p[0][1] * y for x, y in zip(ri, rj)]
            mat[j] = [p[1][0] * x + p[1][1] * y for x, y in zip(ri, rj)]
        for row in rows.u_inv or ():
            ci, cj = row[i], row[j]
            row[i] = ci * p_inv[0][0] + cj * p_inv[1][0]
            row[j] = ci * p_inv[0][1] + cj * p_inv[1][1]
        for row in self.a + (self.v or []):
            ci, cj = row[i], row[j]
            row[i] = ci * q[0][0] + cj * q[1][0]
            row[j] = ci * q[0][1] + cj * q[1][1]


def _snf(m, u: bool = False, u_inv: bool = False,
         v: bool = False) -> _SnfState:
    st = _SnfState(m, u, u_inv, v)
    a = st.a
    nr = len(a)
    nc = len(a[0]) if a else 0
    n = min(nr, nc)

    for k in range(n):
        # Global minimum pivot keeps entry growth tame and pushes zeros to
        # the tail of the diagonal.
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] and (piv is None
                                or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        st.rows.swap(k, piv[0])
        st.cswap(k, piv[1])
        while True:
            # Clear column k, then row k; column ops cannot dirty a cleared
            # column k, but row remainders restart the loop.
            while any(a[i][k] for i in range(k + 1, nr)):
                i = min((x for x in range(k, nr) if a[x][k]),
                        key=lambda x: abs(a[x][k]))
                st.rows.swap(k, i)
                p = a[k][k]
                for i in range(k + 1, nr):
                    st.rows.submul(i, k, a[i][k] // p)
            while any(a[k][j] for j in range(k + 1, nc)):
                j = min((x for x in range(k, nc) if a[k][x]),
                        key=lambda x: abs(a[k][x]))
                st.cswap(k, j)
                p = a[k][k]
                for j in range(k + 1, nc):
                    st.csubmul(j, k, a[k][j] // p)
            if not any(a[i][k] for i in range(k + 1, nr)):
                break
        if a[k][k] < 0:
            st.rows.negate(k)

    # Fix the divisibility chain by gcd/lcm-merging adjacent diagonal pairs:
    # diag(a, b) -> diag(g, a*b/g) via explicit 2x2 unimodular P, Q.
    rank = sum(1 for k in range(n) if a[k][k])
    done = False
    while not done:
        done = True
        for k in range(rank - 1):
            da, db = a[k][k], a[k + 1][k + 1]
            if db % da == 0:
                continue
            done = False
            g, x, y = _xgcd(da, db)
            p = ((x, y), (-db // g, da // g))
            p_inv = ((da // g, -y), (db // g, x))
            q = ((1, -y * db // g), (1, x * da // g))
            st.two_by_two(k, k + 1, p, p_inv, q)
    return st

# ---------------------------------------------------------------------------


def random_matrix(rng, nr, nc, bound, zeros=0.0):
    return tuple(tuple(0 if rng.random() < zeros
                       else rng.randint(-bound, bound) for _ in range(nc))
                 for _ in range(nr))


def seeded_matrices(seed: int) -> list:
    """Every shape nr x nc with 0 <= nr, nc <= 8 (a matrix with no rows
    has no width): entries up to +-50, small entries that tie for the
    pivot, sparse rows, and rows that depend on the others; then a few
    with entries up to +-2^40."""
    rng = random.Random(seed)
    out = [()]
    for nr, nc in itertools.product(range(1, 9), range(9)):
        out.append(random_matrix(rng, nr, nc, 50))
        out.append(random_matrix(rng, nr, nc, 2))
        out.append(random_matrix(rng, nr, nc, 3, zeros=0.6))
        base = random_matrix(rng, max(1, nr // 2), nc, 4)
        out.append(tuple(tuple(sum(rng.randint(-2, 2) * x for x in col)
                               for col in zip(*base)) if nc else ()
                         for _ in range(nr)))
    for _ in range(12):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        out.append(random_matrix(rng, nr, nc, 2 ** 40))
    return out


def frozen(x):
    return None if x is None else freeze(x)


def test_hnf_matches_the_earlier_kernel_for_every_flag():
    for m in seeded_matrices(29):
        for u, u_inv in itertools.product((False, True), repeat=2):
            old = _hnf(m, u, u_inv)
            new = intlinalg._hnf(m, u, u_inv)
            assert tuple(map(frozen, new)) \
                == (frozen(old.a), frozen(old.u), frozen(old.u_inv)), \
                (m, u, u_inv)


def test_snf_matches_the_earlier_kernel_for_every_flag():
    for m in seeded_matrices(30):
        for u, u_inv, v in itertools.product((False, True), repeat=3):
            old = _snf(m, u, u_inv, v)
            new = intlinalg._snf(m, u, u_inv, v)
            assert tuple(map(frozen, new)) \
                == (frozen(old.a), frozen(old.rows.u),
                    frozen(old.rows.u_inv), frozen(old.v)), (m, u, u_inv, v)


def old_kernel_basis(m):
    nc = len(m[0]) if m else 0
    ops = _hnf(transpose(m), u=True)
    rows = [ops.u[i] for i in range(len(ops.a)) if not any(ops.a[i])]
    return from_columns([tuple(r) for r in _hnf(rows).a if any(r)], nc)


def old_echelon(m):
    ops = _hnf(transpose(m), u=True)
    r = len([row for row in ops.a if any(row)])
    return freeze(ops.a[:r]), freeze(ops.u[:r])


MEMOS = ("_hnf_form", "_kernel_basis", "_solve_echelon")


def memo_matrices() -> list:
    return [m for m in seeded_matrices(31) if m and m[0]][::7]


def calls(name: str) -> tuple[int, int]:
    info = getattr(intlinalg, name).cache_info()
    return info.hits, info.misses


def test_a_hit_returns_what_a_miss_returns():
    clear_package_caches()
    for m in memo_matrices():
        bs = [matvec(m, x) for x in ((1,) * len(m[0]), (0,) * len(m[0]))]
        bs.append(tuple(x + 1 for x in bs[0]))
        for hit in (False, True):
            before = {name: calls(name) for name in MEMOS}
            assert hnf_form(m) == freeze(_hnf(m).a)
            assert kernel_basis(m) == old_kernel_basis(m)
            sols = solve_many_in_span(m, bs)
            assert intlinalg._solve_echelon(m) == old_echelon(m)
            assert sols[0] is not None and sols[1] == (0,) * len(m[0])
            for x, b in zip(sols, bs):
                assert x is None or matvec(m, x) == b
            if hit:
                assert sols == first
                for name in MEMOS:
                    assert calls(name)[1] == before[name][1], name
            first = sols


def test_list_and_tuple_input_share_an_entry():
    clear_package_caches()
    for m in memo_matrices():
        as_lists = [list(row) for row in m]
        b = matvec(m, range(len(m[0])))
        first = (hnf_form(m), kernel_basis(m), solve_many_in_span(m, [b]))
        misses = {name: calls(name)[1] for name in MEMOS}
        assert (hnf_form(as_lists), kernel_basis(as_lists),
                solve_many_in_span(as_lists, [list(b)])) == first
        assert {name: calls(name)[1] for name in MEMOS} == misses


def made_of_tuples(x) -> bool:
    return isinstance(x, int) or (isinstance(x, tuple)
                                  and all(map(made_of_tuples, x)))


def test_every_cached_value_is_made_of_tuples():
    clear_package_caches()
    for m in memo_matrices():
        m = freeze(m)
        for name in MEMOS + ("_cokernel_group",):
            assert made_of_tuples(getattr(intlinalg, name)(m)), (name, m)
        # smith_basis returns its memo's value itself.
        assert made_of_tuples(intlinalg.smith_basis(m)), m


def test_clearing_the_package_caches_empties_the_memos():
    for m in memo_matrices()[:5]:
        hnf_form(m)
        kernel_basis(m)
        solve_many_in_span(m, [(0,) * len(m)])
    for name in MEMOS:
        assert getattr(intlinalg, name).cache_info().currsize > 0, name
    clear_package_caches()
    for name in MEMOS:
        assert getattr(intlinalg, name).cache_info().currsize == 0, name

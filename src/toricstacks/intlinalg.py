"""Exact integer linear algebra: Hermite and Smith normal forms, kernels,
cokernels, determinants, and integral linear solving.

Everything runs on plain Python ints, so there is no overflow and no floating
point anywhere.  Matrices are sequences of equal-length integer rows; public
functions return tuples of tuples.  Normal forms are canonical (positive
pivots, entries above a pivot reduced into [0, pivot)), which lets callers
compare lattices by comparing matrices.  A matrix with no columns still
has its rows: it is n_rows empty rows, and from_columns builds it.

Each elimination tracks only the unimodular transforms its caller reads
(hnf_form and rank track none).  Tracking never changes the operations
applied to the working matrix, so results do not depend on it.

The lattice kernels are memoised for the life of the process, in
module-level functools caches: smith_basis's Smith stage on the canonical
columns (so two presenting matrices of one lattice share it) and
cokernel's group on its frozen input.  Every cached result is an
immutable tuple, so callers share it safely.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def freeze(m) -> Matrix:
    return tuple(tuple(map(int, row)) for row in m)


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m) -> Matrix:
    return tuple(zip(*m)) if m else ()


def from_columns(cols, n_rows: int) -> Matrix:
    """The matrix whose columns are cols; n_rows empty rows if there are
    none."""
    return tuple(zip(*cols)) if cols else ((),) * n_rows


def matmul(a, b) -> Matrix:
    bt = list(zip(*b)) if b else []
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def matvec(m, v) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in m)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # g = x*a + y*b with g = gcd(a, b) >= 0.
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


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


def hnf(m) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (h, u) with u unimodular, u * m = h, h in echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    ops = _hnf(m, u=True)
    return tuple(map(tuple, ops.a)), tuple(map(tuple, ops.u))


def hnf_form(m) -> Matrix:
    """hnf(m)[0], without tracking the transform."""
    return tuple(map(tuple, _hnf(m).a))


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


def snf(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (d, u, v) with u, v unimodular, u * m * v = d, and d diagonal
    with non-negative entries satisfying d_1 | d_2 | ... .
    """
    st = _snf(m, u=True, v=True)
    return freeze(st.a), freeze(st.rows.u), freeze(st.v)


def structure_text(free_rank: int, torsion) -> str:
    """A group of this structure written out, e.g. 'Z/2 + Z'."""
    parts = ["Z/%d" % d for d in torsion] + ["Z"] * free_rank
    return " + ".join(parts) if parts else "0"


class AbelianGroup(NamedTuple):
    """A finitely generated abelian group presented as a quotient of an
    ambient Z^n, in normal form.

    Coordinates are (torsion part, free part): the first len(torsion)
    coordinates are valued mod the matching d_i, the remaining free_rank are
    unconstrained.  `projection` maps ambient vectors to coordinates (one row
    per coordinate); `lift` is a right inverse of it, giving an ambient
    representative for each coordinate vector.
    """

    ambient_rank: int
    free_rank: int
    torsion: tuple[int, ...]
    projection: Matrix
    lift: Matrix

    @property
    def coord_rank(self) -> int:
        return len(self.torsion) + self.free_rank

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def structure(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, self.torsion)

    def project(self, v) -> Vector:
        """Coordinates of the class of an ambient vector (torsion entries
        reduced into [0, d_i))."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector length %d, ambient rank %d"
                             % (len(v), self.ambient_rank))
        raw = matvec(self.projection, v)
        return self.reduce(raw)

    def reduce(self, coords) -> Vector:
        if len(coords) != self.coord_rank:
            raise ValueError("expected %d coordinates, got %d"
                             % (self.coord_rank, len(coords)))
        return tuple(x % d for x, d in zip(coords, self.torsion)) \
            + tuple(coords[len(self.torsion):])

    def lift_coords(self, coords) -> Vector:
        if len(coords) != self.coord_rank:
            raise ValueError("expected %d coordinates, got %d"
                             % (self.coord_rank, len(coords)))
        return matvec(self.lift, coords)

    def kills(self, m) -> bool:
        """Is every column of m, in the ambient space, 0 in the group?  One
        product, whose torsion rows must be 0 mod d_i and free rows 0."""
        image, nt = matmul(self.projection, m), len(self.torsion)
        return all(x % d == 0 for row, d in zip(image, self.torsion)
                   for x in row) and not any(map(any, image[nt:]))

    def describe(self) -> str:
        return structure_text(self.free_rank, self.torsion)

    def _lifted_span(self, cols) -> Matrix:
        """Coordinate matrix of cols followed by one column d_i * e_i per
        torsion coordinate: its integer column span is the preimage in
        coordinate space of the subgroup the cols generate."""
        n = self.coord_rank
        cols = [tuple(c) for c in cols] + [
            tuple(d if j == i else 0 for j in range(n))
            for i, d in enumerate(self.torsion)]
        return from_columns(cols, n)

    def generated_by(self, cols) -> bool:
        """Do the elements with coordinates cols generate the group?"""
        return self.is_trivial or cokernel(self._lifted_span(cols)).is_trivial

    def express(self, cols, target) -> Vector | None:
        """Integer coefficients x with sum(x_j * cols[j]) equal to target in
        the group, or None when target is outside the subgroup the cols
        generate.  Deterministic, like solve_in_span."""
        if not self.coord_rank:  # a matrix with no rows has no width
            return (0,) * len(cols)
        sol = solve_in_span(self._lifted_span(cols), target)
        return None if sol is None else sol[:len(cols)]

    def order(self, coords) -> int | None:
        """Order of the element with these coordinates; None if infinite."""
        coords = self.reduce(coords)
        if any(coords[len(self.torsion):]):
            return None
        return lcm(*(d // gcd(c, d) for c, d in zip(coords, self.torsion)))


def smith_basis(m) -> tuple[Vector, Matrix, Matrix]:
    """Coordinates on Z^rows adapted to the column lattice of m, without
    the ones that lattice kills outright.

    With u unimodular and u * m in Smith form, returns (torsion, rows, cols):
    rows are the rows of u whose invariant factor is not 1 (torsion ones
    first, their factors listed in torsion; then the free ones, factor 0),
    and cols are the matching columns of u^-1, so rows * cols = 1.  Depends
    only on the column lattice, not on the presenting matrix: the columns
    are HNF-canonicalized first, and the Smith stage is memoised on the
    canonical columns.
    """
    col_canon = hnf_form(transpose(m))
    return _lattice_smith_basis(len(m),
                                tuple(row for row in col_canon if any(row)))


@lru_cache(maxsize=None)
def _lattice_smith_basis(nr: int, canon_cols: Matrix) \
        -> tuple[Vector, Matrix, Matrix]:
    """smith_basis of the lattice in Z^nr spanned by canon_cols."""
    m = from_columns(canon_cols, nr)
    st = _snf(m, u=True, u_inv=True)
    nc = len(canon_cols)
    diag = [st.a[i][i] if i < nc else 0 for i in range(nr)]
    # The invariant factors run 1, ..., 1, torsion, 0, ..., 0.
    keep = [i for i in range(nr) if diag[i] != 1]
    u_inv_cols = transpose(st.rows.u_inv)
    return (tuple(diag[i] for i in keep if diag[i]),
            freeze(st.rows.u[i] for i in keep),
            tuple(u_inv_cols[i] for i in keep))


def normal_form_group(ambient_rank: int, torsion, rows,
                      lift_cols) -> AbelianGroup:
    """The AbelianGroup whose projection has the given rows (one per
    torsion coordinate, then one per free coordinate) and whose lift has
    the given columns, put in normal form: torsion rows are reduced mod
    their d_i, and the free rows are HNF-canonicalized with the lift
    carried along, so that projection o lift stays the identity."""
    torsion = tuple(torsion)
    nt = len(torsion)
    tor_rows = [tuple(x % d for x in row) for row, d in zip(rows, torsion)]
    free_rows = list(rows[nt:])
    tor_lift, free_lift = list(lift_cols[:nt]), list(lift_cols[nt:])
    if free_rows:
        canon = _hnf(free_rows, u_inv=True)
        free_rows = canon.a
        free_lift = list(transpose(matmul(transpose(free_lift),
                                          canon.u_inv)))
    return AbelianGroup(ambient_rank=ambient_rank,
                        free_rank=len(free_rows), torsion=torsion,
                        projection=freeze(tor_rows + free_rows),
                        lift=from_columns(tor_lift + free_lift, ambient_rank))


def cokernel(m) -> AbelianGroup:
    """The quotient of Z^rows by the column span of m, in normal form.

    Depends only on the column lattice, not on the presenting matrix: the
    columns are HNF-canonicalized first, and the free block of the projection
    is HNF-canonicalized too, so equal quotients of the same ambient space
    get identical projections and lifts.  The group is memoised on the
    frozen matrix; the check that every relation dies runs on each call.
    """
    m = freeze(m)
    group = _cokernel_group(m)
    assert group.kills(m), "projection does not kill a relation"
    return group


@lru_cache(maxsize=None)
def _cokernel_group(m: Matrix) -> AbelianGroup:
    return normal_form_group(len(m), *smith_basis(m))


def kernel_basis(m) -> Matrix:
    """A canonical basis of the integer kernel of m, as matrix columns.

    The kernel of an integer matrix is saturated by construction; the basis
    is HNF-reduced so equal kernels compare equal.
    """
    m = freeze(m)
    nc = len(m[0]) if m else 0
    h, u = hnf(transpose(m))
    rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return from_columns([r for r in hnf_form(rows) if any(r)], nc)


def rank(m) -> int:
    """Rank of m: the number of nonzero rows of its HNF, with no transform
    tracked."""
    return sum(1 for row in _hnf(m).a if any(row))


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


def solve_in_span(m, b) -> Vector | None:
    """An integer x with m * x = b, if one exists, else None.

    The solution is deterministic (HNF back-substitution, free coefficients
    zero) and exact; in particular it is unique whenever the columns of m are
    independent.
    """
    return solve_many_in_span(m, (b,))[0]


def solve_many_in_span(m, bs) -> tuple[Vector | None, ...]:
    """solve_in_span(m, b) for each b in bs, from one HNF of m."""
    m = freeze(m)
    bs = [tuple(int(x) for x in b) for b in bs]
    for b in bs:
        if len(b) != len(m):
            raise ValueError("vector length %d, matrix has %d rows"
                             % (len(b), len(m)))
    nc = len(m[0]) if m else 0
    if nc == 0:
        return tuple(() if not any(b) else None for b in bs)
    ops = _hnf(transpose(m), u=True)
    h, u = ops.a, ops.u
    # The nonzero rows of an HNF come first; zip(h, pivots) stops there.
    pivots = [next(j for j, x in enumerate(row) if x) for row in h if any(row)]

    def solve(b):
        res = list(b)
        z = []
        for row, p in zip(h, pivots):
            q, r = divmod(res[p], row[p])
            if r:
                return None
            z.append(q)
            if q:
                res = [x - q * y for x, y in zip(res, row)]
        if any(res):
            return None
        return tuple(sum(q * row[j] for q, row in zip(z, u))
                     for j in range(nc))

    return tuple(solve(b) for b in bs)

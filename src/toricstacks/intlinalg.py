"""Exact integer linear algebra: Hermite and Smith normal forms, kernels,
cokernels, and integral linear solving.

Everything runs on plain Python ints, so there is no overflow and no floating
point anywhere.  Matrices are sequences of equal-length integer rows; public
functions return tuples of tuples.  Normal forms are canonical (positive
pivots, entries above a pivot reduced into [0, pivot)), which lets callers
compare lattices by comparing matrices.  A matrix with no columns still
has its rows: it is n_rows empty rows, and from_columns builds it.

Each elimination tracks only the unimodular transforms its caller reads:
the row transform u, and for snf the column transform v (hnf_form, rank
and normal_form_group track none).  No elimination tracks an inverse
transform; a caller that needs a preimage solves for it (solve_in_span,
AbelianGroup.express).  Tracking never changes the operations applied to
the working matrix, so results do not depend on it.  The two
eliminations, _hnf and _snf, apply every operation inline on one list of
working rows: a tracked u rides along as extra columns and a tracked v as
extra rows, so one pass updates the matrix and its transforms.

The kernels are memoised for the life of the process, in module-level
functools caches, because one sweep reduces the same small matrices again
and again:
- hnf_form, on its frozen input;
- kernel_basis, on its frozen input;
- the echelon solve_in_span and solve_many_in_span read (the HNF of the
  transpose and its transform), on the frozen matrix;
- smith_basis's Smith stage, on the canonical columns (so two presenting
  matrices of one lattice share it);
- _lattice_structure, the invariant factors alone, on the same canonical
  columns;
- cokernel's group, on its frozen input;
- identity(n), on n.
Every cached result is made of immutable tuples, so callers share it
safely, and cache_clear() on each cache empties it.

Input is normalised once, where it enters.  A public function freezes
whatever a caller passes (any iterable of integer rows) into tuples of
ints, or copies it into the working rows of an elimination as ints
(hnf, snf, rank), and then checks it; smith_basis keys the Hermite memo
on its transpose's fresh tuples, which equal the frozen ones.  The
memoised private kernels (_hnf_form, _kernel_basis, _solve_echelon,
_lattice_smith_basis, _lattice_structure, _cokernel_group) take frozen
tuples: an internal caller that built its matrix as tuples of ints
itself, as cox.ray_relations and graded._piece_lattice do, hands it to
the kernel straight, under the same key the public function would form.  A name
the benchmark traces (cokernel, hnf, kernel_basis, solve_in_span, and
the traced names of the other modules) is never bypassed, so each keeps
its checks (cokernel's relation assert) and its call count.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def freeze(m) -> Matrix:
    return tuple([tuple(map(int, row)) for row in m])


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


def _start(m, u: bool):
    """(w, nr, nc): the working rows of an elimination of m, with m's row
    and column counts.  Copying m's entries into w as ints is the
    elimination's freeze, so any iterable of rows will do.  A tracked u
    rides along as extra columns of the working rows, so each row
    operation updates it in the same pass."""
    w = [list(map(int, row)) for row in m]
    nr = len(w)
    nc = len(w[0]) if w else 0
    if u:
        for row, e in zip(w, identity(nr)):
            row += e
    return w, nr, nc


def _finish(w, nr: int, nc: int, u: bool):
    """(a, u) read off the working rows w[:nr], with None for u when it is
    not tracked."""
    rows = w[:nr]
    if u:
        return [r[:nc] for r in rows], [r[nc:] for r in rows]
    return rows, None


def _hnf(m, u: bool = False):
    """Row Hermite normal form (echelon, pivots positive, entries above a
    pivot reduced into [0, pivot)) as (h, u), with u * m = h; u is None
    when not asked for and costs nothing.

    Each column's pivot is the first row of least nonzero absolute value
    at or below the current one; a row operation subtracts the floor
    quotient times the pivot row."""
    w, nr, nc = _start(m, u)
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            piv = None
            for i in range(r, nr):
                x = abs(w[i][c])
                if x and (piv is None or x < best):
                    piv, best = i, x
            if piv is None:
                break
            if piv != r:
                w[r], w[piv] = w[piv], w[r]
            pr = w[r]
            p = pr[c]
            clean = True
            for i in range(r + 1, nr):
                wi = w[i]
                if wi[c]:
                    q = wi[c] // p
                    if q:
                        w[i] = wi = [x - q * y for x, y in zip(wi, pr)]
                    if wi[c]:
                        clean = False
            if clean:
                break
        pr = w[r]
        if pr[c]:
            if pr[c] < 0:
                w[r] = pr = [-x for x in pr]
            p = pr[c]
            for i in range(r):
                q = w[i][c] // p
                if q:
                    w[i] = [x - q * y for x, y in zip(w[i], pr)]
            r += 1
    return _finish(w, nr, nc, u)


def hnf(m) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (h, u) with u unimodular, u * m = h, h in echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    h, u = _hnf(m, u=True)
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def hnf_form(m) -> Matrix:
    """hnf(m)[0], without tracking the transform; memoised on the frozen
    input."""
    return _hnf_form(freeze(m))


@lru_cache(maxsize=None)
def _hnf_form(m: Matrix) -> Matrix:
    return tuple(map(tuple, _hnf(m)[0]))


def _snf(m, u: bool = False, v: bool = False):
    """Smith normal form as (d, u, v), with u * m * v = d; a transform not
    asked for is None.

    u rides along as extra columns of the working rows (see _start), and
    v as extra rows below them, so each column operation on the rows of
    the working list updates the matrix and v together."""
    w, nr, nc = _start(m, u)
    n = min(nr, nc)
    if v:
        w += map(list, identity(nc))

    def col_swap(i, j):
        if i != j:
            for row in w:
                row[i], row[j] = row[j], row[i]

    for k in range(n):
        # Global minimum pivot keeps entry growth tame and pushes zeros to
        # the tail of the diagonal.
        piv = None
        for i in range(k, nr):
            row = w[i]
            for j in range(k, nc):
                x = abs(row[j])
                if x and (piv is None or x < best):
                    piv, best = (i, j), x
        if piv is None:
            break
        w[k], w[piv[0]] = w[piv[0]], w[k]
        col_swap(k, piv[1])
        while True:
            # Clear column k, then row k; column operations cannot dirty a
            # cleared column k, but a column swap can, which restarts the
            # loop.  Each scan finds the least entry of the line (the first
            # one on a tie; the corner is never 0) and whether anything
            # beside the corner is left.
            while True:
                pi, least, left = k, abs(w[k][k]), False
                for i in range(k + 1, nr):
                    x = abs(w[i][k])
                    if x:
                        left = True
                        if x < least:
                            pi, least = i, x
                if not left:
                    break
                w[k], w[pi] = w[pi], w[k]
                wk = w[k]
                p = wk[k]
                for i in range(k + 1, nr):
                    q = w[i][k] // p
                    if q:
                        w[i] = [x - q * y for x, y in zip(w[i], wk)]
            moved = False
            while True:
                wk = w[k]
                pj, least, left = k, abs(wk[k]), False
                for j in range(k + 1, nc):
                    x = abs(wk[j])
                    if x:
                        left = True
                        if x < least:
                            pj, least = j, x
                if not left:
                    break
                moved = True
                col_swap(k, pj)
                p = wk[k]
                qs = [(j, q) for j in range(k + 1, nc) if (q := wk[j] // p)]
                for row in w:
                    x = row[k]
                    if x:
                        for j, q in qs:
                            row[j] -= q * x
            if not moved:
                break
        if w[k][k] < 0:
            w[k] = [-x for x in w[k]]

    # Fix the divisibility chain by gcd/lcm-merging adjacent diagonal pairs:
    # diag(a, b) -> diag(g, a*b/g) via explicit 2x2 unimodular P (rows k,
    # k+1) and Q (columns k, k+1).
    rank = sum(1 for k in range(n) if w[k][k])
    done = False
    while not done:
        done = True
        for k in range(rank - 1):
            da, db = w[k][k], w[k + 1][k + 1]
            if db % da == 0:
                continue
            done = False
            g, x, y = _xgcd(da, db)
            p10, p11 = -db // g, da // g
            ri, rj = w[k], w[k + 1]
            w[k] = [x * a + y * b for a, b in zip(ri, rj)]
            w[k + 1] = [p10 * a + p11 * b for a, b in zip(ri, rj)]
            q01, q11 = -y * db // g, x * da // g
            for row in w:
                a, b = row[k], row[k + 1]
                row[k] = a + b
                row[k + 1] = a * q01 + b * q11
    return (*_finish(w, nr, nc, u), w[nr:] if v else None)


def snf(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (d, u, v) with u, v unimodular, u * m * v = d, and d diagonal
    with non-negative entries satisfying d_1 | d_2 | ... .
    """
    d, u, v = _snf(m, u=True, v=True)
    return freeze(d), freeze(u), freeze(v)


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
    per coordinate).  An ambient representative of given coordinates is
    express(transpose(projection), coords).
    """

    ambient_rank: int
    free_rank: int
    torsion: tuple[int, ...]
    projection: Matrix

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


def smith_basis(m) -> tuple[Vector, Matrix]:
    """Coordinates on Z^rows adapted to the column lattice of m, without
    the ones that lattice kills outright.

    With u unimodular and u * m in Smith form, returns (torsion, rows):
    rows are the rows of u whose invariant factor is not 1 (torsion ones
    first, their factors listed in torsion; then the free ones, factor 0).
    Depends only on the column lattice, not on the presenting matrix: the
    columns are HNF-canonicalized first, and the Smith stage is memoised
    on the canonical columns.
    """
    # transpose builds the key's tuples afresh and the Hermite elimination
    # reads every entry as an int, so the input needs no freeze of its own.
    m = tuple(m)
    col_canon = _hnf_form(transpose(m))
    return _lattice_smith_basis(len(m),
                                tuple(row for row in col_canon if any(row)))


@lru_cache(maxsize=None)
def _lattice_smith_basis(nr: int, canon_cols: Matrix) \
        -> tuple[Vector, Matrix]:
    """smith_basis of the lattice in Z^nr spanned by canon_cols."""
    d, u, _ = _snf(from_columns(canon_cols, nr), u=True)
    nc = len(canon_cols)
    diag = [d[i][i] if i < nc else 0 for i in range(nr)]
    # The invariant factors run 1, ..., 1, torsion, 0, ..., 0.
    keep = [i for i in range(nr) if diag[i] != 1]
    return (tuple(diag[i] for i in keep if diag[i]),
            tuple(tuple(u[i]) for i in keep))


@lru_cache(maxsize=None)
def _lattice_structure(nr: int, canon_cols: Matrix) \
        -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of the quotient of Z^nr by the lattice spanned
    by canon_cols, its canonical Hermite rows (the nonzero rows of
    hnf_form(transpose(m)) for any m presenting it): cokernel(m).structure()
    with no transform computed.  Memoised on the rows, as
    _lattice_smith_basis is.

    The rows must already be that: a tuple of int tuples in Hermite form,
    zero rows dropped.  Nothing here checks it; other rows give a wrong
    answer (the pivot read below takes each row's first nonzero entry) or
    an unhashable key.  Its one caller, graded.piece_structure, passes
    _piece_lattice's rows.

    When every pivot is 1 the quotient is free of rank nr - rank, with no
    elimination at all: projecting onto the pivot coordinates maps the
    lattice unitriangularly onto Z^rank, so if n * x lies in the lattice,
    its coefficients are n times the projection of x, and x lies in it too.
    The lattice is saturated, the quotient torsion-free, and a finitely
    generated torsion-free group is free.  Otherwise the invariant factors
    are the Smith diagonal of the rows; the rows are independent, so
    exactly rank of them are nonzero.
    """
    rank = len(canon_cols)
    if all(next(filter(None, row)) == 1 for row in canon_cols):
        return nr - rank, ()
    d = _snf(canon_cols)[0]
    diag = [d[i][i] for i in range(rank)]
    assert all(diag), "Smith diagonal shorter than the Hermite rank"
    return nr - rank, tuple(x for x in diag if x != 1)


def normal_form_group(ambient_rank: int, torsion, rows) -> AbelianGroup:
    """The AbelianGroup whose projection has the given rows (one per
    torsion coordinate, then one per free coordinate), put in normal form:
    torsion rows are reduced mod their d_i, and the free rows are
    HNF-canonicalized, with no transform tracked."""
    torsion, rows = tuple(torsion), freeze(rows)
    nt = len(torsion)
    tor_rows = tuple(tuple(x % d for x in row)
                     for row, d in zip(rows, torsion))
    free_rows = tuple(map(tuple, _hnf(rows[nt:])[0]))
    return AbelianGroup(ambient_rank=ambient_rank,
                        free_rank=len(free_rows), torsion=torsion,
                        projection=tor_rows + free_rows)


def cokernel(m) -> AbelianGroup:
    """The quotient of Z^rows by the column span of m, in normal form.

    Depends only on the column lattice, not on the presenting matrix: the
    columns are HNF-canonicalized first, and the free block of the projection
    is HNF-canonicalized too, so equal quotients of the same ambient space
    get identical projections.  The group is memoised on the
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
    is HNF-reduced so equal kernels compare equal.  Memoised on the frozen
    input.
    """
    return _kernel_basis(freeze(m))


@lru_cache(maxsize=None)
def _kernel_basis(m: Matrix) -> Matrix:
    nc = len(m[0]) if m else 0
    h, u = hnf(transpose(m))
    rows = tuple(u[i] for i in range(len(h)) if not any(h[i]))
    return from_columns([r for r in _hnf_form(rows) if any(r)], nc)


def rank(m) -> int:
    """Rank of m: the number of nonzero rows of its HNF, with no transform
    tracked."""
    return sum(1 for row in _hnf(m)[0] if any(row))


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
    h, u = _solve_echelon(m)

    def solve(b):
        z = lattice_coefficients(h, b)
        return None if z is None else tuple(
            sum(q * row[j] for q, row in zip(z, u)) for j in range(nc))

    return tuple(solve(b) for b in bs)


def lattice_coefficients(rows, b) -> list[int] | None:
    """The coefficients z with sum(z_i * rows[i]) = b, for echelon rows
    (each row's first nonzero entry, its pivot, right of the one before),
    or None when b is outside their integer span: the back-substitution
    solve_many_in_span runs on its echelon, and a membership test in a
    lattice given by its canonical Hermite rows (as _lattice_structure
    reads them), with no transform.

    Each coordinate of b is read once, as the reduction passes it: one
    left of the first pivot, between two pivots or right of the last must
    be 0 by then, and at a pivot the division must be exact."""
    res, start, z = list(b), 0, []
    for row in rows:
        p = start
        while not row[p]:
            p += 1
        q, r = divmod(res[p], row[p])
        if r or any(res[start:p]):
            return None
        z.append(q)
        if q:
            res = [x - q * y for x, y in zip(res, row)]
        start = p + 1
    return None if any(res[start:]) else z


@lru_cache(maxsize=None)
def _solve_echelon(m: Matrix) -> tuple[Matrix, Matrix]:
    """The nonzero rows of the HNF of m's transpose and the matching rows
    of its transform: what solve_many_in_span reads."""
    h, u = _hnf(transpose(m), u=True)
    r = sum(map(any, h))
    return tuple(map(tuple, h[:r])), tuple(map(tuple, u[:r]))

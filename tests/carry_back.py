"""The carry-back of a graded piece to the original monomial basis: a test
oracle for graded's reduced coordinates.

graded_piece(p, k) is the cokernel over the degree-k monomials in the
reduced variables of _reduction(p).  carried_back(p, k) is the same group
over monomials(p.n_vars, k): its projection is the reduced projection
composed with Sym^k(phi), its lift is Sym^k(psi) composed with the reduced
lift, and the free block is put back in normal form.  Free rank and torsion
pass through unchanged.  Sym^k is built here from dict polynomials, one
product of linear forms per monomial, sharing no code with graded._expand.
coords, canonical_rep and induced_map read coordinates in that basis.
"""

from toricstacks.graded import _reduction, graded_piece, monomials
from toricstacks.intlinalg import (AbelianGroup, from_columns, matmul,
                                   matvec, normal_form_group, transpose)


def _power_of_forms(rows, exponent, n_vars) -> dict:
    """prod_i rows[i]^exponent[i] as a dict polynomial in n_vars
    variables."""
    poly = {(0,) * n_vars: 1}
    for row, e in zip(rows, exponent):
        for _ in range(e):
            product: dict = {}
            for m, c in poly.items():
                for j, x in enumerate(row):
                    if x:
                        key = tuple(a + (i == j) for i, a in enumerate(m))
                        product[key] = product.get(key, 0) + c * x
            poly = product
    return poly


def substitute(element: dict, rows, n_vars: int) -> dict:
    """A polynomial with each t_i replaced by the linear form rows[i] in
    n_vars variables."""
    out: dict = {}
    for expt, coeff in element.items():
        for m, c in _power_of_forms(rows, expt, n_vars).items():
            out[m] = out.get(m, 0) + coeff * c
    return {m: c for m, c in out.items() if c}


def sym_power(rm, k):
    """Matrix of the substitution on degree-k monomials (target monomials
    by source monomials)."""
    n = rm.target.n_vars
    basis = monomials(n, k)
    cols = []
    for m in monomials(rm.source.n_vars, k):
        poly = _power_of_forms(rm.substitution, m, n)
        cols.append(tuple(poly.get(t, 0) for t in basis))
    return from_columns(cols, len(basis))


def carried_back(p, k) -> AbelianGroup:
    phi, psi = _reduction(p)
    reduced = graded_piece(p, k)
    projection, lift_cols = (), ()
    if not reduced.is_trivial:
        projection = matmul(reduced.projection, sym_power(phi, k))
        lift_cols = transpose(matmul(sym_power(psi, k), reduced.lift))
    return normal_form_group(len(monomials(p.n_vars, k)), reduced.torsion,
                             projection, lift_cols)


def coords(p, k, element: dict):
    """Carried-back coordinates of a homogeneous degree-k element."""
    return carried_back(p, k).project(
        tuple(element.get(m, 0) for m in monomials(p.n_vars, k)))


def canonical_rep(p, k, coordinates) -> dict:
    amb = carried_back(p, k).lift_coords(coordinates)
    return {m: c for m, c in zip(monomials(p.n_vars, k), amb) if c}


def induced_map(rm, k):
    """Matrix of the degree-k induced map on carried-back coordinates
    (target coordinates by source coordinates)."""
    src, tgt = carried_back(rm.source, k), carried_back(rm.target, k)
    sub = sym_power(rm, k)
    basis = monomials(rm.source.n_vars, k)
    cols = []
    for i in range(src.coord_rank):
        unit = tuple(1 if j == i else 0 for j in range(src.coord_rank))
        rep = canonical_rep(rm.source, k, unit)
        image = matvec(sub, [rep.get(m, 0) for m in basis])
        cols.append(tgt.project(image))
    return from_columns(cols, tgt.coord_rank)

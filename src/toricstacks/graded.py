"""Degreewise evaluation of graded quotients Z[t_1..t_n]/(linear forms +
homogeneous generators) as exact abelian groups.

No Groebner machinery: the degree-k component is the cokernel of an explicit
integer matrix (generator multiples expanded over the degree-k monomial
basis), so ranks, torsion, and induced maps are all Smith-normal-form facts.

The linear relations are eliminated once per presentation before any degree
is expanded.  A Smith basis of the linear lattice is a unimodular change of
variables after which they read d_i s_i; the variables with d_i = 1 drop
out, so degree k is expanded over monomials in the len(torsion) + free_rank
remaining variables rather than in one variable per generator of Z^n (for a
fan's Chow ring: roughly rays minus rank, instead of one per ray).  A piece
(graded_piece) is the cokernel over those reduced monomials, and every
coordinate this module reads or returns is a coordinate of it: the linear
leg of the well-definedness check projects generator images into the
degree-1 piece, and induced_map maps piece coordinates to piece
coordinates.  What is only counted or tested is read off the canonical
Hermite rows of the piece's relation lattice (_piece_lattice), with no
group built: piece_structure reads the piece's structure there, and the
homogeneous leg of the check tests membership there.  An element in the
original variables enters through _reduction's phi.  The relations of
degree k are built as rows, one coefficient vector over the reduced
degree-k monomials per generator multiple (_relation_matrix), and go to
the Hermite memo as they are: the lattice's canonical rows are the
nonzero rows of their HNF.  No inverse of phi and no lift of a
coordinate is kept: induced_map, the one reader of both, solves for
them.  Monomials of a fixed degree are ordered descending-lex in the
variable order, which makes every piece reproducible bit for bit.
Every substitution of linear forms into a polynomial goes through
_expand, straight into a coefficient vector over the target's degree-k
monomials.  The well-definedness check expands no generator that the
substitution only renames onto one of the target's own generators: such
an image lies in the target ideal by identity, and _reduction carries
every target generator into the relation lattice of its degree, so the
lattice test would pass too.  In the Chow comparison every source
generator is one.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import NamedTuple

from .intlinalg import (AbelianGroup, Matrix, Vector, _hnf_form,
                        _lattice_structure, cokernel, freeze, from_columns,
                        identity, lattice_coefficients, matmul, smith_basis,
                        solve_many_in_span, transpose)

Poly = dict  # exponent tuple -> nonzero integer coefficient


class GradedPresentation(NamedTuple):
    """Generators of a graded ideal in Z[t_1..t_n].

    linear_gens rows are degree-1 forms; homogeneous_gens are (degree,
    poly) pairs with poly stored as a sorted tuple of (exponent, coeff).
    Built via make_presentation, which validates homogeneity.
    """

    n_vars: int
    linear_gens: Matrix
    homogeneous_gens: tuple


def _normalize_poly(element, n_vars: int) -> Poly:
    items = element.items() if isinstance(element, dict) else element
    out: Poly = {}
    for expt, coeff in items:
        expt = tuple(map(int, expt))
        if len(expt) != n_vars:
            raise ValueError("exponent %r has length %d, expected %d"
                             % (expt, len(expt), n_vars))
        if expt and min(expt) < 0:
            raise ValueError("negative exponent in %r" % (expt,))
        coeff = int(coeff)
        if coeff:
            coeff += out.get(expt, 0)
            if coeff:
                out[expt] = coeff
            else:
                del out[expt]
    return out


def _poly_degree(poly: Poly) -> int | None:
    """Degree of a homogeneous poly, None for the zero poly."""
    degrees = set(map(sum, poly))
    if not degrees:
        return None
    if len(degrees) > 1:
        raise ValueError("element is not homogeneous: degrees %s"
                         % sorted(degrees))
    return degrees.pop()


def make_presentation(n_vars: int, linear_gens=(),
                      homogeneous_gens=()) -> GradedPresentation:
    n_vars = int(n_vars)
    lin = freeze(linear_gens)
    for row in lin:
        if len(row) != n_vars:
            raise ValueError("linear generator %r has length %d, expected %d"
                             % (list(row), len(row), n_vars))
    homs = []
    for degree, element in homogeneous_gens:
        poly = _normalize_poly(element, n_vars)
        actual = _poly_degree(poly)
        if actual is not None and actual != degree:
            raise ValueError("generator labeled degree %d has degree %d"
                             % (degree, actual))
        if degree < 1:
            raise ValueError("homogeneous generators must have degree >= 1")
        homs.append((int(degree), tuple(sorted(poly.items(), reverse=True))))
    return GradedPresentation(n_vars=n_vars, linear_gens=lin,
                              homogeneous_gens=tuple(homs))


@lru_cache(maxsize=None)
def monomials(n_vars: int, degree: int) -> tuple:
    """All degree-k exponent tuples in n variables, descending lex."""
    if degree < 0:
        return ()
    if n_vars == 0:
        return ((),) if degree == 0 else ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, n_vars)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(n_vars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomials(n_vars, degree))}


def _expand(items, substitution: Matrix, n_vars: int, degree: int) -> list:
    """Coefficient vector over monomials(n_vars, degree) of a homogeneous
    polynomial of that degree, given as (exponent, coeff) items, with each
    t_i replaced by the linear form substitution[i] in n_vars variables."""
    index = _monomial_index(n_vars, degree)
    out = [0] * len(index)
    for expt, coeff in items:
        term = {(0,) * n_vars: coeff}
        for i, e in enumerate(expt):
            if not e:
                continue
            form = [(j, c) for j, c in enumerate(substitution[i]) if c]
            for _ in range(e):
                product: dict = {}
                for m, c in term.items():
                    for j, x in form:
                        key = m[:j] + (m[j] + 1,) + m[j + 1:]
                        product[key] = product.get(key, 0) + c * x
                term = product
        for m, c in term.items():
            out[index[m]] += c
    return out


def _shifted_column(poly: Poly, shift, n_vars: int, degree: int) -> Vector:
    index = _monomial_index(n_vars, degree)
    col = [0] * len(index)
    for expt, coeff in poly.items():
        col[index[tuple(map(add, expt, shift))]] += coeff
    return tuple(col)


def _relation_matrix(p: GradedPresentation, k: int) -> tuple[int, Matrix]:
    """The number of degree-k monomials and the generator multiples of
    degree k, one coefficient vector over those monomials each: the
    relations as the rows _piece_lattice reduces."""
    relations = []
    for row in p.linear_gens:
        gen = {identity(p.n_vars)[i]: c for i, c in enumerate(row) if c}
        for m in monomials(p.n_vars, k - 1):
            relations.append(_shifted_column(gen, m, p.n_vars, k))
    for degree, items in p.homogeneous_gens:
        gen = dict(items)
        for m in monomials(p.n_vars, k - degree):
            relations.append(_shifted_column(gen, m, p.n_vars, k))
    return len(monomials(p.n_vars, k)), tuple(relations)


@lru_cache(maxsize=None)
def graded_piece(p: GradedPresentation, k: int) -> AbelianGroup:
    """The degree-k component of the quotient, as an exact abelian group.

    The linear relations are eliminated once per presentation (_reduction):
    in the reduced variables the relation lattice is spanned by g*m over
    the reduced generators g of degree d and monomials m of degree k-d, and
    the piece is its cokernel over the reduced degree-k monomials,
    presented by the lattice's canonical Hermite rows (_piece_lattice): the
    normal form of a cokernel depends only on the lattice.
    """
    n_rows, rows = _piece_lattice(p, k)
    return cokernel(from_columns(rows, n_rows))


@lru_cache(maxsize=None)
def _piece_lattice(p: GradedPresentation, k: int) -> tuple[int, Matrix]:
    """The degree-k relation lattice in the reduced variables, as the
    number of reduced degree-k monomials and the lattice's canonical
    Hermite rows, built once per (p, k) for graded_piece, piece_structure
    and the certificate.  _relation_matrix builds the relations as rows,
    so they go to the Hermite memo as they are, and the nonzero rows of
    their HNF are the lattice's canonical rows."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    n_rows, relations = _relation_matrix(_reduction(p).target, k)
    return n_rows, tuple(row for row in _hnf_form(relations) if any(row))


@lru_cache(maxsize=None)
def piece_structure(p: GradedPresentation, k: int) \
        -> tuple[int, tuple[int, ...]]:
    """graded_piece(p, k).structure(), read off the piece's Hermite rows
    (_lattice_structure): no projection or Smith transform."""
    return _lattice_structure(*_piece_lattice(p, k))


class RingMap(NamedTuple):
    """A substitution t_i -> linear form between two presentations."""

    source: GradedPresentation
    target: GradedPresentation
    substitution: Matrix  # one row per source variable, over target variables


def ring_map(source: GradedPresentation, target: GradedPresentation,
             substitution) -> RingMap:
    sub = freeze(substitution)
    if len(sub) != source.n_vars:
        raise ValueError("substitution has %d rows, source has %d variables"
                         % (len(sub), source.n_vars))
    for row in sub:
        if len(row) != target.n_vars:
            raise ValueError("substitution row %r has length %d, target has "
                             "%d variables"
                             % (list(row), len(row), target.n_vars))
    return RingMap(source=source, target=target, substitution=sub)


@lru_cache(maxsize=None)
def _reduction(p: GradedPresentation) -> RingMap:
    """The linear relations eliminated by a unimodular change of variables.

    With (torsion, rows) the Smith basis of the linear lattice, the
    variables s_i = sum_j rows[i][j] t_j turn the linear relations into
    d_i s_i, and those with d_i = 1 are already dropped: the kept s_i carry
    only d_i s_i for d_i = torsion[i] (the free ones, past the torsion,
    none) and the images of the homogeneous generators.  Returns phi, the
    map of p into that reduced presentation by t_j -> sum_i rows[i][j] s_i.
    """
    torsion, rows = smith_basis(from_columns(p.linear_gens, p.n_vars))
    n = len(rows)
    lin = [tuple(d if j == i else 0 for j in range(n))
           for i, d in enumerate(torsion)]
    phi_rows = tuple(tuple(row[j] for row in rows) for j in range(p.n_vars))
    homs = []
    for degree, items in p.homogeneous_gens:
        image = _expand(items, phi_rows, n, degree)
        if any(image):
            homs.append((degree, [(m, c) for m, c in
                                  zip(monomials(n, degree), image) if c]))
    return RingMap(source=p, target=make_presentation(n, lin, homs),
                   substitution=phi_rows)


class Certification(NamedTuple):
    ok: bool
    witness: tuple | None  # (degree, source generator as sorted item tuple)


def certify_well_defined(rm: RingMap) -> Certification:
    """Check that the substitution maps every source generator into the
    target's relation lattice.

    Generator images pin down the whole map (relation lattices are spanned
    by generator multiples and substitution is a ring map), so every
    generator is checked outright, with no degree bound.

    Every generator is carried to the target's reduced variables by the
    composite substitution * phi (phi of _reduction(target)), formed once,
    and its image must lie in the target's relation lattice of its degree.
    The linear generators are carried together by one matrix product,
    linear_gens * composite (a degree-1 element is its own coordinate
    vector), and checked by one more: the degree-1 piece kills them.  Each
    homogeneous generator is expanded once under the composite (_expand),
    straight into the reduced degree-d monomial coordinates, and must
    reduce to 0 against the degree-d Hermite rows (lattice_coefficients),
    the memo piece_structure reads too, so no group is built for it.  The
    witness is the first generator that fails, linear generators first, as
    (degree, generator as sorted item tuple).

    A monomial generator whose variables each go to one target variable
    with coefficient 1 has a monomial image (_renamed).  When that image
    is one of the target's homogeneous generators it lies in the target
    ideal, and it is not expanded.  This never changes the outcome:
    _reduction carries each target generator into the target's relations,
    so its image passes the lattice test as well.  The Chow comparison
    takes this leg for every generator: the target's generators are the
    source's primitive collections carried across the ray matching, no
    collection holds the star ray, and every other variable is renamed.
    """
    phi = _reduction(rm.target)
    composite = matmul(rm.substitution, phi.substitution)
    lin = rm.source.linear_gens
    if lin:
        piece, images = graded_piece(rm.target, 1), matmul(lin, composite)
        if not piece.kills(transpose(images)):
            row = next(row for row, image in zip(lin, images)
                       if any(piece.project(image)))
            unit = identity(rm.source.n_vars)
            return _failure(1, {unit[i]: c for i, c in enumerate(row) if c})
    target_gens = rm.target.homogeneous_gens
    for degree, items in rm.source.homogeneous_gens:
        if (degree, _renamed(items, rm.substitution)) in target_gens:
            continue
        image = _expand(items, composite, phi.target.n_vars, degree)
        if lattice_coefficients(_piece_lattice(rm.target, degree)[1],
                                image) is None:
            return _failure(degree, dict(items))
    return Certification(ok=True, witness=None)


def _renamed(items, substitution: Matrix) -> tuple | None:
    """The image of a monomial, as a sorted item tuple, when the
    substitution sends each of its variables to one target variable with
    coefficient 1; None for any other generator."""
    if len(items) != 1:
        return None
    ((expt, coeff),) = items
    out = [0] * len(substitution[0])
    for i, e in enumerate(expt):
        if e:
            row = substitution[i]
            if 1 not in row or row.count(0) != len(row) - 1:
                return None
            out[row.index(1)] += e
    return ((tuple(out), coeff),)


def _failure(degree: int, gen: Poly) -> Certification:
    return Certification(ok=False,
                         witness=(degree, tuple(sorted(gen.items(),
                                                       reverse=True))))


def induced_map(rm: RingMap, k: int) -> Matrix:
    """Matrix of the degree-k induced map on piece coordinates (target
    coordinates by source coordinates), for a well-defined rm.

    Each source coordinate's lift is expanded once under the composite
    psi * substitution * phi_target, from the source's reduced monomials
    straight to the target's, and projected there.  Both psi and the
    lifts are solved for.  psi sends each reduced source variable s_i to
    a linear form x with phi_source's rows taking x to e_i, and a lift of
    a coordinate vector is an ambient vector the projection sends to it
    (express on the projection's columns).  Neither choice changes the
    result.  Two choices of x differ by the kernel of phi's rows, which is
    spanned by linear relations, the directions of invariant factor 1.
    Two lifts differ by relations of the source piece.  A well-defined
    map sends relations to relations, so it sends both differences to 0.
    """
    src = graded_piece(rm.source, k)
    tgt = graded_piece(rm.target, k)
    phi_source, phi = _reduction(rm.source), _reduction(rm.target)
    n = phi_source.target.n_vars
    psi = solve_many_in_span(transpose(phi_source.substitution), identity(n))
    composite = matmul(matmul(psi, rm.substitution), phi.substitution)
    basis, columns = monomials(n, k), transpose(src.projection)
    cols = []
    for unit in identity(src.coord_rank):
        image = _expand(zip(basis, src.express(columns, unit)), composite,
                        phi.target.n_vars, k)
        cols.append(tgt.project(image))
    return from_columns(cols, tgt.coord_rank)


def is_iso_up_to(rm: RingMap, max_deg: int) -> dict:
    """Per-degree verdicts (degree -> bool) for 0..max_deg: the induced map
    is an isomorphism of abelian groups.

    A surjective map between groups of identical normal form is injective
    too (finitely generated groups are Hopfian), so the verdict is: equal
    structures and the image columns generate the target.
    """
    verdicts = {}
    for k in range(max_deg + 1):
        tgt = graded_piece(rm.target, k)
        verdicts[k] = graded_piece(rm.source, k).structure() \
            == tgt.structure() and tgt.generated_by(zip(*induced_map(rm, k)))
    return verdicts

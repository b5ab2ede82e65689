"""Cox quotient data of a fan: the ray map, its character group, the action
weights, and the two ideal presentations read off from them.

Everything here is a function of one matrix, the primitive ray generators
written as rows.  The character group X(G) is its cokernel, the weight of a
ray is the class of the matching unit vector, and the kernel lattice is the
row lattice of the transpose.  Both ideal presentations (intersection-theory
flavoured and multiplicative) carry literally the same integer data; only
the reading of that data differs, so they share one constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fan import Fan, primitive_collections
from .intlinalg import (
    AbelianGroup,
    Matrix,
    Vector,
    cokernel,
    freeze,
    hnf_form,
    rank,
    solve_in_span,
    transpose,
)


class TorusFactorError(ValueError):
    """Raised when a fan's rays do not span the ambient space over Q.

    Such a fan describes a product with a torus factor; the quotient
    presentation of that factor is out of scope, so the input is rejected
    instead of silently split.
    """


@dataclass(frozen=True)
class CoxData:
    """The quotient presentation attached to a fan.

    beta has one column per ray (the primitive generator).  char_group is
    the cokernel of its transpose; weights[i] is the class of the i-th unit
    vector in char_group coordinates (torsion entries first).  kernel is the
    canonical (HNF-row) basis of the lattice of exponent vectors whose
    classes vanish, i.e. the row lattice of beta's transpose.
    """

    fan: Fan
    beta: Matrix
    char_group: AbelianGroup
    weights: tuple[Vector, ...]
    kernel: Matrix
    primitive_collections: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of the two defining ideals, as pure integer data.

    linear_gens rows are exponent vectors: read additively they are linear
    forms sum(v[i] * t_i), read multiplicatively they are the relations
    e^v = 1.  monomial_gens are the primitive collections; collection C
    stands for the squarefree monomial prod(t_i for i in C) additively and
    for the class supported on the coordinate subspace {x_i = 0, i in C}
    multiplicatively.
    """

    variables: int
    linear_gens: Matrix
    monomial_gens: tuple[tuple[int, ...], ...]


def cox(f: Fan) -> CoxData:
    """Cox data of a fan whose rays span the ambient space over Q.

    Raises TorusFactorError otherwise; a rank-0 fan (a point) is accepted.
    """
    n = f.ambient_rank
    rays = freeze(f.rays)
    ray_rank = rank(rays)
    if ray_rank != n:
        raise TorusFactorError(
            "rays span a rank-%d sublattice of Z^%d; the fan has a torus "
            "factor, which this construction does not support"
            % (ray_rank, n))
    beta = transpose(rays) if rays else tuple(() for _ in range(n))
    group = cokernel(rays)
    r = len(rays)
    weights = tuple(
        group.project(tuple(1 if j == i else 0 for j in range(r)))
        for i in range(r))
    h = hnf_form(beta)
    kernel = tuple(row for row in h if any(row))
    for row in kernel:
        assert not any(group.project(row)), "kernel row has nonzero class"
    return CoxData(fan=f, beta=beta, char_group=group, weights=weights,
                   kernel=kernel,
                   primitive_collections=primitive_collections(f))


def _ideal(cd: CoxData) -> IdealPresentation:
    return IdealPresentation(variables=len(cd.fan.rays),
                             linear_gens=cd.kernel,
                             monomial_gens=cd.primitive_collections)


def chow_ideals(cd: CoxData) -> IdealPresentation:
    """Ideal data read additively: linear_gens as degree-1 forms in the
    ray variables, monomial_gens as squarefree monomials."""
    return _ideal(cd)


def k_ideals(cd: CoxData) -> IdealPresentation:
    """Ideal data read multiplicatively: linear_gens rows v as relations
    e^v = 1, monomial_gens as classes of the coordinate subspaces.

    The integer payload is identical to chow_ideals by construction.
    """
    return _ideal(cd)


@dataclass(frozen=True)
class ChartReport:
    """Strongness verdict for one maximal-cone chart.

    invertible lists the rays not in the cone (their coordinates are units
    on the chart).  in_span says whether the weight of the tested ray lies
    in the subgroup generated by the invertible weights; min_power is the
    least k >= 1 for which k times that weight does, or None when the
    search bound was exhausted (unknown, not a failure).
    """

    max_cone: tuple[int, ...]
    invertible: tuple[int, ...]
    in_span: bool
    min_power: int | None


def strong_divisor_check(weights, f: Fan, m: int,
                         bound: int = 20) -> tuple[ChartReport, ...]:
    """Per-chart membership of a ray's weight in the invertible span.

    weights is a matrix with one column per ray of f (any coefficient
    group presented by free coordinates will do; rows are coordinates).
    m is a 0-based ray index.  For each maximal cone the chart inverts the
    coordinates of the rays outside it; the divisor x_m is cut out by an
    invariant function on that chart iff some power of w_m lies in the
    span of those columns, and the least such power is searched for in
    1..bound.
    """
    weights = freeze(weights)
    r = len(f.rays)
    for row in weights:
        if len(row) != r:
            raise ValueError("weight matrix has a row of length %d, fan "
                             "has %d rays" % (len(row), r))
    if not 0 <= m < r:
        raise ValueError("ray index %d out of range" % m)
    if bound < 1:
        raise ValueError("search bound must be positive")
    w_m = tuple(row[m] for row in weights)
    reports = []
    for cone_set in f.maximal_cones:
        invertible = tuple(sorted(set(range(r)) - cone_set))
        cols = tuple(tuple(row[j] for j in invertible) for row in weights)
        min_power = None
        for k in range(1, bound + 1):
            target = tuple(k * x for x in w_m)
            if solve_in_span(cols, target) is not None:
                min_power = k
                break
        reports.append(ChartReport(max_cone=tuple(sorted(cone_set)),
                                   invertible=invertible,
                                   in_span=min_power == 1,
                                   min_power=min_power))
    return tuple(reports)

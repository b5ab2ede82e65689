"""Cox quotient data of a fan: the ray map, its character group, the action
weights, the kernel lattice and the primitive collections.

Everything here is a function of one matrix, beta, whose columns are the
primitive ray generators, and it is Hermite-reduced once (ray_relations).
Its nonzero HNF rows are the kernel lattice, the linear relations among the
ray variables.  The character group X(G) is the cokernel of those rows
taken as columns, and the weight of a ray is the class of the matching unit
vector.  The Chow ring reads only the kernel rows and the primitive
collections: chow.chow_ring_stack takes them as linear forms and squarefree
monomials, and builds no X(G).  ktheory.k_ring_stack works in X(G), where
the kernel rows vanish, and turns each collection into a relation
1 - e^{-(sum of its weights)}; it reads the full CoxData.
strong_divisor_check answers the per-chart strongness question from the
same weights.
"""

from __future__ import annotations

from typing import NamedTuple

from .fan import Fan, GeometryError, UserError, _integer, \
    _integer_rows, primitive_collections
from .intlinalg import (
    AbelianGroup,
    Matrix,
    Vector,
    _hnf_form,
    cokernel,
    from_columns,
    transpose,
)


class TorusFactorError(UserError):
    """Raised when a fan's rays do not span the ambient space over Q.

    Such a fan describes a product with a torus factor; the quotient
    presentation of that factor is out of scope, so the input is rejected
    instead of silently split.
    """


class CoxData(NamedTuple):
    """The quotient presentation attached to a fan.

    char_group is the cokernel of beta's transpose (beta has one column
    per ray, its primitive generator); weights[i] is the class of the i-th
    unit vector in char_group coordinates (torsion entries first).  kernel
    is the canonical (HNF-row) basis of the lattice of exponent vectors
    whose classes vanish, i.e. the row lattice of beta's transpose.
    """

    char_group: AbelianGroup
    weights: tuple[Vector, ...]
    kernel: Matrix
    primitive_collections: tuple[tuple[int, ...], ...]


def ray_relations(f: Fan) -> Matrix:
    """The nonzero HNF rows of beta: the canonical basis of the linear
    relations among the ray variables, i.e. of beta's row lattice.

    Raises TorusFactorError when the rays do not span the ambient space
    over Q; a rank-0 fan (a point) is accepted.
    """
    n = f.ambient_rank
    # The nonzero HNF rows of beta span its row lattice, so they count the
    # rays' rank.  The fan's rays are tuples of ints, so beta goes to the
    # memo as it is built.
    kernel = tuple(row for row in _hnf_form(from_columns(f.rays, n))
                   if any(row))
    if len(kernel) != n:
        raise TorusFactorError(
            "rays span a rank-%d sublattice of Z^%d; the fan has a torus "
            "factor, which this construction does not support"
            % (len(kernel), n))
    return kernel


def cox(f: Fan) -> CoxData:
    """Cox data of a fan whose rays span the ambient space over Q.

    Raises TorusFactorError otherwise; a rank-0 fan (a point) is accepted.
    X(G) is the cokernel of the kernel rows taken as columns: they span the
    same lattice as the rays' coordinate columns, and cokernel depends only
    on that lattice.
    """
    kernel = ray_relations(f)
    r = len(f.rays)
    group = cokernel(from_columns(kernel, r))
    # The weight of ray i is the class of the i-th unit vector: column i of
    # the projection, whose torsion rows the normal form keeps reduced.
    weights = transpose(group.projection) or ((),) * r
    # f.rays is beta's transpose: its columns are beta's rows.
    assert group.kills(f.rays), "beta row has nonzero class"
    return CoxData(char_group=group, weights=weights, kernel=kernel,
                   primitive_collections=primitive_collections(f))


class ChartReport(NamedTuple):
    """Strongness verdict for one maximal-cone chart.

    invertible lists the rays not in the cone (their coordinates are units
    on the chart).  in_span says whether the weight of the tested ray lies
    in the subgroup generated by the invertible weights; min_power is the
    least k >= 1 for which k times that weight does, i.e. the order of the
    weight's class modulo that subgroup, or None when that order is
    infinite or exceeds the bound.
    """

    max_cone: tuple[int, ...]
    invertible: tuple[int, ...]
    in_span: bool
    min_power: int | None


def strong_divisor_check(weights, f: Fan, m: int,
                         bound: int = 20) -> tuple[ChartReport, ...]:
    """Per-chart membership of a ray's weight in the invertible span.

    weights is a matrix of ints with one column per ray of f (any
    coefficient group presented by free coordinates will do; rows are
    coordinates); a bool, a float or a non-array row raises GeometryError
    naming the entry, and so does a row of the wrong length.  m is a 0-based ray index.  For each maximal cone
    the chart inverts the coordinates of the rays outside it; the divisor
    x_m is cut out by an invariant function on that chart iff some power
    of w_m lies in the span of those columns.  The least such power is the
    order of w_m in the cokernel of those columns, reported when it is at
    most bound.
    """
    weights = _integer_rows(weights, "weights", "weights row")
    m = _integer(m, "ray index")
    r = len(f.rays)
    if any(len(row) != r for row in weights):
        raise GeometryError("weights rows must have one entry per ray")
    if not 0 <= m < r:
        raise ValueError("ray index %d out of range" % m)
    if bound < 1:
        raise ValueError("search bound must be positive")
    w_m = tuple(row[m] for row in weights)
    reports = []
    for cone_set in f.maximal_cones:
        invertible = tuple(sorted(set(range(r)) - cone_set))
        quotient = cokernel(tuple(tuple(row[j] for j in invertible)
                                  for row in weights))
        order = quotient.order(quotient.project(w_m))
        min_power = order if order is not None and order <= bound else None
        reports.append(ChartReport(max_cone=tuple(sorted(cone_set)),
                                   invertible=invertible,
                                   in_span=min_power == 1,
                                   min_power=min_power))
    return tuple(reports)

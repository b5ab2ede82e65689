"""Multiplicative (group-algebra) analogue of the verification pipeline.

The ring attached to a fan is the group algebra of the character group
X(G), cut by one relation per primitive collection; the infinitely many
exponent-lattice relations are eliminated exactly by working in X(G)
coordinates from the start.  Laurent quotients are evaluated on finite
exponent boxes: free coordinates range over [-B, B], torsion coordinates
are enumerated completely, and every report is window-level only - an
inner-window structure is labeled stabilized when it agrees with the next
radius, and anything non-stabilized is inconclusive, never asserted.
A window's relations are the boxed relations that vanish outside it: one
HNF with the outside coordinates first gives them as the echelon rows with
no outside entry (elimination order; Cohen, GTM 138, 2.4).
The comparison starts from fan.exceptional_stratum: Delta = v * (boundary
of sigma) matched bijectively with L = pi(boundary of sigma), pi the
projection along the star ray v.  It reads the Cox data of Delta and only
the ray relations of L, whose primitive collections are Delta's carried
across the matching, and loads neither graded nor chow.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .cox import cox, ray_relations
from .fan import (
    ComparisonError,
    Cone,
    ExceptionalStratum,
    Fan,
    UserError,
    exceptional_stratum,
)
from .intlinalg import (
    AbelianGroup,
    Vector,
    cokernel,
    from_columns,
    hnf_form,
    solve_in_span,
)


class GroupAlgebraPresentation(NamedTuple):
    """Group algebra of X(G) with one relation per primitive collection.

    generator_images[i] is the class of the i-th ray's character in X(G)
    normal-form coordinates.  Each ideal generator is a formal integer
    combination of group elements, stored as sorted (coords, coeff) pairs;
    the collection {i_1..i_k} contributes 1 - e^{-(w_{i_1}+...+w_{i_k})}.
    """

    group: AbelianGroup
    generator_images: tuple[Vector, ...]
    ideal_gens: tuple


def _group_add(group: AbelianGroup, a: Vector, b: Vector) -> Vector:
    return group.reduce(tuple(x + y for x, y in zip(a, b)))


def k_ring_stack(f: Fan) -> GroupAlgebraPresentation:
    """Group-algebra presentation of a fan's multiplicative invariant ring."""
    cd = cox(f)
    group = cd.char_group
    zero = (0,) * group.coord_rank
    gens = []
    for coll in cd.primitive_collections:
        # -(sum of the collection's weights): the class of minus its
        # indicator vector, since weight i is the class of unit vector i.
        neg = group.project(tuple(-(i in coll) for i in range(len(f.rays))))
        term = {zero: 1}
        term[neg] = term.get(neg, 0) - 1
        gens.append(tuple(sorted((c, v) for c, v in term.items() if v)))
    return GroupAlgebraPresentation(group=group,
                                    generator_images=cd.weights,
                                    ideal_gens=tuple(gens))


def _box_monomials(group: AbelianGroup, radius: int) -> tuple:
    ranges = [range(d) for d in group.torsion] \
        + [range(-radius, radius + 1) for _ in range(group.free_rank)]
    return tuple(itertools.product(*ranges))


def _in_box(group: AbelianGroup, coords: Vector, radius: int) -> bool:
    free = coords[len(group.torsion):]
    return all(-radius <= x <= radius for x in free)


def _relation_columns(p: GroupAlgebraPresentation, radius: int,
                      monomials: tuple) -> tuple:
    group = p.group
    index = {m: i for i, m in enumerate(monomials)}
    for gen in p.ideal_gens:
        for coords, _coeff in gen:
            if not _in_box(group, coords, radius):
                raise UserError(
                    "box radius %d is smaller than a generator exponent %s"
                    % (radius, list(coords)))
    columns = []
    for gen in p.ideal_gens:
        if not gen:
            continue
        for m in monomials:
            shifted = [(_group_add(group, coords, m), coeff)
                       for coords, coeff in gen]
            if all(_in_box(group, c, radius) for c, _ in shifted):
                col = [0] * len(monomials)
                for c, coeff in shifted:
                    col[index[c]] += coeff
                columns.append(tuple(col))
    return tuple(columns)


def window_lattice(p: GroupAlgebraPresentation, box_radius: int,
                   window_radius: int):
    """Window monomials plus the canonical (HNF-row) basis of the boxed
    relation lattice intersected with the window coordinate subspace.

    The relation columns, as rows with the outside coordinates first, get
    one HNF.  A combination of echelon rows is nonzero at the pivot of its
    first row used, so the rows pivoting inside the window span the
    relations vanishing outside it, and are that lattice's own HNF.

    The box at radius B only certifies relations some distance from the
    boundary, so the window must be strictly inside; radius B pairs with
    window B-1 everywhere in this module."""
    group = p.group
    box = _box_monomials(group, box_radius)
    columns = _relation_columns(p, box_radius, box)
    inside = [_in_box(group, m, window_radius) for m in box]
    order = sorted(range(len(box)), key=inside.__getitem__)  # outside first
    n_out = inside.count(False)
    echelon = hnf_form([tuple(col[i] for i in order) for col in columns])
    rows = tuple(r[n_out:] for r in echelon
                 if any(r) and not any(r[:n_out]))
    return tuple(m for m, w in zip(box, inside) if w), rows


def _window_group(p: GroupAlgebraPresentation, box_radius: int,
                  window_radius: int):
    window, rows = window_lattice(p, box_radius, window_radius)
    return window, rows, cokernel(from_columns(rows, len(window)))


class BoxedQuotient:
    """Finite truncation of a group-algebra quotient.

    monomials, relation_columns and group (the full box's quotient) are
    built on first read; window_group is the quotient of the inner window
    [-B+1, B-1] by the lattice the box certifies.
    stabilized means the inner-window structure agrees with the one the
    next radius certifies (window scales with the box: radius B certifies
    window B-1).  The window lattice rows are canonical (HNF), so equal
    windows compare equal.
    """

    def __init__(self, presentation: GroupAlgebraPresentation,
                 box_radius: int, window_radius: int,
                 window_monomials: tuple, window_lattice: tuple,
                 window_group: AbelianGroup, stabilized: bool) -> None:
        self.presentation = presentation
        self.box_radius = box_radius
        self.window_radius = window_radius
        self.window_monomials = window_monomials
        self.window_lattice = window_lattice
        self.window_group = window_group
        self.stabilized = stabilized

    @cached_property
    def monomials(self) -> tuple:
        return _box_monomials(self.presentation.group, self.box_radius)

    @cached_property
    def relation_columns(self) -> tuple:
        return _relation_columns(self.presentation, self.box_radius,
                                 self.monomials)

    @cached_property
    def group(self) -> AbelianGroup:
        return cokernel(from_columns(self.relation_columns,
                                     len(self.monomials)))

    def contains(self, element: dict) -> bool:
        """Is a formal combination (coords -> coeff) in the boxed relation
        lattice?  Raises if a term falls outside the box."""
        index = {m: i for i, m in enumerate(self.monomials)}
        vec = [0] * len(self.monomials)
        for coords, coeff in element.items():
            coords = tuple(coords)
            if coords not in index:
                raise ValueError("term %s falls outside the box"
                                 % (list(coords),))
            vec[index[coords]] += coeff
        matrix = from_columns(self.relation_columns, len(self.monomials))
        return solve_in_span(matrix, tuple(vec)) is not None


def boxed_quotient(p: GroupAlgebraPresentation, box_radius: int) \
        -> BoxedQuotient:
    """Quotient of the exponent box [-B, B]^free x (all torsion) by every
    generator shift staying inside the box."""
    if box_radius < 1:
        raise ValueError("box radius must be at least 1")
    window_radius = box_radius - 1
    window, rows, wgroup = _window_group(p, box_radius, window_radius)
    stabilized = wgroup.structure() == _window_group(
        p, box_radius + 1, window_radius + 1)[2].structure()
    return BoxedQuotient(presentation=p, box_radius=box_radius,
                         window_radius=window_radius,
                         window_monomials=window,
                         window_lattice=rows,
                         window_group=wgroup, stabilized=stabilized)


class KComparison(NamedTuple):
    """What the boxed comparison of one cone produced.  Once the character
    groups are identified the two quotients are equal (matched is proved),
    so only the subdivision's is boxed."""

    stratum: ExceptionalStratum
    box_radius: int
    source: GroupAlgebraPresentation
    boxed_source: BoxedQuotient
    window_rank: int
    torsion: tuple
    stabilized: bool


def k_exceptional_comparison(stratum: ExceptionalStratum,
                             box_radius: int = 3) -> KComparison:
    """Identify the stratum's character group with the subdivided cone's,
    then box the subdivision's quotient.

    The identification sends each stratum ray class to the class of its
    matched subdivision ray.  It must be well defined (the stratum's kernel
    rows, carried onto the subdivision's rays with 0 at v, die in X(G)) and
    an isomorphism (equal structures; the surviving ray classes always
    generate X(G), which is asserted); otherwise ComparisonError says
    which part failed.
    The stratum's primitive collections are the subdivision's carried
    across dst (chow.exceptional_comparison), so each transported
    generator 1 - e^{-(w'_{dst(i)}+...)} is the subdivision's
    1 - e^{-(w_i+...)}: the ideals are equal, and only the source is boxed.
    A non-stabilized window makes the verdict inconclusive, never a failure.
    """
    f2, dst, quotient = stratum.subdivision, stratum.dst, stratum.quotient.fan
    p_src = k_ring_stack(f2)
    group, n = p_src.group, len(f2.rays)
    kernel = ray_relations(quotient)
    carried = [tuple(row[dst[i]] if i in dst else 0 for i in range(n))
               for row in kernel]
    if not group.kills(from_columns(carried, n)):
        raise ComparisonError(
            "the stratum's exponent lattice does not map to zero; the "
            "character groups are not identified over Z")
    tgt_group = cokernel(from_columns(kernel, len(quotient.rays)))
    if group.structure() != tgt_group.structure():
        raise ComparisonError("character groups differ: %s vs %s"
                              % (group.describe(), tgt_group.describe()))
    # v is primitive, so some m has <m, v> = 1, and the kernel row
    # (<m, r_i>)_i gives e_v = -sum over i != v of <m, r_i> e_i in X(G).
    assert group.generated_by([p_src.generator_images[i]
                               for i in stratum.surviving]), \
        "stratum ray classes do not generate the character group"

    bq = boxed_quotient(p_src, box_radius)
    return KComparison(stratum=stratum, box_radius=box_radius, source=p_src,
                       boxed_source=bq, window_rank=bq.window_group.free_rank,
                       torsion=bq.window_group.torsion,
                       stabilized=bq.stabilized)


class KVanishingReport(NamedTuple):
    """Outcome of the window-level verification for one cone.

    conclusion is true only when the identification exists, the boxed
    window is stabilized, and the certified window carries no torsion.  A
    failed identification is recorded in failure.  Once identified, the
    two quotients are the same presentation, so matched is proved (True)
    when the window is stabilized and unsettled (None) when it is not."""

    cone_rays: tuple
    star_ray: Vector
    box_radius: int
    identified: bool
    failure: str | None
    window_rank: int | None
    torsion: tuple | None
    stabilized: bool
    matched: bool | None
    conclusion: bool


def verify_k_vanishing(sigma: Cone, box_radius: int = 3) -> KVanishingReport:
    """Run the boxed comparison and the torsion check for a cone."""
    stratum = exceptional_stratum(sigma)
    try:
        comp = k_exceptional_comparison(stratum, box_radius)
    except ComparisonError as exc:
        return KVanishingReport(cone_rays=sigma.rays,
                                star_ray=stratum.star_ray,
                                box_radius=box_radius, identified=False,
                                failure=str(exc), window_rank=None,
                                torsion=None, stabilized=False, matched=None,
                                conclusion=False)
    matched = True if comp.stabilized else None
    conclusion = comp.stabilized and comp.torsion == ()
    return KVanishingReport(cone_rays=sigma.rays, star_ray=stratum.star_ray,
                            box_radius=box_radius, identified=True,
                            failure=None, window_rank=comp.window_rank,
                            torsion=comp.torsion, stabilized=comp.stabilized,
                            matched=matched, conclusion=conclusion)

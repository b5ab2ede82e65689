"""Intersection-theoretic verification pipeline.

Two layers: graded presentations of the quotient rings attached to a fan
(chow_ring_stack), and the end-to-end comparison that star-subdivides a
full-dimensional cone, projects onto the exceptional stratum, and decides
whether the induced ring map is an isomorphism with torsion-free pieces
(verify_vanishing).  The subdivision Delta = v * (boundary of sigma) and
its ray matching with the stratum's fan L = pi(boundary of sigma), pi the
projection along the star ray v, are the reduction the K-theory verifier
in ktheory starts from too.

No inverse map or induced matrix is needed: pi maps the boundary of sigma
bijectively onto L, so the ray matching is a bijection and the certified
map hits every generator of a ring generated in degree 1 and is onto in
every degree, and an onto map between finitely generated abelian groups
of equal structure is an isomorphism (they are Hopfian).  Degree k is an
isomorphism iff its two pieces' structures agree.

The verification covers the two computable legs the reduction needs: the
ring comparison and the per-degree torsion report.  The zero-dimensional
stratum contributes Z in degree 0; that fact is recorded as an assumption
in every report, not recomputed.
"""

from __future__ import annotations

from typing import NamedTuple

from .cox import cox, ray_relations
from .fan import (
    ComparisonError,
    Cone,
    ExceptionalStratum,
    Fan,
    chow_groups,  # bound here: the benchmark reads chow.chow_groups
    exceptional_stratum,
    preimage_orbit_closure,
    primitive_collections,
)
from .graded import (
    GradedPresentation,
    RingMap,
    certify_well_defined,
    make_presentation,
    piece_structure,
    ring_map,
)
from .intlinalg import Vector, identity
from .intlinalg import cokernel  # bound here: the benchmark reads it

POINT_CLASS = "Z"  # degree-0 group of the zero-dimensional stratum, assumed


def chow_ring_stack(f: Fan) -> GradedPresentation:
    """Quotient-ring presentation attached to a fan: one variable per ray,
    the kernel lattice as linear relations, one squarefree monomial per
    primitive collection.  It reads only cox.ray_relations and the
    primitive collections, so it builds no character group; raises
    TorusFactorError when the rays do not span."""
    return chow_presentation(len(f.rays), ray_relations(f),
                             primitive_collections(f))


def chow_presentation(n: int, kernel, collections) -> GradedPresentation:
    """The Chow presentation in n ray variables with the given kernel rows
    as linear relations and one squarefree monomial per collection."""
    return make_presentation(n, kernel, [
        (len(c), {tuple(int(i in c) for i in range(n)): 1})
        for c in collections])


class Comparison(NamedTuple):
    """Everything the exceptional comparison of one cone produced."""

    stratum: ExceptionalStratum
    source: GradedPresentation
    target: GradedPresentation
    map: RingMap
    extra_row: Vector  # image form of the subdivision-ray variable
    verdicts: tuple  # ((degree, bool), ...) for 0..max_deg: iso in degree k
    source_pieces: tuple  # piece_structures(source, max_deg)


def piece_structures(p: GradedPresentation, max_deg: int) -> tuple:
    """The structures of the pieces of degree 0..max_deg, each read off
    its relation lattice's Hermite rows (graded.piece_structure), with no
    group built.

    Every variable of a GradedPresentation has degree 1, so the ring is
    generated in degree 1: once a piece of degree K >= 1 is 0,
    A^k = A^1 * A^(k-1) = 0 for every k > K, and those pieces are recorded
    as 0 without being computed.
    """
    out = []
    for k in range(max_deg + 1):
        zero = k >= 2 and out[-1] == (0, ())
        out.append((0, ()) if zero else piece_structure(p, k))
    return tuple(out)


def exceptional_comparison(stratum: ExceptionalStratum,
                           max_deg: int = 4) -> Comparison:
    """Compare the subdivided cone's ring with the exceptional stratum's.

    Each surviving variable goes to its matched stratum variable, and the
    star ray's variable to the integral expression of its class in the
    surviving classes (solved in the character group, torsion included;
    one exists, since v is primitive, so the expression is asserted).
    The substitution is certified well-defined first.  The matching is a
    bijection onto the stratum's rays (asserted), so the map hits every
    target variable and, the target being generated in degree 1, is onto
    in every degree; finitely generated abelian groups are Hopfian, so it
    is an isomorphism in degree k exactly when the source and target
    degree-k pieces have equal structure.  verdicts is that comparison for
    k in 0..max_deg, each side computed up to its first zero piece of
    degree >= 1 (piece_structures).  Raises ComparisonError when the
    forward map fails.

    The target's primitive collections are the source's carried across
    dst (Batyrev 1991), with no second search: v lies in every maximal
    cone v + F of Delta, so no minimal non-face holds v, and a set S of
    surviving rays lies in v + F exactly when dst(S) lies in pi(F), one of
    L's maximal cones.
    """
    f2, v_idx, dst = stratum.subdivision, stratum.star_index, stratum.dst
    quotient = stratum.quotient.fan
    n_target = len(quotient.rays)
    cd = cox(f2)
    source = chow_presentation(len(f2.rays), cd.kernel,
                               cd.primitive_collections)
    target = chow_presentation(n_target, ray_relations(quotient), sorted(
        (frozenset(dst[i] for i in c) for c in cd.primitive_collections),
        key=sorted))
    # v is primitive, so some m has <m, v> = 1, and the kernel row
    # (<m, r_i>)_i gives w_v = -sum over i != v of <m, r_i> w_i in X(G).
    sol = cd.char_group.express([cd.weights[i] for i in stratum.surviving],
                                cd.weights[v_idx])
    assert sol is not None, \
        "the star ray's class is outside the span of the surviving classes"

    extra = [0] * n_target
    for i, x in zip(stratum.surviving, sol):
        extra[dst[i]] += x
    unit = identity(n_target)
    rm = ring_map(source, target, [tuple(extra) if i == v_idx else unit[dst[i]]
                                   for i in range(len(f2.rays))])
    cert = certify_well_defined(rm)
    if not cert.ok:
        raise ComparisonError("substitution does not map relations into "
                              "relations; witness %r" % (cert.witness,))
    source_pieces = piece_structures(source, max_deg)
    pairs = zip(source_pieces, piece_structures(target, max_deg))
    verdicts = tuple((k, s == t) for k, (s, t) in enumerate(pairs))
    return Comparison(stratum=stratum, source=source, target=target,
                      map=rm, extra_row=tuple(extra), verdicts=verdicts,
                      source_pieces=source_pieces)


class VanishingReport(NamedTuple):
    """Outcome of the vanishing verification for one cone.

    verdicts has one (degree, bool) pair per degree 0..max_deg: the
    certified map is onto in every degree, so it is an isomorphism in
    degree k exactly when the source and target degree-k pieces have
    equal structure (finitely generated abelian groups are Hopfian).
    pieces lists (degree, free_rank, torsion) of the subdivided stack's
    graded components up to max_deg; degrees above max_deg are unchecked.
    The ring is generated in degree 1, so A^K = 0 forces
    A^k = A^1 * A^(k-1) = 0 for every k >= K: once a piece of degree
    K >= 1 is 0, the later pieces are recorded as 0 without being
    computed, on both sides of the comparison.  point_class records the
    assumed degree-0 group of the zero-dimensional stratum.  conclusion is True only when the
    identification was built, every degree 1..max_deg compares
    isomorphically, and every checked piece is torsion-free.
    """

    cone_rays: tuple
    star_ray: Vector
    max_deg: int
    identified: bool
    failure: str | None
    extra_row: Vector | None
    verdicts: tuple  # ((degree, bool), ...), empty if not identified
    pieces: tuple  # ((degree, free_rank, torsion), ...)
    point_class: str
    conclusion: bool


def verify_vanishing(sigma: Cone, max_deg: int = 4) -> VanishingReport:
    """Run the exceptional comparison and the torsion report for a cone."""
    stratum = exceptional_stratum(sigma)
    try:
        comparison = exceptional_comparison(stratum, max_deg)
    except ComparisonError as exc:
        failure, verdicts, extra_row = str(exc), (), None
        structures = piece_structures(chow_ring_stack(stratum.subdivision),
                                      max_deg)
    else:
        failure, verdicts, extra_row = None, comparison.verdicts, \
            comparison.extra_row
        structures = comparison.source_pieces

    pieces = tuple((k,) + s for k, s in enumerate(structures))
    identified = failure is None
    conclusion = identified and all(ok for _k, ok in verdicts[1:]) \
        and all(not torsion for deg, _rank, torsion in pieces if deg >= 1)
    return VanishingReport(cone_rays=sigma.rays, star_ray=stratum.star_ray,
                           max_deg=max_deg, identified=identified,
                           failure=failure, extra_row=extra_row,
                           verdicts=verdicts, pieces=pieces,
                           point_class=POINT_CLASS, conclusion=conclusion)


class PreimageReport(NamedTuple):
    star_ray: Vector
    preimage: tuple  # ray tuples of the cones over the interior
    ok: bool


def preimage_check(sigma: Cone) -> PreimageReport:
    """Check that the subdivision ray's orbit closure is the full preimage
    of the cone's closed stratum: the minimal subdivision cones meeting the
    cone's interior must be exactly the one spanned by the star ray."""
    stratum = exceptional_stratum(sigma)
    hits = preimage_orbit_closure(stratum.subdivision,
                                  Fan(sigma.ambient_rank, [sigma]), sigma)
    preimage = tuple(c.rays for c in hits)
    return PreimageReport(star_ray=stratum.star_ray, preimage=preimage,
                          ok=preimage == ((stratum.star_ray,),))

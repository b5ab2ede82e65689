"""Rational polyhedral cones and fans over a lattice, with the operations a
toric intersection-theory pipeline needs: face enumeration, star
subdivision, primitive collections, refinement and preimage tests, star
quotients, facet relation data for orbit closures and the class groups
A_k they present (chow_groups: the V(sigma) modulo div(chi^u) over the
walls, Fulton-Sturmfels), plus the reduction both vanishing verifiers
start from (exceptional_stratum): a cone sigma's star subdivision
Delta = v * (boundary of sigma), built from its facets, and the stratum's
fan L = pi(boundary of sigma), pi the projection along the interior star
ray v, which maps the boundary bijectively onto L.

Cones carry primitive ray generators in input order; a fan's rays are
indexed in first-seen order and every report downstream is keyed to that
order.  All geometry is exact.  Every cone, and the dual cone whose facet
normals are intersect_cones' rays, enumerates supporting hyperplanes over
the (d-1)-subsets of rays (_facet_data), adequate at this library's scale
(rank <= 6, around a dozen rays); each normal is the primitive vector of
the subset's signed maximal minors (intlinalg.kernel_generator).  A
cone's faces are the closure of its facets under intersection.

A cone keeps its perp lattice; its span basis and ray coordinates serve
only to build its facets, at construction, on one path.  All ray
coordinates are solved against one HNF of the span, and all normal lifts
against one HNF of its transpose; a full-dimensional cone needs neither,
since its span is the identity, and n rays in rank n with a nonzero
determinant are known full-dimensional with no kernel computed.  A
simplicial cone skips the strong-convexity and extremality rank checks,
which d independent rays always pass.  A cone's faces and a fan's face
lattice (Fan.cones) are built on first read.  Operations that need a
cone's facets read them from that data and build no cone per facet.

The orbit fan of a ray (star_quotient_fan, and L in exceptional_stratum)
has one builder, _orbit_fan: each cone at the ray maps to the cone spanned
by the images of the rays that span a 2-face with it, and the fan is index
data (Fan._indexed) whose maximal cones are built on first read.
exceptional_stratum builds Delta as index data too: v pairs positively
with every facet normal, so each cone is a pyramid over a facet, or that
facet's injective image under pi, with all rays extreme.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import NamedTuple

from .intlinalg import (
    AbelianGroup,
    Matrix,
    Vector,
    cokernel,
    det,
    from_columns,
    identity,
    kernel_basis,
    kernel_generator,
    matvec,
    rank,
    solve_many_in_span,
    transpose,
)


class UserError(ValueError):
    """Input a user can correct: a malformed file or fan, an option out of
    range, a cone that breaks a precondition.  The CLI reports this class,
    and no other exception, as exit 2."""


class GeometryError(UserError):
    """Input violates a geometric precondition (zero generator, cone not
    strongly convex, cone not in fan, ...)."""


def content(v) -> int:
    return gcd(*v)


def primitivize(v) -> Vector:
    g = content(v)
    if g == 0:
        raise GeometryError("zero vector cannot generate a ray")
    # map(int) on the common content-1 path: no bool may reach a ray.
    return tuple(map(int, v)) if g == 1 else tuple(x // g for x in v)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


class Cone:
    """A strongly convex rational polyhedral cone, stored as its primitive
    extreme rays (deduplicated, input order).

    Built at construction: perp_rows (a basis of the annihilator of the
    span), facet_sets (the local ray indices of each facet) and
    facet_normals (each facet's inward normal, lifted to the ambient
    lattice; on the cone it vanishes exactly on the facet, and it is
    primitive on the saturated span lattice), the last two from the
    (d-1)-subsets of the rays' coordinates in that lattice.  The faces
    (face_ray_sets) are built on first read."""

    __slots__ = ("ambient_rank", "rays", "dim", "perp_rows", "facet_sets",
                 "facet_normals", "_faces")

    def __init__(self, ambient_rank: int, generators):
        self.ambient_rank = n = int(ambient_rank)
        gens = []
        for v in generators:
            if len(v) != n:
                raise GeometryError("generator length %d, ambient rank %d"
                                    % (len(v), n))
            p = primitivize(v)
            if p not in gens:
                gens.append(p)

        if not gens:
            self.rays = ()
            self.dim = 0
            self.perp_rows = identity(n)
            self.facet_sets = self.facet_normals = ()
            self._faces = (frozenset(),)
            return
        self._faces = None

        # Saturated span lattice: perp of the rays, then perp of the perp.
        # n rays with a nonzero determinant span everything, with no
        # kernel to compute.  A full-dimensional cone has the identity as
        # its span, so its rays are their own coordinates and its normals
        # their own lifts.
        perp_rows = () if len(gens) == n and det(gens) \
            else transpose(kernel_basis(gens))
        if perp_rows:
            span = kernel_basis(perp_rows)
            coords = list(solve_many_in_span(span, gens))
            assert None not in coords, "ray escapes its own saturated span"
        else:
            span, coords = identity(n), gens
        d = len(span[0])

        facet_sets, span_normals = _facet_data(coords, d)
        if perp_rows:
            # The span basis is saturated, so its transpose is surjective
            # and every span functional lifts to the ambient lattice.
            facet_normals = solve_many_in_span(transpose(span), span_normals)
            assert None not in facet_normals
        else:
            facet_normals = span_normals

        # d independent rays are strongly convex and all extreme; more rays
        # need both checks.
        if len(gens) != d:
            # Strong convexity: the inward normals must span the dual of
            # the span, otherwise a line survives.
            if rank(span_normals) != d:
                raise GeometryError(
                    "cone is not strongly convex: generators %s contain a "
                    "line" % (tuple(gens),))

            # A generator is extreme iff the facets through it cut out a
            # ray: the normals vanishing there must have rank d-1.
            keep = []
            for i in range(len(coords)):
                through = [w for s, w in zip(facet_sets, span_normals)
                           if i in s]
                if rank(through) == d - 1:
                    keep.append(i)
            if len(keep) != len(gens):
                gens = [gens[i] for i in keep]
                relabel = {old: new for new, old in enumerate(keep)}
                facet_sets = tuple(
                    frozenset(relabel[i] for i in s if i in relabel)
                    for s in facet_sets)

        self.rays = tuple(gens)
        self.dim = d
        self.perp_rows = perp_rows
        self.facet_sets = facet_sets
        self.facet_normals = facet_normals

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.ambient_rank == other.ambient_rank
                and frozenset(self.rays) == frozenset(other.rays))

    def __hash__(self):
        return hash((self.ambient_rank, frozenset(self.rays)))

    def __repr__(self):
        return "Cone(%d, %r)" % (self.ambient_rank, list(self.rays))

    @property
    def is_zero(self) -> bool:
        return not self.rays

    def contains(self, v) -> bool:
        if len(v) != self.ambient_rank:
            raise GeometryError("point has wrong ambient rank")
        if any(matvec(self.perp_rows, v)):
            return False
        return all(_dot(w, v) >= 0 for w in self.facet_normals)

    def contains_cone(self, other: "Cone") -> bool:
        if other.is_zero:
            return True
        return all(self.contains(r) for r in other.rays)

    def face_ray_sets(self) -> tuple[frozenset, ...]:
        """All faces as frozensets of local ray indices, by (size, sorted):
        the closure of the facet sets under intersection, plus the cone
        itself."""
        if self._faces is None:
            everything = frozenset(range(len(self.rays)))
            found = {everything}
            frontier = {everything}
            while frontier:
                nxt = set()
                for f in frontier:
                    for s in self.facet_sets:
                        g = f & s
                        if g not in found:
                            found.add(g)
                            nxt.add(g)
                frontier = nxt
            self._faces = tuple(sorted(found, key=lambda s: (len(s), sorted(s))))
        return self._faces

    def face_vector_sets(self) -> frozenset:
        return frozenset(frozenset(self.rays[i] for i in s)
                         for s in self.face_ray_sets())


def _facet_data(coords, d):
    """Inward facet normals of a full-dimensional cone given by ray
    coordinates in a rank-d lattice, as (facet ray sets, normals in span
    coordinates), sorted by ray set.  The cone need not be pointed (the
    dual cone of intersect_cones may hold a line; all of space has none).

    Every facet is cut out by d-1 independent rays, so the candidates are
    the (d-1)-subsets whose kernel generator (signed maximal minors over
    their content) exists; a candidate is kept when all rays lie on one
    side of it, with the sign flipped to point inward.  Its zero set is
    then a facet: it holds the d-1 independent rays and lies in the
    candidate's perp, so its rank is d-1.  Ray-set order is the order of
    each facet's first independent subset: where two ray sets first differ,
    the smaller set's element is off the other facet, so off their prefix."""
    seen: dict[frozenset, Vector] = {}
    for sub in combinations(range(len(coords)), d - 1):
        w = kernel_generator([coords[i] for i in sub])
        if w is None:
            continue
        pairings = [_dot(w, c) for c in coords]
        if all(p <= 0 for p in pairings):
            w = tuple(-x for x in w)
            pairings = [-p for p in pairings]
        elif not all(p >= 0 for p in pairings):
            continue
        seen.setdefault(
            frozenset(i for i, p in enumerate(pairings) if p == 0), w)
    sets = tuple(sorted(seen, key=sorted))
    return sets, tuple(seen[s] for s in sets)


def make_cone(ambient_rank: int, generators) -> Cone:
    """Cone from integer generators: primitivized, deduplicated, non-extreme
    generators dropped; raises GeometryError if a generator is zero or the
    cone contains a line."""
    return Cone(ambient_rank, generators)


def star_vector(c: Cone) -> Vector:
    """Primitive generator of the ray through the sum of the rays."""
    if c.is_zero:
        raise GeometryError("the zero cone has no star vector")
    return primitivize(tuple(sum(col) for col in zip(*c.rays)))


def _integer(x, what: str) -> int:
    # JSON true/false decode to bool, a subclass of int: refuse it as well.
    if not isinstance(x, int) or isinstance(x, bool):
        raise GeometryError("%s is not an integer: %s"
                            % (what, json.dumps(x, default=repr)))
    return x


def _array(x, what: str):
    if not isinstance(x, (list, tuple)):
        raise GeometryError("%s is not an array: %s"
                            % (what, json.dumps(x, default=repr)))
    return x


def _integer_rows(x, what: str, row: str) -> list[Vector]:
    """x as a list of int tuples, checked by _array and _integer; errors
    name the whole by what and row i as "<row> i"."""
    return [tuple(_integer(v, "%s %d entry %d" % (row, i, j))
                  for j, v in enumerate(_array(r, "%s %d" % (row, i))))
            for i, r in enumerate(_array(x, what))]


class Fan:
    """A fan: rays in first-seen order plus all cones as frozensets of ray
    indices, closed under faces.  The rays and maximal cones are set at
    construction; the face lattice (cones) is built on first read.
    Construction does not check the intersection axiom; validate_fan does.

    A fan is a value: equality, hash and repr read the rank, the rays in
    order and the set of maximal cones, never the lazily built data."""

    __slots__ = ("ambient_rank", "rays", "maximal_cones", "_cones",
                 "_by_dim", "_cache", "_order")

    def __init__(self, ambient_rank: int, maximal, ray_hint=()):
        self.ambient_rank = n = int(ambient_rank)
        used = {r for c in maximal for r in c.rays}
        rays: list[Vector] = []
        index: dict[Vector, int] = {}
        for v in tuple(tuple(r) for r in ray_hint) \
                + tuple(r for c in maximal for r in c.rays):
            if v in used and v not in index:
                index[v] = len(rays)
                rays.append(v)
        self.rays = tuple(rays)

        self._cache: dict[frozenset, Cone] = {}
        sets = []
        for c in maximal:
            if c.ambient_rank != n:
                raise GeometryError("cone ambient rank mismatch")
            s = frozenset(index[r] for r in c.rays)
            sets.append(s)
            self._cache[s] = c
        # In a valid fan containment of cones is containment of ray sets, so
        # the maximal members are the inclusion-maximal sets.
        dedup: list[frozenset] = []
        for s in sets:
            if s not in dedup and not any(s < t for t in sets):
                dedup.append(s)
        self.maximal_cones = tuple(dedup) if dedup else (frozenset(),)
        self._cones = self._by_dim = None
        self._order = {}

    @classmethod
    def _indexed(cls, ambient_rank: int, rays, maximal) -> "Fan":
        """A fan from its rays and its maximal cones as ray-index tuples;
        Fan.cone builds each cone on first read, its rays in tuple order.
        The caller vouches for what __init__ would derive: the tuples are
        distinct, none lies in another, and each lists the extreme rays of
        a pointed cone."""
        f = cls.__new__(cls)
        f.ambient_rank, f.rays = ambient_rank, tuple(rays)
        f.maximal_cones = tuple(map(frozenset, maximal))
        f._order = dict(zip(f.maximal_cones, maximal))
        f._cache, f._cones, f._by_dim = {}, None, None
        return f

    @property
    def cones(self) -> frozenset:
        """Every cone as a frozenset of ray indices: the faces of the
        maximal cones."""
        if self._cones is None:
            index = {r: i for i, r in enumerate(self.rays)}
            all_cones = set()
            for s in self.maximal_cones:
                c = self.cone(s)
                to_fan = [index[r] for r in c.rays]
                for face in c.face_ray_sets():
                    all_cones.add(frozenset(to_fan[i] for i in face))
            self._cones = frozenset(all_cones)
        return self._cones

    def _key(self) -> tuple:
        return (self.ambient_rank, self.rays, frozenset(self.maximal_cones))

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Fan.from_data(%d, %r, %r)" % (
            self.ambient_rank, [list(r) for r in self.rays],
            sorted(sorted(s) for s in self.maximal_cones))

    @classmethod
    def from_data(cls, rank: int, rays, max_cones) -> "Fan":
        """Build from the interchange form: a ray list plus 0-based index
        lists.  The rank, every ray entry and every cone index must be an
        int (a bool or a float is refused, not truncated).  Rays must be
        primitive, distinct, each used by some cone, and exactly the
        extreme rays of their cones.  No cone may list a ray twice, repeat
        another cone or lie in one, so that cone i of the input is maximal
        cone i of the fan (Fan.__init__ drops such a cone silently)."""
        rank = _integer(rank, "rank")
        if rank < 0:
            raise GeometryError("rank is negative: %d" % rank)
        rays = _integer_rows(rays, "rays", "ray")
        for i, r in enumerate(rays):
            if len(r) != rank:
                raise GeometryError("ray %d has length %d, rank is %d"
                                    % (i, len(r), rank))
            if not any(r):
                raise GeometryError("ray %d is zero" % i)
            if content(r) != 1:
                raise GeometryError("ray %d = %s is not primitive"
                                    % (i, list(r)))
        if len(set(rays)) != len(rays):
            raise GeometryError("duplicate rays")
        used = set()
        cones = []
        for ci, idxs in enumerate(_array(max_cones, "max_cones")):
            idxs = [_integer(x, "cone %d entry %d" % (ci, j))
                    for j, x in enumerate(_array(idxs, "cone %d" % ci))]
            for j, i in enumerate(idxs):
                if not 0 <= i < len(rays):
                    raise GeometryError(
                        "cone %d uses ray index %d, out of range" % (ci, i))
                if i in idxs[:j]:
                    raise GeometryError(
                        "cone %d lists ray %d twice" % (ci, i))
            used.update(idxs)
            cone = Cone(rank, [rays[i] for i in idxs])
            if frozenset(cone.rays) != frozenset(rays[i] for i in idxs):
                raise GeometryError(
                    "cone %d lists a non-extreme generator" % ci)
            cones.append(cone)
        sets = [frozenset(c.rays) for c in cones]
        for ci, a in enumerate(sets):
            for cj, b in enumerate(sets):
                if a == b and cj < ci:
                    raise GeometryError("cone %d repeats cone %d" % (ci, cj))
                if a < b:
                    raise GeometryError("cone %d is %s cone %d" % (
                        ci, "a face of" if a in cones[cj].face_vector_sets()
                        else "inside", cj))
        if rays and used != set(range(len(rays))):
            missing = sorted(set(range(len(rays))) - used)
            raise GeometryError("rays %s appear in no cone" % missing)
        return cls(rank, cones, ray_hint=rays)

    def to_data(self) -> dict:
        return {"rank": self.ambient_rank,
                "rays": [list(r) for r in self.rays],
                "max_cones": [sorted(s) for s in self.maximal_cones]}

    def cone(self, index_set) -> Cone:
        s = frozenset(index_set)
        if s not in self._cache:
            self._cache[s] = Cone(self.ambient_rank, [
                self.rays[i] for i in self._order.get(s) or sorted(s)])
        return self._cache[s]

    def cones_of_dim(self, d: int) -> list[frozenset]:
        """The cones of dimension d in canonical order (sorted ray
        indices); the face lattice is grouped by dimension on first
        read."""
        if self._by_dim is None:
            self._by_dim = {}
            for s in sorted(self.cones, key=sorted):
                self._by_dim.setdefault(self.cone(s).dim, []).append(s)
        return list(self._by_dim.get(d, ()))

    def has_cone(self, c: Cone) -> bool:
        if c.ambient_rank != self.ambient_rank:
            return False
        try:
            s = frozenset(self.rays.index(r) for r in c.rays)
        except ValueError:
            return False
        return s in self.cones


class FanViolation(NamedTuple):
    first: tuple[int, ...]
    second: tuple[int, ...]
    reason: str


class FanReport(NamedTuple):
    ok: bool
    violations: tuple[FanViolation, ...]


def intersect_cones(a: Cone, b: Cone) -> Cone:
    """Exact intersection of two strongly convex cones (again strongly
    convex), by cone duality (Cox-Little-Schenck, 1.2).  Equalities are the
    stacked perps, inequalities the stacked inward facet normals, written
    in a basis of the equalities' kernel (rank e).  The intersection is
    strongly convex, so the inequality rows generate a full-dimensional
    cone, whose facet normals are exactly the intersection's rays."""
    n = a.ambient_rank
    eqs = a.perp_rows + b.perp_rows
    span = kernel_basis(eqs) if eqs else identity(n)
    span_cols = transpose(span)
    if not span_cols:
        return Cone(n, ())
    ineqs = [tuple(_dot(w, col) for col in span_cols)
             for w in a.facet_normals + b.facet_normals]
    _, rays = _facet_data(ineqs, len(span_cols))
    return Cone(n, [matvec(span, y) for y in rays])


def validate_fan(f: Fan) -> FanReport:
    """Check the fan axioms.  Faces are present by construction; the
    substantive check is that every pairwise intersection of maximal cones
    is a face of each."""
    violations = []
    maximal = list(f.maximal_cones)
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            a, b = f.cone(maximal[i]), f.cone(maximal[j])
            cut = intersect_cones(a, b)
            cut_rays = frozenset(cut.rays)
            if (cut_rays not in a.face_vector_sets()
                    or cut_rays not in b.face_vector_sets()):
                violations.append(FanViolation(
                    first=tuple(sorted(maximal[i])),
                    second=tuple(sorted(maximal[j])),
                    reason="intersection with rays %s is not a common face"
                           % (sorted(cut.rays),)))
    return FanReport(ok=not violations, violations=tuple(violations))


def star_subdivision(f: Fan, c: Cone) -> Fan:
    """Refine f at the cone c: maximal cones not containing c survive; every
    maximal cone sigma containing c is replaced by the joins of the star
    vector v with the facets of sigma not containing it (_joins)."""
    if not f.has_cone(c):
        raise GeometryError("subdivision cone is not a cone of the fan")
    if c.is_zero:
        raise GeometryError("cannot subdivide at the zero cone")
    v = star_vector(c)
    new_max: list[Cone] = []
    for s in f.maximal_cones:
        sigma = f.cone(s)
        if not sigma.contains_cone(c):
            new_max.append(sigma)
            continue
        assert sigma.contains(v), "star vector escapes a cone containing c"
        new_max += [Cone(f.ambient_rank, [sigma.rays[i] for i in t] + [v])
                    for t in _joins(sigma, v)]
    return Fan(f.ambient_rank, new_max, ray_hint=f.rays)


def _joins(sigma: Cone, v: Vector) -> list[tuple[int, ...]]:
    """The facets of sigma not containing v, in facet order, as sorted
    local ray indices; v joins each.  They are read off sigma's facet data,
    with no cone built per facet: v lies in sigma, so it lies in a facet
    exactly when that facet's inward normal vanishes on it.  A
    one-dimensional sigma has the origin as its only facet (facet set
    empty), which gives the single cone [v]."""
    return [tuple(sorted(fs))
            for fs, w in zip(sigma.facet_sets, sigma.facet_normals)
            if _dot(w, v) != 0]


def primitive_collections(f: Fan) -> list[frozenset]:
    """Minimal sets of ray indices in no single cone (the minimal non-faces,
    Batyrev 1991), built level by level as in Apriori: a face t (sorted
    tuple) grows to u = t + (i,) for i > max(t), a face when some maximal
    cone contains it, else a collection when every u - {j}, j in t, is a
    face of t's level.  Each u arises once, from u - {max u}."""
    n = len(f.rays)
    maximal = f.maximal_cones
    level = {(i,) for i in range(n)}
    collections: list[frozenset] = []
    while level:
        grown = set()
        for t in level:
            for i in range(t[-1] + 1, n):
                u = t + (i,)
                if any(m.issuperset(u) for m in maximal):
                    grown.add(u)
                elif all(u[:j] + u[j + 1:] in level for j in range(len(t))):
                    collections.append(frozenset(u))
        level = grown
    return sorted(collections, key=sorted)


def h_vector(f: Fan) -> tuple[int, ...]:
    """The h-vector (h_0, ..., h_d) of a simplicial fan in rank d, from the
    face counts f_i (the number of cones with i rays, f_0 = 1):
    h_k = sum over i <= k of (-1)^(k-i) C(d-i, k-i) f_i.  When every
    maximal cone is full-dimensional the ray forms are a linear system of
    parameters of the Stanley-Reisner ring over Q, and h_k is the free rank
    of the degree-k Chow piece (Stanley, Combinatorics and Commutative
    Algebra, ch. II).  Raises ValueError when a cone is not simplicial."""
    if any(len(s) != f.cone(s).dim for s in f.maximal_cones):
        raise ValueError("the h-vector needs a simplicial fan")
    d = f.ambient_rank
    counts = Counter(len(s) for s in f.cones)
    return tuple(sum((-1) ** (k - i) * comb(d - i, k - i) * counts[i]
                     for i in range(k + 1))
                 for k in range(d + 1))


def _tiles(sigma: Cone, pieces: list[Cone]) -> bool:
    # Do the pieces (distinct subcones of sigma of its dimension, hence with
    # pairwise disjoint interiors) cover sigma?  Wall criterion: every facet
    # of a piece lies in a facet of sigma or is a facet of exactly two
    # pieces.  A wall lies in sigma, so it lies in a facet of sigma exactly
    # when that facet's inward normal vanishes on its rays.
    if sigma.is_zero:
        return bool(pieces)
    if not pieces:
        return False
    walls = Counter(frozenset(t.rays[i] for i in fs)
                    for t in pieces for fs in t.facet_sets)
    for wall, shared in walls.items():
        if not wall:
            continue  # sigma has dimension 1; the origin is boundary
        if any(all(_dot(w, r) == 0 for r in wall)
               for w in sigma.facet_normals):
            continue
        if shared != 2:
            return False
    return True


def is_refinement(f2: Fan, f1: Fan) -> bool:
    """True iff every cone of f2 lies in a cone of f1 and the supports
    coincide.  f1 must be a fan."""
    if f2.ambient_rank != f1.ambient_rank:
        return False
    f1_max = [f1.cone(s) for s in f1.maximal_cones]
    f2_max = [f2.cone(s) for s in f2.maximal_cones]
    if not all(any(big.contains_cone(tau) for big in f1_max)
               for tau in f2_max):
        return False
    # Reverse inclusion of supports: each maximal cone sigma of f1 must be
    # tiled by the f2 cones of its dimension it contains.  Such a piece lies
    # in a maximal f2 cone, which lies in a maximal f1 cone meeting sigma in
    # a face of full dimension, i.e. in sigma itself; so the piece is that
    # maximal f2 cone.
    for sigma in f1_max:
        pieces = [tau for tau in f2_max
                  if tau.dim == sigma.dim and sigma.contains_cone(tau)]
        if not _tiles(sigma, pieces):
            return False
    return True


def minimal_containing_cone(f: Fan, c: Cone) -> frozenset | None:
    """Index set of the smallest-dimensional cone of f containing c (unique
    when it exists), or None."""
    best = None
    for s in f.cones:
        cone = f.cone(s)
        if cone.contains_cone(c):
            if best is None or cone.dim < f.cone(best).dim:
                best = s
    return best


def preimage_orbit_closure(f2: Fan, f1: Fan, c: Cone) -> list[Cone]:
    """The inclusion-minimal cones of the refinement f2 whose relative
    interior meets the relative interior of c, i.e. whose minimal containing
    f1-cone is c.  These index the components dominating the orbit closure
    of c."""
    if not is_refinement(f2, f1):
        raise GeometryError("first fan does not refine the second")
    if not f1.has_cone(c):
        raise GeometryError("cone is not a cone of the coarse fan")
    hits = []
    for s in f2.cones:
        tau = f2.cone(s)
        m = minimal_containing_cone(f1, tau)
        if m is not None and f1.cone(m) == c:
            hits.append(tau)
    minimal = [t for t in hits
               if not any(h is not t and t.contains_cone(h) for h in hits)]
    return sorted(minimal, key=lambda t: (t.dim, sorted(t.rays)))


class StarQuotient(NamedTuple):
    """Projection of the star of a ray to the quotient lattice.

    `projection` has quotient-rank many rows and kills exactly the ray.
    `pairs` maps surviving source ray indices to quotient ray indices
    together with the multiplicity of the projected generator over its
    primitive (1 means the projection is itself primitive); `dropped` lists
    source rays whose image is not extreme in the quotient."""
    fan: Fan
    projection: Matrix
    ray_index: int
    pairs: tuple[tuple[int, int, int], ...]
    dropped: tuple[int, ...]


def star_quotient_fan(f: Fan, ray) -> StarQuotient:
    """The fan of the orbit closure of a ray: every cone containing the ray,
    projected to the quotient of the ambient lattice by the ray's
    generator.  Each projected cone is spanned by the images of the rays
    that span a 2-face with the ray (_orbit_fan), read off the cone's
    faces; a ray of the star adjacent to the ray in no cone is dropped.
    f must pass validate_fan: two overlapping cones at the ray may project
    to one cone, which is then listed twice."""
    ray = tuple(int(x) for x in ray)
    if ray not in f.rays:
        raise GeometryError("%s is not a ray of the fan" % (ray,))
    ri = f.rays.index(ray)
    index = {r: i for i, r in enumerate(f.rays)}
    star, adjacent = set(), []
    for s in f.maximal_cones:
        if ri in s:
            star |= s
            c = f.cone(s)
            at = c.rays.index(ray)
            adjacent.append(tuple(sorted(
                index[c.rays[j]] for face in c.face_ray_sets()
                if len(face) == 2 and at in face for j in face - {at})))
    return _orbit_fan(f.ambient_rank, f.rays, ri, adjacent,
                      sorted(star - {ri}))


def _orbit_fan(n: int, rays, ri: int, adjacent, star) -> StarQuotient:
    """The orbit fan of ray ri as index data (Fan._indexed): cone j is
    spanned by the images of the rays adjacent[j], those that span a
    2-face with ray ri in the j-th star cone, which are exactly the rays of
    its image (Cox-Little-Schenck, Toric Varieties, 3.2).  The images are
    projected along ray ri, L's rays are their primitive vectors in
    first-seen order, and pairs carry each image's content as its
    multiplicity.  A ray of star (the other rays of the star cones) that is
    adjacent in no cone is dropped."""
    q = transpose(kernel_basis((rays[ri],)))  # rows: saturated perp of ri
    images: dict[Vector, int] = {}  # L's rays, first-seen
    to_l: dict[int, tuple[int, int]] = {}  # source -> (L index, content)
    for t in adjacent:
        for i in t:
            if i not in to_l:
                img = matvec(q, rays[i])
                to_l[i] = (images.setdefault(primitivize(img), len(images)),
                           content(img))
    return StarQuotient(
        fan=Fan._indexed(n - 1, images,
                         [tuple(to_l[i][0] for i in t) for t in adjacent]),
        projection=q, ray_index=ri,
        pairs=tuple((i,) + to_l[i] for i in sorted(to_l)),
        dropped=tuple(i for i in star if i not in to_l))


class ComparisonError(ValueError):
    """The exceptional identification could not be built over Z.

    The ray matching itself cannot fail: it is a bijection by construction
    (exceptional_stratum).  Both vanishing verifiers raise this error, with
    the reason verbatim, when a later step fails:
    - Chow: the substitution fails its well-definedness certificate;
    - K: the stratum's exponent lattice does not map to zero in X(G);
    - K: the two character groups have different structures;
    - K: the stratum's ray classes do not generate X(G).
    Nothing is rescaled rationally.
    """


class ExceptionalStratum(NamedTuple):
    """A full-dimensional cone's star subdivision Delta = v * (boundary of
    sigma), matched ray by ray with the fan L = pi(boundary of sigma) of its
    exceptional stratum, pi the projection along the star ray v.

    subdivision lists sigma's rays, then v; quotient is the star quotient
    fan of v; dst sends each surviving subdivision ray (every ray but v,
    listed in surviving) to its image ray in quotient.fan, a bijection.
    """
    subdivision: Fan
    star_ray: Vector
    star_index: int
    quotient: StarQuotient
    surviving: tuple[int, ...]
    dst: dict


def exceptional_stratum(sigma: Cone) -> ExceptionalStratum:
    """The reduction both vanishing verifiers start from.

    v, the primitive sum of sigma's rays, is interior: it pairs positively
    with every facet normal (asserted), so Delta is v joined with every
    facet F, a pyramid with apex off F's hyperplane.  So pi is injective on
    F's span, and every line x + Rv leaves sigma once, so pi maps the
    boundary of sigma bijectively onto N_R/Rv (Cox-Little-Schenck, Toric
    Varieties, 3.1-3.2): L's maximal cones are the facets' images and its
    rays the primitive images of sigma's rays, one each, and dst is a
    bijection.  Each cone v + F or pi(F) is pointed, simplicial wherever F
    is, and all its rays are extreme, so both fans are index data
    (Fan._indexed) that build a cone only when one is read.  Delta lists
    sigma's rays then v (sigma's own ray in rank 1), L its rays first-seen
    over the facets; a cone lists F's rays, or their images, then v.
    """
    if sigma.dim != sigma.ambient_rank:
        raise GeometryError("cone has dimension %d in rank %d; the "
                            "comparison needs a full-dimensional cone"
                            % (sigma.dim, sigma.ambient_rank))
    if sigma.is_zero:
        raise GeometryError("cannot subdivide at the zero cone")
    n = sigma.ambient_rank
    v = star_vector(sigma)
    assert all(_dot(w, v) > 0 for w in sigma.facet_normals), \
        "the star ray is not interior to the cone"
    joins = _joins(sigma, v)
    rays = sigma.rays if v in sigma.rays else sigma.rays + (v,)
    v_idx = rays.index(v)
    f2 = Fan._indexed(n, rays, [t + (v_idx,) for t in joins])
    surviving = tuple(i for i in range(len(rays)) if i != v_idx)
    # Every ray of v + F spans a 2-face with v.
    quotient = _orbit_fan(n, rays, v_idx, joins, surviving)
    dst = {src: d for src, d, _mult in quotient.pairs}
    # Every surviving ray matched (so none dropped), onto L's rays.
    assert sorted(dst) == list(surviving) \
        and sorted(dst.values()) == list(range(len(quotient.fan.rays))), \
        "the ray matching is not a bijection onto the quotient's rays"
    return ExceptionalStratum(subdivision=f2, star_ray=v, star_index=v_idx,
                              quotient=quotient, surviving=surviving,
                              dst=dst)


class OrbitRelationDatum(NamedTuple):
    """Facet pair (tau inside sigma) with the data entering divisor-of-
    character relations: a basis of the characters u vanishing on tau, and
    each <u, n>, n the generator of the rank-one quotient of the span
    lattices of sigma and tau, oriented into sigma."""
    tau_rays: tuple[Vector, ...]
    sigma_rays: tuple[Vector, ...]
    m_tau_basis: tuple[Vector, ...]
    pairings: tuple[int, ...]


def orbit_relation_data(f: Fan, tau: Cone) -> list[OrbitRelationDatum]:
    """For every fan cone sigma having tau as a facet: the characters
    conormal to tau (m_tau_basis, tau's stored perp lattice tau.perp_rows)
    and their pairings with n = n_{sigma,tau} (Fulton-Sturmfels,
    Intersection theory on toric varieties, Topology 36, 1997).

    sigma's inward normal w of tau is primitive on sigma's span lattice
    (a kernel generator in span coordinates, lifted to agree there; a
    ray's only facet is the origin, with w(r) = 1) and vanishes on tau's,
    so w(n) = 1.  Each u also vanishes on tau's span, so u = <u, n> w on
    sigma's span: <u, n> = <u, r> / <w, r> for any ray r of sigma off tau,
    an exact division."""
    if not f.has_cone(tau):
        raise GeometryError("cone is not a cone of the fan")
    wall = frozenset(tau.rays)
    out = []
    for s in f.cones_of_dim(tau.dim + 1):
        sigma = f.cone(s)
        # dim sigma = dim tau + 1: tau is a face of sigma iff it is a facet.
        for fs, w in zip(sigma.facet_sets, sigma.facet_normals):
            if frozenset(sigma.rays[i] for i in fs) == wall:
                break
        else:
            continue
        r = next(x for i, x in enumerate(sigma.rays) if i not in fs)
        w_r = _dot(w, r)
        u_r = [_dot(u, r) for u in tau.perp_rows]
        assert all(x % w_r == 0 for x in u_r), "w is not primitive on sigma"
        out.append(OrbitRelationDatum(
            tau_rays=tau.rays, sigma_rays=sigma.rays,
            m_tau_basis=tau.perp_rows, pairings=tuple(x // w_r for x in u_r)))
    return out


def chow_relation_data(f: Fan, k: int):
    """Generators and relation columns for the dimension-k class group.

    Generators are the dimension (rank - k) cones in canonical order;
    every dimension (rank - k - 1) cone tau contributes one column per
    basis vector u of its perp lattice, with entry <u, n_{sigma,tau}> at
    each cone sigma having tau as a facet.
    """
    n = f.ambient_rank
    if not 0 <= k <= n:
        raise ValueError("class dimension %d out of range 0..%d" % (k, n))
    gens = [frozenset(s) for s in f.cones_of_dim(n - k)]
    gen_index = {s: i for i, s in enumerate(gens)}
    columns = []
    for tau_set in f.cones_of_dim(n - k - 1):
        data = orbit_relation_data(f, f.cone(tau_set))
        if not data:
            continue
        for j in range(len(data[0].m_tau_basis)):
            col = [0] * len(gens)
            for datum in data:
                sigma_set = frozenset(f.rays.index(r)
                                      for r in datum.sigma_rays)
                col[gen_index[sigma_set]] += datum.pairings[j]
            columns.append(tuple(col))
    return tuple(tuple(sorted(s)) for s in gens), tuple(columns)


def chow_groups(f: Fan, k: int) -> AbelianGroup:
    """The dimension-k cycle class group of the fan's variety."""
    gens, cols = chow_relation_data(f, k)
    return cokernel(from_columns(cols, len(gens)))

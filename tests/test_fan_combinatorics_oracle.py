"""Checks fan combinatorics against test-local copies of the code they
replaced.

intersect_cones used to enumerate the (e-1)-subsets of the stacked facet
inequalities itself, instead of reading the facets of the dual cone;
primitive_collections tested every subset of rays, instead of growing the
faces level by level; _tiles built a Cone per facet through facets(); and
orbit_relation_data tested face membership before looking up the facet,
and built the generator n of span(sigma)/span(tau) from the span bases by
a solve, a cokernel, a lift and an orientation flip, where it now reads
each pairing <u, n> off sigma's facet normal.  The copies below keep that
code.  On seeded complete fans (built as the fan_complete benchmark
builds them), on the subdivision and stratum fans of the corpus, on the
square-cone fixture and on seeded random cones, the new code must return
exactly what the old code returned, order included.
"""

import json
import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

from toricstacks.fan import (
    Cone,
    Fan,
    GeometryError,
    _dot,
    intersect_cones,
    is_refinement,
    orbit_relation_data,
    primitive_collections,
    primitivize,
    star_quotient_fan,
    star_subdivision,
    star_vector,
)
from toricstacks.intlinalg import (
    cokernel,
    identity,
    kernel_basis,
    matvec,
    solve_many_in_span,
    transpose,
)

from corpus import corpus_cones
from test_geometry_hnf_oracle import span_coordinates
from test_kernel_generator_oracle import kernel_generator

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# -- the replaced code -----------------------------------------------------

def facets(c):
    """One Cone per facet of c, in facet-set order, as the removed
    fan.facets built them."""
    if c.is_zero:
        return []
    if c.dim == 1:
        return [Cone(c.ambient_rank, ())]
    return [Cone(c.ambient_rank, [c.rays[i] for i in sorted(s)])
            for s in c.facet_sets]


def old_intersect_cones(a, b):
    n = a.ambient_rank
    eqs = list(a.perp_rows) + list(b.perp_rows)
    span = kernel_basis(eqs) if eqs else identity(n)
    e = len(transpose(span))
    if e == 0:
        return Cone(n, ())
    span_cols = transpose(span)
    ineqs = [tuple(_dot(w, col) for col in span_cols)
             for w in a.facet_normals + b.facet_normals]
    rays = []
    for sub in combinations(range(len(ineqs)), e - 1):
        w = kernel_generator([ineqs[i] for i in sub])
        if w is None:
            continue
        for y in (w, tuple(-x for x in w)):
            if all(_dot(row, y) >= 0 for row in ineqs):
                v = primitivize(matvec(span, y))
                if v not in rays:
                    rays.append(v)
    return Cone(n, rays)


def old_primitive_collections(f):
    n = len(f.rays)
    maximal = f.maximal_cones
    collections = []

    def in_some_cone(s):
        return any(s <= m for m in maximal)

    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if in_some_cone(s) or any(c <= s for c in collections):
                continue
            if all(in_some_cone(s - {i}) for i in s):
                collections.append(s)
    return sorted(collections, key=sorted)


def old_tiles(sigma, pieces):
    if sigma.is_zero:
        return bool(pieces)
    if not pieces:
        return False
    sigma_facets = facets(sigma)
    for t in pieces:
        for wall in facets(t):
            if wall.is_zero:
                continue
            if any(fc.contains_cone(wall) for fc in sigma_facets):
                continue
            shared = sum(1 for t2 in pieces
                         if frozenset(wall.rays) in t2.face_vector_sets())
            if shared != 2:
                return False
    return True


def old_is_refinement(f2, f1):
    if f2.ambient_rank != f1.ambient_rank:
        return False
    f1_max = [f1.cone(s) for s in f1.maximal_cones]
    for s in f2.maximal_cones:
        tau = f2.cone(s)
        if not any(big.contains_cone(tau) for big in f1_max):
            return False
    for sigma in f1_max:
        pieces = [f2.cone(s) for s in f2.cones
                  if f2.cone(s).dim == sigma.dim
                  and sigma.contains_cone(f2.cone(s))]
        if not old_tiles(sigma, pieces):
            return False
    return True


def old_orbit_relation_data(f, tau):
    n = f.ambient_rank
    m_basis = tuple(transpose(kernel_basis(tau.rays))) if tau.rays \
        else tuple(identity(n))
    out = []
    for s in f.cones_of_dim(tau.dim + 1):
        sigma = f.cone(s)
        if frozenset(tau.rays) not in sigma.face_vector_sets():
            continue
        span, _ = span_coordinates(sigma)
        coord_cols = solve_many_in_span(span,
                                        transpose(span_coordinates(tau)[0]))
        rel = transpose(coord_cols) if coord_cols \
            else tuple(() for _ in range(sigma.dim))
        quotient = cokernel(rel)
        n_gen = matvec(span, quotient.express(transpose(quotient.projection),
                                              (1,)))
        w = None
        for fs, fn in zip(sigma.facet_sets, sigma.facet_normals):
            if frozenset(sigma.rays[i] for i in fs) == frozenset(tau.rays):
                w = fn
                break
        assert w is not None, "tau is a face but not a facet"
        if _dot(w, n_gen) < 0:
            n_gen = tuple(-x for x in n_gen)
        out.append((tau.rays, sigma.rays, m_basis, n_gen))
    return out


def old_pairings(f, tau):
    """old_orbit_relation_data with n_gen replaced by <u, n_gen> for each
    u of the character basis."""
    return [(t, s, m, tuple(_dot(u, n_gen) for u in m))
            for t, s, m, n_gen in old_orbit_relation_data(f, tau)]


# -- inputs ------------------------------------------------------------------

# (ambient rank, ray count), as in the fan_complete benchmark but smaller.
FAN_SLOTS = ((3, 10), (4, 9))


def complete_fan(r):
    """The complete fan of (P^1)^r: rays +-e_i, one cone per orthant."""
    def unit(i, s):
        return tuple(s if j == i else 0 for j in range(r))
    return Fan(r, [Cone(r, [unit(i, s[i]) for i in range(r)])
                   for s in product((1, -1), repeat=r)])


def seeded_fans(seed):
    """Complete fans grown by star subdivision, untouched orthants first."""
    rng = random.Random(seed)
    out = []
    for r, n_rays in FAN_SLOTS:
        f = complete_fan(r)
        while len(f.rays) < n_rays:
            orthants = [s for s in f.maximal_cones
                        if all(sum(map(abs, f.rays[i])) == 1 for i in s)]
            pick = rng.choice(orthants or f.maximal_cones)
            f = star_subdivision(f, f.cone(pick))
        out.append(f)
    return out


SEEDED = seeded_fans(20191101)


def corpus_fans():
    """The subdivision and stratum fan of every corpus cone."""
    out = []
    for c in corpus_cones():
        f2 = star_subdivision(Fan(c.ambient_rank, [c]), c)
        out += [f2, star_quotient_fan(f2, star_vector(c)).fan]
    return out


def square_fan():
    data = json.loads((FIXTURES / "sigma_square.json").read_text())
    return Fan.from_data(data["rank"], data["rays"], data["max_cones"])


def _random_cone(rng, n):
    """A random strongly convex cone in rank n: full-dimensional or not,
    simplicial or not, with small entries."""
    while True:
        k = rng.randint(1, n + 2)
        if rng.random() < 0.3 and n > 1:
            # Inside a random hyperplane, so lower-dimensional.
            basis = [tuple(rng.randint(-2, 2) for _ in range(n))
                     for _ in range(n - 1)]
            gens = [tuple(sum(rng.randint(0, 2) * b[j] for b in basis)
                          for j in range(n)) for _ in range(k)]
        else:
            gens = [tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(k)]
        gens = [g for g in gens if any(g)]
        try:
            return Cone(n, gens)
        except GeometryError:
            continue


# -- intersect_cones ----------------------------------------------------------

def test_intersect_cones_on_seeded_fans():
    pairs = 0
    for f in SEEDED:
        maximal = [f.cone(s) for s in f.maximal_cones]
        for a, b in combinations(maximal, 2):
            assert intersect_cones(a, b).rays \
                == old_intersect_cones(a, b).rays, (a, b)
            pairs += 1
    assert pairs >= 250


def test_intersect_cones_on_random_pairs():
    rng = random.Random(20191102)
    counts = {"zero": 0, "lower": 0, "full": 0, "dual with a line": 0}
    for i in range(240):
        n = 2 + i % 3
        a = _random_cone(rng, n)
        if i % 3:
            # Share some of a's rays, so that the cut is often more than
            # the origin.
            shared = [r for r in a.rays if rng.random() < 0.7]
            try:
                b = Cone(n, shared + list(_random_cone(rng, n).rays[:2]))
            except GeometryError:
                b = _random_cone(rng, n)
        else:
            b = _random_cone(rng, n)
        cut = intersect_cones(a, b)
        assert cut.rays == old_intersect_cones(a, b).rays, (a, b)
        counts["zero" if cut.is_zero else
               "full" if cut.dim == n else "lower"] += 1
        # The dual cone holds a line when the cut is thinner than the
        # common span of a and b.
        eqs = a.perp_rows + b.perp_rows
        common = len(transpose(kernel_basis(eqs))) if eqs else n
        counts["dual with a line"] += cut.dim < common
    assert min(counts.values()) >= 50, counts


# -- primitive_collections ---------------------------------------------------

def test_primitive_collections_match_subset_enumeration():
    fans = SEEDED + corpus_fans() + [square_fan()]
    assert len(fans) == 43
    found = 0
    for f in fans:
        got = primitive_collections(f)
        assert got == old_primitive_collections(f), f.rays
        found += bool(got)
    assert found >= 20


# -- is_refinement -------------------------------------------------------------

def _refinement_pairs(rng):
    """(finer?, coarser?) fan pairs: each fan with itself (the corpus and
    square cones keep their non-simplicial pieces there); star
    subdivisions at random faces, both ways round; fans with a maximal
    cone removed; and fans whose pieces overlap."""
    bases = SEEDED + [Fan(c.ambient_rank, [c]) for c in corpus_cones()] \
        + [square_fan()]
    for f in bases:
        yield f, f
        faces = sorted((s for s in f.cones if s), key=sorted)
        for _ in range(2):
            c = f.cone(rng.choice(faces))
            f2 = star_subdivision(f, c)
            yield f2, f
            yield f, f2
            cones = [f2.cone(s) for s in f2.maximal_cones]
            if len(cones) > 1:
                drop = rng.randrange(len(cones))
                holed = Fan(f.ambient_rank,
                            cones[:drop] + cones[drop + 1:], ray_hint=f2.rays)
                yield holed, f
                yield f, holed
            # Pieces of two different subdivisions of one cone overlap; so
            # do pieces and the pieces of their own subdivision, which
            # share walls three ways.
            f3 = star_subdivision(f, f.cone(rng.choice(faces)))
            f4 = star_subdivision(f2, f2.cone(rng.choice(f2.maximal_cones)))
            for g in (f3, f4):
                both = Fan(f.ambient_rank,
                           cones + [g.cone(s) for s in g.maximal_cones],
                           ray_hint=f2.rays + g.rays)
                yield both, f
                yield both, f2


def test_is_refinement_matches_facet_cones():
    rng = random.Random(20191103)
    counts = {True: 0, False: 0}
    for f2, f1 in _refinement_pairs(rng):
        got = is_refinement(f2, f1)
        assert got == old_is_refinement(f2, f1), (f2.to_data(), f1.to_data())
        counts[got] += 1
    assert min(counts.values()) >= 50, counts


# -- orbit_relation_data -----------------------------------------------------

def assert_old_pairings(f):
    """orbit_relation_data against old_pairings at every cone of f; returns
    the (tau, sigma) pairs seen, with <w, r> (sigma's inward normal of tau
    on its first ray off tau) and sigma's dimension."""
    pairs = []
    for s in sorted(f.cones, key=lambda s: (len(s), sorted(s))):
        tau = f.cone(s)
        got = [(d.tau_rays, d.sigma_rays, d.m_tau_basis, d.pairings)
               for d in orbit_relation_data(f, tau)]
        assert got == old_pairings(f, tau), (f.rays, tau)
        for d in got:
            sigma = Cone(f.ambient_rank, d[1])
            w = next(fn for fs, fn in zip(sigma.facet_sets,
                                          sigma.facet_normals)
                     if {sigma.rays[i] for i in fs} == set(tau.rays))
            r = next(x for x in sigma.rays if x not in tau.rays)
            pairs.append((_dot(w, r), sigma.dim))
    return pairs


def test_orbit_relation_data_matches_face_test():
    # cone((1, 1, 0), (1, -1, 0)) in rank 3 is lower-dimensional, and its
    # inward normal of the facet (1, 1, 0) is 2 on the other ray.
    slanted = Fan(3, [Cone(3, [(1, 1, 0), (1, -1, 0)])])
    assert (2, 2) in assert_old_pairings(slanted)
    data = 0
    for f in corpus_fans() + [square_fan()]:
        data += len(assert_old_pairings(f))
    assert data >= 200


def test_orbit_relation_data_on_random_cones():
    # Seeded cones of every dimension in ranks 1-4, their one-cone fans
    # and their star subdivisions at the cone and at a random face.
    rng = random.Random(20191104)
    dims, pairs = Counter(), Counter()
    for i in range(160):
        n = 1 + i % 4
        c = _random_cone(rng, n)
        if c.is_zero:
            continue
        dims[c.dim] += 1
        f = Fan(n, [c])
        faces = sorted((s for s in f.cones if s), key=sorted)
        for g in (f, star_subdivision(f, c),
                  star_subdivision(f, f.cone(rng.choice(faces)))):
            for w_r, d in assert_old_pairings(g):
                pairs["<w, r> > 1" if w_r > 1 else "<w, r> = 1"] += 1
                pairs["lower, <w, r> > 1"] += w_r > 1 and d < n
    assert sorted(dims) == [1, 2, 3, 4] and min(dims.values()) >= 10, dims
    assert min(pairs.values()) >= 50, pairs

"""Checks certify_well_defined against a per-generator dict-polynomial
oracle.

certify_well_defined carries all linear generators of the source to the
target's reduced variables by one matrix product, and expands each
homogeneous generator once under the composite substitution straight into
reduced monomial coordinates.  per_generator_certify instead pushes every
generator, as a dict polynomial, through the substitution and then through
the target's reduction, with its own polynomial arithmetic (_substitute),
and projects it through the reduced piece of its degree.  Both must return
the same (ok, witness) on the forward maps of the corpus, the negative
corpus and 200 seeded random cones and on the candidate inverse maps
s_j -> t_src(j) of the identified ones; on those forward maps with one
substitution entry changed or the extra row corrupted; and on seeded
random presentations whose targets include torsion in degree 1 and no
reduced variables at all.

A monomial generator that the substitution only renames onto a target
generator is proved by identity, with no expansion.  On every corpus and
negative-corpus forward map certify_well_defined expands nothing.  On
seeded maps beside such a carried generator, the other generator takes
the lattice test and must agree with the oracle: a renamed monomial that
is no target generator, in the ideal or not, a target generator's
multiple, twice a target generator, and a monomial through a row with
coefficient -1 or 2 or with two nonzero entries.
"""

import random
from collections import Counter
from operator import add

import pytest

from corpus import corpus_cones
from test_chow_certificate import clear_package_caches, random_cones
from test_negative_corpus import NEGATIVE
from toricstacks import chow, graded
from toricstacks.chow import ComparisonError, exceptional_stratum
from toricstacks.fan import Cone
from toricstacks.graded import (
    Certification,
    _reduction,
    certify_well_defined,
    graded_piece,
    make_presentation,
    monomials,
    ring_map,
)


def _unit(i: int, n: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
            if not out[e]:
                del out[e]
    return out


def _linear_forms(rm) -> tuple:
    """The image of each source variable, as a dict polynomial over the
    target variables."""
    n = rm.target.n_vars
    return tuple({_unit(i, n): c for i, c in enumerate(row) if c}
                 for row in rm.substitution)


def _substitute(rm, poly: dict) -> dict:
    forms = _linear_forms(rm)
    out: dict = {}
    for expt, coeff in poly.items():
        term = {tuple([0] * rm.target.n_vars): coeff}
        for i, e in enumerate(expt):
            for _ in range(e):
                term = _poly_mul(term, forms[i])
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
            if not out[m]:
                del out[m]
    return out


def _in_reduced_relations(p, k: int, poly: dict) -> bool:
    """Is a homogeneous degree-k polynomial over p's variables a relation?
    It goes through the reduction's phi by _substitute and is projected
    through the reduced degree-k piece."""
    phi = _reduction(p)
    basis = monomials(phi.target.n_vars, k)
    image = _substitute(phi, poly)
    vec = [image.get(m, 0) for m in basis]
    return not any(graded_piece(p, k).project(vec))


def per_generator_certify(rm) -> Certification:
    """certify_well_defined one generator at a time, every generator
    (linear ones too) as a dict polynomial."""
    n = rm.source.n_vars
    gens = [(1, {_unit(i, n): c for i, c in enumerate(row) if c})
            for row in rm.source.linear_gens]
    gens += [(d, dict(items)) for d, items in rm.source.homogeneous_gens]
    for degree, gen in gens:
        if not _in_reduced_relations(rm.target, degree,
                                     _substitute(rm, gen)):
            witness = (degree, tuple(sorted(gen.items(), reverse=True)))
            return Certification(ok=False, witness=witness)
    return Certification(ok=True, witness=None)


def assert_same(rm, tally):
    got = certify_well_defined(rm)
    assert got == per_generator_certify(rm), rm
    tally["ok" if got.ok else "degree %d" % got.witness[0]] += 1
    return got


def inverse_map(rm, dst):
    """The candidate inverse of a comparison map: s_j -> t_src(j), with
    src the inverse of the ray matching dst."""
    src = {d: s for s, d in dst.items()}
    return ring_map(rm.target, rm.source,
                    [_unit(src[j], rm.source.n_vars)
                     for j in range(rm.target.n_vars)])


def comparison_maps(cones, monkeypatch):
    """(map, star index) for every map the Chow comparison certifies, the
    forward map of each cone with its star row, and, when the forward map
    passes, its candidate inverse with None."""
    maps = []

    def spy(rm):
        maps.append(rm)
        return certify_well_defined(rm)

    monkeypatch.setattr(chow, "certify_well_defined", spy)
    out = []
    for sigma in cones:
        stratum = exceptional_stratum(sigma)
        del maps[:]
        try:
            chow.exceptional_comparison(stratum, 1)
        except ComparisonError:
            out += [(rm, stratum.star_index) for rm in maps]
            continue
        (rm,) = maps
        out += [(rm, stratum.star_index),
                (inverse_map(rm, stratum.dst), None)]
    return out


SETS = {
    "corpus": corpus_cones,
    "negative": lambda: [Cone(n, rays) for n, rays, _c, _k in NEGATIVE],
    "random": lambda: random_cones(20190501, 200),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_forward_and_inverse_maps(name, monkeypatch):
    clear_package_caches()
    tally = Counter()
    cones = SETS[name]()
    maps = comparison_maps(cones, monkeypatch)
    for rm, _star in maps:
        assert_same(rm, tally)
    # Forward and inverse maps both occur.
    assert len(maps) > len(cones)
    if name == "negative":
        assert tally["ok"] < len(maps)


def _mutated(rm, star, rng):
    """The map with one substitution entry changed, and the map with its
    star row (the extra row; any row of an inverse map) replaced by a
    random row."""
    sub = [list(row) for row in rm.substitution]
    i, j = rng.randrange(len(sub)), rng.randrange(len(sub[0]))
    sub[i][j] += rng.choice((-2, -1, 1, 2))
    extra = [list(row) for row in rm.substitution]
    if star is None:
        star = rng.randrange(len(extra))
    extra[star] = [rng.randint(-3, 3) for _ in extra[star]]
    return [ring_map(rm.source, rm.target, s) for s in (sub, extra)]


def test_mutated_substitutions(monkeypatch):
    clear_package_caches()
    rng = random.Random(20190502)
    cones = corpus_cones() + random_cones(20190503, 60)
    tally = Counter()
    for rm, star in comparison_maps(cones, monkeypatch):
        if not rm.target.n_vars:
            continue
        for mutant in _mutated(rm, star, rng):
            assert_same(mutant, tally)
    # Most mutations fail the degree-1 check; a few still pass.
    assert tally["degree 1"] >= 200 and tally["ok"] >= 1, tally


def _random_poly(rng, n, degree):
    out = {}
    for _ in range(rng.randint(1, 3)):
        expt = [0] * n
        for _ in range(degree):
            expt[rng.randrange(n)] += 1
        out[tuple(expt)] = rng.choice((-2, -1, 1, 2))
    return out


def _random_target(rng, kind):
    n = rng.randint(1, 3)
    if kind == "torsion":
        # d_1 e_1 with d_1 > 1, so degree 1 has Z/d_1.
        lin = [tuple(rng.choice((2, 3, 4)) if j == 0 else 0
                     for j in range(n))]
    elif kind == "no reduced variables":
        lin = [tuple(int(i == j) + (rng.randint(-2, 2) if j > i else 0)
                     for j in range(n)) for i in range(n)]
    else:
        lin = [tuple(rng.randint(-2, 2) for _ in range(n))
               for _ in range(rng.randint(0, n))]
    homs = [(2, _random_poly(rng, n, 2)) for _ in range(rng.randint(0, 2))]
    return make_presentation(n, lin, homs)


def test_random_presentations():
    rng = random.Random(20190504)
    tally = Counter()
    kinds = {"torsion": 0, "no reduced variables": 0, "random": 0}
    for trial in range(600):
        kind = ("torsion", "no reduced variables", "random")[trial % 3]
        target = _random_target(rng, kind)
        reduced = graded_piece(target, 1)
        if kind == "torsion":
            assert reduced.torsion
        if kind == "no reduced variables":
            assert reduced.ambient_rank == 0
        kinds[kind] += 1
        m = rng.randint(1, 4)
        sub = [[rng.randint(-2, 2) for _ in range(target.n_vars)]
               for _ in range(m)]
        # Linear generators scaled by 2, 3 or 6 land in the torsion
        # relations now and then.
        lin = [tuple(rng.choice((1, 2, 3, 6)) * rng.randint(-2, 2)
                     for _ in range(m)) for _ in range(rng.randint(0, 3))]
        homs = [(d, _random_poly(rng, m, d))
                for d in rng.sample((2, 2, 3), rng.randint(0, 2))]
        source = make_presentation(m, lin, homs)
        assert_same(ring_map(source, target, sub), tally)
    assert min(kinds.values()) == 200
    assert tally["degree 1"] >= 50 and tally["ok"] >= 50, tally
    assert tally["degree 2"] + tally["degree 3"] >= 20, tally


def _counting_expand(monkeypatch) -> list:
    calls = []
    real = graded._expand

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graded, "_expand", counted)
    return calls


@pytest.mark.parametrize("name", ("corpus", "negative"))
def test_forward_maps_expand_nothing(name, monkeypatch):
    clear_package_caches()
    forward = [rm for rm, star in comparison_maps(SETS[name](), monkeypatch)
               if star is not None]
    calls = _counting_expand(monkeypatch)
    for rm in forward:
        _reduction(rm.target)  # warm: its own expansions are not counted
        del calls[:]
        certify_well_defined(rm)
        assert not calls, rm
    assert sum(len(rm.source.homogeneous_gens) for rm in forward) \
        > len(forward)


KINDS = ("renamed", "multiple", "scaled", "coefficient")


def _fallback_map(rng, kind):
    """A map whose one source generator of the given kind takes the
    lattice test, with a carried generator before or after it.

    The target has 1-2 monomial generators of degree 2 in 2-4 variables
    x_i, and 0-1 linear relations; x_a x_c is one of its generators.  The
    source variable y_i goes to x_i for i < n, and the last three go to
    -x_a, 2 x_a and x_a + x_b.  Kinds: renamed, a degree-2 monomial in
    y_0..y_(n-1) whose image is no target generator (in the ideal or
    not); multiple, y_a y_c y_j (in the ideal, not a generator); scaled,
    y_c times one of the last three (-x_a x_c and 2 x_a x_c lie in the
    ideal, (x_a + x_b) x_c may not); coefficient, 2 y_a y_c."""
    n = rng.randint(2, 4)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    lin = [tuple(rng.randint(-1, 1) for _ in range(n))
           for _ in range(rng.randint(0, 1))]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    gens = rng.sample(pairs, rng.randint(1, 2))
    target = make_presentation(n, lin, [
        (2, {tuple(map(add, unit[i], unit[j])): 1}) for i, j in gens])
    a, c = rng.choice(gens)
    b = rng.choice([i for i in range(n) if i != a])
    sub = unit + [tuple(-x for x in unit[a]), tuple(2 * x for x in unit[a]),
                  tuple(map(add, unit[a], unit[b]))]

    def source_gen(coeff, *factors):
        expt = [0] * (n + 3)
        for i in factors:
            expt[i] += 1
        return (len(factors), {tuple(expt): coeff})

    if kind == "renamed":
        gen = source_gen(1, *rng.choice([p for p in pairs if p not in gens]))
    elif kind == "multiple":
        gen = source_gen(1, a, c, rng.randrange(n))
    elif kind == "scaled":
        gen = source_gen(1, c, n + rng.randrange(3))
    else:
        gen = source_gen(2, a, c)
    homs = [source_gen(1, a, c), gen]
    rng.shuffle(homs)
    return ring_map(make_presentation(n + 3, (), homs), target, sub)


def test_fallback_generators_match_the_oracle(monkeypatch):
    rng = random.Random(20190505)
    tally = Counter()
    calls = _counting_expand(monkeypatch)
    for trial in range(400):
        kind = KINDS[trial % len(KINDS)]
        rm = _fallback_map(rng, kind)
        _reduction(rm.target)
        del calls[:]
        got = certify_well_defined(rm)
        # The carried generator is not expanded; the other one is.
        assert len(calls) == 1, (kind, rm)
        assert got == per_generator_certify(rm), (kind, rm)
        tally[kind, got.ok] += 1
    assert tally["renamed", False] >= 50 and tally["renamed", True] >= 10, \
        tally
    assert tally["multiple", True] == tally["coefficient", True] == 100, \
        tally
    assert tally["scaled", True] >= 50 and tally["scaled", False] >= 10, \
        tally

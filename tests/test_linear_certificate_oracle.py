"""Checks the one-product degree-1 certificate against the per-generator
check it replaced.

certify_well_defined carries all linear generators of the source to the
target's reduced variables by one matrix product and projects each row
through the reduced degree-1 piece.  Before, each linear generator was a
dict polynomial pushed through the substitution and then through the
target's reduction by in_relations.  per_generator_certify keeps that
code.  Both must return the same (ok, witness) on the forward and inverse
maps of the corpus, the negative corpus and 200 seeded random cones; on
those forward maps with one substitution entry changed or the extra row
corrupted; and on seeded random presentations whose targets include
torsion in degree 1 and no reduced variables at all.
"""

import random
from collections import Counter

import pytest

from corpus import corpus_cones
from test_chow_certificate import clear_package_caches, random_cones
from test_negative_corpus import NEGATIVE
from toricstacks import chow
from toricstacks.chow import ComparisonError, exceptional_stratum
from toricstacks.fan import Cone
from toricstacks.graded import (
    Certification,
    _substitute,
    certify_well_defined,
    graded_piece,
    in_relations,
    make_presentation,
    ring_map,
)


def per_generator_certify(rm) -> Certification:
    """certify_well_defined as written before the matrix product: every
    generator, linear ones as polynomials, through in_relations."""
    n = rm.source.n_vars
    gens = [(1, {tuple(1 if j == i else 0 for j in range(n)): c
                 for i, c in enumerate(row) if c})
            for row in rm.source.linear_gens]
    gens += [(d, dict(items)) for d, items in rm.source.homogeneous_gens]
    for degree, gen in gens:
        if not in_relations(rm.target, degree, _substitute(rm, gen)):
            witness = (degree, tuple(sorted(gen.items(), reverse=True)))
            return Certification(ok=False, witness=witness)
    return Certification(ok=True, witness=None)


def assert_same(rm, tally):
    got = certify_well_defined(rm)
    assert got == per_generator_certify(rm), rm
    tally["ok" if got.ok else "degree %d" % got.witness[0]] += 1
    return got


def comparison_maps(cones, monkeypatch):
    """(map, star index) for every map the Chow comparison certifies: the
    forward map of each cone with its star row, and, when the forward map
    passes, the inverse with None."""
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
            pass
        out += [(rm, None if k else stratum.star_index)
                for k, rm in enumerate(maps)]
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
        reduced = graded_piece(target, 1).reduced
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

"""The Chow comparison's verdict rule and the reduced-coordinate piece reads.

When the stratum's rays match, the matching is a bijection onto the
quotient's rays, so the certified map hits every target generator; the
target ring is generated in degree 1, so the map is onto in every degree.
Finitely generated abelian groups are Hopfian, so exceptional_comparison
decides degree k by equal structure of the source and target pieces, with
no inverse map and no induced matrix.  The oracle for that rule is
is_iso_up_to, which builds the induced map and tests that it generates the
target; the bijection itself is an assert.  The pieces' structures and the
CLI's piece reports are checked against the carry-back of each piece to
the original monomial basis (carry_back.carried_back).
"""

import json
import random
from pathlib import Path

import pytest

from carry_back import carried_back
from corpus import CORPUS_DATA, corpus_cones
from test_negative_corpus import NEGATIVE
from toricstacks import chow, cli, cox as cox_module, fan, graded, \
    intlinalg, ktheory
from toricstacks.chow import (
    ComparisonError,
    chow_ring_stack,
    exceptional_comparison,
    exceptional_stratum,
    verify_vanishing,
)
from toricstacks.fan import Fan, GeometryError, make_cone
from toricstacks.graded import (
    graded_piece,
    induced_map,
    is_iso_up_to,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# The degree-1 failure of tests/test_chow.py: 2-torsion on the subdivided
# side only.
DEGREE_ONE_FAILURE = (2, ((1, 0), (1, 4)))
NEGATIVE_DATA = tuple((rank, rays) for rank, rays, _chow, _k in NEGATIVE) \
    + (DEGREE_ONE_FAILURE,)
N_RANDOM = 200


def random_cones(seed: int, count: int) -> list:
    """Strongly convex full-dimensional cones in ranks 2-3 with rank or
    rank + 1 generators, entries in -3..3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.choice((n, n + 1)))]
        try:
            c = make_cone(n, gens)
        except (GeometryError, ValueError):
            continue
        if c.dim == n:
            out.append(c)
    return out


def random_rank4_cones(seed: int, count: int) -> list:
    """Strongly convex full-dimensional cones in rank 4 with 4-6
    generators, entries in -2..2.  A non-simplicial facet gives a
    non-simplicial subdivision: seeds 5, 7 and 11 at 60 cones each give 1,
    3 and 4 of them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [tuple(rng.randint(-2, 2) for _ in range(4))
                for _ in range(rng.randint(4, 6))]
        try:
            c = make_cone(4, gens)
        except (GeometryError, ValueError):
            continue
        if c.dim == 4:
            out.append(c)
    return out


def clear_package_caches() -> None:
    for mod in (chow, cox_module, fan, graded, intlinalg, ktheory):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_structure_verdicts_equal_per_degree_checks():
    cases = [(c, 4) for c in corpus_cones()]
    cases += [(make_cone(rank, rays), 4) for rank, rays in NEGATIVE_DATA]
    cases += [(c, 3) for c in random_cones(31, N_RANDOM)]
    cases += [(c, 3) for seed in (5, 7, 11)
              for c in random_rank4_cones(seed, 60)]
    seen = {"all true": 0, "some false": 0, "unidentified": 0,
            "non-simplicial": 0}
    for cone, max_deg in cases:
        try:
            comp = exceptional_comparison(exceptional_stratum(cone), max_deg)
        except ComparisonError:
            seen["unidentified"] += 1
            continue
        assert dict(comp.verdicts) == is_iso_up_to(comp.map, max_deg), \
            cone.rays
        seen["all true" if all(dict(comp.verdicts).values())
             else "some false"] += 1
        delta = comp.stratum.subdivision
        seen["non-simplicial"] += any(len(s) != delta.cone(s).dim
                                      for s in delta.maximal_cones)
    # Every corpus cone compares isomorphically in every degree; cones with
    # a false degree, unidentified cones and compared non-simplicial
    # subdivisions (rank 4) are all reached.
    assert seen["all true"] >= len(CORPUS_DATA)
    assert seen["some false"] >= 20 and seen["unidentified"] >= 20
    assert seen["non-simplicial"] > 0, seen


def test_comparison_map_is_onto_in_every_degree():
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    cones += random_cones(31, N_RANDOM)
    checked = 0
    for cone in cones:
        try:
            comp = exceptional_comparison(exceptional_stratum(cone), 3)
        except ComparisonError:
            continue
        for k in range(4):
            target = graded_piece(comp.target, k)
            assert target.generated_by(zip(*induced_map(comp.map, k))), \
                (cone.rays, k)
        checked += 1
    assert checked >= len(CORPUS_DATA) + 20


def test_degree_one_failure_is_a_structure_mismatch():
    comp = exceptional_comparison(
        exceptional_stratum(make_cone(*DEGREE_ONE_FAILURE)), 4)
    assert dict(comp.verdicts)[1] is False
    assert graded_piece(comp.source, 1).structure() \
        != graded_piece(comp.target, 1).structure()


def _not_injective(dst):
    keys = sorted(dst)
    return {**dst, keys[0]: dst[keys[1]]}


def _not_surjective(dst):
    top = max(dst.values())
    return {s: (d + 1 if d == top else d) for s, d in dst.items()}


@pytest.mark.parametrize("corrupt", [_not_injective, _not_surjective])
def test_non_bijective_matching_is_an_internal_error(monkeypatch, capsys,
                                                     corrupt):
    # exceptional_stratum owns the bijection assert: when the ray pairs it
    # reads off the facets' images are corrupted as it builds the quotient,
    # the assert stops it, and both verbs report an internal error.
    real = fan.StarQuotient

    def corrupted(**fields):
        dst = corrupt({s: d for s, d, _mult in fields["pairs"]})
        fields["pairs"] = tuple((s, dst[s], mult)
                                for s, _d, mult in fields["pairs"])
        return real(**fields)

    monkeypatch.setattr(fan, "StarQuotient", corrupted)
    for cone in corpus_cones():
        with pytest.raises(AssertionError):
            exceptional_stratum(cone)
    path = str(FIXTURES / "sigma_square.json")
    for verb in ("verify-vanishing", "verify-k-vanishing"):
        assert cli.run([verb, path]) == 3
        assert "internal error: AssertionError" in capsys.readouterr().err


def test_star_ray_class_outside_the_span_is_an_internal_error(monkeypatch,
                                                               capsys):
    # v is primitive, so its class in X(G) is always an integral
    # combination of the surviving classes: a missing expression is a bug,
    # asserted, never a negative verdict.
    monkeypatch.setattr(intlinalg.AbelianGroup, "express",
                        lambda self, cols, target: None)
    clear_package_caches()
    with pytest.raises(AssertionError, match="outside the span"):
        verify_vanishing(corpus_cones()[0], 2)
    assert cli.run(["verify-vanishing",
                    str(FIXTURES / "sigma_square.json")]) == 3
    assert "internal error: AssertionError" in capsys.readouterr().err


def _rings():
    """Source and target rings of every corpus and negative-corpus cone."""
    out = []
    for rank, rays in CORPUS_DATA + NEGATIVE_DATA:
        st = exceptional_stratum(make_cone(rank, rays))
        out += [chow_ring_stack(st.subdivision),
                chow_ring_stack(st.quotient.fan)]
    return out


def test_reduced_structure_matches_graded_piece():
    torsion_seen = False
    for p in _rings():
        for k in range(5):
            piece = graded_piece(p, k)
            group = carried_back(p, k)
            assert (piece.free_rank, piece.torsion) \
                == (group.free_rank, group.torsion)
            torsion_seen |= bool(group.torsion)
    assert torsion_seen


def test_chow_stack_reads_reduced_pieces(capsys):
    for name in ("sigma_square.json", "strongness_example.json"):
        path = str(FIXTURES / name)
        assert cli.run(["chow-stack", path]) == 0
        text = capsys.readouterr().out
        assert cli.run(["chow-stack", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The carried-back groups give the same pieces, byte for byte.
        data = json.loads((FIXTURES / name).read_text())
        p = chow_ring_stack(Fan.from_data(data["rank"], data["rays"],
                                          data["max_cones"]))
        pieces = [carried_back(p, k) for k in range(5)]
        assert text.endswith("".join("  A^%d = %s\n" % (k, g.describe())
                                     for k, g in enumerate(pieces)))
        assert payload["pieces"] == [
            {"degree": k, "free_rank": g.free_rank,
             "torsion": list(g.torsion), "text": g.describe()}
            for k, g in enumerate(pieces)]


def _count_cox(monkeypatch, *modules) -> list:
    sizes = []
    real = cox_module.cox

    def counting(f):
        sizes.append(len(f.rays))
        return real(f)

    for mod in modules:
        monkeypatch.setattr(mod, "cox", counting)
    return sizes


def test_k_comparison_builds_each_cox_once(monkeypatch):
    # Only the subdivision's CoxData is built: the stratum side reads its
    # ray relations alone.
    sizes = _count_cox(monkeypatch, chow, ktheory)
    rep = ktheory.verify_k_vanishing(corpus_cones()[10], 2)
    assert rep.identified
    assert sizes == [5]


def test_k_verifier_searches_primitive_collections_once(monkeypatch):
    # One cox and one primitive-collection search per cone, the
    # subdivision's: the stratum's collections are its carried across dst.
    # The subdivision's quotient is the only one boxed.
    calls = {"cox": 0, "primitive_collections": 0, "boxed_quotient": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(ktheory, "cox", counting("cox", cox_module.cox))
    monkeypatch.setattr(cox_module, "primitive_collections", counting(
        "primitive_collections", cox_module.primitive_collections))
    monkeypatch.setattr(ktheory, "boxed_quotient", counting(
        "boxed_quotient", ktheory.boxed_quotient))
    identified = 0
    for cone in corpus_cones():
        before = dict(calls)
        try:
            identified += ktheory.verify_k_vanishing(cone, 2).identified
        except ValueError:  # identified, but an exponent leaves the box
            identified += 1
        assert {k: calls[k] - before[k] for k in calls} \
            == {"cox": 1, "primitive_collections": 1, "boxed_quotient": 1}
    assert identified == 20


def test_failed_chow_comparison_builds_each_cox_once(monkeypatch):
    # Only the subdivision's CoxData is built (express needs its X(G)); the
    # stratum's Chow presentation reads the ray relations alone.
    sizes = _count_cox(monkeypatch, chow)
    rep = verify_vanishing(make_cone(3, [(3, 1, -1), (-1, -1, 0),
                                         (-1, -2, 3)]), 3)
    assert rep.failure.startswith("substitution does not map")
    assert sizes == [4]


def test_comparison_failure_builds_no_cox(monkeypatch):
    # When the comparison fails, the report's pieces come from the ray
    # relations alone: the failure path reads no X(G).
    sizes = _count_cox(monkeypatch, chow)
    reason = "substitution does not map relations into relations; injected"

    def failing(stratum, max_deg):
        raise ComparisonError(reason)

    monkeypatch.setattr(chow, "exceptional_comparison", failing)
    cone = corpus_cones()[10]
    rep = verify_vanishing(cone, 4)
    assert sizes == []
    assert rep.failure == reason
    assert not rep.identified
    source = chow_ring_stack(exceptional_stratum(cone).subdivision)
    assert rep.pieces == tuple(
        (k,) + graded_piece(source, k).structure() for k in range(5))

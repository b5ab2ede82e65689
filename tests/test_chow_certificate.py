"""The all-degree Chow certificate and the reduced-coordinate piece reads.

exceptional_comparison proves its verdicts for every degree when the
inverse substitution certifies and the round trip holds, and falls back to
the per-degree is_iso_up_to otherwise.  verify_vanishing reads the graded
pieces' structure and certify_well_defined its relation test from the
reduced cokernel (GradedPiece.reduced), never from the carried-back group.
Each new path is checked here against the path it replaces: is_iso_up_to,
normal_form and GradedPiece.group.
"""

import json
import random
from pathlib import Path

import pytest

from corpus import CORPUS_DATA, corpus_cones
from test_negative_corpus import NEGATIVE
from toricstacks import chow, cli, cox as cox_module, fan, graded, \
    intlinalg, ktheory
from toricstacks.chow import (
    ComparisonError,
    _inverse_certified,
    chow_ring_stack,
    exceptional_comparison,
    exceptional_stratum,
    verify_vanishing,
)
from toricstacks.fan import Fan, GeometryError, make_cone
from toricstacks.graded import (
    graded_piece,
    in_relations,
    is_iso_up_to,
    monomials,
    normal_form,
    ring_map,
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


def certified(comp) -> bool:
    return _inverse_certified(comp.map, comp.stratum.star_index,
                              comp.stratum.dst)


def clear_package_caches() -> None:
    for mod in (chow, cox_module, fan, graded, intlinalg, ktheory):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_certified_verdicts_equal_per_degree_checks():
    cases = [(c, 4) for c in corpus_cones()]
    cases += [(make_cone(rank, rays), 4) for rank, rays in NEGATIVE_DATA]
    cases += [(c, 3) for c in random_cones(31, N_RANDOM)]
    seen = {"certified": 0, "fallback": 0, "unidentified": 0}
    for cone, max_deg in cases:
        try:
            comp = exceptional_comparison(exceptional_stratum(cone), max_deg)
        except ComparisonError:
            seen["unidentified"] += 1
            continue
        per_degree = is_iso_up_to(comp.map, max_deg)
        assert dict(comp.verdicts) == per_degree, cone.rays
        if certified(comp):
            assert all(per_degree.values()), cone.rays
            seen["certified"] += 1
        else:
            # On this seeded set, every cone left to the fallback fails
            # some degree: the certificate misses no isomorphism here.
            assert not all(per_degree.values()), cone.rays
            seen["fallback"] += 1
    # Every corpus cone certifies; the fallback and the unidentified
    # path are both reached.
    assert seen["certified"] >= len(CORPUS_DATA)
    assert seen["fallback"] >= 20 and seen["unidentified"] >= 20


def test_degree_one_failure_falls_back(monkeypatch):
    calls = []

    def spy(rm, max_deg):
        calls.append(max_deg)
        return is_iso_up_to(rm, max_deg)

    monkeypatch.setattr(chow, "is_iso_up_to", spy)
    comp = exceptional_comparison(
        exceptional_stratum(make_cone(*DEGREE_ONE_FAILURE)), 4)
    assert calls == [4]
    assert dict(comp.verdicts)[1] is False
    calls.clear()
    exceptional_comparison(exceptional_stratum(corpus_cones()[10]), 4)
    assert calls == []


def _not_injective(rm, star_index, dst):
    keys = sorted(dst)
    return rm, star_index, {**dst, keys[0]: dst[keys[1]]}


def _not_surjective(rm, star_index, dst):
    top = max(dst.values())
    return rm, star_index, {s: (d + 1 if d == top else d)
                            for s, d in dst.items()}


def _corrupted_extra(rm, star_index, dst):
    sub = list(rm.substitution)
    extra = sub[star_index]
    sub[star_index] = (extra[0] + 1,) + extra[1:]
    return ring_map(rm.source, rm.target, sub), star_index, dst


@pytest.mark.parametrize("corrupt", [_not_injective, _not_surjective,
                                     _corrupted_extra])
def test_injected_failures_take_the_fallback(monkeypatch, corrupt):
    real = chow._inverse_certified
    fallbacks = []

    def spy(rm, max_deg):
        fallbacks.append(max_deg)
        return is_iso_up_to(rm, max_deg)

    monkeypatch.setattr(chow, "is_iso_up_to", spy)
    monkeypatch.setattr(chow, "_inverse_certified",
                        lambda *args: real(*corrupt(*args)))
    for cone in corpus_cones():
        stratum = exceptional_stratum(cone)
        comp = exceptional_comparison(stratum, 2)
        assert real(comp.map, stratum.star_index, stratum.dst)
        assert not real(*corrupt(comp.map, stratum.star_index,
                                 stratum.dst)), cone.rays
        assert comp.verdicts == ((0, True), (1, True), (2, True))
    assert fallbacks == [2] * len(CORPUS_DATA)


def _rings():
    """Source and target rings of every corpus and negative-corpus cone
    whose stratum matches."""
    out = []
    for rank, rays in CORPUS_DATA + NEGATIVE_DATA:
        st = exceptional_stratum(make_cone(rank, rays))
        out.append(chow_ring_stack(st.subdivision))
        if not st.failure:
            out.append(chow_ring_stack(st.quotient.fan))
    return out


def _relation_element(rng, p, k) -> dict:
    """A random integer combination of generator multiples of degree k."""
    n = p.n_vars
    gens = [(1, {tuple(1 if j == i else 0 for j in range(n)): c
                 for i, c in enumerate(row) if c})
            for row in p.linear_gens]
    gens += [(d, dict(items)) for d, items in p.homogeneous_gens]
    out: dict = {}
    for d, gen in gens:
        shifts = monomials(n, k - d)
        for shift in rng.sample(shifts, min(2, len(shifts))):
            c = rng.randint(-3, 3)
            for expt, coeff in gen.items():
                e = tuple(x + y for x, y in zip(expt, shift))
                out[e] = out.get(e, 0) + c * coeff
    return out


def _elements(rng, p, k) -> list:
    basis = monomials(p.n_vars, k)
    relation = _relation_element(rng, p, k)
    perturbed = dict(relation)
    m = rng.choice(basis)
    perturbed[m] = perturbed.get(m, 0) + rng.choice((-1, 1))
    generic = {m: rng.randint(-3, 3) for m in rng.sample(basis,
                                                         min(3, len(basis)))}
    out = [{}, relation, perturbed, generic]
    # Per torsion coordinate: the lift of its unit (not a relation), and
    # d_i times it, a relation whose reduced coordinates are nonzero
    # multiples of d_i before the mod.
    group = graded_piece(p, k).group
    for i, d in enumerate(group.torsion):
        for scale in (1, d):
            lifted = group.lift_coords(tuple(scale if j == i else 0
                                             for j in range(group.coord_rank)))
            out.append({m: c for m, c in zip(basis, lifted) if c})
    return out


def test_reduced_relation_test_matches_normal_form():
    rng = random.Random(47)
    answers = set()
    for p in _rings():
        for k in range(5):
            for element in _elements(rng, p, k):
                expected = not any(normal_form(p, k, element))
                assert in_relations(p, k, element) == expected
                answers.add(expected)
    assert answers == {True, False}


def test_reduced_structure_matches_graded_piece():
    torsion_seen = False
    for p in _rings():
        for k in range(5):
            piece = graded_piece(p, k)
            group = piece.group
            assert (piece.reduced.free_rank, piece.reduced.torsion) \
                == (group.free_rank, group.torsion)
            torsion_seen |= bool(group.torsion)
    assert torsion_seen


def test_in_relations_checks_degree():
    p = chow_ring_stack(exceptional_stratum(corpus_cones()[10]).subdivision)
    with pytest.raises(ValueError):
        in_relations(p, 2, {(1, 0, 0, 0, 0): 1})


def _count_sym_power(monkeypatch) -> list:
    built = []
    real = graded._sym_power

    def counting(rm, k):
        built.append(k)
        return real(rm, k)

    monkeypatch.setattr(graded, "_sym_power", counting)
    return built


def test_certified_verification_carries_no_piece_back(monkeypatch):
    built = _count_sym_power(monkeypatch)
    clear_package_caches()
    rep = verify_vanishing(corpus_cones()[18], 4)
    assert rep.conclusion
    assert graded_piece.cache_info().misses > 0
    assert built == []


def test_chow_stack_reads_reduced_pieces(monkeypatch, capsys):
    built = _count_sym_power(monkeypatch)
    for name in ("sigma_square.json", "strongness_example.json"):
        path = str(FIXTURES / name)
        clear_package_caches()
        assert cli.run(["chow-stack", path]) == 0
        text = capsys.readouterr().out
        assert cli.run(["chow-stack", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert built == []
        # The carried-back groups give the same pieces, byte for byte.
        data = json.loads((FIXTURES / name).read_text())
        p = chow_ring_stack(Fan.from_data(data["rank"], data["rays"],
                                          data["max_cones"]))
        pieces = [graded_piece(p, k).group for k in range(5)]
        assert text.endswith("".join("  A^%d = %s\n" % (k, g.describe())
                                     for k, g in enumerate(pieces)))
        assert payload["pieces"] == [
            {"degree": k, "free_rank": g.free_rank,
             "torsion": list(g.torsion), "text": g.describe()}
            for k, g in enumerate(pieces)]
        built.clear()


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
    sizes = _count_cox(monkeypatch, chow, ktheory)
    rep = ktheory.verify_k_vanishing(corpus_cones()[10], 2)
    assert rep.identified
    assert sorted(sizes) == [4, 5]


def test_failed_chow_comparison_builds_each_cox_once(monkeypatch):
    sizes = _count_cox(monkeypatch, chow)
    rep = verify_vanishing(make_cone(3, [(3, 1, -1), (-1, -1, 0),
                                         (-1, -2, 3)]), 3)
    assert rep.failure.startswith("substitution does not map")
    assert sizes == [4, 3]

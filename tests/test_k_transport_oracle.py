"""The K comparison against the transport it replaced.

ktheory.k_exceptional_comparison identifies the stratum's character group
with the subdivision's and boxes the subdivision's quotient alone: the
stratum's primitive collections are the subdivision's carried across dst,
so the transported stratum generators are the subdivision's own.  The
oracle below is the earlier construction, kept test-local: the stratum's
full Cox data (cox(L), with its own primitive-collection search), the
identification images combined coordinate by coordinate (combine), and
each stratum generator lifted and carried into the subdivision's X(G)
(transported_presentation).  On 459 cones it must give the same verdict
and failure text, generators equal to the source's as a multiset, and on
the corpus the same boxed window.
"""

import pytest

from corpus import corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones, \
    random_rank4_cones
from toricstacks import ktheory
from toricstacks.cox import cox
from toricstacks.fan import ComparisonError, exceptional_stratum, make_cone
from toricstacks.intlinalg import transpose
from toricstacks.ktheory import GroupAlgebraPresentation, boxed_quotient, \
    k_ring_stack


def oracle_cones() -> list:
    return corpus_cones() \
        + [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA] \
        + random_cones(11, 200) + random_cones(23, 200) \
        + random_rank4_cones(5, 30)


def combine(group, images, amb):
    """The group element sum(amb[j] * images[j])."""
    return group.reduce(tuple(sum(a * w[t] for a, w in zip(amb, images))
                              for t in range(group.coord_rank)))


def transported_presentation(stratum):
    """(p_src, the stratum's presentation carried into p_src's X(G)), or
    ComparisonError with the earlier identification's reason."""
    quotient = stratum.quotient.fan
    src_of = {d: s for s, d in stratum.dst.items()}
    p_src = k_ring_stack(stratum.subdivision)
    cd_tgt = cox(quotient)
    p_tgt = k_ring_stack(quotient)
    src_group, tgt_group = p_src.group, p_tgt.group
    images = tuple(p_src.generator_images[src_of[j]]
                   for j in range(len(quotient.rays)))
    if any(any(combine(src_group, images, row)) for row in cd_tgt.kernel):
        raise ComparisonError(
            "the stratum's exponent lattice does not map to zero; the "
            "character groups are not identified over Z")
    if src_group.structure() != tgt_group.structure():
        raise ComparisonError("character groups differ: %s vs %s"
                              % (src_group.describe(), tgt_group.describe()))
    if not src_group.generated_by(images):
        raise ComparisonError("stratum ray classes do not generate the "
                              "character group")
    gens, columns = [], transpose(tgt_group.projection)
    for gen in p_tgt.ideal_gens:
        term: dict = {}
        for coords, coeff in gen:
            c = combine(src_group, images,
                        tgt_group.express(columns, coords))
            term[c] = term.get(c, 0) + coeff
        gens.append(tuple(sorted((c, v) for c, v in term.items() if v)))
    return p_src, GroupAlgebraPresentation(group=src_group,
                                           generator_images=images,
                                           ideal_gens=tuple(gens))


class Boxed(Exception):
    """boxed_quotient was reached: the identification held."""


def new_identification(stratum, monkeypatch):
    """The presentation k_exceptional_comparison boxes, or the text of the
    ComparisonError it raises before boxing."""
    def stop(p, radius):
        raise Boxed(p)

    with monkeypatch.context() as m:
        m.setattr(ktheory, "boxed_quotient", stop)
        try:
            ktheory.k_exceptional_comparison(stratum, 2)
        except Boxed as reached:
            return reached.args[0]
        except ComparisonError as exc:
            return str(exc)
    raise AssertionError("the comparison returned without boxing")


def test_identification_and_generators_match_oracle(monkeypatch):
    cones = oracle_cones()
    assert len(cones) == 459
    reasons = {}
    for cone in cones:
        stratum = exceptional_stratum(cone)
        new = new_identification(stratum, monkeypatch)
        try:
            p_src, p_tgt = transported_presentation(stratum)
        except ComparisonError as exc:
            assert new == str(exc)
            reason = str(exc).partition(":")[0].partition(";")[0]
            reasons[reason] = reasons.get(reason, 0) + 1
            continue
        assert new == p_src
        assert sorted(p_tgt.ideal_gens) == sorted(p_src.ideal_gens)
        reasons["identified"] = reasons.get("identified", 0) + 1
    assert reasons == {
        "identified": 263,
        "the stratum's exponent lattice does not map to zero": 196}


def test_corpus_windows_match_oracle():
    compared = too_small = 0
    for cone in corpus_cones():
        try:
            p_src, p_tgt = transported_presentation(exceptional_stratum(cone))
        except ComparisonError:
            continue
        try:
            src = boxed_quotient(p_src, 2)
        except ValueError as exc:
            with pytest.raises(ValueError) as tgt_exc:
                boxed_quotient(p_tgt, 2)
            assert str(tgt_exc.value) == str(exc)
            too_small += 1
            continue
        tgt = boxed_quotient(p_tgt, 2)
        assert tgt.window_lattice == src.window_lattice
        assert tgt.stabilized == src.stabilized
        compared += 1
    # 13 identified corpus cones box at radius 2; on 7 more a generator
    # exponent leaves the box, and both presentations say so.
    assert (compared, too_small) == (13, 7)

from pathlib import Path

import pytest

from toricstacks import chow, cli, ktheory
from toricstacks.chow import (
    ComparisonError,
    ExceptionalStratum,
    exceptional_stratum,
)
from toricstacks.fan import Fan, chow_groups, make_cone, star_subdivision
from toricstacks.intlinalg import cokernel, hnf, identity, solve_in_span, \
    transpose
from test_k_transport_oracle import transported_presentation
from toricstacks.ktheory import (
    GroupAlgebraPresentation,
    boxed_quotient,
    k_exceptional_comparison,
    k_ring_stack,
    verify_k_vanishing,
    window_lattice,
)

SQUARE = str(Path(__file__).resolve().parent.parent / "fixtures"
             / "sigma_square.json")
SQUARE_RAYS = [(1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1)]


def square_cone():
    return make_cone(3, SQUARE_RAYS)


def square_subdivision():
    f = Fan(3, [square_cone()])
    return star_subdivision(f, f.cone({0, 1, 2, 3}))


def p1_fan():
    return Fan.from_data(1, [[1], [-1]], [[0], [1]])


def p1xp1_fan():
    return Fan.from_data(2, [[1, 0], [-1, 0], [0, 1], [0, -1]],
                         [[0, 2], [2, 1], [1, 3], [3, 0]])


def z_presentation(gens=()):
    group = cokernel(((0,),))
    return GroupAlgebraPresentation(group=group, generator_images=((1,),),
                                    ideal_gens=gens)


def test_k_ring_square_subdivision():
    p = k_ring_stack(square_subdivision())
    assert p.group.structure() == (2, ())
    assert p.generator_images == ((1, 0), (0, 1), (1, 0), (0, 1), (-2, -2))
    # one generator per primitive collection, 1 - e^{-(sum of weights)}
    assert p.ideal_gens == (
        (((-2, 0), -1), ((0, 0), 1)),
        (((0, -2), -1), ((0, 0), 1)),
    )


def test_k_ring_single_cone_and_basis():
    p = k_ring_stack(Fan(3, [square_cone()]))
    assert p.ideal_gens == ()
    assert p.group.structure() == (1, (2,))

    q = k_ring_stack(Fan.from_data(2, [[1, 0], [0, 1]], [[0, 1]]))
    assert q.group.is_trivial
    assert q.ideal_gens == ()
    assert q.generator_images == ((), ())


def test_k_ring_p1():
    p = k_ring_stack(p1_fan())
    assert p.group.structure() == (1, ())
    assert p.ideal_gens == ((((-2,), -1), ((0,), 1)),)


def test_boxed_square_subdivision():
    p = k_ring_stack(square_subdivision())
    bq = boxed_quotient(p, 3)
    assert bq.window_radius == 2
    assert bq.window_group.structure() == (4, ())
    assert bq.group.structure() == (4, ())
    assert bq.stabilized

    # 1, e1, e2, e1e2 represent a basis of the window quotient
    idx = {m: i for i, m in enumerate(bq.window_monomials)}
    cols = []
    for m in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        e = [0] * len(bq.window_monomials)
        e[idx[m]] = 1
        cols.append(bq.window_group.project(tuple(e)))
    h, _ = hnf(tuple(zip(*cols)))
    assert [h[i][i] for i in range(4)] == [1, 1, 1, 1]


def test_boxed_relation_membership():
    p = k_ring_stack(square_subdivision())
    for radius in (2, 3):
        bq = boxed_quotient(p, radius)
        assert bq.contains({(2, 0): 1, (0, 0): -1})
        assert bq.contains({(0, 2): 1, (0, 0): -1})
        assert not bq.contains({(1, 0): 1, (0, 0): -1})
        assert bq.contains({})


def test_boxed_no_relations_does_not_stabilize():
    p = z_presentation()
    bq = boxed_quotient(p, 2)
    assert bq.group.structure() == (5, ())
    assert bq.window_group.structure() == (3, ())
    assert not bq.stabilized
    assert bq.window_lattice == ()
    bq3 = boxed_quotient(p, 3)
    assert bq3.group.structure() == (7, ())
    assert bq3.window_group.structure() == (5, ())


def test_boxed_trivial_group():
    group = cokernel(identity(2))
    p = GroupAlgebraPresentation(group=group, generator_images=((), ()),
                                 ideal_gens=())
    bq = boxed_quotient(p, 2)
    assert bq.group.structure() == (1, ())
    assert bq.window_group.structure() == (1, ())
    assert bq.stabilized


def test_boxed_box_too_small():
    p = k_ring_stack(square_subdivision())
    with pytest.raises(ValueError):
        boxed_quotient(p, 1)
    with pytest.raises(ValueError):
        boxed_quotient(p, 0)
    bq = boxed_quotient(p, 2)
    with pytest.raises(ValueError):
        bq.contains({(3, 0): 1})


def test_window_lattice_grows_compatibly():
    # the lattice certified at radius B embeds in the one certified at B+1,
    # restricted to the shared window
    for p in (k_ring_stack(square_subdivision()),
              k_ring_stack(p1xp1_fan()),
              z_presentation(gens=((((-2,), -1), ((0,), 1)),))):
        for radius in (2, 3):
            w_small, rows_small = window_lattice(p, radius, radius - 1)
            w_big, rows_big = window_lattice(p, radius + 1, radius - 1)
            assert w_small == w_big
            matrix = transpose(rows_big) if rows_big else \
                tuple(() for _ in w_small)
            for row in rows_small:
                assert solve_in_span(matrix, row) is not None


def test_comparison_square():
    stratum = exceptional_stratum(square_cone())
    comp = k_exceptional_comparison(stratum, 3)
    assert comp.window_rank == 4
    assert comp.torsion == ()
    assert comp.stabilized
    # only the subdivision's quotient is boxed: for a good cone the
    # transported stratum generators coincide with the subdivided fan's
    # generators on the nose (the transport is the test-local oracle)
    assert comp.boxed_source.presentation is comp.source
    assert comp.source == k_ring_stack(square_subdivision())
    assert transported_presentation(stratum)[1].ideal_gens \
        == comp.source.ideal_gens


def test_comparison_blowup_and_ray():
    stratum = exceptional_stratum(make_cone(2, [[1, 0], [0, 1]]))
    comp = k_exceptional_comparison(stratum, 3)
    assert comp.window_rank == 2
    assert comp.torsion == ()
    assert comp.stabilized
    target = boxed_quotient(transported_presentation(stratum)[1], 3)
    assert target.window_group.structure() == (2, ())
    assert target.window_lattice == comp.boxed_source.window_lattice

    ray = k_exceptional_comparison(exceptional_stratum(make_cone(1, [[1]])),
                                   3)
    assert ray.window_rank == 1
    assert ray.stabilized


def test_comparison_bad_cone_not_identified():
    bad = make_cone(2, [[1, 0], [1, 4]])
    with pytest.raises(ComparisonError):
        k_exceptional_comparison(exceptional_stratum(bad), 3)
    report = verify_k_vanishing(bad, 3)
    assert not report.identified
    assert report.failure is not None
    assert not report.conclusion
    assert report.window_rank is None


def test_verify_k_vanishing_examples():
    report = verify_k_vanishing(square_cone(), 3)
    assert report.conclusion
    assert report.identified
    assert report.window_rank == 4
    assert report.torsion == ()
    assert report.stabilized
    assert report.matched
    assert report.star_ray == (0, 0, 1)
    assert report.box_radius == 3

    assert verify_k_vanishing(make_cone(2, [[1, 0], [1, 2]]), 3).conclusion
    assert verify_k_vanishing(make_cone(2, [[1, 0], [0, 1]]), 3).conclusion
    assert verify_k_vanishing(make_cone(1, [[1]]), 3).conclusion


def test_k_rank_matches_chow_rank():
    # Chern-character sanity at desk scale: smooth complete comparisons
    for f in (p1_fan(), p1xp1_fan()):
        k_rank = boxed_quotient(k_ring_stack(f), 3).window_group.free_rank
        chow_total = sum(chow_groups(f, k).free_rank
                         for k in range(f.ambient_rank + 1))
        assert k_rank == chow_total


def test_k_rank_cross_check_for_verified_cone():
    # the (1,0),(1,2) verification agrees with the Chow side by rank
    from toricstacks.chow import verify_vanishing
    sigma = make_cone(2, [[1, 0], [1, 2]])
    k_report = verify_k_vanishing(sigma, 3)
    chow_report = verify_vanishing(sigma, 4)
    assert k_report.conclusion and chow_report.conclusion
    chow_total = sum(rank for _deg, rank, _tor in chow_report.pieces)
    assert k_report.window_rank == chow_total


def test_full_dimensional_required():
    flat = make_cone(2, [[1, 0]])
    with pytest.raises(ValueError):
        exceptional_stratum(flat)
    with pytest.raises(ValueError):
        verify_k_vanishing(flat, 3)


def test_comparison_failure_is_reported_by_both_verifiers(monkeypatch):
    stratum = exceptional_stratum(square_cone())
    assert "failure" not in ExceptionalStratum._fields
    assert stratum.star_ray == (0, 0, 1)
    assert stratum.surviving == tuple(i for i in range(5)
                                      if i != stratum.star_index)
    assert sorted(stratum.dst) == list(stratum.surviving)
    assert sorted(stratum.dst.values()) == list(range(4))
    # The matching cannot fail, so inject a failed comparison: both
    # verifiers must report its reason verbatim as an unidentified cone.
    reason = "character groups differ: injected"

    def failing(stratum, arg):
        raise ComparisonError(reason)

    monkeypatch.setattr(chow, "exceptional_comparison", failing)
    monkeypatch.setattr(ktheory, "k_exceptional_comparison", failing)
    for report in (chow.verify_vanishing(square_cone(), 4),
                   verify_k_vanishing(square_cone(), 3)):
        assert report.failure == reason
        assert not report.identified and not report.conclusion


def test_unreached_identification_reasons_are_reported(monkeypatch):
    # The character-group checks never fail on the oracle cones, so inject
    # each failure: verify_k_vanishing must report the reason verbatim as
    # an unidentified cone.
    with monkeypatch.context() as m:
        # An empty stratum kernel: it maps to zero, but X(G) of the stratum
        # becomes Z^4 against the subdivision's Z^2.
        m.setattr(ktheory, "ray_relations", lambda f: ())
        report = verify_k_vanishing(square_cone(), 3)
    assert report.failure == \
        "character groups differ: Z + Z vs Z + Z + Z + Z"
    assert not report.identified and not report.conclusion
    assert report.matched is None and report.window_rank is None


def test_ungenerated_character_group_is_an_internal_error(monkeypatch,
                                                          capsys):
    # v is primitive, so the surviving ray classes always generate X(G):
    # classes that do not are a bug, asserted, never a negative verdict.
    real = ktheory.k_ring_stack

    def zero_images(f):
        # X(G) unchanged, every ray class 0: nothing generates Z^2.
        p = real(f)
        return p._replace(generator_images=tuple(
            (0,) * p.group.coord_rank for _ in p.generator_images))

    monkeypatch.setattr(ktheory, "k_ring_stack", zero_images)
    with pytest.raises(AssertionError, match="do not generate"):
        verify_k_vanishing(square_cone(), 3)
    assert cli.run(["verify-k-vanishing", SQUARE]) == 3
    assert "internal error: AssertionError" in capsys.readouterr().err


def test_unstabilized_window_leaves_matched_unsettled(monkeypatch):
    # No identified cone of the oracle set fails to stabilize, so inject a
    # window that does not: matched is proved only on a stabilized window.
    real = ktheory.boxed_quotient

    def unstabilized(p, radius):
        bq = real(p, radius)
        bq.stabilized = False
        return bq

    assert verify_k_vanishing(square_cone(), 3).matched is True
    monkeypatch.setattr(ktheory, "boxed_quotient", unstabilized)
    report = verify_k_vanishing(square_cone(), 3)
    assert report.identified and report.window_rank == 4
    assert report.matched is None and not report.stabilized
    assert not report.conclusion

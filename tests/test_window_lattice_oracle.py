"""window_lattice against the kernel-transform construction it replaced.

ktheory.window_lattice reads the boxed relation lattice's intersection with
the window off one HNF whose columns put the outside-window coordinates
first.  The oracle below is the earlier construction, kept test-local: the
integer kernel of the outside rows (kernel_basis, which tracks a full
transform), the window rows applied to it (matmul), and an HNF of the
result.  Both must return the same (window, rows), order included.
"""

import json
from pathlib import Path

from test_chow_certificate import random_cones
from test_k_transport_oracle import transported_presentation
from corpus import corpus_cones
from toricstacks import ktheory
from toricstacks.chow import ComparisonError, exceptional_stratum
from toricstacks.fan import Fan
from toricstacks.intlinalg import (
    cokernel,
    hnf_form,
    identity,
    kernel_basis,
    matmul,
    transpose,
)
from toricstacks.ktheory import (
    GroupAlgebraPresentation,
    _box_monomials,
    _in_box,
    _relation_columns,
    k_exceptional_comparison,
    k_ring_stack,
    window_lattice,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def old_window_lattice(p, box_radius, window_radius):
    group = p.group
    box = _box_monomials(group, box_radius)
    columns = _relation_columns(p, box_radius, box)
    window = tuple(m for m in box if _in_box(group, m, window_radius))
    if not columns:
        return window, ()
    window_pos = [i for i, m in enumerate(box)
                  if _in_box(group, m, window_radius)]
    outside_pos = [i for i, m in enumerate(box)
                   if not _in_box(group, m, window_radius)]
    matrix_rows = tuple(zip(*columns))
    if outside_pos:
        outside = tuple(matrix_rows[i] for i in outside_pos)
        combos = kernel_basis(outside)
    else:
        combos = identity(len(columns))
    inside = tuple(matrix_rows[i] for i in window_pos)
    lattice_cols = matmul(inside, combos) if combos and combos[0] else \
        tuple(() for _ in window_pos)
    rows = [r for r in hnf_form(transpose(lattice_cols)) if any(r)] \
        if lattice_cols and len(lattice_cols[0]) else []
    return window, tuple(rows)


def old_full_group(p, box_radius):
    box = _box_monomials(p.group, box_radius)
    columns = _relation_columns(p, box_radius, box)
    return cokernel(tuple(zip(*columns)) if columns
                    else tuple(() for _ in box))


def fixture_cones(name):
    data = json.loads((FIXTURES / name).read_text())
    f = Fan.from_data(data["rank"], data["rays"], data["max_cones"])
    return [f.cone(s) for s in f.maximal_cones]


def recorded_comparison(cone, box_radius, monkeypatch):
    """Run k_exceptional_comparison(stratum, box_radius) and return the
    presentations it boxes and the BoxedQuotients built from them: the
    subdivision's presentation, which it hands to boxed_quotient, then,
    once the comparison succeeds, the stratum's presentation transported
    by the test-local oracle (test_k_transport_oracle), boxed here.  A
    failed comparison stops the lists where it stopped."""
    stratum = exceptional_stratum(cone)
    presentations, boxes = [], []
    real = ktheory.boxed_quotient

    def recording(p, radius):
        presentations.append(p)
        boxes.append(real(p, radius))
        return boxes[-1]

    with monkeypatch.context() as m:
        m.setattr(ktheory, "boxed_quotient", recording)
        try:
            comp = k_exceptional_comparison(stratum, box_radius)
        except (ComparisonError, ValueError):
            comp = None
    if comp is not None:
        recording(transported_presentation(stratum)[1], box_radius)
    return comp, presentations or [k_ring_stack(stratum.subdivision)], boxes


def z_presentation(gens=()):
    return GroupAlgebraPresentation(group=cokernel(((0,),)),
                                    generator_images=((1,),),
                                    ideal_gens=gens)


def finite_presentation():
    # X(G) = Z/3 with the generator 1 - e^{-1}: every coordinate is torsion,
    # so no box coordinate lies outside any window.
    return GroupAlgebraPresentation(group=cokernel(((3,),)),
                                    generator_images=((1,),),
                                    ideal_gens=((((0,), 1), ((2,), -1)),))


def assert_oracle(cases):
    """Compare both constructions on every (presentation, box, window);
    return which edge cases were reached."""
    reached = {"no columns": False, "no outside": False,
               "window = box": False, "compared": 0}
    for p, boxes in cases:
        for b in boxes:
            try:
                columns = _relation_columns(p, b, _box_monomials(p.group, b))
            except ValueError as exc:
                try:
                    window_lattice(p, b, 0)
                except ValueError as new_exc:
                    assert str(new_exc) == str(exc)
                else:
                    raise AssertionError("window_lattice accepted box %d" % b)
                continue
            for w in range(b + 1):
                assert window_lattice(p, b, w) == old_window_lattice(p, b, w)
                reached["compared"] += 1
                box = _box_monomials(p.group, b)
                reached["no columns"] |= not columns
                reached["no outside"] |= bool(columns) and all(
                    _in_box(p.group, m, w) for m in box)
                reached["window = box"] |= bool(columns) and w == b
    return reached


def test_fixture_presentations_match_oracle(monkeypatch):
    cases = []
    for name in ("sigma_square.json", "strongness_example.json"):
        for cone in fixture_cones(name):
            for p in recorded_comparison(cone, 3, monkeypatch)[1]:
                cases.append((p, (1, 2, 3)))
    assert len(cases) == 2 + 2 * 2 + 2
    reached = assert_oracle(cases)
    assert reached["window = box"]
    assert reached["compared"] > 0


def test_corpus_presentations_match_oracle(monkeypatch):
    cones = corpus_cones()
    cases = []
    for i in (10, 14, 15):
        presentations = recorded_comparison(cones[i], 2, monkeypatch)[1]
        assert len(presentations) == 2
        for p in presentations:
            assert p.group.free_rank == 2
            cases.append((p, (1, 2, 3)))
    assert_oracle(cases)


def test_random_presentations_match_oracle(monkeypatch):
    # Rank-3 subdivisions carry generator exponents of 3, which no box of
    # radius 1 or 2 holds, so each presentation is also compared at the
    # smallest box that holds its generators, up to radius 3.
    by_rank = {2: [], 3: []}
    for cone in random_cones(5, 30):
        for p in recorded_comparison(cone, 2, monkeypatch)[1]:
            nt = len(p.group.torsion)
            reach = max((abs(x) for gen in p.ideal_gens
                         for coords, _ in gen for x in coords[nt:]),
                        default=0)
            boxes = (1, 2, reach) if reach == 3 else (1, 2)
            by_rank[cone.ambient_rank].append((p, boxes))
    for cases in by_rank.values():
        assert assert_oracle(cases)["compared"] >= 30


def test_edge_cases_match_oracle():
    trivial = GroupAlgebraPresentation(group=cokernel(identity(2)),
                                       generator_images=((), ()),
                                       ideal_gens=())
    p1 = z_presentation(gens=((((-2,), -1), ((0,), 1)),))
    reached = assert_oracle([(z_presentation(), (1, 2, 3)),
                             (trivial, (1, 2)),
                             (finite_presentation(), (1, 2)),
                             (p1, (1, 2, 3))])
    assert reached["no columns"]
    assert reached["no outside"]
    assert reached["window = box"]


def test_comparison_leaves_full_box_groups_unread(monkeypatch):
    for name, structure in (("sigma_square.json", (4, ())),
                            ("strongness_example.json", (9, ()))):
        comp, presentations, boxes = recorded_comparison(
            fixture_cones(name)[0], 3, monkeypatch)
        assert boxes[0] is comp.boxed_source
        assert len(boxes) == 2
        for p, bq in zip(presentations, boxes):
            assert "group" not in vars(bq)
            assert bq.group == old_full_group(p, 3)
            assert bq.group.structure() == structure

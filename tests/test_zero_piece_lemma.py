"""verify_vanishing and chow-stack stop computing pieces at the first zero
degree.

The Chow presentation has one degree-1 variable per ray, so its ring is
generated in degree 1 and A^K = 0 forces A^k = A^1 * A^(k-1) = 0 for every
k >= K.  verify_vanishing records the pieces after the first zero piece of
degree >= 1 as 0 without computing them, and so does the chow-stack verb
(both list pieces through chow.piece_structures).  The oracle here
computes every degree with graded_piece and must agree, on the corpus, the
negative corpus, seeded random cones and the CLI fixtures.
"""

import json
from pathlib import Path

from corpus import CORPUS_DATA, corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones
from toricstacks import cli
from toricstacks.chow import (
    chow_ring_stack,
    exceptional_stratum,
    verify_vanishing,
)
from toricstacks.fan import Fan, make_cone
from toricstacks.graded import graded_piece

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# First degree >= 1 whose piece is 0, per corpus cone (CORPUS_DATA order):
# the cone's rank every time.
FIRST_ZERO_DEGREE = (2, 2, 2, 2, 2, 2, 2, 2, 2,
                     3, 3, 3, 3, 3, 3, 3,
                     4, 4, 4, 4)


def every_piece(cone, max_deg: int) -> tuple:
    source = chow_ring_stack(exceptional_stratum(cone).subdivision)
    pieces = []
    for k in range(max_deg + 1):
        group = graded_piece(source, k)
        pieces.append((k, group.free_rank, group.torsion))
    return tuple(pieces)


def first_zero_degree(pieces) -> int | None:
    return next((k for k, free, torsion in pieces
                 if k >= 1 and (free, torsion) == (0, ())), None)


def test_pieces_equal_every_degree_computed():
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    cones += random_cones(47, 200)
    shortcut = 0
    for cone in cones:
        max_deg = cone.ambient_rank + 2
        pieces = verify_vanishing(cone, max_deg).pieces
        assert pieces == every_piece(cone, max_deg), cone.rays
        zero = first_zero_degree(pieces)
        if zero is not None and zero < max_deg:
            shortcut += 1
    # The shortcut is taken, so the comparison is not vacuous.
    assert shortcut >= len(corpus_cones())


def test_corpus_first_zero_degree():
    assert len(FIRST_ZERO_DEGREE) == len(CORPUS_DATA)
    for (rank, _rays), cone, zero in zip(CORPUS_DATA, corpus_cones(),
                                         FIRST_ZERO_DEGREE):
        pieces = verify_vanishing(cone, rank + 2).pieces
        assert first_zero_degree(pieces) == zero, cone.rays
        # Free and torsion-free below it, zero from it on.
        assert all(free and not torsion
                   for k, free, torsion in pieces if k < zero)
        assert all((free, torsion) == (0, ())
                   for k, free, torsion in pieces if k >= zero)


def test_chow_stack_pieces_equal_every_degree_computed(capsys, tmp_path):
    # Neither fixture has a zero piece up to degree 6, so the subdivided
    # fan of a corpus cone (zero from degree 2 on) is run as well.
    subdivided = tmp_path / "subdivided.json"
    data = exceptional_stratum(corpus_cones()[0]).subdivision.to_data()
    subdivided.write_text(json.dumps(data))
    paths = [FIXTURES / "sigma_square.json",
             FIXTURES / "strongness_example.json", subdivided]
    zeros = []
    for path in paths:
        assert cli.run(["chow-stack", str(path), "--max-deg", "6",
                        "--json"]) == 0
        pieces = tuple((pc["degree"], pc["free_rank"], tuple(pc["torsion"]))
                       for pc in json.loads(capsys.readouterr().out)["pieces"])
        data = json.loads(path.read_text())
        f = Fan.from_data(data["rank"], data["rays"], data["max_cones"])
        source = chow_ring_stack(f)
        assert pieces == tuple((k,) + graded_piece(source, k).structure()
                               for k in range(7)), path.name
        zeros.append(first_zero_degree(pieces))
    assert zeros == [None, None, 2]

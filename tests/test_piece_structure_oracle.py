"""Checks the structure and membership reads of the Chow verdict against
the full cokernel.

The verdict reads each graded piece's structure off the canonical Hermite
rows of its relation lattice (intlinalg.lattice_structure, through
graded.piece_structure), and certifies each homogeneous generator by
membership in the same rows (intlinalg.lattice_coefficients), with no
projection, lift or Smith transform.  The oracles:
- lattice_structure equals cokernel(m).structure() and sympy's Smith form
  (test-only) on seeded matrices: torsion, no columns, no rows, zero rows,
  rank deficiency, repeated columns, and free quotients whose Hermite
  pivots are not all 1, such as the lattice spanned by (2, 1);
- lattice_coefficients finds coefficients exactly when
  `not any(cokernel(m).project(v))`, on seeded vectors inside and outside
  each lattice, including vectors that fail only by divisibility (a
  multiple of them lies in the lattice);
- chow.piece_structures equals graded_piece(p, k).structure() in degrees
  0..5 for every corpus and negative-corpus source and target ring;
- a Smith diagonal shorter than the Hermite rank is an internal error.
A guard checks that the verdicts build no graded_piece group beyond the
target's degree-1 piece, which the linear leg of the certificate reads.
"""

import random
from math import gcd

import pytest

from corpus import CORPUS_DATA
from test_chow_certificate import NEGATIVE_DATA, clear_package_caches
from toricstacks import chow, graded, intlinalg
from toricstacks.chow import (
    ComparisonError,
    chow_ring_stack,
    exceptional_comparison,
    exceptional_stratum,
    piece_structures,
    verify_vanishing,
)
from toricstacks.fan import make_cone
from toricstacks.graded import graded_piece, piece_structure
from toricstacks.intlinalg import (
    cokernel,
    hnf_form,
    lattice_coefficients,
    lattice_structure,
    matvec,
    transpose,
)

N_MATRICES = 300

# Free quotients whose Hermite rows have a pivot above 1, lattices whose
# quotient has torsion, and the degenerate shapes.
FIXED = [
    ((2,), (1,)),                      # (2, 1): Z^2 / <(2, 1)> = Z
    ((2, 3), (1, 1)),                  # a basis: the quotient is 0
    ((3, 0), (2, 1), (0, 5)),          # (3, 2, 0), (0, 1, 5)
    ((2,), (0,)),                      # Z/2 + Z
    ((2, 0), (0, 4)),                  # Z/2 + Z/4
    ((2, 2), (4, 4)),                  # repeated columns
    ((), (), ()),                      # no columns: Z^3
    (),                                # no rows: 0
    ((0, 0), (0, 0)),                  # the zero lattice: Z^2
    ((0, 0, 0), (6, 4, 2), (3, 5, 1)),  # a zero row
]


def canon(m) -> tuple:
    """The canonical Hermite rows of the column lattice of m."""
    return tuple(row for row in hnf_form(transpose(m)) if any(row))


def structure(m) -> tuple:
    return lattice_structure(len(m), canon(m))


def random_matrix(rng: random.Random, kind: int) -> tuple:
    nr, nc = rng.randint(1, 6), rng.randint(0, 6)
    if kind == 0:  # torsion: columns scaled by small factors
        cols = [[rng.choice((1, 2, 3, 4, 6)) * rng.randint(-2, 2)
                 for _ in range(nr)] for _ in range(nc)]
    elif kind == 1 and nc >= 2:  # rank deficiency: a combination column
        cols = [[rng.randint(-3, 3) for _ in range(nr)]
                for _ in range(nc - 1)]
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        cols.append([a * x + b * y for x, y in zip(cols[0], cols[-1])])
    elif kind == 2 and nc >= 1:  # repeated columns
        cols = [[rng.randint(-3, 3) for _ in range(nr)]
                for _ in range(nc - 1)]
        cols.append(list(rng.choice(cols)) if cols else [0] * nr)
    elif kind == 3:  # one primitive column with a large first entry
        first = rng.randint(2, 7)
        col = [first] + [rng.randint(-3, 3) for _ in range(nr)]
        col[-1] = 1  # primitive: the quotient is free
        nr += 1
        cols = [col]
    else:
        cols = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
                 for _ in range(nr)] for _ in range(nc)]
        if cols and rng.random() < 0.3:  # a zero row
            z = rng.randrange(nr)
            for col in cols:
                col[z] = 0
    return tuple(zip(*cols)) if cols else ((),) * nr


def matrices() -> list:
    rng = random.Random(20261020)
    return FIXED + [random_matrix(rng, i % 5) for i in range(N_MATRICES)]


def test_mix_covers_the_branches():
    ms = matrices()
    unit = [all(next(filter(None, row)) == 1 for row in canon(m))
            for m in ms]
    torsion = [bool(cokernel(m).torsion) for m in ms]
    assert sum(unit) >= 50 and sum(torsion) >= 50
    # Smith branch, free quotient: a pivot above 1, no torsion.
    assert sum(1 for u, t in zip(unit, torsion) if not u and not t) >= 20
    assert structure(((2,), (1,))) == (1, ())


def test_structure_equals_cokernel():
    intlinalg.lattice_structure.cache_clear()
    for m in matrices():
        assert structure(m) == cokernel(m).structure(), m
        # A second read is a memo hit with the same answer.
        assert structure(m) == cokernel(m).structure(), m


def test_structure_equals_sympy():
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    for m in matrices():
        nr = len(m)
        nc = len(m[0]) if m else 0
        if not (nr and nc):
            assert structure(m) == (nr, ())
            continue
        d = normalforms.smith_normal_form(
            sympy.Matrix(nr, nc, [x for row in m for x in row]),
            domain=sympy.ZZ)
        factors = sorted(abs(int(d[i, i])) for i in range(min(nr, nc))
                         if d[i, i])
        assert structure(m) == (nr - len(factors),
                                tuple(x for x in factors if x > 1)), m


def vectors(rng: random.Random, m) -> list:
    """Seeded vectors of Z^rows: inside the lattice, anywhere, and the
    lattice's vectors divided by their content, which fail only by
    divisibility whenever they are outside."""
    nr, nc = len(m), len(m[0]) if m else 0
    out = []
    for _ in range(6):
        x = [rng.randint(-3, 3) for _ in range(nc)]
        inside = matvec(m, x) if nc else (0,) * nr
        out.append(inside)
        out.append(tuple(rng.randint(-4, 4) for _ in range(nr)))
        g = 0
        for y in inside:
            g = gcd(g, y)
        if g > 1:
            out.append(tuple(y // g for y in inside))
    return out


def test_membership_equals_projection():
    rng = random.Random(20261021)
    seen = {"in": 0, "out": 0, "divisibility": 0}
    for m in matrices():
        group, rows = cokernel(m), canon(m)
        for v in vectors(rng, m):
            member = not any(group.project(v))
            assert (lattice_coefficients(rows, v) is not None) == member, (m, v)
            seen["in" if member else "out"] += 1
            if not member and any(not any(group.project(
                    tuple(d * y for y in v))) for d in range(2, 13)):
                seen["divisibility"] += 1
    assert min(seen.values()) >= 100, seen
    # (1, 0) fails only by divisibility against (2, 0); (2, 1) spans a
    # saturated lattice, which (1, 0) is outside.
    assert lattice_coefficients(((2, 0),), (1, 0)) is None
    assert lattice_coefficients(((2, 0),), (4, 0)) == [2]
    assert lattice_coefficients(((2, 1),), (1, 0)) is None


def rings() -> list:
    """Source and target rings of every corpus and negative-corpus cone:
    both fans' own Chow rings, and the comparison's two presentations
    where the comparison is built."""
    out = []
    for rank, rays in CORPUS_DATA + NEGATIVE_DATA:
        st = exceptional_stratum(make_cone(rank, rays))
        out += [chow_ring_stack(st.subdivision),
                chow_ring_stack(st.quotient.fan)]
        try:
            comp = exceptional_comparison(st, 4)
        except ComparisonError:
            continue
        out += [comp.source, comp.target]
    return out


def test_piece_structures_equal_graded_pieces():
    clear_package_caches()
    torsion_seen = False
    for p in rings():
        pieces = tuple(graded_piece(p, k).structure() for k in range(6))
        assert piece_structures(p, 5) == pieces
        assert tuple(piece_structure(p, k) for k in range(6)) == pieces
        torsion_seen |= any(t for _free, t in pieces)
    assert torsion_seen
    with pytest.raises(ValueError):
        piece_structure(p, -1)


def test_short_smith_diagonal_is_an_internal_error(monkeypatch):
    intlinalg.lattice_structure.cache_clear()
    real = intlinalg._snf

    def short(m, *args, **kwargs):
        d, *rest = real(m, *args, **kwargs)
        d[-1] = [0] * len(d[-1])
        return (d, *rest)

    monkeypatch.setattr(intlinalg, "_snf", short)
    with pytest.raises(AssertionError):
        lattice_structure(2, ((2, 0), (0, 4)))
    intlinalg.lattice_structure.cache_clear()


def test_verdicts_build_only_the_degree_one_target_piece(monkeypatch):
    clear_package_caches()
    calls, targets = [], []
    real_piece, real_certify = graded.graded_piece, chow.certify_well_defined

    def piece(p, k):
        calls.append((p, k))
        return real_piece(p, k)

    def certify(rm):
        targets.append(rm.target)
        return real_certify(rm)

    monkeypatch.setattr(graded, "graded_piece", piece)
    monkeypatch.setattr(chow, "certify_well_defined", certify)
    for rank, rays in CORPUS_DATA:
        verify_vanishing(make_cone(rank, rays), 4)
    # A corpus sweep builds one group per distinct target presentation.
    assert 0 < real_piece.cache_info().misses <= 5
    for rank, rays in NEGATIVE_DATA:
        verify_vanishing(make_cone(rank, rays), 4)
    assert calls
    for p, k in calls:
        assert k == 1 and p in targets, (p, k)

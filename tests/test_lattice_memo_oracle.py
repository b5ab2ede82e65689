"""The memoised lattice kernels against the uncached computation.

smith_basis memoises its Smith stage on the HNF-canonical columns, so two
presenting matrices of one lattice share it; cokernel memoises its
normal-form group on the frozen matrix.  The oracles below are the
uncached constructions, kept test-local: a Smith form of the canonical
columns with both row transforms, and the normal-form group built from it.
Both memoised kernels must return what they return, on a cache miss and
on a hit.  cokernel must still check that every relation dies on a hit,
and cox that every row of beta dies; each check is one matrix product
(AbelianGroup.kills), so a cached group with one broken projection row,
free or torsion, must fail it.
"""

import random
from functools import lru_cache

import pytest

from corpus import corpus_cones
from toricstacks import cox as cox_module, intlinalg
from toricstacks.chow import exceptional_stratum
from toricstacks.cox import cox
from toricstacks.fan import Fan
from toricstacks.intlinalg import (
    _snf,
    cokernel,
    freeze,
    from_columns,
    hnf_form,
    normal_form_group,
    smith_basis,
    transpose,
)

EMPTY = [(), ((),), ((), (), ())]


def uncached_smith_basis(m):
    nr = len(m)
    col_canon = hnf_form(transpose(m))
    m = from_columns([row for row in col_canon if any(row)], nr)
    d, u, u_inv, _ = _snf(m, u=True, u_inv=True)
    nc = len(m[0]) if m else 0
    diag = [d[i][i] if i < nc else 0 for i in range(nr)]
    keep = [i for i in range(nr) if diag[i] != 1]
    u_inv_cols = transpose(u_inv)
    return (tuple(diag[i] for i in keep if diag[i]),
            freeze(u[i] for i in keep),
            tuple(u_inv_cols[i] for i in keep))


def uncached_cokernel(m):
    m = freeze(m)
    return normal_form_group(len(m), *uncached_smith_basis(m))


def clear_memo():
    intlinalg._lattice_smith_basis.cache_clear()
    intlinalg._cokernel_group.cache_clear()


def random_matrices(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nr, nc = rng.randint(1, 5), rng.randint(0, 5)
        out.append(tuple(tuple(rng.randint(-4, 4) for _ in range(nc))
                         for _ in range(nr)))
    return out


def test_memo_equals_uncached_on_random_and_empty_matrices():
    clear_memo()
    matrices = random_matrices(5, 300) + EMPTY
    for m in matrices:
        for _ in range(2):  # a miss, then a hit
            assert smith_basis(m) == uncached_smith_basis(m), m
            assert cokernel(m) == uncached_cokernel(m), m
    info = intlinalg._cokernel_group.cache_info()
    assert info.hits >= len(matrices)


def test_one_lattice_from_two_presenting_matrices():
    # cox reduces the rays' column lattice once through cokernel(rays);
    # the Chow presentation's linear forms are the kernel rows, whose
    # columns span the same lattice, so their Smith stage is a hit.
    distinct = 0
    for cone in corpus_cones():
        stratum = exceptional_stratum(cone)
        for f in (stratum.subdivision, stratum.quotient.fan):
            clear_memo()
            cd = cox(f)
            rays = freeze(f.rays)
            kernel_cols = from_columns(cd.kernel, len(rays))
            distinct += kernel_cols != rays
            hits = intlinalg._lattice_smith_basis.cache_info().hits
            assert smith_basis(kernel_cols) == uncached_smith_basis(rays)
            assert intlinalg._lattice_smith_basis.cache_info().hits \
                == hits + 1
            assert cokernel(kernel_cols) == uncached_cokernel(rays)
    assert distinct


def broken_row(group, i, m):
    """group with projection row i changed so that some column of m no
    longer dies there: the row gains the unit vector e_j of an ambient row
    j of m with an entry that is nonzero (a free row) or not 0 mod d_i (a
    torsion row)."""
    d = group.torsion[i] if i < len(group.torsion) else 0
    j = next(j for j, row in enumerate(m)
             if any(x % d if d else x for x in row))
    projection = list(group.projection)
    projection[i] = tuple(x + (c == j) for c, x in enumerate(projection[i]))
    return group._replace(projection=tuple(projection))


def test_relation_check_runs_on_a_hit(monkeypatch):
    # Z^3 / <(2, 0, 0), (1, 3, 0)> = Z/6 + Z: row 0 is the torsion row,
    # row 1 the free row.
    m = freeze(((2, 1), (0, 3), (0, 0)))
    group = uncached_cokernel(m)
    assert group.torsion == (6,) and group.free_rank == 1
    for i in (0, 1):
        memo = lru_cache(maxsize=None)(
            lambda key, bad=broken_row(group, i, m): bad)
        memo(m)  # the miss: the broken group is now the cached one
        monkeypatch.setattr(intlinalg, "_cokernel_group", memo)
        with pytest.raises(AssertionError,
                           match="projection does not kill a relation"):
            cokernel(m)
        assert memo.cache_info().hits == 1


def test_cox_checks_every_beta_row(monkeypatch):
    # The rays (+-1, +-1) span an index-2 sublattice, so X(G) = Z/2 + Z^2
    # and row 0 is the torsion row.  The rows of beta span the lattice the
    # kernel rows span, so a group that lets a beta row live fails
    # cokernel's own check first; it is handed to cox past cokernel.
    f = Fan.from_data(2, [[1, 1], [1, -1], [-1, -1], [-1, 1]],
                      [[0, 1], [1, 2], [2, 3], [3, 0]])
    group = cox(f).char_group
    assert group.torsion == (2,) and group.free_rank == 2
    for i in (0, 1):
        bad = broken_row(group, i, freeze(f.rays))
        monkeypatch.setattr(cox_module, "cokernel", lambda m, bad=bad: bad)
        with pytest.raises(AssertionError,
                           match="beta row has nonzero class"):
            cox(f)

"""The memoised lattice kernels against the uncached computation.

smith_basis memoises its Smith stage on the HNF-canonical columns, so two
presenting matrices of one lattice share it; cokernel memoises its
normal-form group on the frozen matrix.  The oracles below are the
uncached constructions, kept test-local: a Smith form of the canonical
columns with both row transforms, and the normal-form group built from it.
Both memoised kernels must return what they return, on a cache miss and
on a hit, and cokernel must still check that every relation dies on a
hit.
"""

import random

from corpus import corpus_cones
from toricstacks import intlinalg
from toricstacks.chow import exceptional_stratum
from toricstacks.cox import cox
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
    st = _snf(m, u=True, u_inv=True)
    nc = len(m[0]) if m else 0
    diag = [st.a[i][i] if i < nc else 0 for i in range(nr)]
    keep = [i for i in range(nr) if diag[i] != 1]
    u_inv_cols = transpose(st.rows.u_inv)
    return (tuple(diag[i] for i in keep if diag[i]),
            freeze(st.rows.u[i] for i in keep),
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


def test_relation_check_runs_on_a_hit(monkeypatch):
    m = ((2, 0, 1), (0, 3, 1), (1, 1, 0), (4, -2, 2))
    clear_memo()
    cokernel(m)
    projected = []
    project = intlinalg.AbelianGroup.project

    def spy(group, v):
        projected.append(tuple(v))
        return project(group, v)

    monkeypatch.setattr(intlinalg.AbelianGroup, "project", spy)
    hits = intlinalg._cokernel_group.cache_info().hits
    cokernel(m)
    assert intlinalg._cokernel_group.cache_info().hits == hits + 1
    assert projected == list(transpose(m))

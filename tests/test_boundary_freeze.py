"""Input is normalised once, where it enters.

Each public intlinalg entry must take any iterable of integer rows (a
list of lists, a generator of lists) and return exactly what it returns
on the frozen tuple, made of tuples of int.  The package's own callers
hand tuples they built themselves straight to the memoised kernels, so a
public call and the internal call on the same lattice must share one memo
entry: one miss, then hits.

make_presentation runs its checks on every presentation.  Its
normalisation is checked against the earlier _normalize_poly and
_poly_degree, kept verbatim below, on seeded polynomials with zero and
cancelling coefficients, and on every error case.
"""

import random

import pytest

from corpus import corpus_cones
from test_chow_certificate import clear_package_caches
from test_elimination_kernel_oracle import seeded_matrices
from toricstacks import cox, graded, intlinalg
from toricstacks.chow import exceptional_comparison
from toricstacks.fan import exceptional_stratum
from toricstacks.graded import make_presentation
from toricstacks.intlinalg import (
    cokernel,
    freeze,
    from_columns,
    hnf,
    hnf_form,
    kernel_basis,
    matvec,
    normal_form_group,
    rank,
    smith_basis,
    snf,
    solve_in_span,
    solve_many_in_span,
    transpose,
)


def as_lists(m):
    return [list(row) for row in m]


def as_generator(m):
    return (list(row) for row in m)


def only_ints(x) -> bool:
    """x is made of tuples (or a NamedTuple) of exact ints."""
    if isinstance(x, tuple):
        return all(map(only_ints, x))
    return type(x) is int


ENTRIES = {
    "hnf_form": hnf_form,
    "hnf": hnf,
    "snf": snf,
    "rank": rank,
    "kernel_basis": kernel_basis,
    "cokernel": cokernel,
    "smith_basis": smith_basis,
}


def matrices():
    return seeded_matrices(41)[::3]


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_takes_lists_and_generators(name):
    fn = ENTRIES[name]
    for m in matrices():
        want = fn(freeze(m))
        assert only_ints(want), (name, m)
        for variant in (as_lists, as_generator):
            got = fn(variant(m))
            assert got == want and only_ints(got), (name, variant, m)


def test_solve_many_in_span_takes_lists_and_generators():
    rng = random.Random(42)
    for m in matrices():
        nc = len(m[0]) if m else 0
        bs = [matvec(m, [rng.randint(-3, 3) for _ in range(nc)])
              for _ in range(2)]
        bs.append(tuple(x + 1 for x in bs[0]))
        want = solve_many_in_span(freeze(m), bs)
        for variant in (as_lists, as_generator):
            got = solve_many_in_span(variant(m), variant(bs))
            assert got == want, (variant, m)
            assert all(x is None or only_ints(x) for x in got)


def test_normal_form_group_takes_lists_and_generators():
    for m in matrices():
        torsion, rows = smith_basis(m)
        want = normal_form_group(len(m), torsion, rows)
        assert only_ints(want)
        for variant in (as_lists, as_generator):
            got = normal_form_group(len(m), iter(torsion), variant(rows))
            assert got == want and only_ints(got), (variant, m)


def misses(cache) -> int:
    return cache.cache_info().misses


def memo_matrices():
    return [m for m in seeded_matrices(43) if m and m[0]][::9]


def test_public_and_internal_calls_share_an_entry():
    for m in memo_matrices():
        clear_package_caches()
        # hnf_form's public freeze and a kernel caller's own tuples.
        hnf_form(as_generator(m))
        assert misses(intlinalg._hnf_form) == 1
        assert intlinalg._hnf_form(freeze(m)) == hnf_form(as_lists(m))
        assert misses(intlinalg._hnf_form) == 1
        # smith_basis on lists, then cokernel's own call on the tuple.
        smith_basis(as_lists(m))
        before = misses(intlinalg._lattice_smith_basis)
        cokernel(m)
        cokernel(as_generator(m))
        assert misses(intlinalg._lattice_smith_basis) == before
        assert misses(intlinalg._cokernel_group) == 1
        kernel_basis(as_lists(m))
        kernel_basis(as_generator(m))
        kernel_basis(m)
        assert misses(intlinalg._kernel_basis) == 1
        b = matvec(m, (1,) * len(m[0]))
        solve_many_in_span(as_lists(m), [list(b)])
        solve_in_span(m, b)
        assert misses(intlinalg._solve_echelon) == 1


def test_internal_builders_use_the_public_key():
    """ray_relations and _piece_lattice build their matrices as tuples and
    hand them to _hnf_form straight.  The public hnf_form of the same
    matrix, passed as lists, then hits their entry, and so does the
    earlier path of _piece_lattice: the relation columns made a matrix
    (from_columns), and hnf_form reduced its transpose."""
    clear_package_caches()
    for cone in corpus_cones():
        comparison = exceptional_comparison(exceptional_stratum(cone), 3)
        f = comparison.stratum.subdivision
        cox.ray_relations(f)
        before = misses(intlinalg._hnf_form)
        hnf_form([list(col) for col in zip(*f.rays)])
        assert misses(intlinalg._hnf_form) == before
        for p in (comparison.source, comparison.target):
            for k in range(4):
                graded._piece_lattice(p, k)
                before = misses(intlinalg._hnf_form)
                n_rows, rel = graded._relation_matrix(
                    graded._reduction(p).target, k)
                hnf_form(transpose(from_columns(rel, n_rows)))
                hnf_form(as_lists(rel))
                assert misses(intlinalg._hnf_form) == before, (p, k)


# -- the earlier normalisation, verbatim ------------------------------------

def _old_normalize_poly(element, n_vars: int):
    items = element.items() if isinstance(element, dict) else element
    out = {}
    for expt, coeff in items:
        expt = tuple(int(x) for x in expt)
        if len(expt) != n_vars:
            raise ValueError("exponent %r has length %d, expected %d"
                             % (expt, len(expt), n_vars))
        if any(x < 0 for x in expt):
            raise ValueError("negative exponent in %r" % (expt,))
        coeff = int(coeff)
        if coeff:
            out[expt] = out.get(expt, 0) + coeff
            if not out[expt]:
                del out[expt]
    return out


def _old_poly_degree(poly):
    degrees = {sum(e) for e in poly}
    if not degrees:
        return None
    if len(degrees) > 1:
        raise ValueError("element is not homogeneous: degrees %s"
                         % sorted(degrees))
    return degrees.pop()


def old_make_presentation(n_vars, linear_gens=(), homogeneous_gens=()):
    n_vars = int(n_vars)
    lin = freeze(linear_gens)
    for row in lin:
        if len(row) != n_vars:
            raise ValueError("linear generator %r has length %d, expected %d"
                             % (list(row), len(row), n_vars))
    homs = []
    for degree, element in homogeneous_gens:
        poly = _old_normalize_poly(element, n_vars)
        actual = _old_poly_degree(poly)
        if actual is not None and actual != degree:
            raise ValueError("generator labeled degree %d has degree %d"
                             % (degree, actual))
        if degree < 1:
            raise ValueError("homogeneous generators must have degree >= 1")
        homs.append((int(degree), tuple(sorted(poly.items(), reverse=True))))
    return graded.GradedPresentation(n_vars=n_vars, linear_gens=lin,
                                     homogeneous_gens=tuple(homs))

# ---------------------------------------------------------------------------


def random_element(rng, n, degree):
    """(exponent, coeff) items of degree `degree` in n variables, with
    repeated exponents whose coefficients may cancel, and zero ones."""
    items = []
    for _ in range(rng.randint(0, 5)):
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        expt = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        coeff = rng.choice((0, 1, -1, 2, -3))
        items.append((expt, coeff))
        if rng.random() < 0.4:
            items.append((tuple(expt), -coeff))
    return items


def test_make_presentation_matches_the_earlier_normalisation():
    rng = random.Random(44)
    cancelled = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        lin = [[rng.randint(-2, 2) for _ in range(n)]
               for _ in range(rng.randint(0, 2))]
        homs = []
        for _ in range(rng.randint(0, 3)):
            degree = rng.randint(1, 3)
            items = random_element(rng, n, degree)
            cancelled += bool(items) and not _old_normalize_poly(items, n)
            if rng.random() < 0.3:
                items = {tuple(e): c for e, c in items}
            homs.append((degree, items))
        assert make_presentation(n, lin, homs) \
            == old_make_presentation(n, lin, homs)
    assert cancelled  # the sample exercises a polynomial that cancels to 0
    for args in ((0,), (0, [[]], [(1, {})]), (1, [[3]], [(2, [((2,), 0)])])):
        assert make_presentation(*args) == old_make_presentation(*args)


ERRORS = {
    "linear generator length": (2, [[1, 0, 0]], []),
    "exponent length": (2, [], [(1, {(1, 0, 0): 1})]),
    "negative exponent": (2, [], [(1, {(2, -1): 1})]),
    "not homogeneous": (2, [], [(2, [((2, 0), 1), ((1, 0), 1)])]),
    "labeled degree": (2, [], [(2, {(1, 0): 1})]),
    "degree below 1": (2, [], [(0, {(0, 0): 1})]),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_make_presentation_errors_match(name):
    with pytest.raises(ValueError) as old:
        old_make_presentation(*ERRORS[name])
    with pytest.raises(ValueError) as new:
        make_presentation(*ERRORS[name])
    assert str(new.value) == str(old.value)


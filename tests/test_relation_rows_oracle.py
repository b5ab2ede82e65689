"""graded._piece_lattice against the path it replaced.

_relation_matrix builds the degree-k relations as rows, one coefficient
vector over the reduced degree-k monomials per generator multiple, and
_piece_lattice reduces those rows.  Earlier, the same vectors were the
columns of a matrix (from_columns), and hnf_form reduced its transpose.
That path is kept below, verbatim, and must give the same monomial count
and the same canonical Hermite rows on every source and target of the
corpus and of the negative corpus in degrees 0-5, and on the seeded
presentations test_graded_elimination checks.  The Hermite form is taken
with no memo, so a relation the rows leave out cannot hide behind a
shared cache entry.
"""

import pytest

from corpus import corpus_cones
from test_graded_elimination import _rings
from test_negative_corpus import NEGATIVE
from toricstacks import intlinalg
from toricstacks.chow import (ComparisonError, chow_ring_stack,
                              exceptional_comparison)
from toricstacks.fan import Cone, exceptional_stratum
from toricstacks.graded import (_monomial_index, _piece_lattice,
                                _reduction, monomials)
from toricstacks.intlinalg import freeze, from_columns, identity, transpose

# -- the earlier relation matrix, verbatim ----------------------------------

def _shifted_column(poly, shift, n_vars, degree):
    index = _monomial_index(n_vars, degree)
    col = [0] * len(index)
    for expt, coeff in poly.items():
        e = tuple(x + y for x, y in zip(expt, shift))
        col[index[e]] += coeff
    return tuple(col)


def _relation_matrix(p, k):
    """Generator multiples of degree k as columns over the degree-k
    monomial basis."""
    columns = []
    for row in p.linear_gens:
        gen = {identity(p.n_vars)[i]: c for i, c in enumerate(row) if c}
        for m in monomials(p.n_vars, k - 1):
            columns.append(_shifted_column(gen, m, p.n_vars, k))
    for degree, items in p.homogeneous_gens:
        gen = dict(items)
        for m in monomials(p.n_vars, k - degree):
            columns.append(_shifted_column(gen, m, p.n_vars, k))
    return from_columns(columns, len(monomials(p.n_vars, k)))

# ---------------------------------------------------------------------------


def old_piece_lattice(p, k):
    m = _relation_matrix(_reduction(p).target, k)
    h = freeze(intlinalg._hnf(transpose(m))[0])
    return len(m), tuple(row for row in h if any(row))


def stratum_rings(cone):
    """The comparison's source and target; when the certificate fails,
    the Chow rings of the subdivision and of the stratum's fan."""
    stratum = exceptional_stratum(cone)
    try:
        comparison = exceptional_comparison(stratum, 0)
    except ComparisonError:
        return [chow_ring_stack(stratum.subdivision),
                chow_ring_stack(stratum.quotient.fan)]
    return [comparison.source, comparison.target]


def check(p, degrees):
    for k in degrees:
        assert _piece_lattice(p, k) == old_piece_lattice(p, k), (p, k)


@pytest.mark.parametrize("i", range(len(corpus_cones())))
def test_corpus_rows_match_the_column_path(i):
    for p in stratum_rings(corpus_cones()[i]):
        check(p, range(6))


def test_negative_corpus_rows_match_the_column_path():
    failed = 0
    for rank, rays, _chow, _k in NEGATIVE:
        cone = Cone(rank, rays)
        try:
            exceptional_comparison(exceptional_stratum(cone), 0)
        except ComparisonError:
            failed += 1
        for p in stratum_rings(cone):
            check(p, range(6))
    assert failed  # the certificate-failure path is covered too


def test_seeded_presentations_match_the_column_path():
    for p in _rings():
        check(p, range(5))

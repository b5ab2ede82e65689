"""cox and chow_ring_stack read beta's Hermite form once.

cox.ray_relations keeps the nonzero HNF rows of beta (the kernel rows);
cox builds X(G) as the cokernel of those rows taken as columns and reads
each weight off the projection's columns, and chow_ring_stack builds its
presentation from the kernel rows and the primitive collections alone, with
no X(G).  The oracle here is the construction the two replaced: the kernel
from hnf_form(beta), X(G) as cokernel(rays), and each weight as the
projection of a unit vector.  Both must agree field for field on the
corpus' subdivision and stratum fans, the negative corpus' and the strata
of 400 seeded cones, and must reject a torus factor with the same message.
"""

import pytest

from corpus import corpus_cones
from test_chow_certificate import NEGATIVE_DATA, random_cones
from toricstacks.chow import chow_ring_stack, exceptional_stratum
from toricstacks.cox import CoxData, TorusFactorError, cox
from toricstacks.fan import Fan, make_cone, primitive_collections
from toricstacks.graded import make_presentation
from toricstacks.intlinalg import cokernel, freeze, from_columns, hnf_form


def reference_cox(f: Fan) -> CoxData:
    n = f.ambient_rank
    rays = freeze(f.rays)
    beta = from_columns(rays, n)
    kernel = tuple(row for row in hnf_form(beta) if any(row))
    if len(kernel) != n:
        raise TorusFactorError(
            "rays span a rank-%d sublattice of Z^%d; the fan has a torus "
            "factor, which this construction does not support"
            % (len(kernel), n))
    group = cokernel(rays)
    r = len(rays)
    weights = tuple(
        group.project(tuple(1 if j == i else 0 for j in range(r)))
        for i in range(r))
    return CoxData(char_group=group, weights=weights, kernel=kernel,
                   primitive_collections=primitive_collections(f))


def reference_presentation(f: Fan):
    cd = reference_cox(f)
    n = len(f.rays)
    homs = [(len(c), {tuple(int(i in c) for i in range(n)): 1})
            for c in cd.primitive_collections]
    return make_presentation(n, cd.kernel, homs)


def stratum_fans(cones) -> list:
    out = []
    for c in cones:
        stratum = exceptional_stratum(c)
        out += [stratum.subdivision, stratum.quotient.fan]
    return out


def oracle_fans() -> list:
    cones = corpus_cones()
    cones += [make_cone(rank, rays) for rank, rays in NEGATIVE_DATA]
    cones += random_cones(11, 200) + random_cones(23, 200)
    return stratum_fans(cones)


def test_cox_matches_the_two_reduction_construction():
    fans = oracle_fans()
    assert len(fans) == 2 * (20 + len(NEGATIVE_DATA) + 400)
    torsion = 0
    for f in fans:
        cd = cox(f)
        assert tuple(cd) == tuple(reference_cox(f)), f
        torsion += bool(cd.char_group.torsion)
    # The weights are read off a projection with torsion rows, not only
    # the free identity block.
    assert torsion


def test_chow_ring_stack_matches_the_reference_presentation():
    for f in oracle_fans():
        assert chow_ring_stack(f) == reference_presentation(f), f


@pytest.mark.parametrize("f", [
    Fan.from_data(2, [[1, 0]], [[0]]),
    Fan.from_data(3, [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
                  [[0, 1], [1, 2], [0, 2]]),
    Fan.from_data(2, [], [[]]),
])
def test_torus_factor_raises_the_same_message(f):
    with pytest.raises(TorusFactorError) as expected:
        reference_cox(f)
    for build in (cox, chow_ring_stack):
        with pytest.raises(TorusFactorError) as got:
            build(f)
        assert str(got.value) == str(expected.value)

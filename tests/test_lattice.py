import random

import pytest
from hypothesis import given, settings, strategies as st

from quartic_lines.errors import InconsistencyError, UsageError
from quartic_lines.lattice import GramLattice, gram_from_graph


def test_two_meeting_lines():
    g = GramLattice(((-2, 1), (1, -2)))
    assert g.rank() == 2
    assert g.span_discriminant() == 3
    assert g.span_index() == 1


def test_two_disjoint_lines():
    g = GramLattice(((-2, 0), (0, -2)))
    assert g.rank() == 2
    assert g.span_discriminant() == 4


def test_four_cycle_is_degenerate():
    c4 = ((-2, 1, 0, 1), (1, -2, 1, 0), (0, 1, -2, 1), (1, 0, 1, -2))
    assert all(sum(row) == 0 for row in c4)  # the fiber class is isotropic
    g = GramLattice(c4)
    assert g.rank() == 3


def test_rank_one_span_with_index():
    # generators 2e and e for a norm-1 vector e
    g = GramLattice(((4, 2), (2, 1)))
    assert g.rank() == 1
    assert g.span_index() == 2
    assert g.span_discriminant() == 1


def test_rejects_asymmetric():
    with pytest.raises(UsageError):
        GramLattice(((0, 1), (2, 0)))
    with pytest.raises(UsageError):
        GramLattice(((0, 1),))


def test_adding_dependent_generator_is_invisible():
    base = ((-2, 1), (1, -2))
    g = GramLattice(base)
    # duplicate the first generator
    ext = ((-2, 1, -2), (1, -2, 1), (-2, 1, -2))
    g2 = GramLattice(ext)
    assert g2.rank() == g.rank()
    assert g2.span_discriminant() == g.span_discriminant()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 7))
def test_random_graph_subset_independence(seed, n):
    rng = random.Random(seed)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = rng.randint(0, 1)
    gram = tuple(tuple(-2 if i == j else adj[i][j] for j in range(n))
                 for i in range(n))
    g = GramLattice(gram)
    assert g.random_subset_check(trials=4, seed=seed)
    # determinism: a rebuilt lattice gives the same invariants
    h = GramLattice(gram)
    assert (h.rank(), h.span_discriminant()) == \
        (g.rank(), g.span_discriminant())


def test_s5_lattice_invariants(s5_graph):
    lat = gram_from_graph(s5_graph)
    assert lat.rank() == 20
    assert lat.span_discriminant() == -55
    assert lat.span_index() == 1
    assert lat.random_subset_check(trials=3)
    assert lat.hyperbolicity_sign_check()
    data = lat.to_json()
    assert data["rank"] == 20 and data["discriminant"] == -55
    assert len(data["basis-line-ids"]) == 20


def _negative_cartan(n, edges):
    return tuple(tuple(-2 if i == j else int((i, j) in edges or
                                              (j, i) in edges)
                       for j in range(n)) for i in range(n))


def _chain(n):
    return {(i, i + 1) for i in range(n - 1)}


# root lattices (Gram = -Cartan): (gram, rank, discriminant, index, basis)
ROOT_LATTICES = [
    pytest.param(_negative_cartan(n, _chain(n)), n, (-1) ** n * (n + 1), 1,
                 tuple(range(n)), id=f"A{n}") for n in range(1, 9)
] + [
    pytest.param(_negative_cartan(4, {(0, 1), (0, 2), (0, 3)}), 4, 4, 1,
                 (0, 1, 2, 3), id="D4"),
    pytest.param(_negative_cartan(8, _chain(7) | {(2, 7)}), 8, 1, 1,
                 tuple(range(8)), id="E8"),
    # A2 generated by 2*a1, a2, a1: the basis (2*a1, a2) has index 2
    pytest.param(((-8, 2, -4), (2, -2, 1), (-4, 1, -2)), 2, 3, 2, (0, 1),
                 id="A2-index2"),
]


@pytest.mark.parametrize("gram, rank, disc, index, basis", ROOT_LATTICES)
def test_closed_form_invariants(gram, rank, disc, index, basis):
    g = GramLattice(gram)
    assert g.rank() == rank
    assert g.span_discriminant() == disc
    assert g.span_index() == index
    assert g.basis_ids() == basis


def test_rank_above_22_is_rejected():
    with pytest.raises(InconsistencyError):
        GramLattice(_negative_cartan(23, set()))

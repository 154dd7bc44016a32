import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parastein.cosets import BlockSet
from parastein.weyl_core import (
    enumerate_group,
    identity,
    inverse,
    left_ascents,
    multiply,
)
from weights_oracle import (
    _admissible_labels,
    block_roots,
    dominance_set,
    dot_action,
    inner_roots,
    is_I_dominant,
    rho_shifted,
    zero_weight,
)


def test_rho():
    assert rho_shifted(2) == (1, 0)
    assert rho_shifted(4) == (3, 2, 1, 0)


def test_dot_action_examples():
    assert dot_action(((2, 1),), ((0, 0),)) == ((-1, 1),)
    lam = ((3, 1, 0, 0),)
    assert dot_action((identity(4),), lam) == lam


def test_dot_action_is_group_action_s3():
    group = enumerate_group(3)
    lam = ((4, 2, 1),)
    for u in group:
        for v in group:
            assert dot_action((multiply(u, v),), lam) == dot_action(
                (u,), dot_action((v,), lam)
            )


@given(st.permutations([1, 2, 3, 4]).map(tuple), st.permutations([1, 2, 3, 4]).map(tuple))
def test_dot_action_group_action_random_s4(u, v):
    lam = ((5, 3, 2, 0),)
    assert dot_action((multiply(u, v),), lam) == dot_action((u,), dot_action((v,), lam))


def test_is_I_dominant():
    assert is_I_dominant(((0, 0),), {1})
    assert not is_I_dominant(((-1, 1),), {1})
    assert is_I_dominant(((-1, 1),), {1}, plus=False)
    assert is_I_dominant(zero_weight(5, 3), {1, 2, 3, 4})


def test_dominance_set_examples():
    assert dominance_set((identity(4),), zero_weight(4, 1)) == frozenset({1, 2, 3})
    assert dominance_set(((3, 4, 1, 2),), zero_weight(4, 1)) == frozenset({1, 3})
    assert dominance_set(
        ((1, 3, 2, 4), identity(4)), zero_weight(4, 2)
    ) == frozenset({1, 3})


def test_dominance_set_requires_dominant():
    with pytest.raises(ValueError):
        dominance_set((identity(3),), ((0, 1, 0),))


def test_dominance_set_equals_ascent_intersection_s4():
    group = enumerate_group(4)
    lam_reg = ((7, 4, 2, 0),)
    lam_sing = ((2, 1, 1, 0),)
    for w in group:
        assert dominance_set((w,), zero_weight(4, 1)) == left_ascents(w)
        assert dominance_set((w,), lam_reg) == left_ascents(w)
        assert dominance_set((w,), lam_sing) == left_ascents(w)
    for u in group[::5]:
        for v in group[::7]:
            assert dominance_set((u, v), zero_weight(4, 2)) == left_ascents(u) & left_ascents(v)


def test_dominance_orientation_dictionary():
    # for dominant lam: w . lam is I-dominant iff I is contained in the
    # ascent set of every component
    lam = zero_weight(4, 1)
    for w in enumerate_group(4):
        moved = dot_action((w,), lam)
        for i in range(1, 4):
            assert is_I_dominant(moved, {i}) == (i in left_ascents(w))


@pytest.mark.parametrize("r,k,d_L", [(1, 4, 1), (2, 2, 1), (4, 1, 1), (2, 2, 2)])
def test_admissible_labels_keep_the_dominant_representatives(r, k, d_L):
    # The ascent filter of the constituent enumeration keeps exactly the
    # tuples whose shifted zero weight is dominant for the inner roots plus S.
    n = r * k
    group = enumerate_group(n)
    for size in range(k):
        for members in itertools.combinations(range(1, k), size):
            S = BlockSet(r, k, frozenset(members))
            roots = inner_roots(S) | block_roots(S)
            expected = {
                w
                for w in itertools.product(group, repeat=d_L)
                if is_I_dominant(dot_action(w, zero_weight(n, d_L)), roots)
            }
            assert {w for w, _ in _admissible_labels(S, d_L, None)} == expected

import itertools

import pytest

from parastein.cosets import (
    BlockSet,
    block_embed,
    block_restrict,
    blocks_of_rootset,
    coset_matrix,
    double_coset_count_oracle,
    format_blockset,
    is_in_W_IJ,
    matrix_count,
    min_double_coset_reps,
    modulus_exponents,
    parse_blockset,
)
from parastein.weyl_core import (
    bruhat_leq,
    enumerate_group,
    identity,
    length,
    multiply,
    simple_reflection,
)


def all_blocksets(r, k):
    for mask in range(1 << (k - 1)):
        yield BlockSet(r, k, frozenset(i + 1 for i in range(k - 1) if mask >> i & 1))


def test_partition_examples():
    assert BlockSet(2, 2).partition() == (1, 1)
    assert BlockSet(2, 2, frozenset({1})).partition() == (2,)
    assert BlockSet(1, 5, frozenset({2, 3})).partition() == (1, 3, 1)


def gap_partition(bs):
    """Reference: the block sizes read off the gaps of the members."""
    parts = []
    start = 0
    for i in range(1, bs.k):
        if i not in bs.members:
            parts.append(i - start)
            start = i
    parts.append(bs.k - start)
    return tuple(parts)


def test_partition_matches_gap_loop():
    for k in range(1, 9):
        for bs in all_blocksets(1, k):
            assert bs.partition() == gap_partition(bs)
    assert BlockSet(3, 4, frozenset({2})).partition() == (1, 2, 1)


def brute_matrix_count(rows, cols):
    """Reference: try every matrix whose entries are at most their row's
    and their column's sum."""
    cells = [range(min(a, b) + 1) for a in rows for b in cols]
    count = 0
    for entries in itertools.product(*cells):
        matrix = [entries[i * len(cols) : (i + 1) * len(cols)] for i in range(len(rows))]
        row_sums = tuple(sum(row) for row in matrix)
        col_sums = tuple(sum(row[j] for row in matrix) for j in range(len(cols)))
        count += row_sums == rows and col_sums == cols
    return count


def test_matrix_count_matches_brute_force():
    for r in range(3):
        for c in range(4):
            for rows in itertools.product(range(3), repeat=r):
                for cols in itertools.product(range(3), repeat=c):
                    assert matrix_count(rows, cols) == brute_matrix_count(rows, cols), (rows, cols)


def test_blockset_validation():
    with pytest.raises(ValueError):
        BlockSet(2, 2, frozenset({2}))
    with pytest.raises(ValueError):
        BlockSet(0, 2)
    with pytest.raises(ValueError):
        BlockSet(2, 0)
    with pytest.raises(ValueError):
        BlockSet(1, 4, frozenset({0}))


def test_parse_format():
    bs = parse_blockset("1,3", 1, 4)
    assert sorted(bs.members) == [1, 3]
    assert format_blockset(bs) == "1,3"
    assert parse_blockset("-", 2, 2).members == frozenset()
    assert format_blockset(BlockSet(2, 2)) == "-"


def test_min_double_coset_reps_examples():
    assert min_double_coset_reps(2, set(), set()) == [(1, 2), (2, 1)]
    assert min_double_coset_reps(3, {1}, {1}) == [(1, 2, 3), (1, 3, 2)]
    six = min_double_coset_reps(4, set(), {1, 3})
    assert six == [
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (2, 3, 1, 4),
        (2, 4, 1, 3),
        (3, 4, 1, 2),
    ]


def test_every_element_has_one_minimal_rep_below_it():
    n = 4
    I, J = frozenset({1, 3}), frozenset({2})
    reps = min_double_coset_reps(n, I, J)
    from parastein.weyl_core import enumerate_parabolic

    par_I = enumerate_parabolic(n, I)
    par_J = enumerate_parabolic(n, J)
    seen = {}
    for w in enumerate_group(n):
        cosets = {multiply(multiply(u, w), v) for u in par_I for v in par_J}
        inside = [x for x in reps if x in cosets]
        assert len(inside) == 1
        rep = inside[0]
        assert bruhat_leq(rep, w)
        assert all(length(rep) <= length(x) for x in cosets)
        seen.setdefault(rep, 0)
    assert set(seen) == set(reps)


def test_coset_counts_match_matrix_oracle_small():
    for n in range(2, 6):
        roots = list(range(1, n))
        for mask_i in range(1 << len(roots)):
            I = frozenset(roots[t] for t in range(len(roots)) if mask_i >> t & 1)
            for mask_j in range(1 << len(roots)):
                J = frozenset(roots[t] for t in range(len(roots)) if mask_j >> t & 1)
                assert len(min_double_coset_reps(n, I, J)) == double_coset_count_oracle(
                    n, I, J
                )


def test_coset_matrix_examples():
    assert coset_matrix(identity(3), set(), set()) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert coset_matrix(identity(4), {1, 3}, {1, 3}) == [[2, 0], [0, 2]]
    assert coset_matrix((3, 4, 1, 2), {1, 3}, {1, 3}) == [[0, 2], [2, 0]]
    with pytest.raises(ValueError):
        coset_matrix((2, 1, 3, 4), {1}, set())


def test_coset_matrix_row_col_sums():
    n = 5
    I, J = frozenset({1, 2, 4}), frozenset({3})
    rows = [len(b) for b in blocks_of_rootset(n, I)]
    cols = [len(b) for b in blocks_of_rootset(n, J)]
    for w in min_double_coset_reps(n, I, J):
        B = coset_matrix(w, I, J)
        assert [sum(row) for row in B] == rows
        assert [sum(col) for col in zip(*B)] == cols


def test_coset_matrix_injective_on_reps():
    n = 6
    I, J = frozenset({1, 2, 4, 5}), frozenset({1, 3, 4, 5})
    reps = min_double_coset_reps(n, I, J)
    mats = {tuple(map(tuple, coset_matrix(w, I, J))) for w in reps}
    assert len(mats) == len(reps)


def test_block_embed():
    assert block_embed((1, 2), 2) == (1, 2, 3, 4)
    assert block_embed((2, 1), 2) == (3, 4, 1, 2)
    assert block_embed((2, 3, 1), 1) == (2, 3, 1)
    # injective homomorphism with quadratic length scaling
    for r in (1, 2, 3):
        images = {}
        for u in enumerate_group(3):
            for v in enumerate_group(3):
                assert block_embed(multiply(u, v), r) == multiply(
                    block_embed(u, r), block_embed(v, r)
                )
            img = block_embed(u, r)
            assert length(img) == r * r * length(u)
            images[img] = u
            assert block_restrict(img, r) == u
        assert len(images) == 6


def test_block_restrict_inverts_block_embed():
    # Over all of S_n: the result is defined exactly on the images of
    # block_embed, and there it returns the element embedded.
    for n in range(1, 7):
        for r in (r for r in range(1, n + 1) if n % r == 0):
            images = {block_embed(u, r): u for u in enumerate_group(n // r)}
            for w in enumerate_group(n):
                assert block_restrict(w, r) == images.get(w)


def test_is_in_W_IJ():
    e4 = identity(4)
    empty = BlockSet(2, 2)
    assert is_in_W_IJ(e4, empty, empty)
    assert is_in_W_IJ((3, 4, 1, 2), empty, empty)
    assert not is_in_W_IJ(simple_reflection(2, 4), empty, empty)
    # every block embedding of a minimal S_k rep is in the set
    full = BlockSet(2, 2, frozenset({1}))
    assert is_in_W_IJ(e4, full, full)
    assert not is_in_W_IJ((3, 4, 1, 2), full, full)


def test_modulus_exponents():
    assert modulus_exponents(BlockSet(2, 2)) == (-2, 2)
    assert modulus_exponents(BlockSet(2, 2, frozenset({1}))) == (0,)
    for k in (1, 2, 3, 4, 5):
        for r in (1, 2):
            bs = BlockSet(r, k)
            assert modulus_exponents(bs) == tuple(
                r * (2 * i - 1 - k) for i in range(1, k + 1)
            )


def test_modulus_exponents_pair_to_zero():
    for k in range(1, 9):
        for r in (1, 2, 3):
            for I in all_blocksets(r, k):
                exps = modulus_exponents(I)
                parts = I.partition()
                assert sum(a * p for a, p in zip(exps, parts)) == 0

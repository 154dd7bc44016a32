import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parastein import cosets, weyl_core
from parastein.weyl_core import (
    BoundExceededError,
    blocks_of_rootset,
    bruhat_downset,
    bruhat_leq,
    enumerate_group,
    enumerate_parabolic,
    format_perm,
    format_word,
    from_word,
    identity,
    inverse,
    left_ascents,
    left_descents,
    length,
    multiply,
    parse_perm,
    reduced_word,
    right_descents,
    simple_reflection,
    support,
)

perms = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def brute_inversions(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def test_composition_convention_anchor():
    n = 4
    w = identity(n)
    for a in (2, 3, 1, 2):
        w = multiply(w, simple_reflection(a, n))
    assert w == (3, 4, 1, 2)


def test_length_examples():
    assert length(identity(4)) == 0
    assert length((3, 4, 1, 2)) == 4
    assert length((4, 3, 2, 1)) == 6


@given(perms)
def test_reduced_word_roundtrip(w):
    word = reduced_word(w)
    assert len(word) == length(w) == brute_inversions(w)
    assert from_word(len(w), word) == w


@given(perms, perms)
def test_length_subadditive(u, v):
    if len(u) != len(v):
        return
    assert length(multiply(u, v)) <= length(u) + length(v)


@given(perms)
def test_inverse_and_descents(w):
    n = len(w)
    assert multiply(w, inverse(w)) == identity(n)
    for i in range(1, n):
        s = simple_reflection(i, n)
        assert (i in right_descents(w)) == (length(multiply(w, s)) < length(w))
        assert (i in left_descents(w)) == (length(multiply(s, w)) < length(w))
    assert left_ascents(w) == frozenset(range(1, n)) - left_descents(w)


def brute_bruhat_leq(x, w):
    """Independent subword oracle: search every subsequence of a reduced
    word of w for a product equal to x."""
    n = len(w)
    word = reduced_word(w)
    lx = length(x)
    for idxs in itertools.combinations(range(len(word)), lx):
        if from_word(n, tuple(word[i] for i in idxs)) == x:
            return True
    return lx == 0 and x == identity(n)


def test_bruhat_examples():
    assert bruhat_leq(identity(4), (3, 4, 1, 2))
    assert bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    assert not bruhat_leq((2, 1, 3, 4), (1, 3, 2, 4))


def test_bruhat_matches_brute_force_on_s4():
    group = enumerate_group(4)
    for x in group:
        for w in group:
            assert bruhat_leq(x, w) == brute_bruhat_leq(x, w)


def test_bruhat_partial_order_s4():
    group = enumerate_group(4)
    w0 = (4, 3, 2, 1)
    for w in group:
        assert bruhat_leq(identity(4), w)
        assert bruhat_leq(w, w0)
        assert bruhat_leq(w, w)
    for x in group:
        for w in group:
            if bruhat_leq(x, w) and bruhat_leq(w, x):
                assert x == w
    # transitivity via down-sets
    for w in group:
        for x in bruhat_downset(w):
            assert bruhat_downset(x) <= bruhat_downset(w)


def test_bruhat_leq_matches_downset_oracle_s5():
    group = enumerate_group(5)
    for w in group:
        down = bruhat_downset(w)
        for x in group:
            assert bruhat_leq(x, w) == (x in down)


def test_bruhat_leq_matches_downset_oracle_s6_sample():
    group = enumerate_group(6)
    for w in group[::11] + [group[-1]]:
        down = bruhat_downset(w)
        for x in group[::7]:
            assert bruhat_leq(x, w) == (x in down)


def boundary_entries_hold(x, w):
    """The four rank-matrix entries that ``bruhat_leq`` reads before its
    scan: row 1, row n-1, column 2 and column n."""
    n = len(w)
    return (
        x[0] <= w[0]
        and x[-1] >= w[-1]
        and x.index(1) <= w.index(1)
        and x.index(n) >= w.index(n)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_boundary_entries_are_necessary(n):
    for w in enumerate_group(n):
        for x in bruhat_downset(w):
            assert boundary_entries_hold(x, w), (x, w)


def test_boundary_entries_decide_most_zeros_on_s5():
    group = enumerate_group(5)
    zeros = [(x, w) for w in group for x in group if not bruhat_leq(x, w)]
    assert len(zeros) == 10_619
    assert sum(not boundary_entries_hold(x, w) for x, w in zeros) == 10_043


def test_bruhat_leq_rank_zero():
    assert bruhat_leq((), ())


def test_support_examples():
    assert support(identity(4)) == frozenset()
    assert support(simple_reflection(2, 4)) == frozenset({2})
    assert support((3, 4, 1, 2)) == frozenset({1, 2, 3})


def test_support_matches_reduced_word_letters():
    # Oracle: the letters of one reduced word are the support.
    for n in range(1, 8):
        for w in enumerate_group(n):
            assert support(w) == frozenset(reduced_word(w))


def test_support_does_not_use_reduced_words(monkeypatch):
    def refuse(w):
        raise AssertionError("support called reduced_word")

    monkeypatch.setattr(weyl_core, "reduced_word", refuse)
    assert support((2, 1, 4, 3)) == frozenset({1, 3})


def root_sets(n):
    return [
        frozenset(i for i in range(1, n) if mask >> (i - 1) & 1) for mask in range(1 << (n - 1))
    ]


def test_blocks_of_rootset_is_shared_with_cosets():
    assert cosets.blocks_of_rootset is blocks_of_rootset
    assert blocks_of_rootset(1, set()) == [(1,)]
    assert blocks_of_rootset(5, {1, 2, 4}) == [(1, 2, 3), (4, 5)]


def test_enumerate_group():
    assert enumerate_group(1) == [(1,)]
    assert len(enumerate_group(3)) == 6
    assert enumerate_group(3) == sorted(enumerate_group(3))
    with pytest.raises(BoundExceededError):
        enumerate_group(10)


def test_enumerate_parabolic_sizes():
    import math

    assert enumerate_parabolic(3, {1}) == [(1, 2, 3), (2, 1, 3)]
    for n in range(2, 6):
        roots = list(range(1, n))
        for mask in range(1 << len(roots)):
            I = frozenset(roots[i] for i in range(len(roots)) if mask >> i & 1)
            sizes = []
            run = 1
            for i in range(1, n):
                if i in I:
                    run += 1
                else:
                    sizes.append(run)
                    run = 1
            sizes.append(run)
            expected = math.prod(math.factorial(s) for s in sizes)
            assert len(enumerate_parabolic(n, I)) == expected


def test_parse_format_roundtrip():
    assert parse_perm("[3,4,1,2]") == (3, 4, 1, 2)
    assert parse_perm("s2*s3*s1*s2", n=4) == (3, 4, 1, 2)
    assert parse_perm("e", n=3) == (1, 2, 3)
    assert parse_perm(format_perm((2, 1, 3))) == (2, 1, 3)
    assert parse_perm(format_word((3, 4, 1, 2)), n=4) == (3, 4, 1, 2)
    with pytest.raises(ValueError):
        parse_perm("[1,1,2]")
    with pytest.raises(ValueError):
        parse_perm("s1*s2")


@pytest.mark.parametrize(
    "func, args, message",
    [
        (simple_reflection, (4, 4), "index 4 out of range for rank 4"),
        (multiply, ((1, 2), (1, 2, 3)), "rank mismatch in multiply"),
        (bruhat_leq, ((1, 2), (1, 2, 3)), "rank mismatch in bruhat_leq"),
        (parse_perm, ("[1,2",), "malformed one-line permutation"),
        (parse_perm, ("[1,2,3]", 4), "rank mismatch: expected 4, got 3"),
        (parse_perm, ("t1", 3), "malformed word token"),
        (parse_perm, ("[]", 4), "malformed one-line permutation: '[]'"),
        (parse_perm, ("[1,2,3,4,]", 4), "malformed one-line permutation: '[1,2,3,4,]'"),
        (parse_perm, ("[1.0,2,3]",), "malformed one-line permutation: '[1.0,2,3]'"),
        (parse_perm, ("s", 4), "malformed word token: 's'"),
        (parse_perm, (" ", 4), "malformed word token: '' in ' '"),
        (parse_perm, ("s1**s2", 4), "malformed word token: '' in 's1**s2'"),
        (parse_perm, ("s1*", 4), "malformed word token: '' in 's1*'"),
    ],
    ids=["s4-rank4", "multiply", "bruhat-leq", "unclosed", "parse-rank", "word-token",
         "empty-brackets", "trailing-comma", "float-entry", "bare-s", "blank-word",
         "empty-inner-token", "empty-last-token"],
)
def test_bad_input_raises(func, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        func(*args)


def filtered_parabolic(n, roots):
    """Reference: the elements of S_n that permute each contiguous block
    of positions cut at the simple roots outside ``roots``."""
    members = []
    for w in enumerate_group(n):
        ok = True
        start = 0
        while start < n:
            stop = start
            while stop + 1 < n and (stop + 1) in roots:
                stop += 1
            block = set(range(start + 1, stop + 2))
            if {w[p - 1] for p in block} != block:
                ok = False
                break
            start = stop + 1
        if ok:
            members.append(w)
    return members


def test_enumerate_parabolic_matches_group_filter():
    for n in range(1, 7):
        for roots in root_sets(n):
            members = enumerate_parabolic(n, roots)
            assert members == filtered_parabolic(n, roots)
            assert all(support(w) <= roots for w in members)


def test_enumerate_parabolic_bound():
    with pytest.raises(BoundExceededError):
        enumerate_parabolic(10, set())
    with pytest.raises(BoundExceededError):
        enumerate_parabolic(10, frozenset(range(1, 10)))
    with pytest.raises(BoundExceededError):
        enumerate_parabolic(10, {1})
    assert len(enumerate_parabolic(9, {1})) == 2

import math
from fractions import Fraction

import pytest

from parastein.cosets import BlockSet
from parastein.segments import (
    Segment,
    jacquet_decomposition,
    jacquet_twists,
    jh_factors,
    pi_I_segments,
    pi_base_twists,
)
from parastein.steinberg_mult import check_complex_squares_zero, smooth_tits_euler_check
from parastein.weyl_core import (
    DEFAULT_ENUM_BOUND,
    BoundExceededError,
    identity,
)


def closed_base_twists(r, k):
    # the closed formula, kept apart from pi_base_twists as its reference
    return tuple(-Fraction(r, 2) * (k - 2 * i + 1) + (k - i) for i in range(1, k + 1))


def test_base_twists_examples():
    assert pi_base_twists(1, 2) == (Fraction(1, 2), Fraction(1, 2))
    assert pi_base_twists(2, 2) == (Fraction(0), Fraction(1))
    assert pi_base_twists(1, 1) == (Fraction(0),)


def test_base_twists_reject_nonpositive_shapes():
    # pi_base_twists is the identity term of jacquet_decomposition, so
    # both reject the same shapes.
    for r, k in ((0, 2), (-1, 2), (1, 0), (1, -1)):
        for fn in (pi_base_twists, jacquet_decomposition):
            with pytest.raises(ValueError, match="r and k must be positive"):
                fn(r, k)


def test_base_twists_centrality():
    # the normalizing half-density part sums to zero against block degrees
    for r in (1, 2, 3):
        for k in range(1, 7):
            base = pi_base_twists(r, k)
            assert sum((b - (k - i)) * r for i, b in enumerate(base, start=1)) == 0


def test_jacquet_examples():
    assert jacquet_decomposition(1, 1) == [((1,), (Fraction(0),))]
    tuples = {t for _, t in jacquet_decomposition(2, 2)}
    assert tuples == {(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(2))}
    assert jacquet_twists(identity(2), 2) == closed_base_twists(2, 2)


def test_jacquet_identity_term_is_base():
    for r in (1, 2, 3):
        for k in range(1, 6):
            assert jacquet_twists(identity(k), r) == closed_base_twists(r, k)
            assert pi_base_twists(r, k) == closed_base_twists(r, k)


def test_jacquet_distinctness():
    for k in range(1, 7):
        for r in (1, 2, 3):
            terms = jacquet_decomposition(r, k)
            assert len(terms) == math.factorial(k)
            tuples = [t for _, t in terms]
            assert len(set(tuples)) == len(tuples)


def test_pi_I_segments():
    # empty block set reproduces the base tuple
    for r in (1, 2, 3):
        for k in range(1, 6):
            segs = pi_I_segments(r, k, BlockSet(r, k))
            assert [s.block_length for s in segs] == [1] * k
            assert tuple(s.twist for s in segs) == pi_base_twists(r, k)
    # full block set: one segment of length k
    segs = pi_I_segments(2, 3, BlockSet(2, 3, frozenset({1, 2})))
    assert len(segs) == 1 and segs[0].block_length == 3
    # mixed shape
    segs = pi_I_segments(2, 3, BlockSet(2, 3, frozenset({1})))
    assert [s.block_length for s in segs] == [2, 1]
    with pytest.raises(ValueError, match="block set shape mismatch"):
        pi_I_segments(2, 3, BlockSet(1, 3))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0, Fraction(0))
    with pytest.raises(ValueError):
        Segment(1, Fraction(1, 3))


def test_jh_factor_counts():
    for r, k in [(1, 2), (2, 2), (1, 4), (3, 2), (2, 3), (1, 6)]:
        factors = jh_factors(r, k)
        assert len(factors) == 2 ** (k - 1)
        assert len({f.members for f in factors}) == len(factors)


def mask_sorted_jh_factors(r, k):
    """Reference: every subset of {1..k-1} by bitmask, sorted by
    (size, members)."""
    subsets = []
    indices = list(range(1, k))
    for mask in range(1 << len(indices)):
        members = frozenset(indices[i] for i in range(len(indices)) if mask >> i & 1)
        subsets.append(BlockSet(r, k, members))
    subsets.sort(key=lambda bs: (len(bs.members), sorted(bs.members)))
    return subsets


def test_jh_factors_match_mask_and_sort():
    for k in range(1, DEFAULT_ENUM_BOUND + 1):
        for r in (1, 2):
            assert jh_factors(r, k) == mask_sorted_jh_factors(r, k)


def test_jh_factors_reject_empty_shapes():
    for r, k in ((1, 0), (1, -1), (0, 2)):
        with pytest.raises(ValueError):
            jh_factors(r, k)


def test_jh_factors_bounded_before_enumerating():
    assert len(jh_factors(1, DEFAULT_ENUM_BOUND)) == 2 ** (DEFAULT_ENUM_BOUND - 1)
    # k = 40 would mean 2^39 labels: the bound must stop jh_factors, and the
    # two smooth Tits checks that span the labels, before any is built.
    for k in (DEFAULT_ENUM_BOUND + 1, 40):
        for spans_labels in (
            lambda: jh_factors(1, k),
            lambda: smooth_tits_euler_check(BlockSet(1, k)),
            lambda: check_complex_squares_zero(BlockSet(1, k)),
        ):
            with pytest.raises(BoundExceededError, match=f"k = {k} exceeds enumeration bound"):
                spans_labels()

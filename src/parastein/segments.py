"""Segment bookkeeping for smooth parabolic inductions in blocks of size r.

The inducing cuspidal is an opaque symbol; everything computable about
the representations used downstream is a block shape plus an exact
rational twist exponent per block.  This module produces the base twist
tuple, its full Weyl-orbit (Jacquet) decomposition, per-Levi-block
segment data, edge orientations attached to Weyl elements, and the
2^{k-1} labels of the Jordan-Holder factors of the full induction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cosets import BlockSet
from .weyl_core import (
    DEFAULT_ENUM_BOUND,
    BoundExceededError,
    Perm,
    _Frozen,
    enumerate_group,
    identity,
    left_ascents,
)


class Segment(_Frozen):
    """A segment label: length in cuspidal copies plus a rational twist."""

    __slots__ = ("block_length", "twist")

    def __init__(self, block_length: int, twist: Fraction) -> None:
        if block_length < 1:
            raise ValueError("segment length must be positive")
        if twist.denominator not in (1, 2):
            raise ValueError("twist denominator must be 1 or 2")
        object.__setattr__(self, "block_length", block_length)
        object.__setattr__(self, "twist", twist)


def pi_base_twists(r: int, k: int) -> tuple[Fraction, ...]:
    """Twist exponents of the normalized base tensor factor, block i
    getting -(r/2)(k-2i+1) + (k-i): the identity term of the Jacquet
    decomposition.

    >>> pi_base_twists(2, 2)
    (Fraction(0, 1), Fraction(1, 1))
    >>> pi_base_twists(1, 2)
    (Fraction(1, 2), Fraction(1, 2))
    >>> pi_base_twists(1, 1)
    (Fraction(0, 1),)
    """
    return jacquet_twists(identity(k), r)


def jacquet_twists(w: Perm, r: int) -> tuple[Fraction, ...]:
    """Twist tuple of the w-term of the Jacquet decomposition: block i
    gets w(k-i) - (r/2)(k-2i+1), with w acting on {0, ..., k-1}.

    >>> jacquet_twists((1, 2), 2)
    (Fraction(0, 1), Fraction(1, 1))
    >>> jacquet_twists((2, 1), 2)
    (Fraction(-1, 1), Fraction(2, 1))
    """
    k = len(w)
    return tuple(
        (w[k - i] - 1) - Fraction(r, 2) * (k - 2 * i + 1) for i in range(1, k + 1)
    )


def jacquet_decomposition(r: int, k: int) -> list[tuple[Perm, tuple[Fraction, ...]]]:
    """All k! Weyl twists of the base tuple, in lexicographic order of w.

    >>> jacquet_decomposition(1, 1)
    [((1,), (Fraction(0, 1),))]
    >>> [t for _, t in jacquet_decomposition(2, 2)]
    [(Fraction(0, 1), Fraction(1, 1)), (Fraction(-1, 1), Fraction(2, 1))]
    """
    if r < 1 or k < 1:
        raise ValueError("r and k must be positive")
    return [(w, jacquet_twists(w, r)) for w in enumerate_group(k)]


def pi_I_segments(r: int, k: int, I: BlockSet) -> list[Segment]:
    """Per-Levi-block segments for the block set I: block i of size k_i
    carries twist -(r/2)(k - 2*s_{i-1} - k_i) + (k - s_i) with s_i the
    plain partial sums of the block sizes.

    >>> pi_I_segments(2, 2, BlockSet(2, 2))  # doctest: +NORMALIZE_WHITESPACE
    [Segment(block_length=1, twist=Fraction(0, 1)),
     Segment(block_length=1, twist=Fraction(1, 1))]
    >>> pi_I_segments(1, 2, BlockSet(1, 2, frozenset({1})))
    [Segment(block_length=2, twist=Fraction(0, 1))]
    """
    if I.r != r or I.k != k:
        raise ValueError("block set shape mismatch")
    parts = I.partition()
    out = []
    s_prev = 0
    for k_i in parts:
        s_i = s_prev + k_i
        twist = -Fraction(r, 2) * (k - 2 * s_prev - k_i) + (k - s_i)
        out.append(Segment(k_i, twist))
        s_prev = s_i
    return out


def orientation_of(w: Perm) -> tuple[bool, ...]:
    """Edge orientations attached to w: edge i points right iff
    w(i) < w(i+1).

    >>> orientation_of((1, 2, 3))
    (True, True)
    >>> orientation_of((3, 1, 2))
    (False, True)
    """
    k = len(w)
    return tuple(w[i - 1] < w[i] for i in range(1, k))


def theta_fiber(I: BlockSet) -> list[Perm]:
    """All w in S_k whose left-ascent set {i : w^{-1}(i) < w^{-1}(i+1)}
    equals the members of I; the fibers over all I partition S_k.

    >>> theta_fiber(BlockSet(1, 2))
    [(2, 1)]
    >>> theta_fiber(BlockSet(1, 2, frozenset({1})))
    [(1, 2)]
    """
    return [w for w in enumerate_group(I.k) if left_ascents(w) == I.members]


def jh_factors(r: int, k: int) -> list[BlockSet]:
    """The 2^{k-1} Jordan-Holder labels of the full induction: every
    subset of the block roots, sorted by (size, members).

    >>> len(jh_factors(2, 2))
    2
    >>> len(jh_factors(1, 4))
    8

    There are 2^{k-1} labels, so k is held to the enumeration bound:

    >>> jh_factors(1, 40)
    Traceback (most recent call last):
    ...
    parastein.weyl_core.BoundExceededError: k = 40 exceeds enumeration bound 9
    """
    if k > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"k = {k} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    # combinations() yields each size's subsets in lexicographic order.
    roots = range(1, k)
    return [
        BlockSet(r, k, frozenset(members))
        for t in range(len(roots) + 1)
        for members in itertools.combinations(roots, t)
    ]

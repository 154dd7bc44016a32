"""Double-coset combinatorics and block-scaled subgroups.

A ``BlockSet`` records a subset of the block-boundary simple roots
``{r, 2r, ..., (k-1)r}`` of ``S_n`` with ``n = r*k``, stored as block
indices ``{1, ..., k-1}``.  Minimal-length double-coset representatives,
the row/column-sum matrix bijection, and the modulus exponents of the
associated Levi blocks all live here.
"""

from __future__ import annotations

from .weyl_core import (
    Perm,
    _Frozen,
    blocks_of_rootset,
    enumerate_group,
    left_descents,
    length,
    right_descents,
)


class BlockSet(_Frozen):
    """Subset of the block roots of S_{rk}, stored as block indices."""

    __slots__ = ("r", "k", "members")

    def __init__(self, r: int, k: int, members: frozenset[int] = frozenset()) -> None:
        if r < 1 or k < 1:
            raise ValueError("r and k must be positive")
        bad = [i for i in members if not 1 <= i <= k - 1]
        if bad:
            raise ValueError(f"block indices {bad} out of range 1..{k - 1}")
        super().__init__(r, k, frozenset(members))

    @property
    def n(self) -> int:
        return self.r * self.k

    def partition(self) -> tuple[int, ...]:
        """Ordered partition of k given by the gaps of members in {1,...,k-1}.

        >>> BlockSet(2, 2).partition()
        (1, 1)
        >>> BlockSet(2, 2, frozenset({1})).partition()
        (2,)
        >>> BlockSet(1, 5, frozenset({2, 3})).partition()
        (1, 3, 1)
        """
        return tuple(len(b) for b in blocks_of_rootset(self.k, self.members))


def _mask(members: frozenset[int]) -> int:
    """Block set as an int: block index i is bit i - 1."""
    return sum(1 << (i - 1) for i in members)


def _members(mask: int) -> frozenset[int]:
    """Inverse of ``_mask``: the block indices of the bits of ``mask``."""
    return frozenset(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


def _parabolic_roots(r: int, k: int, mask: int) -> frozenset[int]:
    """The inner roots plus the roots of the blocks in ``mask``.

    >>> sorted(_parabolic_roots(2, 3, 0b10))
    [1, 3, 4, 5]
    """
    return frozenset(i for i in range(1, r * k) if i % r or mask >> (i // r - 1) & 1)


def parse_blockset(text: str, r: int, k: int) -> BlockSet:
    """Parse a comma list of block indices; "-" is the empty set.

    >>> sorted(parse_blockset("1,3", 1, 4).members)
    [1, 3]
    >>> parse_blockset("-", 2, 2).members
    frozenset()
    """
    text = text.strip()
    if text == "-" or text == "":
        return BlockSet(r, k)
    try:
        members = frozenset(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"malformed block set: {text!r}") from None
    return BlockSet(r, k, members)


def format_blockset(bs: BlockSet) -> str:
    """Inverse of parse_blockset.

    >>> format_blockset(BlockSet(1, 4, frozenset({3, 1})))
    '1,3'
    >>> format_blockset(BlockSet(2, 2))
    '-'
    """
    if not bs.members:
        return "-"
    return ",".join(str(i) for i in sorted(bs.members))


def is_min_rep(w: Perm, I_roots: frozenset[int] | set[int], J_roots: frozenset[int] | set[int]) -> bool:
    """True iff w is the minimal-length element of its (W_I, W_J) double
    coset: no J-root is a right descent of w and no I-root a left
    descent.

    >>> is_min_rep((1, 2, 3, 4), {1, 3}, {1, 3})
    True
    >>> is_min_rep((2, 1, 3, 4), {1}, set())
    False
    """
    return not (right_descents(w) & J_roots or left_descents(w) & I_roots)


def min_double_coset_reps(
    n: int,
    I_roots: frozenset[int] | set[int],
    J_roots: frozenset[int] | set[int],
) -> list[Perm]:
    """Minimal-length double-coset representatives, sorted by
    (length, one-line lex).

    >>> min_double_coset_reps(2, set(), set())
    [(1, 2), (2, 1)]
    >>> min_double_coset_reps(3, {1}, {1})
    [(1, 2, 3), (1, 3, 2)]
    >>> len(min_double_coset_reps(4, {1, 3}, set()))
    6
    >>> len(min_double_coset_reps(4, {1, 3}, {1, 3}))
    3
    """
    reps = [w for w in enumerate_group(n) if is_min_rep(w, I_roots, J_roots)]
    reps.sort(key=lambda w: (length(w), w))
    return reps


def coset_matrix(
    w: Perm, I_roots: frozenset[int] | set[int], J_roots: frozenset[int] | set[int]
) -> list[list[int]]:
    """The matrix B(w) with entries |I_i ∩ w(J_j)| over the blocks of the
    two root sets; row sums are the I-block sizes, column sums the
    J-block sizes.

    >>> coset_matrix((1, 2, 3, 4), {1, 3}, {1, 3})
    [[2, 0], [0, 2]]
    >>> coset_matrix((3, 4, 1, 2), {1, 3}, {1, 3})
    [[0, 2], [2, 0]]
    """
    if not is_min_rep(w, I_roots, J_roots):
        raise ValueError("coset_matrix requires a minimal double-coset representative")
    n = len(w)
    I_blocks = blocks_of_rootset(n, I_roots)
    J_blocks = blocks_of_rootset(n, J_roots)
    return [
        [len(set(bi) & {w[j - 1] for j in bj}) for bj in J_blocks] for bi in I_blocks
    ]


def modulus_exponents(I: BlockSet) -> tuple[int, ...]:
    """Per-Levi-block modulus exponents, in the difference form
    a_i = r * (sum of earlier block sizes - sum of later block sizes).

    >>> modulus_exponents(BlockSet(2, 2))
    (-2, 2)
    >>> modulus_exponents(BlockSet(2, 2, frozenset({1})))
    (0,)
    >>> modulus_exponents(BlockSet(1, 4))
    (-3, -1, 1, 3)
    """
    parts = I.partition()
    out = []
    for i in range(len(parts)):
        out.append(I.r * (sum(parts[:i]) - sum(parts[i + 1 :])))
    return tuple(out)


def matrix_count(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> int:
    """Number of nonnegative integer matrices with the given row and
    column sums (brute-force oracle for coset counts).

    >>> matrix_count((2, 2), (2, 2))
    3
    >>> matrix_count((1, 1, 1), (1, 1, 1))
    6
    """
    # Fill the rows in order, counting the ways to reach each state: the
    # column sums still open, nonzero and sorted, as the count does not
    # depend on the order of the columns.  The table lives for this call.
    ways = {tuple(sorted(c for c in col_sums if c)): 1}
    for total in row_sums:
        filled: dict[tuple[int, ...], int] = {}
        for caps, count in ways.items():
            for comp in _bounded_compositions(total, caps):
                rest = tuple(sorted(c - e for c, e in zip(caps, comp) if c != e))
                filled[rest] = filled.get(rest, 0) + count
        ways = filled
    return ways.get((), 0)


def _bounded_compositions(total: int, caps: tuple[int, ...]):
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _bounded_compositions(total - first, caps[1:]):
            yield (first,) + rest


def double_coset_count_oracle(
    n: int, I_roots: frozenset[int] | set[int], J_roots: frozenset[int] | set[int]
) -> int:
    """Independent count of double cosets via the matrix bijection.

    >>> double_coset_count_oracle(4, {1, 3}, {1, 3})
    3
    >>> double_coset_count_oracle(3, set(), set())
    6
    """
    rows = tuple(len(b) for b in blocks_of_rootset(n, I_roots))
    cols = tuple(len(b) for b in blocks_of_rootset(n, J_roots))
    return matrix_count(rows, cols)

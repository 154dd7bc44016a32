"""Double-coset combinatorics and block-scaled subgroups.

A ``BlockSet`` records a subset of the block-boundary simple roots
``{r, 2r, ..., (k-1)r}`` of ``S_n`` with ``n = r*k``, stored as block
indices ``{1, ..., k-1}``.  Minimal-length double-coset representatives,
the row/column-sum matrix bijection, the block-diagonal embedding
``S_k -> S_n``, and the modulus exponents of the associated Levi blocks
all live here.
"""

from __future__ import annotations

from .weyl_core import (
    Perm,
    _Frozen,
    blocks_of_rootset,
    enumerate_group,
    inverse,
    length,
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
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "members", frozenset(members))

    @property
    def n(self) -> int:
        return self.r * self.k

    def roots(self) -> frozenset[int]:
        """Simple roots {i*r : i in members} inside {1, ..., n-1}.

        >>> sorted(BlockSet(2, 3, frozenset({1})).roots())
        [2]
        """
        return frozenset(i * self.r for i in self.members)

    def inner_roots(self) -> frozenset[int]:
        """Simple roots of {1,...,n-1} that are NOT multiples of r
        (the roots internal to the r-blocks).

        >>> sorted(BlockSet(2, 2).inner_roots())
        [1, 3]
        """
        return frozenset(i for i in range(1, self.n) if i % self.r != 0)

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
    return BlockSet(r, k, frozenset(int(t) for t in text.split(",")))


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
    coset: w maps the J-roots to positive roots and w^{-1} maps the
    I-roots to positive roots.

    >>> is_min_rep((1, 2, 3, 4), {1, 3}, {1, 3})
    True
    >>> is_min_rep((2, 1, 3, 4), {1}, set())
    False
    """
    winv = inverse(w)
    return all(w[j - 1] < w[j] for j in J_roots) and all(
        winv[i - 1] < winv[i] for i in I_roots
    )


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


def block_embed(w_small: Perm, r: int) -> Perm:
    """Block-diagonal embedding of S_k into S_{rk}: position (i-1)*r + l
    maps to (w(i)-1)*r + l.

    >>> block_embed((2, 1), 2)
    (3, 4, 1, 2)
    >>> block_embed((2, 3, 1), 1)
    (2, 3, 1)
    """
    k = len(w_small)
    out = [0] * (r * k)
    for i in range(1, k + 1):
        for l in range(1, r + 1):
            out[(i - 1) * r + l - 1] = (w_small[i - 1] - 1) * r + l
    return tuple(out)


def block_restrict(w: Perm, r: int) -> Perm | None:
    """Inverse of block_embed where defined: the S_k element whose
    embedding is w, or None if w is not block-diagonal of width r.

    >>> block_restrict((3, 4, 1, 2), 2)
    (2, 1)
    >>> block_restrict((1, 3, 2, 4), 2) is None
    True
    """
    if len(w) % r != 0:
        return None
    # The candidate is read off the first entry of each block; w is an
    # embedding exactly when it is the candidate's.
    small = tuple((base - 1) // r + 1 for base in w[::r])
    return small if block_embed(small, r) == w else None


def is_in_W_IJ(w: Perm, I: BlockSet, J: BlockSet) -> bool:
    """True iff w both normalizes the block Levi (is a block-diagonal
    embedding of some S_k element) and is a minimal representative of its
    double coset for the parabolics on inner roots plus I, resp. J.

    >>> from .weyl_core import simple_reflection
    >>> is_in_W_IJ((1, 2, 3, 4), BlockSet(2, 2), BlockSet(2, 2))
    True
    >>> is_in_W_IJ((3, 4, 1, 2), BlockSet(2, 2), BlockSet(2, 2))
    True
    >>> is_in_W_IJ(simple_reflection(2, 4), BlockSet(2, 2), BlockSet(2, 2))
    False
    """
    if I.r != J.r or I.k != J.k:
        raise ValueError("mismatched block shapes")
    if block_restrict(w, I.r) is None:
        return False
    return is_min_rep(w, I.inner_roots() | I.roots(), J.inner_roots() | J.roots())


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

"""Exact symmetric-group machinery for type-A Weyl groups.

Permutations are stored in one-line notation as tuples of the integers
``1..n``: the entry at index ``i-1`` is ``w(i)``.  Composition is function
composition acting on positions, ``multiply(u, v)(i) == u(v(i))``; under
this convention the product ``s2*s1*s3*s2`` in S_4 has one-line form
``(3, 4, 1, 2)``.

Multi-component elements (used when several field embeddings are in play)
are tuples of ``d_L`` permutations of the same rank, handled by the
``mw_*`` helpers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

Perm = tuple[int, ...]
MultiWeyl = tuple[Perm, ...]

DEFAULT_ENUM_BOUND = 9


class BoundExceededError(RuntimeError):
    """A computation exceeded a configured resource bound."""


def identity(n: int) -> Perm:
    """Identity permutation of rank n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def simple_reflection(i: int, n: int) -> Perm:
    """The adjacent transposition s_i swapping i and i+1, 1 <= i <= n-1.

    >>> simple_reflection(2, 4)
    (1, 3, 2, 4)
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for rank {n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def multiply(u: Perm, v: Perm) -> Perm:
    """Compose permutations: (u*v)(i) = u(v(i)).

    >>> s2 = simple_reflection(2, 4); s1 = simple_reflection(1, 4)
    >>> s3 = simple_reflection(3, 4)
    >>> multiply(multiply(multiply(s2, s1), s3), s2)
    (3, 4, 1, 2)
    """
    if len(u) != len(v):
        raise ValueError("rank mismatch in multiply")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inverse(w: Perm) -> Perm:
    """Group inverse.

    >>> inverse((3, 4, 1, 2))
    (3, 4, 1, 2)
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def length(w: Perm) -> int:
    """Coxeter length = inversion count.

    >>> length((3, 4, 1, 2))
    4
    >>> length((4, 3, 2, 1))
    6
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_descents(w: Perm) -> frozenset[int]:
    """{i : w(i) > w(i+1)}, i.e. {i : l(w s_i) < l(w)}.

    >>> sorted(right_descents((3, 4, 1, 2)))
    [2]
    """
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Perm) -> frozenset[int]:
    """{i : l(s_i w) < l(w)} = {i : w^{-1}(i) > w^{-1}(i+1)}.

    >>> sorted(left_descents((3, 4, 1, 2)))
    [2]
    """
    return right_descents(inverse(w))


def left_ascents(w: Perm) -> frozenset[int]:
    """Complement of the left-descent set inside {1, ..., n-1}.

    >>> sorted(left_ascents((3, 4, 1, 2)))
    [1, 3]
    """
    return frozenset(range(1, len(w))) - left_descents(w)


@lru_cache(maxsize=None)
def reduced_word(w: Perm) -> tuple[int, ...]:
    """One reduced word for w, as a tuple of simple-reflection indices
    multiplied left to right.

    >>> reduced_word((3, 4, 1, 2))
    (2, 3, 1, 2)
    >>> reduced_word((1, 2, 3))
    ()
    """
    letters: list[int] = []
    cur = w
    n = len(w)
    while True:
        des = right_descents(cur)
        if not des:
            break
        i = min(des)
        letters.append(i)
        cur = multiply(cur, simple_reflection(i, n))
    return tuple(reversed(letters))


def from_word(n: int, word: tuple[int, ...]) -> Perm:
    """Evaluate a word of simple-reflection indices, left to right.

    >>> from_word(4, (2, 1, 3, 2))
    (3, 4, 1, 2)
    """
    w = identity(n)
    for a in word:
        w = multiply(w, simple_reflection(a, n))
    return w


def support(w: Perm) -> frozenset[int]:
    """Set of simple-reflection indices occurring in any reduced word of w.

    >>> sorted(support((3, 4, 1, 2)))
    [1, 2, 3]
    >>> support((1, 2, 3, 4))
    frozenset()
    """
    return frozenset(reduced_word(w))


def longest_element(n: int, roots: frozenset[int] | set[int]) -> Perm:
    """Longest element of the parabolic subgroup generated by {s_i : i in roots}.

    >>> longest_element(4, set())
    (1, 2, 3, 4)
    >>> longest_element(4, {1, 2, 3})
    (4, 3, 2, 1)
    >>> longest_element(4, {1, 3})
    (2, 1, 4, 3)
    """
    w = list(range(1, n + 1))
    start = 0
    while start < n:
        stop = start
        while stop + 1 < n and (stop + 1) in roots:
            stop += 1
        w[start : stop + 1] = reversed(w[start : stop + 1])
        start = stop + 1
    return tuple(w)


def enumerate_group(n: int, bound: int = DEFAULT_ENUM_BOUND) -> list[Perm]:
    """All of S_n in lexicographic one-line order.

    >>> enumerate_group(1)
    [(1,)]
    >>> len(enumerate_group(3))
    6
    """
    if n > bound:
        raise BoundExceededError(f"rank {n} exceeds enumeration bound {bound}")
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


@lru_cache(maxsize=None)
def _parabolic_cached(n: int, roots: frozenset[int], bound: int) -> tuple[Perm, ...]:
    members = []
    for w in enumerate_group(n, bound):
        # w lies in the parabolic iff it permutes each contiguous block,
        # equivalently support(w) is contained in the generating set.
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
    return tuple(members)


def enumerate_parabolic(
    n: int, roots: frozenset[int] | set[int], bound: int = DEFAULT_ENUM_BOUND
) -> list[Perm]:
    """All elements of the parabolic subgroup generated by {s_i : i in roots},
    in lexicographic one-line order.

    >>> enumerate_parabolic(3, {1})
    [(1, 2, 3), (2, 1, 3)]
    >>> len(enumerate_parabolic(4, {1, 3}))
    4
    """
    return list(_parabolic_cached(n, frozenset(roots), bound))


@lru_cache(maxsize=None)
def bruhat_downset(w: Perm) -> frozenset[Perm]:
    """{x : x <= w in Bruhat order}, via the subword property applied to one
    fixed reduced word of w.

    >>> sorted(length(x) for x in bruhat_downset((2, 1, 4, 3)))
    [0, 1, 1, 2]
    """
    n = len(w)
    down: set[Perm] = {identity(n)}
    for a in reduced_word(w):
        s = simple_reflection(a, n)
        down |= {multiply(u, s) for u in down}
    return frozenset(down)


@lru_cache(maxsize=None)
def _rank_table(w: Perm) -> tuple[tuple[int, ...], ...]:
    # table[i][j] = #{a <= i : w(a) >= j}, 1-based i, j.
    n = len(w)
    table = []
    row = [0] * (n + 1)
    for i in range(1, n + 1):
        row = list(row)
        for j in range(1, n + 1):
            row[j] += 1 if w[i - 1] >= j else 0
        table.append(tuple(row))
    return tuple(table)


def _rank_matrix_leq(x: Perm, w: Perm) -> bool:
    tx, tw = _rank_table(x), _rank_table(w)
    n = len(x)
    return all(tx[i][j] <= tw[i][j] for i in range(n) for j in range(1, n + 1))


def bruhat_leq(x: Perm, w: Perm) -> bool:
    """Bruhat order test, computed two independent ways (subword down-set
    and the rank-matrix dominance criterion) which must agree.

    >>> bruhat_leq((1, 2, 3, 4), (3, 4, 1, 2))
    True
    >>> bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    True
    >>> bruhat_leq((2, 1, 3, 4), (1, 3, 2, 4))
    False
    """
    if len(x) != len(w):
        raise ValueError("rank mismatch in bruhat_leq")
    by_subword = x in bruhat_downset(w)
    by_rank = _rank_matrix_leq(x, w)
    if by_subword != by_rank:  # pragma: no cover - internal consistency
        raise RuntimeError(f"Bruhat criteria disagree on {x} <= {w}")
    return by_subword


# ---------------------------------------------------------------------------
# Multi-component elements


def mw_ascent_intersection(w: MultiWeyl) -> frozenset[int]:
    """Intersection over components of the left-ascent sets; this is the
    maximal joint dominance set.

    >>> sorted(mw_ascent_intersection(((1, 3, 2, 4), (1, 2, 3, 4))))
    [1, 3]
    """
    out = frozenset(range(1, len(w[0])))
    for c in w:
        out &= left_ascents(c)
    return out


# ---------------------------------------------------------------------------
# Text forms


def parse_perm(text: str, n: int | None = None) -> Perm:
    """Parse "[3,4,1,2]" (one-line) or "s2*s1*s3*s2" (word; needs n) or "e".

    >>> parse_perm("[3,4,1,2]")
    (3, 4, 1, 2)
    >>> parse_perm("s2*s1*s3*s2", n=4)
    (3, 4, 1, 2)
    >>> parse_perm("e", n=3)
    (1, 2, 3)
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"malformed one-line permutation: {text!r}")
        entries = tuple(int(t) for t in text[1:-1].split(","))
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"not a permutation of 1..{len(entries)}: {text!r}")
        if n is not None and len(entries) != n:
            raise ValueError(f"rank mismatch: expected {n}, got {len(entries)}")
        return entries
    if n is None:
        raise ValueError("word-form permutations require the rank n")
    if text == "e":
        return identity(n)
    word = []
    for tok in text.split("*"):
        tok = tok.strip()
        if not tok.startswith("s"):
            raise ValueError(f"malformed word token: {tok!r}")
        word.append(int(tok[1:]))
    return from_word(n, tuple(word))


def format_perm(w: Perm) -> str:
    """One-line text form.

    >>> format_perm((3, 4, 1, 2))
    '[3,4,1,2]'
    """
    return "[" + ",".join(str(x) for x in w) + "]"


def format_word(w: Perm) -> str:
    """Reduced-word text form.

    >>> format_word((3, 4, 1, 2))
    's2*s3*s1*s2'
    >>> format_word((1, 2))
    'e'
    """
    word = reduced_word(w)
    return "*".join(f"s{a}" for a in word) if word else "e"


if __name__ == "__main__":
    import doctest

    doctest.testmod()

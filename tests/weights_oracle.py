"""Integral weights over embeddings, the shifted dot action, and dominance:
the tests' independent check of the constituent labels.

The paper labels the constituents of a generalized Steinberg module by
the w whose shifted zero weight is dominant for the inner roots plus S.
The package decides this from the left ascents of w's components; this
module decides it from the definition, and ``_admissible_labels`` lists
the labels the package's enumeration starts from.

A weight is a ``d_L x n`` integer matrix stored as a tuple of rows, one
row per embedding.  The half-sum of positive roots is stored with the
integer shift ``(n-1, n-2, ..., 0)``; the shift cancels inside the dot
action ``w . lam = w(lam + rho) - rho``, so all results are exact
integers.
"""

from __future__ import annotations

from parastein.cosets import BlockSet
from parastein.steinberg_mult import _block_set, _label_groups
from parastein.weyl_core import MultiWeyl, inverse

Weight = tuple[tuple[int, ...], ...]


def zero_weight(n: int, d_L: int) -> Weight:
    """The zero weight with d_L rows.

    >>> zero_weight(3, 2)
    ((0, 0, 0), (0, 0, 0))
    """
    return tuple((0,) * n for _ in range(d_L))


def rho_shifted(n: int) -> tuple[int, ...]:
    """Integer-shifted half-sum of positive roots.

    >>> rho_shifted(4)
    (3, 2, 1, 0)
    """
    return tuple(range(n - 1, -1, -1))


def dot_action(w: MultiWeyl, lam: Weight) -> Weight:
    """The shifted action w . lam = w(lam + rho) - rho, componentwise per
    embedding; w permutes coordinates by mu -> (mu_{w^{-1}(1)}, ...).

    >>> dot_action(((2, 1),), ((0, 0),))
    ((-1, 1),)
    >>> dot_action(((1, 2, 3),), ((5, 1, 0),))
    ((5, 1, 0),)
    """
    if len(w) != len(lam):
        raise ValueError("embedding count mismatch in dot_action")
    n = len(lam[0])
    rho = rho_shifted(n)
    out = []
    for comp, row in zip(w, lam):
        if len(comp) != n or len(row) != n:
            raise ValueError("rank mismatch in dot_action")
        winv = inverse(comp)
        mu = tuple(row[i] + rho[i] for i in range(n))
        permuted = tuple(mu[winv[i] - 1] for i in range(n))
        out.append(tuple(permuted[i] - rho[i] for i in range(n)))
    return tuple(out)


def is_I_dominant(lam: Weight, roots: frozenset[int] | set[int], plus: bool = True) -> bool:
    """Plus: lam_i >= lam_{i+1} for every i in roots and every embedding;
    minus: the reversed comparisons.

    >>> is_I_dominant(((0, 0),), {1})
    True
    >>> is_I_dominant(((-1, 1),), {1})
    False
    >>> is_I_dominant(((-1, 1),), {1}, plus=False)
    True
    """
    for row in lam:
        for i in roots:
            if plus and row[i - 1] < row[i]:
                return False
            if not plus and row[i - 1] > row[i]:
                return False
    return True


def dominance_set(w: MultiWeyl, lam: Weight) -> frozenset[int]:
    """The maximal root set J with w . lam plus-dominant for J; requires
    lam itself dominant.  For dominant lam this coincides with the
    intersection over embeddings of the left-ascent sets of w.

    >>> sorted(dominance_set(((1, 2, 3, 4),), zero_weight(4, 1)))
    [1, 2, 3]
    >>> sorted(dominance_set(((3, 4, 1, 2),), zero_weight(4, 1)))
    [1, 3]
    >>> sorted(dominance_set(((1, 3, 2, 4), (1, 2, 3, 4)), zero_weight(4, 2)))
    [1, 3]
    """
    n = len(lam[0])
    if not is_I_dominant(lam, set(range(1, n))):
        raise ValueError("dominance_set requires a dominant weight")
    moved = dot_action(w, lam)
    return frozenset(
        i
        for i in range(1, n)
        if all(row[i - 1] >= row[i] for row in moved)
    )


def _admissible_labels(
    S: BlockSet, d_L: int, max_len: int | None
) -> list[tuple[MultiWeyl, BlockSet]]:
    """Every label (w, J) that ``enumerate_constituents`` considers, zero
    multiplicities included, in its label order.

    >>> [(w, sorted(J.members)) for w, J in _admissible_labels(BlockSet(1, 2), 1, None)]
    [(((1, 2),), []), (((1, 2),), [1]), (((2, 1),), [])]
    """
    block_sets: dict[int, BlockSet] = {}
    groups = _label_groups(S, d_L, max_len)
    return [(w, _block_set(S, extra, block_sets)) for w, _, extras in groups for extra in extras]

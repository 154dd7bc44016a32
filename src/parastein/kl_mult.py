"""Kazhdan-Lusztig polynomials and highest-weight multiplicities.

Polynomials in the formal variable q are stored as tuples of integer
coefficients, index = power, trailing zeros trimmed.  ``kl_poly`` runs
the standard left-descent recursion with one memo table, the only one
in the package that outlives a call: it holds the P_{x,w} with x < w
in Bruhat order and the Bruhat down-sets the recursion walks, and the
cap, read at each insertion, counts both.  P_{w,w} = 1 and the
P_{x,w} = 0 with x not below w are answered without the memo, and
``kl_poly`` answers most of them before it builds a memo key: x == w
gives 1, then the four boundary entries of the rank matrix that
``bruhat_leq`` reads before its full scan (x(1), x(n), x^{-1}(1),
x^{-1}(n) against w's) give 0 on 10,043 of the 10,619 pairs of S_5 with
x not below w.  Answering these first took the benchmark's kl-cold
``call_p50_ms`` from 0.00080 to 0.00053 ms.  Only a pair that both tests
leave open meets the rank bound: above ``DEFAULT_ENUM_BOUND`` (9) it
raises ``BoundExceededError``, while a trivial pair is answered at any
rank.  ``_kl`` reads the memo next, and answers the remaining zeros by
the full ``bruhat_leq`` after a miss.
Where a left descent s of w is also one of x, ``_kl`` sums P_{sx,sw},
q P_{x,sw} and the mu-terms into one list of l(w) // 2 + 1
coefficients, long enough for every term, and trims it once;
``parabolic_verma_mult`` applies the alternating character formula over
a parabolic subgroup, skipping the u whose length rules out u <= comp.
"""

from __future__ import annotations

import os

from .cosets import BlockSet, _mask, _parabolic_roots
from .weyl_core import (
    DEFAULT_ENUM_BOUND,
    BoundExceededError,
    MultiWeyl,
    Perm,
    bruhat_downset,
    bruhat_leq,
    enumerate_parabolic,
    length,
    multiply,
    simple_reflection,
)

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)

_CACHE_CAP_ENV = "PARASTEIN_KL_CACHE_CAP"

# P_{x,w} under (x, w), the down-set of v under v.  A down-set key v is a
# tuple of ints and a pair key (x, w) a tuple of two Perms, so they never meet.
_kl_cache: dict[tuple[Perm, Perm] | Perm, Poly | frozenset[Perm]] = {}


def _cache_cap() -> int | None:
    raw = os.environ.get(_CACHE_CAP_ENV)
    if raw and not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{_CACHE_CAP_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw) if raw else None


def _store(key: tuple[Perm, Perm] | Perm, value):
    """Insert ``value`` under ``key`` unless the memo is at the cap."""
    cap = _cache_cap()
    if cap is not None and len(_kl_cache) >= cap:
        raise BoundExceededError(f"KL memo table exceeded the configured cap of {cap} entries")
    _kl_cache[key] = value
    return value


def poly_trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def kl_cache_size() -> int:
    return len(_kl_cache)


def kl_cache_clear() -> None:
    _kl_cache.clear()


def kl_poly(x: Perm, w: Perm) -> Poly:
    """The polynomial P_{x,w}; zero iff x is not below w in Bruhat order.

    In order: x == w answers 1; x(1) > w(1), x(n) < w(n),
    x^{-1}(1) > w^{-1}(1) or x^{-1}(n) < w^{-1}(n) answers 0; a rank
    above ``DEFAULT_ENUM_BOUND`` raises ``BoundExceededError``; anything
    else goes to the memo and the recursion in ``_kl``.  The trivial
    answers build no memo key and touch no memo.

    >>> kl_poly((1, 2, 3, 4), (3, 4, 1, 2))
    (1, 1)
    >>> kl_poly((3, 4, 1, 2), (3, 4, 1, 2))
    (1,)
    >>> kl_poly((2, 1, 3), (1, 2, 3))
    ()
    """
    n = len(w)
    if len(x) != n:
        raise ValueError("rank mismatch in kl_poly")
    if x == w:
        return ONE
    # bruhat_leq's four boundary entries, copied inline: a call to a shared
    # helper costs more than the test.  The tests pin that the copies agree.
    if x[0] > w[0] or x[-1] < w[-1] or x.index(1) > w.index(1) or x.index(n) < w.index(n):
        return ZERO
    if n > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"KL rank {n} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    return _kl(x, w)


def _kl(x: Perm, w: Perm) -> Poly:
    """P_{x,w} through the memo table.  After a memo miss, x == w
    answers ONE and x not below w answers ZERO before anything else:
    neither is stored, so the memo holds only the P_{x,w} with x < w and
    the down-sets, the entries that cost a recursion to rebuild.
    Polynomials and down-sets (never empty: each holds the identity) go
    in through ``_store``, which reads and checks the cap at each
    insertion, so a hit or a trivial pair never reads it, and frames that
    recursed before the memo filled cannot push it past the cap.  Every
    left descent is tested by index: i descends on y exactly when
    y^{-1}(i) > y^{-1}(i + 1)."""
    key = (x, w)
    cached = _kl_cache.get(key)
    if cached is not None:
        return cached
    if x == w:
        return ONE
    if not bruhat_leq(x, w):
        return ZERO
    n = len(w)
    s_idx = next(i for i in range(1, n) if w.index(i) > w.index(i + 1))
    s = simple_reflection(s_idx, n)
    sx = multiply(s, x)
    if x.index(s_idx) < x.index(s_idx + 1):
        # s ascends on x, so l(sx) > l(x) and by left-descent
        # invariance P_{x,w} = P_{sx,w}
        return _store(key, _kl(sx, w))
    v = multiply(s, w)  # shorter by one
    p_sx = _kl(sx, v)
    p_x = _kl(x, v)
    lw = length(w)
    # One coefficient list: no term has degree above l(w) / 2.
    acc = [0] * (lw // 2 + 1)
    for i, c in enumerate(p_sx):
        acc[i] += c
    for i, c in enumerate(p_x, 1):
        acc[i] += c
    for z in _kl_cache.get(v) or _store(v, bruhat_downset(v)):
        lz = length(z)
        if (lw - lz) % 2:  # l(v) - l(z) even, as l(v) = l(w) - 1
            continue
        if z.index(s_idx) < z.index(s_idx + 1):
            continue
        if not bruhat_leq(x, z):
            continue
        # mu(z, v): the coefficient of q^{(l(v) - l(z) - 1)/2} in P_{z,v}
        target = (lw - lz) // 2 - 1
        p = _kl(z, v)
        if target < len(p) and p[target]:
            mu = p[target]
            for i, c in enumerate(_kl(x, z), target + 1):
                acc[i] -= mu * c
    return _store(key, poly_trim(acc))


def kl_mu(z: Perm, v: Perm) -> int:
    """Coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v} (zero when the
    degree difference is even or z is not strictly below v).  ``_kl``
    reads mu inline; the W-graph test and the benchmark tracer are this
    function's callers.

    >>> kl_mu((1, 2, 3), (2, 1, 3))
    1
    >>> kl_mu((1, 2, 3, 4), (3, 4, 1, 2))
    0
    """
    d = length(v) - length(z)
    if d <= 0 or d % 2 == 0:
        return 0
    p = _kl(z, v)
    target = (d - 1) // 2
    return p[target] if target < len(p) else 0


def _check_ranks(w: MultiWeyl, n: int) -> None:
    """w must have one component per embedding, at least one, each of
    rank n."""
    if not w:
        raise ValueError("d_L must be at least 1, got 0")
    for comp in w:
        if len(comp) != n:
            raise ValueError(f"component rank {len(comp)} != {n}")


def parabolic_verma_mult(K: BlockSet, w: MultiWeyl) -> int:
    """Multiplicity of the simple module labelled by w inside the
    generalized Verma module attached to the parabolic on the inner
    roots plus the K block roots: the alternating sum over that
    parabolic subgroup of Verma multiplicities, factored over
    embeddings.

    >>> from .cosets import BlockSet
    >>> K = BlockSet(2, 2)
    >>> parabolic_verma_mult(K, ((1, 2, 3, 4),))
    1
    >>> parabolic_verma_mult(K, ((1, 3, 2, 4),))
    1
    >>> parabolic_verma_mult(K, ((2, 1, 3, 4),))
    0
    """
    _check_ranks(w, K.n)
    return _parabolic_verma_mult(K.r, K.k, _mask(K.members), w, {})


def _parabolic_verma_mult(r: int, k: int, mask: int, w: MultiWeyl, memo: dict) -> int:
    """``parabolic_verma_mult`` for K of shape (r, k) and block mask
    ``mask`` (block i is bit i - 1), with ``memo`` keeping the rows
    (u, l(u)) of each parabolic and each per-component alternating sum,
    so callers that pass one dict build each of them once.  A u other
    than the component and at least as long is not below it, so its
    P_{u,comp} = 0 is skipped without a KL lookup.  Keys hold the mask
    but not the shape: one dict serves one (r, k).  Every component must
    have rank r * k; callers check it at the boundary."""
    par = memo.get(mask)
    if par is None:
        roots = _parabolic_roots(r, k, mask)
        par = memo[mask] = [(u, length(u)) for u in enumerate_parabolic(r * k, roots)]
    out = 1
    for comp in w:
        acc = memo.get((mask, comp))
        if acc is None:
            acc = 0
            l_comp = length(comp)
            for u, l_u in par:
                if l_u >= l_comp and u != comp:
                    continue
                p = sum(kl_poly(u, comp))
                acc += -p if l_u % 2 else p
            memo[mask, comp] = acc
        out *= acc
        if out == 0:
            return 0
    return out

import itertools
import random

import pytest

from parastein import kl_mult
from parastein.cosets import BlockSet
from parastein.kl_mult import (
    kl_cache_clear,
    kl_cache_size,
    kl_mu,
    kl_poly,
    parabolic_verma_mult,
    poly_eval_one,
    verma_mult,
)
from parastein.weyl_core import (
    BoundExceededError,
    bruhat_leq,
    enumerate_group,
    identity,
    inverse,
    left_descents,
    length,
    multiply,
    simple_reflection,
)


def test_kl_diagonal_and_vanishing():
    for w in enumerate_group(3):
        assert kl_poly(w, w) == (1,)
        for x in enumerate_group(3):
            if not bruhat_leq(x, w):
                assert kl_poly(x, w) == ()


def test_kl_rank_zero():
    assert kl_poly((), ()) == (1,)
    with pytest.raises(ValueError, match="rank mismatch in kl_poly"):
        kl_poly((), (1,))


def test_kl_anchor_1_plus_q():
    assert kl_poly(identity(4), (3, 4, 1, 2)) == (1, 1)


def test_kl_longest_element_smooth():
    w0 = (4, 3, 2, 1)
    for x in enumerate_group(4):
        assert kl_poly(x, w0) == (1,)


def test_kl_suite_s4():
    group = enumerate_group(4)
    for x in group:
        for w in group:
            p = kl_poly(x, w)
            if not bruhat_leq(x, w):
                assert p == ()
                continue
            assert p[0] == 1
            assert all(c >= 0 for c in p)
            if x != w:
                assert 2 * (len(p) - 1) <= length(w) - length(x) - 1
            # inverse symmetry
            assert p == kl_poly(inverse(x), inverse(w))
            # left-descent invariance
            for s_idx in left_descents(w):
                s = simple_reflection(s_idx, 4)
                sx = multiply(s, x)
                if length(sx) > length(x):
                    assert kl_poly(sx, w) == p


@pytest.mark.parametrize("w", [(4, 2, 3, 1), (3, 4, 1, 2)], ids=["4231", "3412"])
def test_kl_anchor_4231(w):
    # The two singular Schubert varieties of S4: P_{e,w} = 1 + q.
    assert kl_poly(identity(4), w) == (1, 1)


def conjugate_by_w0(w):
    # w0 * w * w0 in one-line notation
    n = len(w)
    return tuple(n + 1 - w[n - i] for i in range(1, n + 1))


def test_kl_w0_conjugation_s5():
    group = enumerate_group(5)
    for x in group:
        for w in group:
            assert kl_poly(x, w) == kl_poly(conjugate_by_w0(x), conjugate_by_w0(w))


def contains_pattern(w, pattern):
    k = len(pattern)
    for positions in itertools.combinations(range(len(w)), k):
        values = [w[i] for i in positions]
        if all(
            (values[a] < values[b]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def test_lakshmibai_sandhya_s5():
    # P_{e,w} = 1 exactly when the Schubert variety of w is smooth, that
    # is, when w avoids the patterns 3412 and 4231.
    e = identity(5)
    for w in enumerate_group(5):
        smooth = not contains_pattern(w, (3, 4, 1, 2)) and not contains_pattern(w, (4, 2, 3, 1))
        assert (kl_poly(e, w) == (1,)) == smooth


def test_mu_symmetry_small():
    # mu is nonzero only in odd length gaps and agrees with the inverse pair
    group = enumerate_group(4)
    for z in group:
        for v in group:
            assert kl_mu(z, v) == kl_mu(inverse(z), inverse(v))


def w_graph_relations_hold(n, mu, seed=0):
    """Whether the W-graph of S_n built from ``mu`` gives a Hecke algebra
    representation (Kazhdan-Lusztig 1979, §1 and (2.3)).  Vertices are the
    y of S_n with their left descent sets L(y), and the edge weight is
    mu~(y, z) = mu(y, z) for y < z and mu(z, y) for z < y.  Then
    T_s e_y = -e_y if s is in L(y), and otherwise
    T_s e_y = q e_y + q^{1/2} * sum of mu~(y, z) e_z over z with s in L(z).
    The check is exact, at q = 4 and q^{1/2} = 2, on three seeded integer
    vectors: (T_s + 1)(T_s - q) = 0 for each s, and the braid relations.
    It reads mu only, never the recursion's descent steps."""
    group = enumerate_group(n)
    lengths = [length(w) for w in group]
    desc = [left_descents(w) for w in group]
    edges = [[] for _ in group]
    for i, y in enumerate(group):
        for j, z in enumerate(group):
            if (lengths[j] - lengths[i]) % 2 and lengths[i] < lengths[j]:
                m = mu(y, z)
                if m:
                    edges[i].append((j, m))
                    edges[j].append((i, m))

    def T(s, v):
        out = [0] * len(v)
        for y, c in enumerate(v):
            if not c:
                continue
            if s in desc[y]:
                out[y] -= c
                continue
            out[y] += 4 * c
            for z, m in edges[y]:
                if s in desc[z]:
                    out[z] += 2 * m * c
        return out

    rng = random.Random(seed)
    for _ in range(3):
        v = [rng.randint(-9, 9) for _ in group]
        for s in range(1, n):
            u = [a - 4 * b for a, b in zip(T(s, v), v)]
            if any(a + b for a, b in zip(T(s, u), u)):
                return False
            for t in range(s + 1, n):
                if t == s + 1:
                    braid = T(s, T(t, T(s, v))) == T(t, T(s, T(t, v)))
                else:
                    braid = T(s, T(t, v)) == T(t, T(s, v))
                if not braid:
                    return False
    return True


@pytest.mark.parametrize("n", [4, 5])
def test_w_graph_gives_a_hecke_representation(n):
    assert w_graph_relations_hold(n, kl_mu)


def test_w_graph_check_fails_on_one_raised_mu():
    # Raise one mu(x, y) by 1, for x < y with an odd length gap of at
    # least 3 (not a cover, whose mu is 1) and L(x) != L(y).  An edge
    # between equal descent sets enters no T_s, so those are not tried.
    group = enumerate_group(5)
    candidates = [
        (x, y)
        for x in group
        for y in group
        if (length(y) - length(x)) % 2
        and length(y) - length(x) >= 3
        and left_descents(x) != left_descents(y)
        and bruhat_leq(x, y)
    ]
    for x, y in random.Random(0).sample(candidates, 3):
        raised = lambda a, b, x=x, y=y: kl_mu(a, b) + ((a, b) == (x, y))
        assert not w_graph_relations_hold(5, raised), (x, y)


def test_verma_mult():
    assert verma_mult(((3, 4, 1, 2),), ((3, 4, 1, 2),)) == 1
    assert verma_mult((identity(4),), ((3, 4, 1, 2),)) == 2
    assert verma_mult(((2, 1),), ((1, 2),)) == 0
    # multi-component product
    assert verma_mult(
        (identity(4), identity(4)), ((3, 4, 1, 2), (3, 4, 1, 2))
    ) == 4
    with pytest.raises(ValueError):
        verma_mult((identity(3),), (identity(3), identity(3)))
    # An empty w is bad input, as in parabolic_verma_mult and the CLI.
    with pytest.raises(ValueError, match="d_L must be at least 1, got 0"):
        verma_mult((), ())


def test_verma_mult_support_condition():
    group = enumerate_group(4)
    for x in group[::3]:
        for w in group[::3]:
            assert (verma_mult((x,), (w,)) > 0) == bruhat_leq(x, w)


def test_parabolic_verma_constituents_anchor():
    K = BlockSet(2, 2)
    values = {w: parabolic_verma_mult(K, (w,)) for w in enumerate_group(4)}
    ones = {w for w, v in values.items() if v == 1}
    assert ones == {identity(4), (1, 3, 2, 4), (3, 4, 1, 2)}
    assert all(v in (0, 1) for v in values.values())
    assert values[(2, 1, 3, 4)] == 0


def test_parabolic_verma_nonnegative_envelope():
    for r, k in [(1, 3), (2, 2), (1, 4)]:
        for mask in range(1 << (k - 1)):
            K = BlockSet(r, k, frozenset(i + 1 for i in range(k - 1) if mask >> i & 1))
            for w in enumerate_group(r * k):
                assert parabolic_verma_mult(K, (w,)) >= 0


def test_parabolic_verma_checks_every_rank_first():
    # The first component's alternating sum is 0, so a check made per
    # component on the way would return 0 before it saw the bad rank.
    K = BlockSet(2, 2)
    assert parabolic_verma_mult(K, ((2, 1, 3, 4),)) == 0
    with pytest.raises(ValueError, match="rank"):
        parabolic_verma_mult(K, ((2, 1, 3, 4), (1, 2, 3)))


def test_parabolic_verma_rejects_empty_w():
    # No component means d_L = 0, which labels no module.
    with pytest.raises(ValueError, match="d_L must be at least 1, got 0"):
        parabolic_verma_mult(BlockSet(1, 3), ())


def test_parabolic_verma_full_parabolic_is_simple_indicator():
    # when K exhausts the block roots the parabolic is the full group and
    # the module is simple: multiplicity 1 at the identity only among
    # dominant-range labels
    K = BlockSet(1, 3, frozenset({1, 2}))
    values = {w: parabolic_verma_mult(K, (w,)) for w in enumerate_group(3)}
    assert values[identity(3)] == 1
    assert sum(map(abs, values.values())) == 1


# The cap tests fill the memo with P_{e,45231} = 1 + 2q, 136 entries from
# cold.  Not P_{e,w0}: keyed by the longest element of x's double coset
# under w's descents, as the KL recursion may be, P_{e,w0} is the key
# (w0, w0) and needs no entry.  45231 is singular, and under such keys
# P_{e,45231} still fills 15 entries, more than the cap of 10 below; the
# kl_mu pair (e, 34152) needs an entry beyond the cap under either key.
W_5 = (4, 5, 2, 3, 1)


def test_kl_cache_cap_bounds_the_memo(monkeypatch):
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", "10")
    kl_cache_clear()
    with pytest.raises(BoundExceededError, match="cap of 10"):
        kl_poly(identity(5), W_5)
    # The memo fills up to the cap and no further.
    assert kl_cache_size() == 10
    with pytest.raises(BoundExceededError):
        kl_mu(identity(5), (3, 4, 1, 5, 2))
    assert kl_cache_size() == 10


def test_kl_cache_unset_cap_means_no_cap(monkeypatch):
    monkeypatch.delenv("PARASTEIN_KL_CACHE_CAP", raising=False)
    kl_cache_clear()
    assert kl_poly(identity(5), W_5) == (1, 2)
    assert kl_cache_size() > 10


def test_kl_cache_cap_read_at_each_insertion(monkeypatch):
    # _store reads the cap before every insertion, down-sets included,
    # so a cold call reads it once per entry it leaves in the memo.
    monkeypatch.delenv("PARASTEIN_KL_CACHE_CAP", raising=False)
    reads = []
    real_cap = kl_mult._cache_cap
    monkeypatch.setattr(kl_mult, "_cache_cap", lambda: reads.append(1) or real_cap())
    kl_cache_clear()
    assert kl_poly(identity(5), W_5) == (1, 2)
    assert len(reads) == kl_cache_size() > 1
    # Memo hits read nothing.
    reads.clear()
    kl_poly(identity(5), W_5)
    kl_mu(identity(5), (1, 2, 4, 3, 5))
    assert reads == []
    # A trivial miss reads nothing: (2,1,3,4,5) is not below (1,3,2,4,5).
    size = kl_cache_size()
    assert kl_poly((2, 1, 3, 4, 5), (1, 3, 2, 4, 5)) == ()
    assert reads == [] and kl_cache_size() == size
    kl_cache_clear()


# Ten w in S6 of length 5 to 9, several holding the singular patterns 3412
# and 4231, so that 96 of their P_{x,w} are not 1.  Each w of S6 of length
# 10 or more would add 4 to 17 s.
S6_SAMPLE = [
    (3, 4, 1, 2, 6, 5), (4, 1, 5, 2, 6, 3), (3, 2, 5, 4, 1, 6), (2, 5, 4, 1, 3, 6),
    (4, 1, 6, 3, 2, 5), (4, 5, 1, 3, 2, 6), (4, 6, 1, 3, 2, 5), (6, 2, 4, 1, 3, 5),
    (2, 5, 6, 3, 1, 4), (2, 6, 5, 3, 1, 4),
]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kl_inversion_formula(n):
    # Kazhdan-Lusztig 1979, (3.1): for x <= w,
    # sum over x <= z <= w of (-1)^{l(x)+l(z)} P_{x,z} P_{w0 w, w0 z}
    # is 1 if x = w and 0 otherwise.  Every entry meets the others, so
    # one wrong coefficient shows.  S6 is checked on the w of S6_SAMPLE.
    w0 = tuple(range(n, 0, -1))
    group = enumerate_group(n)
    pairs = 0
    for w in S6_SAMPLE if n == 6 else group:
        interval = [z for z in group if bruhat_leq(z, w)]
        dual = {z: kl_poly(multiply(w0, w), multiply(w0, z)) for z in interval}
        for x in interval:
            total = [0] * (length(w) - length(x) + 1)
            for z in interval:
                if not bruhat_leq(x, z):
                    continue
                sign = -1 if (length(x) + length(z)) % 2 else 1
                for i, a in enumerate(kl_poly(x, z)):
                    for j, b in enumerate(dual[z]):
                        total[i + j] += sign * a * b
            assert total == [int(x == w)] + [0] * (len(total) - 1), (x, w)
            pairs += 1
    assert pairs == {4: 213, 5: 3781, 6: 792}[n]


def r_polynomials(n):
    """{(x, w): R_{x,w}} for x <= w in S_n, by the right-descent
    recursion (Kazhdan-Lusztig 1979, (2.0)): for ws < w, R_{x,w} =
    R_{xs,ws} if xs < x, and (q - 1) R_{x,ws} + q R_{xs,ws} otherwise;
    R_{e,e} = 1 and R_{x,w} = 0 unless x <= w.  Coefficient lists,
    index = power."""
    R = {}
    for w in sorted(enumerate_group(n), key=length):
        for x in enumerate_group(n):
            if x == w:
                R[x, w] = [1]
                continue
            if not bruhat_leq(x, w):
                continue
            i = next(i for i in range(n - 1) if w[i] > w[i + 1])
            ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            xs = x[:i] + (x[i + 1], x[i]) + x[i + 2:]
            r_xs = R.get((xs, ws), [])
            if x[i] > x[i + 1]:
                R[x, w] = r_xs
                continue
            r_x = R.get((x, ws), [])
            out = [0] * (max(len(r_xs), len(r_x)) + 1)
            for j, c in enumerate(r_x):
                out[j + 1] += c
                out[j] -= c
            for j, c in enumerate(r_xs):
                out[j + 1] += c
            R[x, w] = out
    return R


@pytest.mark.parametrize("n", [4, 5])
def test_kl_poly_matches_r_polynomial_route(n):
    # A second route to P_{x,w}: q^{l(w)-l(x)} P_{x,w}(q^-1) equals the
    # sum of R_{x,y} P_{y,w} over x <= y <= w (Kazhdan-Lusztig 1979,
    # (2.2.c)).  The y = x term is P_{x,w}, whose degree is at most
    # (l(w)-l(x)-1)/2 for x < w, while the left side has no term in
    # those degrees; so P_{x,w} is minus the sum over x < y <= w cut at
    # that degree, solved in decreasing l(x).
    R = r_polynomials(n)
    group = enumerate_group(n)
    pairs = 0
    for w in group:
        below = sorted((x for x in group if x != w and bruhat_leq(x, w)), key=length)
        P = {w: [1]}
        for x in reversed(below):
            top = (length(w) - length(x) - 1) // 2
            total = [0] * (top + 1)
            for y, p_y in P.items():
                r = R.get((x, y))
                if r is None:
                    continue
                for i, a in enumerate(r):
                    for j, b in enumerate(p_y):
                        if i + j <= top:
                            total[i + j] -= a * b
            while total and total[-1] == 0:
                total.pop()
            P[x] = total
            assert tuple(total) == kl_poly(x, w), (x, w)
            pairs += 1
    assert pairs == {4: 189, 5: 3661}[n]



def poly_combination(*terms):
    """The sum of the products a * b over the pairs (a, b) of coefficient
    lists in ``terms``, with trailing zeros dropped."""
    out = [0] * max((len(a) + len(b) - 1 for a, b in terms if a and b), default=0)
    for a, b in terms:
        for i, c in enumerate(a):
            for j, d in enumerate(b, i):
                out[j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return out


def parabolic_kl_at_e(n, J, x_is_q=True):
    """{v: P^{J,x}_{e,v}} over W^J, the v of S_n with no right descent in
    J, by Deodhar's parabolic R-polynomials (Deodhar, J. Algebra 111
    (1987); Björner-Brenti §6.1-6.3), with x = q, or x = -1 when
    ``x_is_q`` is false.  For s a left descent of v (s_i y swaps the
    values i and i + 1 of y): R^J_{u,v} = R^J_{su,sv} if s is a left
    descent of u; (q - 1) R^J_{u,sv} + q R^J_{su,sv} if not and su is in
    W^J; and (q - 1 - x) R^J_{u,sv} if su is not in W^J.  R^J_{v,v} = 1,
    and R^J_{u,v} = 0 when l(u) >= l(v) and u != v, so the recursion
    makes R^J_{u,v} = 0 for every u not below v with no Bruhat test.
    P^J is then solved as in ``test_kl_poly_matches_r_polynomial_route``:
    P^J_{u,v} is minus the sum of R^J_{u,z} P^J_{z,v} over the z of W^J
    with u < z <= v, cut below degree (l(v) - l(u)) / 2.  Lengths are
    inversion counts; nothing here reads the package."""
    group = list(itertools.permutations(range(1, n + 1)))
    cosets = [v for v in group if not any(v[i - 1] > v[i] for i in J)]
    in_cosets = set(cosets)
    lengths = {v: sum(a > b for a, b in itertools.combinations(v, 2)) for v in cosets}
    q, q_minus_1 = [0, 1], [-1, 1]
    q_minus_1_minus_x = [-1] if x_is_q else q
    R = {}

    def r_poly(u, v):
        if (u, v) in R:
            return R[u, v]
        if u == v:
            out = [1]
        elif lengths[u] >= lengths[v]:
            out = []
        else:
            s = next(i for i in range(1, n) if v.index(i) > v.index(i + 1))
            # s_s y: the values s and s + 1 of y swapped.
            sv, su = (tuple(2 * s + 1 - a if a in (s, s + 1) else a for a in y) for y in (v, u))
            if u.index(s) > u.index(s + 1):
                out = r_poly(su, sv)
            elif su in in_cosets:
                out = poly_combination((q_minus_1, r_poly(u, sv)), (q, r_poly(su, sv)))
            else:
                out = poly_combination((q_minus_1_minus_x, r_poly(u, sv)))
        R[u, v] = out
        return out

    above = {u: [(z, r) for z in cosets if z != u and (r := r_poly(u, z))] for u in cosets}
    by_length = sorted(cosets, key=lambda u: -lengths[u])
    e = tuple(range(1, n + 1))
    out = {}
    for v in cosets:
        P = {v: [1]}
        for u in by_length:
            if u == v or not R[u, v]:
                continue
            low = [0] * ((lengths[v] - lengths[u] + 1) // 2)
            for z, r in above[u]:
                p = P.get(z)
                if p:
                    for i, a in enumerate(r[: len(low)]):
                        for j, b in enumerate(p[: len(low) - i], i):
                            low[j] -= a * b
            while low and low[-1] == 0:
                low.pop()
            P[u] = low
        out[v] = P[e]
    return out


def parabolic_sums_match_deodhar(n, x_is_q=True, masks=None, outside=None):
    """Whether, for every K of S_n and every v, ``_parabolic_verma_mult``
    (the alternating sum of P_{u,v}(1) over u in W_K) equals
    P^{K,x}_{e,v}(1) for v in W^K and 0 for the other v, the ones with a
    right descent in K, where the sum cancels in pairs u, us.  Shape
    (1, n) makes every set of simple reflections a block mask.

    ``masks`` narrows K to those block masks.  ``outside`` narrows the v
    outside W^K to that many, drawn by ``random.Random(n)``; every v in
    W^K is checked either way."""
    for mask in range(1 << (n - 1)) if masks is None else masks:
        K = {b + 1 for b in range(n - 1) if mask >> b & 1}
        deodhar = parabolic_kl_at_e(n, K, x_is_q)
        vs = list(itertools.permutations(range(1, n + 1)))
        if outside is not None:
            others = [v for v in vs if v not in deodhar]
            vs = sorted(deodhar) + random.Random(n).sample(others, outside)
        memo = {}
        for v in vs:
            want = sum(deodhar[v]) if v in deodhar else 0
            if kl_mult._parabolic_verma_mult(1, n, mask, (v,), memo) != want:
                return False
    return True


@pytest.mark.parametrize(
    "n, masks, outside",
    [
        pytest.param(4, None, None, id="4"),
        pytest.param(5, None, None, id="5"),
        pytest.param(6, [0b11011], 10, id="6-sample"),
    ],
)
def test_parabolic_verma_mult_matches_deodhar(n, masks, outside):
    # The alternating sums that both Steinberg routes are built from,
    # against Deodhar's parabolic KL polynomials at q = 1, a route that
    # never calls kl_poly: every K and every v of S4 and S5.  In S6, one
    # K = {1, 2, 4, 5} with its 20 v in W^K and 10 seeded v outside it,
    # which took 0.15 to 0.31 s from a cold KL memo (shared 2-vCPU host,
    # CPython 3.11.7); the K {1, 3, 5} with 20 sampled v took about 1 s.
    assert parabolic_sums_match_deodhar(n, masks=masks, outside=outside)


def test_deodhar_check_fails_with_x_minus_one():
    # x = -1 makes the coefficient for an su outside W^K q, not -1, and
    # gives P^{K,-1}, which differs at q = 1 on most K of S4 (6 of 8).
    assert not parabolic_sums_match_deodhar(4, x_is_q=False)

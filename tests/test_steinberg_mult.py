import functools
import itertools
import operator
import random
import tracemalloc

import pytest

from parastein import kl_mult, steinberg_mult
from parastein.cosets import BlockSet, _parabolic_roots
from parastein.kl_mult import (
    _parabolic_verma_mult,
    kl_poly,
    parabolic_verma_mult,
)
from parastein.steinberg_mult import (
    GrothVector,
    _check_preconditions,
    _component_table,
    _cube,
    _label_groups,
    _mask,
    _oracle_values,
    _sign,
    _subset_sums,
    analytic_tits_euler_check,
    check_complex_squares_zero,
    enumerate_constituents,
    smooth_tits_euler_check,
    steinberg_multiplicity,
    steinberg_multiplicity_oracle,
)
from parastein.weyl_core import (
    BoundExceededError,
    bruhat_leq,
    enumerate_parabolic,
    identity,
    left_ascents,
    length,
    support,
)
from weights_oracle import _admissible_labels, block_roots, inner_roots


def all_blocksets(r, k):
    for mask in range(1 << (k - 1)):
        yield BlockSet(r, k, frozenset(i + 1 for i in range(k - 1) if mask >> i & 1))


def label_J(S, extra):
    """The block set J whose mask of J minus S is ``extra``."""
    return BlockSet(S.r, S.k, S.members | {b + 1 for b in range(S.k - 1) if extra >> b & 1})


GL4_SIX = [
    (1, 2, 3, 4),
    (1, 3, 2, 4),
    (1, 4, 2, 3),
    (2, 3, 1, 4),
    (2, 4, 1, 3),
    (3, 4, 1, 2),
]


def test_gl4_example_values():
    empty = BlockSet(2, 2)
    got = [steinberg_multiplicity((w,), empty, empty) for w in GL4_SIX]
    assert got == [1, 1, 0, 0, 0, 1]


def test_oracle_matches_on_gl4():
    empty = BlockSet(2, 2)
    for w in GL4_SIX:
        assert steinberg_multiplicity_oracle((w,), empty, empty) == (
            steinberg_multiplicity((w,), empty, empty)
        )


def test_identity_with_J_equal_S_is_one():
    for r, k in [(1, 3), (2, 2), (1, 4)]:
        e = (identity(r * k),)
        for S in all_blocksets(r, k):
            assert steinberg_multiplicity(e, S, S) == 1


def test_J_equal_S_reduces_to_parabolic_verma():
    for r, k, d_L in [(1, 3, 1), (2, 2, 1), (2, 2, 2)]:
        for S in all_blocksets(r, k):
            for w, J in _admissible_labels(S, d_L, None):
                if J.members != S.members:
                    continue
                assert steinberg_multiplicity(w, J, S) == parabolic_verma_mult(S, w)


def test_precondition_S_subset_J():
    S = BlockSet(1, 3, frozenset({1}))
    J = BlockSet(1, 3)
    with pytest.raises(ValueError):
        steinberg_multiplicity((identity(3),), J, S)
    with pytest.raises(ValueError, match="J and S must share the block shape"):
        _check_preconditions((identity(3),), J, BlockSet(1, 2))


def test_precondition_at_least_one_component():
    empty = BlockSet(1, 3)
    for route in (steinberg_multiplicity, steinberg_multiplicity_oracle):
        with pytest.raises(ValueError, match="d_L must be at least 1, got 0"):
            route((), empty, empty)


def test_formula_equals_oracle_envelope():
    for r, k, d_L in [(1, 3, 1), (2, 2, 1), (2, 2, 2), (1, 3, 2)]:
        for S in all_blocksets(r, k):
            for w, J in _admissible_labels(S, d_L, None):
                a = steinberg_multiplicity(w, J, S)
                b = steinberg_multiplicity_oracle(w, J, S)
                assert a == b
                assert a >= 0


def product_sum(w, J, S):
    """Brute force: the Steinberg sum multiplied out over the d_L-fold
    product of per-embedding rows, one term per tuple (u_1, ..., u_d)."""
    lower_roots = frozenset(i * J.r for i in J.members - S.members)
    inner = inner_roots(J)
    per_comp = []
    for comp in w:
        rows = []
        for u in enumerate_parabolic(J.n, inner | block_roots(J)):
            if not bruhat_leq(u, comp):
                continue
            val = sum(kl_poly(u, comp))
            if val:
                rows.append((support(u) - inner, length(u), val))
        per_comp.append(rows)
    total = 0
    for combo in itertools.product(*per_comp):
        outer = frozenset().union(*(o for o, _, _ in combo))
        if not lower_roots <= outer <= block_roots(J):
            continue
        val = 1
        for _, _, v in combo:
            val *= v
        sign_exp = sum(l for _, l, _ in combo) + len(outer - block_roots(S))
        total += -val if sign_exp % 2 else val
    return total


def test_fold_equals_product_sum():
    # d_L = 3 and (1,4,2) reach fold orders and support unions that the
    # formula-oracle envelope (d_L <= 2) does not; (3,2,2) has r > 1 and
    # components whose tables hold both outer masks.
    for r, k, d_L in [(2, 2, 3), (1, 3, 3), (1, 4, 2), (3, 2, 2)]:
        for S in all_blocksets(r, k):
            for w, J in _admissible_labels(S, d_L, None):
                assert steinberg_multiplicity(w, J, S) == product_sum(w, J, S)


def test_enumerate_constituents_matches_per_label():
    # enumerate_constituents folds each w once, over J_top, and reads
    # every J of w off that fold; each answer must match a fresh
    # per-label computation, which folds over the label's own J.  Every S
    # is taken, so the tables' keys are projected off a nonempty S, and
    # (2,3,1), (3,2,2) have r > 1.
    for r, k, d_L in [(2, 2, 2), (1, 4, 2), (2, 3, 1), (3, 2, 2)]:
        for S in all_blocksets(r, k):
            got = [(lab.w, lab.J, m) for lab, m in enumerate_constituents(S, d_L)]
            want = [
                (w, J, m)
                for w, J in _admissible_labels(S, d_L, None)
                if (m := steinberg_multiplicity(w, J, S)) != 0
            ]
            assert got == want


def test_label_groups_fold_over_the_union_of_their_labels():
    # J_top is S plus the ascent blocks of w, which is the largest J
    # among w's labels; the labels are masks of J minus S, in the order
    # of the sorted members of J, one list per distinct J_top, and the
    # top is the mask of J_top minus S, the OR of the labels' masks.
    for r, k, d_L in [(1, 4, 2), (2, 3, 1)]:
        for S in all_blocksets(r, k):
            s_mask = _mask(S.members)
            groups = _label_groups(S, d_L, None)
            lists = {}
            for w, top, extras in groups:
                assert top == functools.reduce(operator.or_, extras)
                assert all(extra & s_mask == 0 for extra in extras)
                assert extras == sorted(extras, key=lambda e: sorted(label_J(S, e).members))
                assert lists.setdefault(top, extras) is extras
            assert [(w, label_J(S, e)) for w, _, extras in groups for e in extras] == (
                _admissible_labels(S, d_L, None)
            )


def ordering_values(S, labels):
    """{(sorted components of w, J): (formula values, oracle values)} over
    the labels (w, J), each a set of the values that the orderings of w
    among the labels give on that route."""
    out = {}
    for w, J in labels:
        formula, oracle = out.setdefault((tuple(sorted(w)), J), (set(), set()))
        formula.add(steinberg_multiplicity(w, J, S))
        oracle.add(steinberg_multiplicity_oracle(w, J, S))
    return out


def every_ordering(r, k, d_L, sample=None):
    """(S, labels) for every S: every admissible label, or with ``sample``
    that many (w, J) drawn by a seeded generator from the sorted w, each
    w then taken in every ordering of its components."""
    rng = random.Random(1604)
    for S in all_blocksets(r, k):
        if sample is None:
            yield S, _admissible_labels(S, d_L, None)
            continue
        pool = [
            (w, extra)
            for w, _, extras in _label_groups(S, d_L, None, multisets=True)
            for extra in extras
        ]
        yield S, [
            (ordering, label_J(S, extra))
            for w, extra in rng.sample(pool, min(sample, len(pool)))
            for ordering in set(itertools.permutations(w))
        ]


@pytest.mark.parametrize("r, k, d_L, sample", [(1, 4, 2, None), (2, 2, 3, None), (1, 4, 3, 40)])
def test_values_are_symmetric_in_the_components(r, k, d_L, sample):
    # The components of w are one per embedding of L, and the check walks
    # one w per multiset of them: every ordering of w must give one value
    # on each route, and the two routes must agree on it.
    for S, labels in every_ordering(r, k, d_L, sample):
        for (w, J), (formula, oracle) in ordering_values(S, labels).items():
            assert len(formula) == 1 and formula == oracle, (S, w, J, formula, oracle)


def position_weighted_fold(w, S, top, memo):
    """``_fold`` with the entries off the empty mask of the i-th
    component's table counted i + 1 times: an OR-convolution that is not
    symmetric in the components."""
    folded = {0: 1}
    for i, comp in enumerate(w):
        table = steinberg_mult._component_table(comp, S, top, memo)
        step = {}
        for outer_a, va in folded.items():
            for outer_b, vb in table.items():
                if not outer_b & ~top:
                    key = outer_a | outer_b
                    step[key] = step.get(key, 0) + va * vb * (i + 1 if outer_b else 1)
        folded = step
    return folded


def test_position_weighted_fold_breaks_the_symmetry(monkeypatch):
    # The symmetry test must catch a fold that tells the components apart
    # by position: some orderings of one w give different formula values.
    monkeypatch.setattr(steinberg_mult, "_fold", position_weighted_fold)
    assert any(
        len(formula) > 1
        for S, labels in every_ordering(2, 2, 3)
        for formula, _ in ordering_values(S, labels).values()
    )


def test_multiset_listing_is_the_sorted_w_of_the_listing():
    # With multisets, _label_groups keeps exactly the groups of the full
    # listing whose components do not decrease, in the same order, and
    # every multiset of the full listing has one of them.
    for r, k, d_L in [(1, 4, 2), (2, 2, 3), (4, 1, 3), (2, 3, 2)]:
        for S in all_blocksets(r, k):
            full = _label_groups(S, d_L, None)
            ms = _label_groups(S, d_L, None, multisets=True)
            assert ms == [g for g in full if list(g[0]) == sorted(g[0])]
            assert len(ms) == len({tuple(sorted(w)) for w, _, _ in full})


def record_first_args(monkeypatch, *names):
    """Patch each steinberg_mult.<name> to record its first argument, w,
    in one list per name; return the lists."""
    lists = []
    for name in names:
        fn, seen = getattr(steinberg_mult, name), []
        monkeypatch.setattr(
            steinberg_mult, name, lambda w, *args, fn=fn, seen=seen: seen.append(w) or fn(w, *args)
        )
        lists.append(seen)
    return lists


def test_check_walks_one_w_per_multiset(monkeypatch):
    # The formula folds and the oracle transforms once per multiset of
    # components, on its sorted w, never once per w.
    for S in all_blocksets(2, 2):
        with monkeypatch.context() as m:
            folded, walked = record_first_args(m, "_fold", "_oracle_values")
            assert analytic_tits_euler_check(S, 3)
        multisets = sorted({tuple(sorted(w)) for w, _, _ in _label_groups(S, 3, None)})
        assert folded == walked and sorted(walked) == multisets


def test_listing_folds_each_multiset_once(monkeypatch):
    # The listing has every w, but hands one fold's values to every
    # ordering of a multiset; the first ordering in label order is folded.
    for S in all_blocksets(2, 2):
        with monkeypatch.context() as m:
            (folded,) = record_first_args(m, "_fold")
            enumerate_constituents(S, 3)
        multisets = sorted({tuple(sorted(w)) for w, _, _ in _label_groups(S, 3, None)})
        assert sorted(folded) == multisets


def test_oracle_builds_one_cube_per_J_top(monkeypatch):
    # _oracle_values keeps one _cube per J_top minus S in the dict it is
    # passed, not one per w.
    cubes = []
    cube = steinberg_mult._cube
    for S in all_blocksets(1, 4):
        groups = _label_groups(S, 2, None)
        memo = {}
        cubes.clear()
        with monkeypatch.context() as m:
            m.setattr(
                steinberg_mult, "_cube", lambda base, free: cubes.append(free) or cube(base, free)
            )
            for w, _, extras in groups:
                _oracle_values(w, S, max(extras), memo)
        assert sorted(cubes) == sorted({max(extras) for _, _, extras in groups})


@pytest.mark.parametrize("r, k, d_L", [(1, 4, 2), (2, 2, 3)])
def test_oracle_builds_one_vector_per_J_top_and_component(monkeypatch, r, k, d_L):
    # The check's oracle asks _parabolic_verma_mult for one component at a
    # time, once per (J_top, component) and K between S and J_top: one
    # vector per pair, never one product per w.  Vectors of two J_top ask
    # again for the (K, component) pairs they share, which
    # _parabolic_verma_mult answers from its own memo.
    for S in all_blocksets(r, k):
        s_mask = _mask(S.members)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(
                steinberg_mult,
                "_parabolic_verma_mult",
                lambda r, k, mask, w, memo: calls.append((mask, w))
                or _parabolic_verma_mult(r, k, mask, w, memo),
            )
            assert analytic_tits_euler_check(S, d_L)
        pairs = {
            (top & ~s_mask, comp)
            for w, top, _ in _label_groups(S, d_L, None, multisets=True)
            for comp in w
        }
        per_vector = [(s_mask | e, (comp,)) for top, comp in pairs for e in _cube(0, top)]
        assert sorted(calls) == sorted(per_vector)


def test_oracle_memo_keeps_vectors_apart_from_verma_sums():
    # The oracle's dict holds, per J_top minus S, its cube, signs, S's
    # mask and vectors, and under "verma" the dict that only
    # _parabolic_verma_mult writes: its rows under a mask, its
    # per-component sums under (mask, component).  Each vector entry and
    # each sum must equal a fresh _parabolic_verma_mult.
    for r, k, d_L in [(1, 4, 2), (2, 2, 3)]:
        for S in all_blocksets(r, k):
            s_mask = _mask(S.members)
            memo = {}
            for w, top, _ in _label_groups(S, d_L, None, multisets=True):
                _oracle_values(w, S, top, memo)
            verma = memo.pop("verma")
            assert memo and all(isinstance(top, int) for top in memo)
            for top, (cube, signs, mask, vectors, shared) in memo.items():
                assert cube == _cube(0, top) and mask == s_mask and shared is verma
                assert signs == tuple((-1) ** extra.bit_count() for extra in cube)
                for comp, vector in vectors.items():
                    assert vector == [
                        _parabolic_verma_mult(r, k, s_mask | extra, (comp,), {}) for extra in cube
                    ]
            sums = [key for key in verma if not isinstance(key, int)]
            assert sums
            for mask, comp in sums:
                assert verma[mask, comp] == _parabolic_verma_mult(r, k, mask, (comp,), {})


@pytest.mark.parametrize("r, k, d_L", [(1, 4, 2), (2, 2, 3), (4, 1, 2)])
def test_cut_tables_are_kept_per_J_top_and_component(r, k, d_L):
    # Folds that share one dict, in label order, must equal folds with a
    # fresh dict key for key, and hold only masks inside their J_top.  A
    # cut kept per component alone would carry the masks of a larger
    # J_top into the folds of a smaller one.
    for S in all_blocksets(r, k):
        memo = {}
        for w, top, _ in _label_groups(S, d_L, None):
            folded = steinberg_mult._fold(w, S, top, memo)
            assert folded == steinberg_mult._fold(w, S, top, {})
            assert not any(outer & ~top for outer in folded)


@pytest.mark.parametrize("r, k", [(1, 4), (2, 2), (4, 1)])
def test_folds_do_not_depend_on_the_order_of_the_tops(r, k):
    # One dict asked for small tops before large ones, then again from
    # large to small: a table kept over a smaller top than the one asked
    # for lacks u's of the larger parabolic, so each fold must equal a
    # fold on a fresh dict.
    for S in all_blocksets(r, k):
        full = ((1 << (k - 1)) - 1) & ~_mask(S.members)
        tops = sorted(_cube(0, full), key=int.bit_count)
        memo = {}
        for (comp,), _, _ in _label_groups(S, 1, None):
            for top in tops + tops[::-1]:
                folded = steinberg_mult._fold((comp,), S, top, memo)
                assert folded == steinberg_mult._fold((comp,), S, top, {}), (S, comp, top)


@pytest.mark.parametrize("r, k, d_L", [(1, 4, 2), (2, 3, 1), (3, 2, 2)])
def test_generated_labels_pass_the_preconditions(r, k, d_L):
    # enumerate_constituents and analytic_tits_euler_check do not check
    # their labels; every label that _label_groups yields must pass the
    # single-label checks.
    for S in all_blocksets(r, k):
        for w, _, extras in _label_groups(S, d_L, None):
            for extra in extras:
                _check_preconditions(w, label_J(S, extra), S)


@pytest.mark.parametrize("r, k, d_L", [(1, 4, 2), (2, 2, 3)])
@pytest.mark.parametrize("route", ["analytic_tits_euler_check", "enumerate_constituents"])
def test_formula_asks_each_kl_value_once_per_call(monkeypatch, r, k, d_L, route):
    # One table per component per call: a component met again under a
    # smaller J_top reuses its first table instead of asking for the
    # P_{u,comp} of the smaller parabolic again.
    asked = []
    monkeypatch.setattr(
        steinberg_mult, "kl_poly", lambda u, comp: asked.append((u, comp)) or kl_poly(u, comp)
    )
    for S in all_blocksets(r, k):
        asked.clear()
        getattr(steinberg_mult, route)(S, d_L)
        assert asked and len(asked) == len(set(asked))


@pytest.mark.parametrize("r, k", [(1, 4), (2, 3), (1, 5)])
def test_d_L_1_check_asks_kl_only_inside_each_J_top(monkeypatch, r, k):
    # At d_L = 1 each component is its own w, so both routes need
    # P_{u,comp} only for u in the parabolic of comp's J_top: the inner
    # roots, S and the J_top blocks.  Tables built over each component's
    # whole support would ask for more (see _component_table).
    asked = []

    def spy(u, comp):
        asked.append((u, comp))
        return kl_poly(u, comp)

    monkeypatch.setattr(steinberg_mult, "kl_poly", spy)
    monkeypatch.setattr(kl_mult, "kl_poly", spy)
    for S in all_blocksets(r, k):
        asked.clear()
        assert analytic_tits_euler_check(S, 1)
        assert asked
        s_mask = _mask(S.members)
        for u, comp in asked:
            ascents = left_ascents(comp)
            top = s_mask | sum(1 << (i - 1) for i in range(1, k) if i * r in ascents)
            assert support(u) <= _parabolic_roots(r, k, top), (S, u, comp)


def test_label_bound_stops_the_listing_before_it_is_built():
    # 6^30, 120^4 and 120^3 w: each call must raise at once.  The check
    # walks multisets, but the bound counts every w: (1,5,3) has 1,728,000
    # w, over the bound, and only 295,240 multisets.
    with pytest.raises(BoundExceededError, match="label bound"):
        enumerate_constituents(BlockSet(1, 3), 30)
    with pytest.raises(BoundExceededError, match="label bound"):
        analytic_tits_euler_check(BlockSet(1, 5), 4)
    with pytest.raises(BoundExceededError, match="label bound"):
        analytic_tits_euler_check(BlockSet(1, 5), 3)


def test_label_bound_rejects_before_any_prefix_is_built():
    # (1,3,30) has 6^30 w; 6^7 = 279,936 prefixes are below the bound, so
    # a listing that counted one embedding at a time would build them
    # (tens of MB) before it raised.
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError, match="label bound"):
            enumerate_constituents(BlockSet(1, 3), 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_label_bound_admits_exactly_its_size(monkeypatch):
    # (1,4,2) with S empty lists 24^2 = 576 w.
    S = BlockSet(1, 4)
    monkeypatch.setattr(steinberg_mult, "MAX_LABEL_WS", 576)
    assert len(_label_groups(S, 2, None)) == 576
    monkeypatch.setattr(steinberg_mult, "MAX_LABEL_WS", 575)
    with pytest.raises(BoundExceededError, match="label bound"):
        _label_groups(S, 2, None)


def test_label_listing_is_linear_in_d_L():
    # S holds every block, so e is the one admissible component and the
    # listing holds one w of 20000 components; copying each prefix at
    # every step would copy about 2 * 10^8 entries.
    groups = _label_groups(BlockSet(1, 3, frozenset({1, 2})), 20000, None)
    assert groups == [((identity(3),) * 20000, 0, [0])]


def count_block_sets(monkeypatch):
    """Patch BlockSet.__init__ to record each construction; return the
    list of the members of the block sets built."""
    init = BlockSet.__init__
    built = []

    def counting(self, r, k, members=frozenset()):
        built.append(frozenset(members))
        init(self, r, k, members)

    monkeypatch.setattr(BlockSet, "__init__", counting)
    return built


def test_analytic_euler_check_builds_no_block_set(monkeypatch):
    S = BlockSet(1, 4)
    built = count_block_sets(monkeypatch)
    assert analytic_tits_euler_check(S, 2)
    assert built == []


def test_enumerate_constituents_builds_one_block_set_per_J(monkeypatch):
    for r, k, d_L in [(1, 4, 2), (2, 2, 2), (2, 3, 1)]:
        for S in all_blocksets(r, k):
            with monkeypatch.context() as m:
                built = count_block_sets(m)
                out = enumerate_constituents(S, d_L)
            assert len(built) == len(set(built)) <= len({lab.J for lab, _ in out})


def test_shared_oracle_memo_matches_fresh_oracle():
    # analytic_tits_euler_check runs _oracle_values once per w with one
    # oracle dict per call; each label's value must match an oracle call
    # with a fresh dict.
    for r, k, d_L in [(2, 2, 2), (1, 4, 2)]:
        for S in all_blocksets(r, k):
            memo = {}
            for w, _, extras in _label_groups(S, d_L, None):
                values = _oracle_values(w, S, max(extras), memo)
                for extra in extras:
                    assert values[extra] == steinberg_multiplicity_oracle(w, label_J(S, extra), S)


def test_oracle_sums_are_subset_sums_of_formula_tables():
    # a_K(c) = sum of f_c(T) over the T inside K minus S, with f_c the
    # formula's table of c and a_K(c) the oracle's alternating sum: u lies
    # in the parabolic on the inner roots plus K exactly when its outer
    # support minus S lies in K minus S.  The two routes read the same KL
    # values, so analytic_tits_euler_check cannot see a wrong one.
    for r, k in [(1, 4), (2, 2), (4, 1), (1, 5), (2, 3), (3, 2)]:
        for S in all_blocksets(r, k):
            s_mask = _mask(S.members)
            free = ((1 << (k - 1)) - 1) & ~s_mask
            formula_memo, verma_memo = {}, {}
            for (comp,), _, _ in _label_groups(S, 1, None):
                table = _component_table(comp, S, free, formula_memo)
                for extra in _cube(0, free):
                    subset_sum = sum(v for outer, v in table.items() if not outer & ~extra)
                    K_mask = s_mask | extra
                    assert _parabolic_verma_mult(r, k, K_mask, (comp,), verma_memo) == subset_sum


def inclusion_exclusion(w, J, S, memo):
    """Brute force for the oracle: its sum over the K between S and J,
    one term per K, with ``memo`` a dict of the test's own."""
    extra = sorted(J.members - S.members)
    total = 0
    for t in range(len(extra) + 1):
        for picked in itertools.combinations(extra, t):
            m = _parabolic_verma_mult(J.r, J.k, _mask(S.members.union(picked)), w, memo)
            total += -m if t % 2 else m
    return total


@pytest.mark.parametrize(
    "r, k, d_L",
    [(r, k, d_L) for r, k in [(1, 4), (2, 2), (4, 1)] for d_L in (1, 2, 3)] + [(3, 2, 1)],
)
def test_oracle_transform_matches_inclusion_exclusion(r, k, d_L):
    # One subset-sum pass per w must give every label the value of its
    # own inclusion-exclusion, for every S; no cap on the length.
    for S in all_blocksets(r, k):
        memo, brute_memo = {}, {}
        for w, _, extras in _label_groups(S, d_L, None):
            values = _oracle_values(w, S, max(extras), memo)
            assert len(values) == len(extras)
            for extra in extras:
                assert values[extra] == inclusion_exclusion(w, label_J(S, extra), S, brute_memo)


def test_single_label_oracle_matches_inclusion_exclusion():
    # steinberg_multiplicity_oracle runs the same transform over its own J.
    for r, k, d_L in [(1, 4, 1), (2, 2, 2), (4, 1, 2), (3, 2, 1)]:
        for S in all_blocksets(r, k):
            brute_memo = {}
            for w, J in _admissible_labels(S, d_L, None):
                assert steinberg_multiplicity_oracle(w, J, S) == (
                    inclusion_exclusion(w, J, S, brute_memo)
                )


def perturb_one_call(monkeypatch, name, target):
    """Patch steinberg_mult.<name> so that its call number ``target``
    (None: no call) returns one more than it should; return the list of
    the calls' arguments, which grows as they are made."""
    fn = getattr(steinberg_mult, name)
    calls = []

    def perturbed(*args):
        calls.append(args)
        out = fn(*args)
        return out + 1 if len(calls) - 1 == target else out

    monkeypatch.setattr(steinberg_mult, name, perturbed)
    return calls


@pytest.mark.parametrize("name", ["_read_fold", "_parabolic_verma_mult"])
def test_analytic_euler_check_fails_on_one_perturbed_value(monkeypatch, name):
    # One formula value (_read_fold gives one label's m) or one
    # generalized Verma multiplicity on the oracle side, off by one,
    # must fail the check, whichever call it is.
    for S in all_blocksets(2, 2):
        with monkeypatch.context() as m:
            calls = perturb_one_call(m, name, None)
            assert analytic_tits_euler_check(S, 2)
        assert calls
        for target in range(len(calls)):
            with monkeypatch.context() as m:
                perturb_one_call(m, name, target)
                assert not analytic_tits_euler_check(S, 2)


def test_analytic_euler_check_compares_every_label(monkeypatch):
    # The oracle off by one only at J_top minus S, and only where that is
    # not the empty mask, the first label of each w: a check that reads
    # fewer labels than every label of w can pass this.
    oracle = steinberg_mult._oracle_values

    def perturbed(w, S, top, memo):
        values = oracle(w, S, top, memo)
        if top:
            values[top] += 1
        return values

    monkeypatch.setattr(steinberg_mult, "_oracle_values", perturbed)
    for S in all_blocksets(1, 4):
        # With every block in S, no w has a nonempty J_top minus S.
        assert analytic_tits_euler_check(S, 2) == (len(S.members) == 3)


def test_multi_component_factorization():
    # independent components multiply when the support conditions decouple
    empty = BlockSet(2, 2)
    for u in GL4_SIX:
        for v in GL4_SIX:
            m_pair = steinberg_multiplicity((u, v), empty, empty)
            m_u = steinberg_multiplicity((u,), empty, empty)
            m_v = steinberg_multiplicity((v,), empty, empty)
            assert m_pair == m_u * m_v


def test_enumerate_constituents_gl4():
    empty = BlockSet(2, 2)
    out = enumerate_constituents(empty, 1)
    flat = [(lab.w[0], frozenset(lab.J.members), m) for lab, m in out]
    no_J = [(w, m) for w, J, m in flat if not J]
    assert no_J == [
        ((1, 2, 3, 4), 1),
        ((1, 3, 2, 4), 1),
        ((3, 4, 1, 2), 1),
    ]
    with_J = [(w, m) for w, J, m in flat if J == frozenset({1})]
    for (w, m) in with_J:
        assert m == steinberg_multiplicity_oracle(
            (w,), BlockSet(2, 2, frozenset({1})), empty
        )
    assert all(m > 0 for _, _, m in flat)


def test_enumerate_constituents_k1():
    out = enumerate_constituents(BlockSet(2, 1), 1)
    assert len(out) == 1
    lab, m = out[0]
    assert lab.w == (identity(2),) and m == 1


def test_tits_differential_sign():
    # From blocks {1, 3}, removing block 1 removes the first of them;
    # removing block 3, the second.
    assert _sign(0b101, 0b001) == -1
    assert _sign(0b101, 0b100) == 1


def sorted_index_sign(K_prime, removed):
    """Reference sign rule on block index sets: the 1-based position of
    the removed index in the sorted members of K'."""
    position = sorted(K_prime.members).index(removed) + 1
    return -1 if position % 2 else 1


def test_tits_differential_sign_matches_sorted_index():
    # Every one-block step of (1,6): each K' and each of its blocks.
    for K_prime in all_blocksets(1, 6):
        for b in K_prime.members:
            sign = _sign(_mask(K_prime.members), 1 << (b - 1))
            assert sign == sorted_index_sign(K_prime, b)


def test_complex_squares_zero_fails_without_position_parity(monkeypatch):
    sign = steinberg_mult._sign
    monkeypatch.setattr(steinberg_mult, "_sign", lambda top, bit: abs(sign(top, bit)))
    assert not check_complex_squares_zero(BlockSet(1, 4))


def test_complex_squares_zero_signs_each_step_once(monkeypatch):
    # One _sign call per (top, free bit of top), not two per pair, and
    # each call a step: one free bit that top holds.
    calls = []
    sign = steinberg_mult._sign
    monkeypatch.setattr(
        steinberg_mult, "_sign", lambda top, bit: calls.append((top, bit)) or sign(top, bit)
    )
    for I in all_blocksets(1, 6):
        calls.clear()
        assert check_complex_squares_zero(I)
        f = 5 - len(I.members)
        assert len(calls) == len(set(calls)) == f * 2 ** (f - 1)
        base = _mask(I.members)
        assert all(bit & top and bit.bit_count() == 1 and not bit & base for top, bit in calls)


def test_complex_squares_zero_fails_on_one_wrong_sign(monkeypatch):
    # (1,5) has 4 free bits and 4 * 2^3 = 32 steps, each in some square;
    # negating any one of them must fail the check.
    sign = steinberg_mult._sign
    steps = []
    with monkeypatch.context() as m:
        m.setattr(
            steinberg_mult, "_sign", lambda top, bit: steps.append((top, bit)) or sign(top, bit)
        )
        assert check_complex_squares_zero(BlockSet(1, 5))
    assert len(set(steps)) == 32
    for step in steps:
        with monkeypatch.context() as m:
            m.setattr(
                steinberg_mult,
                "_sign",
                lambda top, bit: -sign(top, bit) if (top, bit) == step else sign(top, bit),
            )
            assert not check_complex_squares_zero(BlockSet(1, 5)), step


@pytest.mark.parametrize(
    "zero_step",
    [lambda top, bit: True, lambda top, bit: top == 0b1111 and bit == 0b1000],
    ids=["every-step", "one-step"],
)
def test_complex_squares_zero_fails_on_a_zero_step(monkeypatch, zero_step):
    # With every sign 0 every two-step product is 0 and the pairs cancel
    # trivially; a one-block step must have sign +1 or -1.
    sign = steinberg_mult._sign
    monkeypatch.setattr(
        steinberg_mult, "_sign", lambda top, bit: 0 if zero_step(top, bit) else sign(top, bit)
    )
    assert not check_complex_squares_zero(BlockSet(1, 5))


def test_complex_squares_zero_up_to_k9():
    # steinberg-warm's shape, (1,9), and every smaller k.
    for k in range(1, 10):
        for I in all_blocksets(1, k):
            assert check_complex_squares_zero(I)


def test_smooth_euler_check_up_to_k9():
    for k in range(1, 10):
        for I in all_blocksets(1, k):
            assert smooth_tits_euler_check(I)


def test_smooth_euler_check_fails_when_broken(monkeypatch):
    # The Euler sum collapses only with the sign (-1)^{|K minus I|} and a
    # full transform: unsigned terms, or a transform that skips one
    # stride (here the top one, by transforming the two halves apart),
    # must fail the check wherever I leaves a block free.
    transform = steinberg_mult._subset_sums

    def skips_a_stride(values):
        half = len(values) // 2
        return transform(values[:half]) + transform(values[half:])

    broken = {
        "unsigned": lambda values: transform([abs(v) for v in values]),
        "skips-a-stride": skips_a_stride,
    }
    for name, patched in broken.items():
        with monkeypatch.context() as m:
            m.setattr(steinberg_mult, "_subset_sums", patched)
            for k in range(2, 6):
                for I in all_blocksets(1, k):
                    if len(I.members) < k - 1:
                        assert not smooth_tits_euler_check(I), (name, I)


def test_cube_index_flips_one_bit():
    # Bit p of the index is the p-th lowest bit of free: index i ^ 2**p
    # is the mask with that bit flipped, and the list is every mask
    # between base and base | free, each once.
    for base, free in [(0, 0), (0b1, 0), (0, 0b1011), (0b100, 0b1011), (0b10010, 0b101101)]:
        masks = _cube(base, free)
        bits = [1 << b for b in range(free.bit_length()) if free >> b & 1]
        assert len(masks) == 2 ** len(bits)
        top = base | free
        assert sorted(masks) == [m for m in range(top + 1) if m & base == base and m | top == top]
        for i, mask in enumerate(masks):
            assert mask == base | sum(bit for p, bit in enumerate(bits) if i >> p & 1)
            for p, bit in enumerate(bits):
                assert masks[i ^ (1 << p)] == mask ^ bit


def test_subset_sums_matches_brute_force():
    # Over _cube(base, free) for every free of at most six of seven blocks
    # and every base outside it: each entry becomes the sum over the L
    # between base and its own mask K.
    rng = random.Random(2007)
    universe = (1 << 7) - 1
    for free in range(universe):
        rest = universe & ~free
        for base in range(rest + 1):
            if base & free:
                continue
            masks = _cube(base, free)
            values = [rng.randint(-9, 9) for _ in masks]
            old = dict(zip(masks, values))
            brute = [sum(v for L, v in old.items() if L & K == L) for K in masks]
            assert _subset_sums(values) == brute, (base, free)


def test_analytic_euler_check_envelope():
    assert analytic_tits_euler_check(BlockSet(2, 2), 1)
    assert analytic_tits_euler_check(BlockSet(1, 3), 1)
    for S in all_blocksets(1, 3):
        assert analytic_tits_euler_check(S, 1)
    assert analytic_tits_euler_check(BlockSet(1, 1), 1)


@pytest.mark.parametrize("r, k, d_L", [(3, 2, 1), (3, 2, 2), (2, 3, 1)])
def test_analytic_euler_check_rank_6(r, k, d_L):
    # Formula against oracle on every label of the rank-6 shapes, for
    # every S; nonempty S exercises the tables projected off S.
    for S in all_blocksets(r, k):
        assert analytic_tits_euler_check(S, d_L)


def test_groth_vector_value_semantics():
    a = GrothVector({}).add("x", 2).add("y")
    a_before = dict(a.coeffs)
    assert a.coeffs == {"x": 2, "y": 1}
    assert a.add("y", -1).coeffs == {"x": 2}
    assert a.add("x", -2).add("y", -1).coeffs == {}
    assert a.coeffs == a_before

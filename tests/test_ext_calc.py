from math import comb

import pytest

from parastein.cosets import BlockSet
from parastein.ext_calc import (
    KINDS,
    ExtQuery,
    RepDescriptor,
    char_group_dim,
    consistency_check_thm_main,
    ext_dim,
)


def q(flavor, degree, left, right, r=1, k=4, d_L=1, fixed_center=False):
    return ExtQuery(flavor, fixed_center, degree, left, right, r, k, d_L)


def ind(*blocks):
    return RepDescriptor("ind", frozenset(blocks))


def stb(*blocks):
    return RepDescriptor("steinberg", frozenset(blocks))


def test_char_group_dims():
    assert char_group_dim("HomL", BlockSet(2, 2), 1) == 2
    assert char_group_dim("HomLsmooth", BlockSet(2, 2), 5) == 1
    assert char_group_dim("HomLsigma", BlockSet(2, 2), 2) == 2
    two_block = BlockSet(1, 3, frozenset({2}))
    assert char_group_dim("HomZI", two_block, 3) == 8
    assert char_group_dim("HomZIbar", two_block, 3) == 4
    full = BlockSet(2, 2, frozenset({1}))
    assert char_group_dim("XstarLI", full, 1) == 1
    assert char_group_dim("XstarLIbar", full, 1) == 0
    with pytest.raises(ValueError):
        char_group_dim("nope", full, 1)


def test_smooth_ind_ind_binomials():
    for k in (2, 3, 4, 5):
        full = frozenset(range(1, k))
        for i in range(0, k + 1):
            ans = ext_dim(q("smooth", i, ind(*full), ind(), k=k))
            assert ans.value == comb(k, i)
        # vanishing beyond the rank
        assert ext_dim(q("smooth", k + 1, ind(*full), ind(), k=k)).value == 0


def test_smooth_ind_ind_vanishing_off_refinement():
    ans = ext_dim(q("smooth", 1, ind(1), ind(2)))
    assert ans.status == "zero" and ans.value == 0


def test_smooth_fixed_center():
    k = 4
    full = frozenset(range(1, k))
    # full label: trivial lattice, only degree 0 survives
    assert ext_dim(q("smooth", 0, ind(*full), ind(*full), k=k, fixed_center=True)).value == 1
    assert ext_dim(q("smooth", 1, ind(*full), ind(*full), k=k, fixed_center=True)).value == 0
    # two-block label: rank one
    two = frozenset({1, 2})  # blocks (3,1) for k=4 -> l=2
    assert ext_dim(q("smooth", 1, ind(*full), ind(*two), k=k, fixed_center=True)).value == 1
    # other shapes not determined
    assert (
        ext_dim(q("smooth", 1, ind(*full), ind(1), k=k, fixed_center=True)).status
        == "not-determined"
    )


def test_smooth_steinberg_ind_shift():
    k = 4
    full = frozenset(range(1, k))
    # the shifted degree must match the unshifted full-label answer
    for I in [frozenset(), frozenset({1}), frozenset({1, 3})]:
        J = full  # ensures I union J = full
        shift = k - 1 - len(I)
        for i in range(0, 2 * k):
            a = ext_dim(q("smooth", i, stb(*I), ind(*J), k=k))
            b = ext_dim(q("smooth", i - shift, ind(*full), ind(*J), k=k)) if i >= shift else None
            if i < shift:
                assert a.value == 0
            else:
                assert a.value == b.value
    # vanishing when the union is not everything
    assert ext_dim(q("smooth", 1, stb(1), ind(2), k=4)).value == 0


def test_smooth_adjacent_steinberg():
    for d in range(0, 4):
        ans = ext_dim(q("smooth", d, stb(1, 2), stb(2)))
        assert ans.value == (1 if d == 1 else 0)
    # non-adjacent pair: open, never silently zero
    ans = ext_dim(q("smooth", 1, stb(1, 2, 3), stb(1)))
    assert ans.status == "not-determined" and ans.value is None


def test_levi_self_extensions():
    for k in (2, 4):
        blocks = frozenset({1})
        l = k - 1
        for i in range(0, k + 1):
            ans = ext_dim(
                q("smooth", i, RepDescriptor("levi-self", blocks), RepDescriptor("levi-self", blocks), k=k)
            )
            assert ans.value == comb(l, i)


def test_analytic_ind_ind():
    k = 3
    full = frozenset({1, 2})
    assert ext_dim(q("analytic", 0, ind(*full), ind(1), k=k)).value == 1
    for d_L in (1, 2, 3):
        assert (
            ext_dim(q("analytic", 1, ind(*full), ind(*full), k=k, d_L=d_L)).value
            == d_L + 1
        )
    # fixed center: full label dies in degree 1, two-block gives d_L + 1
    assert (
        ext_dim(q("analytic", 1, ind(*full), ind(*full), k=k, fixed_center=True)).value
        == 0
    )
    assert (
        ext_dim(
            q("analytic", 1, ind(*full), ind(1), k=k, d_L=2, fixed_center=True)
        ).value
        == 3
    )
    # vanishing off refinement, openness in higher degree
    assert ext_dim(q("analytic", 1, ind(1), ind(2), k=k)).value == 0
    assert ext_dim(q("analytic", 2, ind(*full), ind(*full), k=k)).status == "not-determined"
    assert ext_dim(q("analytic", 1, ind(*full), ind(1), k=k)).status == "not-determined"


def test_analytic_steinberg_ind_shift():
    k = 3
    full = frozenset({1, 2})
    # left Steinberg on one block, right the full induction: shift 1
    assert ext_dim(q("analytic", 2, stb(1), ind(*full), k=k, d_L=2)).value == 3
    assert ext_dim(q("analytic", 0, stb(1), ind(*full), k=k)).value == 0
    assert ext_dim(q("analytic", 1, stb(1), ind(2), k=k)).value == 1  # degree 0 after shift


def test_analytic_headline_dimension():
    for d_L in (1, 2, 3):
        for fixed in (False, True):
            ans = ext_dim(
                ExtQuery(
                    "analytic", fixed, 1, stb(2), RepDescriptor("st-an"), 2, 3, d_L
                )
            )
            assert ans.value == d_L + 1
            assert ans.rule.startswith("R7")


def test_analytic_sigma_rules():
    sig = RepDescriptor("sigma", frozenset(), 2, None)
    assert ext_dim(ExtQuery("analytic", False, 1, stb(2), sig, 1, 4, 2)).value == 3
    comp = RepDescriptor("sigma-comp", frozenset(), 2, 0)
    assert ext_dim(ExtQuery("analytic", False, 1, stb(2), comp, 1, 4, 2)).value == 2
    cons_same = RepDescriptor("constituent", frozenset(), 2, 0)
    cons_other = RepDescriptor("constituent", frozenset(), 3, 0)
    assert ext_dim(ExtQuery("analytic", False, 1, stb(2), cons_same, 1, 4, 2)).value == 1
    assert ext_dim(ExtQuery("analytic", False, 1, stb(2), cons_other, 1, 4, 2)).value == 0
    # mismatched sigma index is open
    sig_other = RepDescriptor("sigma", frozenset(), 3, None)
    assert ext_dim(ExtQuery("analytic", False, 1, stb(2), sig_other, 1, 4, 2)).status == (
        "not-determined"
    )


def test_headline_equals_sigma_rule():
    # the chain of isomorphisms forces the same number through both rules
    for k in (2, 3, 4):
        for d_L in (1, 2, 3):
            for i in range(1, k):
                a = ext_dim(
                    ExtQuery("analytic", False, 1, stb(i), RepDescriptor("st-an"), 1, k, d_L)
                )
                sig = RepDescriptor("sigma", frozenset(), i, None)
                b = ext_dim(ExtQuery("analytic", False, 1, stb(i), sig, 1, k, d_L))
                assert a.value == b.value == d_L + 1


def test_answers_carry_citations():
    ans = ext_dim(q("smooth", 1, ind(1), ind(1)))
    assert ans.status == "dimension" and ans.rule.startswith("R1")
    ans = ext_dim(q("smooth", 1, stb(1, 2), stb(2)))
    assert ans.rule.startswith("R4")


def test_consistency_check():
    for r, k, d_L in [(2, 2, 1), (1, 5, 3), (1, 1, 2), (3, 4, 2)]:
        assert consistency_check_thm_main(r, k, d_L)


def sigma_comp(index, sigma=0):
    return RepDescriptor("sigma-comp", frozenset(), index, sigma)


def constituent(index, sigma=0):
    return RepDescriptor("constituent", frozenset(), index, sigma)


ST_AN = RepDescriptor("st-an")
OPEN = "not-determined"
PINNED_AT_ONE = "only the matching index in degree 1 is pinned down"


@pytest.mark.parametrize(
    "flavor, fixed, degree, left, right, expected",
    [
        ("analytic", True, 1, ind(1, 2, 3), ind(1),
         (OPEN, None, "R5:analytic-ind-ind", "degree-1 space not pinned down for this block set")),
        ("smooth", True, 1, ind(1), ind(2),
         ("zero", None, "R2:smooth-ind-ind-fixed-center", "")),
        ("smooth", False, 1, stb(1), ST_AN, (OPEN, None, "no-rule", "")),
        ("analytic", False, 1, stb(1), ind(2),
         ("zero", None, "R6:analytic-steinberg-ind", "")),
        ("analytic", False, 2, stb(1), ST_AN,
         (OPEN, None, "R7:analytic-steinberg-full", "only degree 1 is pinned down")),
        ("analytic", False, 1, stb(1), sigma_comp(2),
         (OPEN, None, "R9:analytic-steinberg-sigma-component", PINNED_AT_ONE)),
        ("analytic", False, 2, stb(1), constituent(1),
         (OPEN, None, "R10:analytic-steinberg-constituent", "only degree 1 is pinned down")),
        ("analytic", False, 1, stb(1, 2), ST_AN, (OPEN, None, "no-rule", "")),
    ],
    ids=["R5-open", "R2-zero", "smooth-no-rule", "R6-zero", "R7-open", "R9-open", "R10-open",
         "analytic-no-rule"],
)
def test_table_branch(flavor, fixed, degree, left, right, expected):
    # One branch of the table each, with r = 1, k = 4 and d_L = 2.
    ans = ext_dim(q(flavor, degree, left, right, k=4, d_L=2, fixed_center=fixed))
    assert (ans.status, ans.dim, ans.rule, ans.note) == expected


def test_invalid_queries():
    with pytest.raises(ValueError):
        ext_dim(q("weird", 0, ind(), ind()))
    with pytest.raises(ValueError):
        ext_dim(ExtQuery("smooth", False, -1, ind(), ind(), 1, 2, 1))

    # Blocks and indices live in 1..k-1; outside it a label names no
    # representation, on either side.
    for left, right, k in [
        (ind(5), ind(5), 3),
        (stb(7), ST_AN, 3),
        (stb(1), RepDescriptor("levi-self", frozenset({0})), 3),
        (ind(), RepDescriptor("st-an", frozenset({3})), 3),
        (stb(1), constituent(9), 3),
        (stb(1), constituent(3), 3),
        (stb(1), sigma_comp(0), 3),
        (stb(1), RepDescriptor("sigma", frozenset(), -1, None), 3),
        (stb(1), RepDescriptor("sigma"), 3),
        (stb(), constituent(1), 1),
    ]:
        for flavor in ("smooth", "analytic"):
            for pair in ((left, right), (right, left)):
                with pytest.raises(ValueError, match="out of range"):
                    ext_dim(ExtQuery(flavor, False, 1, *pair, 1, k, 2))


def test_unknown_kinds_are_rejected():
    # A misspelled kind names no representation, on either side; each of
    # the seven documented kinds passes the check.
    for bad in (RepDescriptor("St-an"), RepDescriptor("induced", frozenset({1}))):
        for flavor in ("smooth", "analytic"):
            for pair in ((stb(1), bad), (bad, stb(1))):
                with pytest.raises(ValueError, match=f"unknown descriptor kind: {bad.kind}"):
                    ext_dim(ExtQuery(flavor, False, 1, *pair, 1, 3, 1))
    known = [
        ind(1),
        stb(1),
        ST_AN,
        RepDescriptor("sigma", frozenset(), 1, None),
        sigma_comp(1),
        constituent(1),
        RepDescriptor("levi-self", frozenset({1})),
    ]
    assert sorted(rep.kind for rep in known) == sorted(KINDS)
    for rep in known:
        for flavor in ("smooth", "analytic"):
            for pair in ((stb(1), rep), (rep, stb(1))):
                assert ext_dim(ExtQuery(flavor, False, 1, *pair, 1, 3, 1)).status in (
                    "dimension", "zero", "not-determined"
                )

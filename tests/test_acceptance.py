"""End-to-end acceptance suite.

Each test enforces its exact values and runtime budget; the conftest
terminal-summary hook prints exactly one line
"ACCEPTANCE <n> <name>: PASS|FAIL" per criterion.
"""

import time
from math import comb, factorial

from parastein.cosets import BlockSet, double_coset_count_oracle, min_double_coset_reps
from parastein.ext_calc import (
    ExtQuery,
    RepDescriptor,
    consistency_check_thm_main,
    ext_dim,
)
from parastein.kl_mult import kl_poly, parabolic_verma_mult
from parastein.segments import jacquet_decomposition, jh_factors
from parastein.steinberg_mult import (
    analytic_tits_euler_check,
    smooth_tits_euler_check,
    steinberg_multiplicity,
    steinberg_multiplicity_oracle,
)
from parastein.weyl_core import (
    bruhat_leq,
    enumerate_group,
    identity,
    inverse,
    length,
)
from weights_oracle import _admissible_labels


CRITERIA: dict[str, tuple[int, str]] = {}


def report(number: int, name: str):
    def decorator(fn):
        CRITERIA[fn.__name__] = (number, name)
        return fn

    return decorator


def all_blocksets(r, k):
    for mask in range(1 << (k - 1)):
        yield BlockSet(r, k, frozenset(i + 1 for i in range(k - 1) if mask >> i & 1))


@report(1, "worked-example-multiplicities")
def test_criterion_1_gl4_example():
    t0 = time.perf_counter()
    empty = BlockSet(2, 2)
    six = min_double_coset_reps(4, set(), {1, 3})
    assert six == [
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (2, 3, 1, 4),
        (2, 4, 1, 3),
        (3, 4, 1, 2),
    ]
    got = [steinberg_multiplicity((w,), empty, empty) for w in six]
    assert got == [1, 1, 0, 0, 0, 1]
    assert time.perf_counter() - t0 < 1.0


@report(2, "generalized-verma-constituents")
def test_criterion_2_parabolic_verma():
    t0 = time.perf_counter()
    K = BlockSet(2, 2)
    expected_ones = {(1, 2, 3, 4), (1, 3, 2, 4), (3, 4, 1, 2)}
    for w in enumerate_group(4):
        v = parabolic_verma_mult(K, (w,))
        assert v == (1 if w in expected_ones else 0)
    assert time.perf_counter() - t0 < 1.0


@report(3, "jordan-hoelder-counts")
def test_criterion_3_jh_counts():
    for r, k in [(1, 2), (2, 2), (1, 4), (3, 2), (2, 3), (1, 6)]:
        assert len(jh_factors(r, k)) == 2 ** (k - 1)


@report(4, "formula-vs-oracle")
def test_criterion_4_formula_oracle_equivalence():
    t0 = time.perf_counter()
    for r, k, d_L in [(1, 3, 1), (2, 2, 1), (1, 4, 1), (2, 2, 2), (1, 3, 2)]:
        for S in all_blocksets(r, k):
            for w, J in _admissible_labels(S, d_L, None):
                a = steinberg_multiplicity(w, J, S)
                assert a == steinberg_multiplicity_oracle(w, J, S)
                assert a >= 0
    assert time.perf_counter() - t0 < 60.0


@report(5, "kl-property-suite")
def test_criterion_5_kl_properties():
    t0 = time.perf_counter()
    assert kl_poly(identity(4), (3, 4, 1, 2)) == (1, 1)
    for n in (4, 5):
        group = enumerate_group(n)
        w0 = group[-1]
        for x in group:
            assert kl_poly(x, w0) == (1,)
        for x in group:
            for w in group:
                p = kl_poly(x, w)
                if not bruhat_leq(x, w):
                    assert p == ()
                    continue
                assert p[0] == 1
                if x != w:
                    assert 2 * (len(p) - 1) <= length(w) - length(x) - 1
                assert p == kl_poly(inverse(x), inverse(w))
    assert time.perf_counter() - t0 < 30.0


@report(6, "tits-euler-identities")
def test_criterion_6_tits_checks():
    for k in range(1, 7):
        for I in all_blocksets(1, k):
            assert smooth_tits_euler_check(I)
    for r, k, d_L in [(1, 3, 1), (2, 2, 1), (1, 4, 1), (2, 2, 2), (1, 3, 2)]:
        for S in all_blocksets(r, k):
            assert analytic_tits_euler_check(S, d_L)


@report(7, "ext-dimension-table")
def test_criterion_7_ext_table():
    st_an = RepDescriptor("st-an")
    for d_L in (1, 2, 3):
        for k in (2, 3, 4):
            for i in range(1, k):
                left = RepDescriptor("steinberg", frozenset({i}))
                ans = ext_dim(ExtQuery("analytic", False, 1, left, st_an, 1, k, d_L))
                assert ans.value == d_L + 1
    # adjacent Steinberg pair: 1 in degree 1, 0 elsewhere
    for d in range(0, 5):
        ans = ext_dim(
            ExtQuery(
                "smooth",
                False,
                d,
                RepDescriptor("steinberg", frozenset({1, 2})),
                RepDescriptor("steinberg", frozenset({2})),
                1,
                4,
                1,
            )
        )
        assert ans.value == (1 if d == 1 else 0)
    # vanishing off refinement
    ans = ext_dim(
        ExtQuery(
            "smooth",
            False,
            1,
            RepDescriptor("ind", frozenset({1})),
            RepDescriptor("ind", frozenset({2})),
            1,
            4,
            1,
        )
    )
    assert ans.status == "zero"
    # binomial dimensions
    for k in (2, 3, 4, 5):
        full = frozenset(range(1, k))
        for J_size in range(0, k):
            J = frozenset(range(1, J_size + 1))
            l_J = k - len(J)
            for i in range(0, k + 1):
                ans = ext_dim(
                    ExtQuery(
                        "smooth",
                        False,
                        i,
                        RepDescriptor("ind", full),
                        RepDescriptor("ind", J),
                        1,
                        k,
                        1,
                    )
                )
                assert ans.value == comb(l_J, i)
    # the two-dimensional degree-1 space
    ans = ext_dim(
        ExtQuery(
            "analytic",
            False,
            1,
            RepDescriptor("steinberg", frozenset({2})),
            RepDescriptor("sigma-comp", frozenset(), 2, 0),
            1,
            4,
            2,
        )
    )
    assert ans.value == 2
    # spectral-sequence endpoint identity
    for r, k, d_L in [(1, 2, 1), (2, 2, 1), (1, 3, 2), (2, 3, 3), (1, 6, 1)]:
        assert consistency_check_thm_main(r, k, d_L)


@report(8, "structural-invariants")
def test_criterion_8_structural():
    t0 = time.perf_counter()
    from parastein.cosets import modulus_exponents

    for k in range(1, 9):
        for r in (1, 2, 3):
            for I in all_blocksets(r, k):
                exps = modulus_exponents(I)
                parts = I.partition()
                assert sum(a * p for a, p in zip(exps, parts)) == 0
    for k in range(1, 7):
        for r in (1, 2):
            terms = jacquet_decomposition(r, k)
            assert len(terms) == factorial(k)
            tuples = [t for _, t in terms]
            assert len(set(tuples)) == len(tuples)
    # double-coset counts against the matrix oracle for n <= 7
    for n in range(1, 8):
        group = enumerate_group(n)
        signature: dict[tuple[int, int], int] = {}
        for w in group:
            winv = inverse(w)
            la = 0
            ra = 0
            for i in range(1, n):
                if winv[i - 1] < winv[i]:
                    la |= 1 << (i - 1)
                if w[i - 1] < w[i]:
                    ra |= 1 << (i - 1)
            signature[(la, ra)] = signature.get((la, ra), 0) + 1
        for i_mask in range(1 << (n - 1)):
            for j_mask in range(1 << (n - 1)):
                count = sum(
                    c
                    for (la, ra), c in signature.items()
                    if i_mask & ~la == 0 and j_mask & ~ra == 0
                )
                I = frozenset(i + 1 for i in range(n - 1) if i_mask >> i & 1)
                J = frozenset(i + 1 for i in range(n - 1) if j_mask >> i & 1)
                assert count == double_coset_count_oracle(n, I, J)
    assert time.perf_counter() - t0 < 60.0

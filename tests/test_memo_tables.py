"""Which memo tables outlive a call.

The Kazhdan-Lusztig memo ``kl_mult._kl_cache`` is the only table kept
between calls.  It holds the nontrivial polynomials P_{x,w}, those with
x < w in Bruhat order, and the Bruhat down-sets that the recursion walks.
P_{w,w} = 1 and the P_{x,w} = 0 with x not below w are answered without
the memo, its cap or the environment.  ``PARASTEIN_KL_CACHE_CAP`` bounds
the two kinds of entry together and is read at each insertion, so a
malformed value fails before anything is stored.  ``kl_cache_clear()``
is the only reset the package needs.  The package has no ``lru_cache``,
and every other memo lives inside one call.
"""

import importlib
import pkgutil
from collections.abc import MutableMapping, MutableSequence, MutableSet

import pytest

import parastein
from parastein import kl_mult
from parastein.cosets import double_coset_count_oracle, matrix_count
from parastein.kl_mult import kl_cache_clear, kl_cache_size, kl_poly
from parastein.weyl_core import (
    BoundExceededError,
    bruhat_downset,
    bruhat_leq,
    enumerate_group,
    enumerate_parabolic,
    identity,
    reduced_word,
    support,
)


def package_modules():
    names = [f"parastein.{m.name}" for m in pkgutil.iter_modules(parastein.__path__)]
    return [parastein] + [importlib.import_module(name) for name in names]


def lru_tables():
    """Every ``lru_cache`` reachable from a parastein module or one of its
    classes, following ``__wrapped__`` chains: the scan the benchmark's
    memo reset makes."""
    found = {}
    for mod in package_modules():
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__.startswith("parastein"):
                candidates += list(vars(value).values())
            for cand in candidates:
                while cand is not None:
                    if callable(getattr(cand, "cache_info", None)) and callable(
                        getattr(cand, "cache_clear", None)
                    ):
                        found[f"{cand.__module__}.{cand.__qualname__}"] = cand
                        break
                    cand = getattr(cand, "__wrapped__", None)
    return found


def table_sizes():
    sizes = {key: t.cache_info().currsize for key, t in lru_tables().items()}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if not attr.startswith("__") and isinstance(
                value, (MutableMapping, MutableSet, MutableSequence)
            ):
                sizes[f"{mod.__name__}.{attr}"] = len(value)
    return sizes


# Taken when pytest imports this file, before any test has run.
IMPORT_SIZES = table_sizes()

W0_5 = (5, 4, 3, 2, 1)
# Singular pairs that fill the memo from cold: P_{e,45231} = 1 + 2q takes
# 136 entries, 12 of them down-sets, and P_{e,456123} = 1 + 4q + 4q^2 + q^3
# takes 178.  Not P_{e,w0}: keyed by the longest element of x's double
# coset under w's descents, as the KL recursion may be, it needs no entry,
# while these two still take 15 and 46.
W_5 = (4, 5, 2, 3, 1)
W_6 = (4, 5, 6, 1, 2, 3)


def is_downset_key(key):
    # Down-sets are keyed by v alone, polynomials by the pair (x, w).
    return isinstance(key[0], int)


def test_package_has_no_lru_cache():
    assert lru_tables() == {}


def test_cold_kl_call_grows_only_the_kl_memo(monkeypatch):
    monkeypatch.delenv("PARASTEIN_KL_CACHE_CAP", raising=False)
    kl_cache_clear()
    before = table_sizes()
    assert kl_poly(identity(6), W_6) == (1, 4, 4, 1)
    after = table_sizes()
    grown = {key for key in after if after[key] != before.get(key)}
    assert grown == {"parastein.kl_mult._kl_cache"}
    assert any(is_downset_key(key) for key in kl_mult._kl_cache)


def test_kl_cache_clear_restores_import_time_sizes(monkeypatch):
    monkeypatch.delenv("PARASTEIN_KL_CACHE_CAP", raising=False)
    kl_poly(identity(5), W_5)
    assert kl_cache_size() > 0
    kl_cache_clear()
    assert table_sizes() == IMPORT_SIZES


def test_uncached_helpers_leave_every_table_as_it_was():
    before = table_sizes()
    assert matrix_count((1,) * 6, (2, 3, 1)) == 60
    assert double_coset_count_oracle(5, {1, 3}, {2}) == matrix_count((2, 2, 1), (1, 2, 1, 1))
    assert len(enumerate_parabolic(6, {1, 2, 4})) == 12
    assert support((3, 1, 2, 5, 4)) == frozenset({1, 2, 4})
    assert reduced_word((3, 1, 2)) == (2, 1)
    assert bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    assert len(bruhat_downset((3, 4, 1, 2))) == 14
    assert table_sizes() == before


def test_kl_cache_cap_counts_downsets(monkeypatch):
    # Uncapped, the memo keeps its insertion order: find where the first
    # down-set goes in, then cap the memo right there.  The call must
    # stop at that insertion with the memo exactly at the cap, so the
    # down-set went through the same cap check as a polynomial.  A cap a
    # few entries later holds the same entries in the same order.
    monkeypatch.delenv("PARASTEIN_KL_CACHE_CAP", raising=False)
    kl_cache_clear()
    kl_poly(identity(5), W_5)
    keys = list(kl_mult._kl_cache)
    first = next(i for i, key in enumerate(keys) if is_downset_key(key))
    assert first > 0
    for cap in (first, first + 5):
        monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", str(cap))
        kl_cache_clear()
        with pytest.raises(BoundExceededError, match=f"cap of {cap} entries"):
            kl_poly(identity(5), W_5)
        assert kl_cache_size() == cap
        assert list(kl_mult._kl_cache) == keys[:cap]
    kl_cache_clear()


def test_trivial_pairs_skip_the_memo_and_the_cap(monkeypatch):
    # (2,1,3,4,5) is not below (1,3,2,4,5): both have length 1.
    reads = []
    real_cap = kl_mult._cache_cap
    monkeypatch.setattr(kl_mult, "_cache_cap", lambda: reads.append(1) or real_cap())
    kl_cache_clear()
    assert kl_poly((2, 1, 3, 4, 5), (1, 3, 2, 4, 5)) == ()
    assert kl_poly(W0_5, W0_5) == (1,)
    assert kl_cache_size() == 0
    assert reads == []


def test_cold_s5_sweep_keeps_only_pairs_x_below_w(monkeypatch):
    monkeypatch.delenv("PARASTEIN_KL_CACHE_CAP", raising=False)
    kl_cache_clear()
    group = enumerate_group(5)
    for w in group:
        for x in group:
            kl_poly(x, w)
    pairs = [key for key in kl_mult._kl_cache if not is_downset_key(key)]
    assert pairs
    assert all(x != w and bruhat_leq(x, w) for x, w in pairs)
    kl_cache_clear()


def test_zero_cap_still_answers_trivial_pairs(monkeypatch):
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", "0")
    kl_cache_clear()
    assert kl_poly((2, 1, 3, 4, 5), (1, 3, 2, 4, 5)) == ()
    assert kl_poly(W0_5, W0_5) == (1,)
    with pytest.raises(BoundExceededError, match="cap of 0 entries"):
        kl_poly(identity(5), W_5)
    assert kl_cache_size() == 0


def test_malformed_cap_fails_before_any_insert(monkeypatch):
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", "abc")
    kl_cache_clear()
    assert kl_poly((2, 1, 3, 4, 5), (1, 3, 2, 4, 5)) == ()
    with pytest.raises(ValueError, match="PARASTEIN_KL_CACHE_CAP"):
        kl_poly(identity(5), W_5)
    assert kl_cache_size() == 0

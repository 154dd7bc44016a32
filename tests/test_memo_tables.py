"""Which memo tables outlive a call.

The Kazhdan-Lusztig memo ``kl_mult._kl_cache`` and the two ``lru_cache``s
of ``weyl_core`` (``_rank_table`` and ``bruhat_downset``) are the only
tables kept between calls.  Every other memo lives inside one call.
"""

import importlib
import pkgutil
from collections.abc import MutableMapping, MutableSequence, MutableSet

import parastein
from parastein.cosets import double_coset_count_oracle, matrix_count
from parastein.weyl_core import enumerate_parabolic, reduced_word, support


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


def test_only_rank_table_and_downset_are_lru_caches():
    assert set(lru_tables()) == {
        "parastein.weyl_core._rank_table",
        "parastein.weyl_core.bruhat_downset",
    }


def test_uncached_helpers_leave_every_table_as_it_was():
    before = table_sizes()
    assert matrix_count((1,) * 6, (2, 3, 1)) == 60
    assert double_coset_count_oracle(5, {1, 3}, {2}) == matrix_count((2, 2, 1), (1, 2, 1, 1))
    assert len(enumerate_parabolic(6, {1, 2, 4})) == 12
    assert support((3, 1, 2, 5, 4)) == frozenset({1, 2, 4})
    assert reduced_word((3, 1, 2)) == (2, 1)
    assert table_sizes() == before

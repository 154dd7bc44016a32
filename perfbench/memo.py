"""Memo-table hygiene and exact per-table counters.

The reset finds memo tables by scanning the loaded ``parastein`` modules
(and the classes they define) instead of naming them, so a table added
later is cleared without editing the benchmark.  A module-level mutable
container that a scan cannot clear is caught by comparing its size with
the size it had right after import: cold rounds then stop with
``MemoError`` instead of silently running warm.
"""

from __future__ import annotations

import sys
from collections.abc import MutableMapping, MutableSequence, MutableSet


class MemoError(RuntimeError):
    """A memo table survived the reset."""


def _modules():
    return sorted(
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "parastein" or name.startswith("parastein."))
    )


def _cached(obj):
    """The ``functools.lru_cache`` object behind ``obj``, following the
    ``__wrapped__`` chain that tracing wrappers add; None if there is none."""
    while obj is not None:
        if callable(getattr(obj, "cache_clear", None)) and callable(
            getattr(obj, "cache_info", None)
        ):
            return obj
        obj = getattr(obj, "__wrapped__", None)
    return None


def lru_tables() -> dict[str, object]:
    """Every ``lru_cache`` reachable from a parastein module or one of its
    classes, keyed ``<module>.<name>`` by the module that defines it."""
    found: dict[str, object] = {}
    for _, mod in _modules():
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__.startswith("parastein"):
                candidates += list(vars(value).values())
            for cand in candidates:
                table = _cached(cand)
                if table is None:
                    continue
                owner = getattr(table, "__module__", "") or ""
                key = f"{owner.rsplit('.', 1)[-1]}.{table.__qualname__}"
                found.setdefault(key, table)
    return found


def _containers() -> dict[str, int]:
    sizes = {}
    for name, mod in _modules():
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (MutableMapping, MutableSet, MutableSequence)):
                sizes[f"{name}.{attr}"] = len(value)
    return sizes


class Memo:
    """Reset and counters for the memo tables of an imported parastein.

    Create it right after ``import parastein`` and before any computation:
    the container sizes it records then are what a cold reset returns to.
    """

    def __init__(self) -> None:
        from parastein import kl_mult

        self._kl = kl_mult
        self._baseline = _containers()

    def reset(self) -> None:
        """Clear every memo table, then check that each one is empty."""
        self._kl.kl_cache_clear()
        tables = lru_tables()
        for table in tables.values():
            table.cache_clear()
        left = {k: t.cache_info().currsize for k, t in tables.items()}
        left["kl_mult.memo"] = self._kl.kl_cache_size()
        survivors = {k: n for k, n in left.items() if n}
        grown = {
            k: n for k, n in _containers().items() if n != self._baseline.get(k, 0)
        }
        if survivors or grown:
            raise MemoError(
                f"memo tables survived the reset: {survivors or ''} {grown or ''}"
            )

    def snapshot(self) -> dict[str, int]:
        """Exact hits, misses and entries for every lru_cache, and the
        entry count of the Kazhdan-Lusztig memo."""
        out = {"kl_mult.memo.entries": self._kl.kl_cache_size()}
        for key, table in sorted(lru_tables().items()):
            info = table.cache_info()
            out[f"{key}.hits"] = info.hits
            out[f"{key}.misses"] = info.misses
            out[f"{key}.entries"] = info.currsize
        return out


def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Counters for the interval between two snapshots: hits and misses
    as differences, entries as the size at the end."""
    return {
        key: value if key.endswith(".entries") else value - before.get(key, 0)
        for key, value in after.items()
    }

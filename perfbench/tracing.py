"""Traced mode: per-function call counts and self time, measured from
outside the program.

Each traced function is replaced at every binding of it in the loaded
``parastein`` modules (``weyl_core.bruhat_leq`` and the copies that
``kl_mult``, ``steinberg_mult``, ``cli_io`` and the package import), so
calls between modules are seen as well as calls from the benchmark.
Self time is a call's duration minus the time spent in traced calls it
made.  Tallies are kept in memory, one per function rather than one per
span because a cold Kazhdan-Lusztig round makes millions of traced
calls, and are read out when the traced rounds end.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path) of every traced public function.
TRACED = [
    ("weyl_core", "length"),
    ("weyl_core", "bruhat_leq"),
    ("weyl_core", "bruhat_downset"),
    ("weyl_core", "left_descents"),
    ("weyl_core", "multiply"),
    ("weyl_core", "support"),
    ("weyl_core", "enumerate_parabolic"),
    ("kl_mult", "kl_poly"),
    ("kl_mult", "kl_mu"),
    ("kl_mult", "parabolic_verma_mult"),
    ("steinberg_mult", "steinberg_multiplicity"),
    ("steinberg_mult", "steinberg_multiplicity_oracle"),
    ("steinberg_mult", "enumerate_constituents"),
    ("steinberg_mult", "smooth_tits_euler_check"),
    ("steinberg_mult", "GrothVector.add"),
    ("cosets", "min_double_coset_reps"),
    ("segments", "jh_factors"),
    ("ext_calc", "ext_dim"),
]
MODULES = sorted({mod for mod, _ in TRACED})
NAMES = [f"{mod}.{path}" for mod, path in TRACED]


class Tracer:
    """Install with ``install()``, run the traced work, ``restore()``.

    ``calls``, ``self_s`` and ``nonzero`` (calls whose result was truthy)
    accumulate per traced name until ``clear()``.
    """

    def __init__(self) -> None:
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.nonzero = dict.fromkeys(NAMES, 0)
        self._child = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for name in NAMES:
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.nonzero[name] = 0

    def _wrap(self, name: str, fn):
        calls, self_s, nonzero, child = self.calls, self.self_s, self.nonzero, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
            if result:
                nonzero[name] += 1
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "parastein" or name.startswith("parastein."))
        ]
        for mod_name, path in TRACED:
            owner = sys.modules[f"parastein.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(f"{mod_name}.{path}", original)
            # A method is bound only where its class defines it; a function
            # is rebound in every module that imported it.
            holders = [owner] if outer else [m for m in loaded if vars(m).get(attr) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-function ``.calls`` and ``.self_s``, per-module ``.self_s``
        rollups and ``kl_mult.kl_mu.useful_ratio``."""
        out: dict[str, float] = {}
        for name in NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                self.self_s[n] for n in NAMES if n.startswith(mod + ".")
            )
        mu = "kl_mult.kl_mu"
        out[f"{mu}.useful_ratio"] = self.nonzero[mu] / self.calls[mu] if self.calls[mu] else 0.0
        return out

"""Host speed, read from fixed probes, and wall times rescaled by it.

The benchmark runs on a few cores of a shared host whose speed swings by
1.5 to 3x, from one call to the next and for tens of seconds at a time;
CPU time swings with wall time, so neither a longer run nor CPU time
averages the swing out.  Every timed stretch is therefore bracketed by
runs of a fixed probe, and its wall time is reported rescaled to the
reference speed at which one probe takes the probe's ``ref_s``:

    scaled = wall * ref_s / (median probe time around the stretch)

A change to the library moves the scaled time as it moves the wall time;
a slow spell of the host slows the stretch and its probes alike, and
drops out.  The probes are part of the benchmark, not of the library,
so no change to the library changes them.  Each ``ref_s`` is close to
the probe's time on an idle 2-vCPU Xeon host.

Two probes, each doing the kind of work it stands in for:

- ``LOOP``, for calls into the library in this process: a pure-Python
  loop over small tuples, dict lookups with tuple keys and short
  function calls;
- ``START``, for CLI calls, which are mostly interpreter start: a bare
  ``python -c pass`` process.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

# Calls are grouped into stretches of about this much wall time, with a
# probe between stretches; a longer call is a stretch of its own.
STRETCH_S = 0.1
# A single probe is itself noisy: a stretch is scaled by the median of
# the probes within this many stretches of it on either side.
WINDOW = 5

_TABLE = {(i % 61, i // 61, i & 3): (i,) for i in range(30_000)}


def _least(a, b):
    return a if a < b else b


def _loop() -> float:
    t0 = perf_counter()
    table, low, seen = _TABLE, 1 << 30, {}
    for i in range(6_000):
        hit = table.get((i % 61, (i * 7) % 492, i & 3))
        if hit is not None:
            low = _least(low, hit[0])
        key = tuple(sorted((i & 15, i % 11, i % 13)))
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - t0


def _start() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


class Probe(NamedTuple):
    """A fixed piece of work: ``run`` does it once and returns its wall
    time; ``ref_s`` is that time at the reference speed."""

    run: Callable[[], float]
    ref_s: float


LOOP = Probe(_loop, 0.005)
START = Probe(_start, 0.06)


def speed(probe: Probe = LOOP, n: int = 5) -> float:
    """Median of ``n`` runs of ``probe``: one reading of the host's speed."""
    return statistics.median(probe.run() for _ in range(n))


def scale(wall: float, before: float, after: float, probe: Probe = LOOP) -> float:
    """``wall`` seconds, measured between readings ``before`` and
    ``after`` of ``probe``, at the reference speed."""
    return wall * probe.ref_s * 2 / (before + after)


class Stretches:
    """Scales per-call wall times stretch by stretch: ``add`` takes each
    call's wall time as it ends, probing once a stretch is long enough;
    ``close`` probes after the last stretch and returns the scaled times
    of all calls, in call order."""

    def __init__(self, probe: Probe):
        self._probe = probe
        self._stretches: list[list[float]] = []
        self._probes = [probe.run()]
        self._open: list[float] = []
        self._open_s = 0.0

    def add(self, wall: float) -> None:
        self._open.append(wall)
        self._open_s += wall
        if self._open_s >= STRETCH_S:
            self._cut()

    def close(self) -> list[float]:
        if self._open:
            self._cut()
        scaled = []
        for i, walls in enumerate(self._stretches):
            # Probes i and i + 1 bracket stretch i.
            near = self._probes[max(0, i - WINDOW) : i + WINDOW + 2]
            factor = self._probe.ref_s / statistics.median(near)
            scaled.extend(w * factor for w in walls)
        return scaled

    def _cut(self):
        self._probes.append(self._probe.run())
        self._stretches.append(self._open)
        self._open, self._open_s = [], 0.0

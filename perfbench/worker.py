"""One workload in one fresh process; started by run.py, not by hand.

Protocol on stdout: a line ``READY`` once set-up is done (import,
input generation, declared warm-up), then, unless ``--setup-only``, one
JSON line with the raw measurements.  run.py times spawn-to-READY as
set-up and turns the raw measurements into metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

import memo
import pace
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Probes of each kind, a bare interpreter and ``import parastein.cli_io``.
PROBES = 7


def digest(pairs) -> str:
    """Order-independent digest of (query, answer) pairs."""
    lines = sorted(json.dumps([q, a], separators=(",", ":"), sort_keys=True) for q, a in pairs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def one_round(wl, order):
    """Send every query once; returns answers, per-call latencies scaled
    to the reference speed (pace.py) and the queries that raised."""
    answers, raised = {}, set()
    lat = pace.Stretches(wl.probe)
    for q in order:
        t0 = perf_counter()
        try:
            answers[q] = wl.call(q)
        except Exception as exc:  # a failed op is counted, not fatal
            answers[q] = None
            raised.add(q)
            print(f"op failed: {q!r}: {exc!r}", file=sys.stderr)
        lat.add(perf_counter() - t0)
    return answers, lat.close(), raised


class Rounds:
    """Timed rounds and their failures.  Only the first round's answers
    are kept; each later round is compared with them as soon as it ends,
    so memory does not grow with the number of rounds."""

    def __init__(self, wl, tables, order):
        self.wl, self.tables, self.order = wl, tables, order
        self.first = None
        self.bad = []  # per round, queries that raised or differ from round 1
        self.lat = array("d")  # scaled per-call latencies, all rounds
        self.scaled = []  # scaled round times, all rounds

    def run(self, seconds, on_round=None):
        """As many rounds as fit in ``seconds``, judged by the median round
        so far, and at least one; returns their wall times and keeps
        their scaled times in ``self.scaled``."""
        times = []
        end = perf_counter() + seconds
        while True:
            if self.wl.cold:
                self.tables.reset()
            gc.collect()
            if on_round:
                on_round("start")
            t0 = perf_counter()
            answers, lat, raised = one_round(self.wl, self.order)
            times.append(perf_counter() - t0)
            if on_round:
                on_round("end")
            self.lat.extend(lat)
            self.scaled.append(sum(lat))
            if self.first is None:
                self.first = answers
            raised.update(q for q, a in answers.items() if a != self.first[q])
            self.bad.append(raised)
            del answers
            if perf_counter() + statistics.median(times) > end:
                return times

    def failed(self):
        """Failed ops over all rounds: raised, wrong under the workload's
        checks (made on the first round's answers), or unlike the first
        round's answer."""
        wrong = self.wl.check({q: a for q, a in self.first.items() if a is not None})
        return sum(len(bad | wrong) for bad in self.bad)


def traced(wl, tables, rounds, seconds):
    """Half of ``seconds`` untraced, half traced; returns the per-layer
    metrics."""
    rounds.run(seconds / 2)
    untraced = list(rounds.scaled)
    tracer = tracing.Tracer()
    per_round, counters, before = [], [], []

    def on_round(phase):
        if phase == "start":
            tracer.clear()
            before[:] = [tables.snapshot()]
            return
        counters.append(memo.delta(before[0], tables.snapshot()))
        wl.fold(tracer, counters[-1])
        per_round.append(tracer.metrics())

    wl.trace(tracer, True)
    try:
        rounds.run(seconds / 2, on_round)
    finally:
        wl.trace(tracer, False)
    # Counts from the first traced round, where they are exact; times as
    # medians over the traced rounds.
    layer = dict(per_round[0])
    for key in layer:
        if key.endswith("self_s"):
            layer[key] = statistics.median(r[key] for r in per_round)
    layer.update(counters[0])
    layer.update(cli_probes())
    # Rounds scaled to the reference speed, so a slow spell of the host
    # during one half does not read as overhead.
    traced_s = rounds.scaled[len(untraced):]
    layer["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced)
    return layer


def probe(argv, env):
    t0 = perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def cli_probes():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    bare, imp = [], []
    for _ in range(PROBES):
        bare.append(probe([sys.executable, "-c", "pass"], env))
        imp.append(probe([sys.executable, "-c", "import parastein.cli_io"], env))
    start = statistics.median(bare)
    return {"cli_io.python_start_s": start, "cli_io.import_s": statistics.median(imp) - start}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import parastein

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(parastein.__file__).startswith(src + os.sep):
        raise SystemExit(f"parastein imported from {parastein.__file__}, not {src}")
    import workloads

    tables = memo.Memo()
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh).get(args.workload, {})
    wl = workloads.make(args.workload, expected)
    order = wl.queries()
    random.Random(args.seed).shuffle(order)
    wl.warm()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # run.py probes the host's speed after set-up; start once it is done,
    # and not at all if run.py went away.
    if sys.stdin.readline().strip() != "GO":
        return 1

    out = {
        "ops": len(order),
        "inputs_sha": hashlib.sha256(json.dumps(order).encode()).hexdigest(),
    }
    rounds = Rounds(wl, tables, order)
    if args.trace:
        out["per_layer"] = traced(wl, tables, rounds, args.seconds)
    else:
        out["wall_round_s"] = rounds.run(args.seconds)
        out["round_s"] = rounds.scaled
        out["peak_rss_kb"] = resource.getrusage(wl.rusage).ru_maxrss
        out["latency_s"] = list(rounds.lat)
    out["rounds"] = len(rounds.bad)
    out["attempted"] = len(order) * len(rounds.bad)
    out["failed"] = rounds.failed()
    out["digest"] = digest(rounds.first.items())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for parastein.

    python3 perfbench/run.py --workload kl-cold --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory, and
its ``src/`` is what gets measured.  Each run starts a few fresh worker
processes: the first ones only set up, to time set-up, and the last one
also runs the timed rounds.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The line before it (``info``) carries the
answer digest, checked against expected.json, the input hash and the
failure fraction.  ``--out FILE``
appends the whole record to FILE for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kl-cold", "steinberg-warm", "cli-mix", "selftest-full"]

# Set-up is timed in this many fresh processes and reported as the median.
SETUP_RUNS = 7
# Budget for one worker; a run must end well inside three minutes.
WORKER_TIMEOUT_S = 170


def quantile(values, q):
    """The q-quantile, q a whole percent, in the exclusive method of
    ``statistics.quantiles``; a single value is its own quantile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def spawn(args, setup_only):
    """Start a worker, wait for READY; returns (process, set-up seconds
    scaled to the reference speed).  The host's speed is read just before
    the spawn and just after READY, while the worker waits; a worker that
    goes on to timed rounds starts them once it reads a line on stdin."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    before = pace.speed()
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker did not get ready: {line!r}")
    after = pace.speed()
    return proc, pace.scale(setup, before, after)


def finish(proc):
    try:
        out, _ = proc.communicate("GO\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "parastein", "__init__.py")):
        print(f"no parastein sources under {ROOT}/src", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup = spawn(args, setup_only=True)
        finish(proc)
        setups.append(setup)
    proc, setup = spawn(args, setup_only=False)
    setups.append(setup)
    raw = json.loads(finish(proc).splitlines()[-1])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        values = raw["per_layer"]
        declared = spec["per_layer"]
    else:
        lat_ms = [s * 1000 for s in raw["latency_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(raw["round_s"]),
            "call_p50_ms": quantile(lat_ms, 0.5),
            "call_p90_ms": quantile(lat_ms, 0.9),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        # A memo table that a later version removed reads as zero.
        print(f"not measured, reported as 0: {missing}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh).get(args.workload, {})
    digest_ok = raw["digest"] == expected.get("digest") and raw["ops"] == expected.get("ops")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": raw["rounds"],
        "ops_per_round": raw["ops"],
        "failed_frac": raw["failed"] / raw["attempted"],
        "digest": raw["digest"],
        "digest_ok": digest_ok,
        "inputs_sha": raw["inputs_sha"],
        "setups_s": setups,
        "wall_round_s": statistics.median(raw["wall_round_s"]) if "wall_round_s" in raw else None,
    }
    result = {
        "correct": raw["failed"] == 0 and digest_ok,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"info": info, **result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare benchmark result files, and check the benchmark itself.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]
    python3 perfbench/compare.py --selfcheck [--workload kl-cold] [--seconds 2]

Result files are written by ``run.py --out FILE``, one JSON record per
run.  With one file, every workload x metric gets its run count, median,
quartiles and spread (quartile distance over median).  With two, each
row also gets the change of the median and a verdict: ``worse`` when the
new median is worse by more than the metric's bound in BENCHMARK.json,
``unresolved`` when either side spreads wider than that bound (unless
every new run beats every base run), ``better`` when the new side wins
at least 9 in 10 run pairs by more than the base's quartile distance,
and ``same`` otherwise.  Per-layer counts must repeat exactly and are
marked ``identical`` or ``changed``; per-layer times get no verdict.
The answer digests of the two sides are compared per workload.

``--selfcheck`` runs the benchmark three times on one workload: the same
seed twice must give identical inputs and digest, and another seed the
same op count and digest but a different query order.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    """{(workload, metric): [values]}, {workload: digests}, {workload: failed_frac}."""
    values, digests, failed = defaultdict(list), defaultdict(set), defaultdict(float)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            wl = rec["info"]["workload"]
            digests[wl].add(rec["info"]["digest"])
            failed[wl] = max(failed[wl], rec["info"]["failed_frac"])
            for name, m in rec["metrics"].items():
                values[(wl, name)].append(m["value"])
    return values, digests, failed


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def verdict(a, b, spec):
    """Verdict for one workload x metric; see the module docstring."""
    if spec is None:
        return "-"
    if "bound" not in spec:
        if spec["unit"] == "count":
            return "identical" if len(set(a) | set(b)) == 1 else "changed"
        return "-"
    lower = spec["better"] == "lower"
    med_a, q1_a, q3_a, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    worse_by = (med_b - med_a) / med_a if med_a else 0.0
    if not lower:
        worse_by = -worse_by
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if max(spread_a, spread_b) > spec["bound"] and not all_better:
        return "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
        return "better"
    return "same"


def report(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_dig, base_fail = load(base_path)
    new, new_dig, new_fail = load(new_path) if new_path else ({}, {}, {})
    head = f"{'workload':15} {'metric':52} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if new_path:
        head += f" {'n':>3} {'median':>12} {'spread':>7} {'change':>8}  verdict"
    print(head)
    worse = False
    for key in sorted(set(base) | set(new)):
        wl, name = key
        a, b = base.get(key, []), new.get(key, [])
        ref = a or b
        med, q1, q3, spread = summary(ref)
        row = f"{wl:15} {name:52} {len(ref):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}"
        if new_path and a and b:
            med_b, _, _, spread_b = summary(b)
            change = (med_b - med) / med if med else 0.0
            v = verdict(a, b, specs.get(name))
            worse |= v == "worse"
            row += f" {len(b):3d} {med_b:12.6g} {spread_b:7.3f} {change:+8.3f}  {v}"
        elif not new_path:
            bound = specs.get(name, {}).get("bound")
            if bound is not None and spread > bound:
                row += "  spread above bound"
        print(row)
    for wl in sorted(set(base_dig) | set(new_dig)):
        digs = base_dig.get(wl, set()) | new_dig.get(wl, set())
        state = "same" if len(digs) == 1 else "DIFFER"
        print(f"{wl:15} digest {state}; failed_frac base {base_fail.get(wl, 0):.3g}"
              + (f" new {new_fail.get(wl, 0):.3g}" if new_path else ""))
    return 1 if worse else 0


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return json.loads(out[-2])["info"], json.loads(out[-1])


def selfcheck(workload, seconds):
    a, ra = run_once(workload, 1, seconds)
    b, rb = run_once(workload, 1, seconds)
    c, rc = run_once(workload, 2, seconds)
    checks = [
        ("every run correct", ra["correct"] and rb["correct"] and rc["correct"]),
        ("same seed, identical inputs", a["inputs_sha"] == b["inputs_sha"]),
        ("same seed, identical digest", a["digest"] == b["digest"]),
        ("other seed, other query order", a["inputs_sha"] != c["inputs_sha"]),
        ("other seed, same op count", a["ops_per_round"] == c["ops_per_round"]),
        ("other seed, same digest", a["digest"] == c["digest"]),
    ]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="BASE.jsonl [NEW.jsonl]")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--workload", default="kl-cold")
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    if args.selfcheck:
        return selfcheck(args.workload, args.seconds)
    if not 1 <= len(args.files) <= 2:
        ap.error("give one or two result files, or --selfcheck")
    return report(args.files[0], args.files[1] if len(args.files) == 2 else None)


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload is a fixed query set; the seed only permutes the order in
which one client sends the queries (a closed loop, no threads).  A query
is a tuple of JSON-friendly values, ``call`` answers it with something
JSON-friendly, and ``check`` returns the queries whose answers are
wrong.  Checks run outside the timed rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pace
from parastein import cli_io, kl_mult, segments, steinberg_mult
from parastein.cosets import BlockSet
from parastein.weyl_core import bruhat_leq, enumerate_group, identity, inverse, length

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Workload:
    """Defaults: cold rounds, queries answered in this process, timed
    against the in-process probe, and the peak RSS of this process."""

    cold = True
    rusage = resource.RUSAGE_SELF
    probe = pace.LOOP

    def warm(self):
        pass

    def trace(self, tracer, on):
        """Switch tracing of the library calls in this process on or off."""
        if on:
            tracer.install()
        else:
            tracer.restore()

    def fold(self, tracer, counters):
        """Add tallies made outside this process; none here."""


class KlCold(Workload):
    """Every P_{x,w} in S5 plus P_{e,[4,5,6,7,1,2,3]} in S7, each round
    from cleared memo tables: the Kazhdan-Lusztig recursion and the
    weyl_core primitives under it do nearly all the work."""

    W7 = (4, 5, 6, 7, 1, 2, 3)
    # P_{e,w} is unchanged by the standard embedding S4 < S5, so the S4
    # values P_{e,3412} = P_{e,4231} = 1+q pin the S5 entries below.
    PINNED = {
        ((1, 2, 3, 4, 5), (3, 4, 1, 2, 5)): (1, 1),
        ((1, 2, 3, 4, 5), (4, 2, 3, 1, 5)): (1, 1),
        ((1, 2, 3, 4, 5, 6, 7), W7): (1, 6, 12, 7),
    }

    def queries(self):
        g5 = enumerate_group(5)
        return [(x, w) for x in g5 for w in g5] + [(identity(7), self.W7)]

    def call(self, q):
        return kl_mult.kl_poly(*q)

    def check(self, answers):
        bad = {q for q, p in self.PINNED.items() if answers.get(q) != p}
        for (x, w), p in answers.items():
            sym = answers.get((inverse(x), inverse(w)))
            if sym is None:
                sym = kl_mult.kl_poly(inverse(x), inverse(w))
            if not bruhat_leq(x, w):
                ok = p == ()
            else:
                ok = bool(p) and p[0] == 1 and (
                    x == w or 2 * (len(p) - 1) <= length(w) - length(x) - 1
                )
            if not ok or sym != p:
                bad.add((x, w))
        return bad


class SteinbergWarm(Workload):
    """Tits checks and constituent lists over the rank-4 block shapes,
    with the Kazhdan-Lusztig memo warmed in set-up: the time goes to the
    Steinberg sum, the d_L-fold product, GrothVector and bruhat_leq, not
    to the KL recursion."""

    cold = False
    # (r, k, d_L, max_len) over the rank-4 shapes.  d_L = 2 runs uncapped
    # and larger d_L capped; (1, 4) stops at d_L = 3 because listing the
    # d_L = 4 labels alone takes seconds whatever the cap.
    CASES = [
        (1, 4, 2, None), (1, 4, 3, 3),
        (2, 2, 2, None), (2, 2, 3, 4), (2, 2, 4, 4),
        (4, 1, 2, None), (4, 1, 3, 4), (4, 1, 4, 4),
    ]

    def queries(self):
        qs = []
        for case in self.CASES:
            qs += [("analytic", *case), ("constituents", *case)]
        for I in segments.jh_factors(1, 9):
            members = tuple(sorted(I.members))
            qs += [("smooth", 1, 9, members), ("squares", 1, 9, members)]
        return qs

    def warm(self):
        g4 = enumerate_group(4)
        for x in g4:
            for w in g4:
                kl_mult.kl_poly(x, w)

    def call(self, q):
        kind, r, k = q[:3]
        if kind == "analytic":
            return steinberg_mult.analytic_tits_euler_check(BlockSet(r, k), *q[3:])
        if kind == "constituents":
            out = steinberg_mult.enumerate_constituents(BlockSet(r, k), *q[3:])
            return [[lab.w, sorted(lab.J.members), m] for lab, m in out]
        I = BlockSet(r, k, frozenset(q[3]))
        if kind == "smooth":
            return steinberg_mult.smooth_tits_euler_check(I)
        return steinberg_mult.check_complex_squares_zero(I)

    def check(self, answers):
        bad = set()
        for q, ans in answers.items():
            if q[0] != "constituents":
                ok = ans is True
            else:
                S = BlockSet(q[1], q[2])
                ok = all(
                    m != 0
                    and m == steinberg_mult.steinberg_multiplicity_oracle(
                        tuple(w), BlockSet(q[1], q[2], frozenset(J)), S
                    )
                    for w, J, m in ans
                )
            if not ok:
                bad.add(q)
        return bad


class SelftestFull(Workload):
    """In-process ``run_selftest("full")`` from cold tables; its S7 Bruhat
    sweep fills the down-set memo with entries that are never reused, so
    this is the workload where memory moves."""


    def __init__(self, expected_checks):
        self.expected_checks = expected_checks

    def queries(self):
        return [("selftest", "full")]

    def call(self, q):
        return cli_io.run_selftest(q[1])

    def check(self, answers):
        return {q for q, n in answers.items() if n != self.expected_checks}


class CliError(RuntimeError):
    """A CLI call exited non-zero or printed other than one JSON document."""


def _perm(w):
    return "[" + ",".join(map(str, w)) + "]"


def _cli_queries():
    g4 = enumerate_group(4)
    g5 = enumerate_group(5)
    roots = ["-", "1", "2", "3", "1,3", "1,2", "2,3", "1,2,3"]
    q = []
    q += [("weyl", "--n", "4", "--w", _perm(w)) for w in g4[::2]]
    q += [
        ("cosets", "--n", "4", "--I", i, "--J", j, "--matrices" if t % 2 else "--no-matrices")
        for t, (i, j) in enumerate(zip(roots + roots[:4], roots[3:] + roots[:7]))
    ]
    q += [("kl", "--n", "4", "--x", _perm(x), "--w", "[4,3,2,1]") for x in g4[::4]]
    q += [("kl", "--n", "5", "--x", "e", "--w", _perm(w)) for w in g5[60::10]]
    q += [
        ("mult", "--r", "2", "--k", "2", "--dL", str(1 + t % 2), "--K", "-1"[t % 2], "--w", _perm(w))
        for t, w in enumerate(g4[::2])
    ]
    q += [
        ("steinberg-mult", "--r", "2", "--k", "2", "--dL", "1", "--w", _perm(w), "--J", j, "--S", s)
        for w in g4[1::8]
        for j, s in [("-", "-"), ("1", "-")]
    ]
    q += [
        ("steinberg-mult", "--r", r, "--k", k, "--dL", d, "--S", "-", "--J", "-")
        for r, k, d in [("2", "2", "1"), ("2", "2", "2"), ("1", "3", "1"), ("1", "3", "2"), ("1", "4", "1"), ("3", "2", "1")]
    ]
    shapes = [(r, k) for r in (1, 2, 3) for k in (1, 2, 3, 4)]
    q += [("jh", "--r", str(r), "--k", str(k)) for r, k in shapes]
    q += [("jacquet", "--r", str(r), "--k", str(k)) for r, k in shapes]
    q += [
        ("segments", "--r", str(r), "--k", str(k), "--I", "-" if k < 2 or r == 2 else "1")
        for r, k in shapes
    ]
    q += [("tits-check", "--r", str(r), "--k", str(k)) for r, k in shapes[:6]]
    q += [
        ("tits-check", "--r", r, "--k", k, "--analytic", "--S", s, "--dL", d)
        for r, k, s, d in [("2", "2", "-", "1"), ("2", "2", "1", "1"), ("1", "3", "-", "1"),
                           ("1", "3", "1", "1"), ("2", "2", "-", "2"), ("1", "3", "2", "1")]
    ]
    ext = [
        ("analytic", "1", "v:2", "st-an", "3", "3", "2"),
        ("analytic", "1", "v:1", "st-an", "2", "3", "1"),
        ("analytic", "0", "v:1", "st-an", "2", "3", "1"),
        ("analytic", "1", "v:1", "sigma:1", "2", "3", "2"),
        ("analytic", "1", "v:1", "sigma:1@1", "2", "3", "2"),
        ("analytic", "1", "v:1", "c:1@0", "2", "3", "2"),
        ("analytic", "1", "i:-", "i:1", "2", "3", "1"),
        ("analytic", "2", "v:1", "i:1", "1", "4", "2"),
        ("smooth", "0", "i:1", "i:1", "1", "3", "1"),
        ("smooth", "1", "v:1", "i:-", "2", "3", "1"),
        ("smooth", "1", "v:1", "v:2", "1", "3", "1"),
        ("smooth", "1", "levi:1", "levi:1", "2", "3", "1"),
    ]
    q += [
        ("ext-dim", "--kind", kind, "--degree", deg, "--left", left, "--right", right,
         "--r", r, "--k", k, "--dL", d)
        for kind, deg, left, right, r, k, d in ext
    ]
    return q


class CliMix(Workload):
    """Sequential one-shot ``python -m parastein.cli_io <verb>`` calls over
    the ten query verbs with small arguments: interpreter start and
    imports dominate, so this is the CLI layer's workload."""

    rusage = resource.RUSAGE_CHILDREN  # the largest CLI process
    probe = pace.START

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.prefix = [sys.executable, "-m", "parastein.cli_io"]
        self.reports = None

    def queries(self):
        return _cli_queries()

    def trace(self, tracer, on):
        """Traced calls go through cli_shim.py, which traces inside the
        CLI process and reports its tallies on stderr."""
        if on:
            self.prefix = [sys.executable, os.path.join(ROOT, "perfbench", "cli_shim.py")]
            self.reports = []
        else:
            self.prefix = [sys.executable, "-m", "parastein.cli_io"]
            self.reports = None

    def fold(self, tracer, counters):
        """Add the shim reports since the last fold to ``tracer`` and to
        ``counters``, summed over processes."""
        for rep in self.reports:
            for name, n in rep["calls"].items():
                tracer.calls[name] += n
                tracer.self_s[name] += rep["self_s"][name]
                tracer.nonzero[name] += rep["nonzero"][name]
            for key, n in rep["memo"].items():
                counters[key] = counters.get(key, 0) + n
        self.reports.clear()

    def call(self, q):
        proc = subprocess.run(
            self.prefix + list(q), capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120
        )
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}")
        if self.reports is not None:
            self.reports.append(json.loads(proc.stderr.splitlines()[-1]))
        if proc.stdout.count("\n") != 1:
            raise CliError(f"expected one line on stdout, got {proc.stdout!r}")
        return json.loads(proc.stdout)

    def check(self, answers):
        bad = set()
        for q, doc in answers.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_io.main(list(q))
            if rc != 0 or json.loads(buf.getvalue()) != doc:
                bad.add(q)
        return bad


def make(name, expected):
    """The workload called ``name``; ``expected`` is its entry in
    expected.json (the selftest check count lives there)."""
    if name == "kl-cold":
        return KlCold()
    if name == "steinberg-warm":
        return SteinbergWarm()
    if name == "selftest-full":
        return SelftestFull(expected.get("checks"))
    if name == "cli-mix":
        return CliMix()
    raise ValueError(f"unknown workload {name!r}")


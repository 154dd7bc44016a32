"""Deterministic JSON command-line front end, ``parastein <verb> [options]``.

The parser is the standard library's ``argparse``, built from the option
rows of ``VERBS``: only the subparser of the verb in the first argument,
or every subparser when the first argument names no verb.  Options are
never abbreviated, ``--opt=value`` works, a repeated option's last value
wins, and only ``--help`` prints help (plain text, exit 0).  Otherwise a
call prints exactly one JSON document, on one line of standard output.
Each handler in ``VERBS`` returns its document as a dict and writes
nothing; ``main()`` writes the one line, the handler's document or the
{"error": ...} document of a failure, from a single write.  Exit codes:

- 0 success;
- 2 bad input: a usage error or a failed precondition, such as a rank
  below 1, or an option that the mode would ignore (``--S``, ``--dL`` or
  ``--max-len`` on a smooth ``tits-check``, ``--max-len`` with
  ``steinberg-mult --w``, ``--J`` on a ``steinberg-mult`` listing) given
  a value other than its default;
- 3 a resource bound was exceeded, such as the enumeration bound, the
  KL memo cap, the label bound, or a constituent listing above rank 6
  without --max-len;
- 4 a selftest invariant failed; the document also carries "check", the
  name of the failed check.

``python -m parastein.cli_io`` and the installed ``parastein`` script both
enter through ``run()``, which calls ``main()`` and freezes the garbage
collector once the document is written.  The shutdown collections then
skip the module graph, which the OS reclaims with the process, instead of
freeing it object by object.  ``main()`` returns its code and leaves the
collector alone, because tests and benchmarks call it in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import ext_calc, kl_mult, segments, steinberg_mult
from .cosets import (
    BlockSet,
    coset_matrix,
    double_coset_count_oracle,
    format_blockset,
    min_double_coset_reps,
    modulus_exponents,
    parse_blockset,
)
from .weyl_core import (
    BoundExceededError,
    MultiWeyl,
    bruhat_leq,
    enumerate_group,
    format_perm,
    format_word,
    left_ascents,
    left_descents,
    length,
    parse_perm,
    right_descents,
    support,
)


def _parse_multiweyl(text: str, n: int, d_L: int) -> MultiWeyl:
    # d_L first: the component count below means nothing for d_L < 1.
    if d_L < 1:
        raise ValueError(f"d_L must be at least 1, got {d_L}")
    parts = text.split(";")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty component in {text!r}")
    if len(parts) == 1 and d_L > 1:
        parts = parts * d_L
    if len(parts) != d_L:
        raise ValueError(f"expected {d_L} components separated by ';'")
    return tuple(parse_perm(p, n) for p in parts)


def _parse_rep(text: str, k: int) -> ext_calc.RepDescriptor:
    text = text.strip()
    if text == "st-an":
        return ext_calc.RepDescriptor("st-an")
    if ":" not in text:
        raise ValueError(f"malformed rep descriptor: {text!r}")
    tag, rest = text.split(":", 1)
    if tag in ("i", "v", "levi"):
        kind = {"i": "ind", "v": "steinberg", "levi": "levi-self"}[tag]
        return ext_calc.RepDescriptor(kind, parse_blockset(rest, 1, k).members)
    if tag in ("sigma", "c"):
        if "@" in rest:
            idx_text, sig_text = rest.split("@", 1)
            idx, sig = int(idx_text), int(sig_text)
            kind = "sigma-comp" if tag == "sigma" else "constituent"
            return ext_calc.RepDescriptor(kind, frozenset(), idx, sig)
        if tag == "c":
            raise ValueError("constituent descriptors need the form c:j@sigma")
        return ext_calc.RepDescriptor("sigma", frozenset(), int(rest), None)
    raise ValueError(f"unknown rep descriptor tag: {tag!r}")


def weyl_cmd(n: int, w_text: str) -> dict:
    w = parse_perm(w_text, n)
    return {
        "w": format_perm(w),
        "length": length(w),
        "reduced_word": format_word(w),
        "support": sorted(support(w)),
        "left_descents": sorted(left_descents(w)),
        "right_descents": sorted(right_descents(w)),
        "ascents": sorted(left_ascents(w)),
    }


def cosets_cmd(n: int, i_text: str, j_text: str, matrices: bool) -> dict:
    I = parse_blockset(i_text, 1, n).members
    J = parse_blockset(j_text, 1, n).members
    reps = min_double_coset_reps(n, I, J)
    doc: dict = {
        "count": len(reps),
        "oracle_count": double_coset_count_oracle(n, I, J),
        "reps": [format_perm(w) for w in reps],
    }
    if matrices:
        doc["matrices"] = [coset_matrix(w, I, J) for w in reps]
    return doc


def kl_cmd(n: int, x_text: str, w_text: str) -> dict:
    x = parse_perm(x_text, n)
    w = parse_perm(w_text, n)
    return {"coeffs": list(kl_mult.kl_poly(x, w))}


def mult_cmd(r: int, k: int, d_l: int, k_text: str, w_text: str) -> dict:
    K = parse_blockset(k_text, r, k)
    w = _parse_multiweyl(w_text, r * k, d_l)
    return {"K": format_blockset(K), "m": kl_mult.parabolic_verma_mult(K, w)}


def steinberg_cmd(
    r: int, k: int, d_l: int, w_text: str | None, j_text: str, s_text: str, max_len: int | None
) -> dict:
    S = parse_blockset(s_text, r, k)
    if w_text is not None:
        if max_len is not None:
            raise ValueError("--max-len applies only to a listing, not with --w")
        J = parse_blockset(j_text, r, k)
        w = _parse_multiweyl(w_text, r * k, d_l)
        return {
            "w": ";".join(format_perm(c) for c in w),
            "J": format_blockset(J),
            "S": format_blockset(S),
            "m": steinberg_mult.steinberg_multiplicity(w, J, S),
        }
    if j_text != "-":
        raise ValueError("--J applies only with --w, not to a listing")
    out = steinberg_mult.enumerate_constituents(S, d_l, max_len)
    return {
        "S": format_blockset(S),
        "constituents": [
            {"w": ";".join(format_perm(c) for c in lab.w), "J": format_blockset(lab.J), "m": m}
            for lab, m in out
        ],
    }


def jh_cmd(r: int, k: int) -> dict:
    factors = segments.jh_factors(r, k)
    return {"count": len(factors), "factors": [format_blockset(f) for f in factors]}


def segments_cmd(r: int, k: int, i_text: str) -> dict:
    I = parse_blockset(i_text, r, k)
    segs = segments.pi_I_segments(r, k, I)
    return {
        "I": format_blockset(I),
        "segments": [{"len": s.block_length, "twist": str(s.twist)} for s in segs],
    }


def jacquet_cmd(r: int, k: int) -> dict:
    terms = segments.jacquet_decomposition(r, k)
    return {
        "count": len(terms),
        "terms": [{"w": format_perm(w), "exponents": [str(e) for e in exps]} for w, exps in terms],
    }


def tits_cmd(r: int, k: int, analytic: bool, s_text: str, d_l: int, max_len: int | None) -> dict:
    if analytic:
        S = parse_blockset(s_text, r, k)
        ok = steinberg_mult.analytic_tits_euler_check(S, d_l, max_len)
        return {"mode": "analytic", "S": format_blockset(S), "ok": ok}
    # The smooth check reads none of the analytic options: a value other
    # than the default would be silently ignored.
    ignored = (("--S", s_text, "-"), ("--dL", d_l, 1), ("--max-len", max_len, None))
    for option, value, default in ignored:
        if value != default:
            raise ValueError(f"{option} applies only with --analytic")
    factors = segments.jh_factors(r, k)
    ok = all(
        steinberg_mult.smooth_tits_euler_check(I) and steinberg_mult.check_complex_squares_zero(I)
        for I in factors
    )
    return {"mode": "smooth", "ok": ok, "checked": len(factors)}


def ext_cmd(
    kind: str,
    fixed_center: bool,
    degree: int,
    left_text: str,
    right_text: str,
    r: int,
    k: int,
    d_l: int,
) -> dict:
    q = ext_calc.ExtQuery(
        kind,
        fixed_center,
        degree,
        _parse_rep(left_text, k),
        _parse_rep(right_text, k),
        r,
        k,
        d_l,
    )
    ans = ext_calc.ext_dim(q)
    if ans.status == "not-determined":
        return {"status": "not-determined", "cite": ans.rule, "note": ans.note}
    return {"dim": ans.value, "cite": ans.rule}


def selftest_cmd(level: str) -> dict:
    return {"ok": True, "level": level, "checks": run_selftest(level)}


class SelftestFailure(Exception):
    """A selftest invariant did not hold; ``check`` names it."""

    def __init__(self, check: str) -> None:
        super().__init__(f"selftest failure: {check}")
        self.check = check


def run_selftest(level: str) -> int:
    """Run the cross-module invariant suites; raises ``SelftestFailure``
    on the first failed check and returns the number of checks
    performed."""
    n_max = 5 if level == "quick" else 7
    k_max = 4 if level == "quick" else 5
    checks = 0

    def require(cond: bool, msg: str) -> None:
        nonlocal checks
        checks += 1
        if not cond:
            raise SelftestFailure(msg)

    # Bruhat partial order sanity and coset counts.
    for n in range(1, n_max + 1):
        group = enumerate_group(n)
        w0 = group[-1]
        require(length(w0) == n * (n - 1) // 2, "longest length")
        for w in group:
            require(bruhat_leq(group[0], w) and bruhat_leq(w, w0), "order extremes")
    for n in range(2, min(n_max, 5) + 1):
        roots = list(range(1, n))
        for i_mask in range(1 << len(roots)):
            I = frozenset(roots[t] for t in range(len(roots)) if i_mask >> t & 1)
            got = len(min_double_coset_reps(n, I, I))
            require(got == double_coset_count_oracle(n, I, I), "coset count oracle")

    # Modulus exponents pair to zero against block sizes.
    for k in range(1, k_max + 1):
        for r in (1, 2):
            for I in segments.jh_factors(r, k):
                exps = modulus_exponents(I)
                parts = I.partition()
                require(
                    sum(a * p for a, p in zip(exps, parts)) == 0, "modulus pairing"
                )
                segs = segments.pi_I_segments(r, k, I)
                require(
                    [s.block_length for s in segs] == list(parts), "segment shapes"
                )

    # Segment twists: base tuple centrality and Jacquet distinctness.
    for k in range(1, k_max + 1):
        for r in (1, 2, 3):
            base = segments.pi_base_twists(r, k)
            require(
                sum((b - (k - i)) * r for i, b in enumerate(base, start=1)) == 0,
                "twist centrality",
            )
            tuples = [t for _, t in segments.jacquet_decomposition(r, k)]
            require(len(set(tuples)) == len(tuples), "jacquet distinctness")

    # KL suite on a small group.
    n = 4 if level == "quick" else 5
    group = enumerate_group(n)
    for x in group:
        for w in group:
            p = kl_mult.kl_poly(x, w)
            if not bruhat_leq(x, w):
                require(p == (), "vanishing off the order")
            else:
                require(p[0] == 1, "constant term")
                require(
                    x == w or 2 * (len(p) - 1) <= length(w) - length(x) - 1,
                    "degree bound",
                )
    checks += 1

    # Steinberg formula against its oracle.
    envelope = [(1, 3, 1), (2, 2, 1)] if level == "quick" else [(1, 3, 1), (2, 2, 1), (2, 2, 2)]
    for r, k, d_l in envelope:
        require(
            steinberg_mult.analytic_tits_euler_check(BlockSet(r, k), d_l),
            "formula-oracle agreement",
        )
        for I in segments.jh_factors(r, k):
            require(steinberg_mult.smooth_tits_euler_check(I), "smooth Euler check")

    # Ext table coherence.
    for r, k, d_l in [(2, 2, 1), (1, 3, 2), (1, 4, 3)]:
        require(ext_calc.consistency_check_thm_main(r, k, d_l), "ext consistency")
        st = ext_calc.RepDescriptor("steinberg", frozenset({1}))
        ans = ext_calc.ext_dim(
            ext_calc.ExtQuery("analytic", False, 1, st, ext_calc.RepDescriptor("st-an"), r, k, d_l)
        )
        require(ans.value == d_l + 1, "headline degree-1 dimension")
    return checks


# One row per option: (names, dest, type, default).  A default of ...
# makes the option required; type bool makes names an (on, off) flag
# pair defaulting to False; a tuple type lists a string's choices.
_N = (("--n",), "n", int, ...)
_R = (("--r",), "r", int, ...)
_K = (("--k",), "k", int, ...)
_W = (("--w",), "w_text", str, ...)
_DL = (("--dl", "--dL"), "d_l", int, 1)
_S = (("--s", "--S"), "s_text", str, "-")
_MAX_LEN = (("--max-len",), "max_len", int, None)

VERBS = {
    "weyl": (weyl_cmd, [_N, _W]),
    "cosets": (cosets_cmd, [_N, (("--i", "--I"), "i_text", str, ...),
                            (("--j", "--J"), "j_text", str, ...),
                            (("--matrices", "--no-matrices"), "matrices", bool, False)]),
    "kl": (kl_cmd, [_N, (("--x",), "x_text", str, ...), _W]),
    "mult": (mult_cmd, [_R, _K, _DL, (("--kset", "--K"), "k_text", str, "-"), _W]),
    "steinberg-mult": (steinberg_cmd, [_R, _K, _DL, (("--w",), "w_text", str, None),
                                       (("--j", "--J"), "j_text", str, "-"), _S, _MAX_LEN]),
    "jh": (jh_cmd, [_R, _K]),
    "segments": (segments_cmd, [_R, _K, (("--i", "--I"), "i_text", str, "-")]),
    "jacquet": (jacquet_cmd, [_R, _K]),
    "tits-check": (tits_cmd, [_R, _K, (("--analytic", "--smooth"), "analytic", bool, False),
                              _S, _DL, _MAX_LEN]),
    "ext-dim": (ext_cmd, [(("--kind",), "kind", ("smooth", "analytic"), ...),
                          (("--fixed-center", "--free-center"), "fixed_center", bool, False),
                          (("--degree",), "degree", int, ...), (("--left",), "left_text", str, ...),
                          (("--right",), "right_text", str, ...), _R, _K, _DL]),
    "selftest": (selftest_cmd, [(("--level",), "level", ("quick", "full"), "quick")]),
}


class _Help(Exception):
    """``--help`` has printed the usage; the call exits 0."""


class _Parser(argparse.ArgumentParser):
    """Raises instead of printing to stderr and exiting: ValueError
    (exit 2) on a usage error, ``_Help`` after ``--help``."""

    def error(self, message: str):
        raise ValueError(message)

    def exit(self, status: int = 0, message: str | None = None):
        raise _Help


def _parser(argv: list[str]) -> _Parser:
    """The parser for ``argv``: with the subparser of the verb
    ``argv[0]`` alone, or with every subparser when ``argv[0]`` names no
    verb (no arguments, an unknown verb, or a top-level ``--help``), so
    that those messages list every verb."""
    top = _Parser(prog="parastein", allow_abbrev=False, add_help=False)
    top.add_argument("--help", action="help")
    verbs = top.add_subparsers(dest="verb", required=True)
    wanted = argv[:1] if argv and argv[0] in VERBS else VERBS
    for verb in wanted:
        sub = verbs.add_parser(verb, allow_abbrev=False, add_help=False)
        sub.add_argument("--help", action="help")
        for names, dest, kind, default in VERBS[verb][1]:
            if kind is bool:
                sub.add_argument(names[0], dest=dest, action="store_true")
                sub.add_argument(names[1], dest=dest, action="store_false", default=False)
                continue
            choices = kind if isinstance(kind, tuple) else None
            sub.add_argument(*names, dest=dest, type=str if choices else kind, choices=choices,
                             default=default, required=default is ...)
    return top


def main(argv: list[str] | None = None) -> int:
    """Run one call and write its document, the verb's or the failure's,
    as the one line of stdout; return the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = vars(_parser(argv).parse_args(argv))
        if args.get("n", 1) < 1:
            raise ValueError("n must be positive")
        doc, code = VERBS[args.pop("verb")][0](**args), 0
    except _Help:
        return 0
    except BoundExceededError as exc:
        doc, code = {"error": str(exc)}, 3
    except SelftestFailure as exc:
        doc, code = {"error": str(exc), "check": exc.check}, 4
    except ValueError as exc:
        doc, code = {"error": str(exc)}, 2
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return code


def run() -> None:
    """Process entry point: ``main()``, then ``gc.freeze()``, then exit
    with main's code.  Atexit handlers, the stdio flush and the exit
    code stay CPython's; only the shutdown collections have less to do."""
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()

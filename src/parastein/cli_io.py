"""Deterministic JSON command-line front end, ``parastein <verb> [options]``.

``parse_args`` reads the arguments against the option rows of ``VERBS``;
no parser object is built.  The verb comes first.  Option names match
exactly, never abbreviated; ``--opt value`` and ``--opt=value`` both
work, and a repeated option's last value wins.  Each ``bool`` row is an
on/off flag pair that takes no value.  A token that starts with "-" is
an option's value only if it is "-", a negative number or contains a
space, so ``--S -`` and ``--dL -3`` are values and ``--w --n 4`` leaves
``--w`` without one.  A usage error's message is the one argparse gives
(CPython 3.11).  Only ``--help`` prints help: one plain-text usage line
that names every option of the verb, exit 0.  Otherwise a call prints
exactly one JSON document, on one line of standard output.
Each handler in ``VERBS`` returns its document as a dict and writes
nothing; ``main()`` writes the one line, the handler's document or the
{"error": ...} document of a failure, from a single write.  This module
reads the library only as attributes of its modules, such as
``weyl_core.parse_perm``, so a call runs only the modules that its verb
reads (see ``parastein/__init__.py``).  Exit codes:

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

import gc
import json
import re
import sys

from . import cosets, ext_calc, kl_mult, segments, steinberg_mult, weyl_core


def _parse_multiweyl(text: str, n: int, d_L: int) -> weyl_core.MultiWeyl:
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
    return tuple(weyl_core.parse_perm(p, n) for p in parts)


def _parse_rep(text: str, k: int) -> ext_calc.RepDescriptor:
    text = text.strip()
    if text == "st-an":
        return ext_calc.RepDescriptor("st-an")
    if ":" not in text:
        raise ValueError(f"malformed rep descriptor: {text!r}")
    tag, rest = text.split(":", 1)
    if tag in ("i", "v", "levi"):
        kind = {"i": "ind", "v": "steinberg", "levi": "levi-self"}[tag]
        return ext_calc.RepDescriptor(kind, cosets.parse_blockset(rest, 1, k).members)
    if tag in ("sigma", "c"):
        if tag == "c" and "@" not in rest:
            raise ValueError("constituent descriptors need the form c:j@sigma")
        try:
            numbers = [int(t) for t in rest.split("@", 1)]
        except ValueError:
            raise ValueError(f"malformed rep descriptor: {text!r}") from None
        if len(numbers) == 1:
            return ext_calc.RepDescriptor("sigma", frozenset(), numbers[0], None)
        kind = "sigma-comp" if tag == "sigma" else "constituent"
        return ext_calc.RepDescriptor(kind, frozenset(), *numbers)
    raise ValueError(f"unknown rep descriptor tag: {tag!r}")


def weyl_cmd(n: int, w_text: str) -> dict:
    w = weyl_core.parse_perm(w_text, n)
    return {
        "w": weyl_core.format_perm(w),
        "length": weyl_core.length(w),
        "reduced_word": weyl_core.format_word(w),
        "support": sorted(weyl_core.support(w)),
        "left_descents": sorted(weyl_core.left_descents(w)),
        "right_descents": sorted(weyl_core.right_descents(w)),
        "ascents": sorted(weyl_core.left_ascents(w)),
    }


def cosets_cmd(n: int, i_text: str, j_text: str, matrices: bool) -> dict:
    I = cosets.parse_blockset(i_text, 1, n).members
    J = cosets.parse_blockset(j_text, 1, n).members
    reps = cosets.min_double_coset_reps(n, I, J)
    doc: dict = {
        "count": len(reps),
        "oracle_count": cosets.double_coset_count_oracle(n, I, J),
        "reps": [weyl_core.format_perm(w) for w in reps],
    }
    if matrices:
        doc["matrices"] = [cosets.coset_matrix(w, I, J) for w in reps]
    return doc


def kl_cmd(n: int, x_text: str, w_text: str) -> dict:
    x = weyl_core.parse_perm(x_text, n)
    w = weyl_core.parse_perm(w_text, n)
    return {"coeffs": list(kl_mult.kl_poly(x, w))}


def mult_cmd(r: int, k: int, d_l: int, k_text: str, w_text: str) -> dict:
    K = cosets.parse_blockset(k_text, r, k)
    w = _parse_multiweyl(w_text, r * k, d_l)
    return {"K": cosets.format_blockset(K), "m": kl_mult.parabolic_verma_mult(K, w)}


def steinberg_cmd(
    r: int, k: int, d_l: int, w_text: str | None, j_text: str, s_text: str, max_len: int | None
) -> dict:
    S = cosets.parse_blockset(s_text, r, k)
    if w_text is not None:
        if max_len is not None:
            raise ValueError("--max-len applies only to a listing, not with --w")
        J = cosets.parse_blockset(j_text, r, k)
        w = _parse_multiweyl(w_text, r * k, d_l)
        return {
            "w": ";".join(weyl_core.format_perm(c) for c in w),
            "J": cosets.format_blockset(J),
            "S": cosets.format_blockset(S),
            "m": steinberg_mult.steinberg_multiplicity(w, J, S),
        }
    if j_text != "-":
        raise ValueError("--J applies only with --w, not to a listing")
    out = steinberg_mult.enumerate_constituents(S, d_l, max_len)
    return {
        "S": cosets.format_blockset(S),
        "constituents": [
            {
                "w": ";".join(weyl_core.format_perm(c) for c in lab.w),
                "J": cosets.format_blockset(lab.J),
                "m": m,
            }
            for lab, m in out
        ],
    }


def jh_cmd(r: int, k: int) -> dict:
    factors = segments.jh_factors(r, k)
    return {"count": len(factors), "factors": [cosets.format_blockset(f) for f in factors]}


def segments_cmd(r: int, k: int, i_text: str) -> dict:
    I = cosets.parse_blockset(i_text, r, k)
    segs = segments.pi_I_segments(r, k, I)
    return {
        "I": cosets.format_blockset(I),
        "segments": [{"len": s.block_length, "twist": str(s.twist)} for s in segs],
    }


def jacquet_cmd(r: int, k: int) -> dict:
    terms = segments.jacquet_decomposition(r, k)
    return {
        "count": len(terms),
        "terms": [
            {"w": weyl_core.format_perm(w), "exponents": [str(e) for e in exps]}
            for w, exps in terms
        ],
    }


def tits_cmd(r: int, k: int, analytic: bool, s_text: str, d_l: int, max_len: int | None) -> dict:
    if analytic:
        S = cosets.parse_blockset(s_text, r, k)
        ok = steinberg_mult.analytic_tits_euler_check(S, d_l, max_len)
        return {"mode": "analytic", "S": cosets.format_blockset(S), "ok": ok}
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
        group = weyl_core.enumerate_group(n)
        w0 = group[-1]
        require(weyl_core.length(w0) == n * (n - 1) // 2, "longest length")
        for w in group:
            require(
                weyl_core.bruhat_leq(group[0], w) and weyl_core.bruhat_leq(w, w0),
                "order extremes",
            )
    for n in range(2, min(n_max, 5) + 1):
        roots = list(range(1, n))
        for i_mask in range(1 << len(roots)):
            I = frozenset(roots[t] for t in range(len(roots)) if i_mask >> t & 1)
            got = len(cosets.min_double_coset_reps(n, I, I))
            require(got == cosets.double_coset_count_oracle(n, I, I), "coset count oracle")

    # Modulus exponents pair to zero against block sizes.
    for k in range(1, k_max + 1):
        for r in (1, 2):
            for I in segments.jh_factors(r, k):
                exps = cosets.modulus_exponents(I)
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
    group = weyl_core.enumerate_group(n)
    for x in group:
        for w in group:
            p = kl_mult.kl_poly(x, w)
            if not weyl_core.bruhat_leq(x, w):
                require(p == (), "vanishing off the order")
            else:
                require(p[0] == 1, "constant term")
                require(
                    x == w
                    or 2 * (len(p) - 1) <= weyl_core.length(w) - weyl_core.length(x) - 1,
                    "degree bound",
                )
    checks += 1

    # Steinberg formula against its oracle.
    envelope = [(1, 3, 1), (2, 2, 1)] if level == "quick" else [(1, 3, 1), (2, 2, 1), (2, 2, 2)]
    for r, k, d_l in envelope:
        require(
            steinberg_mult.analytic_tits_euler_check(cosets.BlockSet(r, k), d_l),
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


def _option(token: str, names) -> tuple[str, str | None] | None:
    """Read ``token`` against the option strings ``names`` as argparse
    does: None for a value, else the option (known or not) and the text
    after its "=" (None without one).  A token that starts with "-" is
    a value only if it is "-", a negative number or contains a space."""
    if token in names:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return token, None


def _no_value(name: str, value: str | None) -> None:
    if value is not None:
        raise ValueError(f"argument {name}: ignored explicit argument {value!r}")


def _choice(name: str, value: str, choices) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _usage(verb: str | None) -> str:
    """The ``--help`` text: one usage line naming every verb, or every
    option string of ``verb``."""
    if verb is None:
        return "usage: parastein [--help] {" + ",".join(VERBS) + "} ...\n"
    words = [f"usage: parastein {verb} [--help]"]
    for names, dest, kind, default in VERBS[verb][1]:
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()
        word = " | ".join(names) if kind is bool else "/".join(names) + " " + value
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words) + "\n"


def parse_args(argv: list[str]) -> dict | str:
    """``argv`` read by the grammar of the module docstring: the verb
    under "verb" and each option row's value under its dest, or the
    ``--help`` text.  A usage error raises ValueError with the message
    that argparse gives.  The text after an "=" is the value as written,
    "--" included, where argparse dropped a "--" and left no value."""
    extras: list[str] = []
    for i, token in enumerate(argv):
        option = _option(token, ("--help",))
        # A "--" with anything after it is read as the verb.
        if option is None or token == "--" and i + 1 < len(argv):
            break
        if option[0] == "--help":
            _no_value(*option)
            return _usage(None)
        extras.append(token)
    else:
        raise ValueError("the following arguments are required: verb")
    verb, rest = argv[i], argv[i + 1:]
    _choice("verb", verb, VERBS)
    rows = {"--help": None}
    args = {"verb": verb}
    for row in VERBS[verb][1]:
        rows.update(dict.fromkeys(row[0], row))
        args[row[1]] = row[3]
    j = 0
    while j < len(rest):
        token = rest[j]
        j += 1
        if token == "--":  # everything from here on is left over
            extras += rest[j - 1:]
            break
        option = _option(token, rows)
        if option is None or option[0] not in rows:
            extras.append(token)
            continue
        name, value = option
        if rows[name] is None:
            _no_value(name, value)
            return _usage(verb)
        names, dest, kind, _ = rows[name]
        if kind is bool:
            _no_value(name, value)
            args[dest] = name == names[0]
            continue
        label = "/".join(names)
        if value is None:
            if j == len(rest) or _option(rest[j], rows) is not None:
                raise ValueError(f"argument {label}: expected one argument")
            value = rest[j]
            j += 1
        if isinstance(kind, tuple):
            _choice(label, value, kind)
            args[dest] = value
            continue
        try:
            args[dest] = kind(value)
        except ValueError:
            raise ValueError(f"argument {label}: invalid {kind.__name__} value: {value!r}") from None
    missing = ["/".join(names) for names, dest, _, _ in VERBS[verb][1] if args[dest] is ...]
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise ValueError("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one call and write its document, the verb's or the failure's,
    or the ``--help`` text, as stdout; return the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
        if isinstance(args, str):
            out, code = args, 0
        else:
            if args.get("n", 1) < 1:
                raise ValueError("n must be positive")
            out, code = VERBS[args.pop("verb")][0](**args), 0
    except ValueError as exc:
        # First: reading weyl_core.BoundExceededError would run weyl_core.
        out, code = {"error": str(exc)}, 2
    except weyl_core.BoundExceededError as exc:
        out, code = {"error": str(exc)}, 3
    except SelftestFailure as exc:
        out, code = {"error": str(exc), "check": exc.check}, 4
    if isinstance(out, dict):
        out = json.dumps(out, separators=(",", ":")) + "\n"
    sys.stdout.write(out)
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

import ast
import gc
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from parastein import cli_io, steinberg_mult, weyl_core
from parastein.cli_io import main
from parastein.kl_mult import kl_cache_clear


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.count("\n") == 1, "exactly one JSON document expected"
    return code, json.loads(out)


def test_weyl(capsys):
    code, doc = run(capsys, "weyl", "--n", "4", "--w", "[3,4,1,2]")
    assert code == 0
    assert doc["length"] == 4
    assert doc["support"] == [1, 2, 3]
    assert doc["ascents"] == [1, 3]
    assert doc["w"] == "[3,4,1,2]"


def test_weyl_word_input(capsys):
    code, doc = run(capsys, "weyl", "--n", "4", "--w", "s2*s3*s1*s2")
    assert code == 0 and doc["w"] == "[3,4,1,2]"


def test_cosets(capsys):
    code, doc = run(capsys, "cosets", "--n", "4", "--I", "-", "--J", "1,3")
    assert code == 0
    assert doc["count"] == 6 == doc["oracle_count"]
    assert doc["reps"][0] == "[1,2,3,4]"
    assert doc["reps"][-1] == "[3,4,1,2]"


def test_kl(capsys):
    code, doc = run(capsys, "kl", "--n", "4", "--x", "[1,2,3,4]", "--w", "[3,4,1,2]")
    assert code == 0 and doc == {"coeffs": [1, 1]}


def test_mult(capsys):
    code, doc = run(
        capsys, "mult", "--r", "2", "--k", "2", "--dL", "1", "--K", "-", "--w", "[3,4,1,2]"
    )
    assert code == 0 and doc["m"] == 1


def test_steinberg_single(capsys):
    code, doc = run(
        capsys,
        "steinberg-mult",
        "--r",
        "2",
        "--k",
        "2",
        "--dL",
        "1",
        "--w",
        "[3,4,1,2]",
        "--J",
        "-",
        "--S",
        "-",
    )
    assert code == 0
    assert doc == {"w": "[3,4,1,2]", "J": "-", "S": "-", "m": 1}


def test_steinberg_enumeration(capsys):
    code, doc = run(
        capsys, "steinberg-mult", "--r", "2", "--k", "2", "--dL", "1", "--S", "-", "--J", "-"
    )
    assert code == 0
    no_J = [(c["w"], c["m"]) for c in doc["constituents"] if c["J"] == "-"]
    assert no_J == [("[1,2,3,4]", 1), ("[1,3,2,4]", 1), ("[3,4,1,2]", 1)]


def test_jh(capsys):
    code, doc = run(capsys, "jh", "--r", "2", "--k", "4")
    assert code == 0 and doc["count"] == 8
    assert doc["factors"][0] == "-"


def test_segments(capsys):
    code, doc = run(capsys, "segments", "--r", "1", "--k", "2", "--I", "-")
    assert code == 0
    assert doc["segments"] == [
        {"len": 1, "twist": "1/2"},
        {"len": 1, "twist": "1/2"},
    ]


def test_jacquet(capsys):
    code, doc = run(capsys, "jacquet", "--r", "2", "--k", "2")
    assert code == 0 and doc["count"] == 2
    assert doc["terms"][0] == {"w": "[1,2]", "exponents": ["0", "1"]}


def test_tits_smooth(capsys):
    code, doc = run(capsys, "tits-check", "--r", "1", "--k", "4")
    assert code == 0 and doc["ok"] is True and doc["checked"] == 8


def test_tits_analytic(capsys):
    code, doc = run(
        capsys, "tits-check", "--r", "2", "--k", "2", "--analytic", "--S", "-", "--dL", "1"
    )
    assert code == 0 and doc["ok"] is True


def test_ext_dim(capsys):
    code, doc = run(
        capsys,
        "ext-dim",
        "--kind",
        "analytic",
        "--degree",
        "1",
        "--left",
        "v:2",
        "--right",
        "st-an",
        "--r",
        "3",
        "--k",
        "3",
        "--dL",
        "2",
    )
    assert code == 0 and doc["dim"] == 3
    assert doc["cite"].startswith("R7")


def test_ext_dim_not_determined(capsys):
    code, doc = run(
        capsys,
        "ext-dim",
        "--kind",
        "analytic",
        "--degree",
        "2",
        "--left",
        "i:1,2",
        "--right",
        "i:1,2",
        "--r",
        "1",
        "--k",
        "3",
    )
    assert code == 0 and doc["status"] == "not-determined"


def test_error_exit_codes(capsys):
    code, doc = run(capsys, "weyl", "--n", "4", "--w", "[1,1,2,3]")
    assert code == 2 and "error" in doc
    code, doc = run(capsys, "cosets", "--n", "12", "--I", "-", "--J", "-")
    assert code == 3 and "error" in doc
    code, doc = run(capsys, "kl", "--n", "4", "--x", "[1,2,3,4]")
    assert code == 2 and "error" in doc


@pytest.mark.parametrize("verb", ["jh", "tits-check"])
def test_jh_above_enumeration_bound_exit_3(capsys, verb):
    code, doc = run(capsys, verb, "--r", "1", "--k", "40")
    assert code == 3 and "enumeration bound" in doc["error"]


def test_labels_above_rank_6_exit_3(capsys):
    code, doc = run(capsys, "steinberg-mult", "--r", "7", "--k", "1", "--S", "-")
    assert code == 3 and "max_len" in doc["error"]
    code, doc = run(capsys, "tits-check", "--r", "7", "--k", "1", "--analytic")
    assert code == 3 and "max_len" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("steinberg-mult", "--r", "1", "--k", "3", "--dL", "30", "--S", "-"),
        ("steinberg-mult", "--r", "1", "--k", "5", "--dL", "4", "--S", "-"),
        ("tits-check", "--analytic", "--r", "1", "--k", "3", "--dL", "30"),
        ("tits-check", "--analytic", "--r", "1", "--k", "5", "--dL", "4"),
    ],
)
def test_labels_above_label_bound_exit_3(capsys, argv):
    # 6^30 and 120^4 w: the bound must stop the listing before it is built.
    code, doc = run(capsys, *argv)
    assert code == 3 and "label bound" in doc["error"]


@pytest.mark.parametrize("d_l", ["0", "-3"])
def test_degree_below_one_exit_2(capsys, d_l):
    code, doc = run(capsys, "steinberg-mult", "--r", "2", "--k", "2", "--dL", d_l, "--S", "-")
    assert code == 2 and "d_L" in doc["error"]
    code, doc = run(capsys, "tits-check", "--r", "2", "--k", "2", "--analytic", "--dL", d_l)
    assert code == 2 and "d_L" in doc["error"]
    # --w is parsed only after d_L is checked, so an empty --w and a
    # one-component --w get the same message.
    for w_text in ("", "e"):
        for argv in (
            ("steinberg-mult", "--S", "-", "--J", "-"),
            ("mult", "--K", "-"),
        ):
            argv += ("--r", "1", "--k", "3", "--dL", d_l, "--w", w_text)
            code, doc = run(capsys, *argv)
            assert code == 2 and doc == {"error": f"d_L must be at least 1, got {d_l}"}, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["mult", "--r", "2", "--k", "2", "--dL", "2", "--K", "-", "--w", "[1,2,3,4];;[2,1,3,4]"],
        ["steinberg-mult", "--r", "2", "--k", "2", "--dL", "2", "--S", "-", "--J", "-",
         "--w", "[1,2,3,4];"],
    ],
    ids=["mult-inner", "steinberg-trailing"],
)
def test_empty_w_component_exit_2(capsys, argv):
    # An empty part between or after the ';' is not dropped: dropping it
    # would read a two-component w as one and broadcast it.
    code, doc = run(capsys, *argv)
    assert code == 2 and doc == {"error": f"empty component in {argv[-1]!r}"}


def test_one_w_component_is_broadcast(capsys):
    # m = 2 for the one component, so the broadcast pair gives 2 * 2.
    for w_text in ("[3,4,1,2]", "[3,4,1,2];[3,4,1,2]"):
        code, doc = run(capsys, "mult", "--r", "1", "--k", "4", "--dL", "2", "--K", "-",
                        "--w", w_text)
        assert code == 0 and doc == {"K": "-", "m": 4}


@pytest.mark.parametrize(
    "argv",
    [
        ["jacquet", "--r", "0", "--k", "2"],
        ["jacquet", "--r", "-1", "--k", "2"],
        ["jacquet", "--r", "2", "--k", "0"],
        ["weyl", "--n", "-2", "--w", "e"],
        ["weyl", "--n", "0", "--w", "e"],
        ["cosets", "--n", "0", "--I", "-", "--J", "-"],
        ["kl", "--n", "0", "--x", "e", "--w", "e"],
    ],
    ids=["jacquet-r0", "jacquet-r-1", "jacquet-k0", "weyl-n-2", "weyl-n0", "cosets-n0", "kl-n0"],
)
def test_nonpositive_rank_exit_2(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 2 and list(doc) == ["error"]
    assert "must be positive" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cosets", "--n", "4", "--I", "4", "--J", "-"],
        ["cosets", "--n", "4", "--I", "-", "--J", "0"],
        ["ext-dim", "--kind", "smooth", "--degree", "1", "--left", "i:3", "--right", "i:-",
         "--r", "1", "--k", "3"],
        ["ext-dim", "--kind", "smooth", "--degree", "1", "--left", "levi:0", "--right", "i:-",
         "--r", "1", "--k", "3"],
        ["ext-dim", "--kind", "analytic", "--degree", "1", "--left", "v:1", "--right", "c:9@0",
         "--r", "2", "--k", "3", "--dL", "1"],
        ["ext-dim", "--kind", "analytic", "--degree", "1", "--left", "v:1", "--right", "sigma:0",
         "--r", "1", "--k", "3"],
    ],
    ids=["cosets-I4", "cosets-J0", "ext-dim-i3", "ext-dim-levi0", "ext-dim-c9", "ext-dim-sigma0"],
)
def test_block_index_out_of_range_exit_2(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 2 and list(doc) == ["error"]
    assert "out of range" in doc["error"]


def test_negative_max_len_exit_2(capsys):
    code, doc = run(capsys, "steinberg-mult", "--r", "2", "--k", "2", "--S", "-", "--max-len", "-1")
    assert code == 2 and "max_len" in doc["error"]
    code, doc = run(capsys, "tits-check", "--r", "2", "--k", "2", "--analytic", "--max-len", "-1")
    assert code == 2 and "max_len" in doc["error"]


def test_selftest_failure_exit_4(capsys, monkeypatch):
    # cli_io reads length through weyl_core at each call.
    monkeypatch.setattr(weyl_core, "length", lambda w: -1)
    code, doc = run(capsys, "selftest", "--level", "quick")
    assert code == 4
    assert doc["check"] == "longest length"
    assert "longest length" in doc["error"]


def test_selftest_failure_exit_4_as_main():
    # python -m parastein.cli_io, the way CI and cli-mix start the CLI,
    # runs cli_io as __main__; a failed check must still end as one
    # document and exit 4 rather than a traceback.  The __main__ copy
    # binds weyl_core.length when it runs, so patching it there breaks
    # the first check.
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    code = (
        "import runpy, sys; import parastein.weyl_core as wc; "
        "wc.length = lambda w: -1; "
        "sys.argv = ['parastein.cli_io', 'selftest', '--level', 'quick']; "
        "runpy.run_module('parastein.cli_io', run_name='__main__', alter_sys=True)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == '{"error":"selftest failure: longest length","check":"longest length"}\n'


def test_determinism(capsys):
    def once():
        main(["steinberg-mult", "--r", "2", "--k", "2", "--dL", "1", "--S", "-", "--J", "-"])
        return capsys.readouterr().out

    assert once() == once()


def test_selftest_quick(capsys):
    code, doc = run(capsys, "selftest", "--level", "quick")
    assert code == 0 and doc["ok"] is True and doc["checks"] > 50


EXT_ARGS = ["--degree", "1", "--left", "i:1", "--right", "i:-", "--r", "2", "--k", "3"]


VERB_CHOICES = ", ".join(map(repr, cli_io.VERBS))


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param([], "the following arguments are required: verb", id="no-verb"),
        pytest.param(["nope"], f"argument verb: invalid choice: 'nope' (choose from {VERB_CHOICES})",
                     id="unknown-verb"),
        pytest.param(["weyl", "--n", "4"], "the following arguments are required: --w",
                     id="missing-option"),
        pytest.param(["weyl", "--n", "x", "--w", "e"], "argument --n: invalid int value: 'x'",
                     id="non-integer"),
        pytest.param(["ext-dim", "--kind", "bad", *EXT_ARGS],
                     "argument --kind: invalid choice: 'bad' (choose from 'smooth', 'analytic')",
                     id="bad-kind"),
        pytest.param(["selftest", "--level", "medium"],
                     "argument --level: invalid choice: 'medium' (choose from 'quick', 'full')",
                     id="bad-level"),
        pytest.param(["weyl", "--n", "4", "--w", "e", "--foo"], "unrecognized arguments: --foo",
                     id="unknown-option"),
        pytest.param(["weyl", "--n", "4", "--w", "e", "extra"], "unrecognized arguments: extra",
                     id="extra-positional"),
        pytest.param(["steinberg-mult", "--r", "2", "--k", "2", "--max", "3"],
                     "unrecognized arguments: --max 3", id="abbrev-max"),
        pytest.param(["cosets", "--n", "4", "--I", "-", "--J", "-", "--matr"],
                     "unrecognized arguments: --matr", id="abbrev-matr"),
        pytest.param(["weyl", "--n", "4", "--w", "e", "-h"], "unrecognized arguments: -h",
                     id="short-help"),
        pytest.param(
            ["mult", "--r", "2", "--k", "2", "--dL", "3", "--K", "-", "--w", "[1,2,3,4];[1,2,3,4]"],
            "expected 3 components separated by ';'",
            id="w-component-count",
        ),
        pytest.param(["weyl", "--n", "4", "--w"], "argument --w: expected one argument",
                     id="no-value-at-end"),
        # A token that starts with "-" is a value only if it is "-", a
        # negative number or contains a space.
        pytest.param(["weyl", "--w", "--n", "4"], "argument --w: expected one argument",
                     id="option-as-value"),
        pytest.param(["weyl", "--w", "-e", "--n", "4"], "argument --w: expected one argument",
                     id="unknown-option-as-value"),
        pytest.param(["weyl", "--n=", "--w", "e"], "argument --n: invalid int value: ''",
                     id="empty-explicit-int"),
        pytest.param(["cosets", "--n", "4", "--I", "-", "--J", "-", "--matrices=1"],
                     "argument --matrices: ignored explicit argument '1'", id="flag-explicit-value"),
        pytest.param(["mult", "--r", "2", "--k", "2", "--dL", "x", "--K", "-", "--w", "e"],
                     "argument --dl/--dL: invalid int value: 'x'", id="alias-non-integer"),
        pytest.param(["weyl", "--n", "4", "--w", "e", "--"], "unrecognized arguments: --",
                     id="trailing-double-dash"),
        pytest.param(["weyl", "--N", "4", "--w", "e"], "the following arguments are required: --n",
                     id="wrong-case"),
        pytest.param(["ext-dim", *EXT_ARGS], "the following arguments are required: --kind",
                     id="ext-dim-no-kind"),
        # argparse dropped the "--" after "=" and handed these handlers an
        # empty list, which crashed them; the value is now "--" as written.
        pytest.param(["weyl", "--n=--", "--w", "e"], "argument --n: invalid int value: '--'",
                     id="explicit-double-dash-int"),
        pytest.param(["weyl", "--n", "4", "--w=--"], "malformed word token: '--'",
                     id="explicit-double-dash-text"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, message):
    # Apart from the two explicit "--" rows, each document is the one that
    # argparse (CPython 3.11) gave, byte for byte.
    assert main(argv) == 2
    assert capsys.readouterr().out == json.dumps({"error": message}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["weyl", "--n", "4", "--w", "-"], "w_text", "-"),
        (["steinberg-mult", "--r", "2", "--k", "2", "--S", "-"], "s_text", "-"),
        (["mult", "--r", "2", "--k", "2", "--K", "-", "--w", "e"], "k_text", "-"),
        (["mult", "--r", "2", "--k", "2", "--dL", "-3", "--w", "e"], "d_l", -3),
        (["weyl", "--n", "4", "--w=-0.5"], "w_text", "-0.5"),
        (["weyl", "--n", "4", "--w", "-x y"], "w_text", "-x y"),
    ],
    ids=["dash-w", "dash-S", "dash-K", "negative-dL", "explicit", "space"],
)
def test_dash_tokens_that_are_values(argv, dest, value):
    assert cli_io.parse_args(argv)[dest] == value


@pytest.mark.parametrize(
    "left, right, message",
    [
        ("foo", "i:-", "malformed rep descriptor: 'foo'"),
        ("i:1", "c:1", "constituent descriptors need the form c:j@sigma"),
        ("x:1", "i:-", "unknown rep descriptor tag: 'x'"),
        ("sigma:1@x", "i:-", "malformed rep descriptor: 'sigma:1@x'"),
    ],
    ids=["no-tag", "constituent-no-sigma", "unknown-tag", "non-integer-sigma"],
)
def test_bad_rep_descriptor_exit_2(capsys, left, right, message):
    code, doc = run(capsys, "ext-dim", "--kind", "smooth", "--degree", "1", "--r", "1", "--k", "3",
                    "--left", left, "--right", right)
    assert code == 2 and doc == {"error": message}


def test_assertion_error_is_not_bad_input(monkeypatch):
    # Exit 2 means bad input, a ValueError; an AssertionError from a
    # handler is a bug and propagates.
    def broken(**_):
        raise AssertionError("broken handler")

    monkeypatch.setitem(cli_io.VERBS, "weyl", (broken, cli_io.VERBS["weyl"][1]))
    with pytest.raises(AssertionError, match="broken handler"):
        main(["weyl", "--n", "4", "--w", "e"])


@pytest.mark.parametrize(
    "argv, twin",
    [
        (
            ["cosets", "--n", "4", "--i", "1", "--j", "1,3", "--no-matrices"],
            ["cosets", "--n", "4", "--I", "1", "--J", "1,3"],
        ),
        (
            ["cosets", "--n", "4", "--I", "1", "--J", "-", "--no-matrices", "--matrices"],
            ["cosets", "--n", "4", "--I", "1", "--J", "-", "--matrices"],
        ),
        (
            ["mult", "--r", "2", "--k", "2", "--dl", "2", "--kset", "1", "--w", "[1,3,2,4]"],
            ["mult", "--r=2", "--k=2", "--dL=2", "--K=1", "--w=[1,3,2,4]"],
        ),
        (
            ["steinberg-mult", "--r", "2", "--k", "2", "--dl", "2", "--s", "-", "--J", "-"],
            ["steinberg-mult", "--r", "2", "--k", "2", "--dL", "2", "--S", "-"],
        ),
        (
            ["steinberg-mult", "--r", "2", "--k", "2", "--w", "e", "--s", "-", "--j", "1"],
            ["steinberg-mult", "--r", "2", "--k", "2", "--w", "e", "--S", "-", "--J", "1"],
        ),
        (
            ["steinberg-mult", "--r", "2", "--k", "2", "--S", "-", "--max-len", "1"],
            ["steinberg-mult", "--r", "2", "--k", "2", "--S", "-", "--max-len", "3", "--max-len=1"],
        ),
        (
            ["segments", "--r", "1", "--k", "3", "--i", "1"],
            ["segments", "--r", "1", "--k", "3", "--I", "1"],
        ),
        (
            ["tits-check", "--r", "1", "--k", "3", "--analytic", "--smooth"],
            ["tits-check", "--r", "1", "--k", "3"],
        ),
        (
            ["tits-check", "--r", "1", "--k", "3", "--analytic", "--s", "1", "--dl", "2"],
            ["tits-check", "--r", "1", "--k", "3", "--analytic", "--S", "1", "--dL", "2"],
        ),
        (
            ["ext-dim", "--kind", "smooth", "--free-center", *EXT_ARGS, "--dl", "1"],
            ["ext-dim", "--kind", "smooth", *EXT_ARGS, "--dL", "1"],
        ),
        (
            ["ext-dim", "--kind", "smooth", "--free-center", "--fixed-center", *EXT_ARGS],
            ["ext-dim", "--kind", "smooth", "--fixed-center", *EXT_ARGS],
        ),
    ],
)
def test_aliases_and_off_flags(capsys, argv, twin):
    code, doc = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *twin) == (0, doc)


def test_on_flags_reach_the_handler(capsys):
    # The twins above would also match if a flag were dropped.
    code, doc = run(capsys, "cosets", "--n", "3", "--I", "-", "--J", "-", "--matrices")
    assert code == 0 and "matrices" in doc
    code, doc = run(capsys, "tits-check", "--r", "1", "--k", "3", "--analytic")
    assert code == 0 and doc["mode"] == "analytic"
    code, free = run(capsys, "ext-dim", "--kind", "smooth", *EXT_ARGS)
    assert code == 0 and free == {"dim": 3, "cite": "R1:smooth-ind-ind"}
    code, fixed = run(capsys, "ext-dim", "--kind", "smooth", "--fixed-center", *EXT_ARGS)
    assert code == 0 and fixed["status"] == "not-determined"


@pytest.mark.parametrize("argv", [["--help"]] + [[verb, "--help"] for verb in cli_io.VERBS])
def test_help_returns_0(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "--help" in out
    if argv[0] in cli_io.VERBS:
        assert out.startswith(f"usage: parastein {argv[0]} [--help]")
        words = out.replace("[", " ").replace("]", " ").replace("/", " ").split()
        for names, *_ in cli_io.VERBS[argv[0]][1]:
            assert set(names) <= set(words), names
    else:
        assert "{" + ",".join(cli_io.VERBS) + "}" in out


def test_option_of_another_verb_exit_2(capsys):
    # A jh call reads jh's option rows only; --n belongs to weyl.
    code, doc = run(capsys, "jh", "--r", "2", "--k", "2", "--n", "4")
    assert code == 2 and doc == {"error": "unrecognized arguments: --n 4"}


@pytest.mark.parametrize(
    "argv, option",
    [
        (["tits-check", "--r", "1", "--k", "4", "--S", "1"], "--S"),
        (["tits-check", "--r", "1", "--k", "4", "--dL", "5"], "--dL"),
        (["tits-check", "--r", "1", "--k", "4", "--max-len", "0"], "--max-len"),
        (["tits-check", "--r", "1", "--k", "4", "--analytic", "--smooth", "--S", "1"], "--S"),
        (["steinberg-mult", "--r", "2", "--k", "2", "--w", "e", "--max-len", "0"], "--max-len"),
        (["steinberg-mult", "--r", "2", "--k", "2", "--dL", "1", "--S", "-", "--J", "1"], "--J"),
    ],
)
def test_option_the_mode_ignores_exit_2(capsys, argv, option):
    # The smooth tits-check reads none of --S, --dL and --max-len, a
    # single-label steinberg-mult does not read --max-len, and a listing
    # does not read --J: a value other than the default is rejected, not
    # silently dropped.
    code, doc = run(capsys, *argv)
    assert code == 2 and list(doc) == ["error"] and doc["error"].startswith(option + " ")


def test_ignored_options_at_their_defaults_pass(capsys):
    code, doc = run(capsys, "tits-check", "--r", "1", "--k", "4", "--S", "-", "--dL", "1")
    assert code == 0 and doc == {"mode": "smooth", "ok": True, "checked": 8}
    code, doc = run(capsys, "steinberg-mult", "--r", "2", "--k", "2", "--w", "e", "--J", "-")
    assert code == 0 and doc["m"] == 1


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # The console script and ``python -m`` call main() with no argv; the
    # parser must still be handed the arguments after the program name.
    seen = []
    parse = cli_io.parse_args
    monkeypatch.setattr(cli_io, "parse_args", lambda argv: seen.append(argv) or parse(argv))
    monkeypatch.setattr(sys, "argv", ["parastein", "jh", "--r", "2", "--k", "2"])
    code = main()
    assert code == 0 and json.loads(capsys.readouterr().out)["count"] == 2
    assert seen == [["jh", "--r", "2", "--k", "2"]]


def _process(*argv):
    """``python -m parastein.cli_io argv`` in its own interpreter: the
    ``__main__`` block, ``run()`` and the interpreter's exit."""
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "parastein.cli_io", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["weyl", "--n", "4", "--w", "[3,4,1,2]"], 0),
        (["no-such-verb"], 2),
        (["weyl", "--n", "0", "--w", "e"], 2),
        (["jh", "--r", "1", "--k", "40"], 3),
        (["kl", "--n", "10", "--x", "e", "--w", "[5,6,7,8,9,10,1,2,3,4]"], 3),
    ],
    ids=["weyl", "unknown-verb", "rank-0", "enumeration-bound", "kl-rank-bound"],
)
def test_process_exit_code_and_stdout(capsys, argv, code):
    # The process prints what main prints in process, byte for byte, and
    # exits with main's code.
    proc = _process(*argv)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert main(argv) == code
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.count("\n") == 1
    doc = json.loads(proc.stdout)
    assert ("error" in doc) == (code != 0)


def test_process_help_exit_0():
    proc = _process("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: parastein")


def test_in_process_main_does_not_freeze_the_collector(capsys):
    # Only the process entry point freezes: main also runs inside the
    # benchmark worker and library callers, which must keep collecting.
    before = gc.get_freeze_count()
    assert main(["weyl", "--n", "4", "--w", "[3,4,1,2]"]) == 0
    assert main(["weyl", "--n", "0", "--w", "e"]) == 2
    capsys.readouterr()
    frozen = gc.get_freeze_count()
    if frozen != before:
        gc.unfreeze()
    assert frozen == before


def test_run_freezes_then_exits_with_mains_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["parastein", "jh", "--r", "1", "--k", "40"])
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exc:
            cli_io.run()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert exc.value.code == 3 and frozen > before
    assert "enumeration bound" in json.loads(capsys.readouterr().out)["error"]


def test_console_script_is_the_main_block_entry():
    # The installed script and ``python -m`` must end the same way.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, func = scripts["parastein"].split(":")
    assert module == cli_io.__name__
    tree = ast.parse(Path(cli_io.__file__).read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{func}()"]


def test_kl_cache_cap_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", "10")
    kl_cache_clear()
    code, doc = run(capsys, "kl", "--n", "5", "--x", "e", "--w", "[4,5,2,3,1]")
    assert code == 3 and list(doc) == ["error"]


@pytest.mark.parametrize("cap", ["abc", "1e3", "-5", "+5", " 5", "5.0"])
def test_kl_cache_cap_not_a_count_exit_2(capsys, monkeypatch, cap):
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", cap)
    kl_cache_clear()
    code, doc = run(capsys, "kl", "--n", "5", "--x", "e", "--w", "[4,5,2,3,1]")
    assert code == 2 and list(doc) == ["error"]
    assert "PARASTEIN_KL_CACHE_CAP" in doc["error"] and repr(cap) in doc["error"]


@pytest.mark.parametrize("cap", ["abc", "0"])
def test_kl_cache_cap_unread_on_a_trivial_pair(capsys, monkeypatch, cap):
    # (2,1,3,4) is not below e: no insertion, so the cap is never read.
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", cap)
    kl_cache_clear()
    code, doc = run(capsys, "kl", "--n", "4", "--x", "[2,1,3,4]", "--w", "e")
    assert code == 0 and doc == {"coeffs": []}


@pytest.mark.parametrize("cap, expected", [("0", 3), ("", 0), ("1000000", 0)])
def test_kl_cache_cap_counts_are_read(capsys, monkeypatch, cap, expected):
    # Zero is a count: every memo miss exceeds it.  Empty means no cap.
    monkeypatch.setenv("PARASTEIN_KL_CACHE_CAP", cap)
    kl_cache_clear()
    code, _ = run(capsys, "kl", "--n", "5", "--x", "e", "--w", "[4,5,2,3,1]")
    assert code == expected


def test_cli_imports_every_module_and_not_click():
    # perfbench/tracing.py and perfbench/memo.py find each library module
    # in sys.modules after importing cli_io: the package registers all
    # six there, and runs none of them until a verb reads from it.  Once
    # all six have run, none of the slow modules is loaded: click is no
    # longer a dependency, and dataclasses (which imports inspect) would
    # cost every CLI process about 12 ms.  fractions (with decimal under
    # it) is loaded only by the verbs that build a Fraction, and argparse
    # (with gettext under it) by none: the CLI reads its arguments from
    # the VERBS rows itself.  test_loading.py checks the same per verb.
    # The package is exactly these eight modules: the dot-action oracle
    # lives in tests/weights_oracle.py, and the package exports none of
    # it, nor any of the nine functions that nothing in the program called.
    src = os.path.dirname(os.path.dirname(cli_io.__file__))
    code = (
        "import sys, types; "
        "mods = ['weyl_core', 'cosets', 'kl_mult', 'steinberg_mult', 'segments', 'ext_calc']; "
        "ran = lambda: [m for m in mods "
        "if type(sys.modules.get('parastein.' + m)) is types.ModuleType]; "
        "import parastein; "
        "assert not ran(), ran(); "
        "from parastein import cli_io; "
        "assert not ran(), ran(); "
        "loaded = {m for m in sys.modules if m.split('.')[0] == 'parastein'}; "
        "expected = {'parastein', 'parastein.cli_io', *('parastein.' + m for m in mods)}; "
        "assert loaded == expected, sorted(loaded ^ expected); "
        "[sys.modules['parastein.' + m].__name__ for m in mods]; "
        "assert ran() == mods, ran(); "
        "slow = [m for m in ('click', 'dataclasses', 'inspect', 'fractions', 'decimal', "
        "'argparse', 'gettext') if m in sys.modules]; "
        "assert not slow, slow; "
        "gone = ('dominance_set', 'dot_action', 'is_I_dominant', 'zero_weight', "
        "'block_embed', 'block_restrict', 'is_in_W_IJ', 'longest_element', "
        "'tits_differential_sign', 'format_orientation', "
        "'verma_mult', 'theta_fiber', 'orientation_of'); "
        "exported = [n for n in gone if hasattr(sys.modules['parastein'], n)]; "
        "assert not exported, exported"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _readme_examples():
    """(argv, expected document or None) for each ``parastein`` line of
    the README's sh blocks; a ``# -> {...}`` line right after a command
    gives its expected output."""
    examples = []
    in_sh = False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("parastein "):
            examples.append([shlex.split(line, comments=True)[1:], None])
        elif in_sh and line.startswith("# -> ") and examples:
            examples[-1][1] = json.JSONDecoder().raw_decode(line[len("# -> "):])[0]
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) == 15
    assert sum(expected is not None for _, expected in README_EXAMPLES) == 3
    assert {argv[0] for argv, _ in README_EXAMPLES} == set(cli_io.VERBS)


@pytest.mark.parametrize(
    "argv, expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") == 1
    if expected is not None:
        assert json.loads(out) == expected
    # The verb's handler, on the options main parsed, writes nothing and
    # returns the document that main prints.
    args = cli_io.parse_args(argv)
    doc = cli_io.VERBS[args.pop("verb")][0](**args)
    assert capsys.readouterr().out == ""
    assert isinstance(doc, dict) and json.dumps(doc, separators=(",", ":")) + "\n" == out


def test_main_writes_stdout_in_one_statement():
    # One sys.stdout.write in the module, in main itself, and no print.
    def calls(node):
        return [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]

    tree = ast.parse(Path(cli_io.__file__).read_text())
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert calls(tree).count("sys.stdout.write") == calls(main_def).count("sys.stdout.write") == 1
    assert "print" not in calls(tree)


def test_smooth_tits_failure_document(capsys, monkeypatch):
    # Unsigned steps do not cancel, so each label with two free blocks or
    # more fails its square check; the document still counts all 8 labels.
    sign = steinberg_mult._sign
    monkeypatch.setattr(steinberg_mult, "_sign", lambda top, bit: abs(sign(top, bit)))
    assert main(["tits-check", "--r", "1", "--k", "4"]) == 0
    assert capsys.readouterr().out == '{"mode":"smooth","ok":false,"checked":8}\n'

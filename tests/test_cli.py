import json

import pytest

from parastein import cli_io
from parastein.cli_io import main


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


def test_labels_above_rank_6_exit_3(capsys):
    code, doc = run(capsys, "steinberg-mult", "--r", "7", "--k", "1", "--S", "-")
    assert code == 3 and "max_len" in doc["error"]
    code, doc = run(capsys, "tits-check", "--r", "7", "--k", "1", "--analytic")
    assert code == 3 and "max_len" in doc["error"]


@pytest.mark.parametrize("d_l", ["0", "-3"])
def test_degree_below_one_exit_2(capsys, d_l):
    code, doc = run(capsys, "steinberg-mult", "--r", "2", "--k", "2", "--dL", d_l, "--S", "-")
    assert code == 2 and "d_L" in doc["error"]
    code, doc = run(capsys, "tits-check", "--r", "2", "--k", "2", "--analytic", "--dL", d_l)
    assert code == 2 and "d_L" in doc["error"]


def test_negative_max_len_exit_2(capsys):
    code, doc = run(capsys, "steinberg-mult", "--r", "2", "--k", "2", "--S", "-", "--max-len", "-1")
    assert code == 2 and "max_len" in doc["error"]
    code, doc = run(capsys, "tits-check", "--r", "2", "--k", "2", "--analytic", "--max-len", "-1")
    assert code == 2 and "max_len" in doc["error"]


def test_selftest_failure_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(cli_io, "length", lambda w: -1)
    code, doc = run(capsys, "selftest", "--level", "quick")
    assert code == 4
    assert doc["check"] == "longest length"
    assert "longest length" in doc["error"]


def test_determinism(capsys):
    def once():
        main(["steinberg-mult", "--r", "2", "--k", "2", "--dL", "1", "--S", "-", "--J", "-"])
        return capsys.readouterr().out

    assert once() == once()


def test_selftest_quick(capsys):
    code, doc = run(capsys, "selftest", "--level", "quick")
    assert code == 0 and doc["ok"] is True and doc["checks"] > 50

"""What one CLI process runs of the package.

``import parastein`` registers the six computing modules in
``sys.modules`` and runs none of them; a verb runs the modules it reads
from, plus what those import.  A module counts as run once its lazy
stand-in has become a plain module.  Each test starts a fresh
interpreter, so no module that another test ran is counted.  The same
process also reports the slow standard-library modules it loaded, so a
module-level import of one of them in a library module shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parastein

SRC = os.path.dirname(os.path.dirname(parastein.__file__))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ["weyl_core", "cosets", "kl_mult", "segments", "steinberg_mult", "ext_calc"]
SLOW = ["click", "dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext"]
RAN = f"""
import sys, types
ran = [m for m in {MODULES!r} if type(sys.modules["parastein." + m]) is types.ModuleType]
slow = [m for m in {SLOW!r} if m in sys.modules]
"""
# The verbs that build a Fraction, and so load fractions and decimal.
FRACTION_VERBS = {"segments", "jacquet", "selftest"}

# Every name that the package exported when it imported its modules
# eagerly, by the module that defines it.
EXPORTS = {
    "cosets": ["BlockSet", "coset_matrix", "double_coset_count_oracle", "min_double_coset_reps",
               "modulus_exponents", "parse_blockset"],
    "ext_calc": ["ExtAnswer", "ExtQuery", "RepDescriptor", "char_group_dim",
                 "consistency_check_thm_main", "ext_dim"],
    "kl_mult": ["kl_poly", "parabolic_verma_mult"],
    "segments": ["Segment", "jacquet_decomposition", "jh_factors", "pi_I_segments",
                 "pi_base_twists"],
    "steinberg_mult": ["ConstituentLabel", "analytic_tits_euler_check",
                       "check_complex_squares_zero", "enumerate_constituents",
                       "smooth_tits_euler_check", "steinberg_multiplicity",
                       "steinberg_multiplicity_oracle"],
    "weyl_core": ["BoundExceededError", "MultiWeyl", "Perm", "bruhat_leq", "enumerate_group",
                  "enumerate_parabolic", "identity", "inverse", "length", "multiply",
                  "parse_perm", "reduced_word", "simple_reflection", "support"],
}


def python(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


STEINBERG = ["weyl_core", "cosets", "kl_mult", "steinberg_mult"]


@pytest.mark.parametrize(
    "argv, rc, expected",
    [
        (["--help"], 0, []),
        (["weyl", "--help"], 0, []),
        (["weyl", "--n", "4", "--w", "[2,1,3,4]"], 0, ["weyl_core"]),
        # A usage error writes its document without running a module.
        (["weyl", "--n", "4"], 2, []),
        (["cosets", "--n", "3", "--I", "1", "--J", "-"], 0, ["weyl_core", "cosets"]),
        (["kl", "--n", "3", "--x", "e", "--w", "[3,2,1]"], 0, ["weyl_core", "cosets", "kl_mult"]),
        (["mult", "--r", "1", "--k", "2", "--w", "e"], 0, ["weyl_core", "cosets", "kl_mult"]),
        (["jh", "--r", "1", "--k", "3"], 0, ["weyl_core", "cosets", "segments"]),
        (["segments", "--r", "1", "--k", "3"], 0, ["weyl_core", "cosets", "segments"]),
        (["jacquet", "--r", "1", "--k", "2"], 0, ["weyl_core", "cosets", "segments"]),
        (["steinberg-mult", "--r", "1", "--k", "2", "--S", "-"], 0, STEINBERG),
        (["steinberg-mult", "--r", "1", "--k", "2", "--w", "e"], 0, STEINBERG),
        (["tits-check", "--r", "1", "--k", "2", "--analytic"], 0, STEINBERG),
        (["tits-check", "--r", "1", "--k", "2"], 0,
         ["weyl_core", "cosets", "kl_mult", "segments", "steinberg_mult"]),
        (["ext-dim", "--kind", "smooth", "--degree", "1", "--left", "st-an", "--right", "st-an",
          "--r", "1", "--k", "2"], 0, ["weyl_core", "cosets", "ext_calc"]),
        (["selftest"], 0, MODULES),
    ],
    ids=["help", "weyl-help", "weyl", "weyl-usage-error", "cosets", "kl", "mult", "jh",
         "segments", "jacquet", "steinberg-listing", "steinberg-w", "tits-analytic",
         "tits-smooth", "ext-dim", "selftest"],
)
def test_each_verb_runs_only_its_modules(argv, rc, expected):
    code = f"""
import contextlib, io, json
from parastein import cli_io
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli_io.main({argv!r})
{RAN}
print(json.dumps([rc, ran, slow]))
"""
    slow = ["fractions", "decimal"] if argv[0] in FRACTION_VERBS else []
    assert json.loads(python(code)) == [rc, expected, slow]


def test_every_export_is_the_submodules_own_object():
    code = f"""
import importlib, json
exports = {EXPORTS!r}
wrong = []
for module, names in exports.items():
    source = importlib.import_module("parastein." + module)
    for name in names:
        namespace = {{}}
        exec("from parastein import " + name, namespace)
        if namespace[name] is not getattr(source, name):
            wrong.append(name)
import parastein
try:
    parastein.no_such_name
except AttributeError as exc:
    message = str(exc)
public = sorted(n for n in vars(parastein) if not n.startswith("_"))
print(json.dumps([wrong, message, public]))
"""
    wrong, message, public = json.loads(python(code))
    assert wrong == []
    # No loop variable or import helper is left on the package.
    assert public == sorted(MODULES)
    assert message == "module 'parastein' has no attribute 'no_such_name'"


def test_tracer_installs_after_importing_cli_io():
    # perfbench/tracing.py is read from its source, as in
    # test_traced_names.py, so no bytecode is written next to it.
    code = f"""
import contextlib, io, json
from parastein import cli_io
namespace = {{"__name__": "tracing"}}
exec(compile(open({str(TRACING)!r}).read(), {str(TRACING)!r}, "exec"), namespace)
tracer = namespace["Tracer"]()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_io.main(["steinberg-mult", "--r", "1", "--k", "3", "--S", "-"])
finally:
    tracer.restore()
print(json.dumps([rc, tracer.calls["steinberg_mult.enumerate_constituents"]]))
"""
    rc, calls = json.loads(python(code))
    assert rc == 0
    assert calls >= 1

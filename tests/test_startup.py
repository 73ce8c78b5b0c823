"""Start-up: each command imports only the layers it runs and none of
the heavy standard-library modules, and the package re-exports its API
lazily."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conesing

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
GOLDEN = ROOT / "tests" / "golden"
E6 = str(GOLDEN / "couples" / "E6.json")

# runs the package as `python -m conesing ARGS` does, then writes the
# exit code, the conesing modules it loaded and the top-level names of
# all loaded modules to the file OUT
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["conesing", *sys.argv[2:]]
code = None
try:
    runpy.run_module("conesing", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"code": code, "modules": sorted(
        m for m in sys.modules if m.split(".")[0] == "conesing"),
        "toplevel": sorted({m.split(".")[0] for m in sys.modules})}, fh)
"""

# standard-library modules that no command may load: dataclasses pulls
# in inspect, ast, dis and tokenize at start-up
HEAVY_STDLIB = {"dataclasses", "inspect"}

BASE = {"cli", "errors"}
COUPLE = BASE | {"jsonio", "divisors", "records"}
CATALOG = COUPLE | {"catalog", "quotient", "resolution"}
COMMAND_MODULES = [
    (["--version"], BASE),
    (["describe", "--couple", E6], COUPLE | {"quotient", "resolution",
                                           "hilbert"}),
    (["resolve", "--couple", E6], COUPLE | {"quotient", "resolution"}),
    (["discrepancy", "--couple", E6], COUPLE | {"quotient"}),
    (["hilbert", "--couple", E6], COUPLE | {"hilbert"}),
    (["presentation", "--couple", str(GOLDEN / "couples" / "D4.json")],
     COUPLE | {"quotient", "resolution", "sections", "hilbert", "linalg"}),
    (["enumerate", "--epsilon", "1", "--isotropy-bound", "3", "--jobs", "1"],
     CATALOG),
    (["mld-set", "--epsilon", "1", "--isotropy-bound", "3", "--jobs", "1"],
     CATALOG),
    (["audit", "--catalog", str(GOLDEN / "enumerate_eps1_N3.json"),
      "--epsilon", "1", "--isotropy-bound", "3"], CATALOG | {"hilbert"}),
    (["toric-check", "--fan", str(GOLDEN / "fans" / "P3.json"),
      "--divisor", str(GOLDEN / "fans" / "P3.divisor.json")],
     COUPLE | {"toric", "linalg"}),
    (["verify-examples", "--an-n", "3", "--an-box", "5", "--rnc-max", "4"],
     COUPLE | {"counterexamples", "quotient", "resolution", "toric",
               "linalg"}),
]


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def probe(argv, tmp_path):
    out = tmp_path / "probe.json"
    res = subprocess.run([sys.executable, "-c", PROBE, str(out), *argv],
                         capture_output=True, text=True, env=fresh_env(),
                         cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    found = json.loads(out.read_text(encoding="utf-8"))
    assert found["code"] == 0, res.stderr
    return found


@pytest.mark.parametrize("argv,layers", COMMAND_MODULES,
                         ids=[argv[0].lstrip("-") for argv, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(argv, layers, tmp_path):
    found = probe(argv, tmp_path)
    assert found["modules"] == sorted(
        ["conesing"] + [f"conesing.{m}" for m in layers])
    assert not HEAVY_STDLIB & set(found["toplevel"])
    # every argv above is plain `--flag value` pairs, which cli parses
    # without argparse
    assert "argparse" not in found["toplevel"]


def test_probe_sees_the_standard_library(tmp_path):
    # help goes through argparse
    assert "argparse" in probe(["describe", "--help"], tmp_path)["toplevel"]


def test_command_module_sets_keep_the_heavy_layers_apart():
    loads = {argv[0]: layers for argv, layers in COMMAND_MODULES}
    layers = {"divisors", "quotient", "resolution", "sections", "hilbert",
              "linalg", "toric", "catalog", "counterexamples", "jsonio"}
    assert not loads["--version"] & layers
    for command in ("enumerate", "audit"):
        assert not loads[command] & {"toric", "counterexamples", "linalg"}
    # only presentation compiles the section spaces; the rest that need
    # the Hilbert series read it from the hilbert module
    for command in ("enumerate", "audit", "mld-set", "describe", "hilbert"):
        assert "sections" not in loads[command]
    assert not loads["discrepancy"] & {"resolution", "sections"}
    assert not loads["toric-check"] & {"catalog", "sections", "resolution"}


def test_lazy_exports_are_the_submodule_objects():
    for name in conesing.__all__:
        value = getattr(conesing, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("conesing.")
        assert getattr(module, name) is value
        assert name in dir(conesing)
    with pytest.raises(AttributeError, match="no_such_name"):
        conesing.no_such_name
    with pytest.raises(ImportError):
        exec("from conesing import no_such_name", {})


def readme_library_example():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_runs_in_a_fresh_interpreter():
    code = ("import sys\n"
            "import conesing\n"
            "assert [m for m in sys.modules if m.startswith('conesing.')] == []\n"
            + readme_library_example()
            + "\nassert build_graph(C).mld == 1\n"
            "assert presentation(C).relation_degrees == (4,)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=fresh_env())
    assert res.returncode == 0, res.stderr


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
# all loaded modules to the file OUT; os._exit raises SystemExit here, so
# that the fast exit of __main__ returns to the probe, and json is
# imported only after the modules are listed
PROBE = """
import os, runpy, sys
out, sys.argv = sys.argv[1], ["conesing", *sys.argv[2:]]
code = None

def fast_exit(code):
    raise SystemExit(code)

os._exit = fast_exit
try:
    runpy.run_module("conesing", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
found = {"code": code, "modules": sorted(
    m for m in sys.modules if m.split(".")[0] == "conesing"),
    "toplevel": sorted({m.split(".")[0] for m in sys.modules})}
import json
with open(out, "w", encoding="utf-8") as fh:
    json.dump(found, fh)
"""

# standard-library modules that no command may load: dataclasses pulls
# in inspect, ast, dis and tokenize at start-up
HEAVY_STDLIB = {"dataclasses", "inspect"}

# the dispatcher, then each family's handler module with what it loads
BASE = {"cli"}
HANDLER = BASE | {"errors", "jsonio", "records"}
COUPLE = HANDLER | {"cli_couple", "divisors"}
CATALOG = HANDLER | {"cli_catalog", "catalog", "resolution"}
CHECKS = HANDLER | {"cli_checks", "toric", "linalg"}
COMMAND_MODULES = [
    (["--version"], BASE),
    (["describe", "--couple", E6], COUPLE | {"quotient", "resolution",
                                           "hilbert"}),
    (["resolve", "--couple", E6], COUPLE | {"resolution"}),
    (["discrepancy", "--couple", E6], COUPLE | {"quotient"}),
    (["hilbert", "--couple", E6], COUPLE | {"hilbert"}),
    (["presentation", "--couple", str(GOLDEN / "couples" / "D4.json")],
     COUPLE | {"resolution", "sections", "hilbert", "linalg"}),
    (["enumerate", "--epsilon", "1", "--isotropy-bound", "3", "--jobs", "1"],
     CATALOG),
    (["mld-set", "--epsilon", "1", "--isotropy-bound", "3", "--jobs", "1"],
     CATALOG),
    (["audit", "--catalog", str(GOLDEN / "enumerate_eps1_N3.json"),
      "--epsilon", "1", "--isotropy-bound", "3"],
     CATALOG | {"audit", "divisors", "hilbert", "quotient"}),
    (["toric-check", "--fan", str(GOLDEN / "fans" / "P3.json"),
      "--divisor", str(GOLDEN / "fans" / "P3.divisor.json")], CHECKS),
    (["verify-examples", "--an-n", "3", "--an-box", "5", "--rnc-max", "4"],
     CHECKS | {"counterexamples", "divisors", "quotient", "resolution"}),
]


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def probe(argv, tmp_path, code=0):
    out = tmp_path / "probe.json"
    res = subprocess.run([sys.executable, "-c", PROBE, str(out), *argv],
                         capture_output=True, text=True, env=fresh_env(),
                         cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    found = json.loads(out.read_text(encoding="utf-8"))
    assert found["code"] == code, res.stderr
    return found


# the commands that read a JSON file (a couple, a catalog or a fan);
# the others only write JSON, which needs no json package
READS_JSON = {"describe", "resolve", "discrepancy", "hilbert", "presentation",
              "audit", "toric-check"}


@pytest.mark.parametrize("argv,layers", COMMAND_MODULES,
                         ids=[argv[0].lstrip("-") for argv, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(argv, layers, tmp_path):
    found = probe(argv, tmp_path)
    assert found["modules"] == sorted(
        ["conesing"] + [f"conesing.{m}" for m in layers])
    assert not HEAVY_STDLIB & set(found["toplevel"])
    assert ("json" in found["toplevel"]) == (argv[0] in READS_JSON)
    # every argv above is plain `--flag value` pairs, which cli parses
    # without argparse
    assert "argparse" not in found["toplevel"]


# one flag out of its range per family of commands, each with the
# others at values that no handler has read yet
REFUSED = [
    ["hilbert", "--couple", E6, "--through", str(10**6 + 1)],
    ["enumerate", "--epsilon", "1", "--isotropy-bound", "3", "--jobs", "0"],
    ["verify-examples", "--an-n", "0"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=[argv[0] for argv in REFUSED])
def test_refused_flag_loads_only_the_dispatcher(argv, tmp_path):
    found = probe(argv, tmp_path, code=3)
    assert found["modules"] == ["conesing", "conesing.cli", "conesing.errors"]


def test_probe_sees_the_standard_library(tmp_path):
    # help goes through argparse
    assert "argparse" in probe(["describe", "--help"], tmp_path)["toplevel"]


def test_command_module_sets_keep_the_heavy_layers_apart():
    loads = {argv[0]: layers for argv, layers in COMMAND_MODULES}
    # --version loads the dispatcher alone, and each command the handler
    # module of its own family only
    assert loads["--version"] == {"cli"}
    for command, modules in loads.items():
        handlers = {m for m in modules if m.startswith("cli_")}
        assert len(handlers) == (0 if command == "--version" else 1)
    # the sweep reads no couple and compiles no audit code, and
    # toric-check reads no couple either
    for command in ("enumerate", "mld-set"):
        assert not loads[command] & {"audit", "divisors", "quotient"}
    assert "divisors" not in loads["toric-check"]
    for command in ("enumerate", "audit"):
        assert not loads[command] & {"toric", "counterexamples", "linalg"}
    # only presentation compiles the section spaces; the rest that need
    # the Hilbert series read it from the hilbert module
    for command in ("enumerate", "audit", "mld-set", "describe", "hilbert"):
        assert "sections" not in loads[command]
    assert not loads["discrepancy"] & {"resolution", "sections"}
    # build_graph's klt gate lives in divisors, so the commands that
    # build a star graph without a quotient pair do not compile quotient;
    # audit loads it as the oracle of the index of K_X
    for command in ("resolve", "presentation"):
        assert "quotient" not in loads[command]
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
            "assert presentation(C)[\"relations\"] == [4]\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=fresh_env())
    assert res.returncode == 0, res.stderr



# `python -m conesing --version` with an atexit hook registered first and
# INSTALL run before it: the fast exit of __main__ skips the hook, the
# normal exit taken under a tracer or a profiler runs it
HOOKED = """
import atexit, runpy, sys
atexit.register(print, "atexit hook ran")
{install}
sys.argv = ["conesing", "--version"]
runpy.run_module("conesing", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("install,hook_runs", [
    ("", False),
    ("sys.settrace(lambda *args: None)", True),
    ("sys.setprofile(lambda *args: None)", True),
], ids=["plain", "tracer", "profiler"])
def test_fast_exit_is_skipped_under_a_tracer_or_profiler(install, hook_runs):
    res = subprocess.run([sys.executable, "-c", HOOKED.format(install=install)],
                         capture_output=True, text=True, env=fresh_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == (conesing.__version__ + "\n"
                          + ("atexit hook ran\n" if hook_runs else ""))


def test_cprofile_still_prints_its_report():
    res = subprocess.run([sys.executable, "-m", "cProfile", "-m", "conesing",
                          "--version"], capture_output=True, text=True,
                         env=fresh_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith(conesing.__version__ + "\n")
    assert "function calls" in res.stdout

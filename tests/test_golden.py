"""Golden CLI output: the exact stdout bytes of fixed commands on the
A1, A3, D4 and E6 couples, on three size-regime couples (a chain of
length 200, index m = 36049 and lcm L = 1517), of the presentation of
the E8-type couple (1/2)[0] - (2/3)[1] + (6/5)[inf] at bounds 30, of three
small catalogs, of the toric comparison on P^3, on the weighted plane
P(1,1,2) and on the non-simplicial cube fan, and of a small run of the
counterexample families.

After an intended output change, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from conesing import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COUPLES = ("A1", "A3", "D4", "E6")
COMMANDS = ("describe", "resolve", "discrepancy", "hilbert", "presentation")
# the default E6 presentation bound (144) takes seconds; 12 certifies it
EXTRA = {("presentation", "E6"): ["--gen-bound", "12", "--rel-bound", "12"]}

CASES = {f"{cmd}_{name}": [cmd, "--couple",
                           str(GOLDEN / "couples" / f"{name}.json"),
                           *EXTRA.get((cmd, name), [])]
         for name in COUPLES for cmd in COMMANDS}
# size regimes: a long Hirzebruch-Jung chain, a large index of K_X, a
# large lcm of the denominators
CASES["resolve_chain200"] = ["resolve", "--couple",
                             str(GOLDEN / "couples" / "chain200.json")]
CASES["discrepancy_index36049"] = [
    "discrepancy", "--couple", str(GOLDEN / "couples" / "index36049.json")]
CASES["hilbert_lcm1517"] = ["hilbert", "--couple",
                            str(GOLDEN / "couples" / "lcm1517.json")]
# four generators and three relations, with L = 30
CASES["presentation_E8_b30"] = [
    "presentation", "--couple", str(GOLDEN / "couples" / "E8.json"),
    "--gen-bound", "30", "--rel-bound", "30"]
CASES["enumerate_eps1_N3"] = ["enumerate", "--epsilon", "1",
                              "--isotropy-bound", "3", "--jobs", "1"]
# the benchmark's smallest sweep, where the degree cap skips 143 of the
# 208 candidates through 2/eps
CASES["enumerate_eps1_N6"] = ["enumerate", "--epsilon", "1",
                              "--isotropy-bound", "6", "--jobs", "1"]
# embedding dimensions 4 and 5 appear from (1/2, 4) on
CASES["enumerate_eps1_2_N4"] = ["enumerate", "--epsilon", "1/2",
                                "--isotropy-bound", "4", "--jobs", "1"]
for name in ("P3", "P112", "cube"):
    CASES[f"toric_check_{name}"] = [
        "toric-check", "--fan", str(GOLDEN / "fans" / f"{name}.json"),
        "--divisor", str(GOLDEN / "fans" / f"{name}.divisor.json"),
        "--samples", "200", "--seed", "1"]
CASES["verify_examples_small"] = ["verify-examples", "--an-n", "12",
                                  "--an-box", "5", "--rnc-max", "6"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def regenerate(directory=GOLDEN):
    for name, argv in sorted(CASES.items()):
        code, out = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (Path(directory) / f"{name}.json").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    regenerate()

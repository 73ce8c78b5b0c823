"""Golden CLI output: the exact stdout bytes of fixed commands on the
A1, A3, D4 and E6 couples, on three size-regime couples (a chain of
length 200, index m = 36049 and lcm L = 1517), of Hilbert values through
degree 40, of the presentation of the E8-type couple
(1/2)[0] - (2/3)[1] + (6/5)[inf] at bounds 30, of a couple with two label
points and of the non-klt couple (6/7)([0] + [1] + [inf]) at explicit
bounds, of three small catalogs, of the toric comparison on P^3, on the
weighted plane P(1,1,2) and on the non-simplicial cube fan, and of a
small run of the counterexample families.

After an intended output change, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conesing import cli
from conesing.jsonio import dumps

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
# values read off the certified series, across several periods
for name in ("A3", "lcm1517"):
    CASES[f"hilbert_{name}_through40"] = [
        "hilbert", "--couple", str(GOLDEN / "couples" / f"{name}.json"),
        "--through", "40"]
# four generators and three relations, with L = 30
CASES["presentation_E8_b30"] = [
    "presentation", "--couple", str(GOLDEN / "couples" / "E8.json"),
    "--gen-bound", "30", "--rel-bound", "30"]
# two label points beside the finite point 0: they take 1 and infinity
CASES["describe_labels"] = ["describe", "--couple",
                            str(GOLDEN / "couples" / "labels.json")]
CASES["presentation_labels_b10"] = [
    "presentation", "--couple", str(GOLDEN / "couples" / "labels.json"),
    "--gen-bound", "10", "--rel-bound", "10"]
# not klt: the default generator bound is refused, explicit ones run
CASES["presentation_not_fano_g9_r4"] = [
    "presentation", "--couple", str(GOLDEN / "couples" / "not_fano.json"),
    "--gen-bound", "9", "--rel-bound", "4"]
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


def json_oracle(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_json_on_every_golden_file():
    paths = sorted(GOLDEN.rglob("*.json"))
    assert len(paths) > 40
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert dumps(doc) == json_oracle(doc), path.name


# documents as json.loads gives them: nested objects and arrays, strings
# with escapes and non-ASCII text, negative integers, booleans and null
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30)


@given(JSON_DOCS)
def test_dumps_matches_json_on_drawn_documents(doc):
    assert dumps(doc) == json_oracle(doc)


def regenerate(directory=GOLDEN):
    for name, argv in sorted(CASES.items()):
        code, out = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (Path(directory) / f"{name}.json").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    regenerate()

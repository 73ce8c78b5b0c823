"""The golden cases: the exact stdout bytes and exit codes of fixed CLI
commands on the A1, A3, D4 and E6 couples, on three size-regime couples
(a chain of length 200, index m = 36049 and lcm L = 1517), of Hilbert
values through degree 40, of the presentation of the E8-type couple
(1/2)[0] - (2/3)[1] + (6/5)[inf] at bounds 30, of a couple with two
label points and of the non-klt couple (6/7)([0] + [1] + [inf]) at
explicit bounds, of `describe`, `discrepancy` and `presentation` at
bounds 30 on two couples whose files need the term merge (labels beside
[inf] and the finite point 1/2; a repeated point, a zero and a negative
coefficient), of three small catalogs, of the toric comparison on P^3,
on the weighted plane P(1,1,2) and on the non-simplicial cube fan, of a
small run of the counterexample families, and of `audit` on the (1, 3)
catalog and on damaged copies of it (in `golden/catalogs`, written by
`damaged_catalogs`), one report per kind of damage.

This module needs only the standard library, so it runs on any Python
the package supports, without pytest:

    PYTHONPATH=src python tests/golden_cases.py --check [NAME ...]

prints each named case (every case when none is named) whose stdout
bytes or exit code differ from its golden file, and exits 1 if there is
one.  After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/golden_cases.py [NAME ...]

(or tests/test_golden.py, which does the same), which rewrites the named
cases and the damaged catalogs and prints the name of each file whose
bytes changed; then review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

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
# couples whose terms are merged and sorted when read: two label points
# (named out of order) beside an [inf] term and the finite point 1/2,
# and a file that repeats [0] and [2] (whose terms cancel), holds a zero
# at [inf] and a negative coefficient at [1]
for name in ("labels_inf", "merged"):
    path = str(GOLDEN / "couples" / f"{name}.json")
    CASES[f"describe_{name}"] = ["describe", "--couple", path]
    CASES[f"discrepancy_{name}"] = ["discrepancy", "--couple", path]
    CASES[f"presentation_{name}_b30"] = [
        "presentation", "--couple", path, "--gen-bound", "30",
        "--rel-bound", "30"]
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


def damaged_catalogs():
    """name -> catalog document: a clean entry of the (1, 3) catalog
    beside entries damaged in one way each.  The entries that audit
    cannot take at face value (a type out of canonical order, not
    reduced or not in (0, 1), a zero denominator, too many points, a
    degree that does not fit the type) are gathered in rebuild_paths."""
    entries = json.loads((GOLDEN / "enumerate_eps1_N3.json").read_text(
        encoding="utf-8"))["entries"]
    by_key = {e["key"]: e for e in entries}
    a2, a3 = by_key["f[2/3];deg=2/3"], by_key["f[1/2,1/2];deg=1"]
    smooth = by_key["f[2/3,1/2];deg=1/6"]

    def damaged(entry, **changes):
        return {**entry, **changes}

    catalogs = {
        "mld_changed": [a3, damaged(a2, mld="1/2")],
        "duplicate_key": [a2, a3, a2],
        "out_of_order": [a3, damaged(smooth, fractional=[[1, 2], [2, 3]])],
        # deg B = 3 (2/3) = 2
        "not_klt": [a3, damaged(a2, fractional=[[2, 3]] * 3, degree="2")],
        "isotropy_above_n": [a3, damaged(a2, fractional=[[1, 5]],
                                         degree="1/5")],
        "missing_and_extra_field": [
            {k: v for k, v in a2.items() if k != "mld"}, {**a3, "note": 1}],
        "rebuild_paths": [
            damaged(a3, fractional=[[2, 4], [1, 2]]),
            damaged(a3, fractional=[[3, 2], [1, 2]], degree="2"),
            damaged(a3, fractional=[[1, -2], [1, 2]], degree="1"),
            damaged(a3, fractional=[[0, 2], [1, 2], [1, 2]]),
            damaged(a3, fractional=[[4, 2], [1, 2], [1, 2]], degree="3"),
            damaged(a2, fractional=[[2, 3], [2, 3]], degree="4/3"),
            damaged(a2, fractional=[[1, 0]]),
            damaged(a2, fractional=[[1, 2]] * 3 + [[2, 1]], degree="7/2"),
            damaged(a2, degree="1/3"),
            damaged(a2, degree="-1/3"),
            damaged(a2, cartier_index_kx=True),
        ],
    }
    return {name: {"entries": docs} for name, docs in catalogs.items()}


CATALOGS = GOLDEN / "catalogs"
DAMAGED = damaged_catalogs()
AUDIT_ARGS = ["--epsilon", "1", "--isotropy-bound", "3"]
CASES["audit_clean"] = ["audit", "--catalog",
                        str(GOLDEN / "enumerate_eps1_N3.json"), *AUDIT_ARGS]
for name in DAMAGED:
    CASES[f"audit_{name}"] = ["audit", "--catalog",
                              str(CATALOGS / f"{name}.json"), *AUDIT_ARGS]
# audit exits 1 when it reports a failure
EXIT_CODES = {f"audit_{name}": 1 for name in DAMAGED}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _named(names):
    """The named cases, sorted, or every case when names is empty."""
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        raise SystemExit(f"no golden case {', '.join(unknown)}")
    return sorted(names or CASES)


def regenerate(names=()):
    """Write the damaged catalogs and the golden file of each named case,
    or of every case when names is empty; the paths, relative to the
    golden directory, of the files whose bytes changed."""
    texts = {CATALOGS / f"{name}.json": dumps(doc)
             for name, doc in DAMAGED.items()}
    for name in _named(names):
        code, out = run(CASES[name])
        if code != EXIT_CODES.get(name, 0):
            raise SystemExit(f"{name}: exit code {code}")
        texts[GOLDEN / f"{name}.json"] = out
    changed = []
    for path, text in texts.items():
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            changed.append(path.relative_to(GOLDEN).as_posix())
    return changed


def check(names=()):
    """The named cases, or every case when names is empty, whose stdout
    bytes or exit code differ from their golden file."""
    differing = []
    for name in _named(names):
        code, out = run(CASES[name])
        path = GOLDEN / f"{name}.json"
        if code != EXIT_CODES.get(name, 0) or not path.exists() or (
                out.encode("utf-8") != path.read_bytes()):
            differing.append(name)
    return differing


def main(argv):
    """--check [NAME ...] prints each differing case and returns 1 if
    there is one; [NAME ...] alone regenerates and prints each changed
    file."""
    if argv[:1] == ["--check"]:
        differing = check(argv[1:])
        for name in differing:
            print(name)
        return 1 if differing else 0
    for changed in regenerate(argv):
        print(changed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

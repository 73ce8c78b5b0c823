"""The names and results that the benchmark tracer (perfbench/tracer.py)
reads off the library.

The tracer wraps the library's public functions and a few private entry
points by name, and its observers read fields of what they return:
`catalog._evaluate_candidate` with its `(fracs, degree, eps)` argument
and its entry-or-None result, `ResolutionGraph.size`, `VertexData.m`
and `ComparisonReport.checks`.  A rename or a changed result there
breaks the traced benchmark pass; this test runs one small command of
each kind under the tracer and checks that every span and counter
still fills.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_and_counters_fill(tmp_path, capsys):
    tracer_module = load_tracer()
    from conesing import cli

    catalog_path = tmp_path / "catalog.json"
    search = ["--epsilon", "1", "--isotropy-bound", "3"]
    commands = [
        ["enumerate", *search, "--jobs", "1", "--out", str(catalog_path)],
        ["audit", "--catalog", str(catalog_path), *search],
        ["describe", "--couple", str(GOLDEN / "couples" / "E6.json")],
        ["presentation", "--couple", str(GOLDEN / "couples" / "D4.json")],
        ["toric-check", "--fan", str(GOLDEN / "fans" / "P3.json"),
         "--divisor", str(GOLDEN / "fans" / "P3.divisor.json"),
         "--samples", "5"],
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(commands):
            tracer.command = i
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert json.loads(catalog_path.read_text(encoding="utf-8"))["entries"]

    assert not tracer.errors
    rows = tracer.per_name()
    for _, _, name in tracer_module.EXTRA_ENTRY_POINTS:
        assert rows.get(name, {}).get("calls", 0) > 0, name
    assert tracer.candidates
    assert all(accepted for _, accepted, _ in tracer.candidates)
    for counter in ("resolution.graph_vertices",
                    "quotient.decomposition_m_sum", "toric.samples_checked"):
        assert tracer.counters[counter] > 0, counter

"""Tests of the benchmark itself, on the smoke inputs.

    python3 -m pytest perfbench -q

They check that every workload reports exactly the metrics that
BENCHMARK.json names, that traced counts repeat exactly, that output is
byte-identical across repeats and job counts, that a hang counts as a
failure, that the oracles catch wrong output, and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    r = subprocess.run([sys.executable, script, *args], cwd=cwd,
                       capture_output=True, text=True, timeout=170)
    return r


def smoke(workload, trace, seed=3):
    r = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    doc = spec()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [tuple(m) for m in tracer.LAYER_METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    record, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(record["commands"]) >= 1
    table = spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    machine = record["machine"]
    assert machine["nproc"] >= 1 and machine["python"] and machine["src_sha256"]
    assert record["seed"] == 3 and record["commands"]
    assert len(record["stdout_sha256"]) == len(record["commands"])


def test_traced_counts_repeat_exactly():
    counts = [name for name, unit, _ in tracer.LAYER_METRICS if unit == "count"]
    first = smoke("catalog", 1)[1]["metrics"]
    second = smoke("catalog", 1)[1]["metrics"]
    assert first["catalog.candidates"]["value"] > 0
    assert {n: first[n]["value"] for n in counts} == \
        {n: second[n]["value"] for n in counts}


def test_output_is_deterministic(tmp_path):
    """The same command twice gives identical stdout, and enumerate gives
    identical bytes at --jobs 1 and --jobs nproc."""
    env = run.child_env()
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps(workloads.couple_doc(workloads.A1)))

    def out(argv, name):
        o = run.launch(argv, env, 120, str(tmp_path / name))
        assert o.code == 0 and not o.timed_out, o.stderr
        return o.stdout

    for kind in ("describe", "presentation"):
        assert out([kind, "--couple", str(a1)], "x") == \
            out([kind, "--couple", str(a1)], "y")
    enum = ["enumerate", "--epsilon", "1", "--isotropy-bound", "6", "--jobs"]
    serial = out(enum + ["1"], "s")
    assert serial == out(enum + ["1"], "t")
    assert serial == out(enum + [str(max(2, workloads.cpu_count()))], "p")


def test_hang_counts_as_failure(tmp_path):
    t0 = time.perf_counter()
    o = run.launch(["verify-examples"], run.child_env(), 0.3,
                   str(tmp_path / "out"))
    assert o.timed_out and o.code != 0
    assert time.perf_counter() - t0 < 30
    w = workloads.build("couples", 1, str(tmp_path), smoke=True)
    reasons = run.judge(w, oracles.Checker(), [o] * len(w.commands))
    assert reasons == ["timed out"] * len(w.commands)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", "catalog", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path,
              script=str(tmp_path / "perfbench" / "run.py"))
    assert r.returncode != 0
    assert r.stdout == ""


def test_oracles_on_known_values():
    m = workloads.COUPLES["index36049"]
    assert oracles.link_determinant(m) == 36049
    readme = (("0", "1/2"), ("1", "1/2"))
    assert oracles.central_log_discrepancy(readme) == 1
    assert oracles.artin_embedding_dimension(None) == 2
    a2 = {"vertices": [-2, -2], "edges": [[0, 1]]}
    assert oracles.artin_embedding_dimension(a2) == 3
    d4 = {"vertices": [-2, -2, -2, -2], "edges": [[0, 1], [0, 2], [0, 3]]}
    assert oracles.artin_embedding_dimension(d4) == 3
    cone = {"vertices": [-4], "edges": []}        # cone over a quartic curve
    assert oracles.artin_embedding_dimension(cone) == 5
    assert [oracles.h0(readme, n)
            for n in range(5)] == [1, 1, 3, 3, 5]


def test_oracles_reject_wrong_output():
    checker = oracles.Checker()
    terms = workloads.A1
    cmd = workloads.Command("describe", [], {"couple": terms})
    good = {"a_e0": "1", "graph": {"det": 2, "discrepancies": ["0"]},
            "hilbert": {"numerator": [1, 1], "L": 1}}
    assert checker.check(cmd, json.dumps(good), {}) is None
    for path, value in ((("graph", "det"), 3), (("a_e0",), "2"),
                        (("hilbert", "numerator"), [1, 2])):
        bad = json.loads(json.dumps(good))
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert checker.check(cmd, json.dumps(bad), {}) is not None
    enum = workloads.Command("enumerate", [], {"epsilon": "1", "isotropy_bound": 3})
    assert "lost" in checker.check(enum, json.dumps({"entries": []}), {})

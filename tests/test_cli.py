import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import count_build_graph

SRC = str(Path(__file__).resolve().parent.parent / "src")
# --jobs above os.cpu_count() exits 3 by contract
TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                              reason="--jobs 2 needs at least two CPUs")


def run_cli(*args, input_text=None, timeout=None):
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "conesing", *args],
                          capture_output=True, text=True, input=input_text,
                          env=env, timeout=timeout)


def couple_doc(terms):
    return json.dumps({"divisor": [
        {"point": pt, "coeff": c} for pt, c in terms]})


QUADRIC = couple_doc([({"t": "fin", "x": "0"}, "2")])
A3 = couple_doc([({"t": "fin", "x": "0"}, "1/2"),
                 ({"t": "fin", "x": "1"}, "1/2")])
NOT_FANO = couple_doc([({"t": "fin", "x": "0"}, "6/7"),
                       ({"t": "fin", "x": "1"}, "6/7"),
                       ({"t": "inf"}, "6/7")])


def test_describe_quadric(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(QUADRIC)
    res = run_cli("describe", "--couple", str(f))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["schema"] == "conesing/1"
    assert doc["mld"] == "1"
    assert doc["a_e0"] == "1"
    assert doc["cartier_index_kx"] == 1
    assert doc["graph"]["center"] == -2


def test_describe_smooth():
    res = run_cli("describe", "--couple", "-",
                  input_text=couple_doc([({"t": "fin", "x": "0"}, "1")]))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["mld"] == "2"
    assert doc["blown_down"] is None


def test_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    res = run_cli("describe", "--couple", str(f))
    assert res.returncode == 2


def test_precondition_exit_3(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(NOT_FANO)
    res = run_cli("describe", "--couple", str(f))
    assert res.returncode == 3


def test_resolve_a3(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(A3)
    res = run_cli("resolve", "--couple", str(f))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["center"] == -2
    assert doc["chains"] == [[-2], [-2]]
    assert doc["det"] == 4
    assert doc["mld"] == "1"
    assert doc["discrepancies"] == ["0", "0", "0"]


def test_hilbert_and_presentation(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(QUADRIC)
    res = run_cli("hilbert", "--couple", str(f), "--through", "6")
    doc = json.loads(res.stdout)
    assert doc["series"] == {"numerator": [1, 1], "L": 1}
    assert doc["values"] == [1, 3, 5, 7, 9, 11, 13]

    res = run_cli("presentation", "--couple", str(f))
    doc = json.loads(res.stdout)
    assert doc["generators"] == [1, 1, 1]
    assert doc["relations"] == [2]
    assert len(doc["equations"]) == 1


def test_hilbert_through_on_many_points_reads_the_series(tmp_path):
    # recomputing h(n) from 20,000 points cost O(points x through): over
    # a minute at this --through
    f = tmp_path / "c.json"
    f.write_text(couple_doc([({"t": "fin", "x": str(k)}, "1/2")
                             for k in range(20000)]))
    start = time.perf_counter()
    res = run_cli("hilbert", "--couple", str(f), "--through", "100000",
                  timeout=60)
    assert time.perf_counter() - start < 3
    assert res.returncode == 0, res.stderr
    values = json.loads(res.stdout)["values"]
    assert values == [1 + 20000 * (n // 2) for n in range(100001)]


@pytest.mark.parametrize("command", ["discrepancy", "describe"])
def test_quotient_data_of_many_points_is_linear(tmp_path, command):
    # looking each point's coefficient up again by a scan of the terms
    # made these commands quadratic: about 200 s at 20,000 points
    f = tmp_path / "c.json"
    f.write_text(couple_doc([({"t": "fin", "x": str(k)}, "1")
                             for k in range(20000)]))
    res = run_cli(command, "--couple", str(f), timeout=30)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["horizontal"]) == 20000
    assert set(doc["horizontal"].values()) == {"1"}


def test_presentation_default_bound_on_non_klt_couple_exits_3_at_once(
        tmp_path):
    # Wahl's count ends the relation search on a klt couple only; a
    # non-klt couple has none, so without a bound the search has no end
    f = tmp_path / "c.json"
    f.write_text(NOT_FANO)
    start = time.perf_counter()
    res = run_cli("presentation", "--couple", str(f), timeout=60)
    assert time.perf_counter() - start < 1
    assert res.returncode == 3 and res.stdout == ""
    assert "--rel-bound" in res.stderr
    assert "Traceback" not in res.stderr


def test_hilbert_negative_through_exits_3(tmp_path, capsys):
    from conesing import cli
    f = tmp_path / "c.json"
    f.write_text(QUADRIC)
    code = cli.main(["hilbert", "--couple", str(f), "--through", "-5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "precondition violated" in captured.err
    assert "--through -5" in captured.err


@pytest.mark.parametrize("flags", [["--gen-bound", "0"],
                                   ["--rel-bound", "2"]])
def test_presentation_vacuous_bounds_exit_3(flags, tmp_path, capsys):
    # (1/2)[0] + (1/2)[1] has a relation in degree 4; these bounds would
    # print no generators or no relations
    from conesing import cli
    f = tmp_path / "c.json"
    f.write_text(A3)
    code = cli.main(["presentation", "--couple", str(f), *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "precondition violated" in captured.err
    assert "Traceback" not in captured.err


def test_enumerate_and_audit(tmp_path):
    out = tmp_path / "catalog.json"
    res = run_cli("enumerate", "--epsilon", "1", "--isotropy-bound", "1",
                  "--jobs", "1", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["count"] == 2
    assert doc["summary"]["mld_spectrum"] == ["1", "2"]

    res = run_cli("audit", "--catalog", str(out), "--epsilon", "1",
                  "--isotropy-bound", "1")
    assert res.returncode == 0

    # tamper: claim a fractional point the couple does not have
    doc["entries"][0]["fractional"] = [[1, 3]]
    doc["entries"][0]["degree"] = "4/3"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("audit", "--catalog", str(bad), "--epsilon", "1",
                  "--isotropy-bound", "1")
    assert res.returncode == 1


@TWO_CPUS
def test_enumerate_deterministic_bytes(tmp_path):
    # --jobs is range-checked only; any accepted value gives the same bytes
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target, jobs in ((a, "1"), (b, "2")):
        res = run_cli("enumerate", "--epsilon", "1/8", "--isotropy-bound", "6",
                      "--jobs", jobs, "--out", str(target))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_mld_set(tmp_path):
    res = run_cli("mld-set", "--epsilon", "2/5", "--isotropy-bound", "1",
                  "--jobs", "1")
    doc = json.loads(res.stdout)
    assert doc["mld_spectrum"] == ["2/5", "1/2", "2/3", "1", "2"]


def test_toric_check_cli(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 2,
                               "rays": [[1, 0], [0, 1], [-1, -1]],
                               "cones": [[0, 1], [1, 2], [0, 2]]}))
    div = tmp_path / "div.json"
    div.write_text(json.dumps(["0", "0", "1"]))
    res = run_cli("toric-check", "--fan", str(fan), "--divisor", str(div),
                  "--samples", "5", "--seed", "3")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["violations"] == []
    assert doc["vertex_actual"] == "3"


def test_toric_check_refuses_a_lift_without_a_qgorenstein_form(tmp_path,
                                                               capsys):
    # the quadric surface with a divisor that is not proportional to the
    # anticanonical class: no covector takes value 1 on the lifted rays
    from conesing import cli
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 2,
                               "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                               "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    div = tmp_path / "div.json"
    div.write_text(json.dumps(["1", "2", "3", "4"]))
    assert cli.main(["toric-check", "--fan", str(fan),
                     "--divisor", str(div)]) == 3
    assert capsys.readouterr() == ("", "precondition violated: comparison "
                                   "needs a Q-Gorenstein lifted cone\n")


def test_verify_examples_small():
    res = run_cli("verify-examples", "--an-n", "6", "--an-box", "12",
                  "--rnc-max", "6")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["ok"] is True
    assert len(doc["checks"]) == 3


def test_verify_examples_keeps_only_the_printed_rows(capsys):
    import tracemalloc
    from conesing.cli import main
    tracemalloc.start()
    try:
        code = main(["verify-examples", "--an-n", "200000", "--an-box", "5",
                     "--rnc-max", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # keeping a row dict per n peaked at about 82 MB at this size
    assert peak < 4 * 2**20
    rows = json.loads(capsys.readouterr().out)["checks"][0]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 199998, 199999, 200000]


def test_discrepancy_command(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(A3)
    res = run_cli("discrepancy", "--couple", str(f))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["a_e0"] == "1"
    assert doc["m"] == 1 and doc["u"] == -1
    assert doc["cartier_index_kx"] == 1
    assert all(v == "1" for v in doc["horizontal"].values())


def test_seed_env_var(tmp_path):
    # the sampling seed is --seed or the default; no environment
    # variable, CONESING_SEED included, changes it
    import os
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                               "cones": [[0, 1], [1, 2], [0, 2]]}))
    div = tmp_path / "div.json"
    div.write_text(json.dumps(["0", "1/2", "1"]))

    def toric_check(seed_env, *flags):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("CONESING_SEED", None)
        if seed_env is not None:
            env["CONESING_SEED"] = seed_env
        res = subprocess.run([sys.executable, "-m", "conesing", "toric-check",
                              "--fan", str(fan), "--divisor", str(div),
                              *flags], capture_output=True, text=True, env=env)
        assert res.returncode == 0 and res.stderr == ""
        return res.stdout

    seeded = toric_check(None, "--seed", "77")
    assert toric_check(None, "--seed", "77") == seeded
    assert toric_check("5", "--seed", "77") == seeded
    default = toric_check(None)
    assert default != seeded
    assert toric_check("77") == toric_check("not a number") == default


def test_describe_output_reparses(tmp_path):
    from conesing.jsonio import couple_from_json
    f = tmp_path / "c.json"
    f.write_text(A3)
    res = run_cli("describe", "--couple", str(f))
    doc = json.loads(res.stdout)
    C = couple_from_json({"divisor": doc["divisor"]})
    assert str(C.degree()) == doc["degree"]


def test_unknown_flag_exit_2():
    res = run_cli("describe", "--nope")
    assert res.returncode == 2


ARG_VALUES = st.sampled_from(["0", "7", "-3", "-", "x.json", "", "1_0", " 4",
                              "+2", "4.5", "--out", "--couple", "-h",
                              "resolve", "\u0663"])


@st.composite
def cli_argvs(draw):
    """A subcommand (or not) with most of its flags and plain values,
    plus odd flags, odd values and stray tokens now and then."""
    from conesing import cli
    commands = cli._commands()
    name = draw(st.sampled_from([*commands, "bogus", "--version"]))
    options = commands[name][2] if name in commands else ()
    pairs = []
    for flag, kind, required, *_ in options:
        if draw(st.integers(0, 3)) < (3 if required else 2):
            plain = st.integers(0, 99).map(str) if kind is int else \
                st.sampled_from(["c.json", "1/2", "7"])
            pairs.append((flag, draw(st.one_of(plain, ARG_VALUES))))
    pairs += draw(st.lists(st.tuples(
        st.sampled_from([*(o[0] for o in options), "--nope", "-h", "--coup"]),
        ARG_VALUES), max_size=2))
    pairs = draw(st.permutations(pairs))
    tail = draw(st.lists(ARG_VALUES, max_size=1))
    return [name, *(x for pair in pairs for x in pair), *tail]


@given(cli_argvs())
def test_plain_args_agree_with_argparse(argv):
    from conesing import cli
    plain = cli._plain_args(argv)
    if plain is None:
        return
    with contextlib.redirect_stderr(io.StringIO()):
        parsed = cli.build_parser().parse_args(argv)
    assert vars(parsed) == vars(plain)


def test_plain_argv_runs_a_handler_replaced_in_the_module(monkeypatch):
    # a profiler wraps cmd_* in place; the plain path must call the wrapper
    from conesing import cli, cli_couple
    seen = []
    monkeypatch.setattr(cli_couple, "cmd_resolve",
                        lambda args: seen.append(args) or ({}, 0))
    assert cli.main(["resolve", "--couple", "c.json"]) == 0
    assert [a.couple for a in seen] == ["c.json"]


@pytest.mark.parametrize("argv", [
    ["describe", "--couple", "c.json"],
    ["hilbert", "--out", "o.json", "--through", "12", "--couple", "c.json"],
    ["enumerate", "--epsilon", "1/2", "--isotropy-bound", "6"],
    ["audit", "--catalog", "k.json", "--epsilon", "1", "--isotropy-bound",
     "3", "--out", "o.json"],
    ["toric-check", "--fan", "f.json", "--divisor", "d.json", "--seed", "5"],
    ["verify-examples", "--an-n", "3"],
])
def test_plain_argv_is_parsed_without_argparse(argv):
    from conesing import cli
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser().parse_args(argv))


def test_cli_import_leaves_numpy_unloaded():
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, conesing.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
    # nor after a command has run
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from conesing import cli\n"
         "code = cli.main(['verify-examples', '--an-n', '6', '--an-box', '12',"
         " '--rnc-max', '6'])\n"
         "assert code == 0, code\n"
         "assert 'numpy' not in sys.modules\n"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    for path in Path(SRC).rglob("*.py"):
        assert "import numpy" not in path.read_text(encoding="utf-8"), path


@pytest.mark.parametrize("command", ["describe", "resolve"])
def test_one_graph_per_command(command, tmp_path, monkeypatch, capsys):
    from conesing import cli
    f = tmp_path / "c.json"
    f.write_text(A3)
    calls = count_build_graph(monkeypatch)
    assert cli.main([command, "--couple", str(f)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["mld"] == "1"


def test_invariant_breach_exits_4_without_traceback(monkeypatch, capsys):
    from conesing import cli
    from conesing.resolution import BlownDownGraph
    # embedding dimension 3 for every entry contradicts the smooth
    # degree-1 cone, whose star graph blows down to nothing
    monkeypatch.setattr(BlownDownGraph, "embedding_dimension",
                        property(lambda self: 3))
    code = cli.main(["enumerate", "--epsilon", "1", "--isotropy-bound", "1",
                     "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "internal invariant violated" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [
    ["--an-box", "0"],
    ["--an-n", "1", "--an-box", "2", "--rnc-max", "0"],
])
def test_verify_examples_degenerate_bounds_exit_3(flags, capsys):
    from conesing import cli
    code = cli.main(["verify-examples", *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "precondition violated" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags, bound", [
    (["--an-n", "0"], "--an-n 0 must be >= 1"),
    (["--an-n", "-2"], "--an-n -2 must be >= 1"),
    (["--an-n", "1", "--an-box", "2", "--rnc-max", "1"], "--rnc-max 1 must be >= 4"),
    (["--an-n", "1", "--an-box", "2", "--rnc-max", "3"], "--rnc-max 3 must be >= 4"),
])
def test_verify_examples_vacuous_families_exit_3(flags, bound, capsys):
    # an empty A-type family, or an index test that every member passes
    from conesing import cli
    code = cli.main(["verify-examples", *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert bound in captured.err


def test_section_invariant_breach_exits_4(tmp_path, monkeypatch, capsys):
    from conesing import cli
    from conesing.sections import SectionSpace
    f = tmp_path / "c.json"
    f.write_text(QUADRIC)
    # a correction polynomial of excess degree pushes every product out
    # of its target space
    monkeypatch.setattr(SectionSpace, "shift_poly",
                        lambda self, a, b: [1] * 100)
    code = cli.main(["presentation", "--couple", str(f)])
    captured = capsys.readouterr()
    assert code == 4
    assert "product escapes the target space" in captured.err
    assert "Traceback" not in captured.err


def test_presentation_generator_count_certificate_exits_4(tmp_path,
                                                          monkeypatch, capsys):
    from conesing import cli
    from conesing.resolution import BlownDownGraph
    f = tmp_path / "c.json"
    f.write_text(A3)
    # A3 has three generators; a blown-down graph that claims four makes
    # the certificate fail
    monkeypatch.setattr(BlownDownGraph, "embedding_dimension", 4)
    code = cli.main(["presentation", "--couple", str(f)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "embedding dimension 4" in captured.err
    assert "Traceback" not in captured.err


def test_presentation_bound_below_a_generator_exits_3():
    # (1/200)[0] has generators in degrees 1 and 200: every degree below
    # 200 is one-dimensional, and Artin's count asks for a second one
    chain200 = Path(__file__).resolve().parent / "golden" / "couples" / \
        "chain200.json"
    res = run_cli("presentation", "--couple", str(chain200), "--gen-bound",
                  "30", "--rel-bound", "30")
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", "precondition violated: generator bound 30 finds 1 "
        "generators, below embedding dimension 2\n")


COUPLES = Path(__file__).resolve().parent / "golden" / "couples"
# D = (1/200)([0] + [1] + [2] + [3]) is not klt: h(n) = 1 below degree
# 200 and h(200) = 5
FOUR_POINTS_200 = couple_doc([({"t": "fin", "x": str(x)}, "1/200")
                              for x in range(4)])
# (1/2)[0] - (1/3)[1] + (1/3)[3] + 2[5]: klt, six generators
SIX_GENERATORS = couple_doc([({"t": "fin", "x": "0"}, "1/2"),
                             ({"t": "fin", "x": "1"}, "-1/3"),
                             ({"t": "fin", "x": "3"}, "1/3"),
                             ({"t": "fin", "x": "5"}, "2")])


@pytest.mark.parametrize("couple,flags,code,answer", [
    # the scan runs to the certificate degree n0 + L - 1 = 399 and meets
    # the unspanned degree 200
    (FOUR_POINTS_200, ["--gen-bound", "30"], 3,
     "precondition violated: generators through degree 30 do not span "
     "degree 200\n"),
    (FOUR_POINTS_200, ["--gen-bound", "200", "--rel-bound", "4"], 0,
     ([1, 200, 200, 200, 200], [], 399)),
    # Wahl's count for four generators is three relations: [5, 7, 8]
    (COUPLES / "E8.json", ["--gen-bound", "30", "--rel-bound", "6"], 3,
     "precondition violated: relation bound 6 finds 1 relations, below "
     "Wahl's count 3 for 4 generators\n"),
    (COUPLES / "E8.json", [], 0, ([1, 2, 3, 5], [5, 7, 8], 5)),
    (COUPLES / "chain200.json", [], 0, ([1, 200], [], 200)),
    (SIX_GENERATORS, [], 0,
     ([1, 1, 2, 2, 3, 3], [3, 3, 4, 4, 4, 4, 5, 5, 5, 6], 3)),
], ids=["four_points_g30", "four_points_g200_r4", "E8_g30_r6", "E8",
        "chain200", "six_generators"])
def test_presentation_stops_where_the_theory_says(couple, flags, code, answer,
                                                  tmp_path):
    # each of these ran for more than 15 s, or exited 0 with a list that
    # missed generators or relations, while the search saturated through
    # twice its bounds
    path = couple
    if isinstance(couple, str):
        path = tmp_path / "c.json"
        path.write_text(couple)
    start = time.perf_counter()
    res = run_cli("presentation", "--couple", str(path), *flags, timeout=30)
    assert time.perf_counter() - start < 2
    assert res.returncode == code, res.stderr
    if code:
        assert (res.stdout, res.stderr) == ("", answer)
    else:
        doc = json.loads(res.stdout)
        assert (doc["generators"], doc["relations"],
                doc["verified_through"]) == answer


def test_audit_of_tampered_embedding_dimension_exits_1(tmp_path, capsys):
    from conesing import cli
    path = tmp_path / "cat.json"
    assert cli.main(["enumerate", "--epsilon", "1", "--isotropy-bound", "2",
                     "--jobs", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    victim = doc["entries"][-1]
    victim["embedding_dimension"] += 1
    path.write_text(json.dumps(doc))
    code = cli.main(["audit", "--catalog", str(path), "--epsilon", "1",
                     "--isotropy-bound", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["failures"] == [
        f"entry {victim['key']}: stored embedding_dimension "
        f"{victim['embedding_dimension']} is wrong"]


def test_audit_reports_entry_over_the_isotropy_bound_without_building_it(
        tmp_path, monkeypatch, capsys):
    import time
    from conesing import cli
    calls = count_build_graph(monkeypatch)
    key = "f[1/1000000];deg=1000001/1000000"
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"entries": [
        {"key": key, "fractional": [[1, 1000000]],
         "degree": "1000001/1000000"}]}))
    start = time.perf_counter()
    code = cli.main(["audit", "--catalog", str(path), "--epsilon", "1",
                     "--isotropy-bound", "1"])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        f"entry {key}: isotropy above the bound 1"]
    assert calls == []


P2_FAN = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
          "cones": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize("fan, flags, code", [
    ({"rank": 0, "rays": [], "cones": [[]]}, [], 3),
    ({**P2_FAN, "rank": "a"}, [], 2),
    ({**P2_FAN, "rays": [[1, 0], [0, "x"], [-1, -1]]}, [], 2),
    ({**P2_FAN, "cones": [[0, 1], [1, 2.5], [0, 2]]}, [], 2),
    (P2_FAN, ["--samples", "-3"], 3),
], ids=["rank0", "rank_not_int", "ray_not_int", "cone_not_int",
        "negative_samples"])
def test_toric_check_bad_input_exits_without_traceback(tmp_path, fan, flags,
                                                       code):
    fan_path = tmp_path / "fan.json"
    div_path = tmp_path / "div.json"
    fan_path.write_text(json.dumps(fan))
    div_path.write_text(json.dumps(["1"] * len(fan["rays"])))
    res = run_cli("toric-check", "--fan", str(fan_path),
                  "--divisor", str(div_path), *flags)
    assert res.returncode == code, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("fan, samples, reason", [
    ({**P2_FAN, "cones": [[0, 0, 1], [1, 2]]}, "0", "repeats a ray"),
    ({**P2_FAN, "cones": [[0, 1], [1, 2]]}, "0", "fan not complete"),
    ({"rank": 3, "rays": [[x, y, z] for x in (1, -1) for y in (1, -1)
                          for z in (1, -1)],
      "cones": [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7],
                [0, 2, 4, 6]]}, "0", "fan not complete"),
    # winds twice around the origin: every wall pairs up, yet (1, 1)
    # lies in three cones
    ({"rank": 2, "rays": [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0],
                          [-1, -1], [0, -1], [1, -1]],
      "cones": [[0, 2], [2, 4], [4, 6], [6, 0], [1, 3], [3, 5], [5, 7],
                [7, 1]]}, "0", "cover space more than once"),
], ids=["repeated_index", "p2_two_cones", "cube_five_faces", "winds_twice"])
def test_toric_check_refuses_incomplete_fans(tmp_path, fan, samples, reason,
                                            capsys):
    from conesing import cli
    fan_path = tmp_path / "fan.json"
    div_path = tmp_path / "div.json"
    fan_path.write_text(json.dumps(fan))
    div_path.write_text(json.dumps(["1"] * len(fan["rays"])))
    code = cli.main(["toric-check", "--fan", str(fan_path),
                     "--divisor", str(div_path), "--samples", samples])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "precondition violated" in captured.err
    assert reason in captured.err


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("case", ["deep", "not_utf8", "huge_int", "boolean",
                                  "exponent", "long_decimal"])
@pytest.mark.parametrize("command", ["describe", "audit", "toric-check"])
def test_malformed_json_exits_2_without_traceback(command, case, source,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    from conesing import cli
    from conesing.catalog import SearchParams, enumerate_catalog
    if case == "deep":
        data = b"[" * 100000
    elif case == "not_utf8":
        data = b"\xff\xfe{"
    elif case == "huge_int":
        # past the interpreter's digit limit for integer conversion
        data = b"[" + b"9" * 5000 + b"]"
    else:
        # a boolean, a ten-byte rational with 100,001 digits, or a decimal
        # whose denominator 10^4300 passes the interpreter's digit limit
        # for integer-to-string conversion
        bad_q = {"boolean": True, "exponent": "1e100000",
                 "long_decimal": "0." + "0" * 4299 + "1"}[case]
        if command == "describe":
            data = couple_doc([({"t": "fin", "x": "0"}, bad_q)]).encode()
        elif command == "audit":
            entry = enumerate_catalog(
                SearchParams(epsilon=1, isotropy_bound=1))[0]
            data = json.dumps({"entries": [{**entry,
                                            "degree": bad_q}]}).encode()
        else:
            data = json.dumps([bad_q, "1", "1"]).encode()
    bad = "-"
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data),
                                                           encoding="utf-8"))
    else:
        bad = str(tmp_path / "bad.json")
        Path(bad).write_bytes(data)
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(P2_FAN))
    div = tmp_path / "div.json"
    div.write_text(json.dumps(["1", "1", "1"]))
    # the bad rational of toric-check sits in the divisor, the others in
    # the fan
    fan_arg, div_arg = ((str(fan), bad)
                        if case in ("boolean", "exponent", "long_decimal")
                        else (bad, str(div)))
    argv = {"describe": ["describe", "--couple", bad],
            "audit": ["audit", "--catalog", bad, "--epsilon", "1",
                      "--isotropy-bound", "1"],
            "toric-check": ["toric-check", "--fan", fan_arg,
                            "--divisor", div_arg]}[command]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "parse error" in captured.err
    assert "Traceback" not in captured.err


def test_parse_q_bounds_digits_of_numerator_and_denominator():
    from conesing.errors import ParseError
    from conesing.jsonio import MAX_DIGITS, fmt_q, parse_q
    digits = "9" * MAX_DIGITS
    for ok in (digits, "-" + digits, "1/" + digits,
               "0." + "0" * (MAX_DIGITS - 2) + "1"):
        assert parse_q(ok) == Fraction(ok)
        fmt_q(parse_q(ok))
    for bad in (digits + "9", "-" + digits + "9", "1/" + digits + "9",
                "0." + "0" * (MAX_DIGITS - 1) + "1", int(digits + "9")):
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            parse_q(bad)


CHAIN_TOO_LONG = f"chain length {10**30 - 1} of q/p = {10**30}/1 exceeds " \
                 "CHAIN_LENGTH_MAX = 1000000"
PERIOD_TOO_LONG = f"period L = {10**30} exceeds PERIOD_MAX = 1000000"


@pytest.mark.parametrize("command,message", [
    ("describe", CHAIN_TOO_LONG), ("resolve", CHAIN_TOO_LONG),
    ("hilbert", PERIOD_TOO_LONG), ("presentation", PERIOD_TOO_LONG)])
def test_denominator_10_to_30_exits_3_within_a_second(command, message):
    # q = 10^30 from a 35-byte coefficient: the chain has q - 1 entries
    # and the period is q, both far above their caps
    import time
    doc = couple_doc([({"t": "fin", "x": "0"}, "0." + "0" * 29 + "1")])
    start = time.perf_counter()
    res = run_cli(command, "--couple", "-", input_text=doc)
    assert time.perf_counter() - start < 1.0
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == f"precondition violated: {message}\n"


def ranged_options():
    """(command, flag, least, greatest) of every ranged option in the
    CLI's option table."""
    from conesing import cli
    return [(name, flag, *accepted)
            for name, (_, _, options) in cli._commands().items()
            for flag, *_, accepted in options if accepted is not None]


def flags_with(end):
    """Each flag whose range has a least (end 0) or a greatest (end 1),
    mapped to the commands that take it, each with that end."""
    found = {}
    for command, flag, *accepted in ranged_options():
        if accepted[end] is not None:
            found.setdefault(flag, []).append((command, accepted[end]))
    return found


def argv_with(command, flag, value):
    """command with flag at value and every other required flag at a
    value in its range or a path that does not exist, which no handler
    reads before the range check."""
    from conesing import cli
    argv = [command]
    for other, kind, required, *_, accepted in cli._commands()[command][2]:
        if required and other != flag:
            argv += [other, str(accepted[0]) if kind is int else "missing"]
    return [*argv, flag, str(value)]


def refusal(flag, value, least, greatest):
    """The stderr of main's refusal of flag at value, outside the range
    from least to greatest."""
    if least is not None and value < least:
        return f"precondition violated: {flag} {value} must be >= {least}\n"
    assert greatest is not None and value > greatest
    return f"precondition violated: {flag} {value} exceeds {greatest}\n"


def assert_refused_within_a_second(command, flag, value, least, greatest):
    start = time.perf_counter()
    res = run_cli(*argv_with(command, flag, value))
    assert time.perf_counter() - start < 1.0
    assert (res.returncode, res.stdout, res.stderr) == (
        3, "", refusal(flag, value, least, greatest))


@pytest.mark.parametrize("flag", sorted(flags_with(1)))
def test_count_flag_above_its_cap_exits_3_within_a_second(flag):
    for command, greatest in flags_with(1)[flag]:
        assert_refused_within_a_second(command, flag, greatest + 1, None,
                                       greatest)


@pytest.mark.parametrize("flag", sorted(flags_with(0)))
def test_flag_below_its_least_exits_3_within_a_second(flag):
    # refused before the handler reads a file or parses --epsilon
    for command, least in flags_with(0)[flag]:
        assert_refused_within_a_second(command, flag, least - 1, least, None)


def narrow(monkeypatch, flag):
    """Patch the option table so that flag accepts 3 to 6, and the
    handlers so that they record their arguments; returns the record."""
    from conesing import cli
    table = cli._commands()

    def narrowed(option):
        return (*option[:5], (3, 6)) if option[0] == flag else option

    monkeypatch.setattr(cli, "_commands", lambda: {
        name: (family, text, tuple(map(narrowed, options)))
        for name, (family, text, options) in table.items()})
    seen = []
    monkeypatch.setattr(cli, "_handler", lambda command:
                        lambda args: seen.append(args) or ({}, 0))
    return seen


@pytest.mark.parametrize("flag", sorted(flags_with(1)))
def test_count_flag_at_its_cap_runs(flag, monkeypatch, capsys):
    # the range narrowed to 3..6: the cap itself runs, one more exits 3
    from conesing import cli
    seen = narrow(monkeypatch, flag)
    for command, _ in flags_with(1)[flag]:
        assert cli.main(argv_with(command, flag, 6)) == 0
        assert getattr(seen.pop(), flag[2:].replace("-", "_")) == 6
        assert cli.main(argv_with(command, flag, 7)) == 3
        assert capsys.readouterr().err == refusal(flag, 7, None, 6)


@pytest.mark.parametrize("flag", sorted(flags_with(0)))
def test_flag_at_its_least_runs(flag, monkeypatch, capsys):
    # the range narrowed to 3..6: the least itself runs, one less exits 3
    from conesing import cli
    seen = narrow(monkeypatch, flag)
    for command, _ in flags_with(0)[flag]:
        assert cli.main(argv_with(command, flag, 3)) == 0
        assert getattr(seen.pop(), flag[2:].replace("-", "_")) == 3
        assert cli.main(argv_with(command, flag, 2)) == 3
        assert capsys.readouterr().err == refusal(flag, 2, 3, None)


@given(st.data())
def test_any_value_outside_its_range_exits_3(data):
    from conesing import cli
    command, flag, least, greatest = data.draw(
        st.sampled_from(ranged_options()))
    outside = []
    if least is not None:
        outside.append(st.integers(-10**12, least - 1))
    if greatest is not None:
        outside.append(st.integers(greatest + 1, 10**12))
    value = data.draw(st.one_of(outside))
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv_with(command, flag, value))
    assert (code, out.getvalue(), err.getvalue()) == (
        3, "", refusal(flag, value, least, greatest))


def test_audit_of_entry_with_non_string_key_exits_2(tmp_path, capsys):
    from conesing import cli
    path = tmp_path / "cat.json"
    assert cli.main(["enumerate", "--epsilon", "1", "--isotropy-bound", "1",
                     "--jobs", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["entries"][0]["key"] = []
    path.write_text(json.dumps(doc))
    code = cli.main(["audit", "--catalog", str(path), "--epsilon", "1",
                     "--isotropy-bound", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "catalog key [] is not a string" in captured.err


# ---------------------------------------------------------------------------
# Hypothesis fuzz of the CLI on malformed and well-formed JSON
# ---------------------------------------------------------------------------

SCHEMA_KEYS = ("divisor", "point", "coeff", "t", "x", "name", "rank", "rays",
               "cones")
RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-60, 60),
                      st.integers(1, 50))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), RATIONALS,
                   st.sampled_from(SCHEMA_KEYS + ("fin", "inf", "lbl", "", "p")))
JSON_DOCS = st.recursive(
    LEAVES, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(SCHEMA_KEYS), kids, max_size=4)),
    max_leaves=10)
POINTS = st.one_of(
    st.fixed_dictionaries({"t": st.just("fin"),
                           "x": st.one_of(RATIONALS, st.integers(-3, 3),
                                          JSON_DOCS)}),
    st.just({"t": "inf"}),
    st.fixed_dictionaries({"t": st.just("lbl"),
                           "name": st.sampled_from(["p", "q", ""])}),
    JSON_DOCS)
TERMS = st.one_of(
    st.fixed_dictionaries({"point": POINTS,
                           "coeff": st.one_of(RATIONALS, st.integers(-2, 4),
                                              JSON_DOCS)}),
    JSON_DOCS)
COUPLE_DOCS = st.one_of(
    st.fixed_dictionaries({"divisor": st.one_of(st.lists(TERMS, max_size=4),
                                                JSON_DOCS)}),
    JSON_DOCS)
ROWS = st.one_of(st.lists(st.lists(st.one_of(st.integers(-2, 6), LEAVES),
                                   max_size=4), max_size=6),
                 JSON_DOCS)
FAN_DOCS = st.one_of(
    st.sampled_from([P2_FAN, {"rank": 1, "rays": [[1], [-1]],
                              "cones": [[0], [1]]},
                     {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                          [-1, -1, -1]],
                      "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3],
                                [1, 2, 3]]}]),
    st.fixed_dictionaries({"rank": st.one_of(st.integers(-1, 3), LEAVES),
                           "rays": ROWS, "cones": ROWS}),
    JSON_DOCS)
DIVISOR_DOCS = st.one_of(
    st.lists(st.one_of(RATIONALS, st.integers(-2, 3), LEAVES), max_size=6),
    JSON_DOCS)


@st.composite
def toric_inputs(draw):
    """A fan document and a divisor document, often one well-formed
    coefficient per ray of the fan."""
    fan = draw(FAN_DOCS)
    rays = fan.get("rays") if isinstance(fan, dict) else None
    if isinstance(rays, list) and draw(st.booleans()):
        coeff = st.one_of(RATIONALS, st.integers(0, 3))
        return fan, draw(st.lists(coeff, min_size=len(rays),
                                  max_size=len(rays)))
    return fan, draw(DIVISOR_DOCS)


def run_quietly(argv):
    from conesing import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@given(COUPLE_DOCS)
def test_fuzz_describe_exits_0_2_or_3(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "couple.json"
    path.write_text(json.dumps(doc))
    assert run_quietly(["describe", "--couple", str(path)]) in (0, 2, 3)


BIG_RATIONALS = st.builds(lambda p, q: f"{p}/{q}",
                          st.integers(-10**6, 10**6), st.integers(1, 10**6))
PAIRS = st.lists(st.one_of(
    st.lists(st.one_of(st.integers(-3, 10**6), LEAVES), min_size=2,
             max_size=2),
    JSON_DOCS), max_size=4)
FIELD_VALUES = st.one_of(LEAVES, JSON_DOCS, BIG_RATIONALS, PAIRS,
                         st.integers(-10**6, 10**6))


@pytest.fixture(scope="module")
def catalog_1_2():
    from conesing.catalog import (SearchParams, catalog_to_json,
                                  enumerate_catalog)
    params = SearchParams(epsilon=1, isotropy_bound=2)
    return catalog_to_json(enumerate_catalog(params), params)


@st.composite
def tampered_catalogs(draw, catalog):
    """The (1, 2) catalog with entry fields replaced or dropped, entries
    replaced, or the whole document replaced."""
    doc = json.loads(json.dumps(catalog))
    entries = doc["entries"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        if not isinstance(entries[i], dict):
            continue
        field = draw(st.sampled_from(sorted(entries[i])))
        if isinstance(entries[i][field], dict) and draw(st.booleans()):
            # inside the graph summary
            entries[i][field][draw(st.sampled_from(
                ["center", "chains", "blown_down"]))] = draw(FIELD_VALUES)
        elif draw(st.integers(0, 5)) == 0:
            del entries[i][field]
        else:
            entries[i][field] = draw(FIELD_VALUES)
    if draw(st.integers(0, 5)) == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(JSON_DOCS)
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_DOCS)
    return doc


@given(data=st.data())
def test_fuzz_audit_exits_0_to_3(tmp_path_factory, catalog_1_2, data):
    doc = data.draw(tampered_catalogs(catalog_1_2))
    path = tmp_path_factory.mktemp("fuzz") / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run_quietly(["audit", "--catalog", str(path), "--epsilon", "1",
                        "--isotropy-bound", "2"]) in (0, 1, 2, 3)


@given(toric_inputs())
def test_fuzz_toric_check_exits_0_2_or_3(tmp_path_factory, inputs):
    fan, divisor = inputs
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "fan.json").write_text(json.dumps(fan))
    (directory / "div.json").write_text(json.dumps(divisor))
    assert run_quietly(["toric-check", "--fan", str(directory / "fan.json"),
                        "--divisor", str(directory / "div.json"),
                        "--samples", "3", "--seed", "1"]) in (0, 2, 3)


E6_FILE = str(Path(__file__).resolve().parent / "golden" / "couples" / "E6.json")
# --version writes one line, describe a few kilobytes, enumerate more
# than an output buffer holds
WRITERS = [["--version"], ["describe", "--couple", E6_FILE],
           ["enumerate", "--epsilon", "1/2", "--isotropy-bound", "6"],
           # argparse's help, whose own writer drops a failed write
           ["--help"], ["describe", "--help"]]
WRITER_IDS = [" ".join(a) if "--help" in a else a[0] for a in WRITERS]


# the two launchers: `python -m conesing`, which ends with os._exit, and
# what the `conesing` console script runs, which ends with the
# interpreter's teardown
MODULE = ["-m", "conesing"]
CONSOLE_SCRIPT = ["-c", "import sys; from conesing.cli import main; "
                        "sys.exit(main())"]
BUFFERING = pytest.mark.parametrize("buffered", [True, False],
                                    ids=["buffered", "unbuffered"])
NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                 reason="no /dev/full")
BROKEN_PIPE = "error: cannot write output: [Errno 32] Broken pipe\n"
DEVICE_FULL = ("error: cannot write output: [Errno 28] No space left on "
               "device\n")


def run_into(stdout, argv, buffered, launcher):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *launcher, *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env)


def into_closed_pipe(argv, buffered, launcher):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_into(write_end, argv, buffered, launcher)
    finally:
        os.close(write_end)


def into_full_device(argv, buffered, launcher):
    with open("/dev/full", "w") as full:
        return run_into(full, argv, buffered, launcher)


@BUFFERING
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_stdout_into_a_closed_pipe_exits_3_without_a_traceback(argv,
                                                               buffered):
    res = into_closed_pipe(argv, buffered, MODULE)
    assert (res.returncode, res.stderr) == (3, BROKEN_PIPE)


@NO_DEV_FULL
@BUFFERING
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_stdout_into_a_full_device_exits_3_without_a_traceback(argv,
                                                               buffered):
    res = into_full_device(argv, buffered, MODULE)
    assert (res.returncode, res.stderr) == (3, DEVICE_FULL)


# buffered help used to stay in stdout's buffer until the teardown
# flushed it, which failed with exit 120 and "Exception ignored in"
@BUFFERING
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_console_script_into_a_closed_pipe_exits_3(argv, buffered):
    res = into_closed_pipe(argv, buffered, CONSOLE_SCRIPT)
    assert (res.returncode, res.stderr) == (3, BROKEN_PIPE)


@NO_DEV_FULL
@BUFFERING
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_console_script_into_a_full_device_exits_3(argv, buffered):
    res = into_full_device(argv, buffered, CONSOLE_SCRIPT)
    assert (res.returncode, res.stderr) == (3, DEVICE_FULL)


def error_classes():
    from conesing import errors
    return sorted((cls for cls in vars(errors).values()
                   if isinstance(cls, type)
                   and issubclass(cls, errors.ConesingError)),
                  key=lambda cls: cls.__name__)


def readme_exit(cls):
    """The exit code and stderr label that the README gives a class."""
    from conesing import errors
    for family, code, label in (
            (errors.ParseError, 2, "parse error"),
            (errors.PreconditionError, 3, "precondition violated"),
            (errors.InternalInvariantError, 4, "internal invariant violated")):
        if issubclass(cls, family):
            return code, label
    return 3, "error"


@pytest.mark.parametrize("cls", error_classes(), ids=lambda c: c.__name__)
def test_a_handler_raising_an_error_exits_with_its_readme_code(
        cls, monkeypatch, capsys):
    from conesing import cli

    def handler(args):
        raise cls("raised by the handler")

    monkeypatch.setattr(cli, "_handler", lambda command: handler)
    code, label = readme_exit(cls)
    assert cli.main(["resolve", "--couple", "c.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{label}: raised by the handler\n"


def test_out_file_that_cannot_be_written_exits_3(tmp_path, capsys):
    from conesing import cli
    target = tmp_path / "missing" / "out.json"
    assert cli.main(["describe", "--couple", E6_FILE, "--out",
                     str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write output: [Errno 2] No such "
                            f"file or directory: {str(target)!r}\n")

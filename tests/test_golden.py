"""Golden CLI output: each case of golden_cases, run in this process,
must print its golden file's bytes and exit with its code.  Outside
pytest, `PYTHONPATH=src python tests/test_golden.py [NAME ...]`
regenerates the named cases, as golden_cases does (see there), and
`--check [NAME ...]` reports the cases whose output differs.
"""

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden_cases
from conesing.jsonio import dumps
from golden_cases import (CASES, CATALOGS, DAMAGED, EXIT_CODES, GOLDEN,
                          regenerate, run)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = run(CASES[name])
    assert code == EXIT_CODES.get(name, 0)
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


def test_damaged_catalogs_are_the_committed_files():
    for name, doc in DAMAGED.items():
        assert (CATALOGS / f"{name}.json").read_text(
            encoding="utf-8") == dumps(doc)


def test_regenerate_writes_the_named_cases_and_lists_changed_files(
        tmp_path, monkeypatch):
    monkeypatch.setattr(golden_cases, "GOLDEN", tmp_path)
    monkeypatch.setattr(golden_cases, "CATALOGS", tmp_path / "catalogs")
    (tmp_path / "catalogs").mkdir()
    catalogs = sorted(f"catalogs/{name}.json" for name in DAMAGED)
    assert sorted(regenerate(["describe_A1"])) == sorted(
        catalogs + ["describe_A1.json"])
    assert sorted(path.name for path in tmp_path.glob("*.json")) == [
        "describe_A1.json"]
    assert regenerate(["describe_A1", "resolve_A1"]) == ["resolve_A1.json"]
    (tmp_path / "describe_A1.json").write_text("{}\n", encoding="utf-8")
    assert regenerate(["describe_A1"]) == ["describe_A1.json"]
    with pytest.raises(SystemExit, match="no golden case nonesuch"):
        regenerate(["nonesuch"])


def test_check_flags_a_golden_file_with_one_byte_changed(
        tmp_path, monkeypatch, capsys):
    for name in ("describe_A1", "resolve_A1"):
        text = (GOLDEN / f"{name}.json").read_bytes()
        (tmp_path / f"{name}.json").write_bytes(text)
    monkeypatch.setattr(golden_cases, "GOLDEN", tmp_path)
    assert golden_cases.main(["--check", "describe_A1", "resolve_A1"]) == 0
    assert capsys.readouterr().out == ""
    damaged = bytearray((tmp_path / "describe_A1.json").read_bytes())
    damaged[-2] ^= 1        # the closing brace, before the final newline
    (tmp_path / "describe_A1.json").write_bytes(bytes(damaged))
    assert golden_cases.main(["--check", "describe_A1", "resolve_A1"]) == 1
    assert capsys.readouterr().out == "describe_A1\n"


if __name__ == "__main__":
    sys.exit(golden_cases.main(sys.argv[1:]))

"""Layout rule: src/ holds only code that the CLI and the catalog run.

Every top-level function or class of a module in src/conesing must be
referred to (by a Name, an Attribute or an import) from another module
there, or from elsewhere in its own module; the dispatcher in cli
calls the handler `cmd_<name>` of `cli_<family>` by name, for each
command that its table maps to that family.  Every method of a class
there, dunders aside, must be referred to by name somewhere in src/
outside its own body.  The package __init__ only re-exports, so it
does not count as a caller.  Reference oracles and
other test-only code live in tests/helpers.py.  Every name a top-level
import binds in such a module must be used in that module; the package
__init__, which only re-exports, is exempt.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conesing"


def references(node, skip=None):
    """Names a syntax tree refers to through Name, Attribute or import,
    leaving out the subtree skip."""
    out = set()
    todo = [node]
    while todo:
        sub = todo.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in sub.names)
        todo.extend(ast.iter_child_nodes(sub))
    return out


def dispatched_handlers():
    """module.function of the handler of every command in the CLI table."""
    from conesing import cli
    return {f"cli_{family}.cmd_{name.replace('-', '_')}"
            for name, (family, _, _) in cli._commands().items()}


def unreferenced_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    dispatched = dispatched_handlers()
    unused = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        elsewhere = set()
        for other, other_tree in trees.items():
            if other not in (name, "__init__.py"):
                elsewhere |= references(other_tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = set()
            for stmt in tree.body:
                if stmt is not node:
                    own |= references(stmt)
            qualified = f"{name[:-3]}.{node.name}"
            if node.name not in elsewhere | own and qualified not in dispatched:
                unused.append(qualified)
    return unused


# methods that code outside src/ reads: the benchmark's tracer counts
# graph vertices by ResolutionGraph.size
METHODS_READ_OUTSIDE = {"resolution.ResolutionGraph.size"}


def unreferenced_methods():
    """module.Class.method for each method of a top-level class in src/,
    dunders aside, whose name nothing in src/ refers to outside its own
    body."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    everywhere = {name: references(tree) for name, tree in trees.items()}
    unused = []
    for name, tree in trees.items():
        elsewhere = set().union(*(refs for other, refs in everywhere.items()
                                  if other != name))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or (node.name.startswith("__") and node.name.endswith("__")):
                    continue
                qualified = f"{name[:-3]}.{cls.name}.{node.name}"
                if (node.name not in elsewhere
                        and node.name not in references(tree, skip=node)
                        and qualified not in METHODS_READ_OUTSIDE):
                    unused.append(qualified)
    return unused


def unused_imports():
    """Names bound by a top-level import that their module never reads."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{path.stem}.{bound}")
    return unused


def test_every_top_level_definition_in_src_has_a_caller():
    assert unreferenced_definitions() == []


def test_layout_scan_flags_a_definition_without_caller(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "linalg.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef only_tests_call_me():\n    return rank([[1]])\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert unreferenced_definitions() == ["linalg.only_tests_call_me"]


def test_every_method_in_src_has_a_caller():
    assert unreferenced_methods() == []


def test_layout_scan_flags_a_method_without_caller(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "linalg.py", "a", encoding="utf-8") as fh:
        # a method that only calls itself and a dunder: neither counts
        fh.write("\n\nclass Extra:\n"
                 "    def __len__(self):\n        return 0\n\n"
                 "    def only_tests_call_me(self):\n"
                 "        return self.only_tests_call_me()\n\n\n"
                 "def keep_extra():\n    return Extra()\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert unreferenced_methods() == ["linalg.Extra.only_tests_call_me"]


def test_every_command_dispatches_to_a_handler():
    from conesing import cli
    for name in cli._commands():
        assert callable(cli._handler(name)), name


def test_every_top_level_import_in_src_is_used():
    assert unused_imports() == []


def test_layout_scan_flags_an_unused_import(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "toric.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom .linalg import rref\nimport os.path as osp\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert unused_imports() == ["toric.rref", "toric.osp"]


def importers(modules):
    """Modules in src/ that import any of the named top-level modules
    anywhere."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Import):
                names = [alias.name for alias in sub.names]
            elif isinstance(sub, ast.ImportFrom):
                names = [sub.module or ""]
            else:
                continue
            if any(n.split(".")[0] in modules for n in names):
                found.append(path.stem)
    return found


# the catalog sweep and every other command run in one process
ONE_PROCESS = ("concurrent", "multiprocessing", "threading")


def test_src_does_not_import_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize on every
    # launch; records.Record gives the value semantics without them
    assert importers(("dataclasses",)) == []


def test_layout_scan_flags_a_dataclasses_import(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "catalog.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef later():\n    from dataclasses import dataclass\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert importers(("dataclasses",)) == ["catalog"]


def test_src_does_not_import_a_pool():
    assert importers(ONE_PROCESS) == []


def test_layout_scan_flags_a_pool_import(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "catalog.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef later():\n"
                 "    from concurrent.futures import ProcessPoolExecutor\n")
    with open(tmp_path / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\nimport multiprocessing.pool\n")
    with open(tmp_path / "toric.py", "a", encoding="utf-8") as fh:
        fh.write("\nimport threading as th\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert importers(ONE_PROCESS) == ["catalog", "cli", "toric"]


def test_only_main_exits_without_teardown_and_no_module_uses_atexit():
    # __main__ ends the process with os._exit, which skips atexit hooks
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(sub, ast.Attribute) and sub.attr == "_exit") or (
                    isinstance(sub, ast.ImportFrom)
                    and any(a.name == "_exit" for a in sub.names)):
                callers.append(path.stem)
    assert callers == ["__main__"]
    assert importers(("atexit",)) == []

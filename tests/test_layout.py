"""Layout rule: src/ holds only code that the CLI and the catalog run.

Every top-level function or class of a module in src/conesing must be
referred to (by a Name, an Attribute or an import) from another module
there, or from elsewhere in its own module; the dispatcher in cli
calls the handler `cmd_<name>` of `cli_<family>` by name, for each
command that its table maps to that family.  Every method of a class
there, dunders aside, must be read as an attribute (obj.name or
Class.name) or imported somewhere in src/ outside its own body; a bare
name, such as a parameter that shares the method's name, does not
count.  The package __init__ only re-exports, so it
does not count as a caller.  Reference oracles and
other test-only code live in tests/helpers.py.  Every name a top-level
import binds in such a module must be used in that module; the package
__init__, which only re-exports, is exempt.  Every class in errors is
ConesingError, a family under it that sets its own stderr label and
exit code, or a subclass that some except clause in src/ names.  Every
Record subclass has a method or property besides __init__, or an
__init__ that can raise: a record that only holds its fields wraps a
tuple that its readers could be handed.  catalog builds its entries
from its own integers, so it never names the star-graph oracle
(build_graph, ResolutionGraph) or reads its blown_down or
central_self_int.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conesing"


def references(node, skip=None, names=True):
    """Names a syntax tree refers to through Attribute or import, and
    through Name unless names is false, leaving out the subtree skip."""
    out = set()
    todo = [node]
    while todo:
        sub = todo.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            if names:
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
    dunders aside, that nothing in src/ reads as an attribute or imports
    outside its own body."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    everywhere = {name: references(tree, names=False)
                  for name, tree in trees.items()}
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
                        and node.name not in references(tree, skip=node,
                                                        names=False)
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


def test_layout_scan_flags_a_method_named_like_a_parameter(tmp_path,
                                                           monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "linalg.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nclass Extra:\n"
                 "    def shared(self):\n        return 0\n")
    with open(tmp_path / "toric.py", "a", encoding="utf-8") as fh:
        # a parameter read by its bare name is not a call of the method
        fh.write("\n\ndef keep_extra(shared=1):\n"
                 "    return Extra(), shared\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert unreferenced_methods() == ["linalg.Extra.shared"]


def test_every_command_dispatches_to_a_handler():
    from conesing import cli
    for name in cli._commands():
        assert callable(cli._handler(name)), name


def test_every_int_flag_declares_its_range():
    # main refuses a value outside the range before any handler runs;
    # only --seed, which any int fits, is open at both ends; a default
    # outside its range would refuse the command without the flag
    from conesing import cli
    for name, (_, _, options) in cli._commands().items():
        for flag, kind, _, default, _, accepted in options:
            if kind is int and flag != "--seed":
                assert accepted is not None, (name, flag)
            if accepted is not None and default is not None:
                least, greatest = accepted
                assert least is None or default >= least, (name, flag)
                assert greatest is None or default <= greatest, (name, flag)


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


def output_writers():
    """Modules other than cli that refer to stdout or to cli._emit."""
    return [path.stem for path in sorted(SRC.glob("*.py"))
            if path.name != "cli.py" and references(
                ast.parse(path.read_text(encoding="utf-8")))
            & {"stdout", "_emit"}]


def caught_names():
    """Names that an except clause in src/ catches."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.ExceptHandler) and sub.type is not None:
                out |= references(sub.type)
    return out


def error_classes_outside_the_families():
    """Classes in errors, other than ConesingError, that are neither a
    direct subclass of it setting its own label and exit_code (a family
    of the CLI's exit codes) nor named by an except clause in src/."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    caught = caught_names()
    flagged = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name == "ConesingError":
            continue
        assigned = {t.id for stmt in cls.body if isinstance(stmt, ast.Assign)
                    for target in stmt.targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)}
        family = ([ast.unparse(b) for b in cls.bases] == ["ConesingError"]
                  and {"label", "exit_code"} <= assigned)
        if not family and cls.name not in caught:
            flagged.append(cls.name)
    return flagged


def test_every_error_class_is_a_family_or_caught():
    # a subclass that only renames its family changes no exit code, no
    # label and no handling, so it is one more name for the same failure
    assert error_classes_outside_the_families() == []


def test_layout_scan_flags_an_uncaught_error_subclass(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "errors.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nclass FanInvalid(PreconditionError):\n"
                 "    label, exit_code = \"fan invalid\", 3\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert error_classes_outside_the_families() == ["FanInvalid"]


# records whose fields code outside src/ reads: the benchmark's tracer
# sums VertexData.m over the decompositions it records
FIELD_RECORDS_READ_OUTSIDE = {"quotient.VertexData"}


def records_that_only_hold_fields():
    """module.Class for each Record subclass in src/ with no method or
    property besides __init__ and no raise in its __init__, other than
    those that code outside src/ reads."""
    flagged = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or "Record" not in [
                    ast.unparse(b) for b in cls.bases]:
                continue
            defs = [node for node in cls.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            behaves = any(node.name != "__init__" for node in defs) or any(
                isinstance(sub, ast.Raise) for node in defs
                if node.name == "__init__" for sub in ast.walk(node))
            qualified = f"{path.stem}.{cls.name}"
            if not behaves and qualified not in FIELD_RECORDS_READ_OUTSIDE:
                flagged.append(qualified)
    return flagged


def test_every_record_holds_more_than_its_fields():
    assert records_that_only_hold_fields() == []


def test_layout_scan_flags_a_record_that_only_holds_fields(tmp_path,
                                                          monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "toric.py", "a", encoding="utf-8") as fh:
        # a field-only record beside one whose __init__ validates
        fh.write("\n\nclass LiftedCone(Record):\n"
                 "    _fields = (\"rays\", \"form\")\n\n"
                 "    def __init__(self, rays, form):\n"
                 "        self.__dict__.update(rays=rays, form=form)\n\n\n"
                 "class CheckedCone(Record):\n"
                 "    _fields = (\"rays\",)\n\n"
                 "    def __init__(self, rays):\n"
                 "        if not rays:\n"
                 "            raise PreconditionError(\"no rays\")\n"
                 "        self.__dict__[\"rays\"] = rays\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert records_that_only_hold_fields() == ["toric.LiftedCone"]


def test_only_the_dispatcher_writes_output():
    # handlers return their document, and cli.main writes and flushes it
    assert output_writers() == []


def test_layout_scan_flags_a_handler_that_writes(tmp_path, monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "cli_couple.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef later():\n    import sys\n    sys.stdout.write('')\n")
    with open(tmp_path / "cli_checks.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom .cli import _emit\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert output_writers() == ["cli_checks", "cli_couple"]


def catalog_reads_of_the_oracle():
    """The names of the star-graph oracle that catalog refers to: the
    oracle's builder and class by any name, its graph's fields as
    attributes (an entry's own "blown_down" variable is not a read)."""
    tree = ast.parse((SRC / "catalog.py").read_text(encoding="utf-8"))
    named = references(tree) & {"build_graph", "ResolutionGraph"}
    read = references(tree, names=False) & {"blown_down", "central_self_int"}
    return sorted(named | read)


def test_catalog_does_not_borrow_the_oracle_graph():
    # audit holds the catalog's entries against build_graph's graph, so
    # the entries must not be read off that graph
    assert catalog_reads_of_the_oracle() == []


def test_layout_scan_flags_a_member_that_reads_the_oracle_graph(tmp_path,
                                                               monkeypatch):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    with open(tmp_path / "catalog.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef member_of(graph):\n"
                 "    return graph.blown_down.embedding_dimension\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert catalog_reads_of_the_oracle() == ["blown_down"]

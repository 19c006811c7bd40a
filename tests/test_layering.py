"""Only ``report`` writes JSON or CSV: no other module imports ``csv`` or calls ``json.dump``/``json.dumps``.

Reading JSON (``json.load``/``json.loads``) is every module's own business. No module imports ``dataclasses``
when it is imported: a record keeps its own field table, and a function that needs ``dataclasses`` imports it.
Nor ``csv``: ``report`` imports it in ``write_rows``, so a command that writes no CSV does not load it.
No module compiles code at run time: none calls ``eval`` or ``exec``. No function rebinds a module global (a
``global`` statement). No module names an argparse internal (an attribute of ``argparse``, of a parser, of its
subparsers action, of an ``Action`` or of a ``Namespace`` whose name starts with one underscore): the CLI builds its
command tree on argparse's public API alone. Each module imports only the package modules ``MAY_IMPORT`` gives it,
and an edge up the layers only inside the function ``LATE`` names.
No module imports another module's underscore name or reads one off it: a name that another module uses is public.
"""
import argparse
import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xrqos"
JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def writes(tree: ast.AST) -> list[str]:
    """What in ``tree`` writes JSON or CSV: each csv import and each use of a json writer, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            names = [a.name for a in node.names if node.module == "csv" or a.name in JSON_WRITERS]
            found += [f"{node.lineno}: from {node.module} import {name}" for name in names]
        elif (isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"{node.lineno}: json.{node.attr}")
    return found


def test_only_report_writes_json_or_csv():
    found = {path.stem: writes(ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines and module != "report"} == {}
    assert found["report"]  # the walk sees report's own writers, so it would see anyone else's


def test_the_walk_catches_each_form():
    source = "import csv\nfrom json import dumps\nimport json\njson.dump({}, f)\njson.loads('1')\nfrom json import load\n"
    assert writes(ast.parse(source)) == ["1: import csv", "2: from json import dumps", "4: json.dump"]


def module_level_imports(tree: ast.AST, module: str) -> list[str]:
    """Each import of ``module`` in ``tree`` that runs when the module is imported (one outside every function
    body), by line."""
    found, nodes = [], [tree]
    while nodes:
        for node in ast.iter_child_nodes(nodes.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] == module]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == module:
                found.append((node.lineno, f"from {node.module} import {', '.join(a.name for a in node.names)}"))
            nodes.append(node)
    return [f"{line}: {text}" for line, text in sorted(found)]


def imported_at_module_level(module: str) -> dict[str, list[str]]:
    """Each package module that imports ``module`` when it is imported, with those imports."""
    found = {path.stem: module_level_imports(ast.parse(path.read_text(encoding="utf-8")), module)
             for path in sorted(PACKAGE.glob("*.py"))}
    return {name: lines for name, lines in found.items() if lines}


def test_no_module_imports_dataclasses_when_it_is_imported():
    assert imported_at_module_level("dataclasses") == {}


def test_no_module_imports_csv_when_it_is_imported():
    assert imported_at_module_level("csv") == {}


def test_the_import_walk_skips_only_function_bodies():
    source = (
        "import dataclasses\n"
        "import dataclasses_json\n"
        "if True:\n"
        "    from dataclasses import field, fields\n"
        "class C:\n"
        "    import dataclasses.x as d\n"
        "    def method(self):\n"
        "        import dataclasses\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "    class Inner:\n"
        "        import dataclasses\n"
        "async def g():\n"
        "    import dataclasses\n"
        "from . import dataclasses\n"
        "try:\n"
        "    pass\n"
        "finally:\n"
        "    from dataclasses import MISSING\n"
    )
    assert module_level_imports(ast.parse(source), "dataclasses") == [
        "1: import dataclasses", "4: from dataclasses import field, fields", "6: import dataclasses.x",
        "19: from dataclasses import MISSING"]
    assert module_level_imports(ast.parse(source), "csv") == []
    csv_source = "import csv as c\nimport csvkit\nif True:\n    from csv import writer\ndef f():\n    import csv\n"
    assert module_level_imports(ast.parse(csv_source), "csv") == ["1: import csv", "4: from csv import writer"]


def compiles(tree: ast.AST) -> list[str]:
    """Each call of ``eval`` or ``exec`` in ``tree``, by line."""
    return [f"{node.lineno}: {node.func.id}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("eval", "exec")]


def test_no_module_compiles_code_at_run_time():
    found = {path.stem: compiles(ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_compile_walk_catches_each_call():
    source = "x = eval('1')\ndef f():\n    exec('y = 2', {})\nliteral_eval('3')\nobj.eval('4')\n"
    assert compiles(ast.parse(source)) == ["1: eval", "3: exec"]


def rebinds_globals(tree: ast.AST) -> list[str]:
    """``line: scope`` for each ``global`` statement in ``tree``, where scope is the qualified name of the innermost
    function around it, or "module"."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append(f"{child.lineno}: {scope}")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "module" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(tree, "module")
    return found


def test_no_module_rebinds_a_global():
    found = {path.stem: rebinds_globals(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_global_walk_catches_each_scope():
    source = (
        "global x\n"
        "def f():\n"
        "    global y\n"
        "    def g():\n"
        "        global z\n"
        "class C:\n"
        "    async def method(self):\n"
        "        global w\n"
    )
    assert rebinds_globals(ast.parse(source)) == ["1: module", "3: f", "5: f.g", "8: C.method"]


def _argparse_internals() -> frozenset[str]:
    parser = argparse.ArgumentParser()
    holders = (argparse, parser, parser.add_subparsers(), argparse.Action([], "dest"), argparse.Namespace())
    # a bare ``_`` is argparse's gettext, and everyone's throwaway name
    return frozenset(name for holder in holders for name in dir(holder)
                     if name.startswith("_") and not name.startswith("__") and name != "_")


ARGPARSE_INTERNALS = _argparse_internals()


def names_argparse_internals(tree: ast.AST) -> list[str]:
    """Each argparse internal that ``tree`` names (as a name, an attribute, an import or a definition), by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [(node.lineno, node.col_offset, name) for name in names if name in ARGPARSE_INTERNALS]
    return [f"{line}: {name}" for line, _, name in sorted(found)]


def test_no_module_names_an_argparse_internal():
    found = {path.stem: names_argparse_internals(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_argparse_walk_catches_each_form():
    source = (
        "import argparse\n"
        "from argparse import _SubParsersAction\n"
        "class C(argparse._SubParsersAction):\n"
        "    def _get_values(self, action, strings):\n"
        "        return self._name_parser_map, _choices_actions\n"
        "_, parser = None, argparse.ArgumentParser()\n"
        "parser.parse_known_args([])._private\n"
    )
    assert names_argparse_internals(ast.parse(source)) == [
        "2: _SubParsersAction", "3: _SubParsersAction", "4: _get_values", "5: _name_parser_map",
        "5: _choices_actions"]


# Each module and the package modules it may import, when it is imported or inside a function; "xrqos" is the
# package itself (its export list and DEFAULT_MSS_BITS). ``records``, the record format, imports only ``errors``, and
# the models at the bottom import only those two. ``report`` lays out what ``records`` builds, and imports none of it.
MAY_IMPORT = {
    "__init__": set(),
    "errors": {"xrqos"},
    "records": {"xrqos", "errors"},
    "geometry": {"xrqos", "errors", "records"},
    "capacity": {"xrqos", "errors", "records", "geometry"},
    "codec": {"xrqos", "errors", "records", "geometry", "capacity"},
    "latency": {"xrqos", "errors", "records"},
    "reliability": {"xrqos", "errors", "records"},
    "report": {"xrqos", "errors", "geometry", "capacity"},
    "tracegen": {"xrqos", "errors", "records", "codec", "report"},
    "netsim": {"xrqos", "errors", "records", "latency", "reliability", "tracegen", "report"},
    "profiles": {"xrqos", "errors", "records", "geometry", "capacity", "codec", "latency", "reliability"},
    "cli": {"xrqos", "errors", "report"},
}
# Edges up the layers, each allowed only inside the functions named (every function of a module named alone), so
# that the module below loads without the one above: a CLI command loads the modules it runs, and
# ``requirements_report`` loads the registry it reads.
LATE = {"cli": set(MAY_IMPORT) - {"__init__", "cli"}, "report.requirements_report": {"profiles"}}


def package_imports(tree: ast.AST, modules: set[str]) -> list[str]:
    """``scope: module`` for each package module that ``tree`` imports, where scope is the qualified name of the
    innermost function around the import, or "module" for one that runs when the module is imported. ``from . import
    name`` imports the submodule ``name`` if ``modules`` has it, else the package, "xrqos". An import under ``if
    TYPE_CHECKING:`` never runs, so it is not one."""
    found = []

    def visit(node: ast.AST, scope: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and isinstance(child.test, ast.Name) and child.test.id == "TYPE_CHECKING":
                child = ast.Module(child.orelse, [])  # only its else branch runs
            if isinstance(child, ast.ImportFrom) and (child.level or (child.module or "").split(".")[0] == "xrqos"):
                inner = (child.module or "").removeprefix("xrqos").lstrip(".").split(".")[0]
                found.extend(f"{scope}: {inner or (a.name if a.name in modules else 'xrqos')}" for a in child.names)
            elif isinstance(child, ast.Import):
                found.extend(f"{scope}: {a.name.partition('.')[2].split('.')[0] or 'xrqos'}" for a in child.names
                             if a.name.split(".")[0] == "xrqos")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{path}.{child.name}" if path else child.name
                visit(child, scope if isinstance(child, ast.ClassDef) else inner, inner)
            else:
                visit(child, scope, path)

    visit(tree, "module", "")
    return found


def test_the_allowed_imports_have_no_cycle():
    graphlib.TopologicalSorter(MAY_IMPORT).prepare()  # raises CycleError


def test_each_module_imports_only_the_modules_it_may():
    paths = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    assert set(paths) == set(MAY_IMPORT)
    found = {}
    for module, path in paths.items():
        for line in package_imports(ast.parse(path.read_text(encoding="utf-8")), set(paths) - {"__init__"}):
            scope, _, target = line.partition(": ")
            late = set() if scope == "module" else LATE.get(module, set()) | LATE.get(f"{module}.{scope}", set())
            if target not in MAY_IMPORT[module] | late:
                found.setdefault(module, []).append(line)
    assert found == {}


def test_the_package_import_walk_sees_each_form_and_scope():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import _EXPORTS, report\n"
        "from .errors import require\n"
        "import xrqos.netsim\n"
        "from xrqos.geometry.x import y\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from .profiles import ProfileRegistry\n"
        "else:\n"
        "    from . import codec\n"
        "class C:\n"
        "    from .capacity import BitRate\n"
        "    def method(self):\n"
        "        from . import tracegen\n"
        "def f():\n"
        "    def g():\n"
        "        import xrqos\n"
        "    from .latency import PipelineTiming\n"
    )
    modules = {"report", "errors", "netsim", "geometry", "profiles", "codec", "capacity", "tracegen", "latency"}
    assert package_imports(ast.parse(source), modules) == [
        "module: xrqos", "module: report", "module: errors", "module: netsim", "module: geometry", "module: codec",
        "module: capacity", "C.method: tracegen", "f.g: xrqos", "f: latency"]



def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(tree: ast.AST, modules: set[str]) -> list[str]:
    """``line: module.name`` for each underscore name of a package module in ``modules`` that ``tree`` imports (``from
    .m import _x``) or reads as an attribute of the module (``m._x``, after ``from . import m``, ``import xrqos.m as
    m`` or ``import xrqos``). A dunder is not such a name, nor is one of the package itself (its ``_EXPORTS``). A name
    that is bound to a module anywhere in ``tree`` counts as that module everywhere."""
    bound, found = {}, []  # each local name of the package ("") or of one of its modules

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "xrqos"):
            source = (node.module or "").removeprefix("xrqos").lstrip(".")
            for alias in node.names:
                if not source and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif source and private(alias.name):
                    found.append((node.lineno, node.col_offset, f"{source}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "xrqos":
                    bound[alias.asname or "xrqos"] = rest if alias.asname else ""

    def module_of(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and module_of(node.value) == "" and node.attr in modules:
            return node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) and (module := module_of(node.value)):
            found.append((node.lineno, node.col_offset, f"{module}.{node.attr}"))
    return [f"{line}: {name}" for line, _, name in sorted(found)]


def test_no_module_uses_another_modules_private_name():
    paths = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    found = {module: private_uses(ast.parse(path.read_text(encoding="utf-8")), set(paths) - {"__init__", module})
             for module, path in paths.items()}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_private_name_walk_catches_each_form():
    source = (
        "from . import _EXPORTS, report\n"
        "from .errors import DomainError, _write as write\n"
        "import xrqos.profiles as p\n"
        "import xrqos.codec\n"
        "def f(obj):\n"
        "    from xrqos import netsim as n\n"
        "    return report._destination, report.write_rows, n.__name__, n._walk, obj._private, xrqos._EXPORTS\n"
        "p._read(xrqos.codec._x, xrqos.codec.__file__)\n"
    )
    modules = {"report", "errors", "profiles", "codec", "netsim"}
    assert private_uses(ast.parse(source), modules) == [
        "2: errors._write", "7: report._destination", "7: netsim._walk", "8: profiles._read", "8: codec._x"]


def record_internals(tree: ast.AST) -> list[str]:
    """``line: name`` for each attribute of a name that starts with ``_record_`` which ``tree`` reads or sets, also
    through ``getattr``, ``setattr`` or ``hasattr``: a record's own tables, which ``records.record`` sets."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_record_"):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and str(node.args[1].value).startswith("_record_")):
            found.append((node.lineno, node.args[1].value))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_module_but_records_reads_a_records_own_tables():
    # another module reads a record's field names from __match_args__, as on a dataclass
    found = {path.stem: record_internals(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines and module != "records"} == {}
    assert found["records"]  # the walk sees records' own reads, so it would see anyone else's


def test_the_record_internals_walk_catches_each_form():
    source = (
        "for f in self._record_fields:\n"
        "    pass\n"
        "names = {f.name for f in PipelineTiming._record_fields}\n"
        "getattr(cls, '_record_values')(obj), getattr(cls, 'record_values'), obj.record_fields, obj._recorded\n"
        "cls._record_binding = ()\n"
    )
    assert record_internals(ast.parse(source)) == [
        "1: _record_fields", "3: _record_fields", "4: _record_values", "5: _record_binding"]

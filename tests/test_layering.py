"""Only ``report`` writes JSON or CSV: no other module imports ``csv`` or calls ``json.dump``/``json.dumps``.

Reading JSON (``json.load``/``json.loads``) is every module's own business.
"""
import ast
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

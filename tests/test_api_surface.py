import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import xrqos

MODULES = sorted(info.name for info in pkgutil.iter_modules(xrqos.__path__))
PACKAGE = Path(xrqos.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"

# Public functions and classes that the package and README never name, each kept for a reason given here.
TEST_ONLY_ALLOWED = {
    "latency.mtp_limit_for": "the acceptance suite looks up each stage's published MTP ceiling with it",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"xrqos.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def identifiers(tree: ast.AST) -> set[str]:
    """Every name ``tree``'s code uses: loaded or stored names, attributes and imports; not strings or definitions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_the_walk_sees_uses_but_not_definitions_or_strings():
    source = "import a.b\nfrom c import d\ndef f(x: T): return g(x).h\nclass K: pass\n__all__ = ['f', 'K']\n"
    assert identifiers(ast.parse(source)) == {"b", "d", "x", "T", "g", "h", "__all__"}


def test_no_public_api_only_tests_use():
    used = set().union(*(identifiers(ast.parse(path.read_text(encoding="utf-8"))) for path in PACKAGE.glob("*.py")))
    readme = README.read_text(encoding="utf-8")
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"xrqos.{name}")
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export)
            if (inspect.isfunction(value) or inspect.isclass(value)) and export not in used \
                    and not re.search(rf"\b{export}\b", readme):
                unused.append(f"{name}.{export}")
    assert sorted(unused) == sorted(TEST_ONLY_ALLOWED)

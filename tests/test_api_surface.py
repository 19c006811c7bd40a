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
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


@pytest.mark.parametrize("name", xrqos._EXPORTS)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"xrqos.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_no_module_but_the_package_writes_out_its_public_names():
    written = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                    and isinstance(node.value, (ast.List, ast.Tuple)) \
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])):
                written.append(f"{path.name}:{node.lineno}")
    assert written == []


@pytest.mark.parametrize("name", MODULES)
def test_a_modules_public_names_are_its_exports_entry(name):
    module = importlib.import_module(f"xrqos.{name}")
    assert getattr(module, "__all__", None) == (xrqos._EXPORTS[name].split() if name in xrqos._EXPORTS else None)


def test_the_package_exports_the_union_of_the_entries():
    assert xrqos.__all__ == [export for names in xrqos._EXPORTS.values() for export in names.split()]


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_the_package_version_is_the_one_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    project = pyprojecttoml.read_configuration(PYPROJECT)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == xrqos.__version__


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
    for export, name in xrqos._HOME.items():
        value = getattr(importlib.import_module(f"xrqos.{name}"), export)
        if (inspect.isfunction(value) or inspect.isclass(value)) and export not in used \
                and not re.search(rf"\b{export}\b", readme):
            unused.append(f"{name}.{export}")
    assert unused == []

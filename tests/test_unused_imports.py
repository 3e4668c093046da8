"""Every name a package module, test or tool imports is used in it or
listed in its ``__all__``, so that deleting code leaves no dead import
behind."""

import ast
from pathlib import Path

import pytest

import latentaxes

MODULES = sorted(Path(latentaxes.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("tools/*.py")])


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=[
    *(p.name for p in MODULES), *(str(p.relative_to(ROOT)) for p in SCRIPTS)])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import json\nfrom .a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["line 1: json", "line 2: d"]

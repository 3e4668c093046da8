"""The package's exception classes all live in ``errors``, each is raised
somewhere, and every name an ``except`` clause catches exists, so a merged
or renamed class leaves no stale reference behind."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import latentaxes
from latentaxes import cli, errors

PACKAGE = Path(latentaxes.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ERROR_CLASSES = sorted(name for name, obj in vars(errors).items()
                       if isinstance(obj, type) and issubclass(obj, Exception))


def raised_names(source: str) -> set:
    """Names of the classes a ``raise`` statement names, called or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def class_names(source: str) -> list:
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)]


def caught_names(tree) -> list:
    """Names in the ``except`` clauses under ``tree``, tuples unpacked."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            names += [t.id for t in types if isinstance(t, ast.Name)]
    return names


def test_errors_defines_every_class_of_the_package():
    assert len(ERROR_CLASSES) == 11
    for path in MODULES:
        if path.name == "errors.py":
            assert sorted(class_names(path.read_text())) == ERROR_CLASSES
            continue
        module = importlib.import_module(f"latentaxes.{path.stem}")
        for name in class_names(path.read_text()):
            obj = getattr(module, name)
            assert not issubclass(obj, BaseException), f"{path.name}: {name}"


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    # the base class is caught and re-raised as the concrete type
    assert set(ERROR_CLASSES) - raised == {"LatentAxesError"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_caught_name_is_an_exception(path):
    module = importlib.import_module(f"latentaxes.{path.stem}")
    for name in caught_names(ast.parse(path.read_text())):
        obj = getattr(module, name, getattr(builtins, name, None))
        classes = obj if isinstance(obj, tuple) else (obj,)
        assert all(isinstance(c, type) and issubclass(c, BaseException)
                   for c in classes), f"{path.name}: except {name}"


def test_cli_main_maps_every_error_to_an_exit_code():
    main = next(node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert caught_names(main) == ["ConfigInvalid", "NonFinite", "NonPSD",
                                  "LatentAxesError", "OSError"]


def test_scanners_find_what_they_look_for():
    source = ("class A(Exception):\n    pass\n"
              "try:\n    raise A('x')\nexcept (A, Gone):\n    raise B\n"
              "except C as e:\n    raise e.with_traceback(None)\n")
    assert raised_names(source) == {"A", "B"}
    assert class_names(source) == ["A"]
    assert caught_names(ast.parse(source)) == ["A", "Gone", "C"]

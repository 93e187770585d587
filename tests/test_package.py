"""The package's two entry points: ``import morsekit``, whose names are
each module's ``__all__`` (every public function and class it defines),
and ``python -m morsekit``."""

import ast
import importlib
import runpy
import sys
from pathlib import Path

import pytest

import morsekit


@pytest.mark.parametrize("module", ["core", "props", "superfamily", "transform"])
def test_package_exports_every_public_name(module):
    mod = importlib.import_module(f"morsekit.{module}")
    for name in mod.__all__:
        assert getattr(morsekit, name, None) is getattr(mod, name), name


@pytest.mark.parametrize("module", ["core", "props", "superfamily", "transform"])
def test_every_public_definition_is_exported(module):
    # a function or class a module defines is public, in __all__, or private,
    # named with a leading underscore; props.quad is the benchmark tracer's
    # hook on the quadrature, not part of the API
    mod = importlib.import_module(f"morsekit.{module}")
    tree = ast.parse(Path(mod.__file__).read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    public = {name for name in defined if not name.startswith("_")}
    assert public - set(mod.__all__) == ({"quad"} if module == "props" else set())


def test_module_entry_point(monkeypatch, capsys):
    # in process, so the line tracer of scripts/line_coverage.py sees __main__.py
    monkeypatch.setattr(sys, "argv", ["morsekit", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("morsekit", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "morsekit 0.1.0\n"

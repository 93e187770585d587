"""The package's two entry points: ``import morsekit``, whose names are
each module's ``__all__``, and ``python -m morsekit``."""

import importlib
import runpy
import sys

import pytest

import morsekit


@pytest.mark.parametrize("module", ["core", "props", "superfamily", "transform"])
def test_package_exports_every_public_name(module):
    mod = importlib.import_module(f"morsekit.{module}")
    for name in mod.__all__:
        assert getattr(morsekit, name, None) is getattr(mod, name), name


def test_module_entry_point(monkeypatch, capsys):
    # in process, so the line tracer of scripts/line_coverage.py sees __main__.py
    monkeypatch.setattr(sys, "argv", ["morsekit", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("morsekit", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "morsekit 0.1.0\n"

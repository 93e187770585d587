#!/usr/bin/env python3
"""Statement lines of the morsekit package that no test runs.

    python scripts/line_coverage.py [--src SRC]

Runs the tier-1 suite (``-q --continue-on-collection-errors tests``) in
this process through ``pytest.main`` under a line tracer,
``sys.settrace`` and ``threading.settrace``, that records only frames
whose code lies in SRC/morsekit (SRC defaults to ``src`` of this
checkout).  It then prints, for each module, the ``ast`` statements of
which no line ran, as runs of consecutive statements.  Docstrings and
``global``/``nonlocal`` declarations compile to no code and are left out.

Child processes are not traced: the code of the CLI's forked formatting
workers, and any command a test runs in a subprocess, shows as not run.
Stdlib only.  The exit code is pytest's; the report is information, not
a gate.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "morsekit"


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_lines(source: str) -> dict[int, range]:
    """Each statement of ``source`` by its first line, mapped to the lines
    on which a line event marks it run: a simple statement's whole span,
    and a compound statement's header, from its first decorator to the
    line before its body."""
    out = {}
    for parent in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, [])
            # a lambda's or a conditional expression's body is one expression
            for node in block if isinstance(block, list) else ():
                if isinstance(node, (ast.Global, ast.Nonlocal)) or _is_docstring(node, parent):
                    continue
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                out[first] = range(first, max(first, last) + 1)
    return out


def unrun_statements(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of ``source`` of which no line is in
    ``ran``, in order."""
    return sorted(first for first, lines in statement_lines(source).items()
                  if ran.isdisjoint(lines))


@contextlib.contextmanager
def tracing(directory: Path):
    """Record the lines run in frames whose code file lies in
    ``directory``, on every thread, as ``{path: set of line numbers}``."""
    directory = str(Path(directory).resolve())
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = str(Path(name).resolve()).startswith(directory + "/")
            if inside[name]:
                ran.setdefault(name, set())
        return local if inside[name] else None

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        yield ran
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)


def _runs(first_lines: list[int], order: list[int]) -> list[tuple[int, int]]:
    """Group statement first lines into runs of statements consecutive in
    ``order``, each as (first line, last line)."""
    position = {line: k for k, line in enumerate(order)}
    runs: list[list[int]] = []
    for line in first_lines:
        if runs and position[line] == position[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return [tuple(r) for r in runs]


def report(package_dir: Path, ran: dict[str, set[int]]) -> str:
    """Per module of ``package_dir``: how many statements did not run, then
    each run of them by its lines and its first line's text."""
    by_path = {str(Path(k).resolve()): v for k, v in ran.items()}
    lines = []
    for path in sorted(Path(package_dir).resolve().glob("*.py")):
        source = path.read_text()
        order = sorted(statement_lines(source))
        missed = unrun_statements(source, by_path.get(str(path), set()))
        lines.append(f"{path.name}: {len(missed)} of {len(order)} statements not run")
        text = source.splitlines()
        for first, last in _runs(missed, order):
            span = f"{first}" if first == last else f"{first}-{last}"
            lines.append(f"  {span:>9}  {text[first - 1].strip()[:70]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory that holds the package (default: src)")
    args = ap.parse_args(argv)
    package_dir = (args.src / PACKAGE).resolve()
    if not (package_dir / "__init__.py").is_file():
        ap.error(f"no {PACKAGE} package in {args.src}")
    sys.path.insert(0, str(package_dir.parent))
    import pytest

    with tracing(package_dir) as ran:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    loaded = Path(sys.modules[PACKAGE].__file__).resolve().parent if PACKAGE in sys.modules else None
    if loaded != package_dir:
        print(f"error: the tests imported {PACKAGE} from {loaded}, not {package_dir}",
              file=sys.stderr)
        return 2
    print(report(package_dir, ran))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())

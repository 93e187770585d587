"""The line finder of scripts/line_coverage.py on a small module: which
statements it counts, and which of them a traced run leaves unrun."""

import importlib.util
import threading
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", _PATH)
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)

SOURCE = '''\
"""A module."""
import math

SEEN = 0


def decorate(f):
    return f


@decorate
def root(a):
    """Doc."""
    global SEEN
    try:
        y = math.sqrt(a)
    except ValueError:
        y = 0.0
    if y > 2:
        return (
            y
        )
    return -y if a else (lambda: 0)()


class C:
    def m(self):
        return 2

    def n(self):
        return 3
'''


def _lines(*texts):
    rows = SOURCE.splitlines()
    return [rows.index(t, 1) + 1 for t in texts]


def test_statement_lines_skip_docstrings_and_declarations():
    statements = coverage.statement_lines(SOURCE)
    assert sorted(statements) == _lines(
        "import math", "SEEN = 0", "def decorate(f):", "    return f", "@decorate",
        "    try:", "        y = math.sqrt(a)", "        y = 0.0", "    if y > 2:",
        "        return (", "    return -y if a else (lambda: 0)()", "class C:",
        "    def m(self):", "        return 2", "    def n(self):", "        return 3",
    )
    # a decorated def runs from its decorator to its signature, a simple
    # statement over its whole span
    (decorator,) = _lines("@decorate")
    assert list(statements[decorator]) == [decorator, decorator + 1]
    (ret,) = _lines("        return (")
    assert list(statements[ret]) == [ret, ret + 1, ret + 2]


def test_a_traced_run_leaves_the_unrun_statements(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    with coverage.tracing(tmp_path) as ran:
        spec = importlib.util.spec_from_file_location("small", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.root(1.0)
        worker = threading.Thread(target=module.C().m)  # traced on its own thread
        worker.start()
        worker.join()
    assert list(ran) == [str(path)]
    unrun = coverage.unrun_statements(SOURCE, ran[str(path)])
    assert unrun == _lines("        y = 0.0", "        return (", "        return 3")

    # the `if` between y = 0.0 and the return ran, so each is a run of its own
    report = coverage.report(tmp_path, ran).splitlines()
    assert report[0] == "small.py: 3 of 16 statements not run"
    assert [row.split()[0] for row in report[1:]] == [str(k) for k in unrun]

    # statements next to each other in source order are one run
    order = sorted(coverage.statement_lines(SOURCE))
    two, n, three = _lines("        return 2", "    def n(self):", "        return 3")
    assert coverage._runs([unrun[0], two, n, three], order) == [(unrun[0], unrun[0]), (two, three)]

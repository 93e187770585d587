"""The output digest tool in scripts/: its case list covers the CLI, and
its table comparison sizes each column's moves."""

import importlib.util
from pathlib import Path

import pytest

from morsekit.cli import _build_parser

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _subcommands():
    (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return set(sub.choices)


def test_every_subcommand_is_in_the_case_list():
    names = [name for name, _ in digest.CASES]
    assert len(names) == len(set(names))
    for command in _subcommands():
        argvs = [argv for _, argv in digest.CASES if argv[:1] == [command]]
        formats = {"json" if "json" in argv else "csv" for argv in argvs}
        assert formats == {"csv", "json"}, command
        assert any("error" in name for name, argv in digest.CASES if argv[:1] == [command])


def test_cwt_cases_cover_each_boundary_norm_and_signal():
    cwt = [" ".join(argv) for _, argv in digest.CASES if argv[:1] == ["cwt"]]
    for signal in ("real1024", "real1237", "complex1024", "complex1237"):
        for boundary in ("periodic", "zero", "mirror"):
            for norm in ("n1", "nhalf"):
                case = f"--signal {signal}.txt --boundary {boundary} --norm {norm}"
                assert any(case in argv for argv in cwt), case


def test_table_moves_per_column():
    a = b"# config\nx,y,z\n1.0,2.0,ok\n3.0,inf,\n5.0,1.0+2.0j,\n"
    b = b"# other config\nx,y,z\n1.0,2.5,ok\n3.0,inf,\n5.0,1.0+2.0j,\n"
    assert digest.table_moves(a, b) == [
        "comments changed", "y: 1 of 3 cells moved, largest move 0.5 absolute, 0.25 relative"
    ]
    json_a = b'{"columns": ["x", "y"], "rows": [[1.0, "nan"], [2.0, 4.0]]}'
    json_b = b'{"columns": ["x", "y"], "rows": [[1.0, "nan"], [2.0, 3.0]], "meta": {}}'
    assert digest.table_moves(json_a, json_b) == [
        "meta changed", "y: 1 of 2 cells moved, largest move 1 absolute, 0.25 relative"
    ]
    assert digest.table_moves(b"best beta=22.0\n", b"best beta=21.0\n") is None


def test_src_must_hold_the_package(tmp_path):
    with pytest.raises(SystemExit, match="does not provide the morsekit package"):
        digest._check_src(tmp_path)

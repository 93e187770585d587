#!/usr/bin/env python3
"""Digest of every CLI output over a fixed list of command lines.

    python scripts/output_digest.py --src SRC
    python scripts/output_digest.py --compare SRC_A SRC_B

SRC is a directory that holds the ``morsekit`` package (``src`` in a
checkout).  Each case of ``CASES`` runs ``python -m morsekit ARGS`` with
PYTHONPATH=SRC in a fresh directory that holds the generated signal files
of ``_signals()``, and every command line names its outputs relative to
it, so no path of this machine enters the bytes.

``--src`` prints one SHA-256 for each entry of each case: its exit code,
stdout, stderr and every file it wrote.  ``--compare`` runs every case
against both trees and lists the entries that differ; for a differing
table (CSV or JSON, a file or stdout) it gives, per column, the count of
moved cells and the largest absolute and relative move (relative to A's
value).  It exits 1 if any entry differs.

No hashes are committed: numpy picks its float64 exp, log and power
kernels by CPU feature, so the bytes on one machine may differ from
another's.  Compare a parent and a change on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BOUNDARIES = ("periodic", "zero", "mirror")
NORMS = ("n1", "nhalf")
SIGNAL_LENGTHS = (1024, 1237)  # a power of two and a prime


def _defaults():
    """Every subcommand at its default size, as CSV and as JSON."""
    cases = []
    for fmt in ("csv", "json"):
        opt = ["--format", fmt]
        cases += [
            (f"map-default-{fmt}", ["map", "--out", "map", *opt]),
            (f"gallery-default-{fmt}", ["gallery", "--out", "gallery", *opt]),
            (f"curves-default-{fmt}", ["curves", "--out", f"curves.{fmt}", *opt]),
            (f"props-default-{fmt}", ["props", "9,3", "60,0.3", "--out", f"props.{fmt}", *opt]),
            (f"cwt-default-{fmt}", ["cwt", "--signal", "real1237.txt", "--out", f"cwt.{fmt}", *opt]),
            (f"besselfit-default-{fmt}", ["besselfit", "--out", f"besselfit.{fmt}", *opt]),
            (f"limits-default-{fmt}", ["limits", "--out", f"limits.{fmt}", *opt]),
            (f"limits-shannon-{fmt}",
             ["limits", "--target", "shannon", "--out", f"limits.{fmt}", *opt]),
        ]
    return cases


def _small():
    """Small grids, tables on stdout, and edge rows (beta = 0, beta <= 1/2)."""
    return [
        ("map-small", ["map", "--beta", "0.6:5:7", "--gamma", "1:6:5", "--p-lines", "1,3",
                       "--out", "map"]),
        ("map-small-json", ["map", "--beta", "0.3,0.6,2", "--gamma", "0.5,3", "--format",
                            "json", "--out", "map"]),
        ("gallery-small", ["gallery", "--beta", "3,9", "--gamma", "3", "--out", "gallery"]),
        ("curves-small", ["curves", "--pgrid", "1:0.5:4", "--gamma", "2,3"]),
        ("curves-small-json", ["curves", "--pgrid", "0:0.5:2", "--gamma", "3", "--format",
                               "json"]),
        ("props-small", ["props", "9,3", "0,2", "0.5,1", "1,0.5", "3,1"]),
        ("props-small-json", ["props", "0,2", "0.5,1", "--format", "json"]),
        ("besselfit-small", ["besselfit", "--beta", "1:50:6", "--gamma", "0.02:2:6"]),
        ("besselfit-small-out", ["besselfit", "--beta", "2:40:12", "--gamma", "0.05:1:12",
                                 "--out", "besselfit.csv"]),
        ("limits-small", ["limits", "--pvalue", "5", "--gamma", "3,10,100", "--target",
                          "shannon"]),
        # P*P underflows to 0, beta = P (P/gamma) does not
        ("limits-tiny-duration", ["limits", "--pvalue", "1e-170", "--gamma", "1e-170"]),
        ("cwt-small", ["cwt", "--signal", "real1024.txt", "--wavelet-beta", "20",
                       "--wavelet-gamma", "1", "--density", "2", "--eta", "0.3", "--p0", "8"]),
        ("cwt-dt", ["cwt", "--signal", "dt1024.txt", "--out", "cwt.csv"]),
        # s*dt overflows at the largest scales, which no output holds
        ("cwt-large-dt", ["cwt", "--signal", "bigdt256.txt", "--wavelet-beta", "60",
                          "--wavelet-gamma", "0.3", "--format", "json", "--out", "cwt.json"]),
        ("cwt-mirror-json", ["cwt", "--signal", "complex1024.txt", "--boundary", "mirror",
                             "--norm", "nhalf", "--format", "json", "--out", "cwt.json"]),
        ("cwt-zero-json", ["cwt", "--signal", "real1237.txt", "--boundary", "zero",
                           "--format", "json", "--out", "cwt.json"]),
        ("version", ["--version"]),
    ]


def _cwt_matrix():
    """`cwt` over each boundary and norm, real and complex, at each length."""
    return [
        (f"cwt-{kind}{n}-{boundary}-{norm}",
         ["cwt", "--signal", f"{kind}{n}.txt", "--boundary", boundary, "--norm", norm,
          "--out", "cwt.csv"])
        for n in SIGNAL_LENGTHS for kind in ("real", "complex")
        for boundary in BOUNDARIES for norm in NORMS
    ]


def _errors():
    """Each command's error cases: every one exits nonzero with a message."""
    return [
        ("error-no-command", []),
        ("map-error-no-out", ["map"]),
        ("map-error-range", ["map", "--beta", "1:0.5:3", "--out", "map"]),
        ("map-error-beta", ["map", "--beta=-1,2", "--out", "map"]),
        ("map-error-p-lines", ["map", "--p-lines", "-1", "--out", "map"]),
        ("map-error-p-lines-overflow", ["map", "--beta", "1:2:2", "--gamma", "1:2:2",
                                        "--p-lines", "1e200", "--out", "map"]),
        ("map-error-p-lines-underflow", ["map", "--beta", "1:2:2", "--gamma", "1:2:2",
                                         "--p-lines", "1e-200", "--out", "map"]),
        ("gallery-error-no-out", ["gallery"]),
        ("gallery-error-peak", ["gallery", "--beta", "0.5", "--gamma", "0.001", "--out",
                                "gallery"]),
        ("curves-error-morlet-reach", ["curves", "--pgrid", "190:20:250", "--gamma", "3"]),
        ("curves-error-pgrid", ["curves", "--pgrid", "1:0:2"]),
        ("curves-error-gamma", ["curves", "--gamma", "0"]),
        ("curves-error-no-convergence", ["curves", "--pgrid", "5e6:1:5e6", "--gamma", "3"]),
        ("curves-error-beta-range", ["curves", "--pgrid", "0:1e160:1e160", "--gamma", "3"]),
        ("curves-error-beta-over-gamma", ["curves", "--pgrid", "1:1:2", "--gamma", "1e-300"]),
        ("props-error-pair", ["props", "1"]),
        ("props-error-beta", ["props", "--", "-1,3"]),
        ("props-error-gamma", ["props", "9,0"]),
        ("cwt-error-missing", ["cwt", "--signal", "missing.txt"]),
        ("cwt-error-parse", ["cwt", "--signal", "bad.txt"]),
        ("cwt-error-one-sample", ["cwt", "--signal", "one.txt"]),
        ("cwt-error-too-short", ["cwt", "--signal", "short.txt"]),
        ("cwt-error-p0", ["cwt", "--signal", "real1024.txt", "--p0", "0.5"]),
        ("cwt-error-dt", ["cwt", "--signal", "hugedt.txt"]),
        ("cwt-error-peak", ["cwt", "--signal", "real1024.txt", "--wavelet-beta", "300",
                            "--wavelet-gamma", "0.001"]),
        ("cwt-error-boundary", ["cwt", "--signal", "real1024.txt", "--boundary", "wrap"]),
        ("besselfit-error-list", ["besselfit", "--beta", "1,2"]),
        ("besselfit-error-range", ["besselfit", "--gamma", "0:1:3"]),
        ("besselfit-error-no-convergence", ["besselfit", "--beta", "1e12:1e13:2", "--gamma",
                                            "10:20:2"]),
        ("limits-error-pvalue", ["limits", "--pvalue", "0"]),
        ("limits-error-gamma", ["limits", "--gamma", "0"]),
        ("limits-error-beta-overflow", ["limits", "--pvalue", "1e200"]),
        ("limits-error-beta-half-overflow", ["limits", "--pvalue", "1e155", "--gamma", "0.5"]),
        ("limits-error-beta-inf", ["limits", "--pvalue", "1e154", "--gamma", "1e-10"]),
        ("limits-error-beta-underflow", ["limits", "--pvalue", "1e-200", "--gamma", "1"]),
        ("limits-error-lognormal-overflow", ["limits", "--pvalue", "1e200", "--gamma", "1e100"]),
        ("limits-error-target", ["limits", "--target", "gabor"]),
    ]


CASES = _defaults() + _small() + _cwt_matrix() + _errors()


def _signals() -> dict[str, str]:
    """The input files every case directory holds, by name."""
    rng = np.random.default_rng(20261019)
    files = {}
    for n in SIGNAL_LENGTHS:
        t = np.arange(n)
        real = np.cos(0.3 * t + 1e-4 * t * t) + 0.5 * rng.standard_normal(n)
        imag = np.sin(0.3 * t + 1e-4 * t * t) + 0.5 * rng.standard_normal(n)
        files[f"real{n}.txt"] = "".join(f"{v!r}\n" for v in real.tolist())
        files[f"complex{n}.txt"] = "".join(
            f"{a!r} {b!r}\n" for a, b in zip(real.tolist(), imag.tolist())
        )
    files["dt1024.txt"] = "# dt=0.25\n" + files["real1024.txt"]
    files["hugedt.txt"] = "# dt=1e306\n" + files["real1024.txt"]
    files["bigdt256.txt"] = "# dt=1e300\n" + "".join(files["real1024.txt"].splitlines(True)[:256])
    files["bad.txt"] = "1.0\n2.0\nthree\n"
    files["one.txt"] = "1.0\n"
    files["short.txt"] = "".join(f"{v!r}\n" for v in np.cos(np.arange(8.0)).tolist())
    return files


def _run_case(src: Path, argv: list[str], signals: dict[str, str]):
    """Run one case in a fresh directory; its entries, by name, as bytes."""
    with tempfile.TemporaryDirectory(prefix="morsekit-digest-") as tmp:
        work = Path(tmp)
        for name, text in signals.items():
            (work / name).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "morsekit", *argv], cwd=work, env=env,
                              capture_output=True, timeout=900)
        entries = {
            "exit": str(proc.returncode).encode(),
            "stdout": proc.stdout,
            # a Python warning names the source file
            "stderr": proc.stderr.replace(str(src).encode(), b"<src>"),
        }
        for path in sorted(work.rglob("*")):
            rel = path.relative_to(work).as_posix()
            if path.is_file() and rel not in signals:
                entries[f"file:{rel}"] = path.read_bytes()
        return entries


def _check_src(src: Path) -> Path:
    src = Path(src).resolve()
    found = subprocess.run(
        [sys.executable, "-c", "import morsekit; print(morsekit.__file__)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    ).stdout.strip()
    if not found or not Path(found).resolve().is_relative_to(src):
        sys.exit(f"{src} does not provide the morsekit package (imported {found or 'none'})")
    return src


# ---------------------------------------------------------------------------
# table comparison
# ---------------------------------------------------------------------------


def _cell(text):
    if text == "":
        return None
    for kind in (float, complex):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse_table(data: bytes):
    """(columns, rows, fields) of a CSV or JSON table, or None if ``data``
    is neither.  ``fields`` holds the rest: a CSV's comment lines, a JSON
    object's other keys.  A `cwt` JSON table is its complex coefficients,
    one column per scale."""
    text = data.decode("utf-8", "replace")
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if isinstance(obj, dict) and "columns" in obj and "rows" in obj:
        # JSON writes inf and nan as strings
        rows = [[_cell(v) if isinstance(v, str) else v for v in row] for row in obj["rows"]]
        return obj["columns"], rows, {k: obj[k] for k in obj if k not in ("columns", "rows")}
    if isinstance(obj, dict) and "real" in obj and "imag" in obj:
        rows = [[complex(a, b) for a, b in zip(ra, ia)]
                for ra, ia in zip(obj["real"], obj["imag"])]
        fields = {k: obj[k] for k in obj if k not in ("real", "imag")}
        return [f"scale={s!r}" for s in obj["scales"]], rows, fields
    if obj is not None:
        return None
    lines = text.splitlines()
    table = [ln for ln in lines if ln and not ln.startswith("#")]
    if not table or "," not in table[0]:
        return None
    rows = [[_cell(c) for c in ln.split(",")] for ln in table[1:]]
    return table[0].split(","), rows, {"comments": [ln for ln in lines if ln.startswith("#")]}


def _move(a, b):
    """(absolute, relative) move from a to b, or None if not both numbers."""
    num = (int, float, complex)
    if not (isinstance(a, num) and isinstance(b, num)):
        return None
    with np.errstate(all="ignore"):
        diff = abs(complex(b) - complex(a))
    if math.isnan(diff):
        return math.inf, math.inf
    return diff, (diff / abs(a) if a else math.inf)


def table_moves(a: bytes, b: bytes):
    """Lines that say how table ``b`` differs from table ``a``, column by
    column, or None if either is not a table."""
    ta, tb = _parse_table(a), _parse_table(b)
    if ta is None or tb is None:
        return None
    (cols_a, rows_a, fields_a), (cols_b, rows_b, fields_b) = ta, tb
    out = [f"{k} changed" for k in sorted(fields_a.keys() | fields_b.keys())
           if fields_a.get(k) != fields_b.get(k)]
    if cols_a != cols_b:
        out.append(f"columns differ: {len(cols_a)} vs {len(cols_b)}")
    if len(rows_a) != len(rows_b):
        out.append(f"rows differ: {len(rows_a)} vs {len(rows_b)}")
    for j, name in enumerate(cols_a[: len(cols_b)]):
        moved, abs_max, rel_max = 0, 0.0, 0.0
        for ra, rb in zip(rows_a, rows_b):
            x, y = ra[j] if j < len(ra) else None, rb[j] if j < len(rb) else None
            if x == y or repr(x) == repr(y):  # nan equals nan here
                continue
            moved += 1
            m = _move(x, y)
            if m is not None:
                abs_max, rel_max = max(abs_max, m[0]), max(rel_max, m[1])
        if moved:
            out.append(f"{name}: {moved} of {min(len(rows_a), len(rows_b))} cells moved, "
                       f"largest move {abs_max:.3g} absolute, {rel_max:.3g} relative")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _digest(src: Path) -> int:
    signals = _signals()
    for name, argv in CASES:
        for key, data in _run_case(src, argv, signals).items():
            print(f"{hashlib.sha256(data).hexdigest()}  {name}/{key}")
    return 0


def _compare(src_a: Path, src_b: Path) -> int:
    signals = _signals()
    total = differing = 0
    for name, argv in CASES:
        a = _run_case(src_a, argv, signals)
        b = _run_case(src_b, argv, signals)
        for key in sorted(a.keys() | b.keys()):
            total += 1
            if a.get(key) == b.get(key):
                continue
            differing += 1
            if key not in a or key not in b:
                print(f"differs  {name}/{key}: only in {'A' if key in a else 'B'}")
                continue
            print(f"differs  {name}/{key}")
            for line in (table_moves(a[key], b[key]) if key != "exit" else None) or []:
                print(f"    {line}")
    print(f"{differing} of {total} entries differ over {len(CASES)} cases")
    return 1 if differing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--src", type=Path, metavar="SRC",
                      help="print one SHA-256 per exit code, stdout, stderr and file")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("SRC_A", "SRC_B"),
                      help="list the entries that differ between two trees")
    args = ap.parse_args(argv)
    if args.src is not None:
        return _digest(_check_src(args.src))
    return _compare(*map(_check_src, args.compare))


if __name__ == "__main__":
    sys.exit(main())

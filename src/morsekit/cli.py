"""Command-line interface: parses and checks the options, takes each table
from one library call, and writes it as CSV or JSON.  The numbers come from
`props` (`heisenberg_map`, `zero_skewness_gamma`, `property_summary`),
`core.gallery_tables`, `superfamily` (`concentration_curves`, `bessel_fit`,
`limit_diagnostics`) and `transform`; an undefined cell is written blank.

Each subcommand's parser names its handler (``set_defaults(run=...)``),
which ``main`` calls with the parsed arguments as its whole config: the
text options (beta, gamma, p_lines, pgrid, pairs) are parsed in place on
them through one table, ``_PARSERS``.

Outputs are deterministic: floats are printed with shortest round-trip
formatting (so infinities as "inf"), complex CSV cells as re+imj,
undefined cells blank.  Each float array table written as CSV (the `map`
area table and constant-P lines, the `gallery` pair tables, the
`besselfit` trace, the `limits` table and the `cwt` coefficients), and the
`cwt` JSON coefficients, is written by ``_write_lines`` one block of at
most ``_FORMAT_CELLS`` cells at a time, the floats of a block through a
single repr of a list: of its distinct values, each once, for a real table
(whose axis columns repeat), of every cell for `cwt`.  The other tables
(`curves`, `props`, the `gallery` index and the two short `map` curves)
are written one row at a time.  A CSV table, or the `cwt` JSON, is held as
at most one formatted block, never the whole text; every other JSON table
is built whole, as Python rows and then one ``json.dumps`` text.

``_write_lines`` has a table of more than ``_SERIAL_BLOCKS`` blocks (the
`cwt` output of a long signal) formatted by forked workers, one per CPU
(`core.CPU_COUNT`): worker k of W formats blocks k, k + W, ... and sends
them as length-prefixed records through its own pipe, and the parent
copies them to the output in row order, at most 64 KB at a time, with the
bytes of the in-process writer.  A shorter table (every default table but
`cwt`'s), one CPU, or no ``os.fork`` writes in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import struct
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__, core
from .core import MorseParams, gallery_tables, half_power_frequency
from .props import heisenberg_map, property_summary, zero_skewness_gamma
from .superfamily import BesselFitGrid, bessel_fit, concentration_curves, limit_diagnostics
from .transform import SignalBuffer, scale_grid, transform

# cells in one block of rows formatted at once (about 0.7 MB of `cwt`
# text), the most blocks a table formats in-process (forking the workers
# and copying their text costs more than it saves up to about 130k cells
# on 2 CPUs), and the most the parent reads from a worker's pipe at once
_FORMAT_CELLS = 1 << 14
_SERIAL_BLOCKS = 8
_PIECE_BYTES = 1 << 16

DEFAULT_P_LINES = (1.0 / 3.0, 1.0, 3.0, 9.0, 27.0)
GALLERY_VALUES = (1.0 / 3.0, 1.0, 3.0, 9.0, 27.0)

def _describe(args: argparse.Namespace) -> str:
    """The run as one line: the command, the format and every option,
    sorted by name, a list of more than six values by its ends and count."""
    parts = []
    for k, v in sorted(vars(args).items()):
        if k in ("command", "out", "format", "run"):
            continue
        if isinstance(v, (list, tuple)) and len(v) > 6:
            v = f"[{v[0]}..{v[-1]}]x{len(v)}"
        elif isinstance(v, (list, tuple)):
            v = "[" + ",".join(str(x) for x in v) + "]"
        parts.append(f"{k}={v}")
    return f"morsekit {args.command} format={args.format} " + " ".join(parts)


def _fmt(v) -> str:
    """One real CSV cell.  Floats print as their shortest round-trip repr
    ("inf", "-inf" and "nan" included), integers as digits, None as blank.
    Complex `cwt` cells are formatted a block at a time by
    ``_cwt_csv_block``."""
    if isinstance(v, float):  # np.float64 too: float.__repr__ drops its type
        return float.__repr__(v)
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _jsonable(v):
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    v = float(v)
    return v if math.isfinite(v) else repr(v)  # "inf", "-inf", "nan"


def _blank(values, defined) -> list[list]:
    """The rows of a 2-D array as lists, None (a blank cell) where not ``defined``."""
    return [[v if ok else None for v, ok in zip(row, oks)]
            for row, oks in zip(values.tolist(), defined.tolist())]


@contextlib.contextmanager
def _open_output(path: Path | None):
    """A text stream on ``path`` (its directory created), or stdout."""
    if path is None:
        yield sys.stdout
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        yield f


def _write_csv(f, comments, columns, rows):
    """Comment lines, the column line, then the rows: a 2-D float64 ndarray
    through ``_write_lines`` in blocks of ``_float_csv_block``, any other
    iterable one line per row as it comes.  Both give the bytes of ``_fmt``
    on every cell."""
    for line in comments:
        f.write(f"# {line}\n")
    f.write(",".join(columns) + "\n")
    if isinstance(rows, np.ndarray):
        # the block writer keys each cell on its float64 bit pattern
        assert rows.dtype == np.float64, rows.dtype
        _write_lines(f, len(rows), rows.shape[1],
                     lambda i0, i1: _float_csv_block(rows[i0:i1]))
        return
    for row in rows:
        f.write(",".join(map(_fmt, row)) + "\n")


def _float_csv_block(part) -> str:
    """The CSV lines of the rows of a 2-D float64 array.

    Each distinct value is printed once, by one repr of the list of them,
    and its text is gathered back to every cell that holds it; the
    separators are slotted in between.  Values are told apart by their bit
    patterns, so -0.0 and 0.0 keep their own text and repeated nans are
    found like any other value."""
    keys, inverse = np.unique(part.view(np.int64), return_inverse=True)
    words = np.array(repr(keys.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    seps = np.full(part.shape, ",", dtype=object)
    seps[:, -1] = "\n"
    text = [""] * (2 * part.size)
    text[::2] = words[inverse.ravel()].tolist()
    text[1::2] = seps.ravel().tolist()
    return "".join(text)


def _cwt_csv_block(times, coef) -> str:
    """The `cwt` CSV lines of rows ``times[k], coef[k, 0], coef[k, 1], ...``.

    Floats print as their shortest round-trip repr and each coefficient as
    re+imj, with the sign taken from imag >= 0 (so -0.0 prints as +0.0j
    and nan as -nanj).  Every float of the block goes through one repr of
    a list, laid out per row as [t, re_0, |im_0|, re_1, |im_1|, ...], and
    the separators are slotted in between its items."""
    values = np.empty((coef.shape[0], 2 * coef.shape[1] + 1))
    values[:, 0] = times
    values[:, 1::2] = coef.real
    values[:, 2::2] = np.abs(coef.imag)
    seps = np.empty(values.shape, dtype=object)
    seps[:, 0] = ","
    seps[:, 1::2] = np.where(coef.imag >= 0, "+", "-")
    seps[:, 2::2] = "j,"
    seps[:, -1] = "j\n"
    text = [""] * (2 * values.size)
    text[::2] = repr(values.ravel().tolist())[1:-1].split(", ")
    text[1::2] = seps.ravel().tolist()
    return "".join(text)


def _write_lines(f, n_rows: int, row_cells: int, block):
    """Write ``block(i0, i1)``, the text of rows i0..i1-1, for blocks of
    at most ``_FORMAT_CELLS`` cells in row order: in-process when the rows
    fit in ``_SERIAL_BLOCKS`` blocks, when ``core.CPU_COUNT`` is 1, or
    without ``os.fork``; else formatted by forked workers, block b by
    worker b mod W, and copied from their pipes in row order."""
    per_block = max(1, _FORMAT_CELLS // row_cells)
    blocks = [(i, min(i + per_block, n_rows)) for i in range(0, n_rows, per_block)]
    workers = min(core.CPU_COUNT, len(blocks))
    if len(blocks) <= _SERIAL_BLOCKS or workers < 2 or not hasattr(os, "fork"):
        for i0, i1 in blocks:
            f.write(block(i0, i1))
        return
    pids, reads = [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            reads.append(open(r, "rb"))
            try:
                pid = _fork()
                if pid == 0:
                    _format_blocks(w, reads, blocks[k::workers], block)
                pids.append(pid)
            finally:
                os.close(w)
        for b in range(len(blocks)):
            r = reads[b % workers]
            (size,) = struct.unpack("<q", _read_exact(r, 8))
            if size < 0:  # the block's own error, pickled by its worker
                raise pickle.loads(_read_exact(r, -size))
            while size:
                piece = _read_exact(r, min(size, _PIECE_BYTES))
                f.write(piece.decode("ascii"))
                size -= len(piece)
    finally:
        # closed pipes end any worker still writing (BrokenPipeError)
        for r in reads:
            r.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _fork() -> int:
    # The parent may have threads (numpy's BLAS pool), so Python 3.12+
    # warns that fork may deadlock the child.  `transform` starts no
    # pocketfft pool, and its own row threads are joined before it returns,
    # so none runs when `cwt` forks; the other commands run no threads of
    # their own.  The child only copies blocks of a float table with
    # elementwise numpy calls and a sort (no BLAS), formats their floats,
    # writes to its pipe and leaves through os._exit; it takes no lock a
    # thread may hold, and the BLAS pool re-arms through its own
    # pthread_atfork handler.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        return os.fork()


def _format_blocks(w: int, reads, blocks, block):
    """A worker's whole life: each block's text, or the first error, as a
    record on pipe ``w``: its length as 8 little-endian bytes (an error's
    negative), then the bytes.  The pipe's buffered file is flushed and
    closed before the worker leaves, only through os._exit, so it never
    runs the parent's atexit handlers or flushes the parent's buffered
    output."""
    code = 1
    try:
        for r in reads:
            r.close()
        with open(w, "wb") as out:
            try:
                for i0, i1 in blocks:
                    text = block(i0, i1).encode("ascii")
                    out.write(struct.pack("<q", len(text)))
                    out.write(text)
                code = 0
            except Exception as exc:
                payload = pickle.dumps(exc)
                # an exception the parent could not rebuild ends the worker
                # without a record, which the parent reports as an early exit
                pickle.loads(payload)
                out.write(struct.pack("<q", -len(payload)))
                out.write(payload)
    finally:
        os._exit(code)


def _read_exact(r, size: int) -> bytes:
    data = r.read(size)
    if len(data) < size:
        raise RuntimeError("a formatting worker exited before its block")
    return data


def _write_table(args: argparse.Namespace, stem: str, columns, rows,
                 meta: dict | None = None):
    """Write one table to ``stem``'s output file (or stdout): CSV through
    ``_write_csv``, or one JSON object built before the file is opened."""
    meta = meta or {}
    if args.format == "csv":
        comments = [_describe(args)] + [f"{k}={_fmt(v)}" for k, v in sorted(meta.items())]
        with _open_output(_out_file(args, stem)) as f:
            _write_csv(f, comments, columns, rows)
        return
    payload = {
        "command": args.command,
        "config": _describe(args),
        "columns": list(columns),
        "rows": [[_jsonable(v) for v in row] for row in rows],
    }
    if meta:
        payload["meta"] = {k: _jsonable(v) for k, v in meta.items()}
    text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    with _open_output(_out_file(args, stem)) as f:
        f.write(text)


# commands that write several tables: their --out is always a directory
MULTI_TABLE_COMMANDS = ("map", "gallery")


def _out_file(args: argparse.Namespace, stem: str) -> Path | None:
    """The file for one table: ``--out`` itself when it has a suffix and
    the command writes one table, else ``stem``'s file inside it."""
    if args.out is None:
        return None
    ext = "json" if args.format == "json" else "csv"
    out = args.out
    if out.suffix and args.command not in MULTI_TABLE_COMMANDS:
        return out
    return out / f"{stem}.{ext}"


def _parse_list_or_range(text: str) -> list[float]:
    """Parse 'a,b,c' as a list or 'lo:hi:n' as n log-spaced values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be lo:hi:count (got {text!r})")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        # a log range needs finite positive ends: np.geomspace turns nan,
        # inf and a sign change into nan with a warning
        if n < 2 or not 0 < lo < hi < math.inf:
            raise ValueError(f"bad range {text!r}")
        return [float(v) for v in np.geomspace(lo, hi, n)]
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"list must hold at least one value (got {text!r})")
    return values


def _parse_pgrid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"pgrid must be start:step:stop (got {text!r})")
    start, step, stop = (float(v) for v in parts)
    if not all(map(math.isfinite, (start, step, stop))):
        raise ValueError(f"pgrid values must be finite (got {text!r})")
    if start < 0:
        raise ValueError(f"pgrid durations must be >= 0 (got {text!r})")
    if step <= 0 or stop < start:
        raise ValueError(f"bad pgrid {text!r}")
    n = (stop - start) / step
    if not math.isfinite(n):  # a step too small to count, such as 0:1e-308:1e308
        raise ValueError(f"pgrid {text!r} holds too many durations to count")
    n = int(round(n))
    return [start + k * step for k in range(n + 1) if start + k * step <= stop + 1e-12]


def _parse_p_lines(text: str) -> list[float]:
    values = [float(v) for v in text.split(",")]
    for p_val in values:
        if not 0 <= p_val < math.inf:
            raise ValueError(f"p-lines must be finite and >= 0 (got {p_val})")
    return values


def _parse_pairs(texts: list[str]) -> list[tuple[float, float]]:
    pairs = []
    for text in texts:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"each pair must be beta,gamma (got {text!r})")
        pairs.append((float(parts[0]), float(parts[1])))
    return pairs


# the options given as text, by name, whatever the command
_PARSERS = {
    "beta": _parse_list_or_range,
    "gamma": _parse_list_or_range,
    "p_lines": _parse_p_lines,
    "pgrid": _parse_pgrid,
    "pairs": _parse_pairs,
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_map(args: argparse.Namespace) -> int:
    betas = args.beta
    gammas = args.gamma
    # the first row and column hold every value, so MorseParams rejects the
    # first bad cell in beta-major order, in its own words
    for b, g in [(betas[0], g) for g in gammas] + [(b, gammas[0]) for b in betas]:
        MorseParams(b, g)

    _write_table(args, "heisenberg_map", ("beta", "gamma", "heisenberg_area"),
                 heisenberg_map(betas, gammas))

    gamma_star, defined = zero_skewness_gamma(betas, min(gammas), max(gammas))
    sk_rows = [(b, g) for b, g, ok in zip(betas, gamma_star.tolist(), defined.tolist()) if ok]
    _write_table(args, "skewness_zero", ("beta", "gamma_star"), sk_rows)

    loc_rows = [(g, (g - 1.0) / 2.0) for g in gammas if g >= 1.0]
    _write_table(args, "localization_border", ("gamma", "beta_border"), loc_rows)

    p_rows = [(p_val, p_val**2 / g, g) for p_val in args.p_lines for g in gammas]
    _write_table(args, "constant_p_lines", ("duration", "beta", "gamma"),
                 np.array(p_rows, dtype=float))
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    pairs = [MorseParams(b, g) for b in args.beta for g in args.gamma]
    index_rows = []
    # gallery_tables checks every pair before its first table, so before any file
    for p, (wp, pd, columns) in zip(pairs, gallery_tables(pairs)):
        b, g = p.beta, p.gamma
        stem = f"pair_beta{_fmt(b)}_gamma{_fmt(g)}".replace(".", "p")
        _write_table(args, stem, tuple(columns), np.column_stack(tuple(columns.values())),
                     meta={"beta": b, "gamma": g, "peak_frequency": wp, "duration": pd})
        index_rows.append((_out_file(args, stem).name, b, g, wp, pd))
    _write_table(args, "index", ("file", "beta", "gamma", "peak_frequency", "duration"),
                 index_rows)
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    p_grid = args.pgrid
    gammas = args.gamma
    columns = ["duration"]
    columns += [f"inv_area_gamma{_fmt(g)}" for g in gammas] + ["inv_area_morlet"]
    columns += [f"rho2_gamma{_fmt(g)}" for g in gammas] + ["rho2_morlet"]
    (inv_area, area_ok), (rho_sq, rho_ok), p_min = concentration_curves(p_grid, gammas)
    rows = [[p_dur] + a + r for p_dur, a, r in zip(p_grid, _blank(inv_area, area_ok),
                                                   _blank(rho_sq, rho_ok))]
    short = [p_dur for p_dur, ok in zip(p_grid, rho_ok[:, -1].tolist()) if not ok]
    if short:
        print(
            f"warning: Morlet columns blank for P in [{min(short):g}, {max(short):g}]: "
            f"no Morlet wavelet has duration at or below {p_min:.4g}",
            file=sys.stderr,
        )
    _write_table(args, "concentration_curves", columns, rows)
    return 0


def cmd_props(args: argparse.Namespace) -> int:
    columns = ("beta", "gamma", "char_frequency", "duration", "sigma_t", "sigma_omega",
               "heisenberg_area", "skewness", "in_localization_region")
    rows = []
    for b, g in args.pairs:
        p = MorseParams(b, g)
        if b == 0:
            cells = (half_power_frequency(p), 0.0, math.inf, None, math.inf, None)
        else:
            cells = astuple(property_summary(p))
        rows.append((b, g, *cells, int(p.in_localization_region)))
    _write_table(args, "properties", columns, rows)
    return 0


def _read_signal_file(path: Path) -> SignalBuffer:
    dt = 1.0
    values = []
    complex_seen = False
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read signal file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("dt="):
                try:
                    dt = float(body[3:])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad dt header {body!r}") from exc
            continue
        parts = line.replace(",", " ").split()
        try:
            if len(parts) == 1:
                values.append(complex(float(parts[0]), 0.0))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
                complex_seen = True
            else:
                raise ValueError("expected 1 (real) or 2 (real imag) columns")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: could not parse {line!r}: {exc}") from exc
    if len(values) < 2:
        raise ValueError("signal file holds fewer than 2 samples")
    arr = np.asarray(values)
    if not complex_seen:
        arr = arr.real
    return SignalBuffer(samples=arr, dt=dt)


def cmd_cwt(args: argparse.Namespace) -> int:
    sig = _read_signal_file(args.signal)
    p = MorseParams(args.wavelet_beta, args.wavelet_gamma)
    grid = scale_grid(len(sig.samples), p, density=args.density, eta=args.eta, p0=args.p0)
    # the t column holds k*dt and the header w_p/(s*dt): all must be finite
    with np.errstate(over="ignore", divide="ignore"):
        finite = (math.isfinite((len(sig.samples) - 1) * sig.dt)
                  and np.isfinite(grid.scales * sig.dt).all()
                  and np.isfinite(grid.peak_frequencies(sig.dt)).all())
    if not finite:
        raise ValueError(
            f"dt={_fmt(sig.dt)} puts the sample times or the scales' peak "
            "frequencies outside double range"
        )
    norm = "unitary_n_half" if args.norm == "nhalf" else "bandpass_n1"
    res = transform(sig, grid, normalization=norm, boundary=args.boundary)

    coef = res.coefficients
    if args.format == "json":
        # the bytes of json.dumps on the whole payload, written one row at a
        # time: the metadata object without its closing brace, then each
        # part's rows, then the brace
        head = json.dumps(dict(
            command="cwt", config=_describe(args), dt=sig.dt,
            normalization=res.normalization, boundary=res.boundary,
            scales=grid.scales.tolist(),
            peak_frequencies=grid.peak_frequencies(sig.dt).tolist(),
        ), allow_nan=False)
        if not np.isfinite(coef).all():
            raise ValueError("coefficients hold inf or nan, which JSON cannot represent")
        with _open_output(_out_file(args, "cwt")) as f:
            f.write(head[:-1])
            for key, part in (("real", coef.real), ("imag", coef.imag)):
                f.write(f', "{key}": [')
                # json.dumps gives a finite float its repr, so each block of
                # rows is one repr of its nested list
                _write_lines(f, len(part), part.shape[1], lambda i0, i1: (
                    (", " if i0 else "") + repr(part[i0:i1].tolist())[1:-1]
                ))
                f.write("]")
            f.write("}\n")
        return 0

    comments = [
        _describe(args),
        f"dt={_fmt(sig.dt)} normalization={res.normalization} boundary={res.boundary}",
    ]
    columns = ["t"] + [f"scale={_fmt(s)}" for s in grid.scales.tolist()]
    times = np.arange(coef.shape[0]) * sig.dt
    with _open_output(_out_file(args, "cwt")) as f:
        _write_csv(f, comments, columns, ())
        _write_lines(f, len(coef), len(columns), lambda i0, i1: _cwt_csv_block(
            times[i0:i1], coef[i0:i1]
        ))
    return 0


def cmd_besselfit(args: argparse.Namespace) -> int:
    grid = BesselFitGrid(
        beta_lo=args.beta[0],
        beta_hi=args.beta[-1],
        gamma_lo=args.gamma[0],
        gamma_hi=args.gamma[-1],
        n_beta=len(args.beta),
        n_gamma=len(args.gamma),
    )
    res = bessel_fit(grid)
    print(
        f"best beta={_fmt(res.best_params.beta)} "
        f"gamma={_fmt(res.best_params.gamma)} alpha_sq={_fmt(res.alpha_sq)} "
        f"({len(res.grid_trace)} evaluations)"
    )
    if args.out is not None:
        _write_table(
            args,
            "besselfit_trace",
            ("beta", "gamma", "alpha_sq"),
            np.array(res.grid_trace, dtype=float),
            meta={
                "best_beta": res.best_params.beta,
                "best_gamma": res.best_params.gamma,
                "best_alpha_sq": res.alpha_sq,
            },
        )
    return 0


def cmd_limits(args: argparse.Namespace) -> int:
    rows = limit_diagnostics(args.pvalue, args.gamma, target=args.target)
    _write_table(
        args,
        "limit_deviations",
        ("gamma", "beta", "sup_deviation"),
        np.array([(r.gamma, r.beta, r.sup_deviation) for r in rows], dtype=float),
        meta={"duration": args.pvalue, "target": args.target},
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="morsekit",
        description="Generalized Morse wavelet toolkit: parameter maps, "
        "galleries, concentration curves, properties, CWT, Bessel fit, "
        "and limiting-form diagnostics.",
    )
    ap.add_argument("--version", action="version", version=f"morsekit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, run, out_help="output file or directory"):
        sp.set_defaults(run=run)
        sp.add_argument("--out", type=Path, default=None, help=out_help)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("map", help="Heisenberg-area map over the (beta, gamma) plane")
    common(sp, cmd_map, "output directory (required)")
    sp.add_argument("--beta", default="0.55:60:200", help="list or lo:hi:n log range")
    sp.add_argument("--gamma", default="0.3:30:200", help="list or lo:hi:n log range")
    sp.add_argument(
        "--p-lines",
        default=",".join(str(v) for v in DEFAULT_P_LINES),
        help="constant-duration diagonals to emit",
    )

    sp = sub.add_parser("gallery", help="time/frequency wavelet gallery")
    common(sp, cmd_gallery, "output directory (required)")
    sp.add_argument("--beta", default=",".join(str(v) for v in GALLERY_VALUES))
    sp.add_argument("--gamma", default=",".join(str(v) for v in GALLERY_VALUES))

    sp = sub.add_parser(
        "curves", help="1/A and Gaussian-similarity curves vs duration"
    )
    common(sp, cmd_curves)
    sp.add_argument("--pgrid", default="0.5:0.05:8", help="start:step:stop")
    sp.add_argument("--gamma", default="1,2,3,4,5,6")

    sp = sub.add_parser("props", help="property table for (beta,gamma) pairs")
    common(sp, cmd_props)
    sp.add_argument("pairs", nargs="+", help="pairs as beta,gamma")

    sp = sub.add_parser("cwt", help="continuous wavelet transform of a signal file")
    common(sp, cmd_cwt)
    sp.add_argument("--signal", type=Path, required=True)
    sp.add_argument("--wavelet-beta", type=float, default=9.0)
    sp.add_argument("--wavelet-gamma", type=float, default=3.0)
    sp.add_argument("--density", type=int, default=4)
    sp.add_argument("--eta", type=float, default=0.1)
    sp.add_argument("--p0", type=float, default=5.0)
    sp.add_argument("--norm", choices=("n1", "nhalf"), default="n1")
    sp.add_argument(
        "--boundary", choices=("periodic", "zero", "mirror"), default="periodic"
    )

    sp = sub.add_parser("besselfit", help="best Morse approximation of the Bessel wavelet")
    common(sp, cmd_besselfit)
    sp.add_argument("--beta", default="1:50:100", help="lo:hi:n log grid")
    sp.add_argument("--gamma", default="0.02:2:100", help="lo:hi:n log grid")

    sp = sub.add_parser("limits", help="sup-norm distance from limiting forms")
    common(sp, cmd_limits)
    sp.add_argument("--pvalue", type=float, default=3.0, help="duration P")
    sp.add_argument("--gamma", default="1,0.5,0.1,0.01")
    sp.add_argument("--target", choices=("lognormal", "shannon"), default="lognormal")
    return ap


def _parse_options(args: argparse.Namespace) -> None:
    """Parse the text options on ``args`` in place, in the order they were
    declared, then run each command's own checks."""
    for name, text in vars(args).items():
        if name not in _PARSERS:
            continue
        if args.command == "besselfit" and ":" not in text:
            # the fit spans a log grid, so a list would silently lose its inner values
            raise ValueError(f"--{name} must be a lo:hi:n range (got {text!r})")
        setattr(args, name, _PARSERS[name](text))
    if args.command in MULTI_TABLE_COMMANDS and args.out is None:
        raise ValueError(f"{args.command} writes several files: --out DIR is required")
    if args.command in ("curves", "limits"):
        for g in args.gamma:
            MorseParams(0.0, g)  # rejects a bad gamma in MorseParams' own words


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _parse_options(args)
        return args.run(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

"""Command-line interface: emits the library's parameter-space map, wavelet
gallery, concentration curves, property tables, transform coefficients,
Bessel-fit results, and limiting-form diagnostics as CSV or JSON.

Outputs are deterministic: floats are printed with shortest round-trip
formatting (so infinities as "inf"), complex CSV cells as re+imj,
undefined cells blank.  One writer serves every command: CSV tables are
written one row at a time, or, for a float array such as the `map` area
table and the `cwt` coefficients, one block of at most ``_FORMAT_CELLS``
cells at a time; every float of a block goes through a single repr of a
list.  A run holds its results plus one formatted block, never the whole
text.

A `cwt` table (CSV, or each part of the JSON coefficients) of more than
one block of rows is formatted by forked worker processes, one per CPU
the transform's threads use: worker k of W formats blocks k, k + W,
k + 2W, ... with the same block formatter and sends them through its own
pipe, and the parent copies the blocks to the output in row order, at
most 64 KB at a time.  The parent then holds one such piece and each
worker one block of text; the bytes are those of the in-process writer.
One block, one CPU, or no ``os.fork`` writes in-process.
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    MorseParams,
    _bisect,
    approx_spectrum,
    duration,
    eval_spectrum,
    half_power_frequency,
    peak_frequency,
    sample_wavelet,
)
from .props import (
    _heisenberg_area,
    _skewness,
    heisenberg_area,
    sigma_omega,
    sigma_t,
    skewness_freq,
)
from .superfamily import (
    BesselFitGrid,
    _morlet_area_and_rho_sq,
    _morlet_min_duration,
    _morse_rho_sq,
    bessel_fit,
    limit_diagnostics,
    morlet_nu_for_duration,
)
from .transform import SignalBuffer, scale_grid, transform

# the module, not the function of the same name: its thread count is
# read at call time, so one setting serves the transform and the formatter
_TRANSFORM = sys.modules[SignalBuffer.__module__]

# cells in one block of rows formatted at once (about 0.7 MB of `cwt`
# text), and the most the parent reads from a worker's pipe at once
_FORMAT_CELLS = 1 << 14
_PIECE_BYTES = 1 << 16

DEFAULT_P_LINES = (1.0 / 3.0, 1.0, 3.0, 9.0, 27.0)
GALLERY_VALUES = (1.0 / 3.0, 1.0, 3.0, 9.0, 27.0)
GALLERY_COLUMNS = ("time_scaled", "wavelet_real", "wavelet_imag", "wavelet_modulus",
                   "freq_scaled", "spectrum", "gaussian_approx", "quartic_approx")


@dataclass
class RunConfig:
    command: str
    out: Path | None = None
    format: str = "csv"
    options: dict = field(default_factory=dict)

    def describe(self) -> str:
        parts = []
        for k, v in sorted(self.options.items()):
            if isinstance(v, (list, tuple)) and len(v) > 6:
                v = f"[{v[0]}..{v[-1]}]x{len(v)}"
            elif isinstance(v, (list, tuple)):
                v = "[" + ",".join(str(x) for x in v) + "]"
            parts.append(f"{k}={v}")
        return f"morsekit {self.command} format={self.format} " + " ".join(parts)


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
    """Comment lines, the column line, then the rows: a 2-D float ndarray
    in blocks of at most ``_FORMAT_CELLS`` cells, each block's floats
    through one repr of its nested list, any other iterable one line per
    row as it comes.  Both give the bytes of ``_fmt`` on every cell."""
    for line in comments:
        f.write(f"# {line}\n")
    f.write(",".join(columns) + "\n")
    if isinstance(rows, np.ndarray):
        per_block = max(1, _FORMAT_CELLS // rows.shape[1])
        for i in range(0, len(rows), per_block):
            text = repr(rows[i:i + per_block].tolist())[2:-2]
            f.write(text.replace("], [", "\n").replace(", ", ",") + "\n")
        return
    for row in rows:
        f.write(",".join(map(_fmt, row)) + "\n")


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
    fit in one block, when the transform uses one CPU, or without
    ``os.fork``; else formatted by forked workers, block b by worker
    b mod W, and copied from their pipes in row order."""
    per_block = max(1, _FORMAT_CELLS // row_cells)
    blocks = [(i, min(i + per_block, n_rows)) for i in range(0, n_rows, per_block)]
    workers = min(_TRANSFORM._FFT_WORKERS, len(blocks))
    if workers < 2 or not hasattr(os, "fork"):
        for i0, i1 in blocks:
            f.write(block(i0, i1))
        return
    pids, reads = [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            reads.append(r)
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
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _fork() -> int:
    # The parent may have threads (numpy's BLAS pool), so Python 3.12+
    # warns that fork may deadlock the child.  `transform` starts no
    # pocketfft pool, and its own row threads are joined before it returns,
    # so none runs when `cwt` forks.  The child only copies blocks of
    # coefficients with elementwise numpy calls (no BLAS), formats their
    # floats, writes to its pipe and leaves through os._exit; it takes no
    # lock a thread may hold, and the BLAS pool re-arms through its own
    # pthread_atfork handler.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        return os.fork()


def _format_blocks(w: int, reads, blocks, block):
    """A worker's whole life: each block's text, or the first error, as a
    length-prefixed record on pipe ``w`` (an error's length negative).  It
    leaves only through os._exit, so it never runs the parent's atexit
    handlers or flushes the parent's buffered output."""
    code = 1
    try:
        for r in reads:
            os.close(r)
        try:
            for i0, i1 in blocks:
                _write_record(w, block(i0, i1).encode("ascii"), 1)
            code = 0
        except Exception as exc:
            payload = pickle.dumps(exc)
            # an exception the parent could not rebuild ends the worker
            # without a record, which the parent reports as an early exit
            pickle.loads(payload)
            _write_record(w, payload, -1)
    finally:
        os._exit(code)


def _write_record(w: int, data: bytes, sign: int):
    """``data`` after its length times ``sign``, as 8 little-endian bytes."""
    view = memoryview(struct.pack("<q", sign * len(data)) + data)
    while view:
        view = view[os.write(w, view):]


def _read_exact(r: int, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(r, size - len(data))
        if not chunk:
            raise RuntimeError("a formatting worker exited before its block")
        data += chunk
    return data


def _write_table(cfg: RunConfig, stem: str, columns, rows, meta: dict | None = None):
    """Write one table to ``stem``'s output file (or stdout): CSV row by
    row, or one JSON object built before the file is opened."""
    meta = meta or {}
    if cfg.format == "csv":
        comments = [cfg.describe()] + [f"{k}={_fmt(v)}" for k, v in sorted(meta.items())]
        with _open_output(_out_file(cfg, stem)) as f:
            _write_csv(f, comments, columns, rows)
        return
    payload = {
        "command": cfg.command,
        "config": cfg.describe(),
        "columns": list(columns),
        "rows": [[_jsonable(v) for v in row] for row in rows],
    }
    if meta:
        payload["meta"] = {k: _jsonable(v) for k, v in meta.items()}
    text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    with _open_output(_out_file(cfg, stem)) as f:
        f.write(text)


# commands that write several tables: their --out is always a directory
MULTI_TABLE_COMMANDS = ("map", "gallery")


def _out_file(cfg: RunConfig, stem: str) -> Path | None:
    """The file for one table: ``--out`` itself when it has a suffix and
    the command writes one table, else ``stem``'s file inside it."""
    if cfg.out is None:
        return None
    ext = "json" if cfg.format == "json" else "csv"
    out = cfg.out
    if out.suffix and cfg.command not in MULTI_TABLE_COMMANDS:
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
    if step <= 0 or stop < start:
        raise ValueError(f"bad pgrid {text!r}")
    n = int(round((stop - start) / step))
    return [start + k * step for k in range(n + 1) if start + k * step <= stop + 1e-12]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _zero_skewness_rows(betas, g_lo: float, g_hi: float) -> list[tuple[float, float]]:
    """(beta, gamma*) for every beta > 0 whose frequency skewness changes
    sign between g_lo and g_hi, all rows bisected at once."""
    b = np.array([v for v in betas if v > 0], dtype=float)
    b = b[_skewness(b, g_lo) * _skewness(b, g_hi) < 0]
    lo, hi = np.full_like(b, g_lo), np.full_like(b, g_hi)
    return list(zip(b.tolist(), _bisect(lambda g: _skewness(b, g), lo, hi).tolist()))


def cmd_map(cfg: RunConfig) -> int:
    betas = cfg.options["beta"]
    gammas = cfg.options["gamma"]
    # the first row and column hold every value, so MorseParams rejects the
    # first bad cell in beta-major order, in its own words
    for b, g in [(b, g) for b in betas[:1] for g in gammas] + [
        (b, g) for b in betas for g in gammas[:1]
    ]:
        MorseParams(b, g)

    b_grid, g_grid = np.meshgrid(betas, gammas, indexing="ij")
    areas = _heisenberg_area(b_grid, g_grid)
    _write_table(
        cfg,
        "heisenberg_map",
        ("beta", "gamma", "heisenberg_area"),
        np.column_stack((b_grid.ravel(), g_grid.ravel(), areas.ravel())),
    )

    sk_rows = _zero_skewness_rows(betas, min(gammas), max(gammas))
    _write_table(cfg, "skewness_zero", ("beta", "gamma_star"), sk_rows)

    loc_rows = [(g, (g - 1.0) / 2.0) for g in gammas if g >= 1.0]
    _write_table(cfg, "localization_border", ("gamma", "beta_border"), loc_rows)

    p_rows = []
    for p_val in cfg.options["p_lines"]:
        for g in gammas:
            p_rows.append((p_val, p_val**2 / g, g))
    _write_table(cfg, "constant_p_lines", ("duration", "beta", "gamma"), p_rows)
    return 0


def cmd_gallery(cfg: RunConfig) -> int:
    betas = cfg.options["beta"]
    gammas = cfg.options["gamma"]
    n = 511  # odd: symmetric time grid, and the frequency grid hits 1 exactly
    # every pair is checked before the first file is written
    pairs = [MorseParams(b, g) for b in betas for g in gammas]

    index_rows = []
    for p in pairs:
        b, g = p.beta, p.gamma
        wp, pd = peak_frequency(p), duration(p)
        t_span = 20.0 * pd / wp
        wf = sample_wavelet(p, 1.0, n, t_span / n)
        freq_scaled = np.linspace(0.0, 3.0, n)
        columns = (
            wf.times * wp / pd,
            wf.values.real,
            wf.values.imag,
            # libm's hypot, as abs() on each value; np.abs's vectorized
            # loop can differ from it in the last bit
            np.hypot(wf.values.real, wf.values.imag),
            freq_scaled,
            eval_spectrum(p, freq_scaled * wp),
            approx_spectrum(p, freq_scaled * wp, order=2),
            approx_spectrum(p, freq_scaled * wp, order=4),
        )
        stem = f"pair_beta{_fmt(b)}_gamma{_fmt(g)}".replace(".", "p")
        _write_table(
            cfg,
            stem,
            GALLERY_COLUMNS,
            zip(*(c.tolist() for c in columns)),
            meta={"beta": b, "gamma": g, "peak_frequency": wp, "duration": pd},
        )
        index_rows.append((_out_file(cfg, stem).name, b, g, wp, pd))
    _write_table(
        cfg, "index", ("file", "beta", "gamma", "peak_frequency", "duration"), index_rows
    )
    return 0


def cmd_curves(cfg: RunConfig) -> int:
    p_grid = cfg.options["pgrid"]
    gammas = cfg.options["gamma"]
    columns = ["duration"]
    columns += [f"inv_area_gamma{_fmt(g)}" for g in gammas] + ["inv_area_morlet"]
    columns += [f"rho2_gamma{_fmt(g)}" for g in gammas] + ["rho2_morlet"]

    # each Morse column kind in one call on the whole (P, gamma) grid
    g_row = np.asarray(gammas, dtype=float)
    b_grid = np.square(p_grid)[:, None] / g_row
    inv_area = 1.0 / _heisenberg_area(b_grid, g_row)
    # beta = 0 (P = 0) has no rho^2: a placeholder beta, then a blank cell
    rho = _morse_rho_sq(np.where(b_grid > 0, b_grid, 1.0), g_row)

    # the Morlet columns in one call at matched duration; a P the Morlet
    # cannot reach gets a placeholder P, then blank cells
    p_min = _morlet_min_duration()
    reach = np.asarray(p_grid) > p_min
    m_area, m_rho = _morlet_area_and_rho_sq(
        morlet_nu_for_duration(np.where(reach, p_grid, 3.0))
    )
    morlet = [(1.0 / a, r) if ok else (None, None)
              for ok, a, r in zip(reach.tolist(), m_area.tolist(), m_rho.tolist())]
    rows = []
    for p_dur, b_row, a_row, r_row, (m_inv, m_r) in zip(
        p_grid, b_grid.tolist(), inv_area.tolist(), rho.tolist(), morlet
    ):
        inv_a = [a if b > 0.5 else None for b, a in zip(b_row, a_row)]
        rho_sq = [r if b > 0 else None for b, r in zip(b_row, r_row)]
        rows.append([p_dur] + inv_a + [m_inv] + rho_sq + [m_r])
    short = [p_dur for p_dur in p_grid if p_dur <= p_min]
    if short:
        print(
            f"warning: Morlet columns blank for P in [{min(short):g}, {max(short):g}]: "
            f"no Morlet wavelet has duration at or below {p_min:.4g}",
            file=sys.stderr,
        )
    _write_table(cfg, "concentration_curves", columns, rows)
    return 0


def cmd_props(cfg: RunConfig) -> int:
    columns = (
        "beta",
        "gamma",
        "char_frequency",
        "duration",
        "sigma_t",
        "sigma_omega",
        "heisenberg_area",
        "skewness",
        "in_localization_region",
    )
    rows = []
    for b, g in cfg.options["pairs"]:
        p = MorseParams(b, g)
        if b == 0:
            rows.append(
                (b, g, half_power_frequency(p), 0.0, math.inf, None, math.inf, None,
                 int(p.in_localization_region))
            )
            continue
        rows.append(
            (
                b,
                g,
                peak_frequency(p),
                duration(p),
                sigma_t(p),
                sigma_omega(p),
                heisenberg_area(p),
                skewness_freq(p),
                int(p.in_localization_region),
            )
        )
    _write_table(cfg, "properties", columns, rows)
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


def cmd_cwt(cfg: RunConfig) -> int:
    sig = _read_signal_file(cfg.options["signal"])
    p = MorseParams(cfg.options["wavelet_beta"], cfg.options["wavelet_gamma"])
    grid = scale_grid(
        len(sig.samples),
        p,
        density=cfg.options["density"],
        eta=cfg.options["eta"],
        p0=cfg.options["p0"],
    )
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
    norm = "unitary_n_half" if cfg.options["norm"] == "nhalf" else "bandpass_n1"
    res = transform(sig, grid, normalization=norm, boundary=cfg.options["boundary"])

    coef = res.coefficients
    if cfg.format == "json":
        # the bytes of json.dumps on the whole payload, written one row at a
        # time: the metadata object without its closing brace, then each
        # part's rows, then the brace
        head = json.dumps(dict(
            command="cwt", config=cfg.describe(), dt=sig.dt,
            normalization=res.normalization, boundary=res.boundary,
            scales=grid.scales.tolist(),
            peak_frequencies=grid.peak_frequencies(sig.dt).tolist(),
        ), allow_nan=False)
        if not np.isfinite(coef).all():
            raise ValueError("coefficients hold inf or nan, which JSON cannot represent")
        with _open_output(_out_file(cfg, "cwt")) as f:
            f.write(head[:-1])
            for key, part in (("real", coef.real), ("imag", coef.imag)):
                f.write(f', "{key}": [')
                _write_lines(f, len(part), part.shape[1], lambda i0, i1: "".join(
                    (", " if i else "") + json.dumps(row.tolist())
                    for i, row in enumerate(part[i0:i1], i0)
                ))
                f.write("]")
            f.write("}\n")
        return 0

    comments = [
        cfg.describe(),
        f"dt={_fmt(sig.dt)} normalization={res.normalization} boundary={res.boundary}",
    ]
    columns = ["t"] + [f"scale={_fmt(s)}" for s in grid.scales.tolist()]
    times = np.arange(coef.shape[0]) * sig.dt
    with _open_output(_out_file(cfg, "cwt")) as f:
        _write_csv(f, comments, columns, ())
        _write_lines(f, len(coef), len(columns), lambda i0, i1: _cwt_csv_block(
            times[i0:i1], coef[i0:i1]
        ))
    return 0


def cmd_besselfit(cfg: RunConfig) -> int:
    grid = BesselFitGrid(
        beta_lo=cfg.options["beta"][0],
        beta_hi=cfg.options["beta"][-1],
        gamma_lo=cfg.options["gamma"][0],
        gamma_hi=cfg.options["gamma"][-1],
        n_beta=len(cfg.options["beta"]),
        n_gamma=len(cfg.options["gamma"]),
    )
    res = bessel_fit(grid)
    print(
        f"best beta={_fmt(res.best_params.beta)} "
        f"gamma={_fmt(res.best_params.gamma)} alpha_sq={_fmt(res.alpha_sq)} "
        f"({len(res.grid_trace)} evaluations)"
    )
    if cfg.out is not None:
        _write_table(
            cfg,
            "besselfit_trace",
            ("beta", "gamma", "alpha_sq"),
            res.grid_trace,
            meta={
                "best_beta": res.best_params.beta,
                "best_gamma": res.best_params.gamma,
                "best_alpha_sq": res.alpha_sq,
            },
        )
    return 0


def cmd_limits(cfg: RunConfig) -> int:
    rows = limit_diagnostics(
        cfg.options["pvalue"], cfg.options["gamma"], target=cfg.options["target"]
    )
    _write_table(
        cfg,
        "limit_deviations",
        ("gamma", "beta", "sup_deviation"),
        [(r.gamma, r.beta, r.sup_deviation) for r in rows],
        meta={"duration": cfg.options["pvalue"], "target": cfg.options["target"]},
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

    def common(sp, out_help="output file or directory"):
        sp.add_argument("--out", type=Path, default=None, help=out_help)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("map", help="Heisenberg-area map over the (beta, gamma) plane")
    common(sp, "output directory (required)")
    sp.add_argument("--beta", default="0.55:60:200", help="list or lo:hi:n log range")
    sp.add_argument("--gamma", default="0.3:30:200", help="list or lo:hi:n log range")
    sp.add_argument(
        "--p-lines",
        default=",".join(str(v) for v in DEFAULT_P_LINES),
        help="constant-duration diagonals to emit",
    )

    sp = sub.add_parser("gallery", help="time/frequency wavelet gallery")
    common(sp, "output directory (required)")
    sp.add_argument("--beta", default=",".join(str(v) for v in GALLERY_VALUES))
    sp.add_argument("--gamma", default=",".join(str(v) for v in GALLERY_VALUES))

    sp = sub.add_parser(
        "curves", help="1/A and Gaussian-similarity curves vs duration"
    )
    common(sp)
    sp.add_argument("--pgrid", default="0.5:0.05:8", help="start:step:stop")
    sp.add_argument("--gamma", default="1,2,3,4,5,6")

    sp = sub.add_parser("props", help="property table for (beta,gamma) pairs")
    common(sp)
    sp.add_argument("pairs", nargs="+", help="pairs as beta,gamma")

    sp = sub.add_parser("cwt", help="continuous wavelet transform of a signal file")
    common(sp)
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
    common(sp)
    sp.add_argument("--beta", default="1:50:100", help="lo:hi:n log grid")
    sp.add_argument("--gamma", default="0.02:2:100", help="lo:hi:n log grid")

    sp = sub.add_parser("limits", help="sup-norm distance from limiting forms")
    common(sp)
    sp.add_argument("--pvalue", type=float, default=3.0, help="duration P")
    sp.add_argument("--gamma", default="1,0.5,0.1,0.01")
    sp.add_argument("--target", choices=("lognormal", "shannon"), default="lognormal")
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        out=args.out,
        format=args.format,
    )
    if args.command == "map":
        cfg.options["beta"] = _parse_list_or_range(args.beta)
        cfg.options["gamma"] = _parse_list_or_range(args.gamma)
        cfg.options["p_lines"] = [float(v) for v in args.p_lines.split(",")]
        for p_val in cfg.options["p_lines"]:
            if not 0 <= p_val < math.inf:
                raise ValueError(f"p-lines must be finite and >= 0 (got {p_val})")
        if cfg.out is None:
            raise ValueError("map writes several files: --out DIR is required")
    elif args.command == "gallery":
        cfg.options["beta"] = _parse_list_or_range(args.beta)
        cfg.options["gamma"] = _parse_list_or_range(args.gamma)
        if cfg.out is None:
            raise ValueError("gallery writes several files: --out DIR is required")
    elif args.command == "curves":
        cfg.options["pgrid"] = _parse_pgrid(args.pgrid)
        cfg.options["gamma"] = _parse_list_or_range(args.gamma)
    elif args.command == "props":
        pairs = []
        for text in args.pairs:
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"each pair must be beta,gamma (got {text!r})")
            pairs.append((float(parts[0]), float(parts[1])))
        cfg.options["pairs"] = pairs
    elif args.command == "cwt":
        cfg.options.update(
            signal=args.signal,
            wavelet_beta=args.wavelet_beta,
            wavelet_gamma=args.wavelet_gamma,
            density=args.density,
            eta=args.eta,
            p0=args.p0,
            norm=args.norm,
            boundary=args.boundary,
        )
    elif args.command == "besselfit":
        # the fit spans a log grid, so a list would silently lose its inner values
        for name, text in (("beta", args.beta), ("gamma", args.gamma)):
            if ":" not in text:
                raise ValueError(f"--{name} must be a lo:hi:n range (got {text!r})")
            cfg.options[name] = _parse_list_or_range(text)
    elif args.command == "limits":
        cfg.options["pvalue"] = args.pvalue
        cfg.options["gamma"] = _parse_list_or_range(args.gamma)
        cfg.options["target"] = args.target
    if args.command in ("curves", "limits"):
        for g in cfg.options["gamma"]:
            MorseParams(0.0, g)  # rejects a bad gamma in MorseParams' own words
    return cfg


_DISPATCH = {
    "map": cmd_map,
    "gallery": cmd_gallery,
    "curves": cmd_curves,
    "props": cmd_props,
    "cwt": cmd_cwt,
    "besselfit": cmd_besselfit,
    "limits": cmd_limits,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[args.command](cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

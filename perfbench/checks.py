"""Checks of the program's outputs against reference.py and against
properties the method must have.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import reference as ref

AREA_FLOOR = 0.5 - 1e-9  # the uncertainty bound
AREA_RTOL = 1e-9
SKEW_ATOL = 1e-8
GSTAR_AT_LARGEST_BETA = (2.5, 3.5)
LINE_RTOL = 1e-12
ALPHA_ATOL = 1e-9
COLUMN_RTOL = 1e-10
GRID_RTOL = 1e-10
MAX_REPORTED = 5


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def read_table(path: Path):
    """(meta, columns, rows) of a CSV the CLI wrote: '# key=value' lines,
    a header line, then rows of cells as strings."""
    meta, columns, rows = {}, None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, eq, value = line[1:].strip().partition("=")
                if eq and " " not in key:
                    meta[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, columns, rows


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# map_sweep
# ---------------------------------------------------------------------------


def check_map_grid(beta, gamma, betas_want, gammas_want) -> list[str]:
    """The area rows cover the grid beta-major."""
    nb, ng = len(betas_want), len(gammas_want)
    if len(beta) != nb * ng:
        return [f"map has {len(beta)} cells, expected {nb * ng}"]
    bw = np.repeat(betas_want, ng)
    gw = np.tile(gammas_want, nb)
    if not (np.allclose(beta, bw, rtol=LINE_RTOL, atol=0)
            and np.allclose(gamma, gw, rtol=LINE_RTOL, atol=0)):
        return ["map cells are not the requested grid in beta-major order"]
    return []


def check_areas(beta, gamma, area, sample) -> list[str]:
    """Every finite area obeys the uncertainty bound; the sampled cells
    match the 30-digit generalized-gamma value."""
    problems = []
    area = np.asarray(area, dtype=float)
    finite = np.isfinite(area)
    low = np.nonzero(finite & (area < AREA_FLOOR))[0]
    for i in low[:MAX_REPORTED]:
        b, g, a = float(beta[i]), float(gamma[i]), float(area[i])
        problems.append(f"area {a!r} at ({b!r}, {g!r}) is below 1/2")
    for i in sample:
        b, g, a = float(beta[i]), float(gamma[i]), float(area[i])
        if b <= 0.5:
            if finite[i]:
                problems.append(f"area at beta={b!r} <= 1/2 should be inf")
            continue
        want = ref.heisenberg_area(b, g)
        if not _close(a, want, AREA_RTOL):
            problems.append(f"area {a!r} at ({b!r}, {g!r}) differs from the 30-digit value {want!r}")
    return problems[: 2 * MAX_REPORTED]


def check_skewness_zero(rows, beta_max: float) -> list[str]:
    """Each (beta, gamma*) has skewness near 0; gamma* at the largest beta
    lies near the Airy value 3."""
    if not rows:
        return ["no zero-skewness rows"]
    problems = []
    for b, g in rows:
        s = ref.skewness(b, g)
        if not abs(s) <= SKEW_ATOL:
            problems.append(f"skewness {s:.3e} at (beta={b!r}, gamma*={g!r})")
    b_last, g_last = rows[-1]
    lo, hi = GSTAR_AT_LARGEST_BETA
    if b_last != beta_max or not lo <= g_last <= hi:
        problems.append(f"gamma* at the largest beta is ({b_last!r}, {g_last!r}), "
                        f"expected beta={beta_max!r} and gamma* in [{lo}, {hi}]")
    return problems[:MAX_REPORTED]


def check_p_lines(rows, p_values) -> list[str]:
    """Each constant-P line has beta * gamma = P^2."""
    problems = []
    if sorted(set(r[0] for r in rows)) != sorted(p_values):
        problems.append("constant-P lines do not match the requested durations")
    for p, b, g in rows:
        if not _close(b * g, p * p, LINE_RTOL):
            problems.append(f"beta*gamma = {b * g!r} on the P = {p!r} line")
    return problems[:MAX_REPORTED]


def check_border(rows, gammas) -> list[str]:
    """The localization border beta = (gamma - 1)/2 for every gamma >= 1."""
    want = [g for g in gammas if g >= 1.0]
    if [r[0] for r in rows] != want:
        return ["localization border does not list every gamma >= 1"]
    bad = [(g, b) for g, b in rows if abs(b - (g - 1.0) / 2.0) > 1e-15 * g]
    return [f"border beta {b!r} at gamma {g!r}" for g, b in bad[:MAX_REPORTED]]


# ---------------------------------------------------------------------------
# bessel_fit
# ---------------------------------------------------------------------------


def check_fit(trace, best, n: int, box: dict, sample) -> list[str]:
    """Checks of one fit's trace rows (beta, gamma, alpha^2) and its
    returned point best = (beta, gamma, alpha^2)."""
    problems = []
    if len(trace) < n * n:
        return [f"trace holds {len(trace)} rows, fewer than the {n}x{n} grid"]
    tb, tg = (np.array([r[k] for r in trace]) for k in range(2))
    grid_b = np.geomspace(box["beta"][0], box["beta"][1], n)
    grid_g = np.geomspace(box["gamma"][0], box["gamma"][1], n)
    if not (np.allclose(tb[: n * n], np.repeat(grid_b, n), rtol=LINE_RTOL, atol=0)
            and np.allclose(tg[: n * n], np.tile(grid_g, n), rtol=LINE_RTOL, atol=0)):
        problems.append("trace does not start with the grid scan in beta-major order")
    for pb, pg, pa in trace:
        if not 0 < pa <= 1:
            problems.append(f"trace alpha_sq {pa!r} at ({pb!r}, {pg!r}) is outside (0, 1]")
    top = max(r[2] for r in trace)
    if best[2] != top:
        problems.append(f"returned alpha_sq {best[2]!r} is not the best evaluated {top!r}")
    for pb, pg, pa in [best] + [tuple(trace[i]) for i in sample]:
        want = ref.bessel_alpha_sq(pb, pg)
        if not abs(pa - want) <= ALPHA_ATOL:
            problems.append(f"alpha_sq {pa!r} at ({pb!r}, {pg!r}); trapezoid gives {want!r}")
    return problems[: 2 * MAX_REPORTED]


# ---------------------------------------------------------------------------
# CWT
# ---------------------------------------------------------------------------


def check_scales(scales, n: int, beta: float, gamma: float, density: int,
                 eta: float, p0: float) -> list[str]:
    """Endpoints match the bisection and the closed form; the grid is
    log-uniform with `density` steps per octave."""
    s_min, s_max = ref.scale_endpoints(n, beta, gamma, eta, p0)
    scales = np.asarray(scales, dtype=float)
    problems = []
    if not _close(scales[0], s_min, GRID_RTOL):
        problems.append(f"s_min {scales[0]!r}, bisection gives {s_min!r}")
    if not _close(scales[-1], s_max, GRID_RTOL):
        problems.append(f"s_max {scales[-1]!r}, closed form gives {s_max!r}")
    steps = math.ceil(math.log2(s_max / s_min) * density)
    if len(scales) != steps + 1:
        problems.append(f"{len(scales)} scales, expected {steps + 1}")
    elif np.ptp(np.diff(np.log(scales))) > 1e-12:
        problems.append("scales are not log-uniform")
    return problems


def check_column(got, want, label: str) -> list[str]:
    """A transform column matches the reference to COLUMN_RTOL of its
    largest modulus."""
    scale = float(np.abs(want).max())
    err = float(np.abs(np.asarray(got) - want).max())
    if not err <= COLUMN_RTOL * scale:
        return [f"{label}: max deviation {err:.3e} from the reference "
                f"(column max {scale:.3e})"]
    return []


def _canonical(v: complex) -> str:
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"


def read_cwt_csv(path: Path, n: int, dt: float):
    """Parse a `morsekit cwt` CSV.  Returns (scales, coefficients,
    problems); checks the shape, the time column, and that every number
    cell is the shortest repr of the value it parses to."""
    problems = []
    with open(path) as f:
        head = [next(f), next(f), next(f)]
        if not (head[0].startswith("# morsekit cwt") and head[1].startswith("# dt=")):
            problems.append("missing the cwt header lines")
        names = head[2].rstrip("\n").split(",")
        if names[0] != "t" or not all(c.startswith("scale=") for c in names[1:]):
            return None, None, problems + ["bad column header"]
        cells = [c[len("scale="):] for c in names[1:]]
        scales = [float(c) for c in cells]
        bad = [c for c, s in zip(cells, scales) if repr(s) != c]
        width = len(scales)
        coeffs = np.empty((n, width), dtype=complex)
        rows = 0
        for i, line in enumerate(f):
            row = line.rstrip("\n").split(",")
            if len(row) != width + 1 or i >= n:
                problems.append(f"row {i} has {len(row)} cells, expected {width + 1}")
                break
            try:
                t = float(row[0])
                values = [complex(c) for c in row[1:]]
            except ValueError as exc:
                problems.append(f"row {i}: {exc}")
                break
            if repr(t) != row[0] or t != i * dt:
                bad.append(row[0])
            canonical = [_canonical(v) for v in values]
            if canonical != row[1:]:
                bad.extend(c for c, v in zip(row[1:], canonical) if v != c)
            coeffs[i] = values
            rows += 1
    if rows != n:
        problems.append(f"{rows} rows, expected {n}")
    for c in bad[:MAX_REPORTED]:
        problems.append(f"cell {c!r} is not the shortest repr of its value")
    return scales, coeffs[:rows], problems

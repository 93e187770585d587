"""The four workloads.  Each builds its inputs from the seed, runs one pass
of its operations through morsekit's public functions, and checks the
outputs.  Only the calls into morsekit are timed; checks run outside the
timed region.

A pass attempts the same operations on every seed, so the share of
failed operations does not depend on the seed or the run length.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference as ref

WAVELET = (9.0, 3.0)  # the CLI's default Airy wavelet, used by both CWT workloads
CWT_DENSITY = 8
CWT_ETA, CWT_P0 = 0.1, 5.0  # scale_grid defaults


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    output_bytes: int = 0


class Clock:
    """Times calls into the program; with a tracer, each call is a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.root(fn, *args, **kwargs)
        finally:
            self.elapsed += time.perf_counter() - t0


def _cli(mk, clock: Clock, argv: list[str]) -> tuple[int, str]:
    """Run `morsekit <argv>` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = clock.call(mk.cli.main, argv)
    return rc, out.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def _signal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Three tones with random amplitude, frequency and phase, plus white
    noise.  Frequencies are log-uniform over the band the scale grid
    analyzes."""
    t = np.arange(n)
    x = 0.5 * rng.standard_normal(n)
    for amp, freq, phase in zip(rng.uniform(0.5, 2.0, 3),
                                np.exp(rng.uniform(np.log(3e-3), np.log(2.5), 3)),
                                rng.uniform(0, 2 * np.pi, 3)):
        x += amp * np.cos(freq * t + phase)
    return x


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, stream: int = 0):
        self.seed = seed
        self.workdir = workdir
        self.stream = stream  # which process of the run this is
        self.passes = 0

    def rng(self) -> np.random.Generator:
        """A generator for the current pass's checks, from the seed."""
        return np.random.default_rng([self.seed, self.stream, self.passes])

    def run_pass(self, mk, clock: Clock) -> PassResult:
        result = self._pass(mk, clock)
        self.passes += 1
        return result


class MapSweep(Workload):
    """`morsekit map` on the default 200x200 grid, writing four CSVs."""

    name = "map_sweep"
    BETA = (0.55, 60.0, 200)
    GAMMA = (0.3, 30.0, 200)
    P_LINES = (1.0 / 3.0, 1.0, 3.0, 9.0, 27.0)
    SAMPLE = 100  # cells checked against mpmath per pass

    def __init__(self, seed, workdir, stream=0):
        super().__init__(seed, workdir, stream)
        self.out = workdir / "map"
        self.argv = [
            "map", "--out", str(self.out),
            "--beta", "{}:{}:{}".format(*self.BETA),
            "--gamma", "{}:{}:{}".format(*self.GAMMA),
            "--p-lines", ",".join(repr(p) for p in self.P_LINES),
        ]

    def _pass(self, mk, clock):
        shutil.rmtree(self.out, ignore_errors=True)
        rc, _ = _cli(mk, clock, self.argv)
        res = PassResult(attempted=1)
        if rc != 0:
            res.failed = 1
            return res
        res.output_bytes = _dir_bytes(self.out)

        def floats(stem):
            return np.array(checks.read_table(self.out / f"{stem}.csv")[2], dtype=float)

        betas = np.geomspace(*self.BETA)
        gammas = np.geomspace(*self.GAMMA)
        b, g, a = floats("heisenberg_map").T
        res.problems += checks.check_map_grid(b, g, betas, gammas)
        if not res.problems:
            sample = self.rng().choice(len(a), self.SAMPLE, replace=False)
            res.problems += checks.check_areas(b, g, a, sample)
        res.problems += checks.check_skewness_zero(floats("skewness_zero").tolist(),
                                                   float(betas[-1]))
        res.problems += checks.check_p_lines(floats("constant_p_lines").tolist(), self.P_LINES)
        res.problems += checks.check_border(floats("localization_border").tolist(),
                                            gammas.tolist())
        return res


class BesselFit(Workload):
    """`morsekit besselfit` over the default box on two grid sizes.

    The sizes are fixed, not drawn from the seed: the compass search in
    `bessel_fit` ends outside criterion 1's box for most sizes (20 does,
    22 does not), so a seeded size would make the failed share depend on
    the seed, and the cost of a pass would vary with n^2.  The seed picks
    the trace points checked against the trapezoid alpha^2.
    """

    name = "bessel_fit"
    SIZES = (20, 22)
    BOX = {"beta": (1.0, 50.0), "gamma": (0.02, 2.0)}
    SAMPLE = 4  # trace rows per fit checked against the trapezoid alpha^2

    def _pass(self, mk, clock):
        res = PassResult()
        rng = self.rng()
        for n in self.SIZES:
            out = self.workdir / f"besselfit_{n}.csv"
            argv = ["besselfit", "--out", str(out),
                    "--beta", "{}:{}:{}".format(*self.BOX["beta"], n),
                    "--gamma", "{}:{}:{}".format(*self.BOX["gamma"], n)]
            rc, stdout = _cli(mk, clock, argv)
            res.attempted += 1
            if rc != 0:
                res.failed += 1
                continue
            res.output_bytes += out.stat().st_size + len(stdout.encode())
            meta, _, rows = checks.read_table(out)
            trace = [tuple(float(c) for c in r) for r in rows]
            best = tuple(float(meta[k]) for k in ("best_beta", "best_gamma", "best_alpha_sq"))
            want = (f"best beta={meta['best_beta']} gamma={meta['best_gamma']} "
                    f"alpha_sq={meta['best_alpha_sq']} ({len(trace)} evaluations)\n")
            if stdout != want:
                res.problems.append(f"stdout {stdout!r} disagrees with the trace file")
            sample = rng.choice(len(trace), self.SAMPLE, replace=False)
            res.problems += checks.check_fit(trace, best, n, self.BOX, sample)
            if not ref.in_box(best[0], best[1]):
                res.failed += 1
        return res


def _cwt(mk, x, grid, boundary):
    return mk.transform.transform(mk.transform.SignalBuffer(x), grid, boundary=boundary)


class CwtLong(Workload):
    """Library scale_grid + transform on a 2^18-sample record, periodic and
    mirror boundaries, density 8."""

    name = "cwt_long"
    N = 1 << 18
    BOUNDARIES = ("periodic", "mirror")
    SAMPLE = 4  # columns per boundary checked against the reference transform

    def __init__(self, seed, workdir, stream=0):
        super().__init__(seed, workdir, stream)
        self.x = _signal(np.random.default_rng(seed), self.N)
        self.refs = {}

    def _pass(self, mk, clock):
        res = PassResult()
        rng = self.rng()
        p = mk.core.MorseParams(*WAVELET)
        grid = clock.call(mk.transform.scale_grid, self.N, p, density=CWT_DENSITY)
        res.problems += checks.check_scales(grid.scales, self.N, *WAVELET, CWT_DENSITY,
                                            CWT_ETA, CWT_P0)
        for boundary in self.BOUNDARIES:
            coeffs = clock.call(_cwt, mk, self.x, grid, boundary).coefficients
            res.attempted += 1
            if boundary not in self.refs:
                self.refs[boundary] = ref.CwtReference(self.x, boundary, *WAVELET)
            for j in rng.choice(len(grid.scales), self.SAMPLE, replace=False):
                res.problems += checks.check_column(
                    coeffs[:, j], self.refs[boundary].column(grid.scales[j]),
                    f"{boundary} column {j}")
            del coeffs  # free 457 MB before the next transform
        return res


class CwtCsv(Workload):
    """`morsekit cwt` writing CSV for a 2^14-sample signal file, density 8.

    The first pass of a run parses every cell and checks all columns; later
    passes, in this process or the run's later ones, must write the same
    bytes.
    """

    name = "cwt_csv"
    N = 1 << 14
    DT = 1.0

    def __init__(self, seed, workdir, stream=0):
        super().__init__(seed, workdir, stream)
        self.x = _signal(np.random.default_rng(seed), self.N)
        self.signal = workdir / "signal.txt"
        with open(self.signal, "w") as f:
            f.write(f"# dt={self.DT!r}\n")
            f.writelines(f"{v!r}\n" for v in self.x.tolist())
        self.out = workdir / "cwt.csv"
        self.argv = ["cwt", "--signal", str(self.signal), "--out", str(self.out),
                     "--density", str(CWT_DENSITY)]
        self.digest_file = workdir / "cwt.csv.sha256"

    def _pass(self, mk, clock):
        self.out.unlink(missing_ok=True)
        rc, _ = _cli(mk, clock, self.argv)
        res = PassResult(attempted=1)
        if rc != 0:
            res.failed = 1
            return res
        res.output_bytes = self.out.stat().st_size
        digest = checks.file_digest(self.out)
        if self.digest_file.exists():
            if digest != self.digest_file.read_text():
                res.problems.append("a later pass wrote different bytes")
            return res
        self.digest_file.write_text(digest)
        scales, coeffs, problems = checks.read_cwt_csv(self.out, self.N, self.DT)
        res.problems += problems
        if scales is None:
            return res
        res.problems += checks.check_scales(scales, self.N, *WAVELET, CWT_DENSITY,
                                            CWT_ETA, CWT_P0)
        reference = ref.CwtReference(self.x, "periodic", *WAVELET)
        for j, s in enumerate(scales):
            res.problems += checks.check_column(coeffs[:, j], reference.column(s),
                                                f"column {j}")
        return res


WORKLOADS = {w.name: w for w in (MapSweep, BesselFit, CwtLong, CwtCsv)}

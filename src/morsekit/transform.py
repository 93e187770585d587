"""FFT-based continuous wavelet transform with automatic scale selection.

Each scale row is the inverse DFT of the signal spectrum multiplied by the
sampled wavelet spectrum, which is exact for the periodic boundary and
O(N log N) per scale.  Internal frequencies are radians per sample; the
sample spacing dt enters only when converting a scale to a physical
frequency, peak_frequency/(scale*dt).

The grid's smallest scale puts the Nyquist rate where the spectrum has
fallen to eta of its peak on its high-frequency flank.  That point, and
the frequency where the spectrum underflows to exactly 0, are roots of
level - Psi in u = ln(w/w_p), bisected by `core._bisect` to the last bit
of u inside a closed-form bracket.  `core._checked_peak_frequency` refuses
a grid whose w_p leaves double range.

The filter bank runs one scale row per task on `core.CPU_COUNT` threads
(every CPU the process may use), the calling thread among them.  A row's
filter, `core.eval_spectrum` (mask-free and in place for beta > 0), is evaluated
only on the bins below the frequency where the Morse spectrum underflows
to exactly 0 (found once per transform), multiplied into the row, and the
row is inverted by one in-place `np.fft.ifft`, cropped and scaled into the
output by the same thread.  The rows are stored scale-major, so the time
x scale ``CwtResult.coefficients`` is a Fortran-ordered view.

The non-periodic boundaries pad to m = next_pow2(2n) samples.  When m is
exactly 2n (every power-of-two n), the mirror buffer is one period of the
half-sample symmetric extension [x, x[::-1]] (Martucci 1994).  For a real
signal, its filtered 2n-point row r needs only an n-point inverse E of
the same bins: the even samples r[2a] are E[a]/2, and as the extension's
spectrum is a phase exp(i pi k / 2n) times a real sequence, r[2n-1-t] is
the conjugate of r[t], so r[2a+1] = conj(E[n-1-a])/2.  A complex
signal's mirror rows, and those at other n, whose buffer is not one
period of the extension, are the padded spectrum's inverse FFTs, as the
zero rows are.

A narrower signal (float32, complex64, integers) is transformed as its
float64 or complex128 cast.  Memory is the output and that cast, plus per
thread one complex row of m (padded rows) or n (real mirror rows at
power-of-two n), or nothing (periodic rows are inverted in place in the
output), plus O(m) per thread for the filter.  The coefficients are
bitwise those of a plain loop of the same per-scale formula, whatever
the thread count.  Every FFT, forward and inverse, is numpy's.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (MorseParams, _bisect, _checked_peak_frequency, duration, eval_spectrum,
                   peak_frequency)

__all__ = [
    "SignalBuffer",
    "ScaleGrid",
    "CwtResult",
    "scale_grid",
    "transform",
    "ridge_frequency_check",
]

NORMALIZATIONS = ("bandpass_n1", "unitary_n_half")
BOUNDARIES = ("periodic", "zero", "mirror")


@dataclass(frozen=True)
class SignalBuffer:
    """A uniformly sampled signal with its sample spacing in seconds."""

    samples: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.samples)
        if x.ndim != 1 or len(x) < 2:
            raise ValueError("signal must be 1-D with at least 2 samples")
        if not np.all(np.isfinite(x.real)) or (
            np.iscomplexobj(x) and not np.all(np.isfinite(x.imag))
        ):
            raise ValueError("signal contains non-finite values")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite (got {self.dt})")
        object.__setattr__(self, "samples", x)


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmically spaced scales with the cutoffs that produced them.

    ``high_cutoff_eta`` is the admissible spectral amplitude fraction at
    the Nyquist rate; ``low_cutoff_p0`` the number of wavelet footprints
    required to fit in the record.
    """

    scales: np.ndarray
    params: MorseParams
    high_cutoff_eta: float
    low_cutoff_p0: float
    density: int

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        if s.ndim != 1 or len(s) == 0:
            raise ValueError("scales must be a non-empty 1-D array")
        if s[0] <= 0 or (len(s) > 1 and not np.all(np.diff(s) > 0)):
            raise ValueError("scales must be positive and strictly increasing")
        if self.params.beta > 0:  # the lowpass member has no peak to check
            _checked_peak_frequency(self.params)
        object.__setattr__(self, "scales", s)

    def __len__(self):
        return len(self.scales)

    def log_step(self) -> float:
        """Grid spacing in log-scale units (ln 2 / density)."""
        return math.log(2.0) / self.density

    def peak_frequencies(self, dt: float = 1.0) -> np.ndarray:
        """Physical peak frequency analyzed by each scale, w_p / (s dt).

        Where s dt overflows or underflows to 0, the division runs in two
        steps, (w_p / s) / dt, so a representable frequency is not flushed
        to 0 or inf.
        """
        wp = peak_frequency(self.params)
        with np.errstate(over="ignore", under="ignore"):
            scaled = self.scales * dt
        bad = ~np.isfinite(scaled) | (scaled == 0.0)
        out = wp / np.where(bad, 1.0, scaled)
        out[bad] = wp / self.scales[bad] / dt
        return out


@dataclass(frozen=True)
class CwtResult:
    """Complex transform coefficients, time along rows, scale along columns."""

    coefficients: np.ndarray
    scales: ScaleGrid
    normalization: str
    boundary: str
    dt: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coefficients)
        if c.ndim != 2 or c.shape[1] != len(self.scales):
            raise ValueError("coefficient matrix must be time x scale")
        object.__setattr__(self, "coefficients", c)


def _flank_frequency(p: MorseParams, level: float) -> float:
    """The frequency where Psi falls to ``level`` on its decaying
    high-frequency flank (at level 0, where it underflows to exactly 0): the
    root of level - Psi in u = ln(w/w_p), bisected on [0, u_hi].  With
    y = (w/w_p)**gamma, ln(Psi/2) = (beta/gamma)(ln y + 1 - y) <=
    (beta/gamma)(ln 2 - y/2), so Psi <= level once y >= 2(ln 2 - gamma T/beta),
    T = ln(level/2); T = -750 puts 2 e^T below half the smallest subnormal.
    The beta = 0 lowpass member, 2 exp(-w**gamma), has w_p = 1 and y >= -T."""
    t = math.log(0.5 * level) if level > 0 else -750.0
    if p.beta > 0:
        wp, y_hi = peak_frequency(p), 2.0 * (math.log(2.0) - p.gamma * t / p.beta)
    else:
        wp, y_hi = 1.0, -t
    with np.errstate(over="ignore"):  # Psi(inf) is 0, and the root may be inf
        u = _bisect(lambda u: level - eval_spectrum(p, wp * np.exp(u)),
                    0.0, math.log(y_hi) / p.gamma)
        return float(wp * np.exp(u))


def scale_grid(
    signal_len: int,
    p: MorseParams,
    density: int = 4,
    eta: float = 0.1,
    p0: float = 5.0,
) -> ScaleGrid:
    """Build the log-spaced scale grid for a signal of the given length.

    The smallest scale keeps the wavelet's Nyquist response at the
    fraction ``eta`` of its peak (aliasing control); the largest keeps at
    least ``p0`` wavelet footprints 2*s*P/w_p inside the record.  Scales
    are spaced ``density`` points per octave, endpoints included.
    """
    if p.beta <= 0:
        raise ValueError("scale selection requires beta > 0")
    if density < 1:
        raise ValueError("density must be at least 1")
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not p0 >= 1:  # nan included
        raise ValueError(f"p0 must be at least 1 (got {p0})")
    if signal_len < 2:
        raise ValueError("signal too short")

    wp = _checked_peak_frequency(p)
    s_min = _flank_frequency(p, 2.0 * eta) / math.pi
    s_max = signal_len * wp / (2.0 * duration(p) * p0)
    if s_min > s_max:
        raise ValueError(
            f"signal of length {signal_len} is too short for this wavelet: "
            f"min scale {s_min:.4g} exceeds max scale {s_max:.4g} "
            f"(eta={eta}, p0={p0})"
        )
    n_octaves = math.log2(s_max / s_min)
    n_steps = max(1, math.ceil(n_octaves * density))
    scales = np.geomspace(s_min, s_max, n_steps + 1)
    return ScaleGrid(
        scales=scales,
        params=p,
        high_cutoff_eta=eta,
        low_cutoff_p0=p0,
        density=density,
    )


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _run_rows(n_rows: int, run_row, make_scratch=None):
    """Call ``run_row(j, scratch)`` once for each j in range(n_rows) on
    min(core.CPU_COUNT, n_rows) threads, the calling thread among them.  Each
    thread takes the next row until none is left, passing scratch of its
    own from ``make_scratch()`` (None if make_scratch is None).  The first
    error stops every thread from taking another row; once all are joined,
    it is raised in the caller."""
    todo = iter(range(n_rows))
    lock = threading.Lock()
    errors = []

    def take():
        with lock:
            return None if errors else next(todo, None)

    def work():
        try:
            scratch = None if make_scratch is None else make_scratch()
            while (j := take()) is not None:
                run_row(j, scratch)
        except BaseException as exc:  # re-raised in the caller
            with lock:
                errors.append(exc)

    threads = []
    try:
        for _ in range(min(core.CPU_COUNT, n_rows) - 1):
            t = threading.Thread(target=work)
            t.start()
            threads.append(t)
        work()
    except BaseException as exc:  # a thread that could not start
        with lock:
            errors.append(exc)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def transform(
    x: SignalBuffer,
    grid: ScaleGrid,
    normalization: str = "bandpass_n1",
    boundary: str = "periodic",
) -> CwtResult:
    """Continuous wavelet transform of a signal over a scale grid.

    With the bandpass normalization (scale exponent 1) a unit-amplitude
    tone at a scale's analyzed frequency yields unit coefficient modulus;
    the unitary normalization (exponent 1/2) multiplies each row by
    sqrt(scale).  Only nonnegative DFT bins contribute (the wavelet is
    analytic); at the Nyquist bin the spectrum is evaluated on the
    positive side.  Non-periodic boundaries pad to the next power of two
    m at or above twice the length, zero in 'zero' mode and even
    reflection in 'mirror' mode, and crop after inversion.

    Where m is exactly 2n (every power-of-two n), the mirror buffer is one
    period of the half-sample symmetric extension [x, x[::-1]].  A real
    signal's rows there are unfolded from an n-point inverse: with Y the
    extension's DFT and E the n-point inverse FFT of Y Psi(s pi k/n) on
    k < n (Y is 0 at the Nyquist bin), the cropped row is E[a]/2 at t = 2a
    and conj(E[n-1-a])/2 at t = 2a + 1.  A complex signal's mirror rows at
    these n, and every mirror row at other n, whose buffer is not one
    period of the extension, are inverse FFTs of the padded spectrum, as
    zero rows are; at other n the two forms differ by a few 1e-4 of a
    column's maximum.

    Each row's filter is evaluated only below the frequency where the
    spectrum underflows to exactly 0.  Every scale row is one task:
    `core.CPU_COUNT` threads (every CPU the process may use, the calling
    thread among them) each take the next row, evaluate its filter, invert
    it with one in-place `np.fft.ifft` and write it, cropped and scaled, to
    the output.
    Rows are written scale-major, so ``coefficients`` is a Fortran-ordered
    time x scale view.  Beyond the output, and the float64 or complex128
    cast of a narrower signal, the transform holds per thread one complex
    row of m (zero, and mirror where padded), of n (a real signal's mirror
    at power-of-two n) or none (periodic rows are inverted in place in the
    output), and O(m) per thread for the filter.  An error in any row
    stops the others and is raised here once every thread has ended.  The
    coefficients do not depend on the thread count.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    # np.fft.fft would run a float32 or complex64 signal in single precision
    sig = x.samples.astype(np.promote_types(x.samples.dtype, float), copy=False)
    n = len(sig)
    m = n if boundary == "periodic" else _next_pow2(2 * n)
    symmetric = boundary == "mirror" and m == 2 * n and not np.iscomplexobj(sig)

    # Psi is exactly 0 at and above w_zero (the margin covers rounding in
    # the bin counts), so a row gets filter values only on the nonnegative
    # bins below it, the Nyquist bin counted on the + side
    w_zero = _flank_frequency(grid.params, 0.0) * (1.0 + 1e-9)
    scales = grid.scales
    supports = np.ceil(w_zero * m / (2.0 * np.pi * scales))
    supports = np.minimum(supports, n if symmetric else m // 2 + 1).astype(int)
    if symmetric:
        # bin n of the extension's DFT is 0, so a row's bins are k < n
        buf = np.concatenate((sig, sig[::-1]))
    else:
        offset = (m - n) // 2
        mode = "constant" if boundary == "zero" else "symmetric"
        buf = sig if m == n else np.pad(sig, (offset, m - n - offset), mode=mode)
    spectrum = np.fft.fft(buf)[: supports.max()].copy()  # the bins any row uses
    del buf
    omega_pos = 2.0 * np.pi * np.arange(len(spectrum)) / m
    unitary = normalization == "unitary_n_half"

    out = np.empty((len(scales), n), dtype=complex)

    def filter_into(row, j):
        k = supports[j]
        filt = eval_spectrum(grid.params, scales[j] * omega_pos[:k])
        np.multiply(spectrum[:k], filt, out=row[:k])
        row[k:] = 0.0

    def run_row(j, scratch):
        # periodic rows are inverted in place in the output
        row = out[j] if scratch is None else scratch
        filter_into(row, j)
        np.fft.ifft(row, out=row)
        cropped = row[offset : offset + n]
        if unitary:
            np.multiply(cropped, np.sqrt(scales[j]), out=out[j])
        elif not np.may_share_memory(cropped, out[j]):  # periodic: already in place
            out[j] = cropped

    def run_symmetric_row(j, e):
        # the 2n-point row is e[a] / 2 at t = 2a, and at t = 2a + 1 the
        # conjugate of its value at 2n - 1 - t = 2 (n - 1 - a)
        filter_into(e, j)
        np.fft.ifft(e, out=e)
        gain = (np.sqrt(scales[j]) if unitary else 1.0) / 2
        row = out[j]
        np.multiply(e[: (n + 1) // 2], gain, out=row[0::2])
        np.conjugate(e[::-1][: n // 2], out=row[1::2])
        row[1::2] *= gain

    if symmetric:
        _run_rows(len(scales), run_symmetric_row, lambda: np.empty(n, complex))
    else:
        _run_rows(len(scales), run_row,
                  None if boundary == "periodic" else lambda: np.empty(m, complex))

    return CwtResult(
        coefficients=out.T,
        scales=grid,
        normalization=normalization,
        boundary=boundary,
        dt=x.dt,
    )


def ridge_frequency_check(result: CwtResult, omega0: float) -> float:
    """Scale of maximum modulus for a pure-tone input, with contract checks.

    ``omega0`` is the tone frequency in radians per sample.  Raises if the
    modulus maximum sits on the grid boundary (tone outside the analyzed
    band) or if the ridge modulus varies over time (input was not a pure
    tone).  The returned scale satisfies |s*omega0 - w_p|/w_p <= one grid
    step.
    """
    mod = np.abs(result.coefficients)
    per_scale = mod.mean(axis=0)
    j = int(np.argmax(per_scale))
    if j in (0, len(per_scale) - 1):
        raise ValueError("no interior modulus maximum: tone outside analyzed band")
    ridge = mod[:, j]
    if ridge.std() > 0.05 * ridge.mean():
        raise ValueError("ridge modulus varies over time: input is not a pure tone")
    s = float(result.scales.scales[j])
    wp = peak_frequency(result.scales.params)
    if abs(math.log(s * omega0 / wp)) > result.scales.log_step() * (1 + 1e-9):
        raise ValueError(
            f"ridge scale {s:.6g} misses the predicted scale by more than "
            "one grid step"
        )
    return s

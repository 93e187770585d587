"""FFT-based continuous wavelet transform with automatic scale selection.

Each scale row is the inverse DFT of the signal spectrum multiplied by the
sampled wavelet spectrum, which is exact for the periodic boundary and
O(N log N) per scale.  Internal frequencies are radians per sample; the
sample spacing dt enters only when converting a scale to a physical
frequency, peak_frequency/(scale*dt).

The filter bank runs one scale row per task on as many threads as the
process may use CPUs, the calling thread among them.  A row's filter is
evaluated only on the bins below the frequency where the Morse spectrum
underflows to exactly 0 (found once per transform), multiplied into the
row, and the row is inverted by a one-thread inverse FFT, cropped and
scaled into the output by the same thread.  The rows are stored
scale-major, so the time x scale ``CwtResult.coefficients`` is a
Fortran-ordered view.  Memory is the output, plus one padded row per
thread for the non-periodic boundaries (periodic rows are inverted in
place in the output), plus O(m) per thread for the filter.  The
coefficients are bitwise those of one full-length filter and one inverse
FFT per scale, whatever the thread count.  The inverse is
`scipy.fft.ifft`, imported by the first transform: no other part of the
package needs scipy, so importing it loads no scipy module.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import MorseParams, duration, eval_spectrum, peak_frequency

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

# the filter bank runs one row per thread on every CPU this process may
# run on; the results do not depend on the count
if hasattr(os, "sched_getaffinity"):
    _FFT_WORKERS = len(os.sched_getaffinity(0))
else:
    _FFT_WORKERS = os.cpu_count() or 1


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


def _flank_crossing(p: MorseParams, level: float) -> tuple[float, float]:
    """Bracket [lo, hi] of the frequency where Psi falls to ``level`` on its
    decaying high-frequency flank: Psi(lo) > level >= Psi(hi), found by
    doubling from the peak and then bisection to hi - lo <= 1e-12 * hi.
    ``hi`` is inf if Psi stays above ``level`` at every finite frequency."""
    lo = peak_frequency(p) if p.beta > 0 else 0.0
    hi = 2.0 * lo if lo > 0 else 1.0
    while eval_spectrum(p, hi) > level:  # Psi(inf) is 0, so this ends
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eval_spectrum(p, mid) > level:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    return lo, hi


def _high_frequency_scale(p: MorseParams, eta: float) -> float:
    """Smallest admissible scale: Psi(s*pi)/2 == eta at the Nyquist rate."""
    lo, hi = _flank_crossing(p, 2.0 * eta)
    return 0.5 * (lo + hi) / math.pi


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

    s_min = _high_frequency_scale(p, eta)
    s_max = signal_len * peak_frequency(p) / (2.0 * duration(p) * p0)
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


def _run_rows(n_rows: int, run_row, scratch_len: int | None):
    """Call ``run_row(j, scratch)`` once for each j in range(n_rows) on
    min(_FFT_WORKERS, n_rows) threads, the calling thread among them.  Each
    thread takes the next row until none is left, passing a complex scratch
    row of ``scratch_len`` bins of its own (None if scratch_len is None).
    The first error stops every thread from taking another row; once all
    are joined, it is raised in the caller."""
    todo = iter(range(n_rows))
    lock = threading.Lock()
    errors = []

    def take():
        with lock:
            return None if errors else next(todo, None)

    def work():
        try:
            scratch = None if scratch_len is None else np.empty(scratch_len, complex)
            while (j := take()) is not None:
                run_row(j, scratch)
        except BaseException as exc:  # re-raised in the caller
            with lock:
                errors.append(exc)

    threads = []
    try:
        for _ in range(min(_FFT_WORKERS, n_rows) - 1):
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
    at or above twice the length, zero in 'zero' mode and even reflection
    in 'mirror' mode, and crop after inversion.

    Each row's filter is evaluated only below the frequency where the
    spectrum underflows to exactly 0.  Every scale row is one task:
    _FFT_WORKERS threads (every CPU the process may use, the calling thread
    among them) each take the next row, evaluate its filter, invert it with
    a one-thread FFT and write it, cropped and scaled, to the output.  Rows
    are written scale-major, so ``coefficients`` is a Fortran-ordered
    time x scale view.  Beyond the output the transform holds one padded
    row per thread for the non-periodic boundaries (periodic rows are
    inverted in place in the output) and O(m) per thread for the filter.
    An error in any row stops the others and is raised here once every
    thread has ended.  The coefficients do not depend on the thread count.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    import scipy.fft

    sig = np.asarray(x.samples)
    n = len(sig)
    if boundary == "periodic":
        buf, offset = sig, 0
    else:
        m = _next_pow2(2 * n)
        left = (m - n) // 2
        right = m - n - left
        mode = "constant" if boundary == "zero" else "symmetric"
        buf = np.pad(sig, (left, right), mode=mode)
        offset = left
    m = len(buf)

    # Psi is exactly 0 at and above w_zero (the margin covers rounding in
    # the bin counts), so a row gets filter values only on the nonnegative
    # bins below it, the Nyquist bin counted on the + side
    w_zero = _flank_crossing(grid.params, 0.0)[1] * (1.0 + 1e-9)
    scales = grid.scales
    supports = np.ceil(w_zero * m / (2.0 * np.pi * scales))
    supports = np.minimum(supports, m // 2 + 1).astype(int)
    spectrum = np.fft.fft(buf)[: supports.max()].copy()  # the bins any row uses
    del buf
    omega_pos = 2.0 * np.pi * np.arange(len(spectrum)) / m
    unitary = normalization == "unitary_n_half"

    out = np.empty((len(scales), n), dtype=complex)

    def run_row(j, scratch):
        # periodic rows are inverted in place in the output
        row = out[j] if scratch is None else scratch
        k = supports[j]
        filt = eval_spectrum(grid.params, scales[j] * omega_pos[:k])
        np.multiply(spectrum[:k], filt, out=row[:k])
        row[k:] = 0.0
        inverse = scipy.fft.ifft(row, overwrite_x=True, workers=1)
        cropped = inverse[offset : offset + n]
        if unitary:
            np.multiply(cropped, np.sqrt(scales[j]), out=out[j])
        elif not np.may_share_memory(cropped, out[j]):  # periodic: already in place
            out[j] = cropped

    _run_rows(len(scales), run_row, None if boundary == "periodic" else m)

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

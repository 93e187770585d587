"""Generalized Morse wavelets: exact frequency-domain evaluation and
time-domain sampling.

The wavelet family is defined in the frequency domain as

    Psi(omega) = U(omega) * a * omega**beta * exp(-omega**gamma)

where ``U`` is the unit step and the amplitude ``a`` is chosen so that the
spectrum peaks at the value 2.  All power/exponential evaluation is done in
log space so that large ``beta`` (up to several hundred) neither overflows
nor loses the peak normalization.

`_analytic` applies U to the beta = 0 member and the named spectra of
`superfamily`.  `eval_rescaled_spectrum` (beta > 0, the transform's filter)
keeps its in-place form, whose log shape already gives 0 at w <= 0.  The one
range check on w_p, `_checked_peak_frequency`, sits next to `peak_frequency`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MorseParams",
    "SampledSpectrum",
    "SampledWaveform",
    "ExpansionCoeffs",
    "peak_frequency",
    "half_power_frequency",
    "duration",
    "beta_for_duration",
    "amplitude_constant",
    "log_amplitude_constant",
    "eval_spectrum",
    "eval_rescaled_spectrum",
    "rescaled_log_spectrum_derivatives",
    "log_spectrum_derivatives",
    "expansion_coeffs",
    "approx_spectrum",
    "sample_spectrum",
    "sample_wavelet",
    "gallery_tables",
]

# every CPU this process may run on: the transform's row threads and the
# CLI's forked formatting workers, each read at call time, so one setting
# serves both; the results do not depend on it
CPU_COUNT = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)


@dataclass(frozen=True)
class MorseParams:
    """The (beta, gamma) pair indexing the generalized Morse family.

    ``beta`` controls the low-frequency (and time-domain) decay, ``gamma``
    the high-frequency decay.  ``beta = 0`` is allowed: the member is then
    an analytic lowpass filter rather than a zero-mean wavelet.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and >= 0 (got {self.beta})")
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError(f"gamma must be finite and > 0 (got {self.gamma})")

    @property
    def in_localization_region(self) -> bool:
        """True where the family solves the time/frequency localization
        operator problem (queried for reporting, never enforced)."""
        return self.gamma >= 1.0 and self.beta > (self.gamma - 1.0) / 2.0


@dataclass(frozen=True)
class SampledSpectrum:
    """Frequency-domain samples on an explicit radian grid."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values)
        if freqs.ndim != 1 or vals.ndim != 1 or len(freqs) != len(vals):
            raise ValueError("frequencies and values must be 1-D and equally long")
        if len(freqs) > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SampledWaveform:
    """Time-domain samples on a uniform grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
            raise ValueError("times and values must be 1-D and equally long")
        if len(t) > 2:
            steps = np.diff(t)
            # allow ulp-level jitter from forming t = k*dt at large |t|
            tol = 1e-9 * abs(steps[0]) + 1e-12 * float(np.abs(t).max())
            if not np.all(np.abs(steps - steps[0]) <= tol):
                raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Coefficients of the log-spectrum expansion about the peak.

    In the nondimensional offset x = omega/omega_peak - 1 the log spectrum
    is -duration_sq/2 * x**2 + cubic * x**3 + quartic * x**4 + O(x**5).
    The cubic term vanishes identically at gamma = 3.
    """

    duration_sq: float
    cubic: float
    quartic: float


def peak_frequency(p: MorseParams) -> float:
    """Frequency at which the spectrum is maximized: (beta/gamma)**(1/gamma).

    Computed as exp((ln beta - ln gamma)/gamma) so that extreme parameter
    ratios neither overflow nor underflow prematurely.
    """
    if p.beta == 0:
        raise ValueError(
            "beta = 0 has no interior spectral maximum; "
            "use half_power_frequency for a characteristic frequency"
        )
    return float(np.exp((np.log(p.beta) - np.log(p.gamma)) / p.gamma))


def _checked_peak_frequency(p: MorseParams) -> float:
    """w_p for beta > 0, or a ValueError where it leaves double range."""
    with np.errstate(over="ignore"):
        wp = peak_frequency(p)
    if not 0.0 < wp < math.inf:
        word = "overflows" if wp else "underflows"
        raise ValueError(f"peak frequency (beta/gamma)**(1/gamma) {word} double range "
                         f"at beta={p.beta}, gamma={p.gamma}")
    return wp


def half_power_frequency(p: MorseParams) -> float:
    """Characteristic frequency of the beta = 0 lowpass member: the point
    where the spectrum has fallen to half its peak value, (ln 2)**(1/gamma)."""
    if p.beta != 0:
        raise ValueError("half_power_frequency is the beta = 0 reporting path")
    return float(np.log(2.0) ** (1.0 / p.gamma))


def duration(p: MorseParams) -> float:
    """Dimensionless duration P = sqrt(beta*gamma).

    P/pi counts the oscillations inside the central time window, and 1/P is
    a bandwidth measure; P is constant along beta*gamma = const diagonals.
    """
    return float(np.sqrt(p.beta * p.gamma))


def beta_for_duration(p_dur, gamma) -> np.ndarray:
    """beta = P^2/gamma for P and gamma broadcast together, as P (P/gamma) where
    P*P is not a normal double.  A ValueError names the first gamma not finite
    and > 0 (in MorseParams' words), else the first P not finite and >= 0, else
    the first (P, gamma) in C order whose beta is inf, or 0 while P > 0."""
    p, g = np.broadcast_arrays(np.asarray(p_dur, dtype=float), np.asarray(gamma, dtype=float))
    with np.errstate(all="ignore"):  # the checks below reject what warns here
        pp = p * p
        beta = np.where((pp >= np.finfo(float).tiny) & (pp < math.inf), pp / g, p * (p / g))
    for bad, text in ((~((g > 0) & (g < math.inf)), "gamma must be finite and > 0 (got {g})"),
                      (~((p >= 0) & (p < math.inf)), "duration must be finite and >= 0 (got {p})"),
                      (np.isinf(beta) | ((beta == 0) & (p > 0)),
                       "beta = P^2/gamma is beyond double range at P={p!r}, gamma={g!r}")):
        if bad.any():  # masks take the cells in C order
            raise ValueError(text.format(p=float(p[bad][0]), g=float(g[bad][0])))
    return beta


def log_amplitude_constant(p: MorseParams) -> float:
    """ln of the amplitude constant enforcing a spectral peak value of 2."""
    if p.beta == 0:
        return float(np.log(2.0))
    b, g = p.beta, p.gamma
    return float(np.log(2.0) + (b / g) * (1.0 + np.log(g) - np.log(b)))


def amplitude_constant(p: MorseParams) -> float:
    """Amplitude constant a with peak spectral value 2; equals 2 at beta = 0.

    With q = beta/gamma, ln a = ln 2 + q (1 - ln q) is at most ln 2 + 1,
    so a never overflows; but it underflows, to a subnormal and then to
    0.0, once q exceeds about 178 (ln a < -745.13): at beta = 300,
    gamma = 1 it is exp(-1410.44), returned as 0.0.  Spectrum evaluation
    never forms it explicitly; log_amplitude_constant gives ln a, finite
    wherever beta/gamma is finite.
    """
    return float(np.exp(log_amplitude_constant(p)))


def _analytic(omega, f):
    """U(omega) f(omega): f on the entries w > 0 of ``omega`` alone, 0 at the
    rest (nan included), with overflow and underflow in f silenced; a Python
    float for a 0-d ``omega``.  The analytic step of every spectrum but that
    of `eval_rescaled_spectrum`, which needs no mask."""
    w = np.asarray(omega, dtype=float)
    out = np.zeros_like(w)
    pos = w > 0
    with np.errstate(over="ignore", under="ignore"):
        out[pos] = f(w[pos])
    return float(out) if w.ndim == 0 else out


def eval_spectrum(p: MorseParams, omega):
    """Evaluate the frequency-domain wavelet Psi(omega).

    For beta > 0 the log-space exponent is formed relative to the peak,
    ln 2 + beta*ln(w/w_p) + (beta/gamma)*(1 - (w/w_p)**gamma), which keeps
    the peak value exactly 2 where the direct form ln a + beta*ln w -
    w**gamma would cancel numbers of order beta/gamma.

    Parameters
    ----------
    omega : float or ndarray
        Radian frequency; any real value.

    Returns
    -------
    float or ndarray
        Nonnegative spectral values: 0 at omega <= 0 and nan (the analytic
        step, for every beta >= 0), and where the value underflows.
    """
    if p.beta > 0:
        return eval_rescaled_spectrum(p, np.asarray(omega) / peak_frequency(p))
    # ln Psi = ln 2 - w**gamma: the amplitude constant is 2 at beta = 0
    return _analytic(omega, lambda w: np.exp(math.log(2.0) - np.exp(p.gamma * np.log(w))))


def _rescaled_log_shape(beta, gamma, log_omega, out=None):
    """ln of the peak-rescaled spectrum less ln 2 at ln(omega):
    beta*ln(w) + (beta/gamma)*(1 - w**gamma), zero at the peak w = 1.
    The package's one spelling of the Morse log shape: the spectrum
    (`eval_rescaled_spectrum`) and the alpha^2 and rho^2 rules
    (`superfamily._morse_similarity`) all run it.

    Takes raw (beta, gamma) rather than MorseParams so that whole rows of
    the parameter plane broadcast against a frequency grid at once.  The
    tail (beta/gamma)*(1 - w**gamma) is formed in one temporary, and the
    sum is written into ``out``, which may be ``log_omega`` itself; without
    ``out`` the call allocates two arrays of the broadcast shape.  The
    in-place steps need an array: ``log_omega`` must be an ndarray, or its
    broadcast with ``gamma`` must give one (a 0-d result is not supported).
    """
    tail = np.multiply(gamma, log_omega)
    np.exp(tail, out=tail)
    np.subtract(1.0, tail, out=tail)
    np.multiply(beta / gamma, tail, out=tail)
    out = np.multiply(beta, log_omega, out=out)
    return np.add(out, tail, out=out)


def _bisect(f, lo, hi):
    """The root of f in each bracket [lo, hi] (arrays of one shape): every
    bracket is halved until it stops shrinking, and the final midpoints are
    returned.  Requires f, taken elementwise, to change sign in each
    bracket.  A bracket's lower end keeps the sign f has at the initial lo,
    so f(lo) is evaluated once and each midpoint's sign compared with it.
    The package's one root finder: the Morlet peak frequency and nu
    (`superfamily`), the zero-skewness curve (`props.zero_skewness_gamma`),
    and the smallest scale and support cut of the transform
    (`transform._flank_frequency`)."""
    neg_lo = np.signbit(f(lo))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        above = np.signbit(f(mid)) == neg_lo  # the root lies above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid


def eval_rescaled_spectrum(p: MorseParams, omega):
    """Spectrum with the frequency axis rescaled by the peak frequency, so
    the maximum value 2 always sits at unit frequency.

    Equal to eval_spectrum(p, peak_frequency(p) * omega) but evaluated
    directly as 2 * omega**beta * exp(beta/gamma * (1 - omega**gamma)),
    which stays finite for parameter values whose peak frequency would
    overflow.

    The log shape is `_rescaled_log_shape`, written over its own ln(w)
    buffer, so a call holds two buffers of the input's size.  No mask is
    needed: ln(w) is -inf at w = +-0, so the exponent is -inf and the value
    +0.0, and it is nan for w < 0, -inf and nan, and inf - inf = nan at
    w = +inf; every nan exponent gives 0.
    """
    if p.beta == 0:
        raise ValueError("rescaled spectrum requires beta > 0 (no peak to rescale by)")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        out = np.log(np.atleast_1d(w))
        _rescaled_log_shape(p.beta, p.gamma, out, out=out)
        np.exp(out, out=out)
        np.multiply(2.0, out, out=out)
    # the values are >= 0, so fmax only turns nan into 0
    np.fmax(out, 0.0, out=out)
    return float(out[0]) if scalar else out


def rescaled_log_spectrum_derivatives(p: MorseParams, n_max: int) -> list[float]:
    """Peak-rescaled log-spectrum derivatives w_p**n * d_n, orders 1..n_max.

    These are the derivatives of ln Psi(w_p x) in x at x = 1, i.e. of the
    log of eval_rescaled_spectrum at its unit peak.  Order n equals

        beta * [(-1)**(n-1) (n-1)! - prod_{j=1..n-1}(gamma - j)]

    which is O(beta) and representable wherever beta is, unlike d_n itself:
    small gamma drives w_p = (beta/gamma)**(1/gamma) towards e**500, so
    w_p**n leaves double range.  The bracket is a polynomial in gamma with
    zero constant term, evaluated as -gamma times its quotient by gamma; it
    keeps full relative accuracy as gamma -> 0, where the two terms above
    nearly cancel.  The first derivative is exactly zero and the second is
    -beta*gamma = -duration(p)**2.
    """
    if p.beta <= 0:
        raise ValueError("log-spectrum derivatives require beta > 0")
    if not 1 <= n_max <= 10:
        raise ValueError("n_max must be between 1 and 10")
    b, g = p.beta, p.gamma
    # q = (prod_{j<n}(g - j) - prod_{j<n}(-j)) / g, built by the recurrence
    # q <- (g - n) q + prod_{j<n}(-j), so the constant terms never meet
    q, const = 0.0, 1.0
    out = []
    for n in range(1, n_max + 1):
        out.append(-b * g * q)
        q = (g - n) * q + const
        const *= -n
    return out


def log_spectrum_derivatives(p: MorseParams, n_max: int) -> list[float]:
    """Derivatives d_n of ln Psi at the peak frequency, orders 1..n_max.

    Uses the exact form ln Psi = ln a + beta ln w - w**gamma together with
    the peak identity w_p**gamma = beta/gamma, which reduces order n to
    rescaled_log_spectrum_derivatives(p, n_max)[n-1] / w_p**n, so the first
    derivative is exactly zero.  The division is done in logs, but d_n
    itself can leave double range at small gamma: it then flushes to 0 or
    +-inf (and loses precision as a subnormal).  Use the rescaled
    derivatives where that matters.
    """
    rescaled = rescaled_log_spectrum_derivatives(p, n_max)
    log_wp = (math.log(p.beta) - math.log(p.gamma)) / p.gamma
    out = []
    for n, r in enumerate(rescaled, start=1):
        if r == 0.0:
            out.append(0.0)
            continue
        # r / wp**n via logs: wp**n alone can leave double range
        mag = math.log(abs(r)) - n * log_wp
        try:
            out.append(math.copysign(math.exp(mag), r))
        except OverflowError:
            out.append(math.copysign(math.inf, r))
    return out


def expansion_coeffs(p: MorseParams) -> ExpansionCoeffs:
    """Cubic and quartic coefficients of the log-spectrum expansion.

    cubic  = -(gamma - 3) * beta*gamma / 6
    quartic = -((gamma - 3)**2 + 2) * beta*gamma / 24

    These agree with 1/n! times rescaled_log_spectrum_derivatives.
    """
    if p.beta <= 0:
        raise ValueError("expansion coefficients require beta > 0")
    p2 = p.beta * p.gamma
    cubic = -(p.gamma - 3.0) * p2 / 6.0
    quartic = -((p.gamma - 3.0) ** 2 + 2.0) * p2 / 24.0
    return ExpansionCoeffs(duration_sq=p2, cubic=cubic, quartic=quartic)


def approx_spectrum(p: MorseParams, omega, order: int = 2):
    """Local approximants of the spectrum about its peak.

    order=2 is the pure Gaussian form 2*exp(-P**2/2 * x**2) with
    x = omega/omega_peak - 1; order=4 additionally keeps the cubic and
    quartic log-expansion terms.  Neither applies the positive-frequency
    step: these are local models, finite at any real frequency.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    wp = peak_frequency(p)
    c = expansion_coeffs(p)
    x = np.asarray(omega, dtype=float) / wp - 1.0
    expo = -0.5 * c.duration_sq * x**2
    if order == 4:
        expo = expo + c.cubic * x**3 + c.quartic * x**4
    with np.errstate(under="ignore", over="ignore"):
        out = 2.0 * np.exp(expo)
    return float(out) if np.ndim(omega) == 0 else out


def sample_spectrum(p: MorseParams, frequencies) -> SampledSpectrum:
    """Spectrum samples on an explicit (strictly increasing) radian grid."""
    freqs = np.asarray(frequencies, dtype=float)
    return SampledSpectrum(frequencies=freqs, values=eval_spectrum(p, freqs))


def sample_wavelet(
    p: MorseParams,
    scale: float,
    n: int,
    dt: float,
    alias_threshold: float = 0.1,
) -> SampledWaveform:
    """Sample the time-domain wavelet at the given scale.

    The spectrum Psi(scale * w_k) is sampled on the DFT frequency grid
    w_k = 2*pi*k/(n*dt), k = 0..n-1 (the full circle treated as
    nonnegative frequencies), inverse transformed, and circularly rotated
    so the wavelet center sits at the grid midpoint.  The scale enters only
    through the spectrum argument, which realizes the 1/s time-domain
    normalization.

    Parameters
    ----------
    scale : float
        Dilation factor s > 0; the scaled peak frequency is
        peak_frequency(p)/s.
    n : int
        Sample count, at least 16.
    dt : float
        Sample spacing in time units.
    alias_threshold : float
        Raise if the spectrum at the Nyquist frequency exceeds this
        fraction of its peak value.

    Returns
    -------
    SampledWaveform
        n complex samples on times (arange(n) - n//2) * dt.
    """
    if not 0 < scale < math.inf:  # nan included
        raise ValueError(f"scale must be positive and finite (got {scale})")
    if n < 16:
        raise ValueError(f"need at least 16 samples (got {n})")
    if not 0 < dt < math.inf:  # nan included
        raise ValueError(f"dt must be positive and finite (got {dt})")

    nyquist = np.pi / dt
    if p.beta > 0 and peak_frequency(p) / scale >= nyquist:
        raise ValueError(
            "scaled peak frequency exceeds the Nyquist rate; "
            "increase the scale or decrease dt"
        )
    ratio = eval_spectrum(p, scale * nyquist) / 2.0
    if ratio > alias_threshold:
        raise ValueError(
            f"aliasing: spectrum at Nyquist is {ratio:.3g} of peak "
            f"(threshold {alias_threshold:g})"
        )

    k = np.arange(n)
    omega = 2.0 * np.pi * k / (n * dt)
    spec = eval_spectrum(p, scale * omega)
    values = np.roll(np.fft.ifft(spec), n // 2) / dt
    times = (k - n // 2) * dt
    return SampledWaveform(times=times, values=values)


def gallery_tables(pairs):
    """The `gallery` columns of each MorseParams in ``pairs``, a generator
    of (w_p, P, columns) per pair: the wavelet at scale 1 on 511 samples
    over 20 P / w_p, against t w_p / P, and the spectrum with its order-2
    and order-4 approximants on w / w_p in [0, 3].  ``columns`` maps each
    column's name to its array.  Its first step checks every pair's w_p
    (`_checked_peak_frequency`) and samples every pair's wavelet, so a
    pair out of range, or one whose spectrum the window's Nyquist rate
    cuts (every P above about 78, and some short pairs with heavy tails),
    raises before any pair's columns are made."""
    n = 511  # odd: symmetric time grid, and the frequency grid hits 1 exactly
    windows = []
    for p in pairs:
        wp, pd = _checked_peak_frequency(p), duration(p)
        try:
            windows.append((p, wp, pd, sample_wavelet(p, 1.0, n, 20.0 * pd / wp / n)))
        except ValueError as exc:
            # the cause, without sample_wavelet's advice on scale and dt,
            # which gallery does not take
            cause = str(exc).split(";")[0]
            raise ValueError(f"beta={p.beta}, gamma={p.gamma} (duration {pd:.6g}) does not "
                             f"fit the gallery window of {n} samples over 20 P / w_p: "
                             f"{cause}") from exc
    freq_scaled = np.linspace(0.0, 3.0, n)
    for p, wp, pd, wf in windows:
        yield wp, pd, {
            "time_scaled": wf.times * wp / pd,
            "wavelet_real": wf.values.real,
            "wavelet_imag": wf.values.imag,
            # libm's hypot, as abs() on each value; np.abs's vectorized
            # loop can differ from it in the last bit
            "wavelet_modulus": np.hypot(wf.values.real, wf.values.imag),
            "freq_scaled": freq_scaled,
            "spectrum": eval_spectrum(p, freq_scaled * wp),
            "gaussian_approx": approx_spectrum(p, freq_scaled * wp, order=2),
            "quartic_approx": approx_spectrum(p, freq_scaled * wp, order=4),
        }

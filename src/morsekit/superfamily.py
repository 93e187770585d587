"""Named members and limits of the analytic-wavelet superfamily.

The generalized Morse family contains the Cauchy/Klauder/Paul wavelets at
gamma = 1, the analytic Derivative-of-Gaussian wavelets at gamma = 2, and
the Airy wavelets at gamma = 3; it reaches the lognormal (log Gabor)
wavelets as gamma -> 0 at fixed duration, the Shannon wavelet as
gamma -> inf, and the analytic filter at (0, 0).  The Morlet and Bessel
wavelets sit outside the family; the Bessel wavelet is nevertheless
approximated to alpha^2 ~ 0.9995 near (beta, gamma) = (22, 1/10), which
`bessel_fit` recovers by grid search plus pattern-search refinement (compass
and diagonal moves).  The fit scores the whole coarse grid, and each
poll's remaining moves, at once by `_morse_similarity`: the closed-form
self-energies of `props._log_rescaled_energy` and a trapezoid in
ln(omega) for the cross integral, whose step each member halves in
`props._halving_trapezoid`, the oracle's loop.  `concentration_curves`
(the `curves` table) scores Morse Gaussian similarity the same way on a
whole grid, by `_morse_rho_sq`, and the Morlet's area and similarity from
Gaussian integrals in closed form, by `_morlet_area_and_rho_sq`.  The
Morlet's peak frequency, and its nu at a given duration, are roots of
monotone functions found by the array bisection `core._bisect`, the
package's one root finder.  The double-exponential quadrature behind
`similarity_alpha_sq` and `gaussianity_rho_sq` (`props.quadrature_integral`)
stays the oracle.  Growing beta at fixed gamma shrinks the relative
bandwidth sigma_omega/omega_peak toward zero, so in that corner the
members tend to pure complex exponentials (a diagnostic, not a
constructible member).

Cross-family comparisons put every spectrum on a common footing: peak
value 2, and for Morse members a frequency axis rescaled so the peak sits
at unit frequency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (MorseParams, _analytic, _bisect, _rescaled_log_shape, duration,
                   eval_rescaled_spectrum)
from .props import (_halving_trapezoid, _heisenberg_area, _log_rescaled_energy,
                    quadrature_integral)

__all__ = [
    "MorletParams",
    "NamedWavelet",
    "FitResult",
    "BesselFitGrid",
    "LimitDeviation",
    "morlet_spectrum",
    "morlet_peak_and_duration",
    "morlet_nu_for_duration",
    "lognormal_spectrum",
    "shannon_spectrum",
    "shannon_time",
    "bessel_spectrum",
    "analytic_filter_spectrum",
    "analytic_filter_time_samples",
    "gmw_wavelet",
    "morlet_wavelet",
    "lognormal_wavelet",
    "shannon_wavelet",
    "bessel_wavelet",
    "analytic_filter_wavelet",
    "similarity_alpha_sq",
    "gaussianity_rho_sq",
    "concentration_curves",
    "bessel_fit",
    "limit_diagnostics",
]


@dataclass(frozen=True)
class MorletParams:
    """Oscillation frequency of the Morlet wavelet (radian)."""

    nu: float

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu <= 0:
            raise ValueError(f"nu must be finite and > 0 (got {self.nu})")
        # a plain float keeps the params hashable, the key of morlet_amplitude
        object.__setattr__(self, "nu", float(self.nu))


@dataclass(frozen=True)
class NamedWavelet:
    """A wavelet known to the similarity machinery by its spectrum.

    ``spectrum`` must take arrays and be evaluable at any finite
    frequency.  ``full_line`` marks spectra with negative-frequency
    support (Morlet); ``hard_upper`` marks a spectrum that vanishes
    outside (0, hard_upper] (Shannon).  These pick the map of the
    double-exponential oracle `props.quadrature_integral`.
    """

    kind: str
    params: object
    spectrum: Callable
    full_line: bool = False
    hard_upper: float | None = None
    square_integrable: bool = True


@dataclass(frozen=True)
class FitResult:
    """Outcome of the Bessel-approximation search."""

    best_params: MorseParams
    alpha_sq: float
    grid_trace: list = field(default_factory=list)


@dataclass(frozen=True)
class BesselFitGrid:
    """Coarse search box for bessel_fit (log-spaced in both axes)."""

    beta_lo: float = 1.0
    beta_hi: float = 50.0
    gamma_lo: float = 0.02
    gamma_hi: float = 2.0
    n_beta: int = 100
    n_gamma: int = 100

    def __post_init__(self):
        bounds = (self.beta_lo, self.beta_hi, self.gamma_lo, self.gamma_hi)
        if not all(0 < v < math.inf for v in bounds):  # nan included
            raise ValueError(f"grid bounds must be finite and positive (got {bounds})")
        if self.beta_hi <= self.beta_lo or self.gamma_hi <= self.gamma_lo:
            raise ValueError("grid bounds must be increasing")
        if min(self.n_beta, self.n_gamma) < 2:
            raise ValueError("need at least a 2x2 grid")


@dataclass(frozen=True)
class LimitDeviation:
    gamma: float
    beta: float
    sup_deviation: float


# ---------------------------------------------------------------------------
# Morlet
# ---------------------------------------------------------------------------


def _morlet_unnormalized(omega, nu: float):
    # exp(-(w-nu)^2/2) * (1 - exp(-w nu)) rewritten as a difference of two
    # Gaussians so no factor overflows at large negative frequency
    w = np.asarray(omega, dtype=float)
    return np.exp(-0.5 * (w - nu) ** 2) - np.exp(-0.5 * (w * w + nu * nu))


def _morlet_peak_and_duration(nu):
    """Peak frequencies and durations of the Morlet wavelets ``nu`` (an
    array, or a number; every nu >= 0.1).

    The peak solves d/dw ln Psi = nu - w + nu/expm1(w nu) = 0.  The
    derivative is strictly decreasing, positive at w = nu and negative at
    w = nu + 1, since there nu/expm1(nu (nu + 1)) < 1/(nu + 1); `_bisect`
    finds the root in that bracket.  The duration is the square root of
    minus the rescaled second log-derivative at the peak,
    w_p sqrt(1 + nu^2 s (1 + s)) with s = 1/expm1(w_p nu), the analogue of
    sqrt(beta*gamma).
    """
    nu = np.asarray(nu, dtype=float)
    if not np.all(nu >= 0.1):
        raise ValueError(f"peak solver requires nu >= 0.1 (got {np.min(nu)})")
    with np.errstate(over="ignore"):  # expm1 -> inf leaves nu/inf = 0
        wp = _bisect(lambda w: nu - w + nu / np.expm1(w * nu), nu, nu + 1.0)
        s = 1.0 / np.expm1(wp * nu)
    return wp, wp * np.sqrt(1.0 + nu * nu * s * (1.0 + s))


def morlet_peak_and_duration(m: MorletParams) -> tuple[float, float]:
    """Peak frequency and duration of the Morlet wavelet; see
    `_morlet_peak_and_duration`, which requires nu >= 0.1."""
    wp, p_dur = _morlet_peak_and_duration(m.nu)
    return float(wp), float(p_dur)


@functools.lru_cache(maxsize=64)
def morlet_amplitude(m: MorletParams) -> float:
    """Normalizing constant putting the spectral maximum at 2, solved once
    per ``MorletParams``."""
    wp, _ = morlet_peak_and_duration(m)
    return 2.0 / float(_morlet_unnormalized(wp, m.nu))


def morlet_spectrum(m: MorletParams, omega):
    """Morlet spectrum, maximum value 2.

    The zero-mean correction makes the value negative on part of the
    negative-frequency axis: the wavelet is only approximately analytic.
    """
    out = morlet_amplitude(m) * _morlet_unnormalized(omega, m.nu)
    return float(out) if np.ndim(omega) == 0 else out


def _morlet_min_duration() -> float:
    """The shortest duration `morlet_nu_for_duration` reaches, about 1.432:
    the duration at the peak solver's floor nu = 0.1.  The duration keeps
    falling towards its nu -> 0 limit sqrt(2) below that floor, but the
    solver does not go there."""
    return float(_morlet_peak_and_duration(0.1)[1])


def morlet_nu_for_duration(p_target, nu_max: float = 200.0):
    """Invert the duration map: the nu in [0.1, nu_max] whose Morlet
    duration equals p_target (a number, or an array of them), by `_bisect`
    on the duration, which increases with nu.  Targets at or below
    `_morlet_min_duration` (about 1.432, not the nu -> 0 limit sqrt(2)),
    and at or above the duration at nu_max, are unreachable and raise."""
    p = np.asarray(p_target, dtype=float)
    p_min = _morlet_min_duration()
    p_max = float(_morlet_peak_and_duration(nu_max)[1])
    if not np.all(p > p_min):
        raise ValueError(
            f"no Morlet wavelet has duration {np.min(p):.4g} "
            f"(minimum reachable is {p_min:.4g})"
        )
    if not np.all(p < p_max):
        raise ValueError(
            f"no Morlet wavelet with nu <= {nu_max:g} has duration {np.max(p):.4g} "
            f"(maximum reachable is {p_max:.4g})"
        )
    nu = _bisect(
        lambda nu: _morlet_peak_and_duration(nu)[1] - p,
        np.full_like(p, 0.1),
        np.full_like(p, nu_max),
    )
    return float(nu) if p.ndim == 0 else nu


def _morlet_area_and_rho_sq(nu):
    """Heisenberg area and `gaussianity_rho_sq` of the Morlet wavelets
    ``nu`` (an array, or a number; every nu >= 0.1) from closed-form
    Gaussian integrals over the full frequency line, at the peak and
    duration of `_morlet_peak_and_duration`.

    Up to the amplitude, which cancels in both, the spectrum is
    G1 - k G0 with G1 = exp(-(w - nu)^2/2), G0 = exp(-w^2/2) and
    k = exp(-nu^2/2).  Its square is three Gaussians of variance 1/2 about
    nu, nu/2 and 0 with weights sqrt(pi) times 1, -2 e^(-3 nu^2/4) and
    e^(-nu^2); with x = nu^2 and e(c) = expm1(-c x) the moments over
    sqrt(pi) are

        m0 = e(1) - 2 e(3/4),    m1 = -nu e(3/4),
        m2 = x/2 - (1 + x/2) e(3/4) + e(1)/2,

    and the derivative energy int |Psi'|^2 dw over sqrt(pi) is
    x/2 - (1 - x/2) e(3/4) + e(1)/2, each free of the cancellation of
    order 1 terms that the plain forms suffer at small nu.  The cross
    integral with the bell 2 exp(-q (w - w_p)^2), q = (P/w_p)^2/2, is the
    difference of two Gaussian products, and the bell's energy is
    4 sqrt(pi/(2 q)).
    """
    nu = np.asarray(nu, dtype=float)
    wp, p_dur = _morlet_peak_and_duration(nu)
    x = nu * nu
    e1, e34 = np.expm1(-x), np.expm1(-0.75 * x)
    m0 = e1 - 2.0 * e34
    m1 = -nu * e34
    m2 = 0.5 * x - (1.0 + 0.5 * x) * e34 + 0.5 * e1
    d = 0.5 * x - (1.0 - 0.5 * x) * e34 + 0.5 * e1
    mu = m1 / m0
    area = np.sqrt(d / m0) * np.sqrt(m2 / m0 - mu * mu)

    q = 0.5 * (p_dur / wp) ** 2
    c = q / (1.0 + 2.0 * q)
    # int (G1 - k G0) exp(-q (w - w_p)^2) dw / sqrt(pi/(1/2 + q))
    #   = exp(-c (w_p - nu)^2) - exp(-x/2 - c w_p^2)
    cross = np.exp(-c * (wp - nu) ** 2) * -np.expm1(
        -0.5 * x - c * nu * (2.0 * wp - nu)
    )
    # (2 cross)^2 pi/(1/2 + q) over (sqrt(pi) m0 times 4 sqrt(pi/(2 q)))
    rho_sq = cross * cross * np.sqrt(2.0 * q) / ((0.5 + q) * m0)
    return area, rho_sq


# ---------------------------------------------------------------------------
# other named spectra
# ---------------------------------------------------------------------------


def lognormal_spectrum(p_duration: float, omega):
    """Lognormal (log Gabor) spectrum 2 exp(-P^2 ln^2(w) / 2), zero for
    w <= 0; symmetric in w <-> 1/w with peak value 2 at unit frequency."""
    if not 0 < p_duration < math.inf:
        raise ValueError(f"duration must be finite and > 0 (got {p_duration})")
    return _analytic(omega, lambda w: 2.0 * np.exp(-0.5 * p_duration**2 * np.log(w) ** 2))


def shannon_spectrum(omega):
    """Ideal band-pass rectangle: 2 on 0 < w <= 1, else 0."""
    return _analytic(omega, lambda w: np.where(w <= 1.0, 2.0, 0.0))


def shannon_time(t):
    """Time-domain Shannon form pi*sinc(t/2pi)*exp(it), with
    sinc(x) = sin(pi x)/(pi x).  Decays only like 1/t.

    Note the conventional published form evaluated here is pi^2 times, and
    a half-unit carrier shift away from, the exact inverse transform of
    the unit band-pass spectrum: its own spectrum is 2*pi^2 on the band
    (1/2, 3/2].
    """
    tt = np.asarray(t, dtype=float)
    out = np.pi * np.sinc(tt / (2.0 * np.pi)) * np.exp(1j * tt)
    return complex(out) if np.ndim(t) == 0 else out


def bessel_spectrum(omega):
    """Bessel wavelet spectrum 2 e^2 exp(-(w + 1/w)) for w > 0, else 0.

    Essentially zero at the origin (every derivative vanishes) and peak
    value 2 at unit frequency.
    """
    return _analytic(omega, lambda w: 2.0 * np.exp(2.0 - (w + 1.0 / w)))


def analytic_filter_spectrum(omega):
    """Twice the analytic filter: 2 for w > 0, 0 otherwise."""
    return _analytic(omega, lambda w: 2.0)


def analytic_filter_time_samples(n: int, dt: float):
    """Band-limited realization of the analytic filter's time side.

    The exact time-domain object is a delta plus the Hilbert kernel
    i/(pi t) and is not a function; the only faithful sampled form is the
    inverse DFT of the sampled spectrum over the nonnegative bins (the
    filter never decays, so the band edge is the Nyquist bin by
    construction), centered on the grid midpoint.
    """
    if n < 16 or dt <= 0:
        raise ValueError("need n >= 16 and dt > 0")
    k = np.arange(n)
    spec = np.zeros(n)
    spec[1 : n // 2 + 1] = 2.0
    values = np.roll(np.fft.ifft(spec), n // 2) / dt
    times = (k - n // 2) * dt
    return times, values


# ---------------------------------------------------------------------------
# NamedWavelet constructors
# ---------------------------------------------------------------------------


def gmw_wavelet(p: MorseParams) -> NamedWavelet:
    """Morse member with its frequency axis rescaled so the peak sits at
    unit frequency, matching the canonical scale of the other named
    spectra (all of which peak at or band-limit to w = 1)."""
    if p.beta <= 0:
        raise ValueError("cross-family comparison needs beta > 0")
    return NamedWavelet(
        kind="gmw",
        params=p,
        spectrum=lambda w: eval_rescaled_spectrum(p, w),
    )


def morlet_wavelet(m: MorletParams | float) -> NamedWavelet:
    if not isinstance(m, MorletParams):
        m = MorletParams(float(m))
    morlet_amplitude(m)  # solves and caches the peak, so nu < 0.1 raises here
    return NamedWavelet(
        kind="morlet",
        params=m,
        spectrum=lambda w: morlet_spectrum(m, w),
        full_line=True,
    )


def lognormal_wavelet(p_duration: float) -> NamedWavelet:
    return NamedWavelet(
        kind="lognormal",
        params=p_duration,
        spectrum=lambda w: lognormal_spectrum(p_duration, w),
    )


def shannon_wavelet() -> NamedWavelet:
    return NamedWavelet(
        kind="shannon", params=None, spectrum=shannon_spectrum, hard_upper=1.0
    )


def bessel_wavelet() -> NamedWavelet:
    return NamedWavelet(kind="bessel", params=None, spectrum=bessel_spectrum)


def analytic_filter_wavelet() -> NamedWavelet:
    return NamedWavelet(
        kind="analytic_filter",
        params=None,
        spectrum=analytic_filter_spectrum,
        square_integrable=False,
    )


# ---------------------------------------------------------------------------
# similarity functionals
# ---------------------------------------------------------------------------


def _cross_integral(w1: NamedWavelet, w2: NamedWavelet) -> float:
    uppers = [u for u in (w1.hard_upper, w2.hard_upper) if u is not None]
    hard_upper = min(uppers) if uppers else None
    # a band-limited factor vanishes outside (0, hard_upper], so does the product
    full = hard_upper is None and (w1.full_line or w2.full_line)
    f = lambda w: np.asarray(w1.spectrum(w), dtype=float) * np.asarray(
        w2.spectrum(w), dtype=float
    )
    return quadrature_integral(f, full_line=full, hard_upper=hard_upper)


def similarity_alpha_sq(w1: NamedWavelet, w2: NamedWavelet) -> float:
    """Squared inner product of two unit-energy spectra, in [0, 1].

    Both supported spectra are real, so the time-domain magnitude-squared
    inner product equals its frequency-domain counterpart by Parseval:
    (int S1 S2)^2 / (int S1^2 * int S2^2).  Equals 1 only for identical
    shapes (Cauchy-Schwarz).
    """
    for w in (w1, w2):
        if not w.square_integrable:
            raise ValueError(f"{w.kind} spectrum is not square integrable")
    num = _cross_integral(w1, w2)
    return float(num * num / (_cross_integral(w1, w1) * _cross_integral(w2, w2)))


def _peak_and_duration_of(w: NamedWavelet) -> tuple[float, float]:
    if w.kind == "gmw":
        return 1.0, duration(w.params)  # rescaled spectrum peaks at 1
    if w.kind == "morlet":
        return morlet_peak_and_duration(w.params)
    raise ValueError(f"no peak/duration definition for kind {w.kind!r}")


def gaussianity_rho_sq(w: NamedWavelet) -> float:
    """Similarity of a wavelet to the Gaussian bell implied by its own
    peak frequency and duration, 2 exp(-P^2 (w/w_p - 1)^2 / 2), both
    normalized to unit energy.

    The Morlet is integrated over the full frequency line (its correction
    term lives partly at negative frequency); Morse members over (0, inf).
    """
    wp, p_dur = _peak_and_duration_of(w)
    rate = 0.5 * (p_dur / wp) ** 2

    def gauss(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(under="ignore"):
            return 2.0 * np.exp(-rate * (x - wp) ** 2)

    gw = NamedWavelet(kind="gaussian_form", params=None, spectrum=gauss, full_line=w.full_line)
    return similarity_alpha_sq(w, gw)


# ---------------------------------------------------------------------------
# Bessel fit
# ---------------------------------------------------------------------------


# Self-sizing rule: `props._halving_trapezoid` in u = ln w from step 1/8.
# So u = 0, where every spectrum here peaks, is a node on every level, and
# a bump narrower than the step makes successive sums differ by about 2x
# rather than agree by accident.  The rule converges geometrically for
# these smooth integrands, which decay at both ends of the window
# (Trefethen and Weideman, SIAM Review 56, 2014), so two successive sums
# bound its error.

_FIRST_STEP = 0.125  # node spacing in u at the first level
_RTOL = 1e-10
_HALVINGS = 12
# integrand values held at once (2 MB): narrow spectra need many nodes,
# and a long row times many nodes would otherwise take GBs
_TRAPEZOID_BLOCK = 1 << 18


def _morse_similarity(betas, gammas, other):
    """alpha^2 between the peak-rescaled Morse spectra (betas, gammas),
    broadcast against each other, and one other spectrum S_o.

    ``other(b, g)``, on the flattened betas and gammas, gives ln 2 + ln S_o
    + u as a function of an index array of cells and the nodes u, ln int
    S_o^2 dw, and the window in u = ln w (u_lo < 0 < u_hi).  The Morse
    self-energies are closed form.  The cross integral int S_m S_o dw is the
    rule above, with each level's new nodes in blocks of at most
    _TRAPEZOID_BLOCK values; each cell halves its own step, so a grid call
    equals the scalar calls bit for bit.
    """
    scalar = np.ndim(betas) == 0 and np.ndim(gammas) == 0
    b, g = np.broadcast_arrays(
        *np.atleast_1d(np.asarray(betas, dtype=float), np.asarray(gammas, dtype=float))
    )
    shape, b, g = b.shape, b.ravel(), g.ravel()
    log_factor, log_energy, u_lo, u_hi = other(b, g)

    def sums(cells, u):
        chunk = max(1, _TRAPEZOID_BLOCK // max(u.size, 1))  # a level may add no node
        per_cell = np.empty(cells.size)
        for i in range(0, cells.size, chunk):
            c = cells[i : i + chunk]
            # in place: a new block-sized array per step measured slower
            with np.errstate(over="ignore", under="ignore"):
                log_f = _rescaled_log_shape(b[c, None], g[c, None], u)
                log_f += log_factor(c, u)
                np.exp(log_f, out=log_f).sum(axis=-1, out=per_cell[i : i + chunk])
        return per_cell

    cross = _halving_trapezoid(sums, b.size, u_lo, u_hi, _FIRST_STEP, _RTOL, _HALVINGS,
                               "trapezoid rule in ln w")
    out = np.exp(2.0 * np.log(cross) - _log_rescaled_energy(b, g) - log_energy)
    return float(out[0]) if scalar else out.reshape(shape)


# The Bessel cross integral int S_m S_b dw runs over a fixed window in u:
# outside [1e-3, 60] the Bessel factor e^(2 - w - 1/w) is below 1e-26 while
# the peak-rescaled Morse factor never exceeds 2, whatever (beta, gamma).
_BESSEL_LOG_LO, _BESSEL_LOG_HI = math.log(1e-3), math.log(60.0)
# ln int S_b^2 dw = ln(4 e^4 int exp(-2(w + 1/w)) dw) = ln(8 e^4 K_1(4)), with
# K_1(4) = 0.0124834988872684314703... rounded to the nearest double
_LOG_E_BESSEL = math.log(8.0 * 0.012483498887268432) + 4.0


def _bessel_alpha_sq(betas, gammas):
    """`_morse_similarity` of the Morse spectra (betas, gammas) and the
    Bessel spectrum, whose energy is 8 e^4 K_1(4).  Agrees with the
    double-exponential oracle `similarity_alpha_sq` to about 1e-12."""

    def bessel(b, g):  # ln 2 + ln S_b + u, where 2 cosh u = w + 1/w
        log_factor = lambda cells, u: math.log(4.0) + 2.0 + u - 2.0 * np.cosh(u)
        return log_factor, _LOG_E_BESSEL, _BESSEL_LOG_LO, _BESSEL_LOG_HI

    return _morse_similarity(betas, gammas, bessel)


# the rho^2 window drops integrand values below this (the integrals are
# of order 1/P, and P stays far below 1e20)
_LOG_RHO_TAIL = math.log(1e-30)


def _morse_rho_sq(betas, gammas):
    """`gaussianity_rho_sq` of the Morse members (betas, gammas), broadcast
    against each other, without quadrature; requires beta > 0.

    The Gaussian bell is 2 exp(-P^2 (w - 1)^2 / 2) on the peak-rescaled axis
    (P = sqrt(beta*gamma)), with energy 2 sqrt(pi) (1 + erf P) / P over
    (0, inf).  `_morse_similarity` runs on one window for all the members.
    The cross integrand is at most 4 exp((1 + beta) u + beta/gamma) below
    the peak, since both factors are at most 2 and S_m <= 2 w**beta
    e**(beta/gamma), so the window's lower end is set by the smallest beta;
    above the peak it is at most 4 exp(u - P^2 (w - 1)^2 / 2), so the upper
    end is set by the smallest P.  On the default `curves` grid this agrees
    with mpmath to about 3e-15.
    """

    def bell(b, g):
        p_dur = np.sqrt(b * g)
        rate = 0.5 * p_dur * p_dur
        u_lo = float(np.min((_LOG_RHO_TAIL - b / g) / (1.0 + b)))
        # w - 1 = sqrt(L/rate) + 1/rate gives rate (w - 1)^2 - ln w >= L = -tail
        u_hi = float(np.max(np.log1p(np.sqrt(-_LOG_RHO_TAIL / rate) + 1.0 / rate)))
        erf_p = np.fromiter(map(math.erf, p_dur), float, p_dur.size)
        log_e_bell = np.log(2.0 * math.sqrt(math.pi) * (1.0 + erf_p) / p_dur)
        return (lambda cells, u: math.log(4.0) + u - rate[cells, None] * np.expm1(u) ** 2,
                log_e_bell, u_lo, u_hi)

    return _morse_similarity(betas, gammas, bell)


def concentration_curves(p_grid, gammas):
    """The inverse Heisenberg area 1/A and the Gaussian similarity rho^2
    against duration P, without quadrature: of the Morse members beta =
    P^2/gamma for each of ``gammas``, and of the Morlet of duration P.

    Returns ((inv_area, defined), (rho_sq, defined), p_min): each table has
    a row per P and a column per gamma, the Morlet's last, and is nan where
    its ``defined`` is False: a Morse 1/A where beta <= 1/2 (the area is
    unbounded), a Morse rho^2 where beta = 0, and the Morlet cells where P
    <= p_min = `_morlet_min_duration`, which no Morlet reaches.  A defined
    cell may itself be nan.  Raises ValueError from P at the Morlet's
    duration at nu = 200 on, and QuadratureError where a Morse spectrum is
    too narrow for `_morse_rho_sq`.
    """
    # each column kind in one call on the whole (P, gamma) grid
    g_row = np.asarray(gammas, dtype=float)
    b_grid = np.square(p_grid)[:, None] / g_row
    inv_area = 1.0 / _heisenberg_area(b_grid, g_row)
    # placeholders keep undefined cells out of the kernels: beta = 1 for
    # beta = 0 (P = 0), and P = 3 for a P that no Morlet reaches
    rho = _morse_rho_sq(np.where(b_grid > 0, b_grid, 1.0), g_row)
    p_min = _morlet_min_duration()
    reach = np.asarray(p_grid) > p_min
    m_area, m_rho = _morlet_area_and_rho_sq(morlet_nu_for_duration(np.where(reach, p_grid, 3.0)))

    def table(morse, morlet, defined):
        defined = np.column_stack((defined, reach))
        return np.where(defined, np.column_stack((morse, morlet)), np.nan), defined

    return table(inv_area, 1.0 / m_area, b_grid > 0.5), table(rho, m_rho, b_grid > 0), p_min


# compass moves, then diagonal ones: along the ridge beta*gamma ~ 2.2 (the
# direction (1, -1) in log coordinates) no single-axis move improves
_MOVES = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
    dtype=float,
)


def bessel_fit(grid: BesselFitGrid | None = None) -> FitResult:
    """Search the (beta, gamma) plane for the best Bessel-wavelet match.

    A coarse log-spaced grid scan (row-major over beta then gamma) is
    followed by a derivative-free pattern search in log-parameter space:
    at each step size it tries the four compass moves and the four
    diagonal ones, keeping any that improves, halves the step once none
    does, and stops when the step falls below 1e-3.  The diagonal moves
    let the search follow the ridge beta*gamma ~ 2.2, on which compass
    moves alone stall.  The trace records every coarse-grid evaluation in
    row-major order, then the refinement path.

    alpha^2 comes from `_bessel_alpha_sq`, the whole coarse grid in one
    call, which scores each point as a single call would; the tests hold
    it to the double-exponential oracle `similarity_alpha_sq`.

    The refinement scores a poll's remaining moves, those that clipping to
    the box does not leave at x, in one call, and walks the scores in move
    order.  At the first improvement it moves x, drops the rest of the
    batch, and scores the moves after it from the new x in a new call.
    Since a batch scores each point as a single call would, the trace, the
    best point and alpha^2 are those of scoring one move at a time.  A
    dropped move may be one that search never scores.  It lies inside the
    box, where the rule raises `QuadratureError` once the spectrum is
    narrower than its finest step, and the largest-P corner (beta_hi,
    gamma_hi), which the coarse scan has already scored, raises first.
    The one exception is beta from about 7e5 on, where rounding in the log
    shape can keep two sums of a single point more than 1e-10 apart.
    """
    if grid is None:
        grid = BesselFitGrid()

    betas = np.geomspace(grid.beta_lo, grid.beta_hi, grid.n_beta)
    gammas = np.geomspace(grid.gamma_lo, grid.gamma_hi, grid.n_gamma)
    scan = _bessel_alpha_sq(betas[:, None], gammas).tolist()
    trace = [(b, g, a2) for b, row in zip(betas.tolist(), scan)
             for g, a2 in zip(gammas.tolist(), row)]
    best = max(trace, key=lambda t: t[2])  # the first best: max replaces on a strict >

    # pattern-search refinement in log coordinates, clipped to the box
    log_lo = np.log(np.array([grid.beta_lo, grid.gamma_lo]))
    log_hi = np.log(np.array([grid.beta_hi, grid.gamma_hi]))
    x, fx = np.log(np.array(best[:2])), best[2]
    step = float(max(np.log(betas[1] / betas[0]), np.log(gammas[1] / gammas[0])))
    while step >= 1e-3:
        improved = False
        first = 0  # the poll's moves from `first` on are still to be scored
        while first < len(_MOVES):
            cands = np.clip(x + step * _MOVES[first:], log_lo, log_hi)
            # the moves that clipping to the box does not leave at x
            moved = np.flatnonzero((cands != x).any(axis=1)).tolist()
            b = [float(np.exp(cands[k, 0])) for k in moved]
            g = [float(np.exp(cands[k, 1])) for k in moved]
            start, first = first, len(_MOVES)
            for k, bk, gk, a2 in zip(moved, b, g, _bessel_alpha_sq(b, g).tolist()):
                trace.append((bk, gk, a2))
                if a2 > fx:
                    # the rest of this batch was scored from the old x
                    x, fx, improved = cands[k], a2, True
                    first = start + k + 1
                    break
        if not improved:
            step *= 0.5

    beta, gamma = float(np.exp(x[0])), float(np.exp(x[1]))
    return FitResult(
        best_params=MorseParams(beta, gamma), alpha_sq=fx, grid_trace=trace
    )


# ---------------------------------------------------------------------------
# limiting-form diagnostics
# ---------------------------------------------------------------------------

_LIMIT_GRID = np.arange(0.05, 4.0 + 1e-12, 0.002)


def limit_diagnostics(
    p_duration: float, gammas, target: str = "lognormal"
) -> list[LimitDeviation]:
    """Sup-norm distance of the peak-rescaled Morse spectrum from a
    limiting form, at fixed duration P (so beta = P^2/gamma).

    target="lognormal" compares against 2 exp(-P^2 ln^2 w / 2), the
    gamma -> 0 limit; target="shannon" against the unit band-pass
    rectangle, the gamma -> inf limit, excluding a +-0.05 band around the
    discontinuity at w = 1 where pointwise convergence fails.  The grid
    is fixed at w in [0.05, 4] with step 0.002.
    """
    if not 0 < p_duration < math.inf:
        raise ValueError(f"duration must be finite and > 0 (got {p_duration})")
    if target not in ("lognormal", "shannon"):
        raise ValueError(f"unknown target {target!r}")

    w = _LIMIT_GRID
    if target == "lognormal":
        ref = lognormal_spectrum(p_duration, w)
        mask = np.ones_like(w, dtype=bool)
    else:
        ref = shannon_spectrum(w)
        mask = np.abs(w - 1.0) >= 0.05

    rows = []
    for g in gammas:
        beta = p_duration**2 / g
        phi = eval_rescaled_spectrum(MorseParams(beta, g), w)
        dev = float(np.max(np.abs(phi - ref)[mask]))
        rows.append(LimitDeviation(gamma=float(g), beta=float(beta), sup_deviation=dev))
    return rows

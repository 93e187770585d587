"""Computations made apart from morsekit, against which the benchmark
checks the program's outputs.

Nothing here imports morsekit.  Each quantity is derived afresh:

- Morse Heisenberg areas and frequency skewness from the
  generalized-gamma integrals, evaluated in mpmath at 30 digits;
- the Bessel similarity alpha^2 by a dense trapezoid rule in log
  frequency (numpy only), and the Bessel optimum by Nelder-Mead on it;
- CWT columns from the numpy FFT, a log-space Morse filter evaluated only
  at nonnegative bins, and explicitly built zero or symmetric padding;
- the CWT scale-grid endpoints by bisection for the aliasing cutoff and
  the closed form for the footprint cutoff.

Run ``python3 perfbench/reference.py`` to locate the Bessel optimum.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 30

# criterion 1's box around the Bessel optimum
BOX_BETA = (20.0, 24.0)
BOX_GAMMA = (0.08, 0.12)


# ---------------------------------------------------------------------------
# generalized-gamma closed forms at 30 digits
# ---------------------------------------------------------------------------


def _gengamma(q, g):
    """int_0^inf w**q exp(-2 w**g) dw = Gamma(r) / (g 2**r), r = (q+1)/g."""
    r = (q + 1) / g
    return mpmath.gamma(r) / (g * mpmath.power(2, r))


def heisenberg_area(beta: float, gamma: float) -> float:
    """sigma_t * sigma_omega of the Morse wavelet (beta > 1/2).

    With |Psi|^2 = a^2 w^(2b) exp(-2 w^g), the frequency moments of the
    energy density are ratios of generalized-gamma integrals, and
    sigma_t^2 = int |Psi'|^2 / int |Psi|^2 (Parseval, zero mean time for a
    real spectrum), where |Psi'|^2 expands into three more.
    """
    with mpmath.workdps(DPS):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        i0 = _gengamma(2 * b, g)
        mean = _gengamma(2 * b + 1, g) / i0
        var_w = _gengamma(2 * b + 2, g) / i0 - mean**2
        var_t = (
            b**2 * _gengamma(2 * b - 2, g)
            - 2 * b * g * _gengamma(2 * b + g - 2, g)
            + g**2 * _gengamma(2 * b + 2 * g - 2, g)
        ) / i0
        return float(mpmath.sqrt(var_t * var_w))


def skewness(beta: float, gamma: float) -> float:
    """Standardized third central moment of the Morse energy density."""
    with mpmath.workdps(DPS):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        i0 = _gengamma(2 * b, g)
        m1, m2, m3 = (_gengamma(2 * b + n, g) / i0 for n in (1, 2, 3))
        var = m2 - m1**2
        return float((m3 - 3 * m1 * var - m1**3) / var**1.5)


# ---------------------------------------------------------------------------
# Bessel similarity by a log-frequency trapezoid
# ---------------------------------------------------------------------------

_U_COARSE = np.linspace(-400.0, 400.0, 40001)
_DENSE = 8001
_DROP = 75.0  # window edge: integrand below exp(-75) of its maximum


def _log_trapezoid(log_f) -> tuple[float, float]:
    """int_0^inf f(w) dw as int f(e^u) e^u du, with log_f(u) = ln(f(e^u) e^u).

    Returns (I * exp(-top), top) with top the log of the integrand's
    maximum, so that integrals beyond double range stay representable.
    The integrand is smooth and decays at both ends, so the trapezoid rule
    on a uniform u grid converges geometrically; the grid spans the window
    where the integrand is within exp(-75) of its maximum.
    """
    with np.errstate(all="ignore"):
        lc = log_f(_U_COARSE)
    lc = np.where(np.isfinite(lc), lc, -np.inf)
    top = lc.max()
    keep = np.nonzero(lc > top - _DROP)[0]
    step = _U_COARSE[1] - _U_COARSE[0]
    lo = _U_COARSE[keep[0]] - step
    hi = _U_COARSE[keep[-1]] + step
    u = np.linspace(lo, hi, _DENSE)
    with np.errstate(all="ignore"):
        lf = log_f(u)
    vals = np.exp(np.where(np.isfinite(lf), lf - top, -np.inf))
    return float(vals.sum() * (u[1] - u[0])), float(top)


def _log_morse(beta, gamma, u):
    # ln of the peak-rescaled Morse spectrum 2 w^b exp(b/g (1 - w^g))
    return math.log(2.0) + beta * u + (beta / gamma) * (1.0 - np.exp(gamma * u))


def _log_bessel(u):
    # ln of the Bessel spectrum 2 e^2 exp(-(w + 1/w))
    return math.log(2.0) + 2.0 - np.exp(u) - np.exp(-u)


_E_BESSEL = _log_trapezoid(lambda u: 2.0 * _log_bessel(u) + u)


def bessel_alpha_sq(beta: float, gamma: float) -> float:
    """(int S_m S_b)^2 / (int S_m^2 int S_b^2) for the peak-rescaled Morse
    spectrum S_m and the Bessel spectrum S_b."""
    cross, lc = _log_trapezoid(lambda u: _log_morse(beta, gamma, u) + _log_bessel(u) + u)
    self_m, lm = _log_trapezoid(lambda u: 2.0 * _log_morse(beta, gamma, u) + u)
    self_b, lb = _E_BESSEL
    return cross * cross / (self_m * self_b) * math.exp(2.0 * lc - lm - lb)


def bessel_optimum():
    """Maximize bessel_alpha_sq by Nelder-Mead in log parameters, started
    at the paper's (22, 1/10).  Returns (beta, gamma, alpha_sq)."""
    from scipy.optimize import minimize

    res = minimize(
        lambda x: -bessel_alpha_sq(math.exp(x[0]), math.exp(x[1])),
        x0=[math.log(22.0), math.log(0.1)],
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-15, "maxiter": 4000},
    )
    return math.exp(res.x[0]), math.exp(res.x[1]), -float(res.fun)


def in_box(beta: float, gamma: float) -> bool:
    """True where (beta, gamma) lies in criterion 1's box."""
    return BOX_BETA[0] <= beta <= BOX_BETA[1] and BOX_GAMMA[0] <= gamma <= BOX_GAMMA[1]


# ---------------------------------------------------------------------------
# CWT
# ---------------------------------------------------------------------------


def morse_filter(beta: float, gamma: float, omega: np.ndarray) -> np.ndarray:
    """Morse spectrum with peak value 2, zero at omega <= 0."""
    log_wp = (math.log(beta) - math.log(gamma)) / gamma
    out = np.zeros(len(omega))
    pos = omega > 0
    lx = np.log(omega[pos]) - log_wp
    with np.errstate(under="ignore", over="ignore"):
        out[pos] = 2.0 * np.exp(beta * lx + (beta / gamma) * (1.0 - np.exp(gamma * lx)))
    return out


def padded(x: np.ndarray, boundary: str):
    """(buffer, offset): the signal itself for 'periodic'; else centered in
    the next power of two at or above 2n, with zeros or an even reflection
    that repeats the edge sample."""
    n = len(x)
    if boundary == "periodic":
        return x, 0
    m = 1 << (2 * n - 1).bit_length()
    left = (m - n) // 2
    j = np.arange(m) - left
    if boundary == "zero":
        buf = np.zeros(m, dtype=x.dtype)
        buf[left : left + n] = x
        return buf, left
    r = np.mod(j, 2 * n)
    return x[np.where(r < n, r, 2 * n - 1 - r)], left


class CwtReference:
    """Independent transform columns for one signal and boundary."""

    def __init__(self, x: np.ndarray, boundary: str, beta: float, gamma: float):
        buf, self.offset = padded(np.asarray(x), boundary)
        self.n = len(x)
        self.m = len(buf)
        self.spectrum = np.fft.fft(buf)
        self.beta, self.gamma = beta, gamma
        self.omega = 2.0 * np.pi * np.arange(self.m // 2 + 1) / self.m

    def column(self, scale: float) -> np.ndarray:
        filt = np.zeros(self.m)
        filt[: self.m // 2 + 1] = morse_filter(self.beta, self.gamma, scale * self.omega)
        return np.fft.ifft(self.spectrum * filt)[self.offset : self.offset + self.n]


def scale_endpoints(n: int, beta: float, gamma: float, eta: float, p0: float):
    """(s_min, s_max): s_min puts the spectrum at the Nyquist rate pi at
    eta of its peak, on the decaying flank; s_max = n w_p / (2 P p0)."""
    wp = math.exp((math.log(beta) - math.log(gamma)) / gamma)
    f = lambda w: morse_filter(beta, gamma, np.array([w]))[0] - 2.0 * eta
    lo, hi = wp, 2.0 * wp
    while f(hi) > 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / math.pi, n * wp / (2.0 * math.sqrt(beta * gamma) * p0)


if __name__ == "__main__":
    b, g, a2 = bessel_optimum()
    print(f"Bessel optimum: beta={b:.6f} gamma={g:.8f} alpha_sq={a2:.12f}")
    print(f"inside criterion 1's box {BOX_BETA} x {BOX_GAMMA}: {in_box(b, g)}")

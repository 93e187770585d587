"""Energy moments, time/frequency spreads, Heisenberg area, and skewness.

Closed forms come from the generalized-gamma integral

    int_0^inf w**q exp(-2 w**gamma) dw = Gamma((q+1)/gamma) /
                                         (gamma * 2**((q+1)/gamma))

evaluated through log-gamma, once, as kernels on raw (beta, gamma) arrays
that broadcast over a whole grid of the parameter plane; the MorseParams
functions wrap them.  An independent adaptive-quadrature oracle
(`quadrature_moment`, `quadrature_integral`) checks every closed form; no
CLI command calls it.  Its QUADPACK fallback imports `scipy.integrate` on
first use, so importing this module does not load it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .core import MorseParams, log_amplitude_constant, peak_frequency

__all__ = [
    "PropertySummary",
    "MomentTable",
    "QuadratureError",
    "energy_moment",
    "log_energy_moment",
    "moment_table",
    "mean_frequency",
    "sigma_omega",
    "sigma_t",
    "heisenberg_area",
    "skewness_freq",
    "property_summary",
    "quadrature_moment",
    "quadrature_integral",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class PropertySummary:
    """Scalar properties of one wavelet.

    ``sigma_t`` and ``heisenberg_area`` are +inf for beta <= 1/2, where the
    temporal spread is unbounded.
    """

    peak_frequency: float
    duration: float
    sigma_t: float
    sigma_omega: float
    heisenberg_area: float
    skewness: float


@dataclass(frozen=True)
class MomentTable:
    """Energy moments int w**n |Psi|^2 dw by order, for one parameter pair."""

    params: MorseParams
    m: dict[int, float] = field(default_factory=dict)


def _log_gengamma_integral(gamma, q):
    """ln of int_0^inf w**q exp(-2 w**gamma) dw; requires q > -1.

    Takes numbers, or arrays of gamma and q that broadcast (whole rows of
    the parameter plane).
    """
    r = (q + 1.0) / gamma
    if np.any(r <= 0):
        raise ValueError(f"divergent integral: needs exponent q > -1 (got q={q})")
    return gammaln(r) - np.log(gamma) - r * math.log(2.0)


def log_energy_moment(p: MorseParams, n: int) -> float:
    """ln of the order-n energy moment int_0^inf w**n |Psi(w)|**2 dw."""
    if 2 * p.beta + n + 1 <= 0:
        raise ValueError(
            f"energy moment diverges: 2*beta + n + 1 = {2 * p.beta + n + 1} <= 0"
        )
    return 2.0 * log_amplitude_constant(p) + _log_gengamma_integral(
        p.gamma, 2.0 * p.beta + n
    )


def energy_moment(p: MorseParams, n: int) -> float:
    """Order-n energy moment of the spectrum, a**2 Gamma(r)/(gamma 2**r)
    with r = (2 beta + n + 1)/gamma."""
    return float(np.exp(log_energy_moment(p, n)))


def moment_table(p: MorseParams, orders=(0, 1, 2, 3)) -> MomentTable:
    return MomentTable(params=p, m={n: energy_moment(p, n) for n in orders})


def _log_moment_ratios(beta, gamma, *orders):
    """ln of m_n / (m_0 w_p**n) for each order n, stacked on a new last
    axis: the energy moments m_n = int w**n |Psi|^2 dw relative to m_0, in
    units of the peak frequency.

    With r = (2 beta + 1)/gamma and s = n/gamma this is

        ln Gamma(r + s) - ln Gamma(r) - s ln(2 beta/gamma),

    since the amplitude constant cancels and w_p**gamma = beta/gamma.  The
    ratio is representable where m_n/m_0 ~ w_p**n is not (w_p reaches
    1e150+ at small gamma).  Takes raw (beta, gamma) that broadcast, like
    core._rescaled_log_shape, so a whole grid of the parameter plane is one
    call; each order is a number or an array broadcasting with them, and
    must exceed -(2 beta + 1).  Requires beta > 0.
    """
    b = np.asarray(beta, dtype=float)[..., None]
    g = np.asarray(gamma, dtype=float)[..., None]
    r = (2.0 * b + 1.0) / g
    s = np.stack(np.broadcast_arrays(*orders), axis=-1) / g
    return gammaln(r + s) - gammaln(r) - s * np.log(2.0 * b / g)


def _rescaled_sigma_omega(beta, gamma):
    """sigma_omega / w_p on raw (beta, gamma) arrays; requires beta > 0."""
    r1, r2 = np.exp(np.moveaxis(_log_moment_ratios(beta, gamma, 1.0, 2.0), -1, 0))
    return np.sqrt(r2 - r1 * r1)


def _rescaled_sigma_t(beta, gamma):
    """sigma_t * w_p on raw (beta, gamma) arrays; requires beta > 1/2.

    Uses the derivative identity int t^2 |psi|^2 dt =
    (1/2pi) int |Psi'(w)|^2 dw together with a centered wavelet (the
    spectrum is real and nonnegative, so psi(-t) = conj(psi(t)) and the
    temporal mean vanishes).  With Psi' = a (beta w**(beta-1) -
    gamma w**(beta+gamma-1)) exp(-w**gamma) and w_p**gamma = beta/gamma,
    (sigma_t w_p)**2 = beta**2 (R(-2) - 2 R(gamma-2) + R(2 gamma-2)) in the
    rescaled moment ratios R.  The three terms are combined relative to
    the largest, so extreme parameters neither overflow nor turn the
    cancellation into noise.
    """
    g = np.asarray(gamma, dtype=float)
    logs = _log_moment_ratios(beta, g, -2.0, g - 2.0, 2.0 * g - 2.0)
    logs[..., 1] += math.log(2.0)
    top = logs.max(axis=-1)
    e = np.exp(logs - top[..., None])
    return beta * np.exp(0.5 * top) * np.sqrt(e[..., 0] - e[..., 1] + e[..., 2])


def _heisenberg_area(beta, gamma):
    """sigma_t * sigma_omega on raw (beta, gamma) arrays that broadcast;
    +inf where beta <= 1/2.  Scale-free, so the peak frequency never
    enters."""
    b, g = np.broadcast_arrays(
        np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float)
    )
    bounded = b > 0.5
    # a placeholder beta keeps the unbounded cells out of the log-gamma terms
    b = np.where(bounded, b, 1.0)
    area = _rescaled_sigma_t(b, g) * _rescaled_sigma_omega(b, g)
    return np.where(bounded, area, np.inf)


def _skewness(beta, gamma):
    """Frequency skewness on raw (beta, gamma) arrays; requires beta > 0."""
    r1, r2, r3 = np.exp(
        np.moveaxis(_log_moment_ratios(beta, gamma, 1.0, 2.0, 3.0), -1, 0)
    )
    var = r2 - r1 * r1
    return (r3 - 3.0 * r1 * var - r1**3) / var**1.5


def mean_frequency(p: MorseParams) -> float:
    """Energy-weighted mean frequency m1/m0."""
    if p.beta <= 0:
        raise ValueError("mean frequency requires beta > 0")
    r1 = float(np.exp(_log_moment_ratios(p.beta, p.gamma, 1.0)[0]))
    return r1 * peak_frequency(p)


def sigma_omega(p: MorseParams) -> float:
    """Frequency-domain standard deviation of the energy density |Psi|^2."""
    if p.beta <= 0:
        raise ValueError("sigma_omega requires beta > 0")
    return float(_rescaled_sigma_omega(p.beta, p.gamma)) * peak_frequency(p)


def sigma_t(p: MorseParams) -> float:
    """Time-domain standard deviation; +inf for beta <= 1/2."""
    if p.beta <= 0.5:
        return math.inf
    return float(_rescaled_sigma_t(p.beta, p.gamma)) / peak_frequency(p)


def heisenberg_area(p: MorseParams) -> float:
    """Time-bandwidth product sigma_t * sigma_omega; +inf for beta <= 1/2.

    Bounded below by 1/2 and approaches that bound for large beta near
    gamma = 3.
    """
    return float(_heisenberg_area(p.beta, p.gamma))


def skewness_freq(p: MorseParams) -> float:
    """Standardized third central moment of the normalized energy density.

    Positive for small gamma (long high-frequency tail), negative for
    large gamma; the zero crossing tends to gamma = 3 as beta grows.
    Scale-free: evaluated on peak-rescaled moments.
    """
    if p.beta <= 0:
        raise ValueError("skewness requires beta > 0")
    return float(_skewness(p.beta, p.gamma))


def property_summary(p: MorseParams) -> PropertySummary:
    """All scalar properties for one parameter pair (requires beta > 0)."""
    return PropertySummary(
        peak_frequency=peak_frequency(p),
        duration=float(np.sqrt(p.beta * p.gamma)),
        sigma_t=sigma_t(p),
        sigma_omega=sigma_omega(p),
        heisenberg_area=heisenberg_area(p),
        skewness=skewness_freq(p),
    )


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

_TRUNCATION = 1e-18  # integrand cut relative to its maximum
_COARSE_PROBE = 1024
_FINE_PROBE = 512


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to scalar calls."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.asarray([float(f(v)) for v in x], dtype=float)


def _probe_window(g, lo: float, hi: float, log_spaced: bool):
    """Locate the integrand bump and the truncation window inside [lo, hi].

    Returns (a, b, peak, rough, left_slope) or None if the integrand
    vanishes on the probe: window endpoints a, b where the integrand first
    falls below 1e-18 of its maximum, the bump abscissa, a crude trapezoid
    estimate of the integral (tolerance scale only), and the log-log slope
    at the left probe edge (power-law exponent of a possible endpoint
    singularity).  A second, locally refined probe sharpens the bump so
    narrow features between coarse points are not missed.
    """
    if log_spaced:
        xs = np.geomspace(lo, hi, _COARSE_PROBE)
    else:
        xs = np.linspace(lo, hi, _COARSE_PROBE)
    with np.errstate(all="ignore"):
        ys = np.abs(_evaluate(g, xs))
    ys[~np.isfinite(ys)] = 0.0
    if not np.any(ys > 0):
        return None

    i = int(np.argmax(ys))
    a2, b2 = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    if log_spaced:
        fine = np.geomspace(a2, b2, _FINE_PROBE)
    else:
        fine = np.linspace(a2, b2, _FINE_PROBE)
    with np.errstate(all="ignore"):
        yf = np.abs(_evaluate(g, fine))
    yf[~np.isfinite(yf)] = 0.0

    xs = np.concatenate([xs, fine])
    ys = np.concatenate([ys, yf])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]

    gmax = float(ys.max())
    ipk = int(np.argmax(ys))
    cut = _TRUNCATION * gmax
    below_hi = np.nonzero(ys[ipk:] < cut)[0]
    b = float(xs[ipk + below_hi[0]]) if len(below_hi) else hi
    below_lo = np.nonzero(ys[: ipk + 1] < cut)[0]
    a = float(xs[below_lo[-1]]) if len(below_lo) else lo

    inside = (xs >= a) & (xs <= b)
    rough = float(np.trapezoid(ys[inside], xs[inside]))

    left_slope = 0.0
    if log_spaced:
        lead = np.nonzero((xs <= xs[0] * 1e2) & (ys > 0))[0]
        if len(lead) >= 4:
            left_slope = float(
                np.polyfit(np.log(xs[lead]), np.log(ys[lead]), 1)[0]
            )
    return a, b, float(xs[ipk]), rough, left_slope


# 15-point Kronrod rule with embedded 7-point Gauss (QUADPACK dqk15 nodes)
_GK_X = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_GK_WK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.0630920926299786,
        0.0229353220105292,
    ]
)
_GK_WG = np.zeros(15)
_GK_WG[1::2] = [
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189,
    0.2797053914892767,
    0.1294849661688697,
]


def _gk15(g, a: float, b: float):
    """One Gauss-Kronrod panel: (value, error, scale) on [a, b].

    The error estimate follows QUADPACK: the Gauss/Kronrod difference
    scaled against the integrand's deviation from its panel mean.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    with np.errstate(all="ignore"):
        y = _evaluate(g, mid + half * _GK_X)
    y[~np.isfinite(y)] = 0.0
    resk = half * float(_GK_WK @ y)
    resg = half * float(_GK_WG @ y)
    resabs = half * float(_GK_WK @ np.abs(y))
    mean = resk / (b - a)
    resasc = half * float(_GK_WK @ np.abs(y - mean))
    err = abs(resk - resg)
    if resasc > 0 and err > 0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * np.finfo(float).eps * resabs)
    return resk, err, resabs


def _adaptive_gk(g, a: float, b: float, epsabs: float, rtol: float, limit: int = 2000):
    """Adaptive-subdivision Gauss-Kronrod on [a, b]; (value, error)."""
    val, err, _ = _gk15(g, a, b)
    heap = [(-err, a, b, val)]
    total, total_err = val, err
    for _ in range(limit):
        if total_err <= max(epsabs, rtol * abs(total)):
            break
        neg_err, xa, xb, v = heapq.heappop(heap)
        worst = -neg_err
        if worst <= 0 or xb - xa <= 1e-15 * (abs(xa) + abs(xb)) + 1e-300:
            # the dominant interval cannot be refined further
            heapq.heappush(heap, (neg_err, xa, xb, v))
            break
        xm = 0.5 * (xa + xb)
        v1, e1, _ = _gk15(g, xa, xm)
        v2, e2, _ = _gk15(g, xm, xb)
        total += v1 + v2 - v
        total_err += e1 + e2 - worst
        heapq.heappush(heap, (-e1, xa, xm, v1))
        heapq.heappush(heap, (-e2, xm, xb, v2))
    return total, total_err


def quad(*args, **kwargs):
    """`scipy.integrate.quad`, imported on the first call: it is only the
    fallback of `quadrature_integral`, and the import pulls in the
    optimize, sparse and linalg subpackages of scipy."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def quadrature_integral(
    f,
    gamma_eff: float = 1.0,
    full_line: bool = False,
    hard_upper: float | None = None,
    probe_span: tuple[float, float] | None = None,
    rtol: float = 1e-10,
) -> float:
    """Adaptive Gauss-Kronrod quadrature of ``f`` over (0, inf) or the
    full real line.

    For the half-line path the integral is mapped by u = w**gamma_eff,
    which compresses the long tails that small decay exponents produce;
    the integration window is truncated where the transformed integrand
    falls below 1e-18 of its maximum, and an integrable power singularity
    at the origin is flattened by a further v = u**(1/(p+1)) change of
    variable with p estimated from the probe.  If the subdivision loop
    cannot reach tolerance, QUADPACK's extrapolating integrator is tried
    (`quad`, which imports `scipy.integrate` only then); failure there
    raises QuadratureError with the achieved tolerance.

    This is the test oracle for the closed forms and for the fixed-node
    rules in `superfamily`; no CLI command calls it.
    """
    if full_line:
        lo, hi = probe_span if probe_span is not None else (-200.0, 200.0)
        window = _probe_window(f, lo, hi, log_spaced=False)
        if window is None:
            return 0.0
        a, b, peak, rough, _ = window
        g = f
    else:
        ge = gamma_eff

        def g(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(all="ignore"):
                w = np.exp(np.log(u) / ge)
                out = _evaluate(f, w) * (w / (ge * u))
            return np.where(np.isfinite(out), out, 0.0)

        # clip so w = u**(1/gamma_eff) stays in double range
        span = min(27.0, 660.0 * ge)
        lo, hi = math.exp(-span), math.exp(span)
        if hard_upper is not None:
            hi = min(hi, hard_upper**ge)
        window = _probe_window(g, lo, hi, log_spaced=True)
        if window is None:
            return 0.0
        a, b, peak, rough, left_slope = window
        if a <= lo * (1 + 1e-9):
            # integrand non-negligible down to the endpoint; regularize an
            # integrable power singularity u**p by u = v**m, m = 1/(p+1)
            a = 0.0
            if left_slope < -0.05:
                m = 1.0 / max(left_slope + 1.0, 1e-3)
                inner = g

                def g(v):
                    v = np.asarray(v, dtype=float)
                    with np.errstate(all="ignore"):
                        u = np.exp(m * np.log(v))
                        out = inner(u) * (m * u / v)
                    return np.where(np.isfinite(out), out, 0.0)

                b = math.exp(math.log(b) / m)
                peak = math.exp(math.log(peak) / m) if peak > 0 else peak

    epsabs = max(1e-300, 1e-12 * rough)
    # start from panels split at the bump so the first refinements land
    # where the mass is
    if a < peak < b:
        v1, e1 = _adaptive_gk(g, a, peak, 0.5 * epsabs, rtol)
        v2, e2 = _adaptive_gk(g, peak, b, 0.5 * epsabs, rtol)
        value, err = v1 + v2, e1 + e2
    else:
        value, err = _adaptive_gk(g, a, b, epsabs, rtol)

    if err <= max(epsabs, rtol * abs(value)) * 1.01:
        return float(value)

    # fall back to QUADPACK's extrapolating integrator
    with np.errstate(all="ignore"):
        result = quad(
            lambda x: float(np.asarray(g(x)).ravel()[0]),
            a,
            b,
            epsabs=epsabs,
            epsrel=rtol,
            limit=300,
            full_output=True,
        )
    value, abserr = result[0], result[1]
    if len(result) > 3 and abserr > max(epsabs, 10 * rtol * abs(value)):
        raise QuadratureError(
            f"quadrature did not converge: achieved tolerance {abserr:.3e} "
            f"on value {value:.6e}"
        )
    return float(value)


def _derivative_5pt(f, w, h):
    return (f(w - 2 * h) - 8.0 * f(w - h) + 8.0 * f(w + h) - f(w + 2 * h)) / (12.0 * h)


def quadrature_moment(
    spectrum,
    n: int,
    weight: str = "energy",
    gamma_eff: float = 1.0,
    full_line: bool = False,
    probe_span: tuple[float, float] | None = None,
) -> float:
    """Oracle moment int w**n |spectrum(w)|^2 dw by adaptive quadrature.

    weight="energy" integrates w**n |spectrum|^2; "derivative_energy"
    integrates w**n |spectrum'|^2 with the derivative taken by 5-point
    central differences at relative step 1e-4.  The default domain is
    (0, inf); full_line=True switches to the whole real line (needed for
    the Morlet, whose spectrum leaks onto negative frequencies).
    """
    if weight not in ("energy", "derivative_energy"):
        raise ValueError(f"unknown weight {weight!r}")

    if weight == "energy":

        def integrand(w):
            w = np.asarray(w, dtype=float)
            s = np.asarray(spectrum(w), dtype=float)
            return w**n * s * s

    else:

        def integrand(w):
            w = np.asarray(w, dtype=float)
            h = 1e-4 * (np.abs(w) + (1.0 if full_line else 0.0))
            d = _derivative_5pt(spectrum, w, h)
            return w**n * d * d

    return quadrature_integral(
        integrand,
        gamma_eff=gamma_eff,
        full_line=full_line,
        probe_span=probe_span,
    )

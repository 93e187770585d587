"""Energy moments, time/frequency spreads, Heisenberg area, and skewness.

Closed forms come from the generalized-gamma integral

    int_0^inf w**q exp(-2 w**gamma) dw = Gamma((q+1)/gamma) /
                                         (gamma * 2**((q+1)/gamma))

in one form for every energy integral of the package (`log_energy_moment`,
and the self-energies behind `superfamily`'s alpha^2 and rho^2): the
peak-rescaled self-energy `_log_rescaled_energy_one` and ratios to it from
one Stirling-difference kernel (`_log_gamma_ratio`), neither of which forms
the r ln r terms that cancel.  The ratio kernels act on raw (beta, gamma)
arrays; the MorseParams functions wrap them, and the `map` tables,
`heisenberg_map` and `zero_skewness_gamma`, run them over a grid.  An
independent quadrature oracle (`quadrature_moment`, `quadrature_integral`),
one double-exponential rule whose step `_halving_trapezoid` halves (the
loop that `superfamily`'s rule in ln w shares), checks every closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import MorseParams, _bisect, duration, peak_frequency

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
    "heisenberg_map",
    "zero_skewness_gamma",
    "quadrature_moment",
    "quadrature_integral",
]


class QuadratureError(RuntimeError):
    """The quadrature oracle could not reach the requested tolerance."""


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


# Stirling's series ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + tail(z),
# tail(z) ~ sum_k B_2k / (2k (2k - 1) z**(2k - 1)), to 7 terms: from z = 10
# on, the first term left out is below 3e-17.
_STIRLING_FROM = 10
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)


def _stirling_tail(z):
    """tail(z) of Stirling's series, for a number or an array of z >= 10."""
    zi2 = 1.0 / (z * z)
    t = zi2 * _STIRLING_COEFFS[-1]
    for c in _STIRLING_COEFFS[-2:0:-1]:
        t += c
        t *= zi2
    t += _STIRLING_COEFFS[0]
    t /= z
    return t


def _log_gamma_ratio(r, s):
    """ln Gamma(r + s) - ln Gamma(r) - s ln r for r > 0 and r + s > 0.

    ``r`` holds one value per cell, an array of the cells' shape, and ``s``
    the orders on its first axis.  With z = r, this is the Stirling
    difference

        (z + s - 1/2) log1p(s/z) - s + tail(z + s) - tail(z),

    which has no term of size z ln z, so its error stays a small multiple
    of s ulp at large r, where a difference of two log-gammas loses
    digits.  A cell whose r or r + s falls below 10 is shifted to
    z = r + 10 by the recurrence, which adds s log1p(10/r) -
    ln prod_k (r + s + k)/(r + k) over k = 0..9.  That log is taken as
    +-log1p(excess), where the excess over 1 of prod_k (1 + |s|/(min(r,
    r + s) + k)) grows from nonnegative terms, so it keeps an error
    relative to s whatever the sign of s.  Per-cell terms (the shift,
    tail(z), log1p(10/r)) are evaluated once per cell.
    """
    low = np.minimum(r, r + s.min(axis=0)) < _STIRLING_FROM
    shift = np.where(low, _STIRLING_FROM, 0.0)
    # z on row 0 and z + s below it, so one tail evaluation serves both
    z = np.empty((len(s) + 1,) + r.shape)
    np.add(r, shift, out=z[0, ...])
    np.add(z[0], s, out=z[1:])
    tail = _stirling_tail(z)
    out = np.divide(s, z[0])
    np.log1p(out, out=out)
    z -= 0.5
    out *= z[1:]
    out -= s
    out += tail[1:]
    out -= tail[0]
    shift /= r
    np.log1p(shift, out=shift)
    out += np.multiply(s, shift, out=z[1:])
    if low.any():
        cells = low.ravel().nonzero()[0]
        s_low = s.reshape(len(s), -1).take(cells, axis=1)
        base = np.minimum(s_low, 0.0)
        base += r.take(cells)  # the smaller of r and r + s
        step = np.abs(s_low)
        excess = step / base
        a, grown = np.empty_like(base), np.empty_like(base)
        for k in range(1, _STIRLING_FROM):
            # excess += a (1 + excess) with a = |s|/(base + k)
            np.add(base, k, out=a)
            np.divide(step, a, out=a)
            np.add(excess, 1.0, out=grown)
            grown *= a
            excess += grown
        np.log1p(excess, out=excess)
        out.reshape(len(s), -1)[:, cells] -= np.copysign(excess, s_low, out=excess)
    return out


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_rescaled_energy_one(b: float, g: float) -> float:
    """ln int S_m^2 dw of one peak-rescaled Morse spectrum (b, g), closed
    form: 4 e^(2 beta/gamma) c**(2 beta + 1) int x**(2 beta) exp(-2 x**gamma)
    dx with c = (gamma/beta)**(1/gamma).

    With r = (2 beta + 1)/gamma and Stirling's ln Gamma(r) = (r - 1/2) ln r
    - r + ln(2 pi)/2 + tail(r) this is

        ln 4 - 1/gamma - ln gamma + ln(2 pi)/2 - (ln r)/2
            + r log1p(1/(2 beta)) + tail(r),

    every term O(1) or a log: the terms of size r ln r cancel exactly
    before any is formed.  tail(r) is Stirling's series from r = 10 on, and
    math.lgamma below, where none of its terms is large.
    """
    r = (2.0 * b + 1.0) / g
    if r < _STIRLING_FROM:
        tail = math.lgamma(r) - (r - 0.5) * math.log(r) + r - _HALF_LOG_2PI
    else:
        tail = _stirling_tail(r)
    return (
        math.log(4.0) + _HALF_LOG_2PI - 1.0 / g - math.log(g) - 0.5 * math.log(r)
        + r * math.log1p(0.5 / b) + tail
    )


def _log_rescaled_energy(b, g):
    """`_log_rescaled_energy_one` on 1-d arrays of beta and gamma: a whole
    coarse grid or one poll of `superfamily.bessel_fit`, each cell the
    scalar call's bits, which numpy's own log need not give."""
    return np.fromiter(map(_log_rescaled_energy_one, b.tolist(), g.tolist()), float, len(b))


def log_energy_moment(p: MorseParams, n: int) -> float:
    """ln of the order-n energy moment m_n = int_0^inf w**n |Psi(w)|**2 dw.

    For beta > 0 it is E + (n + 1) ln w_p + R_n, with E the rescaled
    self-energy `_log_rescaled_energy_one` and R_n = ln(m_n/(m_0 w_p**n))
    from `_log_moment_ratios` (0 for n = 0), neither of which forms the
    r ln r terms that cancel; for beta = 0, ln(4 Gamma(r)/(gamma 2**r)) with
    r = (n + 1)/gamma, where nothing cancels.  Raises ValueError where the
    moment diverges (2 beta + n + 1 <= 0) and, for beta > 0, where beta is
    subnormal or r = (2 beta + 1)/gamma or r + n/gamma is outside [1e-307,
    1e30]: `_log_gamma_ratio` divides 10 by r, and for n = -1 its product of
    ten factors overflows from about r = 3e31 on.
    """
    b, g = float(p.beta), float(p.gamma)
    if 2 * b + n + 1 <= 0:
        raise ValueError(f"energy moment diverges: 2*beta + n + 1 = {2 * b + n + 1} <= 0")
    if b == 0:
        r = (n + 1.0) / g
        return math.log(4.0) + (math.lgamma(r) - math.log(g) - r * math.log(2.0))
    r, lo, hi = (2.0 * b + 1.0) / g, 1e-307, 1e30
    if not (b >= sys.float_info.min and lo <= r <= hi and lo <= r + n / g <= hi):
        raise ValueError(f"energy moment out of range: beta = {b:.6g}, r = {r:.6g} and r + n/gamma"
                         f" = {r + n / g:.6g} (needs a normal beta, r and r + n/gamma in [{lo:g}, {hi:g}])")
    out = _log_rescaled_energy_one(b, g) + (n + 1) * ((math.log(b) - math.log(g)) / g)
    if n:
        out += float(_log_moment_ratios(b, g, n)[0])
    return out


def energy_moment(p: MorseParams, n: int) -> float:
    """Order-n energy moment of the spectrum, exp of `log_energy_moment`."""
    return float(np.exp(log_energy_moment(p, n)))


def moment_table(p: MorseParams, orders=(0, 1, 2, 3)) -> MomentTable:
    return MomentTable(params=p, m={n: energy_moment(p, n) for n in orders})


def _log_moment_ratios(beta, gamma, *orders):
    """ln of m_n / (m_0 w_p**n) for each order n, stacked on a new first
    axis: the energy moments m_n = int w**n |Psi|^2 dw relative to m_0, in
    units of the peak frequency.

    With r = (2 beta + 1)/gamma and s = n/gamma this is

        ln Gamma(r + s) - ln Gamma(r) - s ln(2 beta/gamma)
            = `_log_gamma_ratio` (r, s) + s log1p(1/(2 beta)),

    since the amplitude constant cancels, w_p**gamma = beta/gamma and
    r = (2 beta/gamma)(1 + 1/(2 beta)).  No term of size r ln r is formed,
    so the ratios keep their absolute accuracy at large r.  The ratio is
    representable where m_n/m_0 ~ w_p**n is not (w_p reaches 1e150+ at
    small gamma).  Takes raw (beta, gamma) that broadcast, like
    core._rescaled_log_shape, so a whole grid of the parameter plane is one
    call; each order is a number or an array broadcasting with them, and
    must exceed -(2 beta + 1).  Requires beta > 0.
    """
    b = np.asarray(beta, dtype=float)
    g = np.asarray(gamma, dtype=float)
    r = np.empty(np.broadcast(b, g, *orders).shape)
    np.divide(2.0 * b + 1.0, g, out=r)
    s = np.empty((len(orders),) + r.shape)
    for j, n in enumerate(orders):
        np.divide(n, g, out=s[j, ...])
    out = _log_gamma_ratio(r, s)
    s *= np.log1p(0.5 / b)
    out += s
    return out


def _rescaled_sigma_omega(beta, gamma):
    """sigma_omega / w_p on raw (beta, gamma) arrays; requires beta > 0."""
    r1, r2 = np.exp(_log_moment_ratios(beta, gamma, 1.0, 2.0))
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
    logs[1] += math.log(2.0)
    top = logs.max(axis=0)
    e0, e1, e2 = np.exp(logs - top)
    return beta * np.exp(0.5 * top) * np.sqrt(e0 - e1 + e2)


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
    r1, r2, r3 = np.exp(_log_moment_ratios(beta, gamma, 1.0, 2.0, 3.0))
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
        duration=duration(p),
        sigma_t=sigma_t(p),
        sigma_omega=sigma_omega(p),
        heisenberg_area=heisenberg_area(p),
        skewness=skewness_freq(p),
    )


def heisenberg_map(betas, gammas):
    """The Heisenberg area over the grid ``betas`` x ``gammas`` (beta >= 0,
    gamma > 0): one row (beta, gamma, area) per cell, beta-major, with the
    area +inf where beta <= 1/2."""
    b_grid, g_grid = np.meshgrid(betas, gammas, indexing="ij")
    areas = _heisenberg_area(b_grid, g_grid)
    return np.column_stack((b_grid.ravel(), g_grid.ravel(), areas.ravel()))


def zero_skewness_gamma(betas, g_lo: float, g_hi: float):
    """The gamma* in [g_lo, g_hi] at which the frequency skewness of
    (beta, gamma*) is zero, for each of ``betas`` (1-d), as (gamma_star,
    defined): ``defined`` is False, and gamma* nan, where beta <= 0 or the
    skewness does not change sign between g_lo and g_hi.  All rows are
    bisected at once by `core._bisect`.  As beta grows, gamma* tends to 3."""
    b = np.asarray(betas, dtype=float)
    defined = b > 0
    pos = b[defined]
    defined[defined] = _skewness(pos, g_lo) * _skewness(pos, g_hi) < 0
    b = b[defined]
    gamma_star = np.full(defined.shape, np.nan)
    gamma_star[defined] = _bisect(lambda g: _skewness(b, g), np.full_like(b, g_lo),
                                  np.full_like(b, g_hi))
    return gamma_star, defined


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

# Double-exponential rules (Takahasi and Mori, Publ. RIMS 9, 1974; Trefethen
# and Weideman, SIAM Review 56, 2014): a fixed map w(t) whose Jacobian
# decays double-exponentially in t, then the plain trapezoid rule in t.
# Every map has x = (pi/2) sinh t inside it.  |x| <= _DE_REACH keeps every
# node and Jacobian finite: the exp-sinh nodes span exp(+-230), where w**3
# and 1/w are finite, and cosh(x)**2 stays below the overflow threshold.
_DE_REACH = 230.0
_DE_T = math.asinh(_DE_REACH / (0.5 * math.pi))
_DE_HALVINGS = 10


def _de_map(t, full_line: bool, hard_upper: float | None):
    """Nodes w(t) and Jacobian dw/dt of the double-exponential maps."""
    x = 0.5 * np.pi * np.sinh(t)
    dx = 0.5 * np.pi * np.cosh(t)
    if hard_upper is not None:
        # tanh-sinh, upper (1 + tanh x) / 2, formed so nodes near 0 keep
        # their precision
        w = hard_upper / (1.0 + np.exp(-2.0 * x))
        return w, hard_upper * dx / (2.0 * np.cosh(x) ** 2)
    if full_line:
        return 1.0 + np.sinh(x), np.cosh(x) * dx  # sinh-sinh
    w = np.exp(x)  # exp-sinh
    return w, w * dx


def quad(*args, **kwargs):
    """`scipy.integrate.quad`, imported on the first call.  Nothing in this
    package calls it; it stays only as a hook for the benchmark's tracer."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _halving_trapezoid(sums, n_cells: int, lo: float, hi: float, h: float,
                       rtol: float, halvings: int, what: str, check=None):
    """Trapezoid sums over [lo, hi] of ``n_cells`` integrands, each halving
    its step until two successive sums agree: the package's one halving
    loop, under the oracle below and `superfamily`'s rule in ln w.

    ``sums(cells, x)`` gives each cell's sum over the nodes x, for an index
    array of cells.  The nodes are the multiples of h in [lo, hi]; a halving
    evaluates only the new odd ones.  A cell stops at the first level where
    |fine - previous| <= rtol |fine| (never on nan), so its value does not
    depend on which cells share the call.  ``check(h, total)`` runs before
    each halving.  Raises QuadratureError, naming the rule ``what``, if a
    cell has not converged after ``halvings`` halvings.
    """
    cells = np.arange(n_cells)
    total = h * sums(cells, h * np.arange(math.ceil(lo / h), math.floor(hi / h) + 1))
    for _ in range(halvings):
        if check is not None:
            check(h, total)
        h *= 0.5
        odd = h * np.arange(math.ceil(lo / h) | 1, math.floor(hi / h) + 1, 2)
        previous = total[cells]
        total[cells] = fine = 0.5 * previous + h * sums(cells, odd)
        unconverged = ~(np.abs(fine - previous) <= rtol * np.abs(fine))
        previous, cells = previous[unconverged], cells[unconverged]
        if cells.size == 0:
            return total
    raise QuadratureError(
        f"{what}: no convergence after {halvings} halvings in "
        f"{cells.size} of {n_cells} cells; the last two sums of the first are "
        f"{previous[0]:.12e} and {total[cells[0]]:.12e}"
    )


def quadrature_integral(
    f, full_line: bool = False, hard_upper: float | None = None, rtol: float = 1e-10
) -> float:
    """Integral of ``f`` over (0, inf), the real line (``full_line``), or
    (0, ``hard_upper``), by a double-exponential rule.

    A fixed map carries the interval onto t: exp-sinh on (0, inf),
    sinh-sinh centred at w = 1 on the real line, tanh-sinh on
    (0, hard_upper).  `_halving_trapezoid` sums f(w(t)) w'(t) over t in
    [-5.68, 5.68] from step 5.68/48 until two sums agree to ``rtol``.  The
    maps suit integrands that live near unit frequency, where every named
    spectrum peaks or ends, and absorb integrable power singularities at
    the ends of the interval.  ``f`` must take arrays.  The caller must
    split the interval at a jump inside it, across which the sums do not
    converge.

    Raises QuadratureError if the sums still disagree after 10 halvings,
    if the end nodes carry more than ``rtol`` of the sum (the integrand
    does not decay), or if ``f`` is not finite at a node.  This is the
    test oracle for the closed forms and for the trapezoid rules in
    `superfamily`; no CLI command calls it.
    """
    if full_line and hard_upper is not None:
        raise ValueError("full_line and hard_upper exclude each other")
    ends = None  # |f w'| at t = -+_DE_T, the first level's end nodes

    def sums(cells, t):
        nonlocal ends
        with np.errstate(all="ignore"):
            w, jac = _de_map(t, full_line, hard_upper)
            y = np.asarray(f(w), dtype=float) * jac
        bad = ~np.isfinite(y)
        if np.any(bad):
            raise QuadratureError(f"integrand is not finite at w = {w[bad][0]:.6g}")
        if ends is None:
            ends = abs(y[0]) + abs(y[-1])
        return np.sum(y, keepdims=True)

    def check(h, total):
        if h * ends > rtol * abs(total[0]):
            raise QuadratureError(
                f"the end nodes carry {h * ends:.3e} of the sum {total[0]:.6e}: "
                "the integrand does not decay at the ends of the rule"
            )

    h = _DE_T / 48  # _DE_T / h is exactly 48, so the end nodes are -+_DE_T
    return float(_halving_trapezoid(sums, 1, -_DE_T, _DE_T, h, rtol, _DE_HALVINGS,
                                    "double-exponential rule", check)[0])


def quadrature_moment(
    spectrum, n: int, weight: str = "energy", full_line: bool = False
) -> float:
    """Oracle moment int w**n |spectrum(w)|^2 dw by `quadrature_integral`.

    weight="energy" integrates w**n |spectrum|^2; "derivative_energy"
    integrates w**n |spectrum'|^2 with the derivative taken by 5-point
    central differences at relative step 1e-4.  The default domain is
    (0, inf); full_line=True switches to the whole real line (needed for
    the Morlet, whose spectrum leaks onto negative frequencies).
    ``spectrum`` must take arrays, and be smooth inside the domain.
    """
    if weight not in ("energy", "derivative_energy"):
        raise ValueError(f"unknown weight {weight!r}")

    if weight == "energy":

        def integrand(w):
            s = np.asarray(spectrum(w), dtype=float)
            return w**n * s * s

    else:

        def integrand(w):
            h = 1e-4 * (np.abs(w) + (1.0 if full_line else 0.0))
            f = [spectrum(w + k * h) for k in (-2, -1, 1, 2)]
            d = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
            return w**n * d * d

    return quadrature_integral(integrand, full_line=full_line)

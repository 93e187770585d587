"""Shared independent oracles for the test suite.

Everything here recomputes quantities from first principles (extended
precision, closed-form algebra, or dense numerics) without touching the
code paths under test.
"""

import math

import mpmath as mp

# the closed-form oracle grid used throughout the property checks
ORACLE_BETAS = (0.6, 1.0, 2.0, 3.0, 9.0, 27.0)
ORACLE_GAMMAS = (0.25, 0.5, 1.0, 2.0, 3.0, 6.0, 12.0)


def log_grid(beta_range, gamma_range, cases: int) -> list[tuple[float, float]]:
    """At least ``cases`` (beta, gamma) pairs: the product of two
    log-uniform axes of ceil(sqrt(cases)) values each, ends included.  A
    property test runs over it, so every run checks the same points."""
    n = math.isqrt(cases - 1) + 1
    axis = lambda lo, hi: [math.exp(math.log(lo) + k * (math.log(hi) - math.log(lo)) / (n - 1))
                           for k in range(n)]
    return [(b, g) for b in axis(*beta_range) for g in axis(*gamma_range)]


_STENCILS = {
    1: (mp.mpf(1), mp.mpf(-8), mp.mpf(0), mp.mpf(8), mp.mpf(-1)),
    2: (mp.mpf(-1), mp.mpf(16), mp.mpf(-30), mp.mpf(16), mp.mpf(-1)),
    3: (mp.mpf(-6), mp.mpf(12), mp.mpf(0), mp.mpf(-12), mp.mpf(6)),
    4: (mp.mpf(12), mp.mpf(-48), mp.mpf(72), mp.mpf(-48), mp.mpf(12)),
}
_DIVISORS = {1: mp.mpf(12), 2: mp.mpf(12), 3: mp.mpf(12), 4: mp.mpf(12)}


def fd_log_derivative(beta: float, gamma: float, order: int, rel_step=1e-4) -> float:
    """5-point central finite difference of ln Psi at the peak, order 1..4.

    Evaluated at 50 significant digits so that the h**-order roundoff
    amplification of the fixed step h = rel_step * w_p stays far below the
    truncation error; the double-precision code under test never enters.
    """
    with mp.workdps(50):
        b, g = mp.mpf(beta), mp.mpf(gamma)
        wp = mp.exp((mp.log(b) - mp.log(g)) / g)
        la = mp.log(2) + (b / g) * (1 + mp.log(g) - mp.log(b))
        lnpsi = lambda w: la + b * mp.log(w) - w**g
        h = mp.mpf(rel_step) * wp
        vals = [lnpsi(wp + k * h) for k in (-2, -1, 0, 1, 2)]
        acc = mp.fsum(c * v for c, v in zip(_STENCILS[order], vals))
        return float(acc / (_DIVISORS[order] * h**order))


def morlet_sigma_t_closed_form(nu: float) -> float:
    """Temporal spread of the Morlet wavelet from exact Gaussian integrals.

    With envelope exp(-t^2/2) and zero-mean correction, |psi(t)|^2 =
    a^2 e^{-t^2} (1 - 2 e^{-nu^2/2} cos(nu t) + e^{-nu^2}); the moments
    reduce to Gaussian cosine transforms.
    """
    e1 = math.exp(-(nu**2))
    e2 = math.exp(-0.75 * nu**2)
    energy = 1.0 + e1 - 2.0 * e2
    second = 0.5 + 0.5 * e1 - 2.0 * e2 * (0.5 - nu**2 / 4.0)
    return math.sqrt(second / energy)


def morlet_sigma_omega_closed_form(nu: float) -> float:
    """Frequency spread of the Morlet wavelet from exact Gaussian integrals.

    |Psi|^2 is a sum of three Gaussians (centers nu, nu/2, 0), so all
    moments are elementary.
    """
    e2 = math.exp(-0.75 * nu**2)
    e1 = math.exp(-(nu**2))
    m0 = 1.0 - 2.0 * e2 + e1
    m1 = nu * (1.0 - e2)
    m2 = (nu**2 + 0.5) - 2.0 * e2 * (nu**2 / 4.0 + 0.5) + 0.5 * e1
    mu = m1 / m0
    return math.sqrt(m2 / m0 - mu * mu)


def log_trapezoid_integral(f, lo: float, hi: float, n: int = 200001) -> float:
    """Dense log-spaced trapezoid rule over [lo, hi]; a crude but fully
    independent cross-check for smooth positive-axis integrals."""
    import numpy as np

    x = np.geomspace(lo, hi, n)
    return float(np.trapezoid(f(x), x))


def reference_transform(samples, grid, normalization="bandpass_n1", boundary="periodic"):
    """Time x scale coefficients from a plain one-scale-at-a-time loop with a
    full-length filter per scale: the loop that the threaded filter bank
    must match bit for bit.  Mirror rows of a power-of-two length are a
    DCT-III/DST-III pair of length n; every other row is one numpy inverse
    FFT of the padded spectrum (`padded_reference_transform`)."""
    import numpy as np
    import scipy.fft

    from morsekit.core import eval_spectrum

    sig = np.asarray(samples)
    n = len(sig)
    if boundary != "mirror" or n & (n - 1):
        return padded_reference_transform(samples, grid, normalization, boundary)
    # D[k] = 2 sum_t x_t cos(pi k (2t+1) / 2n); the row is
    # sum_{k<n} D[k] Psi(s pi k / n) exp(i pi k (2t+1) / 2n) / 2n, and
    # a[0] is doubled because DCT-III halves bin 0
    spectrum = scipy.fft.dct(sig.astype(np.promote_types(sig.dtype, float)), type=2)
    omega = 2.0 * np.pi * np.arange(n) / (2 * n)
    coeffs = np.empty((n, len(grid.scales)), dtype=complex)
    for j, s in enumerate(grid.scales):
        r = spectrum * eval_spectrum(grid.params, s * omega)
        a = r.copy()
        a[0] *= 2.0
        b = np.append(r[1:], 0.0)
        gain = (math.sqrt(s) if normalization == "unitary_n_half" else 1.0) / (4 * n)
        coeffs[:, j] = (scipy.fft.dct(a, type=3) + 1j * scipy.fft.dst(b, type=3)) * gain
    return coeffs


def padded_reference_transform(samples, grid, normalization="bandpass_n1",
                               boundary="periodic"):
    """Time x scale coefficients from one full-length filter and one numpy
    inverse FFT per scale of the signal padded to m = next_pow2(2n) (not
    padded for the periodic boundary), cropped to the record."""
    import numpy as np

    from morsekit.core import eval_spectrum

    sig = np.asarray(samples)
    n = len(sig)
    m = n if boundary == "periodic" else 1 << (2 * n - 1).bit_length()
    left = (m - n) // 2
    buf = sig if m == n else np.pad(
        sig, (left, m - n - left), mode="constant" if boundary == "zero" else "symmetric"
    )
    spectrum = np.fft.fft(buf)
    k_pos = np.arange(m // 2 + 1)
    omega_pos = 2.0 * np.pi * k_pos / m
    coeffs = np.empty((n, len(grid.scales)), dtype=complex)
    filt = np.zeros(m)
    for j, s in enumerate(grid.scales):
        filt[k_pos] = eval_spectrum(grid.params, s * omega_pos)
        row = np.fft.ifft(spectrum * filt)
        if normalization == "unitary_n_half":
            row = row * math.sqrt(s)
        coeffs[:, j] = row[left : left + n]
    return coeffs


def reference_bessel_fit(grid):
    """`bessel_fit` as a one-move-at-a-time pattern search: the coarse scan
    row by row, then one `_bessel_alpha_sq` call per poll move, each from
    the x that the moves before it left.  Returns the best (beta, gamma),
    alpha^2, the trace, and how many moves clipping to the box left at x
    (skipped, never scored): the plain loop that the batched poll must
    match bit for bit."""
    import numpy as np

    from morsekit.superfamily import _bessel_alpha_sq

    betas = np.geomspace(grid.beta_lo, grid.beta_hi, grid.n_beta)
    gammas = np.geomspace(grid.gamma_lo, grid.gamma_hi, grid.n_gamma)
    trace = []
    best = (-1.0, grid.beta_lo, grid.gamma_lo)
    for b in betas:
        for g, a2 in zip(gammas, _bessel_alpha_sq(b, gammas)):
            trace.append((float(b), float(g), float(a2)))
            if a2 > best[0]:
                best = (float(a2), float(b), float(g))

    log_lo = np.log(np.array([grid.beta_lo, grid.gamma_lo]))
    log_hi = np.log(np.array([grid.beta_hi, grid.gamma_hi]))
    x = np.log(np.array([best[1], best[2]]))
    fx = best[0]
    step = float(max(np.log(betas[1] / betas[0]), np.log(gammas[1] / gammas[0])))
    moves = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    clipped = 0
    while step >= 1e-3:
        improved = False
        for move in np.array(moves, dtype=float):
            cand = np.clip(x + step * move, log_lo, log_hi)
            if np.array_equal(cand, x):
                clipped += 1
                continue
            b, g = float(np.exp(cand[0])), float(np.exp(cand[1]))
            a2 = _bessel_alpha_sq(b, g)
            trace.append((b, g, a2))
            if a2 > fx:
                x, fx = cand, a2
                improved = True
        if not improved:
            step *= 0.5
    return (float(np.exp(x[0])), float(np.exp(x[1]))), fx, trace, clipped

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from helpers import padded_reference_transform, reference_transform

from morsekit import core
from morsekit.core import MorseParams, duration, eval_spectrum, peak_frequency
from morsekit.props import quadrature_integral
from morsekit.transform import (
    CwtResult,
    ScaleGrid,
    SignalBuffer,
    ridge_frequency_check,
    scale_grid,
    transform,
)

P93 = MorseParams(9, 3)
# the module, not the function of the same name the package exports
TRANSFORM = sys.modules["morsekit.transform"]


def _tone(n=1024, k=100):
    w0 = 2.0 * np.pi * k / n
    return SignalBuffer(np.cos(w0 * np.arange(n)).astype(float)), w0


class TestSignalBuffer:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.array([1.0]))
        with pytest.raises(ValueError):
            SignalBuffer(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError):
            SignalBuffer(np.array([1.0, 2.0]), dt=0.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match=r"^dt must be positive and finite \(got "):
            SignalBuffer(np.array([1.0, 2.0]), dt=dt)

    def test_complex_ok(self):
        SignalBuffer(np.array([1 + 1j, 2 - 1j, 0j]))


class TestScaleGrid:
    def test_high_cutoff_contract(self):
        grid = scale_grid(1024, P93)
        ratio = eval_spectrum(P93, grid.scales[0] * math.pi) / 2.0
        assert abs(ratio / grid.high_cutoff_eta - 1.0) < 1e-6

    def test_low_cutoff_contract(self):
        grid = scale_grid(1024, P93, p0=5.0)
        footprint = 2.0 * grid.scales[-1] * duration(P93) / peak_frequency(P93)
        assert footprint <= 1024 / 5.0 * (1 + 1e-12)

    def test_default_span(self):
        grid = scale_grid(1024, P93)
        assert len(grid) > 0
        assert math.log2(grid.scales[-1] / grid.scales[0]) >= 3.0

    def test_density_doubling(self):
        n4 = len(scale_grid(1024, P93, density=4)) - 1
        n8 = len(scale_grid(1024, P93, density=8)) - 1
        assert abs(n8 - 2 * n4) <= 1

    def test_signal_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            scale_grid(16, MorseParams(20, 3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scale_grid(1024, MorseParams(0, 3))
        with pytest.raises(ValueError):
            scale_grid(1024, P93, eta=1.5)
        with pytest.raises(ValueError):
            scale_grid(1024, P93, density=0)
        with pytest.raises(ValueError):
            scale_grid(1024, P93, p0=0.5)
        with pytest.raises(ValueError, match="p0 must be at least 1"):
            scale_grid(1024, P93, p0=float("nan"))

    def test_signal_of_one_sample(self):
        with pytest.raises(ValueError, match="^signal too short$"):
            scale_grid(1, P93)

    @pytest.mark.parametrize("scales", [[], [[1.0, 2.0]], [2.0, 1.0], [1.0, 1.0],
                                        [0.0, 1.0], [-1.0, 1.0]])
    def test_hand_built_scales_checked(self, scales):
        with pytest.raises(ValueError, match="^scales must be "):
            ScaleGrid(np.array(scales), P93, 0.1, 5.0, 4)

    @pytest.mark.filterwarnings("error")
    def test_hand_built_grid_with_overflowing_peak(self):
        # w_p = 1000**1000: a transform on this grid could only return zeros
        with pytest.raises(ValueError, match=(
            r"^peak frequency \(beta/gamma\)\*\*\(1/gamma\) overflows double range "
        )):
            ScaleGrid(np.array([1.0, 2.0]), MorseParams(1, 0.001), 0.1, 5.0, 4)

    def test_physical_frequencies(self):
        grid = scale_grid(1024, P93)
        freqs = grid.peak_frequencies(dt=0.01)
        assert freqs[0] > freqs[-1]
        assert freqs[0] == pytest.approx(
            peak_frequency(P93) / (grid.scales[0] * 0.01)
        )


    @pytest.mark.parametrize("dt", [1e300, 1e-300, 0.01])
    def test_peak_frequencies_where_scale_times_dt_overflows(self, dt):
        # at (60, 0.3) the scales reach 1.8e10, so s * 1e300 overflows
        p = MorseParams(60, 0.3)
        grid = scale_grid(2**14, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid.peak_frequencies(dt)
        want = np.array([peak_frequency(p) / s / dt for s in grid.scales])
        assert np.all(want > 0) and np.all(np.isfinite(want))
        assert np.all(np.abs(got - want) <= np.spacing(want))


# a steep and a gentle flank, a very sharp one, and one whose peak is 2.6e23
ROOT_CASES = [(9.0, 3.0), (60.0, 0.3), (0.55, 30.0), (22.0, 0.1)]


def _mp_s_min(beta, gamma, eta):
    """s_min to 40 digits: the u = ln(w/w_p) > 0 where Psi = 2 eta, that is
    beta u + (beta/gamma)(1 - e^(gamma u)) = ln eta, bisected in mpmath;
    then s_min = w_p e^u / pi."""
    with mpmath.workdps(40):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)

        def f(u):
            return b * u + b / g * (1 - mpmath.exp(g * u)) - mpmath.log(eta)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while f(hi) > 0:
            hi *= 2
        for _ in range(160):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return float((b / g) ** (1 / g) * mpmath.exp(lo) / mpmath.pi)


class TestFlankRoots:
    """s_min and the support cut are roots bisected to the last bit."""

    @pytest.mark.parametrize("eta", [0.1, 1e-8])
    @pytest.mark.parametrize("params", ROOT_CASES)
    def test_s_min_is_the_full_precision_root(self, params, eta):
        s_min = scale_grid(2**14, MorseParams(*params), eta=eta).scales[0]
        # a bracket stopped at 1e-12 relative misses by up to 5e-13
        assert abs(s_min / _mp_s_min(*params, eta) - 1.0) <= 2e-14

    @pytest.mark.parametrize("params", ROOT_CASES + [(0.0, 2.0)])
    def test_support_cut_is_where_psi_underflows(self, params):
        p = MorseParams(*params)
        w_zero = TRANSFORM._flank_frequency(p, 0.0)
        assert eval_spectrum(p, w_zero * (1.0 + 1e-14)) == 0.0
        assert eval_spectrum(p, w_zero * (1.0 - 1e-14)) > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params, word", [((1.0, 0.001), "overflows"),
                                              ((1e-300, 0.01), "underflows")])
    def test_peak_frequency_out_of_range(self, params, word):
        with pytest.raises(ValueError, match=(
            rf"^peak frequency \(beta/gamma\)\*\*\(1/gamma\) {word} double range "
        )):
            scale_grid(1024, MorseParams(*params))


class TestTransform:
    def test_zero_signal(self):
        grid = scale_grid(256, P93)
        res = transform(SignalBuffer(np.zeros(256)), grid)
        assert np.all(res.coefficients == 0)

    def test_tone_ridge_modulus_and_constancy(self):
        sig, w0 = _tone()
        grid = scale_grid(1024, P93, density=16)
        res = transform(sig, grid)
        mod = np.abs(res.coefficients)
        j = int(np.argmax(mod.mean(axis=0)))
        ridge = mod[:, j]
        assert ridge.mean() == pytest.approx(1.0, abs=0.01)
        assert ridge.std() < 1e-10 * ridge.mean()

    def test_half_normalization_scales_by_sqrt_s(self):
        sig, _ = _tone()
        grid = scale_grid(1024, P93)
        r1 = transform(sig, grid).coefficients
        rh = transform(sig, grid, normalization="unitary_n_half").coefficients
        np.testing.assert_allclose(rh, r1 * np.sqrt(grid.scales), rtol=1e-12)

    def test_linearity(self):
        n = 512
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        grid = scale_grid(n, P93)
        rx = transform(SignalBuffer(x), grid).coefficients
        ry = transform(SignalBuffer(y), grid).coefficients
        rxy = transform(SignalBuffer(2.0 * x - 0.5 * y), grid).coefficients
        err = np.abs(rxy - (2.0 * rx - 0.5 * ry)).max()
        assert err < 1e-12 * np.abs(rxy).max()

    def test_shift_covariance(self):
        sig, _ = _tone(512, 60)
        grid = scale_grid(512, P93)
        base = transform(sig, grid).coefficients
        m = 123
        shifted = transform(SignalBuffer(np.roll(sig.samples, m)), grid).coefficients
        err = np.abs(np.roll(base, m, axis=0) - shifted).max()
        assert err < 1e-12 * np.abs(base).max()

    def test_real_signal_analytic_half_relation(self):
        n = 512
        rng = np.random.default_rng(11)
        x = rng.standard_normal(n)
        # zero the negative bins, double the positive ones; the Nyquist bin
        # counts as positive side (same convention the filter bank uses)
        xf = np.fft.fft(x)
        xf[1 : n // 2 + 1] *= 2.0
        xf[n // 2 + 1 :] = 0.0
        xa = np.fft.ifft(xf)
        grid = scale_grid(n, P93)
        rx = transform(SignalBuffer(x), grid).coefficients
        ra = transform(SignalBuffer(xa), grid).coefficients
        err = np.abs(rx - 0.5 * ra).max()
        assert err < 1e-10 * np.abs(rx).max()

    def test_padding_length_independence(self):
        # boundary effects must not depend on how far the padding extends;
        # needs a band-limited grid (tiny eta), else the hard spectral cut
        # at the Nyquist bin leaves slow 1/t kernel tails
        n = 400  # pads to 1024; compare against an explicitly longer pad
        rng = np.random.default_rng(3)
        x = rng.standard_normal(n)
        grid = scale_grid(n, P93, eta=1e-8, p0=10.0)
        base = transform(SignalBuffer(x), grid, boundary="zero").coefficients

        padded = np.concatenate([np.zeros(1536), x, np.zeros(1536)])
        wide = transform(
            SignalBuffer(padded), grid, boundary="periodic"
        ).coefficients[1536 : 1536 + n]
        err = np.abs(base - wide).max()
        assert err < 1e-10 * np.abs(base).max()

    def test_mirror_boundary_shape_and_edges(self):
        n = 300
        x = np.linspace(0.0, 1.0, n)
        grid = scale_grid(n, P93)
        res = transform(SignalBuffer(x), grid, boundary="mirror")
        assert res.coefficients.shape == (n, len(grid))
        assert res.boundary == "mirror"

    def test_energy_conservation_unitary(self):
        # sum over a dense log grid of |W|^2 * dlns / s approximates
        # C * ||x||^2 with C the admissibility-like constant, up to a
        # constant factor that is stable across signals (1/2 for real
        # input, whose negative-bin energy the analytic filter discards;
        # 1 for analytic input)
        n = 1024
        grid = scale_grid(n, P93, density=32, eta=0.01, p0=2.0)
        dlns = math.log(2.0) / grid.density
        c_admiss = quadrature_integral(lambda w: eval_spectrum(P93, w) ** 2 / w)

        def ratio(samples):
            res = transform(
                SignalBuffer(samples), grid, normalization="unitary_n_half"
            )
            total = float(
                np.sum(np.abs(res.coefficients) ** 2 / grid.scales * dlns)
            )
            return total / (float(np.sum(np.abs(samples) ** 2)) * c_admiss)

        real_ratios = [ratio(_tone(n, k)[0].samples) for k in (64, 100, 170)]
        for r in real_ratios:
            assert r == pytest.approx(real_ratios[0], rel=0.01)
        assert real_ratios[0] == pytest.approx(0.5, rel=0.02)

        w0 = 2.0 * np.pi * 100 / n
        assert ratio(np.exp(1j * w0 * np.arange(n))) == pytest.approx(1.0, rel=0.02)

    # (beta, gamma): C of the bound C h^2, h = ln 2 / density, about 1.5x
    # the largest |relative error| / h^2 measured over densities 8, 16 and
    # 32 and both normalizations (at density 4, (20, 10) reads 2.8)
    ENERGY_CLOSURE_C = {(9.0, 3.0): 1.2e-4, (60.0, 0.3): 0.013, (3.0, 1.0): 0.1,
                        (1.0, 2.0): 0.09, (20.0, 10.0): 0.25}

    @pytest.mark.parametrize("normalization", ["bandpass_n1", "unitary_n_half"])
    @pytest.mark.parametrize("beta, gamma", list(ENERGY_CLOSURE_C))
    def test_energy_closes_on_the_closed_form(self, beta, gamma, normalization):
        # Parseval per row: sum_t |W_j(t)|^2 = (1/n) sum_k |X_k Psi(s_j w_k)|^2.
        # The trapezoid sum over ln s of Psi(s w)^2 is m_-1 [P(a, 2 (s_max
        # w)^gamma) - P(a, 2 (s_min w)^gamma)], a = 2 beta/gamma, with P the
        # regularized lower incomplete gamma; the unitary row's factor s
        # makes it m_0 / w times the same difference at a = (2 beta + 1)/gamma
        from scipy.special import gammainc

        from morsekit.props import log_energy_moment

        p, n, bins = MorseParams(beta, gamma), 4096, np.array([200, 330, 517])
        x = np.cos(2.0 * np.pi * bins[:, None] * np.arange(n) / n).sum(axis=0)
        w = 2.0 * np.pi * bins / n
        unitary = normalization == "unitary_n_half"
        a = (2.0 * beta + unitary) / gamma
        moment = math.exp(log_energy_moment(p, 0 if unitary else -1)) / (w if unitary else 1.0)
        for density in (8, 16, 32):
            grid = scale_grid(n, p, density=density, eta=1e-3, p0=1.0)
            s = grid.scales
            weights = np.full(len(s), math.log(s[-1] / s[0]) / (len(s) - 1))
            weights[[0, -1]] *= 0.5
            coef = transform(SignalBuffer(x), grid, normalization=normalization).coefficients
            got = (np.abs(coef) ** 2).sum(axis=0) @ weights
            # each cosine puts |X_k|^2 = n^2/4 on its positive bin
            band = gammainc(a, 2.0 * (s[-1] * w) ** gamma) - gammainc(a, 2.0 * (s[0] * w) ** gamma)
            want = n / 4.0 * float(np.sum(moment * band))
            h = math.log(2.0) / density
            assert abs(got / want - 1.0) <= self.ENERGY_CLOSURE_C[beta, gamma] * h * h, density

    def test_validation(self):
        sig, _ = _tone(256, 30)
        grid = scale_grid(256, P93)
        with pytest.raises(ValueError):
            transform(sig, grid, normalization="l2")
        with pytest.raises(ValueError):
            transform(sig, grid, boundary="wrap")

    def test_result_invariants(self):
        sig, _ = _tone(256, 30)
        grid = scale_grid(256, P93)
        res = transform(sig, grid)
        assert res.coefficients.shape == (256, len(grid))
        with pytest.raises(ValueError):
            CwtResult(
                coefficients=res.coefficients[:, :-1],
                scales=grid,
                normalization="bandpass_n1",
                boundary="periodic",
            )


def _noise(n, complex_signal=False, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if complex_signal else x


class TestBlockedTransform:
    """The threaded filter bank against the plain one-scale-at-a-time loop."""

    # odd and prime lengths, a complex signal; the spectra of (9, 3) and
    # (3, 2) underflow to 0 below the Nyquist rate on most scales, those of
    # (20, 1) and (60, 0.3) trail far past it
    CASES = [
        (1237, (9.0, 3.0), False),
        (1031, (20.0, 1.0), True),
        (2048, (3.0, 2.0), False),
        (1500, (60.0, 0.3), True),
    ]

    @pytest.mark.parametrize("boundary", ["periodic", "zero", "mirror"])
    @pytest.mark.parametrize("normalization", ["bandpass_n1", "unitary_n_half"])
    @pytest.mark.parametrize("n, params, complex_signal", CASES)
    def test_bitwise_equal_to_reference(self, boundary, normalization, n, params,
                                        complex_signal):
        x = _noise(n, complex_signal)
        grid = scale_grid(n, MorseParams(*params), density=4)
        got = transform(SignalBuffer(x), grid, normalization, boundary).coefficients
        assert got.shape == (n, len(grid)) and got.flags.f_contiguous
        assert np.array_equal(got, reference_transform(x, grid, normalization, boundary))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1237, 1024])
    def test_one_single_thread_ifft_per_row(self, monkeypatch, workers, n):
        x = _noise(n, seed=1)
        grid = scale_grid(n, P93, density=4)
        # a grid of fewer scales than workers leaves a thread without a row
        short = dataclasses.replace(grid, scales=grid.scales[:2])
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        calls = []
        lock = threading.Lock()

        # transform looks each transform up on np.fft when it runs
        def counted(name):
            fn = getattr(np.fft, name)

            def call(a, **kw):
                with lock:
                    calls.append((name, a.shape, kw.get("out") is a))
                return fn(a, **kw)

            monkeypatch.setattr(np.fft, name, call)

        for name in ("fft", "ifft"):
            counted(name)
        for boundary in ("periodic", "zero", "mirror"):
            m = n if boundary == "periodic" else 1 << (2 * n - 1).bit_length()
            for normalization in ("bandpass_n1", "unitary_n_half"):
                for g in (grid, short):
                    calls.clear()
                    got = transform(SignalBuffer(x), g, normalization, boundary).coefficients
                    made = list(calls)
                    if boundary == "mirror" and m == 2 * n:
                        # the forward FFT of [x, x[::-1]] once, then one
                        # n-point inverse a row, unfolded to the 2n-point row
                        assert made == ([("fft", (m,), False)]
                                        + [("ifft", (n,), True)] * len(g))
                    else:
                        assert made == ([("fft", (m,), False)]
                                        + [("ifft", (m,), True)] * len(g))
                    assert np.array_equal(
                        got, reference_transform(x, g, normalization, boundary)
                    )

    def test_worker_count_independence(self, monkeypatch):
        n = 4096
        x = _noise(n, seed=2)
        grid = scale_grid(n, P93, density=8)
        out = {}
        for workers in (1, 2):
            monkeypatch.setattr(core, "CPU_COUNT", workers)
            out[workers] = [
                transform(SignalBuffer(x), grid, boundary=b).coefficients.tobytes()
                for b in ("periodic", "mirror")
            ]
        assert out[1] == out[2]

    @pytest.mark.parametrize("params", [(9.0, 3.0), (20.0, 1.0), (3.0, 2.0), (60.0, 0.3)])
    def test_support_cut_skips_only_exact_zeros(self, monkeypatch, params):
        n = 2048
        p = MorseParams(*params)
        grid = scale_grid(n, p, density=4)
        evaluated = []

        def recording(q, omega):
            if np.ndim(omega):  # a filter row, not a step of the cutoff search
                evaluated.append(len(omega))
            return eval_spectrum(q, omega)

        monkeypatch.setattr(TRANSFORM, "eval_spectrum", recording)
        transform(SignalBuffer(_noise(n)), grid)
        omega_pos = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        assert len(evaluated) == len(grid)
        # threads take the rows in any order; a row's support shrinks as its
        # scale grows
        for s, k in zip(grid.scales, sorted(evaluated, reverse=True)):
            assert np.all(eval_spectrum(p, s * omega_pos[k:]) == 0.0)
        if params == (9.0, 3.0):
            assert sum(evaluated) < 0.6 * len(grid) * len(omega_pos)

    @pytest.mark.parametrize("normalization", ["bandpass_n1", "unitary_n_half"])
    @pytest.mark.parametrize("params", [(9.0, 3.0), (60.0, 0.3), (0.0, 2.0)])
    @pytest.mark.parametrize("complex_signal", [False, True])
    @pytest.mark.parametrize("n", [2, 1024, 2048, 4096])
    def test_power_of_two_mirror_matches_padded_fft(self, n, complex_signal, params,
                                                    normalization):
        # the unfolded n-point rows (real signal) against one inverse FFT of
        # the padded spectrum per scale; measured: at most 9.7e-16 of a
        # column's maximum.  A complex signal's rows are the padded ones
        p = MorseParams(*params)
        x = _noise(n, complex_signal, seed=7)
        if n == 2 or p.beta == 0:
            # hand-built grids: scale_grid rejects n = 2 and beta = 0; at
            # n = 2 the scales put the one bin below Nyquist, pi/2, near w_p
            wp = 1.0 if p.beta == 0 else peak_frequency(p)
            scales = (np.geomspace(0.5, 40.0, 12) if n > 2
                      else np.geomspace(0.5, 2.0, 8) * wp / (np.pi / 2))
            grid = ScaleGrid(scales, p, 0.1, 5.0, 4)
        else:
            grid = scale_grid(n, p, density=4)
        got = transform(SignalBuffer(x), grid, normalization, "mirror").coefficients
        want = padded_reference_transform(x, grid, normalization, "mirror")
        col_max = np.abs(want).max(axis=0)
        assert np.all(col_max > 0)
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-13 * col_max)

    @pytest.mark.parametrize("normalization", ["bandpass_n1", "unitary_n_half"])
    @pytest.mark.parametrize("params", [(9.0, 3.0), (60.0, 0.3), (3.0, 2.0)])
    @pytest.mark.parametrize("complex_signal", [False, True])
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_power_of_two_mirror_matches_explicit_extension(self, n, complex_signal, params,
                                                            normalization):
        # the definition of the boundary: one 2n-point inverse FFT per scale
        # of the filtered one-sided spectrum of [x, x[::-1]], cropped to
        # t < n; measured: at most 9.0e-16 of a column's maximum (real
        # signal), 0 (complex)
        x = _noise(n, complex_signal, seed=9)
        grid = scale_grid(n, MorseParams(*params), density=4)
        got = transform(SignalBuffer(x), grid, normalization, "mirror").coefficients
        spectrum = np.fft.fft(np.concatenate((x, x[::-1])))
        omega = 2.0 * np.pi * np.arange(n + 1) / (2 * n)
        for j, s in enumerate(grid.scales):
            filtered = np.zeros(2 * n, complex)
            filtered[: n + 1] = spectrum[: n + 1] * eval_spectrum(grid.params, s * omega)
            want = np.fft.ifft(filtered)[:n]
            if normalization == "unitary_n_half":
                want *= math.sqrt(s)
            assert np.abs(got[:, j] - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("boundary", ["periodic", "zero", "mirror"])
    @pytest.mark.parametrize("n", [1024, 1237])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int16])
    def test_narrow_signal_runs_as_its_double_cast(self, dtype, n, boundary):
        # np.fft.fft would run a float32 or complex64 signal in single
        # precision; every boundary, padded or not, takes the double cast
        x = _noise(n, dtype is np.complex64, seed=8)
        x = np.round(1000.0 * x).astype(dtype) if dtype is np.int16 else x.astype(dtype)
        grid = scale_grid(n, P93, density=4)
        got = transform(SignalBuffer(x), grid, boundary=boundary).coefficients
        wide = x.astype(np.promote_types(dtype, np.float64))
        assert wide.dtype in (np.float64, np.complex128)
        assert np.array_equal(got, transform(SignalBuffer(wide), grid,
                                             boundary=boundary).coefficients)

    @pytest.mark.parametrize("boundary", ["periodic", "zero", "mirror"])
    def test_lowpass_member(self, boundary):
        # beta = 0 has no peak and scale_grid rejects it, but a hand-built
        # grid still runs; from scale 9 on its filter underflows below Nyquist
        n = 1031
        x = _noise(n, seed=4)
        grid = ScaleGrid(np.geomspace(0.5, 40.0, 12), MorseParams(0.0, 2.0), 0.1, 5.0, 4)
        got = transform(SignalBuffer(x), grid, boundary=boundary).coefficients
        assert np.array_equal(got, reference_transform(x, grid, boundary=boundary))

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("boundary", ["periodic", "mirror"])
    def test_memory_is_output_plus_one_row_per_worker(self, monkeypatch, boundary,
                                                      workers):
        n = 4096
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        x = _noise(n, seed=3)
        grid = scale_grid(n, P93, density=8)
        tracemalloc.start()
        try:
            res = transform(SignalBuffer(x), grid, boundary=boundary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # periodic rows are inverted in place in the output; a mirror row of
        # this power-of-two length is one complex row of n.  A row has n/2
        # nonnegative bins (periodic) or n (mirror), and its filter
        # temporaries take about 32 bytes a bin.  The spectrum, the bin
        # frequencies and the signal's transform take a few dozen bytes
        # per sample.
        row, bins = (0, n // 2) if boundary == "periodic" else (16 * n, n)
        assert peak <= res.coefficients.nbytes + workers * (row + 32 * bins) + 96 * n


class _RowFailure(Exception):
    pass


class TestRowWorkers:
    """The filter bank's threads: errors, joins, and none for one CPU."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("boundary", ["periodic", "mirror"])
    def test_error_in_one_row_reaches_the_caller(self, monkeypatch, boundary, workers):
        n = 4096
        grid = scale_grid(n, P93, density=8)
        monkeypatch.setattr(core, "CPU_COUNT", workers)
        failure = _RowFailure("row 5")
        calls = []
        lock = threading.Lock()

        def failing(q, omega):
            if np.ndim(omega):  # a filter row, not a step of the cutoff search
                with lock:
                    calls.append(len(omega))
                    if len(calls) == 5:
                        raise failure
            return eval_spectrum(q, omega)

        monkeypatch.setattr(TRANSFORM, "eval_spectrum", failing)
        threads = threading.active_count()
        with pytest.raises(_RowFailure) as excinfo:
            transform(SignalBuffer(_noise(n)), grid, boundary=boundary)
        assert excinfo.value is failure
        assert threading.active_count() == threads
        # the others stopped taking rows once the fifth one failed
        assert 5 <= len(calls) < len(grid)

    @pytest.mark.parametrize("boundary, n", [("periodic", 1237), ("mirror", 1237),
                                             ("mirror", 1024)])
    def test_more_threads_than_cpus_take_each_row_once(self, monkeypatch, boundary, n):
        x = _noise(n, seed=6)
        grid = scale_grid(n, P93, density=8)
        monkeypatch.setattr(core, "CPU_COUNT", 8)
        calls = []
        # every row is one inverse FFT
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda a, **kw: calls.append(1) or ifft(a, **kw))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = transform(SignalBuffer(x), grid, boundary=boundary).coefficients
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == len(grid)
        assert np.array_equal(got, reference_transform(x, grid, boundary=boundary))

    def test_one_worker_starts_no_thread(self, monkeypatch):
        n = 1237
        x = _noise(n, seed=5)
        grid = scale_grid(n, P93, density=4)
        monkeypatch.setattr(core, "CPU_COUNT", 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was created")

        monkeypatch.setattr(TRANSFORM.threading, "Thread", no_thread)
        for boundary in ("periodic", "zero", "mirror"):
            got = transform(SignalBuffer(x), grid, boundary=boundary).coefficients
            assert np.array_equal(got, reference_transform(x, grid, boundary=boundary))


class TestRidgeCheck:
    def test_recovers_tone_scale(self):
        sig, w0 = _tone()
        grid = scale_grid(1024, P93, density=16)
        res = transform(sig, grid)
        s = ridge_frequency_check(res, w0)
        assert abs(math.log(s * w0 / peak_frequency(P93))) <= grid.log_step()

    def test_exact_grid_scale_tone(self):
        grid = scale_grid(1024, P93, density=8)
        s_mid = grid.scales[len(grid) // 2]
        w0 = peak_frequency(P93) / s_mid
        # snap to a DFT bin to keep the tone periodic
        k = round(w0 * 1024 / (2 * math.pi))
        sig, w0 = _tone(1024, k)
        res = transform(sig, grid)
        s = ridge_frequency_check(res, w0)
        assert abs(math.log(s * w0 / peak_frequency(P93))) <= grid.log_step()

    def test_out_of_band_tone_rejected(self):
        sig, w0 = _tone(1024, 2)  # far below the analyzed band
        grid = scale_grid(1024, P93, density=8)
        res = transform(sig, grid)
        with pytest.raises(ValueError, match="band"):
            ridge_frequency_check(res, w0)

    def test_nyquist_tone_rejected(self):
        # with the default eta cutoff the band stops short of the Nyquist
        # rate, so a tone there has no interior ridge
        n = 1024
        sig = SignalBuffer(np.cos(math.pi * np.arange(n)))
        grid = scale_grid(n, P93, density=8)
        res = transform(sig, grid)
        with pytest.raises(ValueError, match="band"):
            ridge_frequency_check(res, math.pi)

    def test_wrong_tone_frequency_rejected(self):
        # the ridge sits at the tone's scale, which is not the one a tone
        # at 1.5 w0 would give
        sig, w0 = _tone()
        res = transform(sig, scale_grid(1024, P93, density=16))
        with pytest.raises(ValueError, match="misses the predicted scale by more than one grid step"):
            ridge_frequency_check(res, 1.5 * w0)

    def test_chirp_rejected(self):
        n = 1024
        t = np.arange(n)
        chirp = np.cos(2 * np.pi * (0.05 + 0.15 * t / n) * t)
        grid = scale_grid(n, P93, density=8)
        res = transform(SignalBuffer(chirp), grid)
        with pytest.raises(ValueError, match="pure tone"):
            ridge_frequency_check(res, 2 * np.pi * 0.125)

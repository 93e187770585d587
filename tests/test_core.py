import math

import mpmath
import numpy as np
import pytest
from helpers import log_grid

from morsekit.core import (
    MorseParams,
    SampledSpectrum,
    SampledWaveform,
    _rescaled_log_shape,
    amplitude_constant,
    approx_spectrum,
    duration,
    eval_rescaled_spectrum,
    eval_spectrum,
    expansion_coeffs,
    gallery_tables,
    half_power_frequency,
    log_spectrum_derivatives,
    peak_frequency,
    rescaled_log_spectrum_derivatives,
    sample_wavelet,
)
from morsekit.superfamily import (
    analytic_filter_spectrum,
    bessel_spectrum,
    lognormal_spectrum,
    shannon_spectrum,
)

# the documented validity ranges, which the property tests span log-uniformly
RANGES = ((1e-3, 500.0), (0.02, 20.0))

# the small-gamma corner where w_p**n leaves double range: d_n underflows
# to 0 at (1, e^-3.875) and (e^3, e^-3.5), turns subnormal at (e^2, e^-3.5),
# and wp**2 overflows at (e^4, e^-3.875)
SMALL_GAMMA_CORNER = [
    (1.0, math.exp(-3.875)),
    (math.exp(3.0), math.exp(-3.5)),
    (math.exp(2.0), math.exp(-3.5)),
    (math.exp(4.0), math.exp(-3.875)),
]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MorseParams(-1.0, 3.0)
        with pytest.raises(ValueError):
            MorseParams(3.0, 0.0)
        with pytest.raises(ValueError):
            MorseParams(math.nan, 3.0)

    def test_localization_region(self):
        assert MorseParams(3, 3).in_localization_region
        assert not MorseParams(0.5, 3).in_localization_region  # beta <= (g-1)/2
        assert not MorseParams(3, 0.5).in_localization_region  # gamma < 1
        assert MorseParams(0.1, 1).in_localization_region


class TestPeakFrequency:
    def test_beta_equals_gamma(self):
        assert peak_frequency(MorseParams(3, 3)) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_vs_grid_argmax(self):
        p = MorseParams(9, 3)
        wp = peak_frequency(p)
        assert wp == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)
        # independent oracle: dense grid argmax
        grid = np.linspace(0.5, 3.0, 200001)
        assert abs(grid[np.argmax(eval_spectrum(p, grid))] - wp) < 2e-5

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            peak_frequency(MorseParams(0, 2))

    def test_half_power_frequency(self):
        p = MorseParams(0, 2)
        whalf = half_power_frequency(p)
        assert whalf == pytest.approx(math.log(2.0) ** 0.5, rel=1e-14)
        assert eval_spectrum(p, whalf) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            half_power_frequency(MorseParams(1, 2))


class TestDuration:
    def test_values(self):
        assert duration(MorseParams(3, 3)) == pytest.approx(3.0)
        assert duration(MorseParams(1, 1)) == pytest.approx(1.0)
        assert duration(MorseParams(9, 1)) == pytest.approx(3.0)

    def test_diagonal_invariance(self):
        assert duration(MorseParams(9, 1)) == duration(MorseParams(1, 9))

    def test_matches_second_log_derivative(self):
        # P**2 = -wp**2 * d2, read off the peak-rescaled derivative
        # wp**2 * d2, which stays representable where wp**2 overflows
        for b, g in log_grid(*RANGES, 60) + SMALL_GAMMA_CORNER:
            p = MorseParams(b, g)
            r2 = rescaled_log_spectrum_derivatives(p, 2)[1]
            assert math.sqrt(-r2) == pytest.approx(duration(p), rel=1e-10), (b, g)


class TestAmplitude:
    def test_cauchy_member(self):
        assert amplitude_constant(MorseParams(1, 1)) == pytest.approx(
            2.0 * math.e, rel=1e-14
        )

    def test_beta_zero(self):
        assert amplitude_constant(MorseParams(0, 2)) == 2.0
        assert amplitude_constant(MorseParams(0, 0.5)) == 2.0

    @pytest.mark.parametrize("params", [(300.0, 1.0), (1e4, 3.0), (1e6, 1e-3)])
    def test_log_form_is_finite_where_the_constant_flushes(self, params):
        from morsekit import log_amplitude_constant  # exported by the package

        p = MorseParams(*params)
        assert amplitude_constant(p) == 0.0
        with mpmath.workdps(40):
            q = mpmath.mpf(p.beta) / p.gamma
            want = float(mpmath.log(2) + q * (1 - mpmath.log(q)))
        got = log_amplitude_constant(p)
        assert math.isfinite(got) and abs(got - want) <= 1e-14 * abs(want)

    def test_peak_value_two(self):
        for b, g in log_grid(*RANGES, 120):
            p = MorseParams(b, g)
            assert eval_spectrum(p, peak_frequency(p)) == pytest.approx(2.0, rel=1e-12), (b, g)

    def test_peak_is_maximal(self):
        for b, g in log_grid(*RANGES, 60):
            p = MorseParams(b, g)
            wp = peak_frequency(p)
            assert eval_spectrum(p, wp * (1 + 1e-3)) < 2.0, (b, g)
            assert eval_spectrum(p, wp * (1 - 1e-3)) < 2.0, (b, g)


def _beta_zero(g):
    # exp(ln a + beta ln w - w**gamma) with ln a = ln 2 and beta = 0
    return pytest.param(
        lambda w: eval_spectrum(MorseParams(0, g), w),
        lambda w: np.exp(math.log(2.0) + 0.0 * np.log(w) - np.exp(g * np.log(w))),
        0.0,
        id=str(g),
    )


# every spectrum with the analytic step U(w), its plain formula for finite
# w > 0, and its limit at w = +inf
ANALYTIC_SPECTRA = [_beta_zero(g) for g in (0.02, 1.0, 3.0, 60.0)] + [
    pytest.param(lambda w: lognormal_spectrum(3.0, w),
                 lambda w: 2.0 * np.exp(-0.5 * 3.0**2 * np.log(w) ** 2), 0.0, id="lognormal"),
    pytest.param(shannon_spectrum, lambda w: np.where(w <= 1.0, 2.0, 0.0), 0.0, id="shannon"),
    pytest.param(bessel_spectrum, lambda w: 2.0 * np.exp(2.0 - (w + 1.0 / w)), 0.0, id="bessel"),
    pytest.param(analytic_filter_spectrum, lambda w: np.full_like(w, 2.0), 2.0,
                 id="analytic_filter"),
]


class TestEvalSpectrum:
    def test_analyticity(self):
        p = MorseParams(2, 3)
        assert eval_spectrum(p, -1.0) == 0.0
        assert eval_spectrum(p, 0.0) == 0.0
        assert eval_spectrum(MorseParams(0, 1), 0.0) == 0.0
        assert np.all(eval_spectrum(p, np.linspace(-5, 0, 11)) == 0.0)

    def test_cauchy_value(self):
        assert eval_spectrum(MorseParams(1, 1), 2.0) == pytest.approx(
            4.0 / math.e, rel=1e-14
        )

    def test_no_overflow_large_beta(self):
        p = MorseParams(500, 0.5)
        wp = peak_frequency(p)
        assert eval_spectrum(p, wp) == pytest.approx(2.0, rel=1e-12)
        assert np.isfinite(eval_spectrum(p, wp * 2.0))

    def test_underflow_flushes_to_zero(self):
        assert eval_spectrum(MorseParams(2, 3), 1e4) == 0.0
        assert eval_spectrum(MorseParams(2, 3), math.inf) == 0.0

    @pytest.mark.parametrize("spectrum, formula, at_inf", ANALYTIC_SPECTRA)
    @pytest.mark.filterwarnings("error")  # no RuntimeWarning may escape the step
    def test_beta_zero_bitwise_equal_to_the_amplitude_form(self, spectrum, formula, at_inf):
        rng = np.random.default_rng(1)
        w = np.concatenate([[0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324,
                             1e-300, 1e300], np.exp(rng.uniform(-50.0, 50.0, 400))])
        out = spectrum(w)
        pos = w > 0
        assert not out[~pos].any() and np.all(np.isfinite(out[pos]))
        want = np.where(w == math.inf, at_inf, 0.0)
        finite = pos & np.isfinite(w)
        with np.errstate(over="ignore", under="ignore"):
            want[finite] = formula(w[finite])
        assert out.tobytes() == want.tobytes()
        scalars = [spectrum(x) for x in w.tolist()]
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == want.tobytes()


class TestRescaledSpectrum:
    def test_unit_peak(self):
        for b, g in [(1, 1), (9, 3), (22, 0.1), (0.009, 1000.0)]:
            assert eval_rescaled_spectrum(MorseParams(b, g), 1.0) == pytest.approx(
                2.0, rel=1e-12
            )

    def test_nonpositive(self):
        assert eval_rescaled_spectrum(MorseParams(3, 3), 0.0) == 0.0
        assert eval_rescaled_spectrum(MorseParams(3, 3), -2.0) == 0.0

    def test_cauchy_value(self):
        assert eval_rescaled_spectrum(MorseParams(1, 1), 2.0) == pytest.approx(
            4.0 / math.e, rel=1e-14
        )

    def test_agrees_with_direct_scaling(self):
        p = MorseParams(5, 2)
        wp = peak_frequency(p)
        w = np.linspace(0.1, 3.0, 57)
        np.testing.assert_allclose(
            eval_rescaled_spectrum(p, w), eval_spectrum(p, wp * w), rtol=1e-12
        )

    def test_requires_beta(self):
        with pytest.raises(ValueError):
            eval_rescaled_spectrum(MorseParams(0, 1), 1.0)

    @staticmethod
    def _masked(p, omega):
        # the formula on w > 0 and finite only, zero elsewhere and wherever
        # the exponent is nan
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        out = np.zeros_like(w)
        pos = (w > 0) & np.isfinite(w)
        if np.any(pos):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                logw = np.log(w[pos])
                expo = p.beta * logw + (p.beta / p.gamma) * (1.0 - np.exp(p.gamma * logw))
                vals = 2.0 * np.exp(expo)
            out[pos] = np.where(np.isnan(expo), 0.0, vals)
        return float(out[0]) if scalar else out

    @pytest.mark.parametrize("b, g", [(9, 3), (60, 0.3), (1e-3, 10), (500, 0.05), (1, 30)])
    def test_bitwise_equal_to_the_masked_formula(self, b, g):
        p = MorseParams(b, g)
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, -1.0, -1e-300, -math.inf, math.inf, math.nan,
                   1e-300, 1e300, 5e-324, 1.0, 1.7e308]
        for w in (np.array(special), 3.0 * rng.standard_normal(500),
                  np.exp(rng.uniform(-700.0, 700.0, 500)), rng.uniform(0.0, 5.0, (7, 9))):
            got = eval_rescaled_spectrum(p, w)
            assert got.shape == w.shape
            assert got.tobytes() == self._masked(p, w).tobytes()
        for w in special:
            got = eval_rescaled_spectrum(p, w)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(self._masked(p, w)).tobytes()


class TestLogShapeKernel:
    """core._rescaled_log_shape, written into ``out``, gives the bits of
    the allocating formula."""

    @staticmethod
    def _formula(b, g, lw):
        return b * lw + (b / g) * (1.0 - np.exp(g * lw))

    nodes = np.array([0.0, -0.0, -1.0, math.inf, math.nan, 5e-324, 1e-3, 0.5, 1.0,
                      1.5, 4.0, 1e300])

    @pytest.mark.parametrize("b, g", [(9.0, 3.0), (22.0, 0.1), (1e-3, 30.0), (500.0, 0.05)])
    def test_in_place_over_the_log_frequencies(self, b, g):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lw = np.log(self.nodes)
            want = self._formula(b, g, lw)
            got = _rescaled_log_shape(b, g, lw, out=lw)
        assert got is lw
        assert got.tobytes() == want.tobytes()

    def test_broadcast_of_a_parameter_column_against_the_nodes(self):
        b = np.array([[9.0], [22.0], [1e-3], [500.0]])
        g = np.array([[3.0], [0.1], [30.0], [0.05]])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lw = np.log(self.nodes)
            want = self._formula(b, g, lw)
            out = np.empty(want.shape)
            got = _rescaled_log_shape(b, g, lw, out=out)
            allocated = _rescaled_log_shape(b, g, lw)
        assert got is out
        assert got.shape == (4, self.nodes.size)
        assert got.tobytes() == want.tobytes()
        assert allocated.tobytes() == want.tobytes()


from helpers import fd_log_derivative


class TestLogDerivatives:
    def test_first_is_zero(self):
        for b, g in [(1, 1), (9, 3), (0.7, 11.0), (300, 0.05)]:
            assert log_spectrum_derivatives(MorseParams(b, g), 1)[0] == 0.0

    def test_second_closed_form(self):
        p = MorseParams(5, 2)
        wp = peak_frequency(p)
        assert log_spectrum_derivatives(p, 2)[1] == pytest.approx(
            -p.beta * p.gamma / wp**2, rel=1e-13
        )

    def test_third_vanishes_at_gamma_three(self):
        for b in (0.5, 3.0, 40.0):
            d3 = log_spectrum_derivatives(MorseParams(b, 3), 3)[2]
            assert d3 == pytest.approx(0.0, abs=1e-12 * b)

    @pytest.mark.parametrize("b,g", [(1, 1), (3, 3), (9, 3), (2, 6), (27, 0.25)])
    def test_against_finite_differences(self, b, g):
        p = MorseParams(b, g)
        analytic = log_spectrum_derivatives(p, 4)
        wp = peak_frequency(p)
        for n in range(1, 5):
            fd = fd_log_derivative(b, g, n)
            scale = max(abs(analytic[n - 1]), abs(p.beta * p.gamma) / wp**n)
            assert abs(fd - analytic[n - 1]) < 1e-6 * scale

    @pytest.mark.parametrize("b,g", [(1, 1), (9, 3), (2, 6), (27, 0.25), (0.7, 11.0)])
    def test_rescaled_is_peak_power_times_unscaled(self, b, g):
        p = MorseParams(b, g)
        wp = peak_frequency(p)
        d = log_spectrum_derivatives(p, 6)
        r = rescaled_log_spectrum_derivatives(p, 6)
        for n in range(1, 7):
            expected = wp**n * d[n - 1]
            assert r[n - 1] == pytest.approx(expected, rel=1e-13, abs=1e-13 * b)

    def test_rescaled_survives_unscaled_range_loss(self):
        b, g = 1.0, math.exp(-3.875)
        assert log_spectrum_derivatives(MorseParams(b, g), 4)[3] == 0.0
        r4 = rescaled_log_spectrum_derivatives(MorseParams(b, g), 4)[3]
        assert r4 == pytest.approx(-b * g * ((g - 3.0) ** 2 + 2.0), rel=1e-14)
        # tiny w_p: d_10 overflows to -inf while w_p**10 d_10 stays O(beta)
        p = MorseParams(1e-3, 0.02)
        assert log_spectrum_derivatives(p, 10)[9] == -math.inf
        assert math.isfinite(rescaled_log_spectrum_derivatives(p, 10)[9])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            log_spectrum_derivatives(MorseParams(0, 1), 2)
        with pytest.raises(ValueError):
            rescaled_log_spectrum_derivatives(MorseParams(1, 1), 0)
        with pytest.raises(ValueError):
            log_spectrum_derivatives(MorseParams(1, 1), 11)


class TestExpansionCoeffs:
    def test_cubic_zero_at_gamma_three(self):
        for b in (0.3, 1.0, 7.0, 123.0):
            assert expansion_coeffs(MorseParams(b, 3)).cubic == 0.0

    def test_examples(self):
        assert expansion_coeffs(MorseParams(3, 1)).cubic == pytest.approx(1.0)
        assert expansion_coeffs(MorseParams(3, 3)).quartic == pytest.approx(-0.75)

    def test_lowpass_member_rejected(self):
        with pytest.raises(ValueError, match="^expansion coefficients require beta > 0$"):
            expansion_coeffs(MorseParams(0, 3))

    def test_consistent_with_log_derivatives(self):
        # the coefficients must equal wp**n * d_n / n!, taken from the
        # peak-rescaled derivatives since wp**n alone can leave double range
        def check(coef, rn, fact):
            if coef == 0.0 or rn == 0.0:
                assert coef == 0.0 and rn == 0.0, (b, g)
                return
            assert math.copysign(1, coef) == math.copysign(1, rn), (b, g)
            assert abs(math.log(abs(coef) * fact) - math.log(abs(rn))) < 1e-9, (b, g)

        for b, g in log_grid(*RANGES, 60) + SMALL_GAMMA_CORNER:
            p = MorseParams(b, g)
            c = expansion_coeffs(p)
            r = rescaled_log_spectrum_derivatives(p, 4)
            check(-c.duration_sq, r[1], 1.0)
            check(c.cubic, r[2], 6.0)
            check(c.quartic, r[3], 24.0)


class TestApproxSpectrum:
    def test_value_at_peak(self):
        p = MorseParams(4, 2)
        wp = peak_frequency(p)
        assert approx_spectrum(p, wp, order=2) == pytest.approx(2.0)
        assert approx_spectrum(p, wp, order=4) == pytest.approx(2.0)

    def test_gaussian_value(self):
        p = MorseParams(3, 3)
        assert approx_spectrum(p, 2.0 * peak_frequency(p), order=2) == pytest.approx(
            2.0 * math.exp(-4.5), rel=1e-13
        )

    def test_quartic_reduces_to_gaussian_times_quartic_at_gamma3(self):
        p = MorseParams(5, 3)
        c = expansion_coeffs(p)
        wp = peak_frequency(p)
        w = np.linspace(0.5 * wp, 1.5 * wp, 21)
        x = w / wp - 1.0
        expected = approx_spectrum(p, w, order=2) * np.exp(c.quartic * x**4)
        np.testing.assert_allclose(approx_spectrum(p, w, order=4), expected, rtol=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            approx_spectrum(MorseParams(3, 3), 1.0, order=3)


class TestSampleSpectrum:
    def test_invariants(self):
        from morsekit.core import sample_spectrum

        freqs = np.linspace(-1.0, 5.0, 301)
        s = sample_spectrum(MorseParams(3, 3), freqs)
        assert len(s.frequencies) == len(s.values)
        assert np.all(np.isreal(s.values)) and np.all(s.values >= 0)
        assert np.all(s.values[s.frequencies <= 0] == 0)

    def test_rejects_unsorted_grid(self):
        from morsekit.core import sample_spectrum

        with pytest.raises(ValueError, match="increasing"):
            sample_spectrum(MorseParams(3, 3), np.array([1.0, 0.5, 2.0]))


class TestSampledContainers:
    @pytest.mark.parametrize("cls", [SampledSpectrum, SampledWaveform])
    @pytest.mark.parametrize("grid, values", [
        (np.arange(3.0), np.ones(4)),
        (np.arange(4.0).reshape(2, 2), np.ones(4)),
        (np.arange(4.0), np.ones((4, 1))),
    ])
    def test_shapes_must_match(self, cls, grid, values):
        with pytest.raises(ValueError, match="must be 1-D and equally long$"):
            cls(grid, values)

    @pytest.mark.parametrize("freqs", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_spectrum_grid_must_increase(self, freqs):
        with pytest.raises(ValueError, match="^frequency grid must be strictly increasing$"):
            SampledSpectrum(np.array(freqs), np.ones(3))

    def test_waveform_grid_must_be_uniform(self):
        with pytest.raises(ValueError, match="^time grid must be uniform$"):
            SampledWaveform(np.array([0.0, 1.0, 2.0, 3.5]), np.ones(4))


class TestSampleWavelet:
    def test_zero_mean(self):
        wf = sample_wavelet(MorseParams(3, 3), 1.0, 512, 0.15)
        assert abs(np.sum(wf.values) * wf.dt) < 1e-10 * np.abs(wf.values).max()

    def test_modulus_symmetry(self):
        wf = sample_wavelet(MorseParams(9, 3), 1.0, 1024, 0.2)
        mod = np.abs(wf.values)
        n = len(mod)
        left = mod[1 : n // 2][::-1]
        right = mod[n // 2 + 1 :]
        np.testing.assert_allclose(right, left, rtol=0, atol=1e-10 * mod.max())

    def test_time_localization(self):
        p = MorseParams(9, 3)
        pd, wp = duration(p), peak_frequency(p)
        n = 16384
        wf = sample_wavelet(p, 1.0, n, (200.0 * pd / wp) / n)
        mod = np.abs(wf.values)
        center = mod[n // 2]
        # Gaussian envelope exp(-(t*wp/P)^2/2): ~0.14 at 2P/wp, <0.05 by 2.5P/wp
        assert mod[np.abs(wf.times) > 2.0 * pd / wp].max() / center < 0.15
        assert mod[np.abs(wf.times) > 2.5 * pd / wp].max() / center < 0.05

    def test_dft_round_trip(self):
        p = MorseParams(9, 3)
        n, dt, s = 1024, 0.2, 1.3
        wf = sample_wavelet(p, s, n, dt)
        spec_back = np.fft.fft(np.roll(wf.values, -(n // 2))) * dt
        omega = 2.0 * np.pi * np.arange(n) / (n * dt)
        spec_true = eval_spectrum(p, s * omega)
        np.testing.assert_allclose(
            spec_back.real, spec_true, rtol=0, atol=1e-10 * spec_true.max()
        )
        assert np.abs(spec_back.imag).max() < 1e-10 * spec_true.max()

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_algebraic_time_decay(self, b):
        # |psi(t)| ~ 1/t^(beta+1) for the gamma=3 family
        p = MorseParams(b, 3)
        pd, wp = duration(p), peak_frequency(p)
        n = 65536
        wf = sample_wavelet(p, 1.0, n, (240.0 * pd / wp) / n)
        sel = (wf.times >= 10 * pd / wp) & (wf.times <= 20 * pd / wp)
        prod = np.abs(wf.values[sel]) * wf.times[sel] ** (b + 1)
        assert prod.max() / prod.min() < 1.25

    def test_aliasing_guard(self):
        # pi/1.8 = 1.75 lies above w_p = 1.44, where Psi is still 0.55 of
        # its peak; at dt = 2.4 the Nyquist rate would sit below w_p
        with pytest.raises(ValueError, match="^aliasing: spectrum at Nyquist is 0.549 of peak"):
            sample_wavelet(MorseParams(9, 3), 1.0, 64, 1.8)

    def test_large_scale_peak_below_nyquist_is_accepted(self):
        # the scaled peak sits at w_p/scale = 0.14 rad, far below pi/dt = 6.28
        wf = sample_wavelet(MorseParams(9, 3), 10.0, 1024, 0.5)
        assert len(wf.values) == 1024

    def test_small_scale_peak_above_nyquist_is_rejected(self):
        # the scaled peak sits at w_p/scale = 7.2 rad, above pi/dt = pi; the
        # spectrum at Nyquist is on the rising flank, so only the peak test
        # can catch it
        with pytest.raises(ValueError, match="Nyquist"):
            sample_wavelet(MorseParams(9, 3), 0.2, 1024, 1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_wavelet(MorseParams(3, 3), 1.0, 8, 0.1)
        with pytest.raises(ValueError):
            sample_wavelet(MorseParams(3, 3), -1.0, 64, 0.1)
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^scale must be positive and finite \(got "):
                sample_wavelet(MorseParams(3, 3), scale, 64, 0.1)
        with pytest.raises(ValueError):
            sample_wavelet(MorseParams(3, 3), 1.0, 64, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match=r"^dt must be positive and finite \(got "):
            sample_wavelet(MorseParams(9, 3), 1.0, 64, dt)


class TestGalleryTables:
    def test_every_pair_is_checked_before_the_first_table(self):
        tables = gallery_tables([MorseParams(3.0, 3.0), MorseParams(0.5, 0.001)])
        with pytest.raises(ValueError, match="overflows double range at beta=0.5, gamma=0.001"):
            next(tables)

    @pytest.mark.parametrize("beta, gamma", [(2100.0, 3.0), (1e4, 3.0), (0.01, 0.1)])
    def test_pair_outside_the_window_raises_before_the_first_table(self, beta, gamma):
        # from P of about 78 the window's Nyquist rate cuts the spectrum,
        # and below it a short pair's heavy tail can alias too
        tables = gallery_tables([MorseParams(3.0, 3.0), MorseParams(beta, gamma)])
        with pytest.raises(ValueError, match=rf"^beta={beta}, gamma={gamma} \(duration .* "
                                             r"does not fit the gallery window"):
            next(tables)

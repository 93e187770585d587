import math

import mpmath as mp
import numpy as np
import pytest

from helpers import (
    morlet_sigma_omega_closed_form,
    morlet_sigma_t_closed_form,
    reference_bessel_fit,
)
from morsekit.core import MorseParams, eval_spectrum
from morsekit.props import (QuadratureError, heisenberg_area, quadrature_integral,
                            quadrature_moment)
from morsekit.superfamily import (
    BesselFitGrid,
    MorletParams,
    _morlet_min_duration,
    analytic_filter_spectrum,
    analytic_filter_time_samples,
    analytic_filter_wavelet,
    bessel_fit,
    bessel_spectrum,
    bessel_wavelet,
    concentration_curves,
    gaussianity_rho_sq,
    gmw_wavelet,
    limit_diagnostics,
    lognormal_spectrum,
    lognormal_wavelet,
    morlet_nu_for_duration,
    morlet_peak_and_duration,
    morlet_spectrum,
    morlet_wavelet,
    shannon_spectrum,
    shannon_time,
    shannon_wavelet,
    similarity_alpha_sq,
)
from morsekit import core, props, superfamily
from morsekit.superfamily import _bessel_alpha_sq, _morlet_area_and_rho_sq, _morse_rho_sq


def _mpmath_similarity(spec1, spec2, points):
    """(int S1 S2)^2 / (int S1^2 * int S2^2) by mpmath's tanh-sinh
    quadrature at 25 digits, split at ``points``."""
    with mp.workdps(25):
        integral = lambda f: mp.quad(f, points)
        cross = integral(lambda w: spec1(w) * spec2(w))
        e1 = integral(lambda w: spec1(w) ** 2)
        e2 = integral(lambda w: spec2(w) ** 2)
        return float(cross**2 / (e1 * e2))


def _mp_morse(beta, gamma):
    """The peak-rescaled Morse spectrum in mpmath, for w > 0."""
    b, g = mp.mpf(beta), mp.mpf(gamma)
    return lambda w: 2 * w**b * mp.exp((b / g) * (1 - w**g))


def _mp_morlet_peak_and_duration(nu):
    """Peak and duration of the Morlet wavelet in mpmath at 40 digits: the
    root of d/dw ln Psi, and w_p sqrt(-d^2/dw^2 ln Psi) there, both by
    numerical differentiation of ln Psi itself."""
    with mp.workdps(40):
        nu = mp.mpf(nu)
        log_psi = lambda w: mp.log(
            mp.exp(-((w - nu) ** 2) / 2) - mp.exp(-(w * w + nu * nu) / 2)
        )
        wp = mp.findroot(lambda w: mp.diff(log_psi, w), (nu, nu + 1), solver="anderson")
        return wp, wp * mp.sqrt(-mp.diff(log_psi, wp, 2))


def _mp_bell(p_sq, peak=1):
    return lambda w: 2 * mp.exp(-mp.mpf(p_sq) / (2 * peak**2) * (w - peak) ** 2)


_HALF_LINE = [0, 0.25, 0.5, 1, 2, 4, mp.inf]


class TestMorlet:
    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    def test_nu_must_be_finite_and_positive(self, nu):
        with pytest.raises(ValueError, match=r"^nu must be finite and > 0 \(got "):
            MorletParams(nu)

    def test_peak_solver_floor(self):
        with pytest.raises(ValueError, match=r"^peak solver requires nu >= 0.1 \(got 0.09\)$"):
            morlet_peak_and_duration(MorletParams(0.09))

    def test_vanishes_at_zero_frequency(self):
        assert morlet_spectrum(MorletParams(2.0), 0.0) == 0.0

    def test_peak_value_near_nu_for_large_nu(self):
        assert morlet_spectrum(MorletParams(6.0), 6.0) == pytest.approx(2.0, abs=1e-6)

    def test_negative_frequency_leakage(self):
        val = morlet_spectrum(MorletParams(1.0), -1.0)
        assert val != 0.0 and val < 0.0

    def test_amplitude_solved_once_and_values_unchanged(self, monkeypatch):
        nu, w = 4.25, np.linspace(-2.0, 10.0, 7)
        solve, shape = superfamily._morlet_peak_and_duration, superfamily._morlet_unnormalized
        # the amplitude as it was solved on every call
        a = 2.0 / float(shape(float(solve(nu)[0]), nu))
        calls = []
        monkeypatch.setattr(superfamily, "_morlet_peak_and_duration",
                            lambda v: calls.append(v) or solve(v))
        superfamily._morlet_amplitude.cache_clear()
        m = MorletParams(nu)
        for v in w:
            assert morlet_spectrum(m, v) == float(a * shape(v, nu))
        assert np.array_equal(morlet_spectrum(MorletParams(nu), w), a * shape(w, nu))
        assert morlet_spectrum(MorletParams(np.array(nu)), w[3]) == float(a * shape(w[3], nu))
        assert calls == [nu]

    def test_peak_solver_large_nu(self):
        wp, _ = morlet_peak_and_duration(MorletParams(8.0))
        assert 7.999 < wp < 8.0 + 1e-9
        # oracle: dense grid argmax of the spectrum
        w = np.linspace(7.5, 8.5, 400001)
        vals = morlet_spectrum(MorletParams(8.0), w)
        assert abs(w[np.argmax(vals)] - wp) < 1e-5

    def test_duration_asymptote(self):
        _, p8 = morlet_peak_and_duration(MorletParams(8.0))
        assert abs(p8 / 8.0 - 1.0) < 0.01

    def test_small_nu_peak_above_nu(self):
        wp, _ = morlet_peak_and_duration(MorletParams(0.5))
        assert wp > 0.5

    def test_nu_inversion_round_trip(self):
        nu = morlet_nu_for_duration(3.0)
        assert morlet_peak_and_duration(MorletParams(nu))[1] == pytest.approx(
            3.0, rel=1e-10
        )

    def test_nu_inversion_unreachable(self):
        with pytest.raises(ValueError, match="duration"):
            morlet_nu_for_duration(1.2)

    def test_nu_inversion_unreachable_above_nu_max(self):
        # for nu >= 28 the duration is nu itself to double precision
        with pytest.raises(ValueError, match="maximum reachable is 200"):
            morlet_nu_for_duration(200.0)
        with pytest.raises(ValueError, match="nu <= 50 has duration 60 .maximum reachable is 50"):
            morlet_nu_for_duration(np.array([3.0, 60.0]), nu_max=50.0)
        assert morlet_nu_for_duration(199.0) == pytest.approx(199.0, rel=1e-15)

    def test_nu_inversion_takes_arrays(self):
        p_durs = np.array([1.5, 3.0, 6.0, 40.0])
        want = [morlet_nu_for_duration(p) for p in p_durs]
        assert morlet_nu_for_duration(p_durs).tolist() == want

    @pytest.mark.parametrize("nu", [0.1, 0.5, 1.8414, 3.0, 8.0, 30.0])
    def test_peak_and_duration_match_mpmath(self, nu):
        wp, p_dur = morlet_peak_and_duration(MorletParams(nu))
        want_wp, want_dur = _mp_morlet_peak_and_duration(nu)
        assert abs(wp / want_wp - 1) <= 1e-14
        assert abs(p_dur / want_dur - 1) <= 1e-14

    @pytest.mark.parametrize("p_dur", [1.5, 2.0, 3.0, 6.0])
    def test_nu_inversion_matches_mpmath(self, p_dur):
        with mp.workdps(40):
            want = mp.findroot(
                lambda nu: _mp_morlet_peak_and_duration(nu)[1] - p_dur,
                (mp.mpf("0.1"), mp.mpf(p_dur)),
                solver="anderson",
            )
        assert abs(morlet_nu_for_duration(p_dur) / want - 1) <= 1e-14

    def test_min_duration_is_the_solver_floor_not_the_limit(self):
        # the duration keeps falling below nu = 0.1 towards sqrt(2), but
        # the solver stops at nu = 0.1, where it is about 1.432
        p_min = _morlet_min_duration()
        assert p_min == pytest.approx(1.432, abs=5e-4)
        assert morlet_peak_and_duration(MorletParams(0.101))[1] > p_min > math.sqrt(2)
        with pytest.raises(ValueError, match=f"minimum reachable is {p_min:.4g}"):
            morlet_nu_for_duration(p_min)
        assert morlet_nu_for_duration(p_min * (1 + 1e-9)) == pytest.approx(0.1, rel=1e-6)

    @pytest.mark.parametrize("nu", [1.8414, 3.0, 6.0])
    def test_quadrature_spreads_match_closed_forms(self, nu):
        wav = morlet_wavelet(nu)
        m0 = quadrature_moment(wav.spectrum, 0, "energy", full_line=True)
        m1 = quadrature_moment(wav.spectrum, 1, "energy", full_line=True)
        m2 = quadrature_moment(wav.spectrum, 2, "energy", full_line=True)
        d = quadrature_moment(wav.spectrum, 0, "derivative_energy", full_line=True)
        mu = m1 / m0
        assert math.sqrt(m2 / m0 - mu * mu) == pytest.approx(
            morlet_sigma_omega_closed_form(nu), rel=1e-8
        )
        assert math.sqrt(d / m0) == pytest.approx(
            morlet_sigma_t_closed_form(nu), rel=1e-7
        )

    def test_negative_frequency_energy_fraction(self):
        wav = morlet_wavelet(1.0)
        total = quadrature_moment(wav.spectrum, 0, "energy", full_line=True)
        # the negative half-line, as the positive one of the mirrored spectrum:
        # a rule across the jump at w = 0 would not converge
        neg = quadrature_moment(lambda w: wav.spectrum(-np.asarray(w)), 0, "energy")
        assert neg / total > 1e-4

    def test_gmw_has_no_negative_support(self):
        w = np.linspace(-10, 0, 1001)
        assert np.all(eval_spectrum(MorseParams(3, 3), w) == 0.0)


class TestNamedSpectra:
    def test_lognormal_peak_and_symmetry(self):
        assert lognormal_spectrum(2.5, 1.0) == 2.0
        for c in (0.3, 2.0, 7.7):
            assert lognormal_spectrum(2.5, c) == pytest.approx(
                lognormal_spectrum(2.5, 1.0 / c), rel=1e-12
            )
        assert lognormal_spectrum(2.5, -1.0) == 0.0

    def test_lognormal_p_squared_beyond_double_range(self):
        assert lognormal_spectrum(1e154, 1.0) == 2.0  # P^2 = 1e308 is finite
        with pytest.raises(ValueError, match=r"^P\^2 is beyond double range at P=1e\+200$"):
            lognormal_spectrum(1e200, 1.0)

    def test_lognormal_value(self):
        assert lognormal_spectrum(3.0, math.e) == pytest.approx(
            2.0 * math.exp(-4.5), rel=1e-13
        )

    def test_shannon_band(self):
        assert shannon_spectrum(0.5) == 2.0
        assert shannon_spectrum(1.0) == 2.0
        assert shannon_spectrum(1.5) == 0.0
        assert shannon_spectrum(0.0) == 0.0

    def test_shannon_time_center(self):
        assert shannon_time(0.0) == pytest.approx(math.pi)

    def test_shannon_time_dft_is_flat_band(self):
        # the published time form transforms to a flat band of height
        # 2 pi^2 on (1/2, 3/2] -- pi^2 above and half a unit right of the
        # band-pass spectrum, since its pi prefactor and exp(it) carrier
        # differ from the exact inverse transform (see shannon_time); check
        # the band correspondence
        n, dt = 16384, 0.5
        t = (np.arange(n) - n // 2) * dt
        spec = np.fft.fft(np.roll(shannon_time(t), -(n // 2))) * dt
        omega = 2.0 * np.pi * np.arange(n) / (n * dt)
        height = 2.0 * math.pi**2
        inside = (omega > 0.6) & (omega < 1.4)
        outside = ((omega > 1.6) & (omega < 2.5)) | ((omega > 0.01) & (omega < 0.4))
        assert np.max(np.abs(spec[inside] - height)) < 0.02 * height
        assert np.max(np.abs(spec[outside])) < 0.02 * height

    def test_bessel_values(self):
        assert bessel_spectrum(1.0) == pytest.approx(2.0, rel=1e-14)
        assert bessel_spectrum(2.0) == pytest.approx(
            2.0 * math.exp(-0.5), rel=1e-14
        )
        assert bessel_spectrum(1e-4) == 0.0  # essential zero
        assert bessel_spectrum(-1.0) == 0.0

    def test_analytic_filter_spectrum(self):
        assert analytic_filter_spectrum(3.0) == 2.0
        assert analytic_filter_spectrum(-1.0) == 0.0

    def test_analytic_filter_as_morse_limit(self):
        p = MorseParams(1e-6, 1e-6)
        w = np.linspace(0.5, 2.0, 301)
        assert np.max(np.abs(eval_spectrum(p, w) - 2.0)) < 1e-4

    def test_analytic_filter_time_realization(self):
        t, v = analytic_filter_time_samples(256, 0.5)
        mid = len(v) // 2
        # band-limited delta: dominant real center sample, Hilbert tails
        assert v[mid].real == pytest.approx(2.0 / 0.5 / 2.0, rel=1e-10)
        assert abs(v[mid].imag) < 1e-12
        assert abs(v[mid - 1].imag) > abs(v[mid - 1].real)

    @pytest.mark.parametrize("n, dt", [(15, 1.0), (256, 0.0), (256, -0.5)])
    def test_analytic_filter_time_guard(self, n, dt):
        with pytest.raises(ValueError, match=r"^need n >= 16 and dt > 0$"):
            analytic_filter_time_samples(n, dt)


class TestFamilyAliases:
    @pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
    def test_exponential_factor_exponent(self, g):
        # ln Psi - ln a - beta ln w should regress on w**g with slope -1
        b = 4.0
        p = MorseParams(b, g)
        from morsekit.core import log_amplitude_constant

        w = np.linspace(0.3, 2.5, 200)
        y = np.log(eval_spectrum(p, w)) - log_amplitude_constant(p) - b * np.log(w)
        slope = np.linalg.lstsq(w[:, None] ** g, y[:, None], rcond=None)[0][0, 0]
        assert abs(slope + 1.0) < 1e-10


class TestSimilarity:
    def test_self_similarity_is_one(self):
        w = gmw_wavelet(MorseParams(3, 3))
        assert similarity_alpha_sq(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        a = gmw_wavelet(MorseParams(3, 3))
        b = bessel_wavelet()
        assert similarity_alpha_sq(a, b) == similarity_alpha_sq(b, a)

    def test_bessel_match_value(self):
        a2 = similarity_alpha_sq(gmw_wavelet(MorseParams(22, 0.1)), bessel_wavelet())
        assert abs(a2 - 0.9995) <= 0.0005

    def test_shannon_dissimilar(self):
        a2 = similarity_alpha_sq(gmw_wavelet(MorseParams(3, 3)), shannon_wavelet())
        assert a2 < 0.9

    def test_scale_invariance_for_morse_pairs(self):
        w1 = gmw_wavelet(MorseParams(3, 3))
        w2 = gmw_wavelet(MorseParams(6, 2))
        base = similarity_alpha_sq(w1, w2)
        for c in (0.5, 2.0):
            s1 = w1.spectrum
            s2 = w2.spectrum
            r1 = type(w1)(
                kind="gmw", params=w1.params, spectrum=lambda w, f=s1: f(c * w)
            )
            r2 = type(w2)(
                kind="gmw", params=w2.params, spectrum=lambda w, f=s2: f(c * w)
            )
            assert similarity_alpha_sq(r1, r2) == pytest.approx(base, rel=1e-8)

    def test_analytic_filter_rejected(self):
        with pytest.raises(ValueError, match="square integrable"):
            similarity_alpha_sq(analytic_filter_wavelet(), bessel_wavelet())

    def test_gmw_lowpass_member_rejected(self):
        with pytest.raises(ValueError, match="^cross-family comparison needs beta > 0$"):
            gmw_wavelet(MorseParams(0, 2))

    def test_lognormal_close_to_small_gamma_member(self):
        # the gamma->0 member at fixed duration tends to the lognormal shape
        a2 = similarity_alpha_sq(
            gmw_wavelet(MorseParams(3.0**2 / 0.05, 0.05)), lognormal_wavelet(3.0)
        )
        assert a2 > 0.9999

    def test_lognormal_energy_far_above_the_peak(self):
        # at P = 0.1 the lognormal energy density w |Psi|^2 peaks at w = e^50;
        # reference: a dense uniform trapezoid in u = ln w
        lognormal, morse = lognormal_wavelet(0.1), gmw_wavelet(MorseParams(0.2, 0.05))
        w = np.exp(np.linspace(-400.0, 400.0, 800001))
        s1, s2 = lognormal.spectrum(w), morse.spectrum(w)
        want = np.sum(s1 * s2 * w) ** 2 / (np.sum(s1 * s1 * w) * np.sum(s2 * s2 * w))
        assert similarity_alpha_sq(lognormal, morse) == pytest.approx(want, rel=1e-12)


class TestGaussianity:
    @pytest.mark.parametrize("p_dur", [2.0, 4.0])
    def test_airy_family_most_gaussian(self, p_dur):
        vals = {
            g: gaussianity_rho_sq(gmw_wavelet(MorseParams(p_dur**2 / g, g)))
            for g in range(1, 7)
        }
        assert max(vals, key=vals.get) == 3

    def test_morlet_less_gaussian_at_small_duration(self):
        p_dur = 2.0
        morlet = gaussianity_rho_sq(morlet_wavelet(morlet_nu_for_duration(p_dur)))
        airy = gaussianity_rho_sq(gmw_wavelet(MorseParams(p_dur**2 / 3.0, 3.0)))
        assert morlet < airy

    def test_tends_to_one(self):
        rho = gaussianity_rho_sq(gmw_wavelet(MorseParams(100.0 / 3.0, 3.0)))
        assert 1.0 - rho < 1e-3

    def test_rejects_kinds_without_peak(self):
        with pytest.raises(ValueError):
            gaussianity_rho_sq(bessel_wavelet())


class TestConcentrationCrossing:
    @pytest.mark.parametrize("p_dur", [1.5, 2.0, 2.5])
    def test_morlet_less_concentrated_at_small_duration(self, p_dur):
        # the airy advantage holds for time-localized settings; at larger
        # durations the (nearly Gaussian) Morlet, whose zero-mean correction
        # decays like exp(-nu^2/2), overtakes between P = 2.5 and 2.75
        from morsekit.props import heisenberg_area

        wav = morlet_wavelet(morlet_nu_for_duration(p_dur))
        m0 = quadrature_moment(wav.spectrum, 0, "energy", full_line=True)
        m1 = quadrature_moment(wav.spectrum, 1, "energy", full_line=True)
        m2 = quadrature_moment(wav.spectrum, 2, "energy", full_line=True)
        d = quadrature_moment(wav.spectrum, 0, "derivative_energy", full_line=True)
        mu = m1 / m0
        a_morlet = math.sqrt(d / m0) * math.sqrt(m2 / m0 - mu * mu)
        a_airy = heisenberg_area(MorseParams(p_dur**2 / 3.0, 3.0))
        assert 1.0 / a_morlet < 1.0 / a_airy


class TestBesselFit:
    @pytest.mark.parametrize("n_beta, n_gamma", [(1, 2), (2, 1), (0, 0)])
    def test_grid_below_2x2_rejected(self, n_beta, n_gamma):
        with pytest.raises(ValueError, match="^need at least a 2x2 grid$"):
            BesselFitGrid(n_beta=n_beta, n_gamma=n_gamma)

    def test_small_grid_finds_the_basin(self):
        res = bessel_fit(
            BesselFitGrid(beta_lo=5, beta_hi=50, gamma_lo=0.03, gamma_hi=0.5,
                          n_beta=15, n_gamma=15)
        )
        assert res.alpha_sq > 0.999
        assert 15 < res.best_params.beta < 35
        assert 0.05 < res.best_params.gamma < 0.15

    def test_restricted_grid_strictly_worse(self):
        wide = bessel_fit(
            BesselFitGrid(beta_lo=1, beta_hi=50, gamma_lo=0.02, gamma_hi=2,
                          n_beta=12, n_gamma=12)
        )
        narrow = bessel_fit(
            BesselFitGrid(beta_lo=1, beta_hi=50, gamma_lo=1.0, gamma_hi=2.0,
                          n_beta=12, n_gamma=8)
        )
        assert narrow.alpha_sq < wide.alpha_sq

    def test_trace_row_major_and_bounded(self):
        grid = BesselFitGrid(beta_lo=2, beta_hi=8, gamma_lo=0.1, gamma_hi=1.0,
                             n_beta=4, n_gamma=3)
        res = bessel_fit(grid)
        coarse = res.grid_trace[: grid.n_beta * grid.n_gamma]
        betas = [row[0] for row in coarse]
        assert betas == sorted(betas)  # row-major: beta outer loop
        assert all(a2 <= 1.0 + 1e-12 for _, _, a2 in res.grid_trace)
        assert res.alpha_sq == pytest.approx(
            max(a2 for _, _, a2 in res.grid_trace), abs=0
        )

    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_default_box_ends_in_the_paper_basin(self, n):
        # compass moves alone stall on the ridge beta*gamma ~ 2.2 for these
        # grids; the diagonal moves follow it into criterion 1's box
        res = bessel_fit(BesselFitGrid(n_beta=n, n_gamma=n))
        assert abs(res.best_params.beta - 22.0) <= 2.0
        assert abs(res.best_params.gamma - 0.10) <= 0.02

    @pytest.mark.parametrize(
        "grid, clips",
        [
            pytest.param(BesselFitGrid(n_beta=2, n_gamma=2), False, id="2x2"),
            pytest.param(BesselFitGrid(beta_lo=2, beta_hi=8, gamma_lo=0.1, gamma_hi=1.0,
                                       n_beta=4, n_gamma=3), False, id="row-major-4x3"),
            *(pytest.param(BesselFitGrid(n_beta=n, n_gamma=n), False, id=f"default-{n}x{n}")
              for n in (12, 16, 20, 22, 24)),
            # the fit ends on the gamma = 1 edge, where clipped moves are skipped
            pytest.param(BesselFitGrid(beta_lo=1, beta_hi=50, gamma_lo=1.0, gamma_hi=2.0,
                                       n_beta=12, n_gamma=8), True, id="edge-clipped-12x8"),
            pytest.param(BesselFitGrid(beta_lo=1, beta_hi=5000, gamma_lo=0.02, gamma_hi=20,
                                       n_beta=9, n_gamma=9), False, id="wide-9x9"),
        ],
    )
    def test_batched_poll_equals_the_one_move_search(self, grid, clips):
        best, alpha_sq, trace, clipped = reference_bessel_fit(grid)
        res = bessel_fit(grid)
        assert res.grid_trace == trace
        assert (res.best_params.beta, res.best_params.gamma) == best
        assert res.alpha_sq == alpha_sq
        if clips:
            assert clipped > 0

    def test_fit_does_not_call_the_quadrature_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bessel_fit called the quadrature oracle")

        monkeypatch.setattr(superfamily, "quadrature_integral", refuse)
        res = bessel_fit(BesselFitGrid(n_beta=6, n_gamma=6))
        assert 0.0 < res.alpha_sq <= 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BesselFitGrid(beta_lo=-1.0)
        with pytest.raises(ValueError):
            BesselFitGrid(gamma_lo=0.5, gamma_hi=0.2)

    @pytest.mark.parametrize(
        "bound", [{"beta_lo": math.nan}, {"beta_hi": math.nan}, {"beta_hi": math.inf},
                  {"gamma_lo": math.nan}, {"gamma_hi": math.inf}]
    )
    def test_grid_bounds_must_be_finite(self, bound):
        with pytest.raises(ValueError, match=r"^grid bounds must be finite and positive \(got "):
            BesselFitGrid(**bound)


# a sum as the no-convergence messages print it
_SUM = r"-?\d\.\d{12}e[+-]\d{2,3}"


class TestBesselAlphaSqRule:
    """The self-sizing trapezoid rule inside bessel_fit against the
    double-exponential oracle."""

    @staticmethod
    def oracle(beta, gamma):
        return similarity_alpha_sq(gmw_wavelet(MorseParams(beta, gamma)), bessel_wavelet())

    def test_matches_oracle_on_the_default_box(self):
        rng = np.random.default_rng(20120601)
        box = BesselFitGrid()
        points = [(b, g) for b in (box.beta_lo, box.beta_hi)
                  for g in (box.gamma_lo, box.gamma_hi)]
        points += list(zip(
            np.exp(rng.uniform(np.log(box.beta_lo), np.log(box.beta_hi), 12)),
            np.exp(rng.uniform(np.log(box.gamma_lo), np.log(box.gamma_hi), 12)),
        ))
        for b, g in points:
            assert abs(_bessel_alpha_sq(b, g) - self.oracle(b, g)) <= 1e-10, (b, g)

    @pytest.mark.parametrize("beta, gamma", [(5000.0, 20.0), (50.0, 200.0)])
    def test_matches_oracle_on_narrow_spectra(self, beta, gamma):
        # P = 316, and a gamma = 200 upper flank: 2001 evenly spaced nodes
        # leave errors of 9e-6 and 2e-10 here, so the rule must halve past them
        assert abs(_bessel_alpha_sq(beta, gamma) - self.oracle(beta, gamma)) <= 1e-10

    # the ridge's best point and two corners of the default box, where
    # r = (2 beta + 1)/gamma reaches 5050
    @pytest.mark.parametrize("beta, gamma", [(22.0, 0.1), (1.0, 2.0), (50.0, 0.02)])
    def test_matches_mpmath(self, beta, gamma):
        bessel = lambda w: 2 * mp.exp(2 - w - 1 / w)
        want = _mpmath_similarity(_mp_morse(beta, gamma), bessel, _HALF_LINE)
        assert abs(_bessel_alpha_sq(beta, gamma) - want) <= 1e-11

    def test_row_call_equals_scalar_calls(self, monkeypatch):
        # at beta = 5000 the spectra narrow as gamma grows, so the cells stop
        # after different numbers of halvings
        gammas = np.geomspace(0.02, 20.0, 40)
        row = _bessel_alpha_sq(5000.0, gammas)
        assert row.shape == gammas.shape
        evaluations = []
        log_shape = superfamily._rescaled_log_shape

        def counting(*args, **kwargs):
            out = log_shape(*args, **kwargs)
            evaluations[-1] += out.size
            return out

        monkeypatch.setattr(superfamily, "_rescaled_log_shape", counting)
        for g, a2 in zip(gammas, row):
            evaluations.append(0)
            assert abs(_bessel_alpha_sq(5000.0, float(g)) - a2) <= 1e-15
        assert len(set(evaluations)) >= 5, evaluations

    def test_batch_calls_equal_scalar_calls_bit_for_bit(self):
        # the batched poll of bessel_fit rests on this: any set of points
        # scored in one call gets the bits each gets alone
        rng = np.random.default_rng(20261019)
        betas = np.exp(rng.uniform(np.log(0.5), np.log(5000.0), 300))
        gammas = np.exp(rng.uniform(np.log(0.02), np.log(20.0), 300))
        batch = _bessel_alpha_sq(betas, gammas)
        scalar = [_bessel_alpha_sq(float(b), float(g)) for b, g in zip(betas, gammas)]
        assert np.array_equal(batch, scalar)

        betas, gammas = betas[:20], gammas[20:40]
        grid = _bessel_alpha_sq(betas[:, None], gammas)
        assert grid.shape == (20, 20)
        scalar = [[_bessel_alpha_sq(float(b), float(g)) for g in gammas] for b in betas]
        assert np.array_equal(grid, scalar)

    @pytest.mark.parametrize("rule", [_bessel_alpha_sq, _morse_rho_sq])
    def test_spectrum_narrower_than_the_finest_level_raises(self, rule):
        # P = 4.5e6: the bump is 2e-7 wide in ln w, against a finest step of
        # 3e-5, so only the node at the peak sees it and each halving halves
        # the sum; a row with a narrow cell raises as a whole.  `besselfit`
        # and `curves` print this message, so it is matched in full.
        for betas, n_cells in ((1e12, 1), ([22.0, 1e12], 2)):
            with pytest.raises(QuadratureError, match=(
                r"^trapezoid rule in ln w: no convergence after 12 halvings in 1 of "
                rf"{n_cells} cells; the last two sums of the first are {_SUM} and {_SUM}$"
            )):
                rule(betas, 20.0)


class TestOneHalvingDriver:
    """alpha^2, rho^2 and the oracle halve their steps in one loop."""

    def test_each_rule_runs_through_the_one_driver(self, monkeypatch):
        driver = props._halving_trapezoid
        assert superfamily._halving_trapezoid is driver
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[7])  # the rule's name
            return driver(*args, **kwargs)

        monkeypatch.setattr(props, "_halving_trapezoid", counting)
        monkeypatch.setattr(superfamily, "_halving_trapezoid", counting)
        for rule, name in [
            (lambda: _bessel_alpha_sq(22.0, [0.1, 0.2]), "trapezoid rule in ln w"),
            (lambda: _morse_rho_sq(9.0, 3.0), "trapezoid rule in ln w"),
            (lambda: quadrature_integral(lambda w: np.exp(-w)), "double-exponential rule"),
        ]:
            calls.clear()
            rule()
            assert calls == [name]


class TestOneLogShapeKernel:
    """The spectrum and both similarity rules form the Morse log shape in
    one kernel, core._rescaled_log_shape."""

    def test_every_evaluator_runs_through_the_one_kernel(self, monkeypatch):
        kernel = core._rescaled_log_shape
        assert superfamily._rescaled_log_shape is kernel
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(core, "_rescaled_log_shape", counting)
        monkeypatch.setattr(superfamily, "_rescaled_log_shape", counting)
        p = MorseParams(9.0, 3.0)
        core.eval_rescaled_spectrum(p, [0.5, 1.0, 2.0])
        assert calls == [(3,)]
        calls.clear()
        eval_spectrum(p, 1.0)
        assert calls == [(1,)]
        for rule in (lambda: _bessel_alpha_sq(22.0, [0.1, 0.2]), lambda: _morse_rho_sq(9.0, 3.0)):
            calls.clear()
            rule()
            assert calls  # one call per block of each level


class TestMorseRhoSqRule:
    """The quadrature-free rho^2 behind `curves` against the
    double-exponential oracle and against mpmath."""

    def test_matches_oracle_on_a_grid(self):
        # beta < 1/2 at large gamma included: P reaches down to 0.5
        betas = np.array([0.25 / 6, 0.3, 0.6, 2.0, 9.0, 27.0])[:, None]
        gammas = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 12.0])[None, :]
        grid = _morse_rho_sq(betas, gammas)
        assert grid.shape == (6, 6)
        for (i, j), rho in np.ndenumerate(grid):
            b, g = float(betas[i, 0]), float(gammas[0, j])
            oracle = gaussianity_rho_sq(gmw_wavelet(MorseParams(b, g)))
            assert abs(rho - oracle) <= 1e-13, (b, g)

    # the Airy member, gamma = 1 at P = 8, and P = 0.5 at gamma = 6
    @pytest.mark.parametrize("beta, gamma", [(9.0, 3.0), (64.0, 1.0), (0.25 / 6, 6.0)])
    def test_matches_mpmath(self, beta, gamma):
        want = _mpmath_similarity(
            _mp_morse(beta, gamma), _mp_bell(beta * gamma), _HALF_LINE
        )
        assert abs(_morse_rho_sq(beta, gamma) - want) <= 1e-13

    def test_one_rule_for_a_grid_agrees_with_scalar_calls(self):
        gammas = np.array([1.0, 3.0, 6.0])
        row = _morse_rho_sq(0.5**2 / gammas, gammas)
        for g, rho in zip(gammas, row):
            assert _morse_rho_sq(0.25 / g, g) == pytest.approx(rho, abs=1e-14)


class TestConcentrationCurves:
    """The `curves` table, `concentration_curves`, against the public scalar
    calls cell by cell, and its ``defined`` masks against the three rules."""

    P_GRID = [0.0, 0.5, 1.0, 1.4, 1.5, 2.0, 3.0, 6.0]
    GAMMAS = [0.5, 1.0, 2.0, 3.0, 6.0]  # P = 1 at gamma = 2 is beta = 1/2 itself

    def test_masks(self):
        (inv_area, area_ok), (rho_sq, rho_ok), p_min = concentration_curves(self.P_GRID,
                                                                             self.GAMMAS)
        assert p_min == _morlet_min_duration()
        assert inv_area.shape == area_ok.shape == rho_sq.shape == rho_ok.shape == (8, 6)
        for i, p in enumerate(self.P_GRID):
            for j, g in enumerate(self.GAMMAS):
                assert area_ok[i, j] == (p * p / g > 0.5), (p, g)
                assert rho_ok[i, j] == (p * p / g > 0), (p, g)
            assert area_ok[i, -1] == rho_ok[i, -1] == (p > p_min), p
        assert np.isnan(inv_area[~area_ok]).all() and np.isnan(rho_sq[~rho_ok]).all()

    def test_morse_cells_equal_the_scalar_calls(self):
        (inv_area, area_ok), (rho_sq, rho_ok), _ = concentration_curves(self.P_GRID, self.GAMMAS)
        for i, p in enumerate(self.P_GRID):
            for j, g in enumerate(self.GAMMAS):
                params = MorseParams(p * p / g, g)
                if area_ok[i, j]:
                    # the grid/scalar tolerance of props' closed-form kernels
                    want = 1.0 / heisenberg_area(params)
                    assert inv_area[i, j] == pytest.approx(want, rel=1e-15, abs=0), (p, g)
                if rho_ok[i, j]:
                    got = rho_sq[i, j]
                    assert abs(got - gaussianity_rho_sq(gmw_wavelet(params))) <= 1e-13, (p, g)
                    assert got == pytest.approx(_morse_rho_sq(params.beta, g), abs=1e-14), (p, g)

    @pytest.mark.parametrize("p_grid, gammas, error", [
        ([1.0], [2.0, 0.0], "gamma must be finite and > 0 (got 0.0)"),
        ([1.0], [math.nan], "gamma must be finite and > 0 (got nan)"),
        ([0.0, 1e160], [3.0], "beta = P^2/gamma is beyond double range at P=1e+160, gamma=3.0"),
        # beta is finite, but the kernels' beta/gamma or 1/gamma is not
        ([0.0, 0.5, 1.0], [3.0, 1e-300],
         "(2 beta + 1)/gamma is beyond double range at P=0.5, gamma=1e-300"),
        ([0.0], [1e-310], "(2 beta + 1)/gamma is beyond double range at P=0.0, gamma=1e-310"),
    ])
    def test_bad_gamma_or_beta_range_raises(self, p_grid, gammas, error):
        with pytest.raises(ValueError) as err:
            concentration_curves(p_grid, gammas)
        assert str(err.value) == error

    def test_morlet_cells_equal_the_scalar_calls(self):
        (inv_area, area_ok), (rho_sq, _), _ = concentration_curves(self.P_GRID, self.GAMMAS)
        for i, p in enumerate(self.P_GRID):
            if not area_ok[i, -1]:
                continue
            nu = morlet_nu_for_duration(p)
            area, rho = _morlet_area_and_rho_sq(nu)
            # elementwise kernels, so each cell is the scalar call's bits
            assert (inv_area[i, -1], rho_sq[i, -1]) == (1.0 / area, rho), p
            wav = morlet_wavelet(nu)
            m0, m1, m2 = (quadrature_moment(wav.spectrum, n, "energy", full_line=True)
                          for n in (0, 1, 2))
            d = quadrature_moment(wav.spectrum, 0, "derivative_energy", full_line=True)
            want = math.sqrt(d / m0) * math.sqrt(m2 / m0 - (m1 / m0) ** 2)
            assert 1.0 / inv_area[i, -1] == pytest.approx(want, rel=1e-9), p
            assert abs(rho_sq[i, -1] - gaussianity_rho_sq(wav)) <= 1e-10, p


class TestClosedFormEnergies:
    """The constants of the similarity integrals that replace scipy.special,
    against scipy and mpmath.  The Morse self-energies are `props`'s, tested
    there."""

    def test_bessel_energy_constant(self):
        from scipy.special import k1

        via_scipy = math.log(8.0 * k1(4.0)) + 4.0
        assert abs(superfamily._LOG_E_BESSEL - via_scipy) <= math.ulp(via_scipy)
        with mp.workdps(40):
            want = mp.log(8 * mp.besselk(1, 4)) + 4
        assert abs(superfamily._LOG_E_BESSEL - want) <= math.ulp(want)

    def test_bell_energy_erf(self):
        # the bell energy takes 1 + erf(P); scipy's erf itself is up to 1.8
        # ulp from mpmath here (P = 0.86), math.erf within 1
        from scipy.special import erf

        for p_dur in np.geomspace(1e-3, 50.0, 400):
            with_math = 1.0 + math.erf(p_dur)
            assert abs(with_math - (1.0 + erf(p_dur))) <= math.ulp(with_math), p_dur
            want = mp.erf(mp.mpf(p_dur))
            assert abs(math.erf(p_dur) - want) <= math.ulp(float(want)), p_dur


class TestOracleMatchesMpmath:
    """The double-exponential oracle behind `similarity_alpha_sq` and
    `gaussianity_rho_sq` against mpmath at 25 digits."""

    @pytest.mark.parametrize("beta, gamma", [(0.25 / 6, 6.0), (0.3, 4.0), (9.0, 3.0)])
    def test_morse_rho_sq(self, beta, gamma):
        want = _mpmath_similarity(
            _mp_morse(beta, gamma), _mp_bell(beta * gamma), _HALF_LINE
        )
        got = gaussianity_rho_sq(gmw_wavelet(MorseParams(beta, gamma)))
        assert abs(got - want) <= 1e-13

    def test_shannon_alpha_sq(self):
        # the tanh-sinh map on (0, 1]; mpmath's segments split at the band edge
        shannon = lambda w: 2 if w <= 1 else 0
        want = _mpmath_similarity(_mp_morse(3.0, 3.0), shannon, _HALF_LINE)
        got = similarity_alpha_sq(gmw_wavelet(MorseParams(3.0, 3.0)), shannon_wavelet())
        assert abs(got - want) <= 1e-13


class TestMorletClosedForms:
    @pytest.mark.parametrize("nu", [0.1, 1.0, 3.0, 6.0])
    def test_matches_oracle(self, nu):
        wav = morlet_wavelet(nu)
        m = [quadrature_moment(wav.spectrum, n, "energy", full_line=True) for n in (0, 1, 2)]
        d = quadrature_moment(wav.spectrum, 0, "derivative_energy", full_line=True)
        mu = m[1] / m[0]
        area = math.sqrt(d / m[0]) * math.sqrt(m[2] / m[0] - mu * mu)
        got_area, got_rho = _morlet_area_and_rho_sq(nu)
        assert got_area == pytest.approx(area, rel=1e-9)
        assert abs(got_rho - gaussianity_rho_sq(wav)) <= 1e-10

    @pytest.mark.parametrize("nu", [0.1, 1.8414, 6.0])
    def test_area_matches_plain_gaussian_forms(self, nu):
        area, _ = _morlet_area_and_rho_sq(nu)
        want = morlet_sigma_t_closed_form(nu) * morlet_sigma_omega_closed_form(nu)
        assert area == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("nu", [0.1, 3.0])
    def test_rho_sq_matches_mpmath(self, nu):
        wp, p_dur = morlet_peak_and_duration(MorletParams(nu))
        k = mp.exp(-mp.mpf(nu) ** 2 / 2)
        morlet = lambda w: mp.exp(-((w - nu) ** 2) / 2) - k * mp.exp(-(w**2) / 2)
        want = _mpmath_similarity(
            morlet, _mp_bell(p_dur**2, mp.mpf(wp)), [-mp.inf, 0, nu, wp, mp.inf]
        )
        _, rho = _morlet_area_and_rho_sq(nu)
        assert abs(rho - want) <= 1e-13


class TestLimitDiagnostics:
    def test_lognormal_deviation_decreases(self):
        rows = limit_diagnostics(3.0, [1.0, 0.5, 0.1, 0.01], target="lognormal")
        devs = [r.sup_deviation for r in rows]
        assert all(x > y for x, y in zip(devs, devs[1:]))

    def test_shannon_limit(self):
        row = limit_diagnostics(1.5, [1000.0], target="shannon")[0]
        assert row.sup_deviation < 0.02
        assert row.beta == pytest.approx(1.5**2 / 1000.0)

    def test_shannon_negative_control(self):
        # a small-gamma member tends to the lognormal, not the band-pass form
        row = limit_diagnostics(3.0, [0.01], target="shannon")[0]
        assert row.sup_deviation > 0.5

    def test_beta_is_p_squared_over_gamma_even_where_p_squared_is_not_normal(self):
        rows = limit_diagnostics(1.5, [0.3, 2.0, 7.0], target="shannon")
        assert [r.beta for r in rows] == [1.5 * 1.5 / g for g in (0.3, 2.0, 7.0)]
        # P*P underflows to 0, but beta = P (P/gamma) = 1e-170 is normal
        assert limit_diagnostics(1e-170, [1e-170])[0].beta == 1e-170

    @pytest.mark.parametrize("p_dur, gammas, named", [
        (1e200, [1.0], "P=1e+200, gamma=1.0"),
        (1e154, [1.0, 1e-10], "P=1e+154, gamma=1e-10"),
        (1e-200, [1.0], "P=1e-200, gamma=1.0"),
        # every beta is checked before the lognormal reference, which
        # would raise on P^2 = 1e400 first
        (1e200, [1e100, 1.0], "P=1e+200, gamma=1.0"),
    ])
    def test_beta_beyond_double_range_is_named(self, p_dur, gammas, named):
        with pytest.raises(ValueError) as err:
            limit_diagnostics(p_dur, gammas)
        assert str(err.value) == f"beta = P^2/gamma is beyond double range at {named}"

    def test_lognormal_reference_beyond_double_range(self):
        with pytest.raises(ValueError, match=r"^P\^2 is beyond double range at P=1e\+200$"):
            limit_diagnostics(1e200, [1e100])  # beta = 1e300 is finite
        assert limit_diagnostics(1e200, [1e100], target="shannon")[0].beta == 1e300

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_diagnostics(-1.0, [1.0])
        with pytest.raises(ValueError, match=r"^gamma must be finite and > 0 \(got 0\.0\)$"):
            limit_diagnostics(1.0, [1.0, 0.0])
        for p_dur in (math.nan, math.inf):
            with pytest.raises(ValueError, match="duration must be finite"):
                limit_diagnostics(p_dur, [1.0])
            with pytest.raises(ValueError, match="duration must be finite"):
                lognormal_spectrum(p_dur, 1.0)
        with pytest.raises(ValueError):
            limit_diagnostics(1.0, [1.0], target="sinc")

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_function

from helpers import ORACLE_BETAS, ORACLE_GAMMAS, log_grid, log_trapezoid_integral
from morsekit import props
from morsekit.core import (
    MorseParams,
    duration,
    eval_spectrum,
    peak_frequency,
    sample_wavelet,
)
from morsekit.props import (
    QuadratureError,
    energy_moment,
    heisenberg_area,
    heisenberg_map,
    mean_frequency,
    moment_table,
    property_summary,
    quadrature_integral,
    quadrature_moment,
    sigma_omega,
    sigma_t,
    skewness_freq,
    zero_skewness_gamma,
)


class TestEnergyMoment:
    def test_cauchy_zeroth(self):
        # a = 2e, integral 4e^2 Gamma(3)/2^3 = e^2
        assert energy_moment(MorseParams(1, 1), 0) == pytest.approx(
            math.e**2, rel=1e-13
        )

    def test_cauchy_first(self):
        assert energy_moment(MorseParams(1, 1), 1) == pytest.approx(
            1.5 * math.e**2, rel=1e-13
        )

    def test_divergent_order_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            energy_moment(MorseParams(0.25, 1), -2)

    def test_trapezoid_cross_check(self):
        # fully independent dense-grid integration
        p = MorseParams(3, 2)
        val = log_trapezoid_integral(
            lambda w: w * eval_spectrum(p, w) ** 2, 1e-8, 40.0
        )
        assert val == pytest.approx(energy_moment(p, 1), rel=1e-8)

    def test_moment_table(self):
        t = moment_table(MorseParams(2, 3))
        assert set(t.m) == {0, 1, 2, 3}
        assert all(v > 0 for v in t.m.values())


def _mpmath_log_energy_moment(mpmath, beta, gamma, n):
    """ln a**2 Gamma(r)/(gamma 2**r), r = (2 beta + n + 1)/gamma, in mpmath
    at the working precision."""
    b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
    r = (2 * b + (n + 1)) / g
    log_a = mpmath.log(2) + (b / g) * (1 + mpmath.log(g) - mpmath.log(b))
    return 2 * log_a + mpmath.loggamma(r) - mpmath.log(g) - r * mpmath.log(2)


# P = sqrt(beta*gamma) from 0.8 to 1e5 in 23 log steps
PIN_DURATIONS = np.geomspace(0.8, 1e5, 23).tolist()
PIN_GAMMAS = (0.3, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 30.0)


class TestLogEnergyMoment:
    """The energy integrals' one closed form against mpmath at 40 digits."""

    @pytest.mark.parametrize("gamma", [1.0, 3.0, 0.3])
    def test_rescaled_energy_matches_mpmath(self, gamma):
        # ln 4 + 2 beta/gamma - r ln(beta/gamma) + ln(int x**(2 beta)
        # exp(-2 x**gamma) dx), from P = 1 to P = 1e4
        mpmath = pytest.importorskip("mpmath")
        p_dur = np.geomspace(1.0, 1e4, 41)
        betas = p_dur**2 / gamma
        got = props._log_rescaled_energy(betas, np.full_like(betas, gamma))
        with mpmath.workdps(40):
            g = mpmath.mpf(gamma)
            for b, value in zip(betas, got):
                b = mpmath.mpf(b)
                r = (2 * b + 1) / g
                want = (mpmath.log(4) + 2 * b / g - r * mpmath.log(b / g)
                        + mpmath.loggamma(r) - mpmath.log(g) - r * mpmath.log(2))
                assert abs(value - want) <= 1e-13, (float(b), gamma)

    @pytest.mark.parametrize("p_dur", PIN_DURATIONS, ids=[f"P{p:.3g}" for p in PIN_DURATIONS])
    def test_matches_mpmath(self, p_dur):
        # the largest errors measured over this grid are 2.31e-15
        # max(1, |ln m_n|) for the log and 8.4e-14 relative for m_n
        mpmath = pytest.importorskip("mpmath")
        for gamma in PIN_GAMMAS:
            p = MorseParams(p_dur * p_dur / gamma, gamma)
            for n in range(-1, 4):
                with mpmath.workdps(40):
                    want = _mpmath_log_energy_moment(mpmath, p.beta, gamma, n)
                    want_m = float(mpmath.exp(want))
                got = props.log_energy_moment(p, n)
                assert abs(got - want) <= 2.5e-15 * max(1.0, abs(want)), (p, n)
                assert energy_moment(p, n) == pytest.approx(want_m, rel=1e-13, abs=0), (p, n)

    @pytest.mark.parametrize("gamma", [0.3, 2.0, 30.0])
    def test_lowpass_matches_mpmath(self, gamma):
        # beta = 0: ln(4 Gamma(r)/(gamma 2**r)), r = (n + 1)/gamma
        mpmath = pytest.importorskip("mpmath")
        for n in range(4):
            with mpmath.workdps(40):
                g, r = mpmath.mpf(gamma), mpmath.mpf(n + 1) / gamma
                want = mpmath.log(4) + mpmath.loggamma(r) - mpmath.log(g) - r * mpmath.log(2)
            got = props.log_energy_moment(MorseParams(0.0, gamma), n)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), n

    @pytest.mark.parametrize("beta", [2e-16, 1e-16])
    def test_extreme_gamma_raises(self, beta):
        # r + n/gamma = 2 beta/gamma underflows to 0; the moment itself is
        # finite (ln m_-1 = 36.84 and 37.53 by mpmath)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="out of range"):
                props.log_energy_moment(MorseParams(beta, 1.7e308), -1)

    @pytest.mark.parametrize("beta, gamma, n", [(1.0, 2.9e307, 1), (1e-300, 0.5, 0)])
    def test_range_edges_accepted(self, beta, gamma, n):
        # r = 1.03e-307, just inside the range, and a tiny normal beta
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = props.log_energy_moment(MorseParams(beta, gamma), n)
        with mpmath.workdps(40):
            want = _mpmath_log_energy_moment(mpmath, beta, gamma, n)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("beta, gamma, n", [(1e-310, 1.0, 0), (1.0, 4e307, 1), (1e5, 1e-26, 1)])
    def test_outside_range_raises(self, beta, gamma, n):
        # a subnormal beta, r = 7.5e-308 below the range, r = 2e31 above it
        with pytest.raises(ValueError, match="out of range"):
            props.log_energy_moment(MorseParams(beta, gamma), n)


class TestSigmaOmega:
    def test_cauchy(self):
        # energy density Gamma(shape 3, rate 2): var = 3/4
        assert sigma_omega(MorseParams(1, 1)) == pytest.approx(
            math.sqrt(0.75), rel=1e-12
        )

    def test_mean_frequency(self):
        assert mean_frequency(MorseParams(1, 1)) == pytest.approx(1.5, rel=1e-13)

    def test_gaussian_limit(self):
        # spectrum tends to 2 exp(-P^2 x^2 / 2); its energy density has
        # spread w_p/(P*sqrt(2))
        p = MorseParams(100, 3)
        ratio = sigma_omega(p) / peak_frequency(p)
        assert ratio == pytest.approx(1.0 / (math.sqrt(2.0) * duration(p)), rel=0.02)

    def test_requires_beta(self):
        with pytest.raises(ValueError):
            sigma_omega(MorseParams(0, 2))

    def test_complex_exponential_corner(self):
        # relative bandwidth shrinks to zero with growing beta at fixed
        # gamma: the members tend to pure complex exponentials
        ratios = [
            sigma_omega(MorseParams(b, 3)) / peak_frequency(MorseParams(b, 3))
            for b in (10.0, 100.0, 1000.0)
        ]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.02


class TestSigmaT:
    def test_cauchy(self):
        assert sigma_t(MorseParams(1, 1)) == pytest.approx(1.0, rel=1e-12)

    def test_unbounded_at_half(self):
        assert sigma_t(MorseParams(0.5, 3)) == math.inf
        assert sigma_t(MorseParams(0.2, 1)) == math.inf

    def test_finite_just_inside(self):
        assert math.isfinite(sigma_t(MorseParams(0.6, 3)))

    def test_time_domain_oracle(self):
        # independent route: second moment of the densely sampled wavelet
        p = MorseParams(9, 3)
        n = 65536
        pd, wp = duration(p), peak_frequency(p)
        wf = sample_wavelet(p, 1.0, n, (400.0 * pd / wp) / n)
        w2 = np.abs(wf.values) ** 2
        st_num = math.sqrt(
            float(np.sum(wf.times**2 * w2)) / float(np.sum(w2))
        )
        assert st_num == pytest.approx(sigma_t(p), rel=1e-6)


class TestHeisenbergArea:
    def test_cauchy(self):
        assert heisenberg_area(MorseParams(1, 1)) == pytest.approx(
            math.sqrt(0.75), rel=1e-12
        )

    def test_near_lower_bound(self):
        a = heisenberg_area(MorseParams(100, 3))
        assert 0.5 <= a <= 0.505

    def test_infinite_below_half(self):
        assert heisenberg_area(MorseParams(0.4, 2)) == math.inf

    def test_uncertainty_bound(self):
        for b, g in log_grid((0.51, 400.0), (0.02, 20.0), 150):
            assert heisenberg_area(MorseParams(b, g)) >= 0.5 - 1e-9, (b, g)

    @pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
    def test_decreasing_in_beta(self, g):
        betas = np.geomspace(1.0, 27.0, 25)
        areas = [heisenberg_area(MorseParams(b, g)) for b in betas]
        assert all(x > y for x, y in zip(areas, areas[1:]))

    @pytest.mark.parametrize("p_dur", [2.0, 3.0, 4.0, 5.0, 6.0])
    def test_airy_family_most_concentrated(self, p_dur):
        areas = {
            g: heisenberg_area(MorseParams(p_dur**2 / g, g)) for g in range(1, 7)
        }
        assert min(areas, key=areas.get) == 3


class TestSkewness:
    def test_gamma_density_values(self):
        # energy density is Gamma(shape 2b+1, rate 2): skewness 2/sqrt(shape)
        assert skewness_freq(MorseParams(1, 1)) == pytest.approx(
            2.0 / math.sqrt(3.0), rel=1e-11
        )
        assert skewness_freq(MorseParams(2, 1)) == pytest.approx(
            2.0 / math.sqrt(5.0), rel=1e-11
        )

    def test_signs_across_the_zero_curve(self):
        assert skewness_freq(MorseParams(3, 1)) > 0
        assert skewness_freq(MorseParams(3, 9)) < 0

    def test_small_near_airy_at_large_beta(self):
        assert abs(skewness_freq(MorseParams(100, 3))) < 0.05

    def test_zero_crossing_approaches_three(self):
        from scipy.optimize import brentq

        f = lambda g: skewness_freq(MorseParams(100, g))
        gstar = brentq(f, 1.5, 8.0)
        assert abs(gstar - 3.0) < 0.05


class TestMapTables:
    """The `map` tables, `heisenberg_map` and `zero_skewness_gamma`, against
    the public scalar functions."""

    def test_area_map_rows(self):
        betas, gammas = [0.3, 0.5, 1.0, 9.0, 60.0], [0.3, 3.0, 30.0]
        table = heisenberg_map(betas, gammas)
        assert table[:, :2].tolist() == [[b, g] for b in betas for g in gammas]
        for b, g, area in table.tolist():
            # the grid/scalar tolerance of TestClosedFormPins; inf where beta <= 1/2
            assert area == pytest.approx(heisenberg_area(MorseParams(b, g)), rel=1e-15, abs=0)

    def test_zero_skewness_matches_brentq_on_the_default_map_range(self):
        from scipy.optimize import brentq

        betas = np.geomspace(0.55, 60.0, 200)
        gamma_star, defined = zero_skewness_gamma(betas, 0.3, 30.0)
        assert defined.all()
        for b, g in zip(betas.tolist(), gamma_star.tolist()):
            want = brentq(lambda x: skewness_freq(MorseParams(b, x)), 0.3, 30.0,
                          xtol=1e-15, rtol=4 * np.finfo(float).eps)
            # measured: at most 4.3e-11, at beta = 55.9, where the skewness
            # is so flat in gamma that its rounding moves the computed zero
            assert abs(g - want) <= 1e-10, b

    def test_zero_skewness_mask(self):
        # beta <= 0 (and nan) has no skewness
        gamma_star, defined = zero_skewness_gamma([0.0, -1.0, 9.0, math.nan], 1.0, 9.0)
        assert defined.tolist() == [False, False, True, False]
        assert np.isnan(gamma_star[~defined]).all() and 3.0 < gamma_star[2] < 3.1
        # the skewness keeps its sign between gamma = 0.3 and 1
        assert not zero_skewness_gamma([9.0, 60.0], 0.3, 1.0)[1].any()


def _mpmath_area_and_skewness(beta, gamma):
    """Heisenberg area and frequency skewness from the generalized-gamma
    integrals int w**q exp(-2 w**g) dw = Gamma(r)/(g 2**r), r = (q+1)/g,
    evaluated in mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")

    def gengamma(q, g):
        r = (q + 1) / g
        return mpmath.gamma(r) / (g * mpmath.power(2, r))

    with mpmath.workdps(40):
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        i0 = gengamma(2 * b, g)
        m1, m2, m3 = (gengamma(2 * b + n, g) / i0 for n in (1, 2, 3))
        var_w = m2 - m1**2
        var_t = (
            b**2 * gengamma(2 * b - 2, g)
            - 2 * b * g * gengamma(2 * b + g - 2, g)
            + g**2 * gengamma(2 * b + 2 * g - 2, g)
        ) / i0
        skew = (m3 - 3 * m1 * var_w - m1**3) / var_w**1.5
        return float(mpmath.sqrt(var_t * var_w)), float(skew)


# the Airy member, the map's two far corners, (58.6, 0.32), where the
# closed forms lost the most digits on the map's default grid, and
# (0.501, 0.05), where the order -2 moment of sigma_t has r + s =
# (2 beta - 1)/gamma near 0
PINNED_CELLS = [(9.0, 3.0), (0.55, 30.0), (60.0, 0.3), (58.6, 0.32), (0.501, 0.05)]


def _map_grid_sample():
    """(beta, gamma) of the default `map` grid's 4 corners and of 200 of its
    cells drawn with a fixed seed."""
    betas = np.geomspace(0.55, 60.0, 200)
    gammas = np.geomspace(0.3, 30.0, 200)
    rng = np.random.default_rng(0)
    cells = [(0, 0), (0, 199), (199, 0), (199, 199)]
    cells += [tuple(c) for c in rng.integers(0, 200, (200, 2))]
    return np.array([betas[i] for i, _ in cells]), np.array([gammas[j] for _, j in cells])


class TestClosedFormPins:
    @pytest.mark.parametrize("b, g", PINNED_CELLS)
    def test_match_mpmath(self, b, g):
        area, skew = _mpmath_area_and_skewness(b, g)
        p = MorseParams(b, g)
        assert heisenberg_area(p) == pytest.approx(area, rel=1e-9)
        assert skewness_freq(p) == pytest.approx(skew, rel=1e-9)

    def test_map_grid_sample_matches_mpmath(self):
        # evaluated as one array call, like the map's
        b, g = _map_grid_sample()
        areas = props._heisenberg_area(b, g)
        skews = props._skewness(b, g)
        for k, (area, skew) in enumerate(map(_mpmath_area_and_skewness, b, g)):
            assert areas[k] == pytest.approx(area, rel=1e-11, abs=0), (b[k], g[k])
            assert abs(skews[k] - skew) <= 5e-10, (b[k], g[k])

    def test_log_moment_ratios_match_mpmath(self):
        # every order the closed forms use; the error stays a small multiple
        # of s = n/gamma ulp, also at gamma = 30, where s is 1/30
        mpmath = pytest.importorskip("mpmath")
        b, g = _map_grid_sample()
        orders = (1.0, 2.0, 3.0, -2.0, g - 2.0, 2.0 * g - 2.0)
        got = props._log_moment_ratios(b, g, *orders)
        with mpmath.workdps(40):
            for n, row in zip(orders, got):
                for beta, gamma, order, value in zip(b, g, np.broadcast_to(n, b.shape), row):
                    bb, gg = mpmath.mpf(beta), mpmath.mpf(gamma)
                    r, s = (2 * bb + 1) / gg, mpmath.mpf(order) / gg
                    want = (mpmath.loggamma(r + s) - mpmath.loggamma(r)
                            - s * mpmath.log(2 * bb / gg))
                    err = abs(value - want)
                    assert err <= 1e-14 and err <= 1e-13 * abs(s), (beta, gamma, order)

    @pytest.mark.parametrize("b, g", PINNED_CELLS)
    def test_scalar_wrappers_equal_array_kernels(self, b, g):
        # the cell sits inside a grid, so the kernels run their array path
        bb = np.array([1.0, b, 40.0])[:, None]
        gg = np.array([0.5, g, 7.0])[None, :]
        p = MorseParams(b, g)
        wp = peak_frequency(p)
        pairs = [
            (heisenberg_area(p), props._heisenberg_area(bb, gg)[1, 1]),
            (skewness_freq(p), props._skewness(bb, gg)[1, 1]),
            (sigma_t(p), props._rescaled_sigma_t(bb, gg)[1, 1] / wp),
            (sigma_omega(p), props._rescaled_sigma_omega(bb, gg)[1, 1] * wp),
            (
                mean_frequency(p),
                math.exp(props._log_moment_ratios(bb, gg, 1.0)[0, 1, 1]) * wp,
            ),
        ]
        for scalar, array in pairs:
            assert scalar == pytest.approx(float(array), rel=1e-15, abs=0)


class TestQuadratureOracle:
    def test_matches_closed_form(self):
        p = MorseParams(1, 1)
        q = quadrature_moment(lambda w: eval_spectrum(p, w), 0, "energy")
        assert q == pytest.approx(energy_moment(p, 0), rel=1e-8)

    def test_offset_gaussian(self):
        f = lambda w: np.exp(-0.5 * (np.asarray(w, dtype=float) - 5.0) ** 2 * 9.0)
        assert quadrature_moment(f, 0, "energy") == pytest.approx(
            math.sqrt(math.pi / 9.0), rel=1e-8
        )

    def test_zero_function(self):
        f = lambda w: np.zeros_like(np.asarray(w, dtype=float))
        assert quadrature_moment(f, 0, "energy") == 0.0

    def test_unknown_weight(self):
        with pytest.raises(ValueError):
            quadrature_moment(lambda w: w, 0, "nope")

    @pytest.mark.parametrize("b", ORACLE_BETAS[:3])
    def test_derivative_weight_spot_checks(self, b):
        g = 3.0
        p = MorseParams(b, g)
        spec = lambda w: eval_spectrum(p, w)
        d = quadrature_moment(spec, 0, "derivative_energy")
        m0 = quadrature_moment(spec, 0, "energy")
        assert math.sqrt(d / m0) == pytest.approx(sigma_t(p), rel=1e-8)


class TestDoubleExponentialMaps:
    """Each map of the oracle against a closed form, on its own."""

    @pytest.mark.parametrize("s", [0.2, 30.0])
    def test_exp_sinh_gamma_function(self, s):
        # s = 0.2 puts an integrable singularity w**-0.8 at the origin
        got = quadrature_integral(lambda w: np.exp((s - 1.0) * np.log(w) - w))
        assert got == pytest.approx(gamma_function(s), rel=1e-13, abs=0)

    @pytest.mark.parametrize("upper", [1.0, 2.5])
    def test_tanh_sinh_cube(self, upper):
        got = quadrature_integral(lambda w: w * w, hard_upper=upper)
        assert got == pytest.approx(upper**3 / 3.0, rel=1e-13, abs=0)

    def test_sinh_sinh_gaussian_off_centre(self):
        got = quadrature_integral(lambda w: np.exp(-((w + 3.0) ** 2)), full_line=True)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-13, abs=0)

    def test_end_nodes_that_carry_the_sum_raise(self):
        # 1/(1+w) is not integrable on the half-line
        with pytest.raises(QuadratureError, match="end nodes"):
            quadrature_integral(lambda w: 1.0 / (1.0 + w))

    def test_jump_inside_the_interval_does_not_converge(self):
        step = lambda w: np.where(w < 0.0, np.exp(-w * w), 0.0)
        total = r"-?\d\.\d{12}e[+-]\d{2,3}"
        with pytest.raises(QuadratureError, match=(
            r"^double-exponential rule: no convergence after 10 halvings in 1 of 1 "
            rf"cells; the last two sums of the first are {total} and {total}$"
        )):
            quadrature_integral(step, full_line=True)

    def test_non_finite_integrand_raises(self):
        # w = 1 is the node at t = 0 of every map on the half-line
        with pytest.raises(QuadratureError, match="not finite at w = 1"):
            quadrature_integral(lambda w: np.exp(-w) / (w - 1.0) ** 2)

    def test_full_line_and_band_edge_exclude_each_other(self):
        with pytest.raises(ValueError, match="exclude"):
            quadrature_integral(lambda w: w, full_line=True, hard_upper=1.0)


def _run_fresh(statement: str, prelude: str = "", cwd=None) -> str:
    """Stdout of a fresh interpreter that runs ``prelude``, imports the same
    morsekit as this one, then runs ``statement`` (in ``cwd`` if given)."""
    code = f"{prelude}import sys, morsekit, morsekit.cli; {statement}"
    env = dict(os.environ, PYTHONPATH=str(Path(props.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env, cwd=cwd,
    )
    return out.stdout


def _scipy_loaded_after(statement: str, cwd=None) -> str:
    """Every scipy module loaded in a fresh interpreter that imports
    morsekit and then runs ``statement``."""
    report = "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return _run_fresh(statement + report, cwd=cwd).strip().splitlines()[-1]  # after any table


# a power-of-two length, whose real mirror rows unfold an n-point inverse,
# and a length whose mirror rows are padded
CWT_LENGTHS = (512, 600)


def _write_signals(directory: Path):
    """The real and complex signal files that the `cwt` commands read."""
    rng = np.random.default_rng(32)
    for n in CWT_LENGTHS:
        t = np.arange(n)
        re = np.cos(0.3 * t) + 0.5 * rng.standard_normal(n)
        im = np.sin(0.3 * t) + 0.5 * rng.standard_normal(n)
        (directory / f"real{n}.txt").write_text("".join(f"{a!r}\n" for a in re.tolist()))
        (directory / f"complex{n}.txt").write_text(
            "".join(f"{a!r} {b!r}\n" for a, b in zip(re.tolist(), im.tolist())))


# every command on small grids: `limits` with both targets, and `cwt` on
# each boundary for a real and a complex signal of each length
SCIPY_FREE_COMMANDS = {
    "map": ["map", "--beta", "0.55:60:12", "--gamma", "0.3:30:12"],
    "gallery": ["gallery", "--beta", "1,3", "--gamma", "3"],
    # the Morlet columns need a peak solve and a duration inversion
    "curves": ["curves", "--pgrid", "1:0.5:4", "--gamma", "3"],
    "props": ["props", "9,3", "60,0.3", "0.4,3"],
    "besselfit": ["besselfit", "--beta", "1:50:8", "--gamma", "0.02:2:8"],
    "limits": ["limits", "--target", "lognormal"],
    "limits-shannon": ["limits", "--target", "shannon", "--gamma", "100"],
    **{f"cwt-{boundary}-{kind}{n}": ["cwt", "--signal", f"{kind}{n}.txt",
                                     "--boundary", boundary]
       for boundary in ("periodic", "zero", "mirror") for kind in ("real", "complex")
       for n in CWT_LENGTHS},
}


class TestScipyUnloaded:
    """No part of the package needs scipy: importing morsekit, the
    quadrature oracle and every command, `cwt` on each boundary included,
    load no scipy module."""

    def test_import_loads_no_scipy(self):
        assert _scipy_loaded_after("pass") == "[]"

    def test_oracle_run_loads_no_scipy(self):
        statement = (
            "from morsekit.superfamily import *; "
            "similarity_alpha_sq(bessel_wavelet(), shannon_wavelet())"
        )
        assert _scipy_loaded_after(statement) == "[]"

    @pytest.mark.parametrize("argv", SCIPY_FREE_COMMANDS.values(), ids=SCIPY_FREE_COMMANDS)
    def test_command_loads_no_scipy(self, tmp_path, argv):
        _write_signals(tmp_path)
        argv = argv + ["--out", str(tmp_path / "out")]
        statement = f"assert morsekit.cli.main({argv!r}) == 0"
        assert _scipy_loaded_after(statement, cwd=tmp_path) == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # an import of any scipy module raises ImportError in this interpreter
        _write_signals(tmp_path)
        codes = [
            f"morsekit.cli.main({argv + ['--out', str(tmp_path / name)]!r})"
            for name, argv in SCIPY_FREE_COMMANDS.items()
        ]
        statement = f"print([{', '.join(codes)}])"
        out = _run_fresh(statement, prelude="import sys; sys.modules['scipy'] = None; ",
                         cwd=tmp_path)
        assert out.strip().splitlines()[-1] == str([0] * len(codes))


@pytest.mark.parametrize("fn, word", [(mean_frequency, "mean frequency"),
                                      (skewness_freq, "skewness")])
def test_lowpass_member_rejected(fn, word):
    with pytest.raises(ValueError, match=f"^{word} requires beta > 0$"):
        fn(MorseParams(0, 2))


class TestPropertySummary:
    def test_fields_consistent(self):
        p = MorseParams(9, 3)
        s = property_summary(p)
        assert s.peak_frequency == pytest.approx(3.0 ** (1 / 3), rel=1e-12)
        assert s.duration == pytest.approx(math.sqrt(27.0))
        assert s.heisenberg_area == pytest.approx(s.sigma_t * s.sigma_omega, rel=1e-12)

    def test_infinite_area_propagates(self):
        s = property_summary(MorseParams(0.4, 3))
        assert s.sigma_t == math.inf
        assert s.heisenberg_area == math.inf
        assert math.isfinite(s.sigma_omega)


# the full 6x7 closed-form-vs-oracle sweep lives in the acceptance suite;
# this pins the helper constants to the documented grid shape
def test_oracle_grid_shape():
    assert len(ORACLE_BETAS) == 6 and len(ORACLE_GAMMAS) == 7

"""morsekit: the generalized Morse wavelet superfamily.

Frequency- and time-domain evaluation of the two-parameter analytic
wavelet family, closed-form concentration properties with an independent
quadrature oracle, the named special and limiting members (Morlet,
Cauchy, DoG, Airy, lognormal, Shannon, Bessel, analytic filter), and an
FFT-based continuous wavelet transform.  The ``morsekit`` command-line
tool exports parameter-space maps, wavelet galleries, concentration
curves, and transform coefficients as CSV/JSON.
"""

from .core import (
    ExpansionCoeffs,
    MorseParams,
    SampledSpectrum,
    SampledWaveform,
    amplitude_constant,
    approx_spectrum,
    duration,
    eval_rescaled_spectrum,
    eval_spectrum,
    expansion_coeffs,
    half_power_frequency,
    log_amplitude_constant,
    log_spectrum_derivatives,
    peak_frequency,
    rescaled_log_spectrum_derivatives,
    sample_spectrum,
    sample_wavelet,
)
from .props import (
    MomentTable,
    PropertySummary,
    QuadratureError,
    energy_moment,
    heisenberg_area,
    mean_frequency,
    moment_table,
    property_summary,
    quadrature_integral,
    quadrature_moment,
    sigma_omega,
    sigma_t,
    skewness_freq,
)
from .superfamily import (
    BesselFitGrid,
    FitResult,
    LimitDeviation,
    MorletParams,
    NamedWavelet,
    analytic_filter_spectrum,
    analytic_filter_time_samples,
    analytic_filter_wavelet,
    bessel_fit,
    bessel_spectrum,
    bessel_wavelet,
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
from .transform import (
    CwtResult,
    ScaleGrid,
    SignalBuffer,
    ridge_frequency_check,
    scale_grid,
    transform,
)

__version__ = "0.1.0"

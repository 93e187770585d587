"""morsekit: the generalized Morse wavelet superfamily.

Frequency- and time-domain evaluation of the two-parameter analytic
wavelet family, closed-form concentration properties with an independent
quadrature oracle, the named special and limiting members (Morlet,
Cauchy, DoG, Airy, lognormal, Shannon, Bessel, analytic filter), and an
FFT-based continuous wavelet transform.  The ``morsekit`` command-line
tool exports parameter-space maps, wavelet galleries, concentration
curves, and transform coefficients as CSV/JSON.
"""

from .core import *
from .props import *
from .superfamily import *
from .transform import *

__version__ = "0.1.0"

"""Derivative-free score and observed-information estimation.

Perturb the parameter with a shrinking Gaussian prior, compute posterior
moments of the perturbation, and rescale them into derivative estimates.
For state-space models with sample-only dynamics the moments come from an
extended bootstrap particle filter with fixed-lag smoothing.
"""

from . import general, perturbation, results, smc, state_space
from .general import *
from .perturbation import *
from .results import *
from .smc import *
from .state_space import *

__version__ = "0.1.0"

__all__ = [
    *general.__all__,
    *perturbation.__all__,
    *results.__all__,
    *smc.__all__,
    *state_space.__all__,
]

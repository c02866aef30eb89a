"""conic_lab: counting and predicting small solutions of diagonal ternary
quadratic congruences mod odd prime powers, with every constructive
ingredient cross-checked against brute-force oracles.

The package root exports the names of the README quick tour; everything
else is imported from its module (conic_lab.census, conic_lab.expsum, ...)."""

from .modcore import PrimePowerModulus, main_constant, s_p
from .census import count_sharp, smallest_solution
from .conic import build_case2_family
from .expsum import IntRationalFunction, cochrane_evaluate
from .dioph import dirichlet_approx

__version__ = "0.1.0"

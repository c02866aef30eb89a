"""conic_lab: counting and predicting small solutions of diagonal ternary
quadratic congruences mod odd prime powers, with every constructive
ingredient cross-checked against brute-force oracles."""

from .modcore import (
    CoefficientTriple,
    PrimePowerModulus,
    gauss_sum,
    jacobi,
    main_constant,
    mod_inverse,
    s_p,
    sqrt_mod_prime_power,
)
from .census import (
    CountReport,
    WeightSpec,
    asymptotic_scan,
    count_mod_p,
    count_sharp,
    count_smoothed,
    count_unit_circle,
    predict_main_term,
    smallest_solution,
)
from .conic import (
    BasePoint,
    ParamFamily,
    build_case1_family,
    build_case2_family,
    enumerate_pair_solutions,
    find_base_point,
    lift_triple,
    param_case1,
)
from .expsum import (
    IntRationalFunction,
    closed_form_E,
    cochrane_evaluate,
    direct_S_alpha,
)
from .dioph import (
    Approximant,
    BinaryQuadraticInstance,
    choose_parameters,
    count_F,
    count_equation_solutions,
    dirichlet_approx,
    divisor_count,
    reduce_coefficients,
)

__version__ = "0.1.0"

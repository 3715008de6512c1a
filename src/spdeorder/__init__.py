"""Order-based bracketing solver for parabolic SPDEs with a nondecreasing,
possibly discontinuous drift: frozen-drift implicit Euler-Maruyama solves,
pathwise comparison diagnostics, extremal sub/supersolution brackets, and a
monotone fixed-point iteration approximating the minimal and maximal
solutions.
"""
from .core import Grid, TimeGrid, h_norm_values
from .operators import (
    DriftSpec,
    NoiseSpec,
    ReactionSpec,
    SpatialOpSpec,
    Sigma_functional_values,
    apply_A_values,
    check_assumptions,
    eval_b_values,
    eval_f_values,
    eval_g_values,
    sigma_eps,
    sigma_eps_prime,
    sigma_eps_second,
    sigma_hat,
)
from .noise import NoisePath, increment_at, sample_noise_path
from .solver import (
    NewtonDivergenceError,
    NewtonParams,
    ProblemSpec,
    Trajectory,
    constant_forcing,
    implicit_step,
    march,
    solve_frozen,
    sup_h_distance,
)
from .comparison import (
    ComparisonReport,
    comparison_study,
    energy_series,
    run_coupled,
    sigma_energy_trace,
)
from .bracket import (
    BracketPair,
    BracketResult,
    apply_S,
    bracket_study,
    build_extremal,
    iterate_bracket,
)

__version__ = "0.1.0"

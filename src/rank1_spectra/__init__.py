"""Spectral moments and radius bounds for symmetric random matrices whose
entry variances form a rank-one profile Var a_ij = sigma_i * sigma_j.

The package computes the limiting even spectral moments as coefficients of the
plane-tree generating series (checked against the paper's sum over tree degree
profiles), finite-n lower/upper bounds on the expected moments and the
expected spectral radius, a Hankel-pencil semidefinite lower bound on the
asymptotic spectral radius, and validates all of it against Monte Carlo
simulation and two brute-force enumeration oracles.
"""

from .combinatorics import (
    DegreeProfile,
    PlaneTree,
    catalan,
    degree_profile_of,
    enumerate_degree_profiles,
    enumerate_plane_trees,
    multinomial,
    tree_count,
)
from .ensemble import (
    EnsembleConfig,
    Histogram,
    MonteCarloResult,
    SpectralSample,
    derive_trial_seed,
    eigenvalues,
    empirical_moments,
    esd_histogram,
    monte_carlo,
    sample_matrix,
    spectral_sample,
)
from .moments import (
    MomentReport,
    MomentRow,
    limiting_even_moment,
    moment_lower_bound,
    moment_upper_bound,
    odd_moment_bound,
    theta_factor,
)
from .radius_bounds import (
    HankelPencil,
    InvalidMomentSequenceError,
    RadiusBound,
    RadiusBoundsReport,
    RadiusOrderRow,
    SdpResult,
    build_pencil,
    moment_sandwich,
    radius_lower_bound,
    radius_upper_bound,
    sdp_lower_bound,
)
from .reports import lambda_vector, moment_table, radius_table
from .sigma_model import (
    LimitingAverages,
    NoLimitError,
    SigmaDomainError,
    SigmaSpec,
    SigmaStats,
    SpecSyntaxError,
    growth_diagnostic,
    limiting_averages,
    parse_sigma_spec,
    sigma_stats,
    sigma_values,
)
from .walk_oracle import EntryMomentModel, dominant_term, exact_expected_moment

__version__ = "0.1.0"

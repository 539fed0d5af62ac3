"""Spectral moments and radius bounds for symmetric random matrices whose
entry variances form a rank-one profile Var a_ij = sigma_i * sigma_j.

The package computes the limiting even spectral moments as coefficients of the
plane-tree generating series (checked against the paper's sum over tree degree
profiles), finite-n lower/upper bounds on the expected moments and the
expected spectral radius, a Hankel-pencil semidefinite lower bound on the
asymptotic spectral radius, and validates all of it against Monte Carlo
simulation and two brute-force enumeration oracles.

Names load on first use: ``import rank1_spectra`` imports no submodule, and
reading a public name imports the one submodule that defines it (PEP 562), so
a caller pays only for the layers it touches; the stdlib's ``decimal``,
for one, loads with ``radius_bounds`` or for limiting averages.  No layer
loads mpmath: ``validation``, the oracle of the Decimal layers, checks them
in the stdlib's ``decimal`` and ``fractions`` by other algorithms.
``limiting_averages`` is read from ``quadrature``, the module that defines
it, and the sigma expression language (``expression``) exports no public
name, so reading a name of ``sigma_model`` compiles neither.

numpy loads only with the Monte Carlo layer (``ensemble``) and the
validation battery (``validation``).  Every other layer, from the sigma spec
through sigma at n points and its partial sums (``sigma_values``,
``sigma_stats``), the limiting averages, the tree series and the SDP to the
serializer, runs on Python floats, ints and Decimals, so ``moments`` and
``radius`` never load it; ``simulate`` and ``validate`` load it when they
first need it.

The records of those numpy-free layers are ``typing.NamedTuple``s:
``SigmaSpec``, ``LimitingAverages`` and ``SigmaStats`` (``sigma_model``),
``MomentRow`` and ``MomentReport`` (``moments``), and ``HankelPencil``,
``SdpResult``, ``RadiusOrderRow`` and ``RadiusBoundsReport``
(``radius_bounds``).  They are immutable, and they
compare, hash, unpack and iterate as the tuples of their fields, so one
equals a plain tuple of the same values.  Declaring them so keeps
``dataclasses`` and the ``inspect`` it imports out of ``moments`` and
``radius``, whose start-up is most of their time.  The records of the
Monte Carlo layer and the tree oracle (``ensemble``, ``combinatorics``)
stay dataclasses: numpy loads ``inspect`` anyway.  The walk oracle
(``walk_oracle``) holds no record: it returns one dict of floats per law.
"""

import os as _os
import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Thread counts of the BLAS builds numpy may load, which BLAS reads once, when
# numpy loads.  A name here loads no numpy.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Whether numpy loaded after ``_pin_blas`` found every variable at 1.
_blas_pinned = False


def _pin_blas() -> None:
    """Set each variable of ``_BLAS_THREAD_VARS`` that is unset to 1, if numpy
    has not loaded yet (afterwards they would only reach child processes).

    BLAS then runs on one thread when every variable reads 1, which
    ``_blas_is_pinned`` reports from then on.  ``ensemble.monte_carlo`` runs
    trials on more than one thread only then, so its workers never share
    cores with BLAS threads; with one worker per allowed CPU it pins each to
    its own, which changes where they run but no result.
    """
    global _blas_pinned
    if "numpy" in _sys.modules:
        return
    for name in _BLAS_THREAD_VARS:
        _os.environ.setdefault(name, "1")
    _blas_pinned = all(_os.environ[name] == "1" for name in _BLAS_THREAD_VARS)


def _blas_is_pinned() -> bool:
    return _blas_pinned


# Limits and defaults that the CLI's parser states, defined here so that
# building it loads no submodule; ``moments``, ``combinatorics``, ``reports``,
# ``radius_bounds`` and ``ensemble`` export them under the public names.
_MAX_ORDER = 64  # maximum s in m_{2s}
_DEFAULT_LAMBDA_TOL = 1e-8
_DEFAULT_SBAR = 14  # SDP truncation s_bar
_DEFAULT_TOL = 1e-10  # certified half-width of the SDP's beta
_DISTRIBUTIONS = ("rademacher", "uniform", "truncated_gaussian")  # entry laws


_MODULE_EXPORTS = {
    "combinatorics": (
        "DegreeProfile",
        "PlaneTree",
        "catalan",
        "degree_profile_of",
        "enumerate_degree_profiles",
        "enumerate_plane_trees",
        "multinomial",
        "tree_count",
    ),
    "ensemble": (
        "EnsembleConfig",
        "MonteCarloResult",
        "derive_trial_seed",
        "eigenvalues",
        "empirical_moments",
        "monte_carlo",
        "sample_matrix",
    ),
    "moments": (
        "MomentReport",
        "MomentRow",
        "limiting_even_moment",
        "moment_lower_bound",
        "moment_upper_bound",
        "theta_factor",
    ),
    "radius_bounds": (
        "HankelPencil",
        "InvalidMomentSequenceError",
        "RadiusBoundsReport",
        "RadiusOrderRow",
        "SdpResult",
        "build_pencil",
        "sdp_lower_bound",
    ),
    "quadrature": ("limiting_averages",),
    "reports": ("lambda_vector", "moment_table", "radius_table"),
    "sigma_model": (
        "LimitingAverages",
        "NoLimitError",
        "SigmaDomainError",
        "SigmaSpec",
        "SigmaStats",
        "SpecSyntaxError",
        "parse_sigma_spec",
        "sigma_stats",
        "sigma_values",
    ),
    "walk_oracle": ("exact_expected_moment",),
}

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_EXPORTS])


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return _import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

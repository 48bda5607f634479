"""mflil: a numerical laboratory for multifractal product measures.

The package groups five kinds of tooling around a shared model layer:

* ``models``: coded measures on digit grids and self-similar attractors,
  their per-symbol tables and those on their supports, and the seeded per-path
  Philox streams (``path_rng``) that every walk draws from.
* ``spectrum``: scale-free pressure exponents tau(q), their derived local
  dimension and variance constants, and flatness diagnostics.
* ``lil``: normalized log-mass fluctuation ensembles, exact finite-level
  distributions, and first-passage tail probabilities.
* ``gauges``: iterated-logarithm corrected gauge functions and Monte Carlo
  mass-versus-gauge comparisons.
* ``qb``: concatenation-constant estimation and the absolute-continuity
  dichotomy verdict.

``cli`` exposes all of it as the ``mflil`` command; ``report`` holds the
independently derived reference values used to pin the test suite.
"""

from .errors import (
    BudgetError,
    FlatSpectrumError,
    MFLilError,
    NumericalError,
    ValidationError,
)
from .models import (
    Alphabet,
    BernoulliProduct,
    MarkovMeasure,
    MeasureModel,
    MultinomialMeasure,
    SelfSimilarMeasure,
    log_symbol_weights,
    model_from_dict,
    model_to_dict,
    parse_model_file,
    path_rng,
)
from .spectrum import (
    ChiProfile,
    LogBase,
    NotFlatResult,
    SpectrumTable,
    chi,
    dimension,
    is_flat,
    log_partition_sum,
    not_flat_check,
    sigma2,
    sigma2_scale_free,
    sigma2_to_base,
    spectrum_table,
    tau,
    tau_empirical,
    tau_scale_free,
    tau_to_base,
)
from .lil import (
    EnsembleSummary,
    LilConvention,
    exact_distribution,
    exact_moments,
    lil_convention,
    per_symbol_moments,
    run_ensemble,
    running_max_tail,
)
from .gauges import (
    GaugeSpec,
    GaugeTestResult,
    ThetaCorrection,
    gauge_spec,
    gauge_test,
    lil_sigma,
    theta_correction,
)
from .qb import (
    DichotomyResult,
    QBReport,
    dichotomy_classify,
    qb_constant,
)
from .zoo import ZOO_NAMES, load_zoo_model, zoo_models, zoo_text

__version__ = "0.1.0"  # the one source of the version: pyproject.toml reads it

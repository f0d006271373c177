"""Exact analysis of grid sampling for piecewise constant signals.

The package answers, with exact rational arithmetic throughout:

* which per-region sample-count patterns a signal can produce as the
  sampling grid slides (:mod:`pcsamp.sampler`);
* how precisely a set of observed patterns locates each discontinuity
  relative to a chosen reference discontinuity (:mod:`pcsamp.inference`);
* what piecewise constant estimate the observations support and what
  error energy it guarantees, minimax except on chains of three or more
  coupled discontinuities (:mod:`pcsamp.estimator`);
* whether those closed-form guarantees survive brute-force search over
  every feasible placement of the unknown discontinuities
  (:mod:`pcsamp.oracle`).
"""

from .signal_core import (
    AmplitudeViolation,
    GenericityViolation,
    PiecewiseFunction,
    RegionViolation,
    SignalSpec,
    SpecViolation,
    as_rational,
    find_genericity_violation,
    translate,
    truth_function,
    validate_spec,
)
from .sampler import (
    AtlasCell,
    PatternAtlas,
    SamplingPattern,
    count_direct,
    cumulative_count,
    delta_chain,
    enumerate_atlas,
    kappa_d,
)
from .inference import (
    ChainStructure,
    FeasibleBox,
    InconsistentObservations,
    ObservationSet,
    UncertaintyModel,
    Zone,
    chain_analysis,
    cumulative_values,
    feasible_box,
    infer_model,
)
from .estimator import (
    Estimate,
    EstimateCell,
    PartialObservations,
    absolute_error_bound,
    best_reference,
    closed_form_energies,
    closed_form_energy,
    estimate_full,
    estimate_partial,
)
from .oracle import (
    CheckResult,
    EmptyFeasibleSet,
    PerturbationReport,
    WorstCase,
    energy_between,
    exhaustive_consistency_sweep,
    perturbation_minimax_check,
    random_spec,
    verify_scenario,
    worst_case_energy,
)

__version__ = "0.1.0"

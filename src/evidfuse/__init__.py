"""Evidential fusion rules and a sequential target-type tracking testbed.

The package combines bodies of evidence over a small frame of discernment
with the normalized conjunctive rule, proportional conflict redistribution,
or a fuzzy-operator generalization of the latter, and compares the rules on
Monte Carlo simulations of type tracking from unreliable classifier
declarations.
"""

from .core import (
    ConsensusResult,
    DecisionCriterion,
    Frame,
    MassFunction,
    MAX_FRAME_SIZE,
    SUBSET_SEPARATOR,
    SUM_TOLERANCE,
    cardinality,
    conjunctive_consensus,
    decide,
    make_bba,
    make_frame,
    pignistic,
    total_conflict,
    vacuous_bba,
)
from .errors import (
    ConfigError,
    EvidenceError,
    FrameError,
    FrameMismatchError,
    MassFunctionError,
    TotalConflictError,
    VanishingConsensusError,
)
from .montecarlo import (
    AveragedTrace,
    MonteCarloConfig,
    ReadaptationDelay,
    Scenario,
    default_config,
    default_confusion,
    default_frame,
    default_rules,
    default_scenario,
    readaptation_delays,
    run_monte_carlo,
    sample_decision,
)
from .operators import TConorm, TNorm
from .rng import SplitMix64, derive_run_seed, mix64
from .rules import (
    Rule,
    RuleConfig,
    combine,
    dempster_combine,
    pcr5_combine,
    tcn_combine,
)
from .tracker import (
    ConfusionMatrix,
    TrackRecord,
    identity_confusion,
    observation_bba,
    run_track,
    uniform_diagonal_confusion,
)

__all__ = [
    "AveragedTrace",
    "ConfigError",
    "ConfusionMatrix",
    "ConsensusResult",
    "DecisionCriterion",
    "EvidenceError",
    "Frame",
    "FrameError",
    "FrameMismatchError",
    "MassFunction",
    "MassFunctionError",
    "MAX_FRAME_SIZE",
    "MonteCarloConfig",
    "ReadaptationDelay",
    "Rule",
    "RuleConfig",
    "SUBSET_SEPARATOR",
    "SUM_TOLERANCE",
    "Scenario",
    "SplitMix64",
    "TConorm",
    "TNorm",
    "TotalConflictError",
    "TrackRecord",
    "VanishingConsensusError",
    "cardinality",
    "combine",
    "conjunctive_consensus",
    "decide",
    "default_config",
    "default_confusion",
    "default_frame",
    "default_rules",
    "default_scenario",
    "dempster_combine",
    "derive_run_seed",
    "identity_confusion",
    "make_bba",
    "make_frame",
    "mix64",
    "observation_bba",
    "pcr5_combine",
    "pignistic",
    "readaptation_delays",
    "run_monte_carlo",
    "run_track",
    "sample_decision",
    "tcn_combine",
    "total_conflict",
    "uniform_diagonal_confusion",
    "vacuous_bba",
]

__version__ = "0.1.0"

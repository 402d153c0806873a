"""Online learning for strategic interactions with hidden-type confounding.

The package simulates an episodic principal-agent environment in which hidden
agent types bias both rewards and dynamics, estimates candidate models from
aggregated data via minimax instrumented losses, plans optimistically over the
surviving candidates, and ships ground-truth diagnostics plus an experiment
command line.
"""

from .diagnostics import (
    DiagnosticWitness,
    NaiveBaselineReport,
    OccupancyTable,
    RatioResult,
    RegretCurve,
    deterministic_policy_tables,
    ill_posedness,
    naive_baseline,
    occupancy,
    regret_curve,
    transfer_term,
    true_aggregated_model,
)
from .driver import (
    EpisodeRecord,
    LogEntry,
    RunConfig,
    RunResult,
    run_learner,
)
from .errors import (
    CapacityError,
    ConfigError,
    InvalidIndexError,
    ParseError,
    RealizabilityError,
    StrategicMDPError,
    ValidationError,
)
from .estimation import (
    BetaLevels,
    ConfidenceSets,
    LossEvaluator,
    StepData,
    StepDataset,
    build_confidence_sets,
    confidence_levels,
    family_losses,
)
from .hypotheses import (
    ClassCaps,
    ClassSizes,
    HypothesisClasses,
    KernelIndex,
    RealizabilityReport,
    check_realizability,
    close_classes,
    residual_labels,
    residual_stack,
)
from .model import (
    Grid,
    LearnerKnowledge,
    Policy,
    StrategicModel,
    Trajectory,
    TrajectoryStep,
    TransitionMode,
    env_step,
    feedback_mix,
    integrate_feedback,
    make_rng,
    rollout,
)
from .planning import (
    AggregatedMDP,
    CandidateAggregates,
    PlanResult,
    SelectionMode,
    SelectionResult,
    discretize_gaussian,
    evaluate_policy,
    optimistic_select,
    policy_value,
    value_iteration,
)
from .scenarios import GENERATORS, Scenario, build_scenario

__version__ = "0.1.0"

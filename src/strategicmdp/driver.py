"""Online learning loop: roll out, refit confidence sets, plan optimistically.

Each episode the committed policy is played once, the episode's samples join
the per-step datasets, every candidate's minimax loss is refreshed, and the
next policy is the optimal policy of the highest-value model whose candidates
all survive their confidence thresholds. The uniform mixture over the returned
episode policies is the standard online-to-batch output.

The learner path touches only trajectory observables, the learner-visible
knowledge object, and the candidate classes. Environment internals are used
solely to generate rollouts and for the realizability report at startup,
which does not influence any decision.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass

from .errors import CapacityError, ConfigError, RealizabilityError
from .estimation import LossEvaluator, StepDataset, confidence_levels
from .hypotheses import HypothesisClasses, RealizabilityReport, check_realizability
from .model import (
    LearnerKnowledge,
    Policy,
    StrategicModel,
    TransitionMode,
    _is_int,
    check_dims,
    make_rng,
    rollout,
)
from .planning import DEFAULT_SELECTOR_CAP, CandidateAggregates, SelectionMode, optimistic_select


@dataclass
class RunConfig:
    """Inputs of one learning run."""

    episodes: int
    delta: float
    mode: TransitionMode
    seed: int
    optimism: SelectionMode = SelectionMode.EXACT
    beta_scale: float = 1.0
    selector_cap: int = DEFAULT_SELECTOR_CAP
    strict_realizability: bool = False

    def validate(self) -> None:
        for name, kind in (("mode", TransitionMode), ("optimism", SelectionMode), ("delta", numbers.Real),
                           ("beta_scale", numbers.Real), ("strict_realizability", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not _is_int(self.episodes) or self.episodes < 1:
            raise ConfigError(f"episodes must be an integer of at least 1, got {self.episodes!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not math.isfinite(self.beta_scale) or self.beta_scale <= 0:
            raise ConfigError(f"beta_scale must be finite and positive, got {self.beta_scale}")
        if not _is_int(self.selector_cap):
            raise ConfigError(f"selector_cap must be an integer, got {self.selector_cap!r}")
        if self.selector_cap < 1:
            raise ConfigError(f"selector_cap must be at least 1, got {self.selector_cap}")


@dataclass
class EpisodeRecord:
    """Everything logged for one episode.

    The confidence sets and selection stored here are the ones computed after
    this episode's data was appended, i.e. the state that produces the next
    policy. Regret fields are filled later by the diagnostics oracle.
    Transition fields hold candidate indices with one entry per transition
    family at every step: the kernels in general mode, one mean map per state
    coordinate in dynamical mode. Records whose confidence sets are equal
    share one copy of their set and chosen-index tuples. truth_covered says
    whether every designated true candidate survives in these sets (None when
    some truth is undesignated); it is not serialized.
    """

    episode: int
    reward_sets: tuple[tuple[int, ...], ...]
    transition_sets: tuple[tuple[tuple[int, ...], ...], ...]
    betas: tuple[float, float, float]
    optimistic_value: float
    relaxed: bool
    chosen_reward_idx: tuple[int, ...] | None
    chosen_transition_idx: tuple[tuple[int, ...], ...] | None
    flags: tuple[str, ...]
    wallclock_ms: float
    truth_covered: bool | None
    instant_regret: float | None = None
    cum_regret: float | None = None

    @property
    def reward_set_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.reward_sets)

    @property
    def transition_set_sizes(self) -> tuple[int, ...]:
        """Per step, the number of surviving transition models: the product of its family sizes."""
        return tuple(math.prod(map(len, per_family)) for per_family in self.transition_sets)


@dataclass
class RunResult:
    config: RunConfig
    policies: list[Policy]
    episodes: list[EpisodeRecord]
    realizability: RealizabilityReport
    flags: tuple[str, ...]
    dataset: StepDataset

    def canonical_json(self) -> str:
        """Deterministic serialization; wall-clock fields are left out.

        The text is that of one json.dumps of the whole payload with sorted
        keys, but it is encoded one record at a time and each distinct Policy
        object once, so no full copy of the payload is ever built.
        """
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        config = {
            "episodes": self.config.episodes,
            "delta": self.config.delta,
            "mode": self.config.mode.value,
            "seed": self.config.seed,
            "optimism": self.config.optimism.value,
            "beta_scale": self.config.beta_scale,
            "selector_cap": self.config.selector_cap,
        }
        # Top-level keys in the sorted order that sort_keys gives them.
        pieces = ['{"config":', encode(config), ',"episodes":[']
        for i, rec in enumerate(self.episodes):
            d = {
                "episode": rec.episode,
                "reward_sets": rec.reward_sets,
                "transition_sets": rec.transition_sets,
                "betas": rec.betas,
                "optimistic_value": rec.optimistic_value,
                "relaxed": rec.relaxed,
                "chosen_reward_idx": rec.chosen_reward_idx,
                "chosen_transition_idx": rec.chosen_transition_idx,
                "flags": rec.flags,
                "instant_regret": rec.instant_regret,
                "cum_regret": rec.cum_regret,
            }
            pieces += ("," if i else "", encode(d))
        pieces += ('],"flags":', encode(sorted(self.flags)), ',"policies":[')
        encoded: dict[int, str] = {}  # by id: every policy stays alive in self.policies
        for i, p in enumerate(self.policies):
            if id(p) not in encoded:
                encoded[id(p)] = encode(p.action_probs.tolist())
            pieces += ("," if i else "", encoded[id(p)])
        pieces.append("]}")
        return "".join(pieces)


def _truth_covered(classes: HypothesisClasses, reward_sets: tuple, families: tuple) -> bool | None:
    """Whether every designated true candidate survives in the sets.

    families[h] lists step h's surviving candidates per transition family.
    Step by step, the reward set is read first and then each family in
    order: the first undesignated truth gives None, the first eliminated
    one False.
    """
    for h, per_family in enumerate(families):
        truths = [f.truth for f in classes.families(h)]
        for idx, survivors in zip(truths, (reward_sets[h], *per_family)):
            if idx is None:
                return None
            if idx not in survivors:
                return False
    return True


def run_learner(
    env: StrategicModel,
    knowledge: LearnerKnowledge,
    classes: HypothesisClasses,
    cfg: RunConfig,
) -> RunResult:
    """Run the full online loop for cfg.episodes episodes.

    Per episode: roll out the committed policy, append its samples, rebuild
    the confidence sets from all data at the fixed-horizon confidence levels,
    and select the optimistic surviving model; its optimal policy is committed
    for the next episode. All committed policies are returned.
    """
    cfg.validate()
    if cfg.mode is not env.transition_mode:
        raise ConfigError(
            f"config mode {cfg.mode.value} does not match environment mode "
            f"{env.transition_mode.value}"
        )
    if classes.mode is not env.transition_mode:
        raise ConfigError("classes mode does not match environment mode")

    dims = (env.horizon, env.num_states, env.num_actions, env.num_feedbacks)
    check_dims(model=dims, knowledge=knowledge.dims, classes=classes.dims)
    run_flags: set[str] = set()
    report = check_realizability(env, classes, knowledge)
    if not report.passed:
        if cfg.strict_realizability:
            raise RealizabilityError(
                "realizability check failed: "
                + "; ".join(c.detail for c in report.clauses.values() if c.detail)
            )
        run_flags.add("realizability-not-verified")

    H = knowledge.horizon
    rng = make_rng(cfg.seed)
    dataset = StepDataset(
        horizon=H,
        num_states=knowledge.num_states,
        num_actions=knowledge.num_actions,
        num_feedbacks=knowledge.num_feedbacks,
        state_dim=env.state_dim,
    )
    from .estimation import build_confidence_sets  # read per call: wrappers patch the module
    evaluator = LossEvaluator(classes)
    aggregates = CandidateAggregates.from_classes(classes, knowledge)
    index = evaluator.kernel_index
    # Sets change in few episodes, so everything that depends on them alone
    # (the selection and the flags it raised, the record's set and index
    # tuples, the truth's coverage) is computed once per distinct key;
    # records and committed policies share those objects.
    memo: dict[tuple, tuple] = {}

    def select(reward_sets: tuple, transition_sets: tuple) -> tuple:
        args = (aggregates, reward_sets, transition_sets, initial_cell)
        flags: tuple[str, ...] = ()
        try:
            selection = optimistic_select(*args, mode=cfg.optimism, cap=cfg.selector_cap)
        except CapacityError:  # too many joint models: the pointwise relaxation answers
            flags = ("selector-capacity-fallback",)
            selection = optimistic_select(*args, mode=SelectionMode.POINTWISE, cap=cfg.selector_cap)
        families = tuple(ix.decode(ks) for ix, ks in zip(index, transition_sets))
        chosen_t = None
        if selection.transition_idx is not None:
            chosen_t = tuple(index[h].models[j] for h, j in enumerate(selection.transition_idx))
        covered = _truth_covered(classes, reward_sets, families)
        return selection, flags, reward_sets, families, chosen_t, covered

    sizes = classes.sizes()
    betas = confidence_levels(
        classes.bound, cfg.episodes, H, sizes, cfg.delta, cfg.beta_scale
    )
    beta_triple = (betas.reward, betas.transition_general, betas.transition_dynamical)

    policy = Policy.uniform(H, knowledge.num_states, knowledge.num_actions)
    policies: list[Policy] = []
    records: list[EpisodeRecord] = []
    initial_cell: int | None = None

    for k in range(1, cfg.episodes + 1):
        t0 = time.perf_counter()
        traj = rollout(env, policy, rng)
        policies.append(policy)
        dataset.append_trajectory(traj)
        if initial_cell is None:
            initial_cell = traj.steps[0].state

        sets = build_confidence_sets(evaluator, dataset, betas)
        key = (tuple(sets.reward_sets), tuple(sets.transition_sets))
        if key not in memo:
            memo[key] = select(*key)
        selection, select_flags, reward_sets, transition_sets, chosen_t, covered = memo[key]
        policy = selection.policy

        episode_flags = [*select_flags, *sets.fallback_flags]
        if selection.relaxed:
            episode_flags.append("relaxed-selection")
        records.append(
            EpisodeRecord(
                episode=k,
                reward_sets=reward_sets,
                transition_sets=transition_sets,
                betas=beta_triple,
                optimistic_value=selection.value,
                relaxed=selection.relaxed,
                chosen_reward_idx=selection.reward_idx,
                chosen_transition_idx=chosen_t,
                flags=tuple(episode_flags),
                wallclock_ms=(time.perf_counter() - t0) * 1000.0,
                truth_covered=covered,
            )
        )
        for f in episode_flags:
            if f.endswith("empty-set-fallback"):
                run_flags.add("empty-set-fallback")

    return RunResult(
        config=cfg,
        policies=policies,
        episodes=records,
        realizability=report,
        flags=tuple(sorted(run_flags)),
        dataset=dataset,
    )

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

import functools
import json
import math
import time
from dataclasses import dataclass, replace

from .errors import CapacityError, ConfigError, RealizabilityError
from .estimation import LossEvaluator, StepDataset, confidence_levels
from .hypotheses import HypothesisClasses, RealizabilityReport, check_realizability
from .model import (
    COUNT,
    POSITIVE,
    SEED,
    UNIT_INTERVAL,
    LearnerKnowledge,
    Policy,
    StrategicModel,
    TransitionMode,
    _shown,
    check_parts,
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
        for name, kind in (("mode", TransitionMode), ("optimism", SelectionMode), ("strict_realizability", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {_shown(getattr(self, name))}")
        for name, rule in (("episodes", COUNT), ("seed", SEED), ("delta", UNIT_INTERVAL),
                           ("beta_scale", POSITIVE), ("selector_cap", COUNT)):
            rule.check(getattr(self, name), name, ConfigError)


@dataclass(frozen=True)
class LogEntry:
    """What every episode with one confidence-set key and one set of fallback flags logs.

    The sets are the ones computed after an episode's data was appended, i.e.
    the state that produces the next policy. Transition fields hold candidate
    indices with one entry per transition family at every step: the kernels
    in general mode, one mean map per state coordinate in dynamical mode.
    truth_covered says whether every designated true candidate survives in
    these sets (None when some truth is undesignated); it is not serialized.
    """

    reward_sets: tuple[tuple[int, ...], ...]
    transition_sets: tuple[tuple[tuple[int, ...], ...], ...]
    optimistic_value: float
    relaxed: bool
    chosen_reward_idx: tuple[int, ...] | None
    chosen_transition_idx: tuple[tuple[int, ...], ...] | None
    flags: tuple[str, ...]
    truth_covered: bool | None

    @property
    def reward_set_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.reward_sets)

    @property
    def transition_set_sizes(self) -> tuple[int, ...]:
        """Per step, the number of surviving transition models: the product of its family sizes."""
        return tuple(math.prod(map(len, per_family)) for per_family in self.transition_sets)


@dataclass(frozen=True)
class EpisodeRecord(LogEntry):
    """One episode read back from a run's columns: its log entry and its own values."""

    betas: tuple[float, float, float]
    wallclock_ms: float
    instant_regret: float | None
    cum_regret: float | None


@dataclass
class RunResult:
    """One run's log as columns: its distinct entries and, per episode, the
    index of its entry, its wall time and (once regret_curve sets them) its
    regret. The first episode plays initial_policy; every later one plays
    committed[i], the policy entry i of the episode before commits."""

    config: RunConfig
    initial_policy: Policy
    committed: tuple[Policy, ...]
    entries: tuple[LogEntry, ...]
    entry_index: list[int]
    wallclock_ms: list[float]
    instant_regret: list[float | None]
    cum_regret: list[float | None]
    betas: tuple[float, float, float]
    realizability: RealizabilityReport
    flags: tuple[str, ...]
    dataset: StepDataset

    @property
    def policies(self) -> tuple[Policy, ...]:
        """The policy each episode played."""
        return (self.initial_policy, *(self.committed[i] for i in self.entry_index[:-1]))

    @property
    def episodes(self) -> tuple[EpisodeRecord, ...]:
        """A record per episode, built from the columns on every access."""
        columns = zip(self.entry_index, self.wallclock_ms, self.instant_regret, self.cum_regret)
        return tuple(
            EpisodeRecord(**vars(self.entries[i]), betas=self.betas, wallclock_ms=ms, instant_regret=r, cum_regret=c)
            for i, ms, r, c in columns
        )

    def canonical_json(self) -> str:
        """Deterministic serialization; wall-clock fields are left out.

        The text is that of one json.dumps of the whole payload with sorted
        keys, but each entry is encoded once, with holes that every episode
        of it fills, and so is each committed policy, so no full copy of the
        payload is ever built.
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
        # Per entry, its record's text split where each episode's own values go (no record holds a NUL).
        holes = dict.fromkeys(("cum_regret", "episode", "instant_regret"), "\0")
        parts = []
        for e in self.entries:
            record = {
                "reward_sets": e.reward_sets,
                "transition_sets": e.transition_sets,
                "betas": self.betas,
                "optimistic_value": e.optimistic_value,
                "relaxed": e.relaxed,
                "chosen_reward_idx": e.chosen_reward_idx,
                "chosen_transition_idx": e.chosen_transition_idx,
                "flags": e.flags,
                **holes,
            }
            parts.append(encode(record).split('"\\u0000"'))
        # Top-level keys in the sorted order that sort_keys gives them.
        pieces = ['{"config":', encode(config), ',"episodes":[']
        for k, (i, r, c) in enumerate(zip(self.entry_index, self.instant_regret, self.cum_regret), 1):
            head, after_cum, after_episode, tail = parts[i]
            pieces += ("," if k > 1 else "", head, encode(c), after_cum, str(k), after_episode, encode(r), tail)
        pieces += ('],"flags":', encode(sorted(self.flags)), ',"policies":[')
        pieces.append(encode(self.initial_policy.action_probs.tolist()))
        committed = ["," + encode(p.action_probs.tolist()) for p in self.committed]
        pieces += (committed[i] for i in self.entry_index[:-1])
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
    check_parts(
        env=(env, StrategicModel), knowledge=(knowledge, LearnerKnowledge), classes=(classes, HypothesisClasses),
        cfg=(cfg, RunConfig),
    )
    cfg.validate()
    if cfg.mode is not env.transition_mode:
        raise ConfigError(
            f"config mode {cfg.mode.value} does not match environment mode "
            f"{env.transition_mode.value}"
        )
    if classes.mode is not env.transition_mode:
        raise ConfigError("classes mode does not match environment mode")

    run_flags: set[str] = set()
    report = check_realizability(env, classes, knowledge)  # refuses parts whose (H, S, A, E) differ
    if not report.passed:
        if cfg.strict_realizability:
            raise RealizabilityError(
                "realizability check failed: "
                + "; ".join(c.detail for c in report.clauses.values() if c.detail)
            )
        run_flags.add("realizability-not-verified")

    rng = make_rng(cfg.seed)
    dataset = StepDataset(*knowledge.dims, state_dim=env.state_dim)
    from .estimation import build_confidence_sets  # read per call: wrappers patch the module
    evaluator = LossEvaluator(classes)
    aggregates = CandidateAggregates.from_classes(classes, knowledge)
    index = evaluator.kernel_index

    # Sets change in few episodes, so what depends on them alone (the selection,
    # its flags, the decoded tuples, the truth's coverage) is computed once per
    # set key. The log keeps an entry per (set key, fallback flags): an empty-set
    # fallback can give the sets that thresholding gives, with other flags.
    @functools.cache
    def select(reward_sets: tuple, transition_sets: tuple) -> tuple[LogEntry, Policy]:
        """The entry of a set key, before its fallback flags, and the policy it commits."""
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
        return LogEntry(
            reward_sets, families, selection.value, selection.relaxed, selection.reward_idx, chosen_t, flags, covered
        ), selection.policy

    betas = confidence_levels(classes.bound, cfg.episodes, classes.horizon, classes.sizes(), cfg.delta, cfg.beta_scale)

    policy = initial = Policy.uniform(knowledge.horizon, knowledge.num_states, knowledge.num_actions)
    entry_at: dict[tuple, int] = {}
    entries: list[LogEntry] = []
    committed: list[Policy] = []
    entry_index: list[int] = []
    wallclock_ms: list[float] = []
    initial_cell: int | None = None

    for _ in range(cfg.episodes):
        t0 = time.perf_counter()
        traj = rollout(env, policy, rng)
        dataset.append_trajectory(traj)
        if initial_cell is None:
            initial_cell = traj.steps[0].state

        sets = build_confidence_sets(evaluator, dataset, betas)
        key = (tuple(sets.reward_sets), tuple(sets.transition_sets), sets.fallback_flags)
        if key not in entry_at:
            entry, commits = select(*key[:2])
            relaxed = ("relaxed-selection",) if entry.relaxed else ()
            entries.append(replace(entry, flags=entry.flags + sets.fallback_flags + relaxed))
            committed.append(commits)
            entry_at[key] = len(entries) - 1
            if sets.fallback_flags:
                run_flags.add("empty-set-fallback")
        entry_index.append(entry_at[key])
        policy = committed[entry_index[-1]]
        wallclock_ms.append((time.perf_counter() - t0) * 1000.0)

    return RunResult(
        config=cfg,
        initial_policy=initial,
        committed=tuple(committed),
        entries=tuple(entries),
        entry_index=entry_index,
        wallclock_ms=wallclock_ms,
        instant_regret=[None] * cfg.episodes,
        cum_regret=[None] * cfg.episodes,
        betas=(betas.reward, betas.transition_general, betas.transition_dynamical),
        realizability=report,
        flags=tuple(sorted(run_flags)),
        dataset=dataset,
    )

"""Minimax instrumented losses and confidence sets over finite candidate classes.

Each candidate is scored by the best discriminator: for rewards,

    loss(R) = max_f  sum_tau f(s, a) * (R(s, a, e) - r)  -  0.5 * sum_tau f(s, a)^2,

a self-normalized objective whose maximum stays near zero exactly when the
residual has zero conditional mean given (state, action) under the data
distribution. Projecting onto (state, action) discriminators is what removes
the confounding that plain regression on realized feedback picks up.
Every loss family of a step (HypothesisClasses.families) is scored the same
way: its candidates predict the conditional means of G observed quantities,
r for the reward family (G = 1), g(next state) for each next-step value
target g in general mode (predicted by P g(s, a, e)), and next_state_i in
dynamical mode, one family per coordinate (predicted by the mean map
G_i(s, a, e)); the loss is the max over the G quantities as well.

Because states, actions, and feedbacks are finite, every empirical sum is a
linear functional of per-(s, a, e) counts, so datasets store running count
tensors and losses are evaluated from them in closed form. A candidate stays
in the confidence set while its loss is at most the confidence level beta;
an empty set falls back to the loss minimizer and raises a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .hypotheses import ClassSizes, HypothesisClasses
from .model import (
    COUNT, NONNEGATIVE, POSITIVE, UNIT_INTERVAL, Trajectory, _check_index, _is_finite_real, _shown, as_table,
    check_parts, integrate_feedback,
)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class StepData:
    """Running sums for one step: everything the losses need, order-free.

    counts[s, a, e] is the number of samples, reward_sums their reward total.
    General mode tracks next_counts[s, a, s']; dynamical mode tracks
    next_sums[s, a, e, i], the per-coordinate totals of next-state vectors.
    """

    counts: np.ndarray
    reward_sums: np.ndarray
    next_counts: np.ndarray | None
    next_sums: np.ndarray | None


class StepDataset:
    """Per-step sample store for one run, appended one episode at a time.

    States are cells in both modes. state_dim 0 means general mode, whose
    next states are cells, counted; a dynamical next state is its observed
    state_dim-vector, summed per coordinate.
    """

    def __init__(
        self,
        horizon: int,
        num_states: int,
        num_actions: int,
        num_feedbacks: int,
        state_dim: int = 0,
    ) -> None:
        sizes = (horizon, num_states, num_actions, num_feedbacks)
        for name, n in zip(("horizon", "num_states", "num_actions", "num_feedbacks"), sizes):
            COUNT.check(n, name)
        NONNEGATIVE.check(state_dim, "state_dim")
        self.horizon = horizon
        self.num_states = num_states
        self.num_actions = num_actions
        self.num_feedbacks = num_feedbacks
        self.state_dim = d = state_dim
        try:  # each table is one array over the steps, so numpy refuses sizes it cannot hold at once
            counts, reward_sums = np.zeros((2, *sizes))
            nxt = np.zeros((*sizes, d) if d else (*sizes[:3], num_states))
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ValidationError(f"no dataset has sizes {_shown((*sizes, d))}: {exc}") from None
        nexts = [(None, n) if d else (n, None) for n in nxt]  # (next_counts, next_sums)
        self.steps = [StepData(c, r, *n) for c, r, n in zip(counts, reward_sums, nexts)]

    def _writes(self, h: int, s: int, a: int, e: int, r: float, s_next) -> tuple:
        """One sample's (table, index, value) additions, made only once every
        index and value has passed its check."""
        _check_index(h, self.horizon, "step")
        _check_index(s, self.num_states, "state")
        _check_index(a, self.num_actions, "action")
        _check_index(e, self.num_feedbacks, "feedback")
        if not _is_finite_real(r):
            raise ValidationError(f"reward must be finite, got {_shown(r)}")
        d = self.steps[h]
        if not self.state_dim:
            _check_index(s_next, self.num_states, "next state")
            nxt = (d.next_counts, (s, a, s_next), 1.0)
        else:
            nxt = (d.next_sums, (s, a, e), as_table(s_next, (self.state_dim,), "next state"))
        return (d.counts, (s, a, e), 1.0), (d.reward_sums, (s, a, e), r), nxt

    def append(self, h: int, s: int, a: int, e: int, r: float, s_next) -> None:
        """Record one sample; every index and value is checked before anything is written."""
        for table, idx, value in self._writes(h, s, a, e, r, s_next):
            table[idx] += value

    def append_trajectory(self, traj: Trajectory) -> None:
        """Record one episode using observable fields only; every step is
        checked before any is written, so a refused episode writes nothing."""
        check_parts(traj=(traj, Trajectory))
        if len(traj) != self.horizon:
            raise ValidationError("trajectory length does not match the horizon")
        writes = [
            self._writes(h, step.state, step.action, step.feedback, step.reward, step.next_state)
            for h, step in enumerate(traj.steps)
        ]
        for table, idx, value in (w for sample in writes for w in sample):
            table[idx] += value


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _half_squares(disc: np.ndarray) -> np.ndarray:
    """0.5 * f(s, a)^2 per discriminator, flattened to (nF, S * A); data-independent."""
    return 0.5 * disc.reshape(disc.shape[0], -1) ** 2


def _discriminator_score(
    targets: np.ndarray, disc: np.ndarray, sa_counts: np.ndarray, halves: np.ndarray | None
) -> np.ndarray:
    """Every discriminator's linear term minus half its empirical square.

    targets is (..., S, A): the per-(s, a) aggregated residual weights;
    halves is _half_squares(disc), or None to compute it here.
    Returns the (rows, nF) scores, rows the leading indices flattened.
    """
    flat_f = disc.reshape(disc.shape[0], -1)
    quad = (_half_squares(disc) if halves is None else halves) @ sa_counts.reshape(-1)
    scores = targets.reshape(-1, flat_f.shape[1]) @ flat_f.T
    scores -= quad  # in place: one (rows, nF) array per call, not two
    return scores


def family_losses(
    predicted: np.ndarray,
    observed: np.ndarray,
    counts: np.ndarray,
    disc: np.ndarray,
    halves: np.ndarray | None = None,
) -> np.ndarray:
    """Loss of every candidate in one family at one step.

    predicted is (n, G, S, A, E): each candidate's prediction of G observed
    quantities; observed is (G, S, A): their per-(s, a) data sums; counts is
    the step's (S, A, E) sample counts. The loss is the max over the G
    quantities and the discriminators.
    """
    targets = integrate_feedback(counts, predicted)
    targets -= observed
    scores = _discriminator_score(targets, disc, counts.sum(axis=-1), halves)
    return scores.reshape(len(predicted), -1).max(axis=1)  # one max over G * nF per candidate


class LossEvaluator:
    """Caches data-independent tensors so per-episode evaluation stays cheap.

    Holds references to the (immutable) classes; per step it keeps the kernel
    index, the discriminators' half squares, the loss families
    (HypothesisClasses.families: rewards first, then the step's transition
    families) and their predictions, computed here once. Evaluation from a
    dataset then reduces to small matrix products against the running count
    tensors, which matches a from-scratch per-sample computation to
    floating-point accuracy.
    """

    def __init__(self, classes: HypothesisClasses) -> None:
        check_parts(classes=(classes, HypothesisClasses))
        self.classes = classes
        self.kernel_index = [classes.kernel_index(h) for h in range(classes.horizon)]
        self._halves = [_half_squares(f) for f in classes.discriminators]
        self.families = [classes.families(h) for h in range(classes.horizon)]
        self.predictions = [[fam.apply(fam.tables) for fam in per] for per in self.families]

    def _losses(self, dataset: StepDataset, h: int, i: int) -> np.ndarray:
        d, observe = dataset.steps[h], self.families[h][i].observe
        disc, halves = self.classes.discriminators[h], self._halves[h]
        return family_losses(self.predictions[h][i], observe(d), d.counts, disc, halves)

    def reward_losses(self, dataset: StepDataset, h: int) -> np.ndarray:
        return self._losses(dataset, h, 0)

    def transition_losses(self, dataset: StepDataset, h: int) -> list[np.ndarray]:
        return [self._losses(dataset, h, i) for i in range(1, len(self.families[h]))]


# ---------------------------------------------------------------------------
# Confidence levels and sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaLevels:
    """Confidence levels for reward, general-transition, and mean-map losses."""

    reward: float
    transition_general: float
    transition_dynamical: float


def confidence_levels(
    bound: float,
    episodes: int,
    horizon: int,
    sizes: ClassSizes,
    delta: float,
    beta_scale: float = 1.0,
) -> BetaLevels:
    """Concentration thresholds 28 B^2 log(card / delta), scaled by beta_scale.

    card multiplies episodes, horizon, and the total class sizes involved in
    each loss: discriminators and rewards for the reward level; additionally
    value targets for general transitions; discriminators and transition
    candidates for the dynamical level. Natural log. beta_scale is a practical
    knob (1.0 reproduces the analysis constant; small fractions are the
    operating range at desk scale).
    """
    for name, value, rule in (
        ("episodes", episodes, COUNT), ("horizon", horizon, COUNT), ("delta", delta, UNIT_INTERVAL),
        ("beta_scale", beta_scale, POSITIVE), ("bound", bound, POSITIVE),
        *((f"class size {kind}", n, COUNT) for kind, n in vars(sizes).items()),
    ):
        rule.check(value, name, ConfigError)
    POSITIVE.check(episodes * horizon, "episodes times horizon", ConfigError)  # it becomes a float below
    bound, beta_scale = float(bound), float(beta_scale)  # a numpy float32 would overflow in its own width
    base = 28.0 * bound * bound * beta_scale
    kh = float(episodes) * float(horizon)
    b1 = base * math.log(kh * sizes.discriminators * sizes.rewards / delta)
    b2 = base * math.log(
        kh * sizes.discriminators * sizes.value_targets * sizes.transitions / delta
    )
    b3 = base * math.log(kh * sizes.discriminators * sizes.transitions / delta)
    return BetaLevels(reward=b1, transition_general=b2, transition_dynamical=b3)


@dataclass
class ConfidenceSets:
    """Surviving candidate indices per step.

    reward_sets[h] holds ascending reward candidate indices and
    transition_sets[h] ascending kernel indices (HypothesisClasses.kernel_index):
    every model whose candidates all survive in their own family.
    fallback_flags records empty-set fallbacks, which keep only the family's
    loss minimizer.
    """

    reward_sets: list[tuple[int, ...]]
    transition_sets: list[tuple[int, ...]]
    fallback_flags: tuple[str, ...] = ()


def _threshold(losses: np.ndarray, beta: float, label: str, flags: list[str]) -> tuple[int, ...]:
    keep = np.flatnonzero(losses <= beta)
    if keep.size == 0:
        flags.append(f"{label}-empty-set-fallback")
        keep = np.array([int(np.argmin(losses))])
    return tuple(int(i) for i in keep)


def build_confidence_sets(
    evaluator: LossEvaluator, dataset: StepDataset, betas: BetaLevels
) -> ConfidenceSets:
    """Threshold every family's losses at its own level.

    The reward family gives the step's reward set; each transition family is
    thresholded on its own, and the step's transition set holds the kernel
    indices of every combination of survivors.
    """
    check_parts(evaluator=(evaluator, LossEvaluator), dataset=(dataset, StepDataset))
    flags: list[str] = []
    reward_sets = []
    transition_sets = []
    for h, families in enumerate(evaluator.families):
        losses = [evaluator.reward_losses(dataset, h), *evaluator.transition_losses(dataset, h)]
        survivors = [
            _threshold(loss, getattr(betas, family.level), family.label, flags)
            for family, loss in zip(families, losses)
        ]
        reward_sets.append(survivors[0])
        transition_sets.append(evaluator.kernel_index[h].encode(survivors[1:]))
    return ConfidenceSets(
        reward_sets=reward_sets, transition_sets=transition_sets, fallback_flags=tuple(flags)
    )

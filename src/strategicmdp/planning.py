"""Learner planning: aggregated MDPs, exact planning, optimistic selection.

Candidate rewards and transitions are indexed by feedback. Averaging the
feedback out under the learner's target feedback law yields an ordinary
tabular MDP, which backward induction solves exactly. Optimistic selection
searches a product of per-step candidate sets for the model with the largest
optimal value, either by exact joint enumeration or by a per-(state, action)
pointwise relaxation whose value dominates the exact one.

Both transition modes plan over one next-state kernel per transition model:
its per-feedback kernel with feedback integrated out under the target
feedback law. In general mode the per-feedback kernels are the candidate
tables. In dynamical mode the aggregated object is a mean map on grid cells,
with candidates cut per coordinate; a model takes one candidate per
coordinate, and its kernel at feedback e is the Gaussian at its mean vector
for e, discretized to cell masses by CDF differences, with out-of-box mass
folded into boundary cells. Where types shift nothing, the truth candidate's
kernel is the environment's law. Nothing here reads the environment; its true
law is an oracle in diagnostics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ConfigError, InvalidIndexError, ValidationError
from .model import (
    COUNT,
    Grid,
    LearnerKnowledge,
    Policy,
    TransitionMode,
    _check_index,
    _is_int,
    _shown,
    as_table,
    check_dims,
    check_parts,
    integrate_feedback,
)

if TYPE_CHECKING:
    from .hypotheses import HypothesisClasses

# The most joint models optimistic_select scores exactly before it falls back.
DEFAULT_SELECTOR_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Aggregated MDP and exact planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregatedMDP:
    """Tabular MDP obtained by averaging feedback out of a candidate model or the truth (target_mdp)."""

    rewards: np.ndarray  # (H, S, A)
    transitions: np.ndarray  # (H, S, A, S)
    initial_state: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rewards", as_table(self.rewards, ("H", "S", "A"), "aggregated reward table"))
        H, S, A = self.rewards.shape
        transitions = as_table(self.transitions, (H, S, A, S), "aggregated transition table", rows=True)
        object.__setattr__(self, "transitions", transitions)  # frozen: store the checked tables
        _check_index(self.initial_state, S, "initial state")


@dataclass
class PlanResult:
    """Backward-induction output: values and a greedy policy."""

    values: np.ndarray  # (H + 1, S)
    policy: Policy
    value_at_initial: float


def value_iteration(mdp: AggregatedMDP) -> PlanResult:
    """Exact finite-horizon backward induction; greedy ties pick the lowest action."""
    check_parts(mdp=(mdp, AggregatedMDP))
    H, S, A = mdp.rewards.shape
    values = np.zeros((H + 1, S))
    actions = np.zeros((H, S), dtype=int)
    for h in range(H - 1, -1, -1):
        q = mdp.rewards[h] + mdp.transitions[h] @ values[h + 1]
        values[h] = q.max(axis=1)
        actions[h] = q.argmax(axis=1)
    policy = Policy.deterministic(actions, A)
    return PlanResult(values, policy, float(values[0, mdp.initial_state]))


def evaluate_policy(mdp: AggregatedMDP, policy: Policy) -> np.ndarray:
    """Exact per-state values (H + 1, S) of a stochastic Markov policy."""
    check_parts(mdp=(mdp, AggregatedMDP), policy=(policy, Policy))
    H, S, A = mdp.rewards.shape
    as_table(policy.action_probs, (H, S, A), "policy", finite=False)
    values = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        q = mdp.rewards[h] + mdp.transitions[h] @ values[h + 1]
        values[h] = np.sum(policy.action_probs[h] * q, axis=1)
    return values


def policy_value(mdp: AggregatedMDP, policy: Policy) -> float:
    return float(evaluate_policy(mdp, policy)[0, mdp.initial_state])


def discretize_gaussian(means: np.ndarray, grid: Grid, scale: float) -> np.ndarray:
    """Cell-mass kernel (..., C) for Gaussians centered at means (..., d).

    Tail mass joins the boundary cells. Zero scale gives a point mass in the
    cell containing the mean. Coordinates are independent, so on a 2-D grid
    the mass is the outer product of the per-axis masses, flattened in the
    grid's cell order.
    """
    if grid.dim > 2:
        raise ConfigError("grid planning supports at most two state dimensions")
    per_axis = [grid.gaussian_mass_1d(means[..., k], scale, k) for k in range(grid.dim)]
    if grid.dim == 1:
        return per_axis[0]
    joint = per_axis[0][..., :, None] * per_axis[1][..., None, :]
    return joint.reshape(joint.shape[:-2] + (grid.num_cells,))


# ---------------------------------------------------------------------------
# Optimistic model selection
# ---------------------------------------------------------------------------


class SelectionMode(Enum):
    """Search strategy over the product of per-step candidate sets.

    EXACT enumerates joint models, one candidate pair per step shared across
    all states. POINTWISE relaxes to independent per-(state, action) choices;
    its value is an upper bound on the exact optimum.
    """

    EXACT = "exact"
    POINTWISE = "pointwise"


@dataclass
class CandidateAggregates:
    """Per-step candidate tables with feedback averaged out under the target.

    rewards[h] is (nR_h, S, A) and transitions[h] is (nP_h, S, A, S), one
    next-state kernel per transition model, in both modes, listed in the
    order of HypothesisClasses.kernel_index. A model's per-feedback kernels
    (S, A, E, S) are its candidate table in general mode; in dynamical mode,
    where candidates are cut per coordinate of the mean map, they are the cell
    masses of the Gaussians at the model's per-feedback mean vectors.
    """

    rewards: list[np.ndarray]
    transitions: list[np.ndarray]

    @classmethod
    def from_classes(
        cls, classes: "HypothesisClasses", knowledge: LearnerKnowledge
    ) -> "CandidateAggregates":
        from .hypotheses import HypothesisClasses  # here, not at the top: hypotheses imports this module
        check_parts(classes=(classes, HypothesisClasses), knowledge=(knowledge, LearnerKnowledge))
        check_dims(classes=classes.dims, knowledge=knowledge.dims)
        w = knowledge.feedback_law  # (H, S, A, E)
        H = knowledge.horizon
        rewards = [integrate_feedback(w[h], classes.reward_tables[h]) for h in range(H)]
        if classes.mode is TransitionMode.GENERAL:
            kernels = classes.transition_tables
        elif knowledge.grid is None:
            raise ConfigError("dynamical selection requires a grid on the knowledge object")
        else:
            # Each model's per-feedback mean vectors (n_h, S, A, E, d); every
            # step's Gaussians are discretized in one call.
            means = []
            for h in range(H):
                picks = np.array(classes.kernel_index(h).models).T
                means.append(np.stack([m[c] for m, c in zip(classes.mean_map_tables[h], picks)], axis=-1))
            masses = discretize_gaussian(np.concatenate(means), knowledge.grid, knowledge.trans_noise_scale)
            kernels = np.split(masses, np.cumsum([len(m) for m in means])[:-1])
        transitions = [np.einsum("sae,psaex->psax", w[h], kernels[h]) for h in range(H)]
        return cls(rewards, transitions)


@dataclass
class SelectionResult:
    """Chosen model and its optimal policy.

    For exact selection reward_idx gives one reward candidate index and
    transition_idx one kernel index per step. For the pointwise relaxation,
    which picks per (state, action), they are None and relaxed is set.
    """

    value: float
    policy: Policy
    reward_idx: tuple[int, ...] | None
    transition_idx: tuple[int, ...] | None
    relaxed: bool


def joint_backup(rewards: np.ndarray, kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One backward-induction step for every (reward, kernel, suffix value) triple.

    rewards is (nR, S, A), kernels is (nP, S, A, S) and values is (nV, S).
    Returns the (nR * nP * nV, S) action-maxed values of R + P V, with rows in
    lexicographic (r, p, v) order. Shared by the exact selector and the value
    closure.
    """
    expected = np.einsum("psax,vx->pvsa", kernels, values)
    q = rewards[:, None, None, :, :] + expected[None]
    # The action maximum one action slice at a time: a reduction over the
    # short last axis costs a loop per entry. np.maximum keeps the bits of
    # max(axis=-1) on ties and signed zeros, but where action 0 is NaN the
    # reduction returns the default NaN and np.maximum keeps action 0's bits.
    best = q[..., 0].copy()
    for a in range(1, q.shape[-1]):
        np.maximum(best, q[..., a], out=best)
    if q.shape[-1] > 1:
        np.copyto(best, np.nan, where=np.isnan(q[..., 0]))
    return best.reshape(-1, rewards.shape[1])


def optimistic_select(
    aggregates: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    transition_sets: Sequence[Sequence[int]],
    initial_state: int,
    mode: SelectionMode = SelectionMode.EXACT,
    cap: int = DEFAULT_SELECTOR_CAP,
) -> SelectionResult:
    """Pick the candidate model with the largest optimal value.

    reward_sets[h] lists surviving reward candidate indices at step h and
    transition_sets[h] surviving kernel indices (see
    HypothesisClasses.kernel_index). Both must be sequences of one set per
    step; empty sets and sets that are not flat sequences of integers are
    caller errors, and an index outside its class raises InvalidIndexError. cap must be a count, in either mode.
    Exact enumeration orders joint models lexicographically by the flattened
    per-step index tuple and keeps the first maximizer; if the joint count
    exceeds cap a CapacityError is raised so the caller can fall back to the
    pointwise relaxation.
    """
    check_parts(aggregates=(aggregates, CandidateAggregates))
    if not isinstance(mode, SelectionMode):
        raise ValidationError(f"mode must be a SelectionMode, got {_shown(mode)}")
    COUNT.check(cap, "selector cap")
    H = len(aggregates.rewards)
    counts = [len(sets) if _is_sequence(sets) else _shown(sets) for sets in (reward_sets, transition_sets)]
    if counts != [H, H]:
        raise ValidationError(
            f"need a sequence of one reward and one transition set per step for {H} steps, "
            f"got {counts[0]} and {counts[1]}"
        )
    _check_index(initial_state, aggregates.rewards[0].shape[1], "initial state")
    for h in range(H):
        _check_set(reward_sets[h], aggregates.rewards[h].shape[0], "reward candidate", h)
        _check_set(transition_sets[h], aggregates.transitions[h].shape[0], "transition kernel", h)
    if mode is SelectionMode.EXACT:
        return _select_exact(aggregates, reward_sets, transition_sets, initial_state, cap)
    return _select_pointwise(aggregates, reward_sets, transition_sets, initial_state)


def _is_sequence(value: object) -> bool:
    """A list, tuple or other sequence, or a numpy array with at least one axis."""
    return isinstance(value, Sequence) or (isinstance(value, np.ndarray) and value.ndim > 0)


def _check_set(indices, size: int, what: str, h: int) -> None:
    if not _is_sequence(indices) or not all(_is_int(i) for i in indices):
        raise ValidationError(
            f"{what} set at step {h} must be a flat sequence of integer indices, got {_shown(indices)}"
        )
    if len(indices) == 0:
        raise ValidationError(f"empty {what} set at step {h}")
    if min(indices) < 0 or max(indices) >= size:
        bad = [int(i) for i in indices if not 0 <= i < size]
        raise InvalidIndexError(f"{what} indices {_shown(bad)} outside [0, {size}) at step {h}")


def _select_exact(
    agg: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    kernel_sets: Sequence[Sequence[int]],
    initial_state: int,
    cap: int,
) -> SelectionResult:
    H = len(agg.rewards)
    S = agg.rewards[0].shape[1]
    values = np.zeros((1, S))
    for h in range(H - 1, -1, -1):
        total = len(reward_sets[h]) * len(kernel_sets[h]) * values.shape[0]
        if total > cap:
            raise CapacityError(f"joint enumeration needs {total} models at step {h}, cap is {cap}")
        R = agg.rewards[h][np.asarray(reward_sets[h], dtype=int)]
        P = agg.transitions[h][np.asarray(kernel_sets[h], dtype=int)]
        values = joint_backup(R, P, values)
    flat = int(np.argmax(values[:, initial_state]))
    value = float(values[flat, initial_state])
    # Rows are the product of (reward, kernel) positions over steps 0..H-1.
    sizes = [n for h in range(H) for n in (len(reward_sets[h]), len(kernel_sets[h]))]
    pos = np.unravel_index(flat, sizes)
    reward_idx = tuple(int(reward_sets[h][pos[2 * h]]) for h in range(H))
    kernel_idx = tuple(int(kernel_sets[h][pos[2 * h + 1]]) for h in range(H))
    rewards = np.stack([agg.rewards[h][reward_idx[h]] for h in range(H)])
    transitions = np.stack([agg.transitions[h][kernel_idx[h]] for h in range(H)])
    plan = value_iteration(AggregatedMDP(rewards, transitions, initial_state))
    return SelectionResult(
        value=value,
        policy=plan.policy,
        reward_idx=reward_idx,
        transition_idx=kernel_idx,
        relaxed=False,
    )


def _select_pointwise(
    agg: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    kernel_sets: Sequence[Sequence[int]],
    initial_state: int,
) -> SelectionResult:
    H = len(agg.rewards)
    S, A = agg.rewards[0].shape[1], agg.rewards[0].shape[2]
    values = np.zeros(S)
    actions = np.zeros((H, S), dtype=int)
    for h in range(H - 1, -1, -1):
        R = agg.rewards[h][np.asarray(reward_sets[h], dtype=int)]
        P = agg.transitions[h][np.asarray(kernel_sets[h], dtype=int)]
        expected = np.einsum("psax,x->psa", P, values)
        q = R.max(axis=0) + expected.max(axis=0)
        values = q.max(axis=1)
        actions[h] = q.argmax(axis=1)
    policy = Policy.deterministic(actions, A)
    return SelectionResult(
        value=float(values[initial_state]),
        policy=policy,
        reward_idx=None,
        transition_idx=None,
        relaxed=True,
    )

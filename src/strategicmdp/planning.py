"""Population-aggregated MDPs: construction, exact planning, optimistic selection.

Candidate rewards and transitions are indexed by feedback. Averaging the
feedback out under a chosen type distribution yields an ordinary tabular MDP,
which backward induction solves exactly. Optimistic selection searches a
product of per-step candidate sets for the model with the largest optimal
value, either by exact joint enumeration or by a per-(state, action) pointwise
relaxation whose value dominates the exact one.

In dynamical mode the aggregated object is a mean map on grid cells; its
Gaussian kernel is discretized to cell masses by coordinate-wise CDF
differences, with out-of-box mass folded into boundary cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, ValidationError
from .model import (
    Grid,
    LearnerKnowledge,
    Policy,
    StrategicModel,
    TransitionMode,
    _check_simplex,
    feedback_by_type,
)

if TYPE_CHECKING:
    from .hypotheses import HypothesisClasses


# ---------------------------------------------------------------------------
# Aggregated MDP and exact planning
# ---------------------------------------------------------------------------


@dataclass
class AggregatedMDP:
    """Tabular MDP obtained by averaging feedback out of a candidate model."""

    rewards: np.ndarray  # (H, S, A)
    transitions: np.ndarray  # (H, S, A, S)
    initial_state: int

    def __post_init__(self) -> None:
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.transitions = np.asarray(self.transitions, dtype=float)
        H, S, A = self.rewards.shape
        if self.transitions.shape != (H, S, A, S):
            raise ValidationError(
                f"transitions shape {self.transitions.shape} does not match rewards {self.rewards.shape}"
            )
        _check_simplex(self.transitions, "aggregated transitions")
        if not (0 <= self.initial_state < S):
            raise ValidationError(f"initial_state {self.initial_state} out of range")

    @property
    def horizon(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_states(self) -> int:
        return self.rewards.shape[1]

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[2]


@dataclass
class PlanResult:
    """Backward-induction output: values, action values, and a greedy policy."""

    values: np.ndarray  # (H + 1, S)
    q_values: np.ndarray  # (H, S, A)
    policy: Policy
    value_at_initial: float


def value_iteration(mdp: AggregatedMDP) -> PlanResult:
    """Exact finite-horizon backward induction; greedy ties pick the lowest action."""
    H, S, A = mdp.rewards.shape
    values = np.zeros((H + 1, S))
    q_values = np.zeros((H, S, A))
    actions = np.zeros((H, S), dtype=int)
    for h in range(H - 1, -1, -1):
        q = mdp.rewards[h] + mdp.transitions[h] @ values[h + 1]
        q_values[h] = q
        values[h] = q.max(axis=1)
        actions[h] = q.argmax(axis=1)
    policy = Policy.deterministic(actions, A)
    return PlanResult(values, q_values, policy, float(values[0, mdp.initial_state]))


def evaluate_policy(mdp: AggregatedMDP, policy: Policy) -> np.ndarray:
    """Exact per-state values (H + 1, S) of a stochastic Markov policy."""
    H, S, A = mdp.rewards.shape
    if policy.action_probs.shape != (H, S, A):
        raise ValidationError("policy shape does not match the MDP")
    values = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        q = mdp.rewards[h] + mdp.transitions[h] @ values[h + 1]
        values[h] = np.sum(policy.action_probs[h] * q, axis=1)
    return values


def policy_value(mdp: AggregatedMDP, policy: Policy) -> float:
    return float(evaluate_policy(mdp, policy)[0, mdp.initial_state])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def feedback_weights(
    knowledge: LearnerKnowledge, type_dist: np.ndarray | None = None
) -> np.ndarray:
    """Per-(h, s, a) feedback distribution under a type distribution (default target)."""
    return knowledge.feedback_mix(type_dist)


def aggregate(
    reward_table: np.ndarray,
    transition_table: np.ndarray,
    knowledge: LearnerKnowledge,
    initial_state: int,
    type_dist: np.ndarray | None = None,
) -> AggregatedMDP:
    """Average feedback out of full-horizon candidate tables (general mode).

    reward_table is (H, S, A, E) and transition_table is (H, S, A, E, S).
    """
    w = feedback_weights(knowledge, type_dist)
    rewards = np.einsum("hsae,hsae->hsa", w, reward_table)
    transitions = np.einsum("hsae,hsaex->hsax", w, transition_table)
    return AggregatedMDP(rewards, transitions, initial_state)


def aggregate_mean_map(
    reward_table: np.ndarray,
    mean_map: np.ndarray,
    knowledge: LearnerKnowledge,
    initial_state: int,
    type_dist: np.ndarray | None = None,
    noise_scale: float | None = None,
) -> AggregatedMDP:
    """Average feedback out of dynamical-mode tables and discretize the kernel.

    mean_map is (H, S, A, E, d) on grid cells; the aggregated next-state mean
    gets a Gaussian kernel with the given scale, discretized to cell masses.
    """
    if knowledge.grid is None:
        raise ConfigError("dynamical aggregation requires a grid on the knowledge object")
    w = feedback_weights(knowledge, type_dist)
    rewards = np.einsum("hsae,hsae->hsa", w, reward_table)
    means = np.einsum("hsae,hsaed->hsad", w, mean_map)
    scale = knowledge.trans_noise_scale if noise_scale is None else noise_scale
    transitions = discretize_gaussian(means, knowledge.grid, scale)
    return AggregatedMDP(rewards, transitions, initial_state)


def discretize_gaussian(means: np.ndarray, grid: Grid, scale: float) -> np.ndarray:
    """Cell-mass kernel (..., C) for Gaussians centered at means (..., d).

    Coordinates are independent, so the joint mass is the product of per-axis
    CDF differences; tail mass joins the boundary cells. Zero scale gives a
    point mass in the cell containing the mean.
    """
    if grid.dim > 2:
        raise ConfigError("grid planning supports at most two state dimensions")
    per_dim = [grid.gaussian_mass_1d(means[..., k], scale, k) for k in range(grid.dim)]
    if grid.dim == 1:
        return per_dim[0]
    joint = per_dim[0][..., :, None] * per_dim[1][..., None, :]
    return joint.reshape(means.shape[:-1] + (grid.num_cells,))


def true_aggregated_model(
    model: StrategicModel, type_dist: np.ndarray | None = None
) -> AggregatedMDP:
    """Aggregated MDP of the true environment under a type distribution.

    Defaults to the target distribution. Requires access to the full model, so
    this is an evaluation oracle, not something the learner can call.
    """
    dist = model.target_type_dist if type_dist is None else np.asarray(type_dist, dtype=float)
    fb = feedback_by_type(model)  # (H, S, A, T, E)
    w = np.einsum("ht,hsate->hsae", dist, fb)
    rewards = np.einsum("hsae,hsae->hsa", w, model.principal_reward)
    if model.transition_mode is TransitionMode.GENERAL:
        assert model.transition_kernel is not None
        transitions = np.einsum("hsae,hsaex->hsax", w, model.transition_kernel)
    else:
        assert model.mean_map is not None and model.grid is not None
        means = np.einsum("hsae,hsaed->hsad", w, model.mean_map)
        transitions = discretize_gaussian(means, model.grid, model.trans_noise_scale)
    return AggregatedMDP(rewards, transitions, model.initial_state)


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

    General mode: rewards[h] is (nR_h, S, A) and transitions[h] is
    (nP_h, S, A, S). Dynamical mode: transitions[h] is replaced by per-
    coordinate cell-mass tables mean_masses[h][i] of shape (n_i, S, A, C_i)
    together with aggregated means.
    """

    mode: TransitionMode
    rewards: list[np.ndarray]
    transitions: list[np.ndarray] | None = None
    mean_masses: list[list[np.ndarray]] | None = None
    grid: Grid | None = None

    @classmethod
    def from_classes(
        cls, classes: "HypothesisClasses", knowledge: LearnerKnowledge
    ) -> "CandidateAggregates":
        w = feedback_weights(knowledge)  # (H, S, A, E)
        H = knowledge.horizon
        rewards = [
            np.einsum("sae,rsae->rsa", w[h], classes.reward_tables[h]) for h in range(H)
        ]
        if classes.mode is TransitionMode.GENERAL:
            transitions = [
                np.einsum("sae,psaex->psax", w[h], classes.transition_tables[h])
                for h in range(H)
            ]
            return cls(classes.mode, rewards, transitions=transitions)
        if knowledge.grid is None:
            raise ConfigError("dynamical selection requires a grid on the knowledge object")
        grid = knowledge.grid
        if grid.dim > 2:
            raise ConfigError("grid planning supports at most two state dimensions")
        # One cell-mass evaluation per coordinate, over all steps' candidates.
        per_coord = []
        for i in range(grid.dim):
            tables = [classes.mean_map_tables[h][i] for h in range(H)]  # (n_h, S, A, E)
            means = np.concatenate(
                [np.einsum("sae,nsae->nsa", w[h], tables[h]) for h in range(H)]
            )
            masses = grid.gaussian_mass_1d(means, knowledge.trans_noise_scale, i)
            bounds = np.cumsum([len(t) for t in tables])[:-1]
            per_coord.append(np.split(masses, bounds))
        mean_masses = [list(step) for step in zip(*per_coord)]
        return cls(classes.mode, rewards, mean_masses=mean_masses, grid=grid)


@dataclass
class SelectionResult:
    """Chosen model and its optimal policy.

    For exact selection reward_idx and transition_idx give one candidate index
    per step (dynamical: a tuple per step, one index per coordinate). For the
    pointwise relaxation they are None and the per-(state, action) argmax
    tables are reported instead, with relaxed set.
    """

    value: float
    policy: Policy
    reward_idx: tuple[int, ...] | None
    transition_idx: tuple | None
    relaxed: bool
    chosen_mdp: AggregatedMDP | None = None
    pointwise_reward_idx: np.ndarray | None = None
    pointwise_transition_idx: np.ndarray | None = None


def optimistic_select(
    aggregates: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    transition_sets: Sequence,
    initial_state: int,
    mode: SelectionMode = SelectionMode.EXACT,
    cap: int = 1_000_000,
) -> SelectionResult:
    """Pick the candidate model with the largest optimal value.

    reward_sets[h] lists surviving reward candidate indices at step h;
    transition_sets[h] lists transition candidates (general) or is a sequence
    of per-coordinate index lists (dynamical). Empty sets are a caller error.
    Exact enumeration orders joint models lexicographically by the flattened
    per-step index tuple and keeps the first maximizer; if the joint count
    exceeds cap a CapacityError is raised so the caller can fall back to the
    pointwise relaxation.
    """
    for h, rs in enumerate(reward_sets):
        if len(rs) == 0:
            raise ValidationError(f"empty reward candidate set at step {h}")
    if mode is SelectionMode.EXACT:
        if aggregates.mode is TransitionMode.GENERAL:
            return _select_exact_general(
                aggregates, reward_sets, transition_sets, initial_state, cap
            )
        return _select_exact_dynamical(
            aggregates, reward_sets, transition_sets, initial_state, cap
        )
    if aggregates.mode is TransitionMode.GENERAL:
        return _select_pointwise_general(
            aggregates, reward_sets, transition_sets, initial_state
        )
    return _select_pointwise_dynamical(
        aggregates, reward_sets, transition_sets, initial_state
    )


def _select_exact_general(
    agg: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    transition_sets: Sequence[Sequence[int]],
    initial_state: int,
    cap: int,
) -> SelectionResult:
    assert agg.transitions is not None
    H = len(agg.rewards)
    S = agg.rewards[0].shape[1]
    values = np.zeros((1, S))
    step_sizes: list[tuple[int, int]] = [(0, 0)] * H
    suffix_counts = [1] * (H + 1)
    for h in range(H - 1, -1, -1):
        if len(transition_sets[h]) == 0:
            raise ValidationError(f"empty transition candidate set at step {h}")
        R = agg.rewards[h][np.asarray(reward_sets[h], dtype=int)]
        P = agg.transitions[h][np.asarray(transition_sets[h], dtype=int)]
        nr, npp, nv = R.shape[0], P.shape[0], values.shape[0]
        if nr * npp * nv > cap:
            raise CapacityError(
                f"joint enumeration needs {nr * npp * nv} models at step {h}, cap is {cap}"
            )
        expected = np.einsum("psax,vx->pvsa", P, values)
        q = R[:, None, None, :, :] + expected[None]
        values = q.max(axis=-1).reshape(nr * npp * nv, S)
        step_sizes[h] = (nr, npp)
        suffix_counts[h] = nr * npp * suffix_counts[h + 1]
    flat = int(np.argmax(values[:, initial_state]))
    value = float(values[flat, initial_state])
    reward_idx: list[int] = []
    transition_idx: list[int] = []
    rem = flat
    for h in range(H):
        nr, npp = step_sizes[h]
        tail = suffix_counts[h + 1]
        r_pos = rem // (npp * tail)
        rem -= r_pos * npp * tail
        p_pos = rem // tail
        rem -= p_pos * tail
        reward_idx.append(int(reward_sets[h][r_pos]))
        transition_idx.append(int(transition_sets[h][p_pos]))
    rewards = np.stack([agg.rewards[h][reward_idx[h]] for h in range(H)])
    transitions = np.stack([agg.transitions[h][transition_idx[h]] for h in range(H)])
    mdp = AggregatedMDP(rewards, transitions, initial_state)
    plan = value_iteration(mdp)
    return SelectionResult(
        value=value,
        policy=plan.policy,
        reward_idx=tuple(reward_idx),
        transition_idx=tuple(transition_idx),
        relaxed=False,
        chosen_mdp=mdp,
    )


def _select_exact_dynamical(
    agg: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    transition_sets: Sequence[Sequence[Sequence[int]]],
    initial_state: int,
    cap: int,
) -> SelectionResult:
    assert agg.mean_masses is not None and agg.grid is not None
    grid = agg.grid
    H = len(agg.rewards)
    S = agg.rewards[0].shape[1]
    dims = grid.cells_per_dim
    values = np.zeros((1, S))
    step_sizes: list[tuple[int, ...]] = [()] * H
    suffix_counts = [1] * (H + 1)
    for h in range(H - 1, -1, -1):
        R = agg.rewards[h][np.asarray(reward_sets[h], dtype=int)]
        nr, nv = R.shape[0], values.shape[0]
        masses = []
        for i in range(grid.dim):
            sel = np.asarray(transition_sets[h][i], dtype=int)
            if sel.size == 0:
                raise ValidationError(f"empty mean-map candidate set at step {h}, coordinate {i}")
            masses.append(agg.mean_masses[h][i][sel])
        counts = tuple(m.shape[0] for m in masses)
        total = nr * int(np.prod(counts)) * nv
        if total > cap:
            raise CapacityError(f"joint enumeration needs {total} models at step {h}, cap is {cap}")
        if grid.dim == 1:
            expected = np.einsum("msac,vc->mvsa", masses[0], values)
            q = R[:, None, None, :, :] + expected[None]
            values = q.max(axis=-1).reshape(nr * counts[0] * nv, S)
        else:
            v3 = values.reshape(nv, dims[0], dims[1])
            part = np.einsum("nsac,vbc->nvsab", masses[1], v3)
            expected = np.einsum("msab,nvsab->mnvsa", masses[0], part)
            q = R[:, None, None, None, :, :] + expected[None]
            values = q.max(axis=-1).reshape(nr * counts[0] * counts[1] * nv, S)
        step_sizes[h] = (nr,) + counts
        suffix_counts[h] = nr * int(np.prod(counts)) * suffix_counts[h + 1]
    flat = int(np.argmax(values[:, initial_state]))
    value = float(values[flat, initial_state])
    reward_idx: list[int] = []
    transition_idx: list[tuple[int, ...]] = []
    rem = flat
    for h in range(H):
        sizes = step_sizes[h]  # (nr, n_coord1[, n_coord2])
        tail = suffix_counts[h + 1]
        positions = []
        for j in range(len(sizes)):
            block = int(np.prod(sizes[j + 1 :], dtype=int)) * tail
            positions.append(rem // block)
            rem -= positions[-1] * block
        reward_idx.append(int(reward_sets[h][positions[0]]))
        transition_idx.append(
            tuple(int(transition_sets[h][i][positions[1 + i]]) for i in range(grid.dim))
        )
    rewards = np.stack([agg.rewards[h][reward_idx[h]] for h in range(H)])
    kernels = []
    for h in range(H):
        per = [agg.mean_masses[h][i][transition_idx[h][i]] for i in range(grid.dim)]
        if grid.dim == 1:
            kernels.append(per[0])
        else:
            joint = per[0][..., :, None] * per[1][..., None, :]
            kernels.append(joint.reshape(S, agg.rewards[h].shape[2], grid.num_cells))
    mdp = AggregatedMDP(rewards, np.stack(kernels), initial_state)
    plan = value_iteration(mdp)
    return SelectionResult(
        value=value,
        policy=plan.policy,
        reward_idx=tuple(reward_idx),
        transition_idx=tuple(transition_idx),
        relaxed=False,
        chosen_mdp=mdp,
    )


def _select_pointwise_general(
    agg: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    transition_sets: Sequence[Sequence[int]],
    initial_state: int,
) -> SelectionResult:
    assert agg.transitions is not None
    H = len(agg.rewards)
    S, A = agg.rewards[0].shape[1], agg.rewards[0].shape[2]
    values = np.zeros(S)
    r_pick = np.zeros((H, S, A), dtype=int)
    p_pick = np.zeros((H, S, A), dtype=int)
    actions = np.zeros((H, S), dtype=int)
    q_store = [np.zeros((S, A)) for _ in range(H)]
    for h in range(H - 1, -1, -1):
        rsel = np.asarray(reward_sets[h], dtype=int)
        psel = np.asarray(transition_sets[h], dtype=int)
        if rsel.size == 0 or psel.size == 0:
            raise ValidationError(f"empty candidate set at step {h}")
        R = agg.rewards[h][rsel]
        expected = np.einsum("psax,x->psa", agg.transitions[h][psel], values)
        r_best = R.argmax(axis=0)
        p_best = expected.argmax(axis=0)
        q = R.max(axis=0) + expected.max(axis=0)
        r_pick[h] = rsel[r_best]
        p_pick[h] = psel[p_best]
        q_store[h] = q
        values = q.max(axis=1)
        actions[h] = q.argmax(axis=1)
    policy = Policy.deterministic(actions, A)
    return SelectionResult(
        value=float(values[initial_state]),
        policy=policy,
        reward_idx=None,
        transition_idx=None,
        relaxed=True,
        pointwise_reward_idx=r_pick,
        pointwise_transition_idx=p_pick,
    )


def _select_pointwise_dynamical(
    agg: CandidateAggregates,
    reward_sets: Sequence[Sequence[int]],
    transition_sets: Sequence[Sequence[Sequence[int]]],
    initial_state: int,
) -> SelectionResult:
    assert agg.mean_masses is not None and agg.grid is not None
    grid = agg.grid
    H = len(agg.rewards)
    S, A = agg.rewards[0].shape[1], agg.rewards[0].shape[2]
    values = np.zeros(S)
    actions = np.zeros((H, S), dtype=int)
    r_pick = np.zeros((H, S, A), dtype=int)
    p_pick = np.zeros((H, S, A, grid.dim), dtype=int)
    for h in range(H - 1, -1, -1):
        rsel = np.asarray(reward_sets[h], dtype=int)
        R = agg.rewards[h][rsel]
        if grid.dim == 1:
            sel = np.asarray(transition_sets[h][0], dtype=int)
            expected = np.einsum("msac,c->msa", agg.mean_masses[h][0][sel], values)
            g_best = expected.argmax(axis=0)
            p_pick[h, :, :, 0] = sel[g_best]
            ev = expected.max(axis=0)
        else:
            sel0 = np.asarray(transition_sets[h][0], dtype=int)
            sel1 = np.asarray(transition_sets[h][1], dtype=int)
            v2 = values.reshape(grid.cells_per_dim)
            part = np.einsum("nsac,bc->nsab", agg.mean_masses[h][1][sel1], v2)
            expected = np.einsum("msab,nsab->mnsa", agg.mean_masses[h][0][sel0], part)
            flat = expected.reshape(-1, S, A)
            best = flat.argmax(axis=0)
            p_pick[h, :, :, 0] = sel0[best // len(sel1)]
            p_pick[h, :, :, 1] = sel1[best % len(sel1)]
            ev = flat.max(axis=0)
        r_best = R.argmax(axis=0)
        r_pick[h] = rsel[r_best]
        q = R.max(axis=0) + ev
        values = q.max(axis=1)
        actions[h] = q.argmax(axis=1)
    policy = Policy.deterministic(actions, A)
    return SelectionResult(
        value=float(values[initial_state]),
        policy=policy,
        reward_idx=None,
        transition_idx=None,
        relaxed=True,
        pointwise_reward_idx=r_pick,
        pointwise_transition_idx=p_pick,
    )

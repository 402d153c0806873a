"""Hand-built tiny environments and independent brute-force oracles.

Everything here is deliberately slow and literal: plain loops and recursion,
no shared code with the package internals beyond the public constructors.
The scipy-based references at the end keep the package's earlier Gaussian
discretizers and ratio oracles verbatim (scipy's ``ndtr``, a kernel rebuilt
at every step of every policy); they reuse only its public residual and
policy enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from strategicmdp import (
    DiagnosticWitness,
    Grid,
    Policy,
    RatioResult,
    StrategicModel,
    TransitionMode,
    deterministic_policy_tables,
    feedback_by_type,
    iter_residuals,
    source_feedback_mix,
)


def tiny_general(
    reward_noise: float = 0.0,
    confound: tuple[float, float] = (0.3, -0.3),
    source: tuple[float, float] = (0.6, 0.4),
    target: tuple[float, float] = (0.2, 0.8),
    horizon: int = 2,
) -> StrategicModel:
    """Two-state two-action environment with a compliant and a contrary type."""
    H, S, A, E, T, B = horizon, 2, 2, 2, 2, 2
    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0
        agent[:, :, a, 1, 1 - a] = 1.0
    feed = np.zeros((H, S, A, T, B, E))
    feed[..., 0, :] = (0.9, 0.1)
    feed[..., 1, :] = (0.2, 0.8)
    e_idx = np.arange(E)[None, None, None, :]
    a_idx = np.arange(A)[None, None, :, None]
    reward = np.broadcast_to(
        0.3 + 0.2 * (e_idx == 0) + 0.1 * (a_idx == 1), (H, S, A, E)
    ).copy()
    kernel = np.zeros((H, S, A, E, S))
    kernel[..., 0, :] = (0.7, 0.3)
    kernel[..., 1, :] = (0.3, 0.7)
    return StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=np.tile(source, (H, 1)),
        target_type_dist=np.tile(target, (H, 1)),
        agent_reward=agent,
        feedback_kernel=feed,
        principal_reward=reward,
        reward_confound=np.tile(confound, (H, 1)),
        reward_noise_std=reward_noise,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=kernel,
    )


def tiny_dynamical(
    noise_scale: float = 0.25, reward_noise: float = 0.0
) -> StrategicModel:
    """Four-cell 1-d environment with a drift-plus-pull mean map."""
    H, A, E, T, B = 2, 2, 2, 2, 2
    grid = Grid((-1.0,), (1.0,), (4,))
    S = grid.num_cells
    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0
        agent[:, :, a, 1, 1 - a] = 1.0
    feed = np.zeros((H, S, A, T, B, E))
    feed[..., 0, :] = (0.9, 0.1)
    feed[..., 1, :] = (0.2, 0.8)
    e_idx = np.arange(E)[None, None, None, :]
    a_idx = np.arange(A)[None, None, :, None]
    reward = np.broadcast_to(
        0.3 + 0.2 * (e_idx == 0) + 0.1 * (a_idx == 1), (H, S, A, E)
    ).copy()
    centers = grid.centers()[:, 0]
    mean = (
        0.5 * centers[None, :, None, None]
        + 0.3 * (a_idx == 1)
        - 0.2 * (e_idx == 1)
    )
    mean_map = np.clip(np.broadcast_to(mean, (H, S, A, E)), -0.9, 0.9)[..., None]
    return StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=1,
        source_type_dist=np.tile((0.6, 0.4), (H, 1)),
        target_type_dist=np.tile((0.2, 0.8), (H, 1)),
        agent_reward=agent,
        feedback_kernel=feed,
        principal_reward=reward,
        reward_confound=np.tile((0.3, -0.3), (H, 1)),
        reward_noise_std=reward_noise,
        reward_bound=1.0,
        transition_mode=TransitionMode.DYNAMICAL,
        state_dim=1,
        grid=grid,
        mean_map=mean_map.copy(),
        trans_confound=np.tile(np.array([[0.2], [-0.2]]), (H, 1, 1)),
        trans_noise_scale=noise_scale,
    )


def all_action_tables(horizon: int, num_states: int, num_actions: int):
    """Yield every deterministic (H, S) action table."""
    for flat in itertools.product(range(num_actions), repeat=horizon * num_states):
        yield np.asarray(flat, dtype=int).reshape(horizon, num_states)


def eval_table_recursive(
    rewards: np.ndarray, transitions: np.ndarray, actions: np.ndarray, h: int, s: int
) -> float:
    """Pure-Python recursive evaluation of a deterministic action table."""
    if h == rewards.shape[0]:
        return 0.0
    a = int(actions[h, s])
    total = float(rewards[h, s, a])
    for x in range(rewards.shape[1]):
        p = float(transitions[h, s, a, x])
        if p > 0.0:
            total += p * eval_table_recursive(rewards, transitions, actions, h + 1, x)
    return total


def brute_force_optimum(rewards, transitions, initial_state):
    """Best deterministic-policy value by exhaustive enumeration."""
    H, S, A = rewards.shape
    best = -np.inf
    best_actions = None
    for actions in all_action_tables(H, S, A):
        v = eval_table_recursive(rewards, transitions, actions, 0, initial_state)
        if v > best:
            best = v
            best_actions = actions
    return best, best_actions


def uniform_policy_for(model: StrategicModel) -> Policy:
    return Policy.uniform(model.horizon, model.num_states, model.num_actions)


def outer_cell_kernel(per_coord, idx) -> np.ndarray:
    """(S, A, C) kernel of candidate idx[i] in coordinate i: the outer product of
    the per-coordinate cell masses per_coord[i][idx[i]], each (S, A, C_i)."""
    kernel = per_coord[0][idx[0]]
    for masses, i in zip(per_coord[1:], idx[1:]):
        joint = kernel[..., :, None] * masses[i][..., None, :]
        kernel = joint.reshape(joint.shape[:-2] + (-1,))
    return kernel


def ref_joint_kernels(per_coord) -> np.ndarray:
    """One step's outer-product kernels, listed over every per-coordinate index
    tuple in lexicographic order."""
    ranges = [range(len(m)) for m in per_coord]
    return np.stack([outer_cell_kernel(per_coord, idx) for idx in itertools.product(*ranges)])


# ---------------------------------------------------------------------------
# scipy-based references
# ---------------------------------------------------------------------------


def _ndtr():
    return pytest.importorskip("scipy.special").ndtr


def ref_gaussian_mass_1d(grid: Grid, mean: float, scale: float, dim: int) -> np.ndarray:
    n = grid.cells_per_dim[dim]
    if scale == 0.0:
        width = grid.widths()[dim]
        j = int(np.clip(math.floor((mean - grid.lows[dim]) / width), 0, n - 1))
        out = np.zeros(n)
        out[j] = 1.0
        return out
    edges = grid.edges(dim)
    cdf = _ndtr()((edges - mean) / scale)
    cdf[0] = 0.0
    cdf[-1] = 1.0
    return np.diff(cdf)


def _ref_axis_masses(grid: Grid, m: np.ndarray, scale: float, k: int) -> np.ndarray:
    n = grid.cells_per_dim[k]
    if scale == 0.0:
        width = grid.widths()[k]
        j = np.clip(np.floor((m - grid.lows[k]) / width).astype(int), 0, n - 1)
        mass = np.zeros(m.shape + (n,))
        np.put_along_axis(mass, j[..., None], 1.0, axis=-1)
        return mass
    cdf = _ndtr()((grid.edges(k) - m[..., None]) / scale)
    cdf[..., 0] = 0.0
    cdf[..., -1] = 1.0
    return np.diff(cdf, axis=-1)


def ref_discretize_gaussian(means: np.ndarray, grid: Grid, scale: float) -> np.ndarray:
    per_dim = [_ref_axis_masses(grid, means[..., k], scale, k) for k in range(grid.dim)]
    if grid.dim == 1:
        return per_dim[0]
    joint = per_dim[0][..., :, None] * per_dim[1][..., None, :]
    return joint.reshape(means.shape[:-1] + (grid.num_cells,))


def ref_mean_masses(classes, knowledge) -> list[list[np.ndarray]]:
    """Per-step, per-coordinate candidate cell masses, one step at a time."""
    w = knowledge.feedback_mix()
    grid = knowledge.grid
    out = []
    for h in range(knowledge.horizon):
        per_coord = []
        for i in range(grid.dim):
            means = np.einsum("sae,nsae->nsa", w[h], classes.mean_map_tables[h][i])
            per_coord.append(_ref_axis_masses(grid, means, knowledge.trans_noise_scale, i))
        out.append(per_coord)
    return out


def ref_occupancy_joints(env: StrategicModel, policy: Policy, dist: np.ndarray):
    """Forward DP over the full horizon, rebuilding the kernel at every step."""
    fb = feedback_by_type(env)
    d = np.zeros(env.num_states)
    d[env.initial_state] = 1.0
    joints = []
    for h in range(env.horizon):
        sa = d[:, None] * policy.action_probs[h]
        per_type = sa[:, :, None, None] * dist[h][None, None, :, None] * fb[h]
        joint = per_type.sum(axis=2)
        joints.append(joint)
        assert abs(joint.sum() - 1.0) <= 1e-9
        if env.transition_mode is TransitionMode.GENERAL:
            d = np.einsum("sae,saex->x", joint, env.transition_kernel[h])
        else:
            means = env.mean_map[h][None, ...] + env.trans_confound[h][:, None, None, None, :]
            kernel = ref_discretize_gaussian(means, env.grid, env.trans_noise_scale)
            d = np.einsum("sate,tsaec->c", per_type, kernel)
    return joints


def ref_worst_ratio(env, classes, h: int, policy_budget: int, transfer: bool) -> RatioResult:
    """ill_posedness (transfer=False) or transfer_term, one full DP per policy."""
    labels, nus = [], []
    for label, nu in iter_residuals(env, classes, h):
        if np.any(nu != 0.0):
            labels.append(label)
            nus.append(nu)
    tables, sampled = deterministic_policy_tables(
        env.num_states, env.num_actions, h + 1, policy_budget, 0
    )
    if not nus:
        return RatioResult(1.0, False, True, sampled, None, len(tables), 0)
    nus = np.stack(nus)
    n = nus.shape[0]
    src, tgt = env.source_type_dist, env.target_type_dist
    if transfer:
        fb = feedback_by_type(env)
        kappa_src = np.einsum("t,sate->sae", src[h], fb[h])
        kappa_tgt = np.einsum("t,sate->sae", tgt[h], fb[h])
        den_w = np.einsum("sae,nsae->nsa", kappa_src, nus * nus).reshape(n, -1)
        num_w = np.einsum("sae,nsae->nsa", kappa_tgt, nus * nus).reshape(n, -1)
    else:
        kappa = source_feedback_mix(env)[h]
        num_w = np.einsum("sae,nsae->nsa", kappa, nus * nus).reshape(n, -1)
        proj = np.einsum("sae,nsae->nsa", kappa, nus)
        den_w = (proj * proj).reshape(n, -1)
    best, witness = -np.inf, None
    for table in tables:
        full = np.zeros((env.horizon, env.num_states), dtype=int)
        full[: h + 1] = table
        policy = Policy.deterministic(full, env.num_actions)
        d_src = ref_occupancy_joints(env, policy, src)[h].sum(axis=-1).reshape(-1)
        den = den_w @ d_src
        if transfer:
            num = num_w @ ref_occupancy_joints(env, policy, tgt)[h].sum(axis=-1).reshape(-1)
        else:
            num = num_w @ d_src
            assert not np.any(den > num + 1e-9)
        actions = tuple(tuple(int(a) for a in row) for row in table)
        zero = den == 0.0
        infinite = zero & (num > 0.0)
        if np.any(infinite):
            j = int(np.flatnonzero(infinite)[0])
            return RatioResult(
                None, True, False, sampled, DiagnosticWitness(labels[j], actions), len(tables), n
            )
        valid = ~zero
        if np.any(valid):
            ratios = num[valid] / den[valid]
            j = int(np.argmax(ratios))
            if ratios[j] > best:
                best = float(ratios[j])
                witness = DiagnosticWitness(labels[int(np.flatnonzero(valid)[j])], actions)
    if best == -np.inf:
        return RatioResult(1.0, False, True, sampled, None, len(tables), n)
    return RatioResult(best, False, False, sampled, witness, len(tables), n)

"""Hand-built tiny environments and independent brute-force oracles.

Everything here is deliberately slow and literal: plain loops and recursion,
no shared code with the package internals beyond the public constructors.
The scipy-based references keep the package's earlier Gaussian discretizers
and ratio oracles verbatim (scipy's ``ndtr``, a kernel rebuilt at every step
of every policy); they reuse only its public residual and policy
enumeration, and the list-building policy enumeration is kept beside them
verbatim. The per-row references at the end keep the earlier class
closures and realizability check verbatim (one residual, one projection and
one ``tobytes`` key or ``np.array_equal`` scan per row), and the joint backup
step with its action maximum as one reduction; they reuse only the candidate
aggregates. The learner references keep the earlier per-coordinate transition
sets verbatim (see that section). The serializer references keep the earlier
whole-payload canonical JSON and the per-row episodes.csv writer verbatim, and
the truth check keeps the harness's earlier per-record reader of shaped sets
verbatim. The mode-branched residuals, labels, kernel radices and loss
families are kept as they were before the transition-family view, and the
vector-state rollout, step and dataset append as they were before the cell
became the state in both modes. Every spelling of the feedback law and its
integration follows, as each package site wrote its einsum before the two
functions in ``model`` replaced them. The last section keeps the package
functions that only tests called: the aggregation of full-horizon tables
(target distribution only), a mixture's value (over a list of policies), the
occupancy MSE and the batched step sampler. After it comes the config parser
as it was before one table declared every key, with seeds bounded to 64 bits
as the SEED rule bounds them.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from strategicmdp import (
    AggregatedMDP,
    CandidateAggregates,
    CapacityError,
    ConfigError,
    DiagnosticWitness,
    Grid,
    HypothesisClasses,
    LearnerKnowledge,
    LossEvaluator,
    OccupancyTable,
    Policy,
    RatioResult,
    RealizabilityReport,
    SelectionMode,
    SelectionResult,
    StepDataset,
    StrategicModel,
    Trajectory,
    TransitionMode,
    ValidationError,
    confidence_levels,
    deterministic_policy_tables,
    make_rng,
    policy_value,
    residual_labels,
    residual_stack,
    rollout,
    value_iteration,
)
from strategicmdp.config import DiagnosticsConfig, OutputConfig, ScenarioConfig
from strategicmdp.diagnostics import DEFAULT_POLICY_BUDGET
from strategicmdp.hypotheses import (
    DEFAULT_JOINT_CAP,
    DEFAULT_PER_STEP_CAP,
    ClauseResult,
    _check_truth_index,
    _first_missing,
)
from strategicmdp.model import HiddenStep, _check_index, best_response_table, draw_categorical
from strategicmdp.planning import DEFAULT_SELECTOR_CAP
from strategicmdp.scenarios import GENERATORS

BASE_YAML = """\
environment:
  generator: recsys-small
run:
  episodes: 6
  delta: 0.1
  beta_scale: 0.1
  seeds: [0, 1]
  evaluation_cadence: 3
output:
  root: {root}
"""

DYN_YAML = """\
environment:
  generator: dyn-1d
run:
  episodes: 5
  seeds: [0]
diagnostics:
  ill_posedness: true
  transfer: true
  policy_budget: 16
output:
  root: {root}
"""


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
    centers = np.array([grid.center(c)[0] for c in range(grid.num_cells)])
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
        grid=grid,
        mean_map=mean_map.copy(),
        trans_confound=np.tile(np.array([[0.2], [-0.2]]), (H, 1, 1)),
        trans_noise_scale=noise_scale,
    )


def _kernels(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    raw = rng.uniform(0.2, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def random_general(
    seed: int, horizon: int, states: int, actions: int, feedbacks: int, candidates: int
) -> tuple[StrategicModel, HypothesisClasses]:
    """Random general-mode model and unclosed classes; the truth is candidate 0.

    Rewards sit on a 0.1 grid, so different joint models often share value
    tables and the closures have duplicates to drop.
    """
    rng = np.random.default_rng(seed)
    H, S, A, E, T, B = horizon, states, actions, feedbacks, 2, 2
    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=_kernels(rng, (H, T)),
        target_type_dist=_kernels(rng, (H, T)),
        agent_reward=rng.uniform(0.0, 1.0, size=(H, S, A, T, B)),
        feedback_kernel=_kernels(rng, (H, S, A, T, B, E)),
        principal_reward=np.round(rng.uniform(0.0, 1.0, size=(H, S, A, E)), 1),
        reward_confound=rng.uniform(-0.2, 0.2, size=(H, T)),
        reward_noise_std=0.0,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=_kernels(rng, (H, S, A, E, S)),
    )
    rewards, transitions = [], []
    for h in range(H):
        r_true, p_true = model.principal_reward[h], model.transition_kernel[h]
        r_extra = np.round(rng.uniform(0.0, 1.0, size=(candidates - 1,) + r_true.shape), 1)
        rewards.append(np.concatenate([r_true[None], r_extra]))
        p_extra = [0.5 * (p_true + _kernels(rng, p_true.shape)) for _ in range(candidates - 1)]
        transitions.append(np.stack([p_true] + p_extra))
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=1.0,
        reward_tables=rewards,
        discriminators=[np.zeros((0, S, A))] * H,
        value_targets=[np.zeros((0, S))] * H,
        transition_tables=transitions,
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H,
    )
    return model, classes


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


def ref_models(maps) -> list[tuple[int, ...]]:
    """Every choice of one candidate per coordinate of one step's mean maps,
    in lexicographic order (coordinate 0's candidate varies slowest)."""
    return list(itertools.product(*(range(len(m)) for m in maps)))


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


def ref_locate(grid: Grid, point: np.ndarray) -> int:
    """Grid.locate as a literal formula, every array rebuilt from the grid's tuples."""
    rel = (np.asarray(point, dtype=float) - np.asarray(grid.lows)) / grid.widths()
    sub = np.clip(np.floor(rel), 0, np.asarray(grid.cells_per_dim) - 1).astype(int)
    return int(np.ravel_multi_index(tuple(sub), grid.cells_per_dim))


def ref_cell_masses(grid: Grid, mean, scale: float) -> np.ndarray:
    """Cell masses (C,) of the Gaussian at one mean vector: each axis's CDF
    differences and, on a 2-D grid, their outer product in cell order."""
    per_axis = [ref_gaussian_mass_1d(grid, float(m), scale, k) for k, m in enumerate(mean)]
    return per_axis[0] if len(per_axis) == 1 else np.outer(*per_axis).ravel()


def ref_feedback_kernels(classes, knowledge) -> list[np.ndarray]:
    """Per step, the (n, S, A, E, C) cell masses of every transition model at
    every feedback, one Gaussian at a time, models listed as ref_models."""
    grid, scale = knowledge.grid, knowledge.trans_noise_scale
    out = []
    for maps in classes.mean_map_tables:
        models = ref_models(maps)
        _, S, A, E = maps[0].shape
        kernels = np.zeros((len(models), S, A, E, grid.num_cells))
        for p, combo in enumerate(models):
            for s, a, e in itertools.product(range(S), range(A), range(E)):
                mean = [m[c, s, a, e] for m, c in zip(maps, combo)]
                kernels[p, s, a, e] = ref_cell_masses(grid, mean, scale)
        out.append(kernels)
    return out


def ref_mixed_kernels(classes, knowledge) -> list[np.ndarray]:
    """ref_feedback_kernels with feedback integrated out under the target law
    by the package's einsum spelling, so that the cell masses compare bit for bit."""
    w = ref_target_feedback_mix(knowledge)
    per_feedback = ref_feedback_kernels(classes, knowledge)
    return [np.einsum("sae,psaex->psax", w[h], k) for h, k in enumerate(per_feedback)]


def ref_model_kernels(classes, knowledge) -> list[np.ndarray]:
    """The learner's (n, S, A, C) kernels per step as a literal loop over models,
    s, a and e: each feedback's cell masses, weighted by the target feedback law."""
    w = ref_target_feedback_mix(knowledge)
    out = []
    for h, per_feedback in enumerate(ref_feedback_kernels(classes, knowledge)):
        n, S, A, E, C = per_feedback.shape
        kernels = np.zeros((n, S, A, C))
        for p, s, a, e in itertools.product(range(n), range(S), range(A), range(E)):
            kernels[p, s, a] += w[h, s, a, e] * per_feedback[p, s, a, e]
        out.append(kernels)
    return out


def ref_feedback_by_type(model: StrategicModel) -> np.ndarray:
    """The module function feedback_by_type as it was, before the model cached the table."""
    br = best_response_table(model)  # (H, S, A, T)
    idx = br[..., None, None]
    return np.take_along_axis(model.feedback_kernel, idx, axis=4)[..., 0, :]


def ref_occupancy_joints(env: StrategicModel, policy: Policy, dist: np.ndarray):
    """Forward DP over the full horizon, rebuilding the kernel at every step."""
    fb = ref_feedback_by_type(env)
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


def ref_true_aggregated_general(model: StrategicModel, type_dist: np.ndarray | None = None) -> AggregatedMDP:
    """true_aggregated_model in general mode as it was: feedback weights contracted with
    the transition tables in one einsum, before the step kernels were shared."""
    dist = model.target_type_dist if type_dist is None else np.asarray(type_dist, dtype=float)
    fb = ref_feedback_by_type(model)  # (H, S, A, T, E)
    w = np.einsum("ht,hsate->hsae", dist, fb)
    rewards = np.einsum("hsae,hsae->hsa", w, model.principal_reward)
    transitions = np.einsum("hsae,hsaex->hsax", w, model.transition_kernel)
    return AggregatedMDP(rewards, transitions, model.initial_state)


def ref_worst_ratio(env, classes, h: int, policy_budget: int, transfer: bool) -> RatioResult:
    """ill_posedness (transfer=False) or transfer_term, one full DP per policy."""
    labels, nus = [], []
    for label, nu in zip(residual_labels(classes, h), residual_stack(env, classes, h)):
        if np.any(nu != 0.0):
            labels.append(label)
            nus.append(nu)
    tables, sampled = deterministic_policy_tables(env.num_states, env.num_actions, h + 1, policy_budget)
    if not nus:
        return RatioResult(1.0, False, True, sampled, None, len(tables), 0)
    nus = np.stack(nus)
    n = nus.shape[0]
    src, tgt = env.source_type_dist, env.target_type_dist
    if transfer:
        fb = ref_feedback_by_type(env)
        kappa_src = np.einsum("t,sate->sae", src[h], fb[h])
        kappa_tgt = np.einsum("t,sate->sae", tgt[h], fb[h])
        den_w = np.einsum("sae,nsae->nsa", kappa_src, nus * nus).reshape(n, -1)
        num_w = np.einsum("sae,nsae->nsa", kappa_tgt, nus * nus).reshape(n, -1)
    else:
        kappa = ref_source_feedback_mix(env)[h]
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


def ref_deterministic_policy_tables(
    num_states: int,
    num_actions: int,
    steps: int,
    budget: int,
) -> tuple[list[np.ndarray], bool]:
    """All (steps, S) deterministic action tables, or a uniform sample of budget many (seed 0).

    Returns (tables, sampled). Exhaustive enumeration is used exactly when
    num_actions ** (num_states * steps) fits the budget.
    """
    total = num_actions ** (num_states * steps)
    if total <= budget:
        tables = [
            np.array(combo, dtype=int).reshape(steps, num_states)
            for combo in itertools.product(range(num_actions), repeat=num_states * steps)
        ]
        return tables, False
    rng = make_rng(0)
    tables = [
        rng.integers(num_actions, size=(steps, num_states)) for _ in range(budget)
    ]
    return tables, True


# ---------------------------------------------------------------------------
# Per-row references for the class closures and the realizability check
# ---------------------------------------------------------------------------


def ref_iter_residuals(model: StrategicModel, classes: HypothesisClasses, h: int):
    true_r = model.principal_reward[h]
    for j, cand in enumerate(classes.reward_tables[h]):
        yield f"reward[{j}]", cand - true_r
    if classes.mode is TransitionMode.GENERAL:
        delta = classes.transition_tables[h] - model.transition_kernel[h]
        targets = classes.value_targets[h + 1]
        applied = np.einsum("psaex,gx->pgsae", delta, targets)
        for j in range(applied.shape[0]):
            for g in range(applied.shape[1]):
                yield f"transition[{j}]*value[{g}]", applied[j, g]
    else:
        for i, per in enumerate(classes.mean_map_tables[h]):
            truth = model.mean_map[h][..., i]
            for j, cand in enumerate(per):
                yield f"mean_map[{i}][{j}]", cand - truth


def ref_dedup_append(base: np.ndarray, extra: list[np.ndarray]) -> np.ndarray:
    seen = {np.ascontiguousarray(row).tobytes() for row in base}
    keep = []
    for row in extra:
        key = np.ascontiguousarray(row).tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(row)
    if not keep:
        return base
    return np.concatenate([base, np.stack(keep)], axis=0)


def ref_unique_rows(arr: np.ndarray) -> np.ndarray:
    seen: set[bytes] = set()
    keep = []
    for row in arr:
        key = np.ascontiguousarray(row).tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(row)
    return np.stack(keep) if keep else arr.reshape(0, arr.shape[-1])


def ref_close_discriminators(model, classes):
    kappa = ref_source_feedback_mix(model)
    new_disc = []
    for h in range(classes.horizon):
        extra = [ref_source_projection(kappa[h], nu) for _, nu in ref_iter_residuals(model, classes, h)]
        new_disc.append(ref_dedup_append(classes.discriminators[h], extra))
    return dataclasses.replace(classes, discriminators=new_disc)


def ref_joint_backup(rewards: np.ndarray, kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    expected = np.einsum("psax,vx->pvsa", kernels, values)
    q = rewards[:, None, None, :, :] + expected[None]
    return q.max(axis=-1).reshape(-1, rewards.shape[1])


def ref_enumerate_suffix_values(classes, knowledge):
    agg = CandidateAggregates.from_classes(classes, knowledge)
    joint = 1
    for R, P in zip(agg.rewards, agg.transitions):
        joint *= R.shape[0] * P.shape[0]
    if joint > classes.caps.joint:
        raise CapacityError(f"value closure would enumerate {joint} joint models, cap is {classes.caps.joint}")
    S = classes.reward_tables[0].shape[1]
    values = np.zeros((1, S))
    out = [np.zeros((0, S))] * classes.horizon
    for h in range(classes.horizon - 1, -1, -1):
        values = ref_unique_rows(ref_joint_backup(agg.rewards[h], agg.transitions[h], values))
        out[h] = values
    return out


def ref_close_classes(model, classes, knowledge):
    suffix = ref_enumerate_suffix_values(classes, knowledge)
    new_targets = list(classes.value_targets)
    for h in range(classes.horizon):
        new_targets[h] = ref_dedup_append(classes.value_targets[h], list(suffix[h]))
    closed = dataclasses.replace(classes, value_targets=new_targets)
    return ref_close_discriminators(model, closed)


def _ref_contains(table_set: np.ndarray, table: np.ndarray) -> bool:
    return any(np.array_equal(row, table) for row in table_set)


def ref_check_realizability(model, classes, knowledge) -> RealizabilityReport:
    H = classes.horizon
    r_clause = ClauseResult(True)
    for h in range(H):
        if not _ref_contains(classes.reward_tables[h], model.principal_reward[h]):
            r_clause = ClauseResult(False, f"true reward missing at step {h}")
            break
        idx = classes.truth_reward_idx[h]
        if idx is not None and not np.array_equal(
            classes.reward_tables[h][idx], model.principal_reward[h]
        ):
            r_clause = ClauseResult(False, f"designated reward index {idx} wrong at step {h}")
            break
    t_clause = ClauseResult(True)
    for h in range(H):
        if classes.mode is TransitionMode.GENERAL:
            if not _ref_contains(classes.transition_tables[h], model.transition_kernel[h]):
                t_clause = ClauseResult(False, f"true transition missing at step {h}")
                break
            idx = classes.truth_transition_idx[h]
            if idx is not None and not np.array_equal(
                classes.transition_tables[h][idx], model.transition_kernel[h]
            ):
                t_clause = ClauseResult(False, f"designated transition index {idx} wrong at step {h}")
                break
        else:
            stop = False
            for i, per in enumerate(classes.mean_map_tables[h]):
                if not _ref_contains(per, model.mean_map[h][..., i]):
                    t_clause = ClauseResult(
                        False, f"true mean map missing at step {h}, coordinate {i}"
                    )
                    stop = True
                    break
            if stop:
                break
            for i, per in enumerate(classes.mean_map_tables[h]):
                idx = classes.truth_transition_idx[h][i]
                if idx is not None and not np.array_equal(per[idx], model.mean_map[h][..., i]):
                    t_clause = ClauseResult(
                        False, f"designated transition index {idx} wrong at step {h}"
                    )
                    stop = True
                    break
            if stop:
                break
    kappa = ref_source_feedback_mix(model)
    p_clause = ClauseResult(True)
    for h in range(H):
        done = False
        for label, nu in ref_iter_residuals(model, classes, h):
            proj = ref_source_projection(kappa[h], nu)
            if not _ref_contains(classes.discriminators[h], proj):
                p_clause = ClauseResult(
                    False, f"projection of {label} missing from discriminators at step {h}"
                )
                done = True
                break
        if done:
            break
    v_clause = ClauseResult(True)
    try:
        suffix = ref_enumerate_suffix_values(classes, knowledge)
        for h in range(H):
            done = False
            for j, table in enumerate(suffix[h]):
                if not _ref_contains(classes.value_targets[h], table):
                    v_clause = ClauseResult(
                        False, f"candidate value table {j} missing from targets at step {h}"
                    )
                    done = True
                    break
            if done:
                break
    except CapacityError as exc:
        v_clause = ClauseResult(False, f"not checkable: {exc}")
    return RealizabilityReport(
        truth_in_rewards=r_clause,
        truth_in_transitions=t_clause,
        projections_in_discriminators=p_clause,
        values_in_targets=v_clause,
        flags=classes.flags,
    )


# ---------------------------------------------------------------------------
# The earlier learner path, with per-coordinate transition sets
# ---------------------------------------------------------------------------
#
# Dynamical confidence sets used to be a tuple of per-coordinate index
# tuples. They were turned into kernel indices inside the selector
# (kernel_indices), the chosen kernel was decoded back (candidate_index),
# the sets were frozen into records by shape, and the chosen losses were
# looked up per mode. Kept verbatim so the kernel-index learner can be
# compared with it record by record; the shared rollout, dataset, losses,
# confidence levels, aggregates and joint backup are the package's own.


def ref_radices(classes) -> list[tuple[int, ...]] | None:
    """Candidate counts per coordinate at each step; None in general mode."""
    if classes.mode is TransitionMode.GENERAL:
        return None
    return [tuple(len(g) for g in per) for per in classes.mean_map_tables]


def ref_kernel_indices(radices, h: int, transition_set) -> np.ndarray:
    if radices is None:
        return np.asarray(transition_set, dtype=int)
    grids = np.meshgrid(*[np.asarray(c, dtype=int) for c in transition_set], indexing="ij")
    return np.ravel_multi_index(grids, radices[h]).reshape(-1)


def ref_candidate_index(radices, h: int, kernel):
    if radices is None:
        return kernel
    coords = np.unravel_index(kernel, radices[h])
    if np.ndim(kernel) == 0:
        return tuple(int(c) for c in coords)
    return np.stack(coords, axis=-1)


def ref_optimistic_select(agg, radices, reward_sets, transition_sets, initial_state, mode, cap):
    """optimistic_select on per-coordinate sets, with per-coordinate results."""
    kernel_sets = [ref_kernel_indices(radices, h, ts) for h, ts in enumerate(transition_sets)]
    H = len(agg.rewards)
    S, A = agg.rewards[0].shape[1], agg.rewards[0].shape[2]
    if mode is SelectionMode.EXACT:
        values = np.zeros((1, S))
        for h in range(H - 1, -1, -1):
            total = len(reward_sets[h]) * len(kernel_sets[h]) * values.shape[0]
            if total > cap:
                raise CapacityError(f"joint enumeration needs {total} models at step {h}, cap is {cap}")
            R = agg.rewards[h][np.asarray(reward_sets[h], dtype=int)]
            values = ref_joint_backup(R, agg.transitions[h][kernel_sets[h]], values)
        flat = int(np.argmax(values[:, initial_state]))
        value = float(values[flat, initial_state])
        sizes = [n for h in range(H) for n in (len(reward_sets[h]), len(kernel_sets[h]))]
        pos = np.unravel_index(flat, sizes)
        reward_idx = tuple(int(reward_sets[h][pos[2 * h]]) for h in range(H))
        kernel_idx = [int(kernel_sets[h][pos[2 * h + 1]]) for h in range(H)]
        rewards = np.stack([agg.rewards[h][reward_idx[h]] for h in range(H)])
        transitions = np.stack([agg.transitions[h][kernel_idx[h]] for h in range(H)])
        plan = value_iteration(AggregatedMDP(rewards, transitions, initial_state))
        return SelectionResult(
            value=value,
            policy=plan.policy,
            reward_idx=reward_idx,
            transition_idx=tuple(ref_candidate_index(radices, h, kernel_idx[h]) for h in range(H)),
            relaxed=False,
        )
    values = np.zeros(S)
    actions = np.zeros((H, S), dtype=int)
    for h in range(H - 1, -1, -1):
        R = agg.rewards[h][np.asarray(reward_sets[h], dtype=int)]
        expected = np.einsum("psax,x->psa", agg.transitions[h][kernel_sets[h]], values)
        q = R.max(axis=0) + expected.max(axis=0)
        values = q.max(axis=1)
        actions[h] = q.argmax(axis=1)
    return SelectionResult(
        value=float(values[initial_state]),
        policy=Policy.deterministic(actions, A),
        reward_idx=None,
        transition_idx=None,
        relaxed=True,
    )


def _ref_threshold(losses, beta, label, flags):
    keep = np.flatnonzero(losses <= beta)
    if keep.size == 0:
        flags.append(f"{label}-empty-set-fallback")
        keep = np.array([int(np.argmin(losses))])
    return tuple(int(i) for i in keep)


def ref_build_confidence_sets(evaluator, dataset, betas):
    """Thresholds into flat (general) or per-coordinate (dynamical) sets.

    The evaluator returns one loss array per transition family: a single one
    in general mode, one per coordinate in dynamical mode.
    """
    classes = evaluator.classes
    flags = []
    reward_sets, reward_vals, transition_sets, transition_vals = [], [], [], []
    for h in range(classes.horizon):
        r_losses = evaluator.reward_losses(dataset, h)
        reward_vals.append(r_losses)
        reward_sets.append(_ref_threshold(r_losses, betas.reward, f"reward-h{h}", flags))
        t_losses = evaluator.transition_losses(dataset, h)
        transition_vals.append(t_losses)
        if classes.mode is TransitionMode.GENERAL:
            (losses,) = t_losses
            transition_sets.append(
                _ref_threshold(losses, betas.transition_general, f"transition-h{h}", flags)
            )
        else:
            per = tuple(
                _ref_threshold(
                    t_losses[i], betas.transition_dynamical, f"mean-map-h{h}-c{i}", flags
                )
                for i in range(len(t_losses))
            )
            transition_sets.append(per)
    return SimpleNamespace(
        reward_sets=reward_sets,
        transition_sets=transition_sets,
        reward_loss_values=reward_vals,
        transition_loss_values=transition_vals,
        betas=betas,
        fallback_flags=tuple(flags),
    )


def ref_freeze_transition_sets(sets) -> tuple:
    out = []
    for per in sets.transition_sets:
        if per and isinstance(per[0], tuple):
            out.append(tuple(tuple(c) for c in per))
        else:
            out.append(tuple(per))
    return tuple(out)


def ref_run_learner(env, knowledge, classes, cfg) -> tuple[list[dict], list[Policy]]:
    """The earlier run_learner loop without the realizability gate.

    Returns each episode's record fields (wall-clock excluded) and the
    committed policies.
    """
    H = knowledge.horizon
    rng = make_rng(cfg.seed)
    dataset = StepDataset(
        horizon=H,
        num_states=knowledge.num_states,
        num_actions=knowledge.num_actions,
        num_feedbacks=knowledge.num_feedbacks,
        state_dim=env.state_dim,
    )
    evaluator = LossEvaluator(classes)
    aggregates = CandidateAggregates.from_classes(classes, knowledge)
    radices = ref_radices(classes)
    betas = confidence_levels(
        classes.bound, cfg.episodes, H, classes.sizes(), cfg.delta, cfg.beta_scale
    )
    policy = Policy.uniform(H, knowledge.num_states, knowledge.num_actions)
    policies, records = [], []
    initial_cell = None
    for k in range(1, cfg.episodes + 1):
        traj = rollout(env, policy, rng)
        policies.append(policy)
        dataset.append_trajectory(traj)
        if initial_cell is None:
            initial_cell = traj.steps[0].state
        episode_flags = []
        sets = ref_build_confidence_sets(evaluator, dataset, betas)
        args = (aggregates, radices, sets.reward_sets, sets.transition_sets, initial_cell)
        try:
            selection = ref_optimistic_select(*args, cfg.optimism, cfg.selector_cap)
        except CapacityError:
            episode_flags.append("selector-capacity-fallback")
            selection = ref_optimistic_select(*args, SelectionMode.POINTWISE, cfg.selector_cap)
        policy = selection.policy
        episode_flags.extend(sets.fallback_flags)
        if selection.relaxed:
            episode_flags.append("relaxed-selection")
        chosen_r_losses = None
        chosen_t_losses = None
        if selection.reward_idx is not None:
            chosen_r_losses = tuple(
                float(sets.reward_loss_values[h][selection.reward_idx[h]]) for h in range(H)
            )
        if selection.transition_idx is not None:
            if classes.mode is TransitionMode.GENERAL:
                chosen_t_losses = tuple(
                    float(sets.transition_loss_values[h][0][selection.transition_idx[h]])
                    for h in range(H)
                )
            else:
                chosen_t_losses = tuple(
                    tuple(
                        float(sets.transition_loss_values[h][i][selection.transition_idx[h][i]])
                        for i in range(len(selection.transition_idx[h]))
                    )
                    for h in range(H)
                )
        records.append(
            dict(
                episode=k,
                reward_sets=tuple(tuple(s) for s in sets.reward_sets),
                transition_sets=ref_freeze_transition_sets(sets),
                betas=(
                    sets.betas.reward,
                    sets.betas.transition_general,
                    sets.betas.transition_dynamical,
                ),
                optimistic_value=selection.value,
                relaxed=selection.relaxed,
                chosen_reward_idx=selection.reward_idx,
                chosen_transition_idx=selection.transition_idx,
                chosen_reward_losses=chosen_r_losses,
                chosen_transition_losses=chosen_t_losses,
                flags=tuple(episode_flags),
            )
        )
    return records, policies


def random_dynamical(
    seed: int, grid: Grid, horizon: int, rewards: int, candidates: tuple[int, ...]
) -> tuple[StrategicModel, HypothesisClasses]:
    """Random dynamical model and unclosed classes; the truth is candidate 0.

    candidates[i] mean-map candidates per step for coordinate i; the wrong
    ones are the truth shifted by a random offset per (state, action), so
    the losses can tell them apart.
    """
    rng = np.random.default_rng(seed)
    H, S, A, E, T, B, d = horizon, grid.num_cells, 2, 2, 2, 2, grid.dim
    lows, highs = np.asarray(grid.lows), np.asarray(grid.highs)
    mean_map = rng.uniform(lows, highs, size=(H, S, A, E, d))
    confound = rng.uniform(-0.3, 0.3, size=(H, T, d))
    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=int(rng.integers(S)),
        source_type_dist=_kernels(rng, (H, T)),
        target_type_dist=_kernels(rng, (H, T)),
        agent_reward=rng.uniform(0.0, 1.0, size=(H, S, A, T, B)),
        feedback_kernel=_kernels(rng, (H, S, A, T, B, E)),
        principal_reward=rng.uniform(0.2, 0.8, size=(H, S, A, E)),
        reward_confound=rng.uniform(-0.1, 0.1, size=(H, T)),
        reward_noise_std=0.1,
        reward_bound=1.0,
        transition_mode=TransitionMode.DYNAMICAL,
        grid=grid,
        mean_map=mean_map,
        trans_confound=confound,
        trans_noise_scale=0.3,
    )
    reward_tables, mean_maps = [], []
    for h in range(H):
        r_true = model.principal_reward[h]
        shifts = rng.uniform(-0.2, 0.2, size=(rewards - 1, S, A, 1))
        reward_tables.append(np.concatenate([r_true[None], np.clip(r_true + shifts, 0.0, 1.0)]))
        per = []
        for i, n in enumerate(candidates):
            g_true = mean_map[h, ..., i]
            offsets = rng.uniform(-1.0, 1.0, size=(n - 1, S, A, 1))
            per.append(np.concatenate([g_true[None], g_true + offsets]))
        mean_maps.append(per)
    classes = HypothesisClasses(
        mode=TransitionMode.DYNAMICAL,
        bound=1.0,
        reward_tables=reward_tables,
        discriminators=[np.zeros((0, S, A))] * H,
        value_targets=[np.zeros((0, S))] * H,
        mean_map_tables=mean_maps,
        truth_reward_idx=[0] * H,
        truth_transition_idx=[[0] * d for _ in range(H)],
    )
    return model, classes


def ref_transition_set_sizes(transition_sets) -> tuple:
    """EpisodeRecord.transition_set_sizes as it was, told apart by shape."""
    if transition_sets and isinstance(transition_sets[0][0], tuple):
        return tuple(tuple(len(c) for c in per) for per in transition_sets)
    return tuple(len(s) for s in transition_sets)


def ref_sizes_p(sizes) -> str:
    """The conf_sizes_P column as it was written from those sizes."""
    parts = []
    for per in sizes:
        if isinstance(per, tuple):
            parts.append(",".join(str(n) for n in per))
        else:
            parts.append(str(per))
    return ";".join(parts)


# ---------------------------------------------------------------------------
# Serializers as they were: one json.dumps of the whole payload, and every
# episodes.csv cell formatted afresh on every row
# ---------------------------------------------------------------------------


def ref_canonical_json(run, include_wallclock: bool = False) -> str:
    """RunResult.canonical_json as it was: the whole payload built, then dumped."""
    eps = []
    for episode, rec in enumerate(run.episodes, 1):
        d = {
            "episode": episode,
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
        if include_wallclock:
            d["wallclock_ms"] = rec.wallclock_ms
        eps.append(d)
    payload = {
        "config": {
            "episodes": run.config.episodes,
            "delta": run.config.delta,
            "mode": run.config.mode.value,
            "seed": run.config.seed,
            "optimism": run.config.optimism.value,
            "beta_scale": run.config.beta_scale,
            "selector_cap": run.config.selector_cap,
        },
        "flags": sorted(run.flags),
        "policies": [p.action_probs.tolist() for p in run.policies],
        "episodes": eps,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


REF_EPISODE_COLUMNS = [
    "seed",
    "episode",
    "instant_regret",
    "cum_regret",
    "conf_sizes_R",
    "conf_sizes_P",
    "beta1",
    "beta2",
    "beta3",
    "flags",
    "wallclock_ms",
]


def _ref_fmt(x) -> str:
    return repr(float(x))


def _ref_sizes_r(rec) -> str:
    return ";".join(str(n) for n in rec.reward_set_sizes)


def _ref_sizes_p(rec) -> str:
    return ";".join(",".join(map(str, np.ravel(n))) for n in rec.transition_set_sizes)


def ref_write_episodes_csv(path, seed: int, run) -> None:
    """harness.write_episodes_csv as it was: every cell of every row formatted afresh."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REF_EPISODE_COLUMNS)
        for episode, rec in enumerate(run.episodes, 1):
            writer.writerow(
                [
                    seed,
                    episode,
                    _ref_fmt(rec.instant_regret),
                    _ref_fmt(rec.cum_regret),
                    _ref_sizes_r(rec),
                    _ref_sizes_p(rec),
                    _ref_fmt(rec.betas[0]),
                    _ref_fmt(rec.betas[1]),
                    _ref_fmt(rec.betas[2]),
                    ";".join(rec.flags),
                    _ref_fmt(rec.wallclock_ms),
                ]
            )


def ref_discriminator_score(targets, disc, sa_counts, halves) -> np.ndarray:
    """estimation._discriminator_score with the quadratic term subtracted out of place."""
    flat_f = disc.reshape(disc.shape[0], -1)
    half = 0.5 * flat_f**2 if halves is None else halves
    quad = half @ sa_counts.reshape(-1)
    flat_t = targets.reshape(-1, flat_f.shape[1])
    scores = flat_t @ flat_f.T - quad[None, :]
    return scores.max(axis=1).reshape(targets.shape[:-2])


# ---------------------------------------------------------------------------
# The truth check as the harness made it on every record's shaped sets
# ---------------------------------------------------------------------------


def ref_truth_in_record(rec, classes: HypothesisClasses) -> bool | None:
    """Whether the designated true candidates survive in every set of this record."""
    for h in range(classes.horizon):
        ri = classes.truth_reward_idx[h]
        if ri is None:
            return None
        if ri not in rec.reward_sets[h]:
            return False
        ti = classes.truth_transition_idx[h]
        per = rec.transition_sets[h]
        if classes.mode is TransitionMode.GENERAL:
            if ti is None:
                return None
            if ti not in per:
                return False
        else:
            for i, idx in enumerate(ti):
                if idx is None:
                    return None
                if idx not in per[i]:
                    return False
    return True


def ref_bare(rec, classes: HypothesisClasses):
    """rec as the references above read it: general mode's one transition family bare."""
    if classes.mode is not TransitionMode.GENERAL:
        return rec
    return dataclasses.replace(rec, transition_sets=tuple(per[0] for per in rec.transition_sets))


def ref_sized(run):
    """run as ref_write_episodes_csv reads it: every record's transition_set_sizes
    lists each family's size per step."""
    return SimpleNamespace(
        episodes=[
            SimpleNamespace(
                **vars(rec),
                reward_set_sizes=rec.reward_set_sizes,
                transition_set_sizes=ref_transition_set_sizes(rec.transition_sets),
            )
            for rec in run.episodes
        ]
    )


# ---------------------------------------------------------------------------
# The mode branches that the transition-family view replaced
# ---------------------------------------------------------------------------

# residual_stack, residual_labels, kernel_index and LossEvaluator.__init__
# each branched on the transition mode before HypothesisClasses grew its
# family builder (now families); kept verbatim so the family view can be compared with
# them bit for bit.


def ref_residual_stack(model, classes, h: int) -> np.ndarray:
    rewards = classes.reward_tables[h]
    n = len(rewards)
    if classes.mode is TransitionMode.GENERAL:
        assert classes.transition_tables is not None and model.transition_kernel is not None
        delta = classes.transition_tables[h] - model.transition_kernel[h]
        targets = classes.value_targets[h + 1]
        stack = np.empty((n + len(delta) * len(targets),) + rewards.shape[1:])
        applied = stack[n:].reshape((len(delta), len(targets)) + rewards.shape[1:])
        np.einsum("psaex,gx->pgsae", delta, targets, out=applied)
    else:
        assert classes.mean_map_tables is not None and model.mean_map is not None
        maps = [per - model.mean_map[h][..., i] for i, per in enumerate(classes.mean_map_tables[h])]
        stack = np.empty((n + sum(len(m) for m in maps),) + rewards.shape[1:])
        np.concatenate(maps, out=stack[n:])
    np.subtract(rewards, model.principal_reward[h], out=stack[:n])
    return stack


def ref_residual_labels(classes, h: int) -> list[str]:
    labels = [f"reward[{j}]" for j in range(len(classes.reward_tables[h]))]
    if classes.mode is TransitionMode.GENERAL:
        assert classes.transition_tables is not None
        targets = range(len(classes.value_targets[h + 1]))
        labels += [
            f"transition[{j}]*value[{g}]"
            for j in range(len(classes.transition_tables[h]))
            for g in targets
        ]
    else:
        assert classes.mean_map_tables is not None
        labels += [
            f"mean_map[{i}][{j}]"
            for i, per in enumerate(classes.mean_map_tables[h])
            for j in range(len(per))
        ]
    return labels


def ref_kernel_radices(classes, h: int) -> tuple[int, ...]:
    if classes.mode is TransitionMode.GENERAL:
        assert classes.transition_tables is not None
        return (len(classes.transition_tables[h]),)
    assert classes.mean_map_tables is not None
    return tuple(len(g) for g in classes.mean_map_tables[h])


def ref_loss_families(classes) -> list[list[SimpleNamespace]]:
    """Per step: the (label, level, predicted, observe) of every loss family."""
    out = []
    for h, rewards in enumerate(classes.reward_tables):
        families = [
            SimpleNamespace(
                label=f"reward-h{h}",
                level="reward",
                predicted=rewards[:, None],
                observe=lambda d: d.reward_sums.sum(axis=-1)[None],
            )
        ]
        if classes.mode is TransitionMode.GENERAL:
            assert classes.transition_tables is not None
            g = classes.value_targets[h + 1]
            families.append(
                SimpleNamespace(
                    label=f"transition-h{h}",
                    level="transition_general",
                    predicted=np.einsum("psaex,gx->pgsae", classes.transition_tables[h], g),
                    observe=lambda d, g=g: np.einsum("sax,gx->gsa", d.next_counts, g),
                )
            )
        else:
            assert classes.mean_map_tables is not None
            families += [
                SimpleNamespace(
                    label=f"mean-map-h{h}-c{i}",
                    level="transition_dynamical",
                    predicted=per[:, None],
                    observe=lambda d, i=i: d.next_sums[..., i].sum(axis=-1)[None],
                )
                for i, per in enumerate(classes.mean_map_tables[h])
            ]
        out.append(families)
    return out


# ---------------------------------------------------------------------------
# The reward class on its own path, beside the transition families
# ---------------------------------------------------------------------------

# Before the reward class became loss family 0, HypothesisClasses._validate
# checked the reward tables by hand and then looped over the transition
# families, and check_realizability had a reward truth clause and a
# transition truth clause of its own. Kept verbatim, except that the
# transition families are families(h)[1:] and the transition cap message
# carries the cap and the family's where, the one message the family loop
# changed.


def ref_validate(classes) -> None:
    H = classes.horizon
    for name in ("truth_reward_idx", "truth_transition_idx"):
        if len(getattr(classes, name)) != H:
            raise ValidationError(f"{name} must have one entry per step ({H})")
    for h in range(H):
        nR = classes.reward_tables[h].shape[0]
        if nR == 0:
            raise ValidationError(f"no reward candidates at step {h}")
        if nR > classes.caps.per_step:
            raise CapacityError(
                f"{nR} reward candidates at step {h} exceed the per-step cap {classes.caps.per_step}"
            )
        lo, hi = classes.reward_tables[h].min(), classes.reward_tables[h].max()
        if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max keep a NaN
            raise ValidationError(f"reward class at step {h} has non-finite entries")
        if lo < -1e-9 or hi > classes.bound + 1e-9:
            raise ValidationError(f"reward candidates at step {h} leave [0, bound]")
        _check_truth_index(classes.truth_reward_idx[h], nR, "reward", f"step {h}")
        for fam in classes.families(h)[1:]:
            n, tables = len(fam.tables), fam.tables
            if n == 0:
                raise ValidationError(f"no {fam.kind} candidates at {fam.where}")
            if n > classes.caps.per_step:
                raise CapacityError(
                    f"{n} {fam.kind} candidates at {fam.where} exceed the per-step cap {classes.caps.per_step}"
                )
            if not np.isfinite(tables).all():
                raise ValidationError(f"{fam.kind} class at {fam.where} has non-finite entries")
            if fam.kernels and (
                np.abs(tables.sum(axis=-1) - 1.0).max() > 1e-9 or tables.min() < -1e-9
            ):
                raise ValidationError(f"{fam.kind} class at {fam.where} has a row that is not a distribution")
            _check_truth_index(fam.truth, n, "transition", fam.where)
    classes._flag_bounds()


def ref_truth_clauses(model, classes) -> tuple[ClauseResult, ClauseResult]:
    """The truth_in_rewards and truth_in_transitions clauses of check_realizability."""
    H = classes.horizon
    r_clause = ClauseResult(True)
    for h in range(H):
        if _first_missing(classes.reward_tables[h], model.principal_reward[h][None]) is not None:
            r_clause = ClauseResult(False, f"true reward missing at step {h}")
            break
        idx = classes.truth_reward_idx[h]
        if idx is not None and not np.array_equal(
            classes.reward_tables[h][idx], model.principal_reward[h]
        ):
            r_clause = ClauseResult(False, f"designated reward index {idx} wrong at step {h}")
            break
    t_clause = ClauseResult(True)
    for h in range(H):
        families = [(fam, fam.true_table(model)) for fam in classes.families(h)[1:]]
        missing = [fam for fam, true in families if _first_missing(fam.tables, true[None]) is not None]
        if missing:
            noun = missing[0].kind.replace("-", " ")
            t_clause = ClauseResult(False, f"true {noun} missing at {missing[0].where}")
            break
        wrong = [
            fam.truth
            for fam, true in families
            if fam.truth is not None and not np.array_equal(fam.tables[fam.truth], true)
        ]
        if wrong:
            t_clause = ClauseResult(False, f"designated transition index {wrong[0]} wrong at step {h}")
            break
    return r_clause, t_clause


# ---------------------------------------------------------------------------
# The vector-state path: every dynamical state located where it is used
# ---------------------------------------------------------------------------

# Before the cell became the state in both modes, a dynamical rollout carried
# the observed vector from step to step and rollout, env_step and
# StepDataset.append_trajectory each located it on the grid again. Kept
# verbatim, except that a step is a RefStep (TrajectoryStep has since grown
# next_cell), the initial vector is computed in place (the deleted
# StrategicModel.initial_state_vector) and the dataset's grid is an argument.


@dataclasses.dataclass(frozen=True)
class RefStep:
    state: int | np.ndarray
    action: int
    feedback: int
    reward: float
    next_state: int | np.ndarray
    hidden: HiddenStep


def ref_env_step(model, h, state, a, rng) -> RefStep:
    _check_index(h, model.horizon, "step")
    _check_index(a, model.num_actions, "action")
    if model.transition_mode is TransitionMode.DYNAMICAL:
        assert model.grid is not None
        state_vec = np.asarray(state, dtype=float)
        s = model.grid.locate(state_vec)
    else:
        _check_index(state, model.num_states, "state")
        s = int(state)

    t = draw_categorical(rng, model.source_type_dist[h])
    b = int(np.argmax(model.agent_reward[h, s, a, t]))
    e = draw_categorical(rng, model.feedback_kernel[h, s, a, t, b])
    noise = rng.standard_normal() * model.reward_noise_std
    shift = float(model.reward_confound[h, t]) + float(noise)
    r = float(model.principal_reward[h, s, a, e]) + shift

    if model.transition_mode is TransitionMode.GENERAL:
        assert model.transition_kernel is not None
        s_next = draw_categorical(rng, model.transition_kernel[h, s, a, e])
    else:
        assert model.mean_map is not None and model.trans_confound is not None
        eta = rng.standard_normal(model.state_dim) * model.trans_noise_scale
        s_next = model.mean_map[h, s, a, e] + model.trans_confound[h, t] + eta

    return RefStep(state, a, e, r, s_next, HiddenStep(t, b))


def ref_rollout(model, policy, rng) -> Trajectory:
    if policy.action_probs.shape != (model.horizon, model.num_states, model.num_actions):
        raise ValidationError("policy shape does not match the model")
    traj = Trajectory()
    if model.transition_mode is TransitionMode.DYNAMICAL:
        state = model.grid.center(model.initial_state)
    else:
        state = model.initial_state
    for h in range(model.horizon):
        if model.transition_mode is TransitionMode.DYNAMICAL:
            assert model.grid is not None
            cell = model.grid.locate(np.asarray(state))
        else:
            cell = int(state)
        a = policy.sample_action(rng, h, cell)
        step = ref_env_step(model, h, state, a, rng)
        traj.steps.append(step)
        state = step.next_state
    return traj


def ref_append_trajectory(dataset, grid, traj: Trajectory) -> None:
    if len(traj) != dataset.horizon:
        raise ValidationError("trajectory length does not match the horizon")
    for h, step in enumerate(traj.steps):
        if dataset.state_dim:
            assert grid is not None
            s = grid.locate(np.asarray(step.state, dtype=float))
            s_next = np.asarray(step.next_state, dtype=float)
        else:
            s = int(step.state)
            s_next = int(step.next_state)
        dataset.append(h, s, step.action, step.feedback, step.reward, s_next)


# ---------------------------------------------------------------------------
# The feedback law and its integration, as every package site spelled them
# ---------------------------------------------------------------------------

# Before model.feedback_mix and model.integrate_feedback, five modules wrote
# their own einsums. Each spelling is kept verbatim below, keyed by its
# subscripts and listing the sites that used it; the references in this file
# call these, never the two package functions. A mix maps (H, T) weights and
# the (H, S, A, T, E) per-type feedback table to (H, S, A, E).


def ref_source_feedback_mix(model: StrategicModel) -> np.ndarray:
    """hypotheses.source_feedback_mix as it was, on the model's own per-type table."""
    return np.einsum("ht,hsate->hsae", model.source_type_dist, ref_feedback_by_type(model))


def ref_target_feedback_mix(knowledge: LearnerKnowledge) -> np.ndarray:
    """LearnerKnowledge.feedback_mix as it was."""
    return np.einsum("ht,hsate->hsae", knowledge.target_type_dist, knowledge.feedback_by_type)


def ref_source_projection(kappa_h: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """hypotheses.source_projection as it was."""
    return np.einsum("sae,...sae->...sa", kappa_h, nu)


REF_FEEDBACK_MIXES = {
    # LearnerKnowledge.feedback_mix, source_feedback_mix, true_aggregated_model
    # and naive_baseline (the confound-weighted mix and the source law)
    "ht,hsate->hsae": lambda dist, fb: np.einsum("ht,hsate->hsae", dist, fb),
    # ill_posedness (the source law) and transfer_term (the target and the
    # source laws), one step at a time
    "t,sate->sae": lambda dist, fb: np.stack(
        [np.einsum("t,sate->sae", dist[h], fb[h]) for h in range(len(dist))]
    ),
}

# An integration maps (S, A, E) weights and a table of one of the listed ranks
# to the table's leading axes followed by (S, A).
REF_FEEDBACK_INTEGRATIONS = {
    # source_projection: close_classes and check_realizability
    "sae,...sae->...sa": ((3, 4, 5), lambda w, table: np.einsum("sae,...sae->...sa", w, table)),
    # ill_posedness (the projection and the second moment), transfer_term
    # (both moments) and CandidateAggregates.from_classes (the mean maps)
    "sae,nsae->nsa": ((4,), lambda w, table: np.einsum("sae,nsae->nsa", w, table)),
    # CandidateAggregates.from_classes (the rewards)
    "sae,rsae->rsa": ((4,), lambda w, table: np.einsum("sae,rsae->rsa", w, table)),
    # family_losses, the sample counts second
    "ngsae,sae->ngsa": ((5,), lambda w, table: np.einsum("ngsae,sae->ngsa", table, w)),
}


# ---------------------------------------------------------------------------
# Tools only the tests use, kept verbatim from the package
# ---------------------------------------------------------------------------


def aggregate(
    reward_table: np.ndarray,
    transition_table: np.ndarray,
    knowledge: LearnerKnowledge,
    initial_state: int,
) -> AggregatedMDP:
    """Average feedback out of full-horizon candidate tables (general mode).

    reward_table is (H, S, A, E) and transition_table is (H, S, A, E, S).
    """
    w = ref_target_feedback_mix(knowledge)
    rewards = np.einsum("hsae,hsae->hsa", w, reward_table)
    transitions = np.einsum("hsae,hsaex->hsax", w, transition_table)
    return AggregatedMDP(rewards, transitions, initial_state)


def mixture_value(policies: list[Policy], oracle: AggregatedMDP) -> float:
    """Exact value on the evaluation oracle of the uniform mixture over policies."""
    H = oracle.rewards.shape[0]
    for comp in policies:
        if comp.action_probs.shape[0] != H:
            raise ConfigError("mixture component horizon does not match the oracle")
    vals = [policy_value(oracle, comp) for comp in policies]
    return float(np.mean(vals))


def occupancy_mse(occ: OccupancyTable, h: int, nu: np.ndarray) -> float:
    """Mean square of a (state, action, feedback) function under the occupancy."""
    return float(np.sum(occ.joints[h] * nu * nu))


def _draw_categorical_rows(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF sampling, one draw per row of (n, m) probabilities."""
    cum = np.cumsum(rows, axis=1)
    u = rng.random(rows.shape[0])
    idx = (cum > u[:, None]).argmax(axis=1)
    # argmax of an all-False row is 0; map rounding leftovers to the last index
    bad = cum[:, -1] <= u
    idx[bad] = rows.shape[1] - 1
    return idx


def sample_step_batch(
    model: StrategicModel, h: int, s: int, a: int, rng: np.random.Generator, n: int
) -> dict[str, np.ndarray]:
    """Draw n independent step outcomes at a fixed (h, s, a), vectorized.

    Samples the same per-step law as env_step but with a batched draw layout,
    so it is not pathwise-aligned with repeated env_step calls. Intended for
    Monte-Carlo checks. In dynamical mode s is a cell index and states are
    taken at the cell center.
    """
    _check_index(h, model.horizon, "step")
    _check_index(s, model.num_states, "state")
    _check_index(a, model.num_actions, "action")
    types = _draw_categorical_rows(rng, np.tile(model.source_type_dist[h], (n, 1)))
    br = best_response_table(model)[h, s, a]  # (T,)
    bs = br[types]
    feed_rows = model.feedback_kernel[h, s, a, types, bs]
    es = _draw_categorical_rows(rng, feed_rows)
    noise = rng.standard_normal(n) * model.reward_noise_std
    shifts = model.reward_confound[h, types] + noise
    rewards = model.principal_reward[h, s, a, es] + shifts
    out = {"types": types, "agent_actions": bs, "feedbacks": es, "rewards": rewards}
    if model.transition_mode is TransitionMode.GENERAL:
        assert model.transition_kernel is not None
        rows = model.transition_kernel[h, s, a, es]
        out["next_states"] = _draw_categorical_rows(rng, rows)
    else:
        assert model.mean_map is not None and model.trans_confound is not None
        eta = rng.standard_normal((n, model.state_dim)) * model.trans_noise_scale
        out["next_states"] = model.mean_map[h, s, a, es] + model.trans_confound[h, types] + eta
    return out


# ---------------------------------------------------------------------------
# The config parser as it was: a key set per section, one line per key
# ---------------------------------------------------------------------------

# Before one table declared every config key, each key was spelled out in a
# key set, a hand-written parse line carrying its default and rule, and a
# keyword of the final constructor call. Kept verbatim but for the two seed
# checks, which now refuse a seed of 2**64 or more: the package's parser must
# give an equal ScenarioConfig or the same ValidationError text, except that a
# falsy non-mapping environment.params is no longer read as {}.

_OPTIMISM = tuple(m.value for m in SelectionMode)

_TOP_KEYS = {"environment", "classes", "run", "diagnostics", "output", "workers"}
_ENV_KEYS = {"generator", "seed", "params"}
_CLASS_KEYS = {"per_step_cap", "joint_cap"}
_RUN_KEYS = {
    "episodes",
    "delta",
    "beta_scale",
    "optimism",
    "seeds",
    "evaluation_cadence",
    "strict_realizability",
    "selector_cap",
}
_DIAG_KEYS = {"regret", "naive_baseline", "ill_posedness", "transfer", "policy_budget"}
_OUT_KEYS = {"root", "label"}


def _section(data: dict, name: str, violations: list[str]) -> dict:
    sec = data.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        violations.append(f"{name}: must be a mapping")
        return {}
    return sec


def _check_keys(sec: dict, allowed: set, prefix: str, violations: list[str]) -> None:
    for key in sec:
        if key not in allowed:
            violations.append(f"{prefix}.{key}: unknown key")


def _as_int(sec: dict, key: str, default: int, lo: int, prefix: str, violations: list[str]) -> int:
    val = sec.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or val < lo:
        violations.append(f"{prefix}.{key}: must be an integer of at least {lo}, got {val!r}")
        return default
    return val


def _as_bool(sec: dict, key: str, default: bool, prefix: str, violations: list[str]) -> bool:
    val = sec.get(key, default)
    if not isinstance(val, bool):
        violations.append(f"{prefix}.{key}: expected a boolean, got {val!r}")
        return default
    return val


def ref_config_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed mapping; raises one ValidationError listing every issue."""
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError("config root must be a mapping")
    for key in data:
        if key not in _TOP_KEYS:
            violations.append(f"{key}: unknown section")

    env = _section(data, "environment", violations)
    _check_keys(env, _ENV_KEYS, "environment", violations)
    generator = env.get("generator")
    if not isinstance(generator, str) or not generator:
        violations.append("environment.generator: required, must be a scenario name")
        generator = ""
    elif generator not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        violations.append(f"environment.generator: unknown scenario {generator!r} (known: {known})")
    generator_seed = env.get("seed", 0)  # a seed is 64 bits, what make_rng takes
    if not isinstance(generator_seed, int) or isinstance(generator_seed, bool) or not 0 <= generator_seed < 2**64:
        violations.append(f"environment.seed: must be an integer of at least 0 and below 2**64, got {generator_seed!r}")
        generator_seed = 0
    params = env.get("params", {}) or {}
    if not isinstance(params, dict):
        violations.append("environment.params: must be a mapping")
        params = {}

    cls = _section(data, "classes", violations)
    _check_keys(cls, _CLASS_KEYS, "classes", violations)
    per_step_cap = _as_int(cls, "per_step_cap", DEFAULT_PER_STEP_CAP, 1, "classes", violations)
    joint_cap = _as_int(cls, "joint_cap", DEFAULT_JOINT_CAP, 1, "classes", violations)

    run = _section(data, "run", violations)
    _check_keys(run, _RUN_KEYS, "run", violations)
    episodes = _as_int(run, "episodes", 100, 1, "run", violations)
    delta = run.get("delta", 0.1)
    if not isinstance(delta, (int, float)) or isinstance(delta, bool) or not 0 < delta < 1:
        violations.append(f"run.delta: must lie strictly between 0 and 1, got {delta!r}")
        delta = 0.1
    beta_scale = run.get("beta_scale", 1.0)
    if (
        not isinstance(beta_scale, (int, float))
        or isinstance(beta_scale, bool)
        or not math.isfinite(beta_scale)
        or beta_scale <= 0
    ):
        violations.append(f"run.beta_scale: must be finite and positive, got {beta_scale!r}")
        beta_scale = 1.0
    optimism = run.get("optimism", "exact")
    if optimism not in _OPTIMISM:
        violations.append(f"run.optimism: must be one of {_OPTIMISM}, got {optimism!r}")
        optimism = "exact"
    seeds = run.get("seeds", [0])
    if (
        not isinstance(seeds, list)
        or not seeds
        or any(not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in seeds)
    ):
        violations.append(
            f"run.seeds: must be a nonempty list of nonnegative integers, got {seeds!r}"
        )
        seeds = [0]
    elif any(s >= 2**64 for s in seeds):
        first = next(s for s in seeds if s >= 2**64)
        violations.append(f"run.seeds: each seed must be an integer of at least 0 and below 2**64, got {first!r}")
    elif len(set(seeds)) != len(seeds):
        dups = sorted({s for s in seeds if seeds.count(s) > 1})
        violations.append(f"run.seeds: duplicate seeds {dups}")
    evaluation_cadence = _as_int(run, "evaluation_cadence", 50, 1, "run", violations)
    strict = _as_bool(run, "strict_realizability", False, "run", violations)
    selector_cap = _as_int(run, "selector_cap", DEFAULT_SELECTOR_CAP, 1, "run", violations)

    dg = _section(data, "diagnostics", violations)
    _check_keys(dg, _DIAG_KEYS, "diagnostics", violations)
    diagnostics = DiagnosticsConfig(
        regret=_as_bool(dg, "regret", True, "diagnostics", violations),
        naive_baseline=_as_bool(dg, "naive_baseline", True, "diagnostics", violations),
        ill_posedness=_as_bool(dg, "ill_posedness", False, "diagnostics", violations),
        transfer=_as_bool(dg, "transfer", False, "diagnostics", violations),
        policy_budget=_as_int(dg, "policy_budget", DEFAULT_POLICY_BUDGET, 1, "diagnostics", violations),
    )

    out = _section(data, "output", violations)
    _check_keys(out, _OUT_KEYS, "output", violations)
    root = out.get("root", "runs")
    if not isinstance(root, str) or not root:
        violations.append(f"output.root: must be a nonempty string, got {root!r}")
        root = "runs"
    label = out.get("label")
    if label is not None and not isinstance(label, str):
        violations.append(f"output.label: must be a string, got {label!r}")
        label = None

    workers = data.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        violations.append(f"workers: must be an integer of at least 1, got {workers!r}")
        workers = 1

    if violations:
        raise ValidationError(
            "invalid config (" + str(len(violations)) + " issue(s)):\n  - "
            + "\n  - ".join(violations)
        )
    return ScenarioConfig(
        generator=generator,
        generator_seed=generator_seed,
        generator_params=params,
        per_step_cap=per_step_cap,
        joint_cap=joint_cap,
        episodes=episodes,
        delta=float(delta),
        beta_scale=float(beta_scale),
        optimism=optimism,
        seeds=list(seeds),
        evaluation_cadence=evaluation_cadence,
        strict_realizability=strict,
        selector_cap=selector_cap,
        diagnostics=diagnostics,
        output=OutputConfig(root=root, label=label),
        workers=workers,
        raw=data,
    )

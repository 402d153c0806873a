"""Ground-truth-aware oracles: the true law, occupancies, regret, identifiability measures.

Everything here may read environment internals; none of it feeds back into
learning decisions. The true law, cached on the model, is its per-type
feedback table and one set of per-step next-state kernels (_step_kernels),
read by the aggregated MDP of regret and by occupancy(), the one forward DP.
The two identifiability measures are worst-case ratios over candidate
residuals and blocks of enumerated policies:

  ill_posedness    max MSE / projected-MSE under the source occupancy, i.e.
                   how much resolution the (state, action) instrument loses
                   when the feedback dimension is averaged out;
  transfer_term    max target-MSE / source-MSE, a concentrability coefficient
                   between the two populations.

Both quantify over deterministic Markov policies, exhaustively up to a budget
and by uniform sampling beyond it (flagged as a lower-bound estimate).
Infinite values are explicit flags with witnesses, never sentinel floats.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .estimation import StepDataset
from .hypotheses import HypothesisClasses, residual_labels, residual_stack
from .model import (
    COUNT,
    LearnerKnowledge,
    Policy,
    StrategicModel,
    TransitionMode,
    _check_index,
    as_table,
    check_dims,
    feedback_mix,
    integrate_feedback,
    make_rng,
)
from .planning import AggregatedMDP, discretize_gaussian, policy_value, value_iteration

JENSEN_TOL = 1e-9
# The most deterministic policies a ratio oracle enumerates before it samples.
DEFAULT_POLICY_BUDGET = 4096
# Policy tables a ratio oracle runs through the occupancy DP at once; it bounds
# the (block, S, A, T, E) temporaries, not the results.
POLICY_BLOCK = 128


# ---------------------------------------------------------------------------
# The true law and occupancy
# ---------------------------------------------------------------------------


def _step_kernels(env: StrategicModel) -> tuple[np.ndarray, ...]:
    """Read-only next-state laws of the H steps; they depend on neither policy
    nor population. StrategicModel.step_kernels builds them once per model.

    General mode: the (S, A, E, S) transition tables. Dynamical mode: the
    (T, S, A, E, C) cell masses of every type's shifted mean.
    """
    if env.transition_mode is TransitionMode.GENERAL:
        assert env.transition_kernel is not None
        return tuple(env.transition_kernel)
    assert env.mean_map is not None and env.trans_confound is not None and env.grid is not None
    means = [env.mean_map[h][None] + env.trans_confound[h][:, None, None, None, :] for h in range(env.horizon)]
    return tuple(as_table(discretize_gaussian(m, env.grid, env.trans_noise_scale), None, "step kernel") for m in means)


def _push(weights: np.ndarray, kernel: np.ndarray, out: str) -> np.ndarray:
    """Next-state mass of (..., S, A, T, E) per-type weights under one step kernel,
    on the leading axes and the `out` axes of s, a and x. A general (S, A, E, S)
    kernel has no type axis, so the types are summed out first."""
    if kernel.ndim == 4:
        return np.einsum(f"...sae,saex->...{out}", weights.sum(axis=-2), kernel)
    return np.einsum(f"...sate,tsaex->...{out}", weights, kernel)


def _type_dist(env: StrategicModel, type_dist: np.ndarray | None, default: np.ndarray) -> np.ndarray:
    """A given type_dist checked to be an (H, T) table of distributions, else default."""
    if type_dist is None:
        return default
    return as_table(type_dist, (env.horizon, env.num_types), "type_dist", rows=True)


def true_aggregated_model(model: StrategicModel, type_dist: np.ndarray | None = None) -> AggregatedMDP:
    """Aggregated MDP of the true environment under a type distribution, by default the target.

    Each (state, action) moves by the (type, feedback) mixture of the step
    kernels, the simulator's own next-cell law. The rewards leave out the
    population mean of the reward confound, one constant per step (-0.08 on
    dyn-1d, -0.09 on recsys-small under the target): it shifts the optimal
    value but never regret. An evaluation oracle the learner cannot call. A
    given type_dist must be an (H, T) table of distributions.
    """
    dist = _type_dist(model, type_dist, model.target_type_dist)
    fb = model.feedback_by_type  # (H, S, A, T, E)
    rewards = np.einsum("hsae,hsae->hsa", feedback_mix(dist, fb), model.principal_reward)
    weights = dist[:, None, None, :, None] * fb
    transitions = [_push(weights[h], k, "sax") for h, k in enumerate(model.step_kernels)]
    return AggregatedMDP(rewards, transitions, model.initial_state)


@dataclass
class OccupancyTable:
    """Exact per-step distributions induced by a policy and a type population.

    joints[h] is the (..., S, A, E) distribution of (state, action, feedback),
    with the leading axes of the action tables; marginals follow by
    summation. A state is its grid cell in dynamical mode, so the table is
    exact in both modes and flags stays empty.
    """

    joints: list[np.ndarray]
    flags: tuple[str, ...] = ()


def occupancy(
    env: StrategicModel, policy: Policy | np.ndarray, type_dist: np.ndarray | None = None
) -> OccupancyTable:
    """Forward dynamic program for the joint (state, action, feedback) law.

    policy is a Policy or a (..., steps, S, A) stack of action tables whose
    leading axes index policies run side by side; the DP runs steps <= H
    steps. type_dist defaults to the source population; a given one must be
    an (H, T) table of distributions. The next-state step averages the true
    transitions consistently with the same population.
    """
    dist = _type_dist(env, type_dist, env.source_type_dist)
    probs = as_table(policy.action_probs if isinstance(policy, Policy) else policy, None, "policy", finite=False)
    stack = (None,) * (probs.ndim - 3) + ("steps", env.num_states, env.num_actions)
    probs = as_table(probs, stack, "policy", rows=True)
    steps = probs.shape[-3]
    if steps > env.horizon:
        raise ValidationError(f"policy runs {steps} steps, past the horizon {env.horizon}")
    fb = env.feedback_by_type
    d = np.zeros(probs.shape[:-3] + (env.num_states,))
    d[..., env.initial_state] = 1.0
    joints: list[np.ndarray] = []
    for h in range(steps):
        sa = d[..., None] * probs[..., h, :, :]  # (..., S, A)
        per_type = sa[..., None, None] * dist[h][:, None] * fb[h]  # (..., S, A, T, E)
        joint = per_type.sum(axis=-2)
        joints.append(joint)
        totals = joint.sum(axis=(-3, -2, -1))
        worst = totals.flat[np.argmax(np.abs(totals - 1.0))]
        if abs(worst - 1.0) > 1e-9:
            raise ValidationError(f"occupancy at step {h} sums to {worst}")
        if h + 1 < steps:
            d = _push(per_type, env.step_kernels[h], "x")
    return OccupancyTable(joints)


# ---------------------------------------------------------------------------
# Policy enumeration
# ---------------------------------------------------------------------------


def deterministic_policy_tables(
    num_states: int,
    num_actions: int,
    steps: int,
    budget: int,
) -> tuple[np.ndarray, bool]:
    """All deterministic (steps, S) action tables, or a uniform sample of budget many (seed 0),
    as one (N, steps, S) array of the smallest unsigned dtype that holds num_actions - 1.

    Returns (tables, sampled). Exhaustive enumeration is used exactly when
    num_actions ** (num_states * steps) fits the budget; it counts in base
    num_actions with the last cell fastest, the order of itertools.product.
    """
    COUNT.check(budget, "policy budget", ConfigError)
    cells = num_states * steps
    total = num_actions**cells
    dtype = np.min_scalar_type(num_actions - 1)
    if total <= budget:
        digits = np.arange(total)[:, None] // num_actions ** np.arange(cells - 1, -1, -1) % num_actions
        return digits.astype(dtype).reshape(total, steps, num_states), False
    # drawn POLICY_BLOCK tables at a time, which reads the generator's stream as one draw per table does
    rng, tables = make_rng(0), np.empty((budget, steps, num_states), dtype)
    for start in range(0, budget, POLICY_BLOCK):
        block = tables[start : start + POLICY_BLOCK]
        block[...] = rng.integers(num_actions, size=block.shape)
    return tables, True


# ---------------------------------------------------------------------------
# Identifiability measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticWitness:
    residual: str
    policy_actions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RatioResult:
    """Worst-case ratio together with the witness that attains it.

    value is None exactly when infinite is set; degenerate marks the
    all-residuals-zero case (value 1 by convention); lower_bound_estimate
    marks sampled policy enumeration.
    """

    value: float | None
    infinite: bool
    degenerate: bool
    lower_bound_estimate: bool
    witness: DiagnosticWitness | None
    num_policies: int
    num_residuals: int

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "infinite": self.infinite,
            "degenerate": self.degenerate,
            "lower_bound_estimate": self.lower_bound_estimate,
            "witness": None
            if self.witness is None
            else {
                "residual": self.witness.residual,
                "policy_actions": [list(r) for r in self.witness.policy_actions],
            },
            "num_policies": self.num_policies,
            "num_residuals": self.num_residuals,
        }


def _ratio_oracle(
    env: StrategicModel,
    classes: HypothesisClasses,
    h: int,
    policy_budget: int,
    moments: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    num_dist: np.ndarray,
    jensen: bool,
) -> RatioResult:
    """Largest ratio num / den at step h over nonzero residuals and policy tables, with its witness.

    moments maps the (n, S, A, E) nonzero residuals to (n, S, A) weights num
    and den, integrated against the step-h (state, action) occupancy of each
    table under num_dist and the source population respectively; the
    occupancies come from one occupancy() call per POLICY_BLOCK tables. A zero denominator under a positive
    numerator is an infinite result at the first such table and residual;
    ties go to the first table, then the first residual. With jensen set,
    every pair is checked for the denominator never exceeding the numerator.
    """
    check_dims(model=env.dims, classes=classes.dims)
    _check_index(h, env.horizon, "step")
    stack = residual_stack(env, classes, h)
    rows = np.flatnonzero(np.any(stack.reshape(len(stack), -1) != 0.0, axis=1))
    tables, sampled = deterministic_policy_tables(env.num_states, env.num_actions, h + 1, policy_budget)
    N, n = len(tables), rows.size
    if n == 0:
        return RatioResult(1.0, False, True, sampled, None, N, 0)
    num, den = (m.reshape(n, -1) for m in moments(stack[rows]))
    den_dist = env.source_type_dist
    eye = np.eye(env.num_actions)
    top, bottom = np.empty((N, n)), np.empty((N, n))
    for start in range(0, N, POLICY_BLOCK):
        block = eye[tables[start : start + POLICY_BLOCK]]  # (B, h + 1, S, A)
        block.setflags(write=False)  # taken by the table rule without a copy
        part = slice(start, start + len(block))
        occ = [  # (B, S * A) occupancies at step h; one DP when both populations agree
            occupancy(env, block, dist).joints[-1].sum(axis=-1).reshape(len(block), -1)
            for dist in ([den_dist] if num_dist is den_dist else [den_dist, num_dist])
        ]
        # a stacked mat-vec per table: a gemm over the block would change the bits
        top[part] = np.matmul(num, occ[-1][..., None])[..., 0]
        bottom[part] = np.matmul(den, occ[0][..., None])[..., 0]
    if jensen and np.any(bottom > top + JENSEN_TOL):
        raise ValidationError("projected MSE exceeded MSE; occupancy inconsistency")
    valid = bottom != 0.0
    infinite = ~valid & (top > 0.0)
    if np.any(infinite):
        at, value = int(np.argmax(infinite)), None
    elif np.any(valid):
        ratios = np.divide(top, bottom, out=np.full((N, n), -np.inf), where=valid)
        at = int(np.argmax(ratios))
        value = float(ratios.flat[at])
    else:
        return RatioResult(1.0, False, True, sampled, None, N, n)
    i, j = divmod(at, n)
    witness = DiagnosticWitness(residual_labels(classes, h)[rows[j]], tuple(map(tuple, tables[i].tolist())))
    return RatioResult(value, value is None, False, sampled, witness, N, n)


def ill_posedness(
    env: StrategicModel,
    classes: HypothesisClasses,
    h: int,
    policy_budget: int = DEFAULT_POLICY_BUDGET,
) -> RatioResult:
    """Worst-case MSE over projected MSE at step h under the source population.

    Residuals range over candidate rewards minus truth and candidate
    transitions minus truth applied to next-step value targets (mean-map
    differences in dynamical mode). Policies are deterministic Markov over
    steps up to h. Every evaluated pair is checked for the projected MSE
    never exceeding the MSE.
    """

    def moments(nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kappa = feedback_mix(env.source_type_dist, env.feedback_by_type)[h]
        proj = integrate_feedback(kappa, nus)
        return integrate_feedback(kappa, nus * nus), proj * proj  # second moment, squared mean

    return _ratio_oracle(env, classes, h, policy_budget, moments, env.source_type_dist, jensen=True)


def transfer_term(
    env: StrategicModel,
    classes: HypothesisClasses,
    h: int,
    policy_budget: int = DEFAULT_POLICY_BUDGET,
) -> RatioResult:
    """Worst-case target-MSE over source-MSE at step h, same enumeration scheme."""

    def moments(nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fb = env.feedback_by_type
        tgt, src = (feedback_mix(dist, fb)[h] for dist in (env.target_type_dist, env.source_type_dist))
        return integrate_feedback(tgt, nus * nus), integrate_feedback(src, nus * nus)

    return _ratio_oracle(env, classes, h, policy_budget, moments, env.target_type_dist, jensen=False)


# ---------------------------------------------------------------------------
# Naive confounded baseline
# ---------------------------------------------------------------------------


@dataclass
class NaiveBaselineReport:
    """Cell-wise reward regression on realized feedback, and its exact bias.

    empirical_bias[h, s, a, e] is the average observed reward in that cell
    (NaN when unvisited) minus the true reward table. The
    population bias is the exact conditional mean of the reward shift given
    the cell, computed from environment internals; it is what the empirical
    bias converges to, and is nonzero wherever feedback correlates with type.
    """

    counts: np.ndarray
    empirical_bias: np.ndarray
    population_bias: np.ndarray
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        def clean(arr: np.ndarray) -> list:
            return np.where(np.isnan(arr), None, arr.round(12)).tolist()

        return {
            "counts": self.counts.astype(int).tolist(),
            "empirical_bias": clean(self.empirical_bias),
            "population_bias": clean(self.population_bias),
            "flags": list(self.flags),
        }


def naive_baseline(dataset: StepDataset, env: StrategicModel) -> NaiveBaselineReport:
    """Average reward per (h, s, a, e) cell versus the true reward table."""
    shape = (dataset.horizon, dataset.num_states, dataset.num_actions, dataset.num_feedbacks)
    if shape != env.dims:
        raise ValidationError(f"dataset has (H, S, A, E) = {shape}, the model {env.dims}")
    counts = np.stack([step.counts for step in dataset.steps])
    sums = np.stack([step.reward_sums for step in dataset.steps])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    empirical_bias = mean - env.principal_reward
    weighted = feedback_mix(env.source_type_dist * env.reward_confound, env.feedback_by_type)
    kappa = feedback_mix(env.source_type_dist, env.feedback_by_type)
    with np.errstate(invalid="ignore", divide="ignore"):
        population_bias = np.where(kappa > 0, weighted / np.maximum(kappa, 1e-300), np.nan)
    empty = int(np.sum(counts == 0))
    flags = (f"empty-cells:{empty}",) if empty else ()
    return NaiveBaselineReport(
        counts=counts,
        empirical_bias=empirical_bias,
        population_bias=population_bias,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------


@dataclass
class RegretCurve:
    optimal_value: float
    instant: np.ndarray
    cumulative: np.ndarray
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "optimal_value": self.optimal_value,
            "instant": [float(x) for x in self.instant],
            "cumulative": [float(x) for x in self.cumulative],
            "flags": list(self.flags),
        }


def regret_curve(run, env: StrategicModel, knowledge: LearnerKnowledge) -> RegretCurve:
    """Exact per-episode regret against the optimal aggregated target value.

    Sets the run's two regret columns and returns the series. Raises if any
    instantaneous regret is below -1e-9.
    """
    oracle = true_aggregated_model(env)
    plan = value_iteration(oracle)
    vstar = plan.value_at_initial
    # One value per policy: the initial one, then each entry's, which the episode after it plays.
    values = np.array([policy_value(oracle, p) for p in (run.initial_policy, *run.committed)])
    inst = vstar - values[[0, *(i + 1 for i in run.entry_index[:-1])]]
    if inst.size and inst.min() < -1e-9:
        raise ValidationError(f"negative regret {inst.min()} against the optimal value")
    cum = np.cumsum(inst)
    run.instant_regret, run.cum_regret = inst.tolist(), cum.tolist()
    return RegretCurve(optimal_value=vstar, instant=inst, cumulative=cum)

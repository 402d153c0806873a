"""Planning: aggregation, backward induction, Gaussian grids, optimistic search."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategicmdp import (
    AggregatedMDP,
    CandidateAggregates,
    CapacityError,
    ConfigError,
    Grid,
    HypothesisClasses,
    InvalidIndexError,
    LearnerKnowledge,
    Policy,
    SelectionMode,
    TransitionMode,
    ValidationError,
    build_scenario,
    discretize_gaussian,
    evaluate_policy,
    optimistic_select,
    planning,
    policy_value,
    true_aggregated_model,
    value_iteration,
)
from strategicmdp.hypotheses import enumerate_suffix_values
from strategicmdp.planning import joint_backup

from helpers import (
    aggregate,
    all_action_tables,
    brute_force_optimum,
    eval_table_recursive,
    ref_joint_backup,
    ref_mixed_kernels,
    ref_model_kernels,
    ref_models,
    tiny_general,
)
from test_hypotheses import KEY_VALUES


def one_step_knowledge():
    # two types with type-separating deterministic feedback, mixed half and half
    return LearnerKnowledge(
        target_type_dist=np.array([[0.5, 0.5]]),
        feedback_by_type=np.array([[[[[1.0, 0.0], [0.0, 1.0]]]]]),
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_hand_example():
    kn = one_step_knowledge()
    reward = np.array([[[[0.8, 0.0]]]])
    trans = np.ones((1, 1, 1, 2, 1))
    mdp = aggregate(reward, trans, kn, 0)
    np.testing.assert_allclose(mdp.rewards[0, 0, 0], 0.4, atol=1e-12)
    np.testing.assert_allclose(mdp.transitions[0, 0, 0], [1.0], atol=1e-12)


def test_aggregate_truth_matches_oracle():
    model = tiny_general()
    kn = LearnerKnowledge.from_model(model)
    via_tables = aggregate(
        model.principal_reward, model.transition_kernel, kn, model.initial_state
    )
    oracle = true_aggregated_model(model)
    np.testing.assert_allclose(via_tables.rewards, oracle.rewards, atol=1e-12)
    np.testing.assert_allclose(via_tables.transitions, oracle.transitions, atol=1e-12)


def test_true_aggregated_model_depends_on_type_dist():
    model = tiny_general(source=(0.6, 0.4), target=(0.2, 0.8))
    tgt = true_aggregated_model(model)
    src = true_aggregated_model(model, model.source_type_dist)
    assert np.abs(tgt.rewards - src.rewards).max() > 1e-3


def test_aggregated_mdp_validation():
    with pytest.raises(ValidationError):
        AggregatedMDP(np.zeros((1, 2, 2)), np.zeros((1, 2, 2, 3)), 0)
    bad = np.full((1, 2, 2, 2), 0.4)
    with pytest.raises(ValidationError):
        AggregatedMDP(np.zeros((1, 2, 2)), bad, 0)


@pytest.mark.parametrize("initial_state", [0.5, 1.0, True, "0", -1, 2])
def test_aggregated_mdp_refuses_an_initial_state_that_is_not_a_state_index(initial_state):
    """0.5 constructed and value_iteration then raised a bare IndexError."""
    with pytest.raises(InvalidIndexError, match="initial state index"):
        AggregatedMDP(np.zeros((1, 2, 2)), np.full((1, 2, 2, 2), 0.5), initial_state)


@pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2), ()])
def test_aggregated_mdp_refuses_rewards_that_are_not_h_s_a(shape):
    """2-D rewards raised "not enough values to unpack"."""
    with pytest.raises(ValidationError, match=r"expected \(H, S, A\)"):
        AggregatedMDP(np.zeros(shape), np.full((1, 2, 2, 2), 0.5), 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_aggregated_mdp_rejects_non_finite_transitions(value):
    kernels = np.full((1, 2, 2, 2), 0.5)
    kernels[0, 1, 0] = (value, 0.5)
    with pytest.raises(ValidationError, match="^aggregated transition table has non-finite entries$"):
        AggregatedMDP(np.zeros((1, 2, 2)), kernels, 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_value_iteration_refuses_non_finite_rewards(value):
    """A NaN reward at the initial state gave a NaN value, unflagged."""
    rewards = np.zeros((1, 2, 2))
    rewards[0, 0, 1] = value
    with pytest.raises(ValidationError, match="^aggregated reward table has non-finite entries$"):
        value_iteration(AggregatedMDP(rewards, np.full((1, 2, 2, 2), 0.5), 0))


# ---------------------------------------------------------------------------
# Backward induction against brute force
# ---------------------------------------------------------------------------


def test_value_iteration_one_step_hand_case():
    mdp = AggregatedMDP(np.array([[[1.0, 2.0]]]), np.ones((1, 1, 2, 1)), 0)
    plan = value_iteration(mdp)
    assert plan.value_at_initial == 2.0
    assert plan.policy.action_probs[0, 0, 1] == 1.0
    np.testing.assert_allclose(policy_value(mdp, Policy.uniform(1, 1, 2)), 1.5)


def test_value_iteration_tie_picks_lowest_action():
    mdp = AggregatedMDP(np.full((1, 1, 3), 0.7), np.ones((1, 1, 3, 1)), 0)
    plan = value_iteration(mdp)
    assert plan.policy.action_probs[0, 0, 0] == 1.0


@pytest.mark.parametrize("maker", ["tiny", "contract"])
def test_value_iteration_matches_enumeration(maker):
    if maker == "tiny":
        mdp = true_aggregated_model(tiny_general())
    else:
        mdp = true_aggregated_model(build_scenario("contract-small").model)
    best, _ = brute_force_optimum(mdp.rewards, mdp.transitions, mdp.initial_state)
    plan = value_iteration(mdp)
    assert abs(plan.value_at_initial - best) <= 1e-9
    # the greedy policy attains the optimum
    assert abs(policy_value(mdp, plan.policy) - best) <= 1e-9


def test_evaluate_policy_matches_recursion():
    mdp = true_aggregated_model(tiny_general())
    for actions in itertools.islice(all_action_tables(2, 2, 2), 6):
        pol = Policy.deterministic(actions, 2)
        want = eval_table_recursive(mdp.rewards, mdp.transitions, actions, 0, 0)
        np.testing.assert_allclose(evaluate_policy(mdp, pol)[0, 0], want, atol=1e-12)


# ---------------------------------------------------------------------------
# Gaussian discretization
# ---------------------------------------------------------------------------


def test_discretize_gaussian_rows_sum_to_one():
    grid = Grid((-1.0,), (1.0,), (5,))
    means = np.linspace(-2.0, 2.0, 7)[:, None]
    mass = discretize_gaussian(means, grid, 0.6)
    assert mass.shape == (7, 5)
    np.testing.assert_allclose(mass.sum(axis=-1), 1.0, atol=1e-12)
    assert mass.min() >= 0


def test_discretize_gaussian_zero_scale():
    grid = Grid((-1.0,), (1.0,), (4,))
    mass = discretize_gaussian(np.array([[0.3], [-5.0]]), grid, 0.0)
    np.testing.assert_array_equal(mass[0], [0, 0, 1, 0])
    np.testing.assert_array_equal(mass[1], [1, 0, 0, 0])


@pytest.mark.parametrize(
    "mean, scale", [(0.0, -1.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 0.3), (math.nan, 0.0)]
)
def test_discretize_gaussian_refuses_a_bad_scale_or_a_nan_mean(mean, scale):
    """On the dyn-1d grid scale -1 gave masses down to -0.22, an infinite
    scale half the mass in each boundary cell, a NaN scale or mean NaN
    masses, and a NaN mean at zero scale a bare IndexError."""
    grid = build_scenario("dyn-1d").model.grid
    with pytest.raises(ValidationError, match="scale|non-finite"):
        discretize_gaussian(np.full((2, 1), mean), grid, scale)


def test_from_classes_refuses_knowledge_with_a_negative_noise_scale():
    """A hand-built knowledge with scale -0.35 gave dyn-1d kernels with entries
    down to -0.57, which the value closure used unchecked."""
    scenario = build_scenario("dyn-1d")
    knowledge = LearnerKnowledge.from_model(scenario.model)
    with pytest.raises(ValidationError, match="scale"):
        CandidateAggregates.from_classes(scenario.classes, dataclasses.replace(knowledge, trans_noise_scale=-0.35))


def test_discretize_gaussian_2d_is_separable():
    grid = Grid((-1.0, 0.0), (1.0, 3.0), (2, 3))
    means = np.array([[0.2, 1.1], [-0.7, 2.9]])
    mass = discretize_gaussian(means, grid, 0.8)
    assert mass.shape == (2, 6)
    np.testing.assert_allclose(mass.sum(axis=-1), 1.0, atol=1e-12)
    for row, (mx, my) in zip(mass, means):
        mx_mass = grid.gaussian_mass_1d(float(mx), 0.8, 0)
        my_mass = grid.gaussian_mass_1d(float(my), 0.8, 1)
        np.testing.assert_allclose(row, np.outer(mx_mass, my_mass).ravel(), atol=1e-12)


def test_discretize_gaussian_rejects_three_dims():
    grid = Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))
    with pytest.raises(ConfigError):
        discretize_gaussian(np.zeros((1, 3)), grid, 0.5)


# ---------------------------------------------------------------------------
# Optimistic selection
# ---------------------------------------------------------------------------


def _full_sets(classes):
    """Every reward candidate and every kernel index, per step."""
    rewards = [list(range(classes.reward_tables[h].shape[0])) for h in range(classes.horizon)]
    trans = [
        list(range(math.prod(classes.kernel_index(h).radices))) for h in range(classes.horizon)
    ]
    return rewards, trans


def _kernel_sets(classes, transition_sets):
    """Kernel-index sets of per-coordinate candidate sets."""
    return [classes.kernel_index(h).encode(ts) for h, ts in enumerate(transition_sets)]


def _brute_force_select_general(agg, reward_sets, transition_sets, initial_state):
    H = len(agg.rewards)
    axes = []
    for h in range(H):
        axes.append(list(reward_sets[h]))
        axes.append(list(transition_sets[h]))
    best_val, best_combo, runner_up = -np.inf, None, -np.inf
    for combo in itertools.product(*axes):
        r_idx, p_idx = combo[0::2], combo[1::2]
        rewards = np.stack([agg.rewards[h][r_idx[h]] for h in range(H)])
        trans = np.stack([agg.transitions[h][p_idx[h]] for h in range(H)])
        v = value_iteration(AggregatedMDP(rewards, trans, initial_state)).value_at_initial
        if v > best_val:
            runner_up = best_val
            best_val, best_combo = v, (r_idx, p_idx)
        elif v > runner_up:
            runner_up = v
    return best_val, best_combo, runner_up


@st.composite
def backup_inputs(draw):
    """Rewards, kernels and up to 300 suffix rows: values on a 0.1 grid, so
    actions tie, with a drawn share replaced by the bit patterns of
    KEY_VALUES (both zeros, NaNs of either sign with and without a payload)."""
    n_r, n_p, S, A = (draw(st.integers(1, n)) for n in (3, 3, 4, 3))
    n_v = draw(st.integers(1, 300))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table(shape):
        grid = np.round(rng.uniform(-1.0, 1.0, size=shape), 1)
        return np.where(rng.random(shape) < share, rng.choice(np.array(KEY_VALUES), size=shape), grid)

    return table((n_r, S, A)), table((n_p, S, A, S)), table((n_v, S))


@settings(max_examples=200, deadline=None)
@given(backup_inputs())
def test_joint_backup_matches_one_reduction_bitwise(inputs):
    got, want = joint_backup(*inputs), ref_joint_backup(*inputs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_optimistic_select_exact_matches_brute_force_general():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    kn = scenario.knowledge()
    agg = CandidateAggregates.from_classes(classes, kn)
    reward_sets, transition_sets = _full_sets(classes)
    got = optimistic_select(agg, reward_sets, transition_sets, scenario.model.initial_state)
    best_val, best_combo, runner_up = _brute_force_select_general(
        agg, reward_sets, transition_sets, scenario.model.initial_state
    )
    assert abs(got.value - best_val) <= 1e-9
    assert not got.relaxed
    if best_val - runner_up > 1e-9:
        assert got.reward_idx == best_combo[0]
        assert got.transition_idx == best_combo[1]


def test_optimistic_select_restricted_sets():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    kn = scenario.knowledge()
    agg = CandidateAggregates.from_classes(classes, kn)
    reward_sets = [[0]] * classes.horizon
    transition_sets = [[0]] * classes.horizon
    got = optimistic_select(agg, reward_sets, transition_sets, scenario.model.initial_state)
    truth = value_iteration(true_aggregated_model(scenario.model))
    assert abs(got.value - truth.value_at_initial) <= 1e-9
    assert got.reward_idx == (0, 0, 0)


def test_optimistic_select_pointwise_upper_bounds_exact():
    scenario = build_scenario("recsys-small")
    agg = CandidateAggregates.from_classes(scenario.classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(scenario.classes)
    s1 = scenario.model.initial_state
    exact = optimistic_select(agg, reward_sets, transition_sets, s1)
    loose = optimistic_select(
        agg, reward_sets, transition_sets, s1, mode=SelectionMode.POINTWISE
    )
    assert loose.relaxed
    assert loose.reward_idx is None
    assert loose.value >= exact.value - 1e-12
    assert loose.transition_idx is None


def test_optimistic_select_cap_raises():
    scenario = build_scenario("recsys-small")
    agg = CandidateAggregates.from_classes(scenario.classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(scenario.classes)
    with pytest.raises(CapacityError):
        optimistic_select(
            agg, reward_sets, transition_sets, scenario.model.initial_state, cap=3
        )


def test_optimistic_select_rejects_empty_sets():
    scenario = build_scenario("recsys-small")
    agg = CandidateAggregates.from_classes(scenario.classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(scenario.classes)
    reward_sets[1] = []
    with pytest.raises(ValidationError):
        optimistic_select(agg, reward_sets, transition_sets, 0)


@pytest.mark.parametrize("mode", list(SelectionMode))
@pytest.mark.parametrize("which", ["reward", "transition"])
@pytest.mark.parametrize("name", ["recsys-small", "dyn-1d"])
@pytest.mark.parametrize("bad", ["negative", "too-large"])
def test_optimistic_select_rejects_out_of_range_indices(name, which, mode, bad):
    scenario = build_scenario(name)
    classes = scenario.classes
    agg = CandidateAggregates.from_classes(classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(classes)
    h = classes.horizon - 1
    if which == "reward":
        size = classes.reward_tables[h].shape[0]
        reward_sets[h] = [0, -1] if bad == "negative" else [0, size]
    else:
        size = agg.transitions[h].shape[0]
        transition_sets[h] = [0, -1] if bad == "negative" else [0, size]
    with pytest.raises(InvalidIndexError, match=f"step {h}"):
        optimistic_select(agg, reward_sets, transition_sets, scenario.model.initial_state, mode)


@pytest.mark.parametrize("mode", list(SelectionMode))
@pytest.mark.parametrize("initial_state", [99, -1, 1.0, True])
def test_optimistic_select_rejects_a_bad_initial_state_before_selecting(monkeypatch, mode, initial_state):
    scenario = build_scenario("recsys-small")
    agg = CandidateAggregates.from_classes(scenario.classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(scenario.classes)
    for selector in ("_select_exact", "_select_pointwise"):
        monkeypatch.setattr(planning, selector, None)  # selecting would call one
    with pytest.raises(InvalidIndexError, match="initial state"):
        optimistic_select(agg, reward_sets, transition_sets, initial_state, mode)


@pytest.mark.parametrize("mode", ["exact", "pointwise", None])
def test_optimistic_select_rejects_a_mode_that_is_not_a_selection_mode(monkeypatch, mode):
    scenario = build_scenario("recsys-small")
    agg = CandidateAggregates.from_classes(scenario.classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(scenario.classes)
    for selector in ("_select_exact", "_select_pointwise"):
        monkeypatch.setattr(planning, selector, None)  # selecting would call one
    with pytest.raises(ValidationError, match="SelectionMode"):
        optimistic_select(agg, reward_sets, transition_sets, scenario.model.initial_state, mode)


@pytest.mark.parametrize("name", ["recsys-small", "dyn-1d"])
def test_optimistic_select_rejects_sets_of_the_wrong_length(name):
    scenario = build_scenario(name)
    classes = scenario.classes
    agg = CandidateAggregates.from_classes(classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(classes)
    for rs, ts in [
        (reward_sets[:-1], transition_sets),
        (reward_sets + reward_sets[:1], transition_sets),
        (reward_sets, transition_sets[:-1]),
    ]:
        with pytest.raises(ValidationError, match="per step"):
            optimistic_select(agg, rs, ts, scenario.model.initial_state)
    # The per-coordinate shape that dynamical sets had before kernel indices,
    # as nested lists and as a 2-D array, is not a set of kernel indices.
    # Nor is a set holding a bool, which would otherwise pick candidate 1.
    H = classes.horizon
    for nested in ([[[0, 1]]] * H, [np.array([[0, 1]])] * H, [[True]] * H):
        for rs, ts in [(reward_sets, nested), (nested, transition_sets)]:
            with pytest.raises(ValidationError, match="flat sequence of integer"):
                optimistic_select(agg, rs, ts, scenario.model.initial_state)


def test_optimistic_select_exact_matches_brute_force_dynamical():
    scenario = build_scenario("dyn-1d")
    classes = scenario.classes
    kn = scenario.knowledge()
    agg = CandidateAggregates.from_classes(classes, kn)
    reward_sets, transition_sets = _full_sets(classes)
    s1 = scenario.model.initial_state
    got = optimistic_select(agg, reward_sets, transition_sets, s1)
    H = classes.horizon
    axes = []
    for h in range(H):
        axes.append(list(reward_sets[h]))
        axes.append(list(transition_sets[h]))
    best_val = -np.inf
    best_combo = None
    for combo in itertools.product(*axes):
        r_idx, m_idx = combo[0::2], combo[1::2]
        rewards = np.stack([agg.rewards[h][r_idx[h]] for h in range(H)])
        # 1-D grid: the joint kernel index is the coordinate index
        kernels = np.stack([agg.transitions[h][m_idx[h]] for h in range(H)])
        v = value_iteration(AggregatedMDP(rewards, kernels, s1)).value_at_initial
        if v > best_val:
            best_val, best_combo = v, (r_idx, m_idx)
    assert abs(got.value - best_val) <= 1e-9
    assert got.reward_idx == best_combo[0]
    assert got.transition_idx == best_combo[1]


def test_from_classes_rejects_three_dims():
    grid = Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))
    S, A, E = grid.num_cells, 1, 1
    knowledge = LearnerKnowledge(
        np.ones((1, 1)), np.ones((1, S, A, 1, E)), grid=grid, trans_noise_scale=0.5
    )
    classes = HypothesisClasses(
        mode=TransitionMode.DYNAMICAL,
        bound=1.0,
        reward_tables=[np.zeros((1, S, A, E))],
        discriminators=[np.zeros((1, S, A))],
        value_targets=[np.zeros((1, S))],
        mean_map_tables=[[np.zeros((1, S, A, E))] * 3],
    )
    with pytest.raises(ConfigError):
        CandidateAggregates.from_classes(classes, knowledge)


# ---------------------------------------------------------------------------
# Joint cell kernels against literal enumeration on random dynamical instances
# ---------------------------------------------------------------------------

DIFF_GRIDS = [Grid((-1.5,), (1.5,), (4,)), Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))]


@st.composite
def dynamical_instances(draw):
    """Random dynamical classes on a 1-D or 2-D grid, with random surviving subsets.

    1-3 mean-map candidates per coordinate and 1-2 reward candidates per step.
    Counts and subsets come from a drawn seed, so they spread evenly instead
    of shrinking towards single candidates.
    """
    grid = draw(st.sampled_from(DIFF_GRIDS))
    H = draw(st.integers(1, 3 if grid.dim == 1 else 2))
    scale = draw(st.sampled_from([0.0, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S, A, E, T = grid.num_cells, 2, 2, 2
    n_rewards = rng.integers(1, 3, size=H)
    n_coords = rng.integers(1, 4, size=(H, grid.dim))
    knowledge = LearnerKnowledge(
        rng.dirichlet(np.ones(T), size=H),
        rng.dirichlet(np.ones(E), size=(H, S, A, T)),
        grid=grid,
        trans_noise_scale=scale,
    )
    classes = HypothesisClasses(
        mode=TransitionMode.DYNAMICAL,
        bound=1.0,
        reward_tables=[rng.uniform(size=(n, S, A, E)) for n in n_rewards],
        discriminators=[np.zeros((1, S, A))] * H,
        value_targets=[np.zeros((1, S))] * H,
        mean_map_tables=[
            [
                rng.uniform(lo - 1.0, hi + 1.0, size=(n, S, A, E))
                for n, lo, hi in zip(counts, grid.lows, grid.highs)
            ]
            for counts in n_coords
        ],
    )

    def subset(n):
        keep = np.flatnonzero(rng.random(n) < 0.7)
        return [int(i) for i in keep] if keep.size else [int(rng.integers(n))]

    reward_sets = [subset(n) for n in n_rewards]
    transition_sets = [[subset(n) for n in counts] for counts in n_coords]
    s1 = int(rng.integers(S))
    return classes, knowledge, reward_sets, transition_sets, s1


def _literal_step_tables(classes, knowledge):
    """Per-step aggregated rewards and the kernel of every per-coordinate
    candidate tuple, one step at a time."""
    w = np.einsum("ht,hsate->hsae", knowledge.target_type_dist, knowledge.feedback_by_type)
    rewards = [np.einsum("sae,rsae->rsa", w[h], classes.reward_tables[h]) for h in range(classes.horizon)]
    kernels = [
        dict(zip(ref_models(maps), mixed))
        for maps, mixed in zip(classes.mean_map_tables, ref_mixed_kernels(classes, knowledge))
    ]
    return rewards, kernels


def _joint_choices(reward_sets, transition_sets, steps):
    """Every (reward index, coordinate tuple) choice per step, lexicographically."""
    per_step = [
        list(itertools.product(reward_sets[h], itertools.product(*transition_sets[h])))
        for h in steps
    ]
    return itertools.product(*per_step)


def _literal_value(rewards, kernels, combo, steps, initial_state):
    r = np.stack([rewards[h][ri] for h, (ri, _) in zip(steps, combo)])
    p = np.stack([kernels[h][idx] for h, (_, idx) in zip(steps, combo)])
    return value_iteration(AggregatedMDP(r, p, initial_state))


@settings(max_examples=100, deadline=None)
@given(dynamical_instances())
def test_exact_selection_matches_literal_product_dynamical(instance):
    classes, knowledge, reward_sets, transition_sets, s1 = instance
    agg = CandidateAggregates.from_classes(classes, knowledge)
    got = optimistic_select(agg, reward_sets, _kernel_sets(classes, transition_sets), s1)
    chosen = tuple(classes.kernel_index(h).models[k] for h, k in enumerate(got.transition_idx))
    rewards, kernels = _literal_step_tables(classes, knowledge)
    steps = range(classes.horizon)
    best, runner_up, best_combo = -np.inf, -np.inf, None
    for combo in _joint_choices(reward_sets, transition_sets, steps):
        v = _literal_value(rewards, kernels, combo, steps, s1).value_at_initial
        if v > best:
            best, runner_up, best_combo = v, best, combo
        elif v > runner_up:
            runner_up = v
    assert not got.relaxed
    assert abs(got.value - best) <= 1e-12
    # The chosen model is the one its reported indices name.
    for h, idx in enumerate(chosen):
        assert all(i in coord_set for i, coord_set in zip(idx, transition_sets[h]))
        kernel = agg.transitions[h][got.transition_idx[h]]
        np.testing.assert_array_equal(kernel, kernels[h][idx])
    if best - runner_up > 1e-9:
        assert got.reward_idx == tuple(ri for ri, _ in best_combo)
        assert chosen == tuple(idx for _, idx in best_combo)


@settings(max_examples=100, deadline=None)
@given(dynamical_instances())
def test_pointwise_selection_matches_literal_loop_dynamical(instance):
    classes, knowledge, reward_sets, transition_sets, s1 = instance
    agg = CandidateAggregates.from_classes(classes, knowledge)
    kernel_sets = _kernel_sets(classes, transition_sets)
    exact = optimistic_select(agg, reward_sets, kernel_sets, s1)
    loose = optimistic_select(agg, reward_sets, kernel_sets, s1, mode=SelectionMode.POINTWISE)
    rewards, kernels = _literal_step_tables(classes, knowledge)
    S, A = rewards[0].shape[1:]
    values = np.zeros(S)
    for h in range(classes.horizon - 1, -1, -1):
        surviving = [kernels[h][idx] for idx in itertools.product(*transition_sets[h])]
        q = np.zeros((S, A))
        for s in range(S):
            for a in range(A):
                best_next = max(float(k[s, a] @ values) for k in surviving)
                q[s, a] = max(rewards[h][r, s, a] for r in reward_sets[h]) + best_next
        values = q.max(axis=1)
        # the committed action attains the step's maximum in every state
        chosen = loose.policy.action_probs[h].argmax(axis=1)
        assert np.abs(q[np.arange(S), chosen] - values).max() <= 1e-12
    assert loose.relaxed
    assert abs(loose.value - values[s1]) <= 1e-12
    assert loose.value >= exact.value - 1e-12


@settings(max_examples=60, deadline=None)
@given(dynamical_instances())
def test_value_closure_matches_literal_joint_models_dynamical(instance):
    classes, knowledge, _, _, _ = instance
    suffix = enumerate_suffix_values(classes, knowledge)
    rewards, kernels = _literal_step_tables(classes, knowledge)
    H = classes.horizon
    full_r = [range(len(r)) for r in rewards]
    full_p = [[range(len(m)) for m in maps] for maps in classes.mean_map_tables]
    for h in range(H):
        steps = range(h, H)
        want = np.stack(
            [
                _literal_value(rewards, kernels, combo, steps, 0).values[0]
                for combo in _joint_choices(full_r, full_p, steps)
            ]
        )
        rows = suffix[h]
        assert len(rows) <= len(want)
        gaps = np.abs(rows[:, None, :] - want[None, :, :]).max(axis=-1)
        assert gaps.min(axis=1).max() <= 1e-12  # every row is some joint model's value
        assert gaps.min(axis=0).max() <= 1e-12  # every joint model's value is a row


# ---------------------------------------------------------------------------
# The learner's kernels: each model's per-feedback Gaussians, mixed by the target
# ---------------------------------------------------------------------------


@st.composite
def mean_map_knowledge(draw):
    """Random dynamical classes and knowledge on a 1-D or 2-D grid, with T, E and
    the candidate counts per coordinate each drawn from 1 up."""
    grid = draw(st.sampled_from(DIFF_GRIDS))
    H = draw(st.integers(1, 2))
    T, E = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    counts = draw(st.lists(st.tuples(*[st.integers(1, 3)] * grid.dim), min_size=H, max_size=H))
    scale = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S, A = grid.num_cells, 2
    knowledge = LearnerKnowledge(
        rng.dirichlet(np.ones(T), size=H),
        rng.dirichlet(np.ones(E), size=(H, S, A, T)),
        grid=grid,
        trans_noise_scale=scale,
    )
    classes = HypothesisClasses(
        mode=TransitionMode.DYNAMICAL,
        bound=1.0,
        reward_tables=[rng.uniform(size=(1, S, A, E))] * H,
        discriminators=[np.zeros((1, S, A))] * H,
        value_targets=[np.zeros((1, S))] * H,
        mean_map_tables=[
            [rng.uniform(lo - 1.0, hi + 1.0, size=(n, S, A, E)) for n, lo, hi in zip(per, grid.lows, grid.highs)]
            for per in counts
        ],
    )
    return classes, knowledge


@settings(max_examples=150, deadline=None)
@given(mean_map_knowledge())
def test_from_classes_kernels_match_the_literal_feedback_mixture(instance):
    classes, knowledge = instance
    agg = CandidateAggregates.from_classes(classes, knowledge)
    for got, want in zip(agg.transitions, ref_model_kernels(classes, knowledge), strict=True):
        assert got.shape == want.shape
        # The einsum may sum the E <= 3 terms, each at most 1, in another order.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_truth_kernel_is_the_true_law_on_noiseless_dyn_1d():
    """Noiseless dyn-1d has no type shift, so the truth candidate plans under
    the environment's own law, bit for bit."""
    scenario = build_scenario("dyn-1d", params={"noiseless": True})
    classes = scenario.classes
    agg = CandidateAggregates.from_classes(classes, scenario.knowledge())
    truth = [
        agg.transitions[h][classes.kernel_index(h).encode([[i] for i in classes.truth_transition_idx[h]])[0]]
        for h in range(classes.horizon)
    ]
    want = true_aggregated_model(scenario.model).transitions
    np.testing.assert_array_equal(np.stack(truth).view(np.uint64), want.view(np.uint64))

"""Minimax losses, data accumulation, confidence levels and sets."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategicmdp import (
    BetaLevels,
    ClassSizes,
    ConfigError,
    Grid,
    InvalidIndexError,
    LearnerKnowledge,
    LossEvaluator,
    Policy,
    StepDataset,
    TransitionMode,
    build_confidence_sets,
    build_scenario,
    close_classes,
    confidence_levels,
    make_rng,
    mean_map_losses,
    reward_losses,
    rollout,
    transition_losses_general,
)
from strategicmdp.estimation import StepData, _discriminator_score, _half_squares, _threshold

from helpers import (
    random_dynamical,
    random_general,
    ref_discriminator_score,
    tiny_dynamical,
    tiny_general,
)
from test_hypotheses import assert_bitwise_equal


def one_cell_data(counts_by_e, reward_sums_by_e, next_counts=None):
    """StepData with all samples in the (s=0, a=0) cell of a 1x1 problem."""
    E = len(counts_by_e)
    S = 2 if next_counts is not None else 1
    counts = np.zeros((S, 1, E))
    counts[0, 0] = counts_by_e
    sums = np.zeros((S, 1, E))
    sums[0, 0] = reward_sums_by_e
    nc = None
    if next_counts is not None:
        nc = np.zeros((S, 1, S))
        nc[0, 0] = next_counts
    return StepData(counts=counts, reward_sums=sums, next_counts=nc, next_sums=None)


# ---------------------------------------------------------------------------
# Frozen hand oracles
# ---------------------------------------------------------------------------


def test_reward_loss_hand_oracle():
    # 10 samples, empirical reward sum 5.0, candidate predicts 0.2 everywhere:
    # aggregated residual weight is 10*0.2 - 5.0 = -3; best discriminator in
    # {0, 1, -1, -0.3} is -0.3 with score 0.9 - 0.5*10*0.09 = 0.45
    data = one_cell_data([6.0, 4.0], [3.0, 2.0])
    candidate = np.full((1, 1, 2), 0.2)
    disc = np.array([[[0.0]], [[1.0]], [[-1.0]], [[-0.3]]])
    loss = float(reward_losses(data, candidate[None], disc)[0])
    np.testing.assert_allclose(loss, 0.45, atol=1e-12)


def test_reward_loss_zero_discriminator_floors_at_zero():
    data = one_cell_data([6.0, 4.0], [3.0, 2.0])
    candidate = np.full((1, 1, 2), 0.2)
    disc = np.array([[[0.0]], [[1.0]]])  # only bad directions available
    loss = float(reward_losses(data, candidate[None], disc)[0])
    assert loss == 0.0


def test_reward_loss_optimal_discriminator_closed_form():
    # with f = residual/n available, the max equals n/2 * (mean residual)^2
    data = one_cell_data([6.0, 4.0], [3.0, 2.0])
    candidate = np.full((1, 1, 2), 0.2)
    disc = np.array([[[0.0]], [[-0.3]], [[-0.15]], [[0.3]]])
    want = 0.5 * 10.0 * 0.3**2
    np.testing.assert_allclose(float(reward_losses(data, candidate[None], disc)[0]), want, atol=1e-12)


def test_transition_loss_hand_oracle():
    # 10 samples at one cell, 7 land in state 0 and 3 in state 1; candidate
    # kernel predicts a coin flip; with target g = 1[state 0] the residual
    # weight is 5 - 7 = -2, and f = -0.2 attains 0.4 - 0.5*10*0.04 = 0.2
    data = one_cell_data([10.0], [0.0], next_counts=[7.0, 3.0])
    kernel = np.full((2, 1, 1, 2), 0.5)
    targets = np.array([[1.0, 0.0], [0.0, 0.0]])
    disc = np.array([[[0.0], [0.0]], [[-0.2], [0.0]], [[1.0], [0.0]]])
    loss = float(transition_losses_general(data, kernel[None], targets, disc)[0])
    np.testing.assert_allclose(loss, 0.2, atol=1e-12)


def test_mean_map_loss_hand_oracle():
    # 5 samples with next-coordinate total 2.0; candidate mean 0.1 gives
    # residual weight 0.5 - 2.0 = -1.5; f = -0.3 attains 0.45 - 0.225 = 0.225
    data = StepData(
        counts=np.full((1, 1, 1), 5.0),
        reward_sums=np.zeros((1, 1, 1)),
        next_counts=None,
        next_sums=np.full((1, 1, 1, 1), 2.0),
    )
    tables = np.full((1, 1, 1, 1), 0.1)
    disc = np.array([[[0.0]], [[-0.3]]])
    loss = mean_map_losses(data, tables, 0, disc)[0]
    np.testing.assert_allclose(loss, 0.225, atol=1e-12)


def test_confidence_levels_frozen_values():
    sizes = ClassSizes(rewards=8, transitions=4, discriminators=40, value_targets=12)
    betas = confidence_levels(1.0, 100, 4, sizes, 0.1)
    np.testing.assert_allclose(betas.reward, 393.7463778050824, atol=1e-9)
    np.testing.assert_allclose(betas.transition_general, 443.9156429434679, atol=1e-9)
    np.testing.assert_allclose(betas.transition_dynamical, 374.3382567494039, atol=1e-9)
    # the scale knob multiplies all three levels
    half = confidence_levels(1.0, 100, 4, sizes, 0.1, beta_scale=0.5)
    np.testing.assert_allclose(half.reward, 196.8731889025412, atol=1e-9)


def test_confidence_levels_reject_bad_inputs():
    sizes = ClassSizes(8, 4, 40, 12)
    with pytest.raises(ConfigError):
        confidence_levels(1.0, 0, 4, sizes, 0.1)
    with pytest.raises(ConfigError):
        confidence_levels(1.0, 100, 4, sizes, 1.5)
    with pytest.raises(ConfigError):
        confidence_levels(1.0, 100, 4, sizes, 0.1, beta_scale=0.0)
    with pytest.raises(ConfigError):
        confidence_levels(-1.0, 100, 4, sizes, 0.1)
    with pytest.raises(ConfigError):
        confidence_levels(1.0, 100, 4, ClassSizes(0, 4, 40, 12), 0.1)


# ---------------------------------------------------------------------------
# Dataset accumulation
# ---------------------------------------------------------------------------


def collect_episodes(model, episodes, seed=0, trajectories=None):
    """Roll out a uniform policy; each trajectory is also appended to trajectories if given."""
    kn = LearnerKnowledge.from_model(model)
    data = StepDataset(
        mode=model.transition_mode,
        horizon=model.horizon,
        num_states=model.num_states,
        num_actions=model.num_actions,
        num_feedbacks=model.num_feedbacks,
        state_dim=model.state_dim,
        grid=model.grid,
    )
    rng = make_rng(seed)
    policy = Policy.uniform(model.horizon, model.num_states, model.num_actions)
    for _ in range(episodes):
        traj = rollout(model, policy, rng)
        data.append_trajectory(traj)
        if trajectories is not None:
            trajectories.append(traj)
    return data, kn


def step_samples(trajectories, h):
    """(state, action, feedback, reward, next state) of step h, one per episode."""
    return [
        (step.state, step.action, step.feedback, step.reward, step.next_state)
        for step in (traj.steps[h] for traj in trajectories)
    ]


def test_append_trajectory_matches_manual_append():
    model = tiny_general()
    trajectories = []
    data, _ = collect_episodes(model, 20, trajectories=trajectories)
    rebuilt = StepDataset(TransitionMode.GENERAL, 2, 2, 2, 2)
    for h in range(2):
        for s, a, e, r, nxt in step_samples(trajectories, h):
            rebuilt.append(h, s, a, e, r, nxt)
    for h in range(2):
        np.testing.assert_array_equal(rebuilt.steps[h].counts, data.steps[h].counts)
        np.testing.assert_array_equal(rebuilt.steps[h].next_counts, data.steps[h].next_counts)
    assert rebuilt.steps[0].counts.sum() == 20


@pytest.mark.parametrize(
    "field, bad",
    [(f, v) for f in ("h", "s", "a", "e", "s_next") for v in (-1, 2)],
)
def test_append_rejects_out_of_range_general(field, bad):
    data = StepDataset(TransitionMode.GENERAL, 2, 2, 2, 2)
    args = {"h": 0, "s": 1, "a": 1, "e": 1, "r": 0.5, "s_next": 1}
    args[field] = bad
    with pytest.raises(InvalidIndexError):
        data.append(**args)
    assert not data.steps[0].counts.any()
    assert not data.steps[0].next_counts.any()


@pytest.mark.parametrize("field, bad", [("s", -1), ("s", 4), ("a", -1), ("e", 2)])
def test_append_rejects_out_of_range_dynamical(field, bad):
    model = tiny_dynamical()
    data = StepDataset(TransitionMode.DYNAMICAL, 2, 4, 2, 2, state_dim=1, grid=model.grid)
    args = {"h": 1, "s": 3, "a": 1, "e": 1, "r": 0.5, "s_next": np.array([0.2])}
    args[field] = bad
    with pytest.raises(InvalidIndexError):
        data.append(**args)
    assert not data.steps[1].next_sums.any()


def test_losses_invariant_under_sample_permutation():
    model = tiny_general(reward_noise=0.2)
    trajectories = []
    data, _ = collect_episodes(model, 30, trajectories=trajectories)
    shuffled = StepDataset(TransitionMode.GENERAL, 2, 2, 2, 2)
    perm_rng = np.random.default_rng(1)
    for h in range(2):
        samples = step_samples(trajectories, h)
        order = perm_rng.permutation(len(samples))
        for i in order:
            shuffled.append(h, *samples[i])
    candidate = np.stack([model.principal_reward[0] + 0.1])
    disc = np.concatenate([np.zeros((1, 2, 2)), np.full((1, 2, 2), -0.1)])
    a = reward_losses(data.steps[0], candidate, disc)
    b = reward_losses(shuffled.steps[0], candidate, disc)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_dynamical_dataset_bins_states():
    model = tiny_dynamical()
    data, _ = collect_episodes(model, 15)
    for h in range(model.horizon):
        np.testing.assert_allclose(data.steps[h].counts.sum(), 15.0)
        assert data.steps[h].next_sums.shape == (4, 2, 2, 1)


def test_wrong_candidate_loss_grows_with_data():
    model = tiny_general(reward_noise=0.0)
    small, kn = collect_episodes(model, 50, seed=3)
    big, _ = collect_episodes(model, 200, seed=3)
    wrong = np.clip(model.principal_reward[0] + 0.2, 0.0, 1.0)[None]
    proj = np.full((2, 2), -0.2)
    disc = np.stack([np.zeros((2, 2)), proj, -proj])
    loss_small = reward_losses(small.steps[0], wrong, disc)[0]
    loss_big = reward_losses(big.steps[0], wrong, disc)[0]
    assert loss_big > loss_small > 0


# ---------------------------------------------------------------------------
# Thresholding and sets
# ---------------------------------------------------------------------------


def test_threshold_is_inclusive():
    flags: list[str] = []
    kept = _threshold(np.array([0.45, 0.46]), 0.45, "demo", flags)
    assert kept == (0,)
    assert flags == []


def test_threshold_empty_set_falls_back_to_minimizer():
    flags: list[str] = []
    kept = _threshold(np.array([5.0, 3.0, 4.0]), 1.0, "demo", flags)
    assert kept == (1,)
    assert flags == ["demo-empty-set-fallback"]


def test_build_confidence_sets_keeps_truth_with_generous_levels():
    scenario = build_scenario("recsys-small")
    data, _ = collect_episodes(scenario.model, 40, seed=5)
    evaluator = LossEvaluator(scenario.classes)
    betas = BetaLevels(reward=1e9, transition_general=1e9, transition_dynamical=1e9)
    sets = build_confidence_sets(evaluator, data, betas)
    for h in range(3):
        assert 0 in sets.reward_sets[h]
        assert 0 in sets.transition_sets[h]
        assert sets.reward_sets[h] == tuple(sorted(sets.reward_sets[h]))
    assert sets.fallback_flags == ()


def test_build_confidence_sets_fallback_flag():
    scenario = build_scenario("recsys-small")
    data, _ = collect_episodes(scenario.model, 40, seed=5)
    evaluator = LossEvaluator(scenario.classes)
    betas = BetaLevels(reward=-1.0, transition_general=1e9, transition_dynamical=1e9)
    sets = build_confidence_sets(evaluator, data, betas)
    assert any("empty-set-fallback" in f for f in sets.fallback_flags)
    for h in range(3):
        assert len(sets.reward_sets[h]) == 1


def test_loss_evaluator_matches_direct_functions():
    scenario = build_scenario("recsys-small")
    data, _ = collect_episodes(scenario.model, 25, seed=7)
    classes = scenario.classes
    evaluator = LossEvaluator(classes)
    for h in range(3):
        direct = reward_losses(
            data.steps[h], classes.reward_tables[h], classes.discriminators[h]
        )
        np.testing.assert_array_equal(evaluator.reward_losses(data, h), direct)
        direct_t = transition_losses_general(
            data.steps[h],
            classes.transition_tables[h],
            classes.value_targets[h + 1],
            classes.discriminators[h],
        )
        np.testing.assert_allclose(evaluator.transition_losses(data, h), direct_t, atol=1e-12)


def test_loss_evaluator_dynamical_per_coordinate():
    scenario = build_scenario("dyn-1d")
    data, _ = collect_episodes(scenario.model, 25, seed=7)
    evaluator = LossEvaluator(scenario.classes)
    per_coord = evaluator.transition_losses(data, 0)
    assert isinstance(per_coord, list) and len(per_coord) == 1
    assert per_coord[0].shape == (scenario.classes.mean_map_tables[0][0].shape[0],)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 3),
    episodes=st.integers(1, 15),
)
def test_loss_evaluator_precomputed_terms_are_bitwise_exact(kind, seed, horizon, episodes):
    """The evaluator keeps each step's applied tensors and discriminator half
    squares; the plural functions recompute both when called without them."""
    if kind == "general":
        model, classes = random_general(
            seed, horizon, states=3, actions=2, feedbacks=2, candidates=3
        )
    elif kind == "dyn-1d":
        grid = Grid((-1.5,), (1.5,), (4,))
        model, classes = random_dynamical(seed, grid, horizon, rewards=2, candidates=(3,))
    else:
        grid = Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))
        model, classes = random_dynamical(seed, grid, horizon, rewards=2, candidates=(2, 3))
    classes = close_classes(model, classes, LearnerKnowledge.from_model(model))
    data, _ = collect_episodes(model, episodes, seed=seed)
    evaluator = LossEvaluator(classes)
    for h in range(horizon):
        step, disc = data.steps[h], classes.discriminators[h]
        want = reward_losses(step, classes.reward_tables[h], disc)
        assert_bitwise_equal(evaluator.reward_losses(data, h), want)
        got_t = evaluator.transition_losses(data, h)
        if kind == "general":
            want_t = transition_losses_general(
                step, classes.transition_tables[h], classes.value_targets[h + 1], disc
            )
            assert_bitwise_equal(got_t, want_t)
        else:
            for i, per in enumerate(classes.mean_map_tables[h]):
                assert_bitwise_equal(got_t[i], mean_map_losses(step, per, i, disc))


@settings(max_examples=60, deadline=None)
@given(
    lead=st.sampled_from([(), (1,), (4,), (3, 5), (2, 1, 3)]),
    S=st.integers(1, 4),
    A=st.integers(1, 3),
    nF=st.integers(1, 7),
    precomputed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_discriminator_score_matches_out_of_place_reference(lead, S, A, nF, precomputed, seed):
    """Subtracting the quadratic term in place gives the out-of-place scores
    bit for bit, for reward-shaped (nR, S, A) and transition-shaped
    (nP, nG, S, A) targets, with the half squares passed in or not."""
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=lead + (S, A)) * rng.integers(0, 30, size=lead + (S, A))
    disc = rng.uniform(-1.0, 1.0, size=(nF, S, A))
    sa_counts = rng.integers(0, 50, size=(S, A)).astype(float)
    halves = _half_squares(disc) if precomputed else None
    got = _discriminator_score(targets, disc, sa_counts, halves)
    assert_bitwise_equal(got, ref_discriminator_score(targets, disc, sa_counts, halves))


def test_transition_loss_transient_stays_near_one_scores_array():
    """One (nP * nG, nF) scores array per call: the out-of-place subtraction
    held two at once, at least twice this bound's base."""
    nP, nG, S, A, E, nF = 16, 16, 2, 2, 2, 128
    rng = np.random.default_rng(5)
    tables = rng.dirichlet(np.ones(S), size=(nP, S, A, E))
    targets = rng.uniform(0.0, 1.0, size=(nG, S))
    disc = rng.uniform(-1.0, 1.0, size=(nF, S, A))
    step = StepData(
        counts=rng.integers(0, 20, size=(S, A, E)).astype(float),
        reward_sums=np.zeros((S, A, E)),
        next_counts=rng.integers(0, 20, size=(S, A, S)).astype(float),
        next_sums=None,
    )
    applied = np.einsum("psaex,gx->pgsae", tables, targets)
    halves = _half_squares(disc)
    scores_bytes = nP * nG * nF * 8
    assert scores_bytes >= 256 * 1024
    want = transition_losses_general(step, tables, targets, disc, applied, halves)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = transition_losses_general(step, tables, targets, disc, applied, halves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_bitwise_equal(got, want)
    assert peak - base < 1.5 * scores_bytes, (peak - base, scores_bytes)


@given(
    shift=st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
    episodes=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_truth_loss_never_exceeds_any_candidate_by_construction(shift, episodes, seed):
    # the minimax loss with a zero-containing discriminator family is >= 0,
    # and shifting a candidate away from the data can only raise the best
    # response available to the adversary at large sample asymmetry
    model = tiny_general(reward_noise=0.0)
    data, _ = collect_episodes(model, episodes, seed=seed)
    cand = np.clip(model.principal_reward[0] + shift, 0.0, 1.0)[None]
    disc = np.stack([np.zeros((2, 2)), np.full((2, 2), 0.1), np.full((2, 2), -0.1)])
    loss = reward_losses(data.steps[0], cand, disc)[0]
    assert loss >= 0.0

"""Minimax losses, data accumulation, confidence levels and sets."""

from __future__ import annotations

import dataclasses
import math
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
    Trajectory,
    build_confidence_sets,
    build_scenario,
    ValidationError,
    close_classes,
    confidence_levels,
    family_losses,
    make_rng,
    residual_labels,
    residual_stack,
    rollout,
)
from strategicmdp.estimation import StepData, _discriminator_score, _half_squares, _threshold

from helpers import (
    random_dynamical,
    random_general,
    ref_discriminator_score,
    ref_kernel_radices,
    ref_loss_families,
    ref_residual_labels,
    ref_residual_stack,
    tiny_dynamical,
    tiny_general,
)
from test_hypotheses import assert_bitwise_equal


def reward_loss(step, tables, disc):
    """family_losses of a reward family (n, S, A, E) at one step, observed
    against the reward sums, without precomputed half squares."""
    observed = step.reward_sums.sum(axis=-1)[None]
    return family_losses(tables[:, None], observed, step.counts, disc)


def general_family(step, tables, targets):
    """(predicted, observed) of general transitions (n, S, A, E, S) against
    next-step value targets (G, S): P g and the visited sums of g."""
    predicted = np.einsum("psaex,gx->pgsae", tables, targets)
    return predicted, np.einsum("sax,gx->gsa", step.next_counts, targets)


def mean_map_family(step, tables, coord):
    """(predicted, observed) of one coordinate's mean maps (n, S, A, E)."""
    return tables[:, None], step.next_sums[..., coord].sum(axis=-1)[None]


# ---------------------------------------------------------------------------
# Frozen hand oracles
# ---------------------------------------------------------------------------


def test_reward_loss_hand_oracle():
    # 10 samples, empirical reward sum 5.0, candidate predicts 0.2 everywhere:
    # aggregated residual weight is 10*0.2 - 5.0 = -3; best discriminator in
    # {0, 1, -1, -0.3} is -0.3 with score 0.9 - 0.5*10*0.09 = 0.45
    predicted = np.full((1, 1, 1, 1, 2), 0.2)
    counts = np.array([[[6.0, 4.0]]])
    disc = np.array([[[0.0]], [[1.0]], [[-1.0]], [[-0.3]]])
    loss = float(family_losses(predicted, np.array([[[5.0]]]), counts, disc)[0])
    np.testing.assert_allclose(loss, 0.45, atol=1e-12)


def test_reward_loss_zero_discriminator_floors_at_zero():
    predicted = np.full((1, 1, 1, 1, 2), 0.2)
    counts = np.array([[[6.0, 4.0]]])
    disc = np.array([[[0.0]], [[1.0]]])  # only bad directions available
    loss = float(family_losses(predicted, np.array([[[5.0]]]), counts, disc)[0])
    assert loss == 0.0


def test_reward_loss_optimal_discriminator_closed_form():
    # with f = residual/n available, the max equals n/2 * (mean residual)^2
    predicted = np.full((1, 1, 1, 1, 2), 0.2)
    counts = np.array([[[6.0, 4.0]]])
    disc = np.array([[[0.0]], [[-0.3]], [[-0.15]], [[0.3]]])
    want = 0.5 * 10.0 * 0.3**2
    loss = float(family_losses(predicted, np.array([[[5.0]]]), counts, disc)[0])
    np.testing.assert_allclose(loss, want, atol=1e-12)


def test_transition_loss_hand_oracle():
    # 10 samples at cell (s=0, a=0) of a 2-state problem, 7 land in state 0
    # and 3 in state 1; the candidate kernel predicts a coin flip, so with
    # targets g0 = 1[state 0] and g1 = 0 it predicts P g0 = 0.5 and P g1 = 0.
    # The residual weight of g0 is 5 - 7 = -2, and f = -0.2 attains
    # 0.4 - 0.5*10*0.04 = 0.2
    predicted = np.zeros((1, 2, 2, 1, 1))
    predicted[0, 0] = 0.5
    observed = np.zeros((2, 2, 1))
    observed[0, 0, 0] = 7.0
    counts = np.array([[[10.0]], [[0.0]]])
    disc = np.array([[[0.0], [0.0]], [[-0.2], [0.0]], [[1.0], [0.0]]])
    loss = float(family_losses(predicted, observed, counts, disc)[0])
    np.testing.assert_allclose(loss, 0.2, atol=1e-12)


def test_mean_map_loss_hand_oracle():
    # 5 samples with next-coordinate total 2.0; candidate mean 0.1 gives
    # residual weight 0.5 - 2.0 = -1.5; f = -0.3 attains 0.45 - 0.225 = 0.225
    predicted = np.full((1, 1, 1, 1, 1), 0.1)
    counts = np.full((1, 1, 1), 5.0)
    disc = np.array([[[0.0]], [[-0.3]]])
    loss = family_losses(predicted, np.full((1, 1, 1), 2.0), counts, disc)[0]
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
    # a NaN bound would give NaN levels, so every family would silently take
    # its empty-set fallback; an infinite scale would give infinite levels
    for bound in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="bound must be finite"):
            confidence_levels(bound, 100, 4, sizes, 0.1)
    for scale in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="beta_scale must be finite"):
            confidence_levels(1.0, 100, 4, sizes, 0.1, beta_scale=scale)


# ---------------------------------------------------------------------------
# Dataset accumulation
# ---------------------------------------------------------------------------


def collect_episodes(model, episodes, seed=0, trajectories=None):
    """Roll out a uniform policy; each trajectory is also appended to trajectories if given."""
    kn = LearnerKnowledge.from_model(model)
    data = StepDataset(
        horizon=model.horizon,
        num_states=model.num_states,
        num_actions=model.num_actions,
        num_feedbacks=model.num_feedbacks,
        state_dim=model.state_dim,
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
    rebuilt = StepDataset(2, 2, 2, 2)
    for h in range(2):
        for s, a, e, r, nxt in step_samples(trajectories, h):
            rebuilt.append(h, s, a, e, r, nxt)
    for h in range(2):
        np.testing.assert_array_equal(rebuilt.steps[h].counts, data.steps[h].counts)
        np.testing.assert_array_equal(rebuilt.steps[h].next_counts, data.steps[h].next_counts)
    assert rebuilt.steps[0].counts.sum() == 20


@pytest.mark.parametrize(
    "field, bad",
    [(f, v) for f in ("h", "s", "a", "e", "s_next") for v in (-1, 2, 1.0, True)]
    + [("s_next", 1.7), ("r", math.nan), ("r", math.inf)],
)
def test_append_rejects_out_of_range_general(field, bad):
    """Indices out of range, an index that is not an integer (int(1.7)
    would record state 1, True step 1) and a non-finite reward are all
    rejected."""
    data = StepDataset(2, 2, 2, 2)
    args = {"h": 0, "s": 1, "a": 1, "e": 1, "r": 0.5, "s_next": 1}
    args[field] = bad
    with pytest.raises(ValidationError if field == "r" else InvalidIndexError):
        data.append(**args)
    assert not data.steps[0].counts.any()
    assert not data.steps[0].reward_sums.any()
    assert not data.steps[0].next_counts.any()


@pytest.mark.parametrize("state_dim", [-1, 1.0, True, None, "1"])
def test_dataset_refuses_a_state_dim_that_is_not_a_count(state_dim):
    """state_dim states the mode (0 general, d >= 1 a d-vector next state),
    so anything else is refused when the dataset is built, not at the first
    append."""
    with pytest.raises(ValidationError, match="state_dim"):
        StepDataset(2, 4, 2, 2, state_dim=state_dim)


@pytest.mark.parametrize("sizes", [(2, -1, 2, 2), (2, 2.5, 2, 2), (-1, 2, 2, 2), (0, 2, 2, 2), (2, 2, 0, 2)])
def test_dataset_refuses_sizes_that_are_not_counts(sizes):
    """A negative or fractional size was a bare numpy error, and a horizon or
    action count of 0 or less an empty dataset."""
    with pytest.raises(ValidationError, match="must be an integer of at least 1"):
        StepDataset(*sizes)


def test_dataset_storage_follows_state_dim():
    general, dynamical = StepDataset(2, 4, 2, 2), StepDataset(2, 4, 2, 2, state_dim=np.int64(3))
    assert general.steps[1].next_sums is None and general.steps[1].next_counts.shape == (4, 2, 4)
    assert dynamical.steps[1].next_counts is None and dynamical.steps[1].next_sums.shape == (4, 2, 2, 3)


@pytest.mark.parametrize(
    "field, bad",
    [("s", -1), ("s", 4), ("a", -1), ("e", 2), ("r", math.nan), ("r", -math.inf)]
    + [("s_next", v) for v in (0.5, [0.2, 0.3], [[0.2]], [math.nan], [math.inf])]
    + [("s", 1.0), ("a", True), ("e", np.float64(0.0))],
)
def test_append_rejects_out_of_range_dynamical(field, bad):
    """Indices out of range, a non-finite reward and a next state that is not
    a finite vector of shape (state_dim,) are all rejected; a scalar next
    state would otherwise be broadcast into every coordinate."""
    data = StepDataset(2, 4, 2, 2, state_dim=1)
    args = {"h": 1, "s": 3, "a": 1, "e": 1, "r": 0.5, "s_next": np.array([0.2])}
    args[field] = bad
    with pytest.raises(InvalidIndexError if field in "sae" else ValidationError):
        data.append(**args)
    assert not data.steps[1].counts.any()
    assert not data.steps[1].next_sums.any()


def test_append_takes_numpy_integer_indices():
    data = StepDataset(2, 2, 2, 2)
    h, s, a, e, s_next = np.arange(2)[[1, 0, 1, 1, 0]]  # numpy integers, as rollouts give
    data.append(h, s, a, e, 0.5, s_next)
    assert data.steps[1].counts[0, 1, 1] == 1.0 and data.steps[1].next_counts[0, 1, 0] == 1.0


@pytest.mark.parametrize("make", [tiny_general, tiny_dynamical])
@pytest.mark.parametrize(
    "field, bad", [("action", 7), ("state", 9), ("feedback", -1), ("reward", math.nan), ("next_state", -1)]
)
def test_append_trajectory_refused_at_its_last_step_writes_nothing(make, field, bad):
    """Every step of an episode is checked before any is written, so a
    trajectory refused at its last step leaves every StepData array as it was."""
    model = make()
    trajectories = []
    data, _ = collect_episodes(model, 5, trajectories=trajectories)
    before = [dataclasses.astuple(d) for d in data.steps]  # deep copies
    steps = trajectories[0].steps
    bad_traj = Trajectory([*steps[:-1], dataclasses.replace(steps[-1], **{field: bad})])
    with pytest.raises((InvalidIndexError, ValidationError)):
        data.append_trajectory(bad_traj)
    for d, arrays in zip(data.steps, before):
        for got, want in zip(dataclasses.astuple(d), arrays):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
    data.append_trajectory(trajectories[0])  # the same episode, unaltered, is taken
    assert data.steps[-1].counts.sum() == 6.0


def test_losses_invariant_under_sample_permutation():
    model = tiny_general(reward_noise=0.2)
    trajectories = []
    data, _ = collect_episodes(model, 30, trajectories=trajectories)
    shuffled = StepDataset(2, 2, 2, 2)
    perm_rng = np.random.default_rng(1)
    for h in range(2):
        samples = step_samples(trajectories, h)
        order = perm_rng.permutation(len(samples))
        for i in order:
            shuffled.append(h, *samples[i])
    candidate = np.stack([model.principal_reward[0] + 0.1])
    disc = np.concatenate([np.zeros((1, 2, 2)), np.full((1, 2, 2), -0.1)])
    a = reward_loss(data.steps[0], candidate, disc)
    b = reward_loss(shuffled.steps[0], candidate, disc)
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
    loss_small = reward_loss(small.steps[0], wrong, disc)[0]
    loss_big = reward_loss(big.steps[0], wrong, disc)[0]
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
        step, disc = data.steps[h], classes.discriminators[h]
        direct = reward_loss(step, classes.reward_tables[h], disc)
        np.testing.assert_array_equal(evaluator.reward_losses(data, h), direct)
        family = general_family(step, classes.transition_tables[h], classes.value_targets[h + 1])
        got = evaluator.transition_losses(data, h)
        assert isinstance(got, list) and len(got) == 1
        np.testing.assert_allclose(got[0], family_losses(*family, step.counts, disc), atol=1e-12)


def test_loss_evaluator_dynamical_per_coordinate():
    scenario = build_scenario("dyn-1d")
    data, _ = collect_episodes(scenario.model, 25, seed=7)
    evaluator = LossEvaluator(scenario.classes)
    per_coord = evaluator.transition_losses(data, 0)
    assert isinstance(per_coord, list) and len(per_coord) == 1
    assert per_coord[0].shape == (scenario.classes.mean_map_tables[0][0].shape[0],)


def random_closed_classes(kind, seed, horizon):
    """A random model and its closed classes: general, or dynamical in 1-D or 2-D."""
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
    return model, close_classes(model, classes, LearnerKnowledge.from_model(model))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 3),
    episodes=st.integers(1, 15),
)
def test_loss_evaluator_precomputed_terms_are_bitwise_exact(kind, seed, horizon, episodes):
    """The evaluator keeps each step's family predictions and discriminator
    half squares; family_losses on freshly built families without them gives
    the same bits."""
    model, classes = random_closed_classes(kind, seed, horizon)
    data, _ = collect_episodes(model, episodes, seed=seed)
    evaluator = LossEvaluator(classes)
    for h in range(horizon):
        step, disc = data.steps[h], classes.discriminators[h]
        want = reward_loss(step, classes.reward_tables[h], disc)
        assert_bitwise_equal(evaluator.reward_losses(data, h), want)
        if kind == "general":
            targets = classes.value_targets[h + 1]
            families = [general_family(step, classes.transition_tables[h], targets)]
        else:
            families = [
                mean_map_family(step, per, i) for i, per in enumerate(classes.mean_map_tables[h])
            ]
        got_t = evaluator.transition_losses(data, h)
        assert len(got_t) == len(families)
        for got, family in zip(got_t, families):
            assert_bitwise_equal(got, family_losses(*family, step.counts, disc))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 3),
    episodes=st.integers(0, 8),
)
def test_transition_families_match_the_mode_branches(kind, seed, horizon, episodes):
    """The family view gives the bits of the mode branches it replaced:
    residual stacks (truth subtracted before the targets are applied), their
    labels, the kernel radices, and every loss family's label, level,
    predictions and observed sums, on unclosed and closed classes."""
    model, closed = random_closed_classes(kind, seed, horizon)
    unclosed = dataclasses.replace(
        closed,
        discriminators=[f[:1] for f in closed.discriminators],
        value_targets=[g[: 1 + h % 2] for h, g in enumerate(closed.value_targets[:-1])],
    )
    S, A, E, d = model.num_states, model.num_actions, model.num_feedbacks, model.state_dim
    data = StepDataset(horizon, S, A, E, state_dim=d)
    rng = make_rng(seed)
    policy = Policy.uniform(horizon, S, A)
    for _ in range(episodes):
        data.append_trajectory(rollout(model, policy, rng))
    for classes in (unclosed, closed):
        want_families = ref_loss_families(classes)
        evaluator = LossEvaluator(classes)
        for h in range(horizon):
            got, want = residual_stack(model, classes, h), ref_residual_stack(model, classes, h)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert residual_labels(classes, h) == ref_residual_labels(classes, h)
            assert classes.kernel_index(h).radices == ref_kernel_radices(classes, h)
            assert len(evaluator.families[h]) == len(want_families[h])
            for g, predicted, w in zip(evaluator.families[h], evaluator.predictions[h], want_families[h]):
                assert (g.label, g.level) == (w.label, w.level)
                assert predicted.shape == w.predicted.shape
                assert predicted.tobytes() == w.predicted.tobytes()
                got_obs, want_obs = g.observe(data.steps[h]), w.observe(data.steps[h])
                assert got_obs.shape == want_obs.shape and got_obs.tobytes() == want_obs.tobytes()


def per_sample_losses(samples, n, G, predict, observe, disc):
    """The minimax loss of each of n candidates, by literal loops over the
    observed quantities, the discriminators and the samples.

    predict(c, g, s, a, e) is candidate c's prediction of quantity g, and
    observe(g, r, s_next) the value of quantity g that a sample shows.
    """
    losses = []
    for c in range(n):
        best = -math.inf
        for g in range(G):
            for f in disc:
                total = 0.0
                for s, a, e, r, s_next in samples:
                    residual = predict(c, g, s, a, e) - observe(g, r, s_next)
                    total += f[s, a] * residual - 0.5 * f[s, a] ** 2
                best = max(best, total)
        losses.append(best)
    return np.array(losses)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 2),
    samples=st.integers(0, 12),
)
def test_family_losses_match_a_per_sample_oracle(kind, seed, horizon, samples):
    """Every family the evaluator builds, scored by family_losses from count
    tensors, equals the loss summed sample by sample: rewards against r,
    general transitions against g(next state) for every value target g, and
    mean maps against each coordinate of the next state."""
    model, classes = random_closed_classes(kind, seed, horizon)
    S, A, E, d = model.num_states, model.num_actions, model.num_feedbacks, model.state_dim
    data = StepDataset(horizon, S, A, E, state_dim=d)
    rng = np.random.default_rng(seed)
    per_step = []
    for h in range(horizon):
        drawn = []
        for _ in range(samples):
            s, a, e = int(rng.integers(S)), int(rng.integers(A)), int(rng.integers(E))
            r = float(rng.uniform(-1.0, 1.0))
            s_next = int(rng.integers(S)) if kind == "general" else rng.normal(size=d)
            data.append(h, s, a, e, r, s_next)
            drawn.append((s, a, e, r, s_next))
        per_step.append(drawn)
    evaluator = LossEvaluator(classes)
    for h, drawn in enumerate(per_step):
        disc = classes.discriminators[h]
        rewards = classes.reward_tables[h]
        want = per_sample_losses(
            drawn, len(rewards), 1,
            lambda c, g, s, a, e: rewards[c, s, a, e],
            lambda g, r, s_next: r,
            disc,
        )
        np.testing.assert_allclose(evaluator.reward_losses(data, h), want, rtol=1e-9, atol=1e-9)
        got_t = evaluator.transition_losses(data, h)
        if kind == "general":
            kernels, targets = classes.transition_tables[h], classes.value_targets[h + 1]
            want_t = [
                per_sample_losses(
                    drawn, len(kernels), len(targets),
                    lambda c, g, s, a, e: sum(
                        kernels[c, s, a, e, x] * targets[g, x] for x in range(S)
                    ),
                    lambda g, r, s_next: targets[g, s_next],
                    disc,
                )
            ]
        else:
            want_t = [
                per_sample_losses(
                    drawn, len(per), 1,
                    lambda c, g, s, a, e, per=per: per[c, s, a, e],
                    lambda g, r, s_next, i=i: s_next[i],
                    disc,
                )
                for i, per in enumerate(classes.mean_map_tables[h])
            ]
        assert len(got_t) == len(want_t)
        for got, want in zip(got_t, want_t):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


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
    got = _discriminator_score(targets, disc, sa_counts, halves).max(axis=1).reshape(lead)
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
    applied, visited = general_family(step, tables, targets)
    halves = _half_squares(disc)
    scores_bytes = nP * nG * nF * 8
    assert scores_bytes >= 256 * 1024
    want = family_losses(applied, visited, step.counts, disc, halves)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = family_losses(applied, visited, step.counts, disc, halves)
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
    loss = reward_loss(data.steps[0], cand, disc)[0]
    assert loss >= 0.0

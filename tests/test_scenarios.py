"""Scenario generators: determinism, realizability, registry hygiene."""

from __future__ import annotations

import numpy as np
import pytest

from strategicmdp import (
    ConfigError,
    GENERATORS,
    TransitionMode,
    build_scenario,
    check_realizability,
    true_aggregated_model,
    value_iteration,
)

ALL_NAMES = sorted(GENERATORS)

DYNAMICAL = {"dyn-1d"}

# Each generator's keyword options and defaults, as Scenario.params echoes
# them after the seed, and one override of each.
ECHOED_DEFAULTS = {
    "recsys-small": {
        "bogus_boost": 0.33,
        "small_offset": 0.05,
        "confound": 0.3,
        "reward_noise": 0.25,
        "bias_probe": False,
        "probe_offset": 0.35,
    },
    "contract-small": {"reward_noise": 0.2},
    "shifted-target": {},
    "degenerate-feedback": {},
    "linear-d": {"feature_dim": 4, "num_candidates": 3},
    "dyn-1d": {"noiseless": False},
}
OVERRIDES = {
    "recsys-small": {"probe_offset": 0.3, "bias_probe": True},
    "contract-small": {"reward_noise": 0.1},
    "shifted-target": {},
    "degenerate-feedback": {},
    "linear-d": {"num_candidates": 2, "feature_dim": 3},
    "dyn-1d": {"noiseless": True},
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_build_is_deterministic(name):
    a = build_scenario(name, seed=7)
    b = build_scenario(name, seed=7)
    np.testing.assert_array_equal(a.model.principal_reward, b.model.principal_reward)
    np.testing.assert_array_equal(a.model.feedback_kernel, b.model.feedback_kernel)
    if a.classes.mode is TransitionMode.GENERAL:
        np.testing.assert_array_equal(a.model.transition_kernel, b.model.transition_kernel)
    else:
        np.testing.assert_array_equal(a.model.mean_map, b.model.mean_map)
    for h in range(a.model.horizon):
        np.testing.assert_array_equal(a.classes.reward_tables[h], b.classes.reward_tables[h])
        np.testing.assert_array_equal(a.classes.discriminators[h], b.classes.discriminators[h])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_models_validate_and_classes_are_realizable(name):
    scenario = build_scenario(name)
    scenario.model.validate()
    check_realizability(scenario.model, scenario.classes, scenario.knowledge())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_mode_registry_matches_built_model(name):
    scenario = build_scenario(name)
    want = TransitionMode.DYNAMICAL if name in DYNAMICAL else TransitionMode.GENERAL
    assert scenario.model.transition_mode is want
    assert scenario.classes.mode is scenario.model.transition_mode
    assert scenario.name == name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_params_echo_inputs(name):
    scenario = build_scenario(name, seed=3)
    assert scenario.params["seed"] == 3


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("override", [False, True])
def test_params_echo_seed_then_every_option(name, override):
    params = OVERRIDES[name] if override else {}
    scenario = build_scenario(name, seed=5, params=params)
    want = {"seed": 5, **ECHOED_DEFAULTS[name]}
    want.update(params)
    assert list(scenario.params.items()) == list(want.items())


def test_unknown_name_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        build_scenario("no-such-thing")


def test_unknown_param_rejected():
    with pytest.raises(ConfigError, match="bad parameters"):
        build_scenario("recsys-small", params={"bogus": 1})


def test_recsys_bogus_candidate_dominates_first_step():
    scenario = build_scenario("recsys-small")
    r0 = scenario.classes.reward_tables[0]
    # the optimistic candidate overstates the second action by more than the
    # true gap between actions, so a fresh learner starts on the wrong arm
    truth = r0[0]
    bogus = r0[1]
    gap = truth[:, 0, :].mean() - truth[:, 1, :].mean()
    assert gap > 0
    assert np.all(bogus[:, 1, :] - truth[:, 1, :] > gap)


def test_recsys_bias_probe_variant():
    scenario = build_scenario("recsys-small", params={"bias_probe": True})
    feed = scenario.model.feedback_kernel
    # feedback symbol is a deterministic function of the latent type
    assert np.all(feed[:, :, :, 0, :, 0] == 1.0)
    assert np.all(feed[:, :, :, 1, :, 1] == 1.0)
    assert scenario.params["bias_probe"] is True
    assert len(scenario.classes.transition_tables[0]) == 1


def test_shifted_target_distributions_differ():
    scenario = build_scenario("shifted-target")
    m = scenario.model
    assert not np.allclose(m.source_type_dist, m.target_type_dist)


def test_degenerate_feedback_is_uninformative():
    scenario = build_scenario("degenerate-feedback")
    feed = scenario.model.feedback_kernel
    # every type and agent action induces the same feedback law
    first = feed[:, :, :, :1, :1, :]
    assert np.allclose(feed, np.broadcast_to(first, feed.shape))


def test_dyn_scenario_exposes_grid_and_mean():
    scenario = build_scenario("dyn-1d")
    m = scenario.model
    assert m.transition_mode is TransitionMode.DYNAMICAL
    assert m.grid is not None
    assert m.mean_map.shape[-1] == m.state_dim == 1
    assert len(scenario.classes.mean_map_tables[0][0]) >= 2


def test_dyn_noiseless_param():
    scenario = build_scenario("dyn-1d", params={"noiseless": True})
    assert scenario.model.trans_noise_scale == 0.0
    assert scenario.model.reward_noise_std == 0.0
    assert scenario.params["noiseless"] is True


def test_linear_d_candidate_count():
    scenario = build_scenario("linear-d", params={"num_candidates": 4})
    assert len(scenario.classes.reward_tables[0]) == 4
    with pytest.raises(ConfigError, match="at least 1"):
        build_scenario("linear-d", params={"num_candidates": 0})


@pytest.mark.parametrize("name", ALL_NAMES)
def test_truth_indices_point_at_model_tables(name):
    scenario = build_scenario(name)
    m, c = scenario.model, scenario.classes
    for h in range(m.horizon):
        ri = c.truth_reward_idx[h]
        np.testing.assert_array_equal(c.reward_tables[h][ri], m.principal_reward[h])
        pi = c.truth_transition_idx[h]
        if c.mode is TransitionMode.GENERAL:
            np.testing.assert_array_equal(
                c.transition_tables[h][pi], m.transition_kernel[h]
            )
        else:
            for d, idx in enumerate(pi):
                np.testing.assert_array_equal(
                    c.mean_map_tables[h][d][idx], m.mean_map[h][..., d]
                )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_aggregates_plan_without_error(name):
    scenario = build_scenario(name)
    plan = value_iteration(true_aggregated_model(scenario.model))
    bound = scenario.model.reward_bound * scenario.model.horizon
    assert -bound - 1e-9 <= plan.value_at_initial <= bound + 1e-9

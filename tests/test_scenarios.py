"""Scenario generators: determinism, realizability, registry hygiene."""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from strategicmdp import (
    CapacityError,
    ClassCaps,
    ConfigError,
    GENERATORS,
    HypothesisClasses,
    TransitionMode,
    build_scenario,
    check_realizability,
    true_aggregated_model,
    value_iteration,
)
from strategicmdp.model import best_response_table, normal_cdf

from helpers import ref_feedback_by_type
from strategicmdp.scenarios import _assemble, _best_responses, _tile, linear_d

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


@pytest.mark.parametrize(
    "name, key, value, kind",
    [
        ("recsys-small", "bias_probe", "false", "bool"),
        ("dyn-1d", "noiseless", "no", "bool"),
        ("linear-d", "num_candidates", True, "int"),
        ("linear-d", "num_candidates", 2.0, "int"),
        ("recsys-small", "confound", True, "float"),
        ("recsys-small", "confound", "0.3", "float"),
    ],
)
def test_option_of_the_wrong_type_rejected(name, key, value, kind):
    """A quoted boolean or a bool for a number no longer switches a variant on."""
    with pytest.raises(ConfigError, match=rf"scenario '{name}' option '{key}' takes a {kind}"):
        build_scenario(name, params={key: value})


def test_int_accepted_for_a_float_option():
    scenario = build_scenario("recsys-small", params={"confound": 0})
    assert scenario.params["confound"] == 0
    assert not scenario.model.reward_confound.any()


@pytest.mark.parametrize("name, key", [("recsys-small", "bogus_boost"), ("contract-small", "reward_noise")])
@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_int_too_large_for_a_float_option_rejected(name, key, value):
    with pytest.raises(ConfigError, match=rf"scenario '{name}' option '{key}' takes a float"):
        build_scenario(name, params={key: value})


def test_an_option_numpy_refuses_is_a_config_error_naming_it():
    """A builtin ValueError from inside the generator names the scenario and its options."""
    want = r"scenario 'linear-d' cannot be built with options \['feature_dim'\]: Maximum allowed dimension"
    with pytest.raises(ConfigError, match=want):
        build_scenario("linear-d", params={"feature_dim": 10**400})


@pytest.mark.parametrize("value", [0, -1])
def test_linear_d_refuses_an_empty_feature_embedding(value):
    """With no feature axis every reward would be 0.5 and every candidate the truth."""
    with pytest.raises(ConfigError, match="feature_dim must be an integer of at least 1"):
        build_scenario("linear-d", params={"feature_dim": value})
    assert build_scenario("linear-d", params={"feature_dim": 1}).params["feature_dim"] == 1


@st.composite
def responses(draw):
    """Sizes H, S, B and a per-type list of each principal action's response."""
    H, S, A, T, B = (draw(st.integers(1, 4)) for _ in range(5))
    row = st.lists(st.integers(0, B - 1), min_size=A, max_size=A)
    return H, S, B, draw(st.lists(row, min_size=T, max_size=T))


@settings(max_examples=200, deadline=None)
@given(responses())
@example((3, 3, 3, [[0, 1], [2, 2]]))  # recsys-small
@example((2, 2, 2, [[0, 1]]))  # degenerate-feedback, T = 1
@example((2, 2, 1, [[0, 0], [0, 0]]))  # shifted-target, B = 1
def test_best_responses_equal_the_literal_loop(case):
    H, S, B, best = case
    T, A = len(best), len(best[0])
    want = np.zeros((H, S, A, T, B))
    for t in range(T):
        for a in range(A):
            want[:, :, a, t, best[t][a]] = 1.0
    got = _best_responses(best, H, S, B)
    assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
    assert got.tobytes() == want.tobytes()


@st.composite
def tables_and_leads(draw):
    """A float, int or bool table, C-ordered or transposed, and leading axis sizes."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    table = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    return (table.T if draw(st.booleans()) else table), lead


@settings(max_examples=200, deadline=None)
@given(tables_and_leads())
def test_tile_equals_repeat_and_a_broadcast_copy(case):
    table, lead = case
    repeated = table
    for n in reversed(lead):
        repeated = np.repeat(repeated[None], n, axis=0)
    got = _tile(table, *lead)
    assert got.flags.c_contiguous
    for want in (repeated, np.broadcast_to(table, lead + table.shape).copy()):
        assert (got.dtype, got.shape) == (want.dtype, want.shape) and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("per_step", [1, 3, 8])
def test_a_candidate_count_one_above_the_cap_is_refused_as_closing_refuses_it(per_step):
    caps = ClassCaps(per_step=per_step)
    with pytest.raises(CapacityError) as closing:
        _assemble(*linear_d(0, num_candidates=per_step + 1), caps)
    with pytest.raises(CapacityError) as early:
        build_scenario("linear-d", params={"num_candidates": per_step + 1}, caps=caps)
    assert str(early.value) == str(closing.value)
    assert str(early.value) == f"{per_step + 1} reward candidates at step 0 exceed the per-step cap {per_step}"
    built = build_scenario("linear-d", params={"num_candidates": per_step}, caps=caps)
    assert len(built.classes.reward_tables[0]) == per_step


def test_a_huge_candidate_count_is_refused_before_any_table_is_built():
    """10**400 candidates allocated candidate tables until memory ran out."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^10{400} reward candidates at step 0 exceed the per-step cap 8$"):
            build_scenario("linear-d", params={"num_candidates": 10**400})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # bytes; 1.8 KB measured, where a build with 8 candidates peaks near 1 MB
    # past Python's int-to-str limit the count cannot be quoted: still a package error
    with pytest.raises(ConfigError, match=r"options \['num_candidates'\]"):
        build_scenario("linear-d", params={"num_candidates": 10**5000})


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


def _counting(real, key, calls):
    def counting(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    return counting


def _spy(monkeypatch, real, key, calls):
    """Count calls of real under key, wherever the package has bound it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "strategicmdp":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, _counting(real, key, calls))


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_build_does_each_piece_of_set_up_once(monkeypatch, name, override):
    """One build validates its classes once, at construction (the closure
    re-validates nothing), computes the per-type feedback table once (its
    best responses, which the model caches), and evaluates the normal CDF
    once per grid coordinate (none at zero noise)."""
    calls = collections.Counter()
    _spy(monkeypatch, best_response_table, "feedback", calls)
    _spy(monkeypatch, normal_cdf, "cdf", calls)
    validate = _counting(HypothesisClasses.__post_init__, "classes", calls)
    monkeypatch.setattr(HypothesisClasses, "__post_init__", validate)
    model = build_scenario(name, params=OVERRIDES[name] if override else None).model
    coordinates = model.grid.dim if model.grid is not None and model.trans_noise_scale else 0
    assert (calls["classes"], calls["feedback"], calls["cdf"]) == (1, 1, coordinates)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_the_cached_feedback_table_equals_the_literal_reference(name):
    model = build_scenario(name).model
    got, want = model.feedback_by_type, ref_feedback_by_type(model)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Prints a SHA-256 of each shipped scenario's closed tables and flags.
CLASSES_DIGEST = """
import hashlib
from strategicmdp import GENERATORS, build_scenario

for name in sorted(GENERATORS):
    classes = build_scenario(name).classes
    maps = [g for per in classes.mean_map_tables or () for g in per]
    digest = hashlib.sha256(repr(classes.flags).encode())
    for table in (
        *classes.reward_tables, *(classes.transition_tables or ()), *maps,
        *classes.discriminators, *classes.value_targets,
    ):
        digest.update(repr(table.shape).encode() + table.tobytes())
    print(name, digest.hexdigest())
"""


def test_closed_classes_do_not_depend_on_the_string_hash_seed():
    """The closures and the cell-mass dedup key rows in dicts; their output
    must not follow the per-process seed of str and bytes hashing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", CLASSES_DIGEST],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in outputs[0].splitlines()] == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("seed", [-1, -3, "x", True, 1.5, None])
def test_build_scenario_refuses_a_seed_that_is_not_a_nonnegative_integer(name, seed):
    """The seed is checked before the generator runs, so a bad one never
    reaches numpy or Scenario.params."""
    with pytest.raises(ConfigError, match="scenario seed must be an integer of at least 0"):
        build_scenario(name, seed)


def test_build_scenario_echoes_a_numpy_seed_as_an_int():
    params = build_scenario("recsys-small", np.int64(3)).params
    assert type(params["seed"]) is int
    assert json.loads(json.dumps(params)) == build_scenario("recsys-small", 3).params

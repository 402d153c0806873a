"""The rule book for input values and the table rule (model.py), and the entry points that use them.

Every public entry point that takes a count, a confidence level or a scale
refuses a bad one with a StrategicMDPError subclass, never a bare Python
error, and accepts the same values as the config parser. Every table an
entry point takes is refused as a package error when ragged, not numbers,
past the float range or misshapen, and a table it keeps is read-only.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategicmdp import (
    AggregatedMDP,
    ClassCaps,
    Policy,
    RunConfig,
    StepData,
    StepDataset,
    TransitionMode,
    build_scenario,
    confidence_levels,
    ill_posedness,
    occupancy,
    run_learner,
    transfer_term,
    true_aggregated_model,
)
from strategicmdp import estimation
from strategicmdp.config import config_from_dict
from strategicmdp.errors import ConfigError, StrategicMDPError, ValidationError
from strategicmdp.harness import run_experiment
from strategicmdp.model import COUNT, NONNEGATIVE, POSITIVE, SCALE, SEED, UNIT_INTERVAL, Grid, as_table

BAD = [0, -1, True, False, math.nan, math.inf, -math.inf, 2.5, np.float32(0.1), np.float32(2.0), 10**400, 10**5000]
HUGE_BITS = (10**5000).bit_length()

GENERAL = build_scenario("recsys-small")
DYNAMICAL = build_scenario("dyn-1d")
SIZES = GENERAL.classes.sizes()
RUN = {"episodes": 2, "delta": 0.1, "mode": TransitionMode.GENERAL, "seed": 0, "beta_scale": 0.1}
LEVELS = {"bound": 1.0, "episodes": 10, "horizon": 3, "sizes": SIZES, "delta": 0.1, "beta_scale": 1.0}


def _config(section: str | None, key: str, value) -> None:
    data = {"environment": {"generator": "recsys-small"}}
    if section is None:
        data[key] = value
    else:
        data.setdefault(section, {})[key] = value
    config_from_dict(data)


def _run(key: str, value) -> None:
    run_learner(GENERAL.model, GENERAL.knowledge(), GENERAL.classes, RunConfig(**{**RUN, key: value}))


def _dataset(*sizes, state_dim=0) -> None:
    """StepDataset(*sizes, state_dim), failing fast if it builds more steps
    than any valid size here has: sizes whose tables cannot be allocated must
    be refused before the first step is built, not loop over a huge horizon."""
    built = itertools.count()

    def step(*args, **kwargs):
        assert next(built) < 64, "a dataset built steps for sizes it cannot hold"
        return StepData(*args, **kwargs)

    with mock.patch.object(estimation, "StepData", step):
        StepDataset(*sizes, state_dim=state_dim)


def _append(position: int, value) -> None:
    args = [0, 0, 0, 0, 0.5, 0]
    args[position] = value
    StepDataset(3, 3, 2, 3).append(*args)


# Each entry point, called with one value replaced.
ENTRIES = {
    **{
        f"config {section or ''}.{key}": (lambda v, s=section, k=key: _config(s, k, v))
        for section, keys in {
            "environment": ["seed"],
            "classes": ["per_step_cap", "joint_cap"],
            "run": ["episodes", "delta", "beta_scale", "evaluation_cadence", "selector_cap"],
            "diagnostics": ["policy_budget"],
            None: ["workers"],
        }.items()
        for key in keys
    },
    "config run.seeds": lambda v: _config("run", "seeds", [v]),
    **{
        f"RunConfig.validate {key}": (lambda v, k=key: RunConfig(**{**RUN, k: v}).validate())
        for key in ("episodes", "seed", "delta", "beta_scale", "selector_cap")
    },
    **{f"run_learner {key}": (lambda v, k=key: _run(k, v)) for key in ("episodes", "seed", "delta", "beta_scale")},
    **{
        f"confidence_levels {key}": (lambda v, k=key: confidence_levels(**{**LEVELS, k: v}))
        for key in ("bound", "episodes", "horizon", "delta", "beta_scale")
    },
    **{
        f"StepDataset size {i}": (lambda v, i=i: _dataset(*[v if j == i else 2 for j in range(4)]))
        for i in range(4)
    },
    "StepDataset state_dim": lambda v: _dataset(2, 2, 2, 2, state_dim=v),
    **{f"StepDataset.append argument {i}": (lambda v, i=i: _append(i, v)) for i in range(6)},
    "ClassCaps per_step": lambda v: ClassCaps(per_step=v),
    "ClassCaps joint": lambda v: ClassCaps(joint=v),
    "HypothesisClasses bound": lambda v: dataclasses.replace(GENERAL.classes, bound=v),
    **{
        f"StrategicModel {key}": (lambda v, k=key: dataclasses.replace(DYNAMICAL.model, **{k: v}))
        for key in ("reward_noise_std", "reward_bound", "trans_noise_scale")
    },
    **{
        f"StrategicModel {key}": (lambda v, k=key: dataclasses.replace(GENERAL.model, **{k: v}))
        for key in ("horizon", "num_states", "num_actions", "num_feedbacks", "num_types", "num_agent_actions",
                    "initial_state")
    },
    "LearnerKnowledge trans_noise_scale": lambda v: dataclasses.replace(DYNAMICAL.knowledge(), trans_noise_scale=v),
    "Grid cell count": lambda v: Grid((0.0,), (1.0,), (v,)),
    "Policy.deterministic num_actions": lambda v: Policy.deterministic([[0, 0]], v),
    "Grid.gaussian_mass_1d scale": lambda v: DYNAMICAL.model.grid.gaussian_mass_1d(0.0, v, 0),
    "ill_posedness policy_budget": lambda v: ill_posedness(GENERAL.model, GENERAL.classes, 0, policy_budget=v),
    "transfer_term policy_budget": lambda v: transfer_term(GENERAL.model, GENERAL.classes, 0, policy_budget=v),
    "build_scenario seed": lambda v: build_scenario("recsys-small", v),
    "linear-d feature_dim": lambda v: build_scenario("linear-d", params={"feature_dim": v}),
    "linear-d num_candidates": lambda v: build_scenario("linear-d", params={"num_candidates": v}),
}

# Tables of the wrong shape, ragged, or not numbers.
BAD_TABLES = [np.zeros(()), np.zeros(5), np.ones((2, 2, 2)), [[1.0], [1.0, 2.0]], "abc", None, [[10**400]]]
TABLE_ENTRIES = {
    **{
        f"StrategicModel {key}": (lambda v, k=key: dataclasses.replace(GENERAL.model, **{k: v}))
        for key in ("source_type_dist", "target_type_dist", "agent_reward", "feedback_kernel",
                    "principal_reward", "reward_confound", "transition_kernel")
    },
    **{
        f"LearnerKnowledge {key}": (lambda v, k=key: dataclasses.replace(GENERAL.knowledge(), **{k: v}))
        for key in ("target_type_dist", "feedback_by_type")
    },
    **{
        f"HypothesisClasses {key}": (lambda v, k=key: dataclasses.replace(GENERAL.classes, **{k: [v] * 3}))
        for key in ("reward_tables", "transition_tables", "discriminators")
    },
    "StepDataset.append next state": lambda v: StepDataset(3, 3, 2, 3, state_dim=1).append(0, 0, 0, 0, 0.5, v),
    "AggregatedMDP rewards": lambda v: AggregatedMDP(v, np.full((1, 2, 2, 2), 0.5), 0),
    "AggregatedMDP transitions": lambda v: AggregatedMDP(np.zeros((1, 2, 2)), v, 0),
    "Policy": lambda v: Policy(v),
    "Policy.deterministic": lambda v: Policy.deterministic(v, 2),
    "Grid.locate": lambda v: DYNAMICAL.model.grid.locate(v),
    **{
        f"StrategicModel {key} (dynamical)": (lambda v, k=key: dataclasses.replace(DYNAMICAL.model, **{k: v}))
        for key in ("mean_map", "trans_confound")
    },
    "HypothesisClasses value_targets": lambda v: dataclasses.replace(GENERAL.classes, value_targets=[v] * 3),
    "HypothesisClasses mean_map_tables": lambda v: dataclasses.replace(DYNAMICAL.classes, mean_map_tables=[[v]] * 3),
}

# Entry points for which some of BAD_TABLES are valid: cell-mass means take
# any shape, and a population of None is the default one.
LOOSE_TABLE_ENTRIES = {
    "Grid.gaussian_mass_1d means": (lambda v: DYNAMICAL.model.grid.gaussian_mass_1d(v, 0.5, 0), BAD_TABLES[:3]),
    "occupancy type_dist": (lambda v: occupancy(GENERAL.model, Policy.uniform(3, 3, 2), v), [None]),
    "true_aggregated_model type_dist": (lambda v: true_aggregated_model(GENERAL.model, v), [None]),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_point_refuses_the_bad_values_with_a_typed_error(entry):
    """Each value is refused with a package error or accepted; nothing else escapes."""
    for value in BAD:
        try:
            ENTRIES[entry](value)
        except StrategicMDPError:
            pass


@pytest.mark.parametrize("entry", sorted(TABLE_ENTRIES))
def test_every_table_taking_entry_point_refuses_misshapen_tables(entry):
    for table in BAD_TABLES:
        with pytest.raises(StrategicMDPError):
            TABLE_ENTRIES[entry](table)


@pytest.mark.parametrize("entry", sorted(LOOSE_TABLE_ENTRIES))
def test_entry_points_taking_any_shape_or_a_default_refuse_the_other_bad_tables(entry):
    call, valid = LOOSE_TABLE_ENTRIES[entry]
    for table in BAD_TABLES:
        if any(table is v for v in valid):
            call(table)
        else:
            with pytest.raises(StrategicMDPError):
                call(table)


@settings(max_examples=300, deadline=None)
@given(
    entry=st.sampled_from(sorted(ENTRIES)),
    value=st.one_of(
        st.sampled_from(BAD),
        st.floats(),
        st.integers(max_value=0),
        st.integers(min_value=10**400, max_value=10**401),
        st.booleans(),
        st.floats(width=32).map(np.float32),
    ),
)
def test_entry_points_let_only_package_errors_escape(entry, value):
    """Random floats, nonpositive ints and ints past the float range, at every entry point."""
    try:
        ENTRIES[entry](value)
    except StrategicMDPError:
        pass


@pytest.mark.parametrize(
    "position, value",
    [(0, 3), (1, -1), (3, True), (4, math.nan), (4, 10**400), (5, 2.5)],
    ids=["step", "state", "feedback", "nan reward", "huge reward", "next state"],
)
def test_a_refused_append_writes_nothing(position, value):
    data = StepDataset(3, 3, 2, 3)
    data.append(0, 1, 1, 2, 0.25, 2)
    before = [[t.copy() for t in (s.counts, s.reward_sums, s.next_counts)] for s in data.steps]
    args = [1, 1, 1, 1, 0.5, 1]
    args[position] = value
    with pytest.raises(StrategicMDPError):
        data.append(*args)
    after = [[s.counts, s.reward_sums, s.next_counts] for s in data.steps]
    for want, got in zip(before, after):
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize(
    "s_next", [[math.nan], [10**400], "x", [0.1, 0.2], None], ids=["nan", "huge", "text", "2-vector", "none"]
)
def test_a_refused_dynamical_append_writes_nothing(s_next):
    data = StepDataset(3, 3, 2, 3, state_dim=1)
    with pytest.raises(ValidationError, match="next state"):
        data.append(0, 0, 0, 0, 0.5, s_next)
    assert not any(s.counts.any() or s.reward_sums.any() or s.next_sums.any() for s in data.steps)


# ---------------------------------------------------------------------------
# Each refusal that once escaped as a bare Python error, or disagreed
# between the config parser and the library
# ---------------------------------------------------------------------------


def test_run_config_refuses_a_beta_scale_past_the_float_range():
    """Was a bare OverflowError from math.isfinite."""
    with pytest.raises(ConfigError, match="beta_scale must be finite and positive, got 1000"):
        RunConfig(**{**RUN, "beta_scale": 10**400}).validate()


def test_confidence_levels_refuses_a_beta_scale_past_the_float_range():
    """Was a bare OverflowError from 28.0 * bound * bound * beta_scale."""
    with pytest.raises(ConfigError, match="beta_scale must be finite and positive"):
        confidence_levels(**{**LEVELS, "beta_scale": 10**400})


def test_confidence_levels_refuses_a_fractional_episode_count():
    """episodes=2.5 passed the old `episodes < 1` check."""
    with pytest.raises(ConfigError, match="episodes must be an integer of at least 1, got 2.5"):
        confidence_levels(**{**LEVELS, "episodes": 2.5})


def test_run_learner_refuses_an_episode_count_past_the_float_range():
    """Was a bare OverflowError from float(episodes) in confidence_levels."""
    with pytest.raises(ConfigError, match="episodes times horizon must be finite and positive"):
        _run("episodes", 10**400)


@pytest.mark.parametrize("key, rule", [("reward_noise_std", "nonnegative"), ("reward_bound", "positive")])
def test_model_refuses_reward_scales_past_the_float_range(key, rule):
    """Were bare OverflowErrors from math.isfinite."""
    with pytest.raises(ValidationError, match=f"{key} must be finite and {rule}"):
        dataclasses.replace(GENERAL.model, **{key: 10**400})


def test_classes_refuse_a_bound_past_the_float_range():
    with pytest.raises(ValidationError, match="bound must be finite and positive"):
        dataclasses.replace(GENERAL.classes, bound=10**400)


def test_cell_masses_refuse_a_scale_past_the_float_range():
    with pytest.raises(ValidationError, match="cell mass scale must be finite and nonnegative"):
        DYNAMICAL.model.grid.gaussian_mass_1d(0.0, 10**400, 0)


def test_config_refuses_a_beta_scale_past_the_digit_limit_with_its_own_error():
    """The old message repr()'d the int, which raised a bare ValueError past 4300 digits."""
    want = f"run.beta_scale: must be finite and positive, got an integer of {HUGE_BITS} bits"
    with pytest.raises(ValidationError, match=want):
        _config("run", "beta_scale", 10**5000)


def test_config_names_an_int_key_past_the_digit_limit():
    """The unknown-section and unknown-key messages str()'d the key, a bare ValueError past 4300 digits."""
    with pytest.raises(ValidationError, match=f"an integer of {HUGE_BITS} bits: unknown section"):
        config_from_dict({10**5000: 1})
    with pytest.raises(ValidationError, match=f"environment.an integer of {HUGE_BITS} bits: unknown key"):
        _config("environment", 10**5000, 1)


def test_model_refuses_a_size_past_the_digit_limit_with_its_own_error():
    """The shape message printed the expected shape, a bare ValueError past 4300 digits."""
    with pytest.raises(ValidationError, match=f"expected \\(an integer of {HUGE_BITS} bits, 2\\)"):
        dataclasses.replace(GENERAL.model, horizon=10**5000)


@pytest.mark.parametrize("value", [2.5, True, -1, np.float32(2.0)])
def test_model_refuses_a_size_that_is_not_a_count_by_the_count_rule(value):
    """num_states 2.5, True or -1 was refused as a shape mismatch, and a
    num_types of np.float32(2.0) built a model."""
    for key in ("num_states", "num_types"):
        with pytest.raises(ValidationError, match=f"^{key} {COUNT.stem}, got "):
            dataclasses.replace(GENERAL.model, **{key: value})


def test_confidence_levels_takes_a_large_numpy_float32_bound():
    """28 * bound * bound overflowed in float32's width, a bare RuntimeWarning under the test filters."""
    levels = confidence_levels(**{**LEVELS, "bound": np.float32(3.4861072e18)})
    assert math.isfinite(levels.reward)


def test_model_refuses_a_table_of_the_other_transition_mode():
    """A general model kept a mean map unchecked and writable."""
    with pytest.raises(ValidationError, match="^mean_map belongs to the other transition mode$"):
        dataclasses.replace(GENERAL.model, mean_map=DYNAMICAL.model.mean_map)
    with pytest.raises(ValidationError, match="^transition_kernel belongs to the other transition mode$"):
        dataclasses.replace(DYNAMICAL.model, transition_kernel=GENERAL.model.transition_kernel)


def test_config_and_run_config_agree_on_a_numpy_float_delta():
    """config_from_dict refused np.float32(0.1) as not strictly between 0 and 1."""
    delta = np.float32(0.1)
    RunConfig(**{**RUN, "delta": delta}).validate()
    data = {"environment": {"generator": "recsys-small"}, "run": {"delta": delta}}
    assert config_from_dict(data).delta == float(delta)


# ---------------------------------------------------------------------------
# The rules themselves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rule, good, bad",
    [
        (COUNT, [1, np.int64(7), 10**400], [0, -1, True, 1.0, np.float32(2.0), None, "1"]),
        (NONNEGATIVE, [0, np.uint8(3), 10**5000], [-1, False, 0.0, math.nan]),
        (UNIT_INTERVAL, [0.5, np.float32(0.1), 1e-300], [0, 1, 1.0, math.nan, True, 10**400, "0.5"]),
        (POSITIVE, [1, 2.5, np.float32(0.1), 1e308], [0, -0.0, math.inf, math.nan, True, 10**400, None]),
        (SCALE, [0, 0.0, 1e308, np.float64(3)], [-1e-300, math.inf, math.nan, False, 10**400]),
        (SEED, [0, np.uint64(2**64 - 1), 2**64 - 1], [-1, 2**64, 10**5000, True, 1.0, np.float64(3), None]),
    ],
    ids=["count", "nonnegative", "unit interval", "positive", "scale", "seed"],
)
def test_rules_accept_and_refuse(rule, good, bad):
    assert [rule(v) for v in good] == [None] * len(good)
    assert all(rule(v).startswith(rule.stem + ", got ") for v in bad)


def test_rule_messages_survive_ints_past_the_digit_limit():
    assert COUNT(-(10**5000)) == f"{COUNT.stem}, got an integer of {HUGE_BITS} bits"
    with pytest.raises(ConfigError, match=f"seed must be an integer of at least 0, got an integer of {HUGE_BITS} bits"):
        NONNEGATIVE.check(-(10**5000), "seed", ConfigError)


def test_config_names_a_seed_list_holding_an_int_past_the_digit_limit():
    with pytest.raises(ValidationError, match="run.seeds: must be a nonempty list of nonnegative integers, got a list"):
        _config("run", "seeds", [-(10**5000)])
    with pytest.raises(ValidationError, match=re.escape(f"run.seeds: each seed {SEED.stem}, got an integer of")):
        _config("run", "seeds", [10**5000, 10**5000])


@pytest.mark.parametrize("section, key, value", [("run", "seeds", [10**5000]), ("environment", "seed", 2**64)])
def test_a_seed_past_64_bits_is_refused_before_an_experiment_writes_anything(tmp_path, section, key, value):
    """Passed config_from_dict, and run_experiment then died with a bare
    ValueError naming the seed directory or writing the manifest."""
    data = {"environment": {"generator": "recsys-small"}, "run": {"episodes": 2}, "output": {"root": str(tmp_path)}}
    data[section][key] = value
    with pytest.raises(ValidationError, match=f"{section}.{key}: .*below 2"):
        run_experiment(config_from_dict(data))
    assert list(tmp_path.iterdir()) == []


def test_the_largest_64_bit_seed_runs(tmp_path):
    seed = 2**64 - 1
    data = {
        "environment": {"generator": "recsys-small", "seed": seed},
        "run": {"episodes": 2, "seeds": [seed]},
        "output": {"root": str(tmp_path)},
    }
    exp = run_experiment(config_from_dict(data))
    manifest = json.loads((exp / f"seed-{seed}" / "manifest.json").read_text())
    assert manifest["config"]["environment"]["seed"] == seed and manifest["seed"] == seed


def test_policy_deterministic_refuses_an_action_count_that_is_not_a_count():
    """2.5, True and np.float64(2.0) escaped as a bare TypeError from np.eye, 10**400 as a ValueError."""
    for value in (2.5, True, np.float64(2.0)):
        with pytest.raises(ValidationError, match=f"^num_actions {COUNT.stem}, got "):
            Policy.deterministic([[0, 0]], value)
    with pytest.raises(ValidationError, match="^no policy table has 1000"):
        Policy.deterministic([[0, 0]], 10**400)
    np.testing.assert_array_equal(Policy.deterministic([[0, 1]], 3).action_probs, [[[1, 0, 0], [0, 1, 0]]])


def test_selection_mode_refusal_names_a_huge_int():
    with pytest.raises(ValidationError, match="run.optimism: must be one of"):
        _config("run", "optimism", 10**5000)
    with pytest.raises(ConfigError, match="optimism must be a SelectionMode, got an integer"):
        RunConfig(**{**RUN, "optimism": 10**5000}).validate()


def test_a_config_holding_numpy_values_runs_and_writes_their_python_values(tmp_path):
    """The config accepts the numpy numbers RunConfig accepts, so a manifest must be able to write them."""
    data = {
        "environment": {"generator": "recsys-small", "seed": np.int64(1)},
        "run": {"episodes": np.int64(3), "delta": np.float32(0.5), "seeds": [np.uint8(2)]},
        "output": {"root": str(tmp_path)},
    }
    exp = run_experiment(config_from_dict(data))
    config = json.loads((exp / "seed-0002" / "manifest.json").read_text())["config"]
    assert config["environment"]["seed"] == 1
    assert config["run"] == {"episodes": 3, "delta": 0.5, "seeds": [2]}


# ---------------------------------------------------------------------------
# The table rule, and the read-only tables it leaves behind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, shape, kwargs, message",
    [
        ([[1.0], [1.0, 2.0]], None, {}, "^t is not a table of floats: "),
        ("abc", None, {}, "^t is not a table of floats: "),
        ([[10**400]], None, {}, "^t is not a table of floats: "),
        (np.zeros((2, 3)), ("H", "H"), {}, r"^t has shape \(2, 3\), expected \(H, H\)$"),
        (np.zeros((2, 0)), ("H", "T"), {}, r"^t has shape \(2, 0\), expected \(H, T\)$"),
        (np.zeros((2, 3)), (None, 2), {}, r"^t has shape \(2, 3\), expected \(n, 2\)$"),
        (np.zeros(2), (10**5000,), {}, f"^t has shape \\(2,\\), expected \\(an integer of {HUGE_BITS} bits\\)$"),
        (np.zeros(2), (2.5,), {}, f"^a size of t {COUNT.stem}, got 2.5$"),
        ([1.0, math.inf], None, {}, "^t has non-finite entries$"),
        ([0.5, math.nan], (2,), {"rows": True}, "^t has non-finite entries$"),
        ([[0.5, 0.4]], (1, 2), {"rows": True}, "^t has a row that is not a distribution$"),
        ([[1.5, -0.5]], (1, 2), {"rows": True}, "^t has a row that is not a distribution$"),
    ],
    ids=[
        "ragged", "text", "huge", "named axis", "named axis of size 0", "stack", "huge size", "size 2.5", "inf",
        "nan row", "short row", "negative entry",
    ],
)
def test_table_rule_refuses(value, shape, kwargs, message):
    with pytest.raises(ValidationError, match=message):
        as_table(value, shape, "t", **kwargs)


def test_table_rule_returns_a_read_only_copy_once():
    """The caller's array is copied, so a later write to it cannot reach the
    table; an array the rule returned is taken as it is."""
    mine = np.full((2, 2), 0.5)
    table = as_table(mine, ("S", "S"), "t", rows=True)
    mine[0, 0] = math.nan
    assert table[0, 0] == 0.5 and not table.flags.writeable
    assert as_table(table, (2, 2), "t") is table
    assert as_table(np.zeros((3, 0)), (3, None), "t", finite=False).shape == (3, 0)
    np.testing.assert_array_equal(as_table([[math.nan]], (1, 1), "t", finite=False), [[math.nan]])


def _arrays(value, seen: set[int]):
    """Every numpy array reachable from value through attributes (cached ones
    too), lists, tuples and dict values."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item, seen)
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        yield from _arrays(vars(value), seen)


@pytest.mark.parametrize("scenario", [GENERAL, DYNAMICAL], ids=["recsys-small", "dyn-1d"])
def test_every_table_of_a_scenario_its_knowledge_and_a_run_is_read_only(scenario):
    """The model, the closed classes, the knowledge and the policies a run
    commits hold only read-only arrays, the grid's cached bins and the
    model's cached feedback table and step kernels included."""
    knowledge = scenario.knowledge()
    scenario.model.feedback_by_type, scenario.model.step_kernels  # the model's cached law, so the walk sees it
    mode = scenario.model.transition_mode
    run = run_learner(scenario.model, knowledge, scenario.classes, RunConfig(**{**RUN, "episodes": 20, "mode": mode}))
    assert len(run.committed) >= 1
    arrays = list(_arrays((scenario, knowledge, run.initial_policy, run.committed), set()))
    assert len(arrays) >= 20
    assert [a.shape for a in arrays if a.flags.writeable] == []


def test_a_nan_written_into_the_closed_reward_table_is_refused():
    """A NaN written into the closed recsys-small reward table at (step 0,
    candidate 0) dropped the truth reward from every step-0 set, with no error."""
    scenario = build_scenario("recsys-small")
    with pytest.raises(ValueError, match="read-only"):
        scenario.classes.reward_tables[0][0, 0, 0, 0] = np.nan
    run = run_learner(scenario.model, scenario.knowledge(), scenario.classes, RunConfig(**{**RUN, "episodes": 20}))
    assert run.flags == () and all(entry.truth_covered for entry in run.entries)

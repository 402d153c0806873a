"""Online loop: set maintenance, optimistic commitment, mixture output."""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategicmdp import (
    AggregatedMDP,
    CandidateAggregates,
    CapacityError,
    ConfigError,
    Grid,
    LearnerKnowledge,
    Policy,
    RealizabilityError,
    RunConfig,
    SelectionMode,
    TransitionMode,
    ValidationError,
    build_scenario,
    close_classes,
    policy_value,
    regret_curve,
    run_learner,
    true_aggregated_model,
    value_iteration,
)

from strategicmdp import driver, estimation
from strategicmdp.harness import checkpoints, seed_outcome, write_episodes_csv

from helpers import (
    mixture_value,
    random_dynamical,
    random_general,
    ref_bare,
    ref_canonical_json,
    ref_run_learner,
    ref_sized,
    ref_sizes_p,
    ref_transition_set_sizes,
    ref_truth_in_record,
    ref_write_episodes_csv,
    tiny_general,
)
from test_hypotheses import singleton_classes


def run_cfg(episodes=30, seed=0, **kw):
    kw.setdefault("delta", 0.1)
    kw.setdefault("beta_scale", 0.1)
    return RunConfig(episodes=episodes, mode=TransitionMode.GENERAL, seed=seed, **kw)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        run_cfg(episodes=0).validate()
    with pytest.raises(ConfigError):
        run_cfg(delta=2.0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(run_cfg(), beta_scale=0.0).validate()
    for cap in (0, -5):
        with pytest.raises(ConfigError, match="selector_cap"):
            run_cfg(selector_cap=cap).validate()


@pytest.mark.parametrize(
    "field, value",
    [("episodes", 2.5), ("episodes", True), ("episodes", "3"), ("seed", -1), ("seed", 1.0), ("seed", False)],
)
def test_run_config_rejects_episodes_and_seeds_that_are_not_counts(field, value):
    """The library path refuses what the config path refuses, as a ConfigError,
    before a float count or a negative seed reaches range() or the generator."""
    scenario = build_scenario("recsys-small")
    cfg = dataclasses.replace(run_cfg(episodes=2), **{field: value})
    with pytest.raises(ConfigError, match=field):
        run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mode", "general"),
        ("optimism", "exact"),
        ("selector_cap", True),
        ("selector_cap", 2.5),
        ("delta", "x"),
        ("delta", None),
        ("beta_scale", "0.1"),
        ("strict_realizability", "false"),
    ],
)
def test_run_config_rejects_mistyped_settings(field, value):
    """A string mode used to run the pointwise relaxation in every episode and
    then break canonical_json; a bool or float cap passed, a string delta
    escaped as a TypeError, and a quoted "false" made the run strict."""
    scenario = build_scenario("recsys-small")
    cfg = dataclasses.replace(run_cfg(episodes=2), **{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()
    with pytest.raises(ConfigError, match=field):
        run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)


def test_run_config_accepts_numpy_integers():
    run_cfg(episodes=np.int64(2), seed=np.uint32(5)).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_run_config_rejects_non_finite_beta_scale(value):
    with pytest.raises(ConfigError, match="beta_scale"):
        run_cfg(beta_scale=value).validate()


def test_mode_mismatch_rejected():
    scenario = build_scenario("recsys-small")
    cfg = RunConfig(episodes=5, delta=0.1, mode=TransitionMode.DYNAMICAL, seed=0)
    with pytest.raises(ConfigError):
        run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)


SIZE_MISMATCHES = {
    "model-and-knowledge": ("recsys-small", "contract-small", "recsys-small"),
    "classes": ("recsys-small", "recsys-small", "contract-small"),
    "aggregates": (None, "dyn-1d", "recsys-small"),
}


@pytest.mark.parametrize("case", sorted(SIZE_MISMATCHES))
def test_inputs_of_different_sizes_are_refused(case):
    """The model, the knowledge and the classes must agree on (H, S, A, E);
    before the check they met in a bare numpy broadcasting error."""
    model_name, knowledge_name, classes_name = SIZE_MISMATCHES[case]
    knowledge = build_scenario(knowledge_name).knowledge()
    classes = build_scenario(classes_name).classes
    dims = {"recsys-small": "(3, 3, 2, 3)", "contract-small": "(3, 2, 2, 2)", "dyn-1d": "(3, 9, 2, 2)"}
    want = {dims[knowledge_name], dims[classes_name]}
    with pytest.raises(ValidationError, match=r"\(H, S, A, E\) differ") as info:
        if model_name is None:
            CandidateAggregates.from_classes(classes, knowledge)
        else:
            model = build_scenario(model_name).model
            run_learner(model, knowledge, classes, run_cfg(episodes=2))
    assert len(want) == 2 and all(d in str(info.value) for d in want)


def test_single_episode_mixture_is_uniform_start():
    scenario = build_scenario("recsys-small")
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=1))
    assert len(result.episodes) == 1
    assert len(result.policies) == 1
    uniform = Policy.uniform(3, 3, 2)
    np.testing.assert_array_equal(result.policies[0].action_probs, uniform.action_probs)
    assert all(step.counts.sum() == 1 for step in result.dataset.steps)


def test_singleton_truth_commits_optimal_policy():
    model = tiny_general(reward_noise=0.0)
    classes = singleton_classes(model)
    kn = LearnerKnowledge.from_model(model)
    cfg = RunConfig(episodes=6, delta=0.1, mode=TransitionMode.GENERAL, seed=2)
    result = run_learner(model, kn, classes, cfg)
    plan = value_iteration(true_aggregated_model(model))
    for rec in result.episodes:
        assert abs(rec.optimistic_value - plan.value_at_initial) <= 1e-9
        assert rec.reward_sets == ((0,), (0,))
    for pol in result.policies[1:]:
        np.testing.assert_array_equal(pol.action_probs, plan.policy.action_probs)


def test_betas_fixed_across_episodes():
    scenario = build_scenario("recsys-small")
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=12))
    first = result.episodes[0].betas
    assert all(rec.betas == first for rec in result.episodes)
    assert first[0] > 0 and first[1] > first[0]


def test_canonical_json_reproducible():
    scenario = build_scenario("recsys-small")
    a = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=15, seed=4))
    b = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=15, seed=4))
    assert a.canonical_json() == b.canonical_json()
    assert "wallclock" not in a.canonical_json()


EPISODE_KEYS = {
    "episode",
    "reward_sets",
    "transition_sets",
    "betas",
    "optimistic_value",
    "relaxed",
    "chosen_reward_idx",
    "chosen_transition_idx",
    "flags",
    "instant_regret",
    "cum_regret",
}


def test_canonical_json_episode_keys_are_pinned():
    """A record serializes the learner's decision: its sets, levels, choice
    and flags, never the losses behind them nor the wall clock."""
    scenario = build_scenario("recsys-small")
    run = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=5))
    payload = json.loads(run.canonical_json())
    assert set(payload) == {"config", "episodes", "flags", "policies"}
    assert all(set(rec) == EPISODE_KEYS for rec in payload["episodes"])


def test_different_seeds_differ():
    scenario = build_scenario("recsys-small")
    a = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=15, seed=0))
    b = run_learner(scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=15, seed=1))
    assert a.canonical_json() != b.canonical_json()


def test_agent_utilities_matter_only_through_best_responses():
    # doubling every agent utility preserves all argmax responses, so the
    # observable world and hence the whole run must not change at all
    scenario = build_scenario("recsys-small")
    model2 = dataclasses.replace(scenario.model, agent_reward=2.0 * scenario.model.agent_reward)
    cfg = run_cfg(episodes=15, seed=3)
    a = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    b = run_learner(model2, scenario.knowledge(), scenario.classes, run_cfg(episodes=15, seed=3))
    assert a.canonical_json() == b.canonical_json()


def test_selector_cap_falls_back_to_pointwise():
    scenario = build_scenario("recsys-small")
    cfg = run_cfg(episodes=5, selector_cap=2)
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    assert all(rec.relaxed for rec in result.episodes)
    assert all("selector-capacity-fallback" in rec.flags for rec in result.episodes)
    assert all("relaxed-selection" in rec.flags for rec in result.episodes)


def test_pointwise_mode_requested_directly():
    scenario = build_scenario("recsys-small")
    cfg = run_cfg(episodes=5, optimism=SelectionMode.POINTWISE)
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    assert all(rec.relaxed for rec in result.episodes)
    assert all(rec.chosen_reward_idx is None for rec in result.episodes)


def test_strict_realizability_raises_on_broken_classes():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    tables = list(classes.reward_tables)
    tables[0] = tables[0][1:]
    broken = dataclasses.replace(classes, reward_tables=tables, truth_reward_idx=[None] * 3)
    cfg = run_cfg(episodes=3, strict_realizability=True)
    with pytest.raises(RealizabilityError):
        run_learner(scenario.model, scenario.knowledge(), broken, cfg)
    soft = run_learner(scenario.model, scenario.knowledge(), broken, run_cfg(episodes=3))
    assert "realizability-not-verified" in soft.flags


def test_truth_survives_with_generous_beta():
    scenario = build_scenario("recsys-small")
    cfg = run_cfg(episodes=40, beta_scale=5.0, seed=6)
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    for rec in result.episodes:
        assert all(0 in s for s in rec.reward_sets)
        assert all(0 in s for per in rec.transition_sets for s in per)


def test_optimism_holds_when_truth_survives():
    scenario = build_scenario("recsys-small")
    vstar = value_iteration(true_aggregated_model(scenario.model)).value_at_initial
    for seed in range(3):
        result = run_learner(
            scenario.model, scenario.knowledge(), scenario.classes, run_cfg(episodes=40, seed=seed)
        )
        for rec in result.episodes:
            truth_in = all(0 in s for s in rec.reward_sets) and all(
                0 in s for per in rec.transition_sets for s in per
            )
            if truth_in:
                assert rec.optimistic_value >= vstar - 1e-9


def test_mixture_value_hand_example():
    mdp = AggregatedMDP(np.array([[[0.4, 0.8]]]), np.ones((1, 1, 2, 1)), 0)
    lo = Policy.deterministic(np.zeros((1, 1), dtype=int), 2)
    hi = Policy.deterministic(np.ones((1, 1), dtype=int), 2)
    assert abs(policy_value(mdp, lo) - 0.4) <= 1e-12
    assert abs(policy_value(mdp, hi) - 0.8) <= 1e-12
    np.testing.assert_allclose(mixture_value([lo, hi], mdp), 0.6, atol=1e-12)
    short = Policy.uniform(2, 1, 2)
    with pytest.raises(ConfigError):
        mixture_value([short], mdp)


def test_dynamical_run_smoke():
    scenario = build_scenario("dyn-1d")
    cfg = RunConfig(episodes=8, delta=0.1, mode=TransitionMode.DYNAMICAL, seed=0, beta_scale=0.1)
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    assert len(result.episodes) == 8
    rec = result.episodes[-1]
    # dynamical transition sets are per-coordinate tuples
    assert isinstance(rec.transition_sets[0][0], tuple)
    assert result.dataset.steps[0].next_sums is not None


# ---------------------------------------------------------------------------
# Kernel-index learner against the earlier per-coordinate path
# ---------------------------------------------------------------------------

GRID_1D = Grid((-1.5,), (1.5,), (4,))
GRID_2D = Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))  # 3 x 2 cells


@functools.lru_cache(maxsize=None)
def _closed_instance(kind: str, seed: int):
    """A closed random instance: general, 1-D dynamical, or 2-D dynamical with
    2 x 3 mean-map candidates."""
    H = 2 + seed % 2
    if kind == "general":
        model, classes = random_general(seed, H, states=3, actions=2, feedbacks=2, candidates=3)
    elif kind == "dyn-1d":
        model, classes = random_dynamical(seed, GRID_1D, H, rewards=2, candidates=(3,))
    else:
        model, classes = random_dynamical(seed, GRID_2D, 2, rewards=2, candidates=(2, 3))
    knowledge = LearnerKnowledge.from_model(model)
    return model, knowledge, close_classes(model, classes, knowledge)


def _run_both(kind, seed, optimism, cap, beta_scale, episodes=25):
    model, knowledge, classes = _closed_instance(kind, seed)
    cfg = RunConfig(
        episodes=episodes,
        delta=0.1,
        mode=model.transition_mode,
        seed=seed,
        optimism=optimism,
        beta_scale=beta_scale,
        selector_cap=cap,
    )
    got = run_learner(model, knowledge, classes, cfg)
    want, want_policies = ref_run_learner(model, knowledge, classes, cfg)
    assert len(got.episodes) == len(want) == episodes
    for episode, (rec, ref) in enumerate(zip(got.episodes, want), 1):
        assert ref.pop("episode") == episode  # a record's episode is its position
        # the reference still computes the chosen losses, which a record does not keep
        del ref["chosen_reward_losses"], ref["chosen_transition_losses"]
        if model.transition_mode is TransitionMode.GENERAL:  # the reference shows the one family bare
            ref["transition_sets"] = tuple((s,) for s in ref["transition_sets"])
            if ref["chosen_transition_idx"] is not None:
                ref["chosen_transition_idx"] = tuple((j,) for j in ref["chosen_transition_idx"])
        assert {key: getattr(rec, key) for key in ref} == ref
        family_sizes = ref_transition_set_sizes(ref["transition_sets"])
        assert rec.transition_set_sizes == tuple(math.prod(n) for n in family_sizes)
    assert len(got.policies) == len(want_policies)
    for p, q in zip(got.policies, want_policies):
        np.testing.assert_array_equal(p.action_probs, q.action_probs)
    return got


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 5),
    optimism=st.sampled_from(list(SelectionMode)),
    cap=st.sampled_from([1_000_000, 4]),
    beta_scale=st.sampled_from([1e-5, 1e-4, 0.002, 0.02]),
)
@example(
    kind="dyn-2d",
    seed=0,
    optimism=SelectionMode.EXACT,
    cap=1_000_000,
    beta_scale=0.02,
)
def test_run_learner_matches_per_coordinate_reference(kind, seed, optimism, cap, beta_scale):
    """Small beta scales empty some families (each falls back to its loss
    minimizer), larger ones shrink the sets over the 25 episodes."""
    _run_both(kind, seed, optimism, cap, beta_scale)


@pytest.mark.parametrize("kind", ["general", "dyn-1d", "dyn-2d"])
def test_empty_set_fallback_matches_per_coordinate_reference(kind):
    got = _run_both(kind, 0, SelectionMode.EXACT, 1_000_000, 1e-5)
    assert any(f.endswith("empty-set-fallback") for rec in got.episodes for f in rec.flags)


@pytest.mark.parametrize("kind", ["general", "dyn-1d", "dyn-2d"])
def test_forced_capacity_fallback_matches_per_coordinate_reference(kind):
    got = _run_both(kind, 1, SelectionMode.EXACT, 1, 0.02)
    assert any("selector-capacity-fallback" in rec.flags for rec in got.episodes)


def test_2d_run_writes_per_coordinate_sizes(tmp_path):
    got = _run_both("dyn-2d", 2, SelectionMode.EXACT, 1_000_000, 0.02, episodes=40)
    rec = got.episodes[-1]
    assert all(len(per) == 2 for per in rec.transition_sets)
    assert all(len(idx) == 2 for idx in rec.chosen_transition_idx)
    got.instant_regret = got.cum_regret = [0.0] * len(got.entry_index)
    path = tmp_path / "episodes.csv"
    write_episodes_csv(path, 2, got)
    rows = list(csv.DictReader(path.open(newline="")))
    assert [row["conf_sizes_P"] for row in rows] == [
        ref_sizes_p(ref_transition_set_sizes(rec.transition_sets)) for rec in got.episodes
    ]
    assert any(row["conf_sizes_P"] != "2,3;2,3" for row in rows)


@pytest.mark.parametrize("kind", ["general", "dyn-1d", "dyn-2d"])
def test_records_list_transition_sets_per_family_in_every_mode(kind):
    """Every step lists one survivor tuple per transition family and the
    chosen model's candidate in each, and transition_set_sizes counts the
    surviving models: the product of the family sizes, a flat int per step."""
    run, _, _ = _run_closed(kind, 2, episodes=40)
    classes = _closed_instance(kind, 2)[2]
    radices = [classes.kernel_index(h).radices for h in range(classes.horizon)]
    assert {len(r) for r in radices} == {2 if kind == "dyn-2d" else 1}
    for rec in run.episodes:
        assert len(rec.transition_sets) == len(rec.chosen_transition_idx) == classes.horizon
        for per_family, chosen, radix in zip(rec.transition_sets, rec.chosen_transition_idx, radices):
            assert len(per_family) == len(chosen) == len(radix)
            for survivors, c, n in zip(per_family, chosen, radix):
                assert survivors == tuple(sorted(set(survivors))) and 0 <= survivors[0] and survivors[-1] < n
                assert c in survivors
        sizes = tuple(math.prod(len(s) for s in per_family) for per_family in rec.transition_sets)
        assert rec.transition_set_sizes == sizes
        assert all(type(n) is int for n in rec.transition_set_sizes)


# ---------------------------------------------------------------------------
# Truth coverage, decided where the sets are decoded
# ---------------------------------------------------------------------------


def _designated(classes, picks):
    """Classes whose designated truths are taken from picks in turn, step by
    step, reward first: None leaves a truth undesignated, an integer names
    candidate pick % count, most often one that the data eliminates."""
    picks = iter(picks)

    def pick(count):
        p = next(picks)
        return None if p is None else p % count

    rewards, transitions = [], []
    for h in range(classes.horizon):
        rewards.append(pick(len(classes.reward_tables[h])))
        per = [pick(n) for n in classes.kernel_index(h).radices]
        transitions.append(per[0] if classes.mode is TransitionMode.GENERAL else per)
    return dataclasses.replace(classes, truth_reward_idx=rewards, truth_transition_idx=transitions)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 5),
    beta_scale=st.sampled_from([1e-4, 0.002, 0.02, 5.0]),
    picks=st.lists(
        st.one_of(st.none(), st.integers(0, 5)) | st.integers(0, 5), min_size=9, max_size=9
    ),
)
def test_truth_coverage_matches_the_per_record_reference(kind, seed, beta_scale, picks):
    """Every record's truth_covered equals the check the harness made on the
    record's shaped sets, for truths that survive, truths the data eliminates
    and truths left undesignated at a step or a coordinate."""
    model, knowledge, classes = _closed_instance(kind, seed)
    classes = _designated(classes, picks)
    cfg = RunConfig(
        episodes=20,
        delta=0.1,
        mode=model.transition_mode,
        seed=seed,
        beta_scale=beta_scale,
    )
    result = run_learner(model, knowledge, classes, cfg)
    for rec in result.episodes:
        assert rec.truth_covered is ref_truth_in_record(ref_bare(rec, classes), classes)


# ---------------------------------------------------------------------------
# The run's selection memo
# ---------------------------------------------------------------------------


def count_calls(monkeypatch):
    """Wrap the two names run_learner looks up at call time with counters.

    built gets (set key, empty-set fallback flags) per confidence-set build,
    selected one [key, mode, raised] entry per optimistic_select call."""
    built, selected = [], []
    real_build, real_select = estimation.build_confidence_sets, driver.optimistic_select

    def build(*args, **kwargs):
        sets = real_build(*args, **kwargs)
        built.append(((tuple(sets.reward_sets), tuple(sets.transition_sets)), sets.fallback_flags))
        return sets

    def select(aggregates, reward_sets, transition_sets, initial_state, mode, cap):
        entry = [(tuple(reward_sets), tuple(transition_sets)), mode, False]
        selected.append(entry)
        try:
            return real_select(aggregates, reward_sets, transition_sets, initial_state, mode, cap)
        except CapacityError:
            entry[2] = True
            raise

    monkeypatch.setattr(estimation, "build_confidence_sets", build)
    monkeypatch.setattr(driver, "optimistic_select", select)
    return built, selected


@pytest.mark.parametrize("kind", ["general", "dyn-1d", "dyn-2d"])
@pytest.mark.parametrize(
    "optimism, cap",
    [
        (SelectionMode.EXACT, 1_000_000),
        (SelectionMode.EXACT, 1),
        (SelectionMode.POINTWISE, 1_000_000),
    ],
)
def test_selection_runs_once_per_distinct_set(monkeypatch, kind, optimism, cap):
    """Sets are built in every episode; the selector runs once per
    distinct (reward sets, transition sets) key, plus one pointwise retry for
    each key whose exact selection exceeds the cap."""
    model, knowledge, classes = _closed_instance(kind, 1)
    cfg = RunConfig(
        episodes=40,
        delta=0.1,
        mode=model.transition_mode,
        seed=1,
        optimism=optimism,
        beta_scale=1e-4,
        selector_cap=cap,
    )
    built, selected = count_calls(monkeypatch)
    result = run_learner(model, knowledge, classes, cfg)
    assert len(built) == len(result.episodes) == 40
    keys = [key for key, _ in built]
    distinct = list(dict.fromkeys(keys))
    assert 3 <= len(distinct) < len(keys)
    first_calls = [(key, raised) for key, mode, raised in selected if mode is optimism]
    assert [key for key, _ in first_calls] == distinct
    fell_back = [key for key, raised in first_calls if raised]
    assert bool(fell_back) == (optimism is SelectionMode.EXACT and cap == 1)
    retries = [(key, mode) for key, mode, _ in selected if mode is not optimism]
    assert retries == [(key, SelectionMode.POINTWISE) for key in fell_back]
    for rec, (key, fallback_flags) in zip(result.episodes, built):
        assert ("selector-capacity-fallback" in rec.flags) == (key in fell_back)
        assert set(fallback_flags) <= set(rec.flags)
        relaxed = optimism is SelectionMode.POINTWISE or key in fell_back
        assert rec.reward_sets == key[0] and (rec.chosen_reward_idx is None) == relaxed
    # records with one key share one copy of its set tuples and one Policy
    assert len({id(rec.reward_sets) for rec in result.episodes}) == len(distinct)
    assert len({id(rec.transition_sets) for rec in result.episodes}) == len(distinct)
    assert len({id(p) for p in result.policies[1:]}) == len(distinct)


def test_one_key_with_and_without_an_empty_set_fallback(monkeypatch):
    """The memo answers a key however its sets arose; the fallback flags stay
    those of the episode's own build."""
    model, knowledge, classes = _closed_instance("general", 1)
    cfg = RunConfig(
        episodes=40,
        delta=0.1,
        mode=model.transition_mode,
        seed=1,
        beta_scale=1e-4,
    )
    built, _ = count_calls(monkeypatch)
    result = run_learner(model, knowledge, classes, cfg)
    both = {key for key, flags in built if flags} & {key for key, flags in built if not flags}
    assert both
    for rec, (key, flags) in zip(result.episodes, built):
        fallback = tuple(f for f in rec.flags if f.endswith("empty-set-fallback"))
        assert fallback == flags


def test_runs_share_no_memo(monkeypatch):
    """A second run with other classes but the same index space selects
    afresh and matches the same run made on its own."""
    scenario = build_scenario("recsys-small")
    knowledge = scenario.knowledge()
    other = dataclasses.replace(
        scenario.classes, reward_tables=[r[::-1].copy() for r in scenario.classes.reward_tables]
    )
    cfg = run_cfg(episodes=30, seed=1)
    alone = run_learner(scenario.model, knowledge, other, cfg).canonical_json()
    built, selected = count_calls(monkeypatch)
    first = run_learner(scenario.model, knowledge, scenario.classes, cfg)
    n_first = len(selected)
    assert n_first == len(set(built))
    del built[:]
    second = run_learner(scenario.model, knowledge, other, cfg)
    assert len(selected) - n_first == len(set(built))
    assert second.canonical_json() == alone
    assert first.canonical_json() != alone


# ---------------------------------------------------------------------------
# Serializers against the whole-payload and per-row references
# ---------------------------------------------------------------------------


def _run_closed(kind, seed, optimism=SelectionMode.EXACT, beta_scale=0.02, episodes=25):
    model, knowledge, classes = _closed_instance(kind, seed)
    cfg = RunConfig(
        episodes=episodes,
        delta=0.1,
        mode=model.transition_mode,
        seed=seed,
        optimism=optimism,
        beta_scale=beta_scale,
    )
    return run_learner(model, knowledge, classes, cfg), model, knowledge


def assert_json_matches_reference(run):
    assert run.canonical_json() == ref_canonical_json(run)


def assert_csv_matches_reference(run, out_dir):
    got, want = out_dir / "got.csv", out_dir / "want.csv"
    write_episodes_csv(got, 3, run)
    ref_write_episodes_csv(want, 3, ref_sized(run))
    assert got.read_bytes() == want.read_bytes()


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 5),
    optimism=st.sampled_from(list(SelectionMode)),
    beta_scale=st.sampled_from([1e-4, 0.002, 0.02]),
)
def test_serializers_match_whole_payload_references(
    tmp_path_factory, kind, seed, optimism, beta_scale
):
    """Byte for byte, with the regret fields still None and once they are filled."""
    run, model, knowledge = _run_closed(kind, seed, optimism, beta_scale)
    assert_json_matches_reference(run)
    regret_curve(run, model, knowledge)
    assert_json_matches_reference(run)
    assert_csv_matches_reference(run, tmp_path_factory.mktemp("csv"))


def _unshared(obj):
    """An equal copy of nested tuples that shares no tuple object with obj."""
    return tuple(_unshared(x) for x in obj) if isinstance(obj, tuple) else obj


@pytest.mark.parametrize("kind", ["general", "dyn-1d", "dyn-2d"])
def test_serializers_match_references_when_nothing_is_shared(tmp_path, kind):
    """Hand-built runs whose policies are distinct objects holding equal
    arrays, and whose episodes each have an entry and a committed policy of
    their own that shares no set tuple."""
    run, model, knowledge = _run_closed(kind, 2, episodes=40)
    regret_curve(run, model, knowledge)
    assert len({id(p) for p in run.policies}) < len(run.policies)
    own_policies = dataclasses.replace(
        run,
        initial_policy=Policy(run.initial_policy.action_probs.copy()),
        committed=tuple(Policy(p.action_probs.copy()) for p in run.committed),
    )
    own_sets = dataclasses.replace(
        run,
        entries=tuple(
            dataclasses.replace(
                run.entries[i],
                reward_sets=_unshared(run.entries[i].reward_sets),
                transition_sets=_unshared(run.entries[i].transition_sets),
            )
            for i in run.entry_index
        ),
        entry_index=list(range(len(run.entry_index))),
        committed=tuple(Policy(run.committed[i].action_probs.copy()) for i in run.entry_index),
    )
    for field in ("reward_sets", "transition_sets"):
        assert len({id(getattr(rec, field)) for rec in own_sets.episodes}) == 40
    for variant in (own_policies, own_sets):
        assert_json_matches_reference(variant)
        assert variant.canonical_json() == run.canonical_json()
        assert_csv_matches_reference(variant, tmp_path)


def test_canonical_json_transient_memory_stays_near_its_output():
    """Encoding record by record, each distinct policy once, keeps the traced
    transient peak within 4x the output (the whole-payload dump took ~13x)."""
    scenario = build_scenario("recsys-small")
    knowledge = scenario.knowledge()
    cfg = run_cfg(episodes=300, seed=1)
    run = run_learner(scenario.model, knowledge, scenario.classes, cfg)
    regret_curve(run, scenario.model, knowledge)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run.canonical_json()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out == ref_canonical_json(run)
    assert peak <= 4 * len(out), f"{peak} bytes traced for {len(out)} bytes of output"


# ---------------------------------------------------------------------------
# The columnar run log against the per-episode references
# ---------------------------------------------------------------------------


def _reference_run(model, knowledge, classes, cfg, realizable):
    """ref_run_learner's records and policies as a run that the reference
    serializers read, with regret from one policy_value call per episode."""
    records, policies = ref_run_learner(model, knowledge, classes, cfg)
    oracle = true_aggregated_model(model)
    vstar = value_iteration(oracle).value_at_initial
    instant = np.array([vstar - policy_value(oracle, p) for p in policies])
    flags = {"empty-set-fallback" for ref in records for f in ref["flags"] if f.endswith("empty-set-fallback")}
    if not realizable:
        flags.add("realizability-not-verified")
    episodes = []
    for ref, r, c in zip(records, instant.tolist(), np.cumsum(instant).tolist()):
        del ref["chosen_reward_losses"], ref["chosen_transition_losses"]
        bare = SimpleNamespace(**ref)
        if model.transition_mode is TransitionMode.GENERAL:  # the reference shows the one family bare
            ref["transition_sets"] = tuple((s,) for s in ref["transition_sets"])
            if ref["chosen_transition_idx"] is not None:
                ref["chosen_transition_idx"] = tuple((j,) for j in ref["chosen_transition_idx"])
        sizes = ref_transition_set_sizes(ref["transition_sets"])
        episodes.append(
            SimpleNamespace(
                **ref,
                truth_covered=ref_truth_in_record(bare, classes),
                instant_regret=r,
                cum_regret=c,
                wallclock_ms=0.0,
                reward_set_sizes=tuple(len(s) for s in ref["reward_sets"]),
                transition_set_sizes=sizes,
            )
        )
    return SimpleNamespace(config=cfg, episodes=episodes, policies=policies, flags=tuple(sorted(flags)))


def _csv_without_wallclock(path):
    return [row[:-1] for row in csv.reader(path.open(newline=""))]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 5),
    optimism=st.sampled_from(list(SelectionMode)),
    cap=st.sampled_from([1_000_000, 4, 1]),
    beta_scale=st.sampled_from([1e-5, 1e-4, 0.002, 0.02]),
    cadence=st.integers(1, 7),
)
@example(kind="general", seed=1, optimism=SelectionMode.EXACT, cap=1_000_000, beta_scale=1e-4, cadence=3)
@example(kind="dyn-2d", seed=0, optimism=SelectionMode.EXACT, cap=1, beta_scale=1e-5, cadence=4)
def test_columnar_run_log_matches_the_per_episode_references(
    tmp_path_factory, kind, seed, optimism, cap, beta_scale, cadence
):
    """The record view, episodes.csv (wall clock dropped), canonical_json and
    the checkpoints of a run equal what the per-episode references make of
    ref_run_learner's records, with capacity and empty-set fallbacks forced
    by cap 1 and the smallest beta scales. The first example meets one set
    key both thresholded and as an empty-set fallback."""
    model, knowledge, classes = _closed_instance(kind, seed)
    cfg = RunConfig(
        episodes=40,
        delta=0.1,
        mode=model.transition_mode,
        seed=seed,
        optimism=optimism,
        beta_scale=beta_scale,
        selector_cap=cap,
    )
    got = run_learner(model, knowledge, classes, cfg)
    regret_curve(got, model, knowledge)
    want = _reference_run(model, knowledge, classes, cfg, got.realizability.passed)

    fields = [f.name for f in dataclasses.fields(driver.EpisodeRecord) if f.name != "wallclock_ms"]
    assert len(got.episodes) == len(want.episodes)
    for rec, ref in zip(got.episodes, want.episodes):
        assert {f: getattr(rec, f) for f in fields} == {f: getattr(ref, f) for f in fields}
    assert got.canonical_json() == ref_canonical_json(want)
    out = tmp_path_factory.mktemp("csv")
    write_episodes_csv(out / "got.csv", seed, got)
    ref_write_episodes_csv(out / "want.csv", seed, want)
    assert _csv_without_wallclock(out / "got.csv") == _csv_without_wallclock(out / "want.csv")

    marks = checkpoints(cfg.episodes, cadence)
    cum_at, truth_at, ok = {}, {}, True
    for k, ref in enumerate(want.episodes, 1):  # the checkpoint loop run_seed made over its records
        t = ref.truth_covered
        if t is None:
            ok = None
        elif ok is True and not t:
            ok = False
        if k in marks:
            cum_at[k], truth_at[k] = float(ref.cum_regret), ok
    outcome = seed_outcome(got, marks)
    assert outcome.cum_at == cum_at and outcome.truth_prefix_at == truth_at
    assert outcome.run_flags == want.flags

"""Candidate families: validation, closures, residuals, realizability."""

from __future__ import annotations

import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategicmdp import (
    GENERATORS,
    CapacityError,
    ClassCaps,
    Grid,
    HypothesisClasses,
    LearnerKnowledge,
    RealizabilityError,
    RunConfig,
    StrategicMDPError,
    TransitionMode,
    ValidationError,
    build_scenario,
    check_realizability,
    close_classes,
    residual_labels,
    residual_stack,
    run_learner,
    scenarios,
    true_aggregated_model,
    value_iteration,
)
from strategicmdp.hypotheses import _dedup_append, _first_missing, enumerate_suffix_values

from helpers import (
    random_dynamical,
    random_general,
    ref_check_realizability,
    ref_close_classes,
    ref_close_discriminators,
    ref_dedup_append,
    ref_iter_residuals,
    ref_truth_clauses,
    ref_unique_rows,
    ref_validate,
    tiny_dynamical,
    tiny_general,
)


def singleton_classes(model):
    """Classes holding only the truth, then closed."""
    H, S, A = model.horizon, model.num_states, model.num_actions
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=model.reward_bound,
        reward_tables=[model.principal_reward[h][None] for h in range(H)],
        discriminators=[np.zeros((0, S, A)) for _ in range(H)],
        value_targets=[np.zeros((1, S)) for _ in range(H)],
        transition_tables=[model.transition_kernel[h][None] for h in range(H)],
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H,
    )
    return close_classes(model, classes, LearnerKnowledge.from_model(model))


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_zero_discriminator_always_present():
    model = tiny_general()
    classes = singleton_classes(model)
    zero = np.zeros((model.num_states, model.num_actions))
    for h in range(classes.horizon):
        assert any(np.array_equal(f, zero) for f in classes.discriminators[h])


@pytest.mark.parametrize("fill, added", [(-0.0, 0), (0.0, 0), (np.nan, 1), (1e-300, 1)])
def test_zero_discriminator_appended_only_when_no_row_equals_zero(fill, added):
    model = tiny_general()
    H, S, A = model.horizon, model.num_states, model.num_actions
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=model.reward_bound,
        reward_tables=[model.principal_reward[h][None] for h in range(H)],
        discriminators=[np.full((1, S, A), fill) for _ in range(H)],
        value_targets=[np.zeros((1, S)) for _ in range(H)],
        transition_tables=[model.transition_kernel[h][None] for h in range(H)],
    )
    assert [len(f) for f in classes.discriminators] == [1 + added] * H


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_class_bound_must_be_finite(value):
    classes = singleton_classes(tiny_general())
    with pytest.raises(ValidationError, match="bound"):
        dataclasses.replace(classes, bound=value)


def _nan_in_first_candidate(tables, h):
    out = list(tables)
    out[h] = out[h].copy()
    out[h][0].flat[0] = np.nan
    return out


@pytest.mark.parametrize(
    "family, message",
    [
        ("reward_tables", "reward candidates at step 1 have non-finite entries"),
        ("transition_tables", "transition candidates at step 1 have non-finite entries"),
        ("mean_map_tables", "mean-map candidates at step 1, coordinate 0 have non-finite entries"),
    ],
    ids=["reward", "transition", "mean-map"],
)
def test_non_finite_candidates_rejected(family, message):
    """Candidate tables must be finite; discriminators may hold NaN (see above)."""
    if family == "mean_map_tables":
        _, classes = _closed_tiny_dynamical()
        bad = [list(per) for per in classes.mean_map_tables]
        bad[1] = _nan_in_first_candidate(bad[1], 0)
    else:
        classes = singleton_classes(tiny_general())
        bad = _nan_in_first_candidate(getattr(classes, family), 1)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        dataclasses.replace(classes, **{family: bad})


@pytest.mark.parametrize(
    "name, family, h, shape, message",
    [
        (
            "recsys-small", "reward_tables", 0, (2, 3),
            "reward candidates at step 0 have shape (2, 3), expected (n, S, A, E)",
        ),
        (
            "recsys-small", "reward_tables", 1, (2, 3, 2, 2),
            "reward candidates at step 1 have shape (2, 3, 2, 2), expected (n, 3, 2, 3)",
        ),
        (
            "recsys-small", "transition_tables", 0, (2, 3, 2, 3, 2),
            "transition candidates at step 0 have shape (2, 3, 2, 3, 2), expected (n, 3, 2, 3, 3)",
        ),
        (
            "recsys-small", "transition_tables", 2, (2, 3, 2, 3),
            "transition candidates at step 2 have shape (2, 3, 2, 3), expected (n, 3, 2, 3, 3)",
        ),
        (
            "recsys-small", "discriminators", 0, (2, 3, 3),
            "discriminators at step 0 have shape (2, 3, 3), expected (n, 3, 2)",
        ),
        (
            "recsys-small", "value_targets", 1, (2, 2),
            "value targets at step 1 have shape (2, 2), expected (n, 3)",
        ),
        (
            "dyn-1d", "mean_map_tables", 1, (2, 9, 2, 3),
            "mean-map candidates at step 1, coordinate 0 have shape (2, 9, 2, 3), expected (n, 9, 2, 2)",
        ),
    ],
    ids=[
        "reward-2d", "reward-feedbacks", "kernel-next-states", "kernel-no-next-state",
        "discriminators", "value-targets", "mean-map",
    ],
)
def test_mis_shaped_tables_rejected(name, family, h, shape, message):
    """Each table of a misshapen family is refused by name, not by numpy's
    broadcast error at first use. The tables are otherwise valid: every row
    sums to 1 along the last axis, inside the class bound."""
    classes = build_scenario(name).classes
    bad = list(getattr(classes, family))
    table = np.full(shape, 1.0 / shape[-1])
    bad[h] = [table, *bad[h][1:]] if family == "mean_map_tables" else table
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(classes, **{family: bad})


def test_terminal_value_target_is_zero_singleton():
    model = tiny_general()
    classes = singleton_classes(model)
    H, S = model.horizon, model.num_states
    assert len(classes.value_targets) == H + 1
    np.testing.assert_array_equal(classes.value_targets[H], np.zeros((1, S)))


def test_nonzero_terminal_target_rejected():
    model = tiny_general()
    classes = singleton_classes(model)
    bad = list(classes.value_targets)
    bad[-1] = np.ones((1, model.num_states))
    with pytest.raises(ValidationError):
        dataclasses.replace(classes, value_targets=bad)


def test_per_step_cap_enforced():
    model = tiny_general()
    classes = singleton_classes(model)
    base = model.principal_reward[0]
    crowd = np.stack([np.clip(base + 0.01 * j, 0.0, 1.0) for j in range(9)])
    tables = list(classes.reward_tables)
    tables[0] = crowd
    with pytest.raises(CapacityError):
        dataclasses.replace(classes, reward_tables=tables, truth_reward_idx=[])


@pytest.mark.parametrize(
    "field, value", [("per_step", 2.5), ("per_step", 0), ("joint", -1), ("joint", True), ("per_step", "8")]
)
def test_class_caps_must_be_positive_integers(field, value):
    """A cap is a non-bool integer of at least 1, as the config's classes section requires."""
    with pytest.raises(ValidationError, match=f"class cap {field}"):
        ClassCaps(**{field: value})
    assert ClassCaps(per_step=np.int64(3), joint=1).per_step == 3


def test_joint_cap_blocks_value_closure():
    scenario = build_scenario("recsys-small")
    squeezed = dataclasses.replace(scenario.classes, caps=ClassCaps(per_step=8, joint=2))
    for close in (close_classes, ref_close_classes):
        with pytest.raises(CapacityError, match="cap is 2"):
            close(scenario.model, squeezed, scenario.knowledge())


def test_bound_flags_are_raised_not_clamped():
    model = tiny_general()
    classes = singleton_classes(model)
    discs = list(classes.discriminators)
    discs[0] = np.concatenate([discs[0], np.full((1, 2, 2), 2.5)], axis=0)
    flagged = dataclasses.replace(classes, discriminators=discs)
    assert "discriminator-bound-exceeded" in flagged.flags
    # the oversized table is kept as-is
    assert np.abs(flagged.discriminators[0]).max() == 2.5

    targets = list(classes.value_targets)
    targets[0] = np.concatenate([targets[0], np.full((1, 2), 1.5)], axis=0)
    flagged = dataclasses.replace(classes, value_targets=targets)
    assert "value-target-bound-exceeded" in flagged.flags


def test_sizes_sum_over_steps():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    sizes = classes.sizes()
    assert sizes.rewards == sum(r.shape[0] for r in classes.reward_tables)
    assert sizes.transitions == sum(p.shape[0] for p in classes.transition_tables)
    assert sizes.discriminators == sum(f.shape[0] for f in classes.discriminators)
    assert sizes.value_targets == sum(g.shape[0] for g in classes.value_targets)


# ---------------------------------------------------------------------------
# Residual enumeration
# ---------------------------------------------------------------------------


def test_residual_labels_and_counts():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    model = scenario.model
    for h in range(classes.horizon):
        residuals = list(zip(residual_labels(classes, h), residual_stack(model, classes, h)))
        nR = classes.reward_tables[h].shape[0]
        nP = classes.transition_tables[h].shape[0]
        nG = classes.value_targets[h + 1].shape[0]
        assert len(residuals) == nR + nP * nG
        labels = [lab for lab, _ in residuals]
        assert labels[0] == "reward[0]"
        assert any(lab.startswith("transition[") and "*value[" in lab for lab in labels[nR:])
        # the truth's own residual is identically zero
        np.testing.assert_array_equal(residuals[0][1], 0.0)


def test_residual_labels_dynamical():
    scenario = build_scenario("dyn-1d")
    labels = residual_labels(scenario.classes, 0)
    assert any(lab.startswith("mean_map[0][") for lab in labels)


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["recsys-small", "contract-small", "dyn-1d"])
def test_closures_idempotent(name):
    scenario = build_scenario(name)
    classes = scenario.classes
    kn = scenario.knowledge()
    again = close_classes(scenario.model, classes, kn)
    assert again.sizes() == classes.sizes()
    for h in range(classes.horizon):
        np.testing.assert_array_equal(again.discriminators[h], classes.discriminators[h])
        np.testing.assert_array_equal(again.value_targets[h], classes.value_targets[h])


def test_closure_adds_projection_of_every_residual():
    model = tiny_general()
    classes = singleton_classes(model)
    from strategicmdp import feedback_by_type, feedback_mix, integrate_feedback

    kappa = feedback_mix(model.source_type_dist, feedback_by_type(model))
    for h in range(classes.horizon):
        for nu in residual_stack(model, classes, h):
            proj = integrate_feedback(kappa[h], nu)
            assert any(np.array_equal(f, proj) for f in classes.discriminators[h])


def test_suffix_values_of_singleton_truth_match_backward_induction():
    model = tiny_general()
    classes = singleton_classes(model)
    kn = LearnerKnowledge.from_model(model)
    suffix = enumerate_suffix_values(classes, kn)
    plan = value_iteration(true_aggregated_model(model))
    for h in range(model.horizon):
        assert suffix[h].shape[0] == 1
        np.testing.assert_allclose(suffix[h][0], plan.values[h], atol=1e-12)
        assert any(
            np.array_equal(g, suffix[h][0]) for g in classes.value_targets[h]
        )


def test_close_discriminators_appends_only():
    """Closing keeps every discriminator row in place, a planted one
    included, and appends the missing projections after them."""
    scenario = build_scenario("recsys-small")
    model, knowledge = scenario.model, scenario.knowledge()
    classes = dataclasses.replace(
        scenario.classes,
        discriminators=[
            np.concatenate([np.full((1,) + f.shape[1:], 0.5), f[1::2]])
            for f in scenario.classes.discriminators
        ],
    )
    closed = close_classes(model, classes, knowledge)
    grown = 0
    for h in range(classes.horizon):
        n_old = classes.discriminators[h].shape[0]
        grown += closed.discriminators[h].shape[0] - n_old
        np.testing.assert_array_equal(closed.discriminators[h][:n_old], classes.discriminators[h])
    assert grown > 0
    assert_classes_bitwise_equal(closed, ref_close_classes(model, classes, knowledge))


# ---------------------------------------------------------------------------
# Realizability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["recsys-small", "contract-small", "shifted-target", "degenerate-feedback", "dyn-1d"])
def test_scenarios_are_realizable(name):
    scenario = build_scenario(name)
    report = check_realizability(scenario.model, scenario.classes, scenario.knowledge())
    assert report.passed, report.as_dict()


def test_missing_truth_reward_detected():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    tables = list(classes.reward_tables)
    tables[0] = tables[0][1:]
    broken = dataclasses.replace(
        classes, reward_tables=tables, truth_reward_idx=[None] * 3
    )
    report = check_realizability(scenario.model, broken, scenario.knowledge())
    assert not report.truth_in_rewards.passed
    assert "step 0" in report.truth_in_rewards.detail


@pytest.mark.parametrize("designated", [[1, 0, 0], [1, 1, 1]])
def test_wrong_designated_index_detected(designated):
    """An in-range wrong index passes construction and fails realizability."""
    scenario = build_scenario("recsys-small")
    broken = dataclasses.replace(scenario.classes, truth_reward_idx=designated)
    report = check_realizability(scenario.model, broken, scenario.knowledge())
    assert not report.truth_in_rewards.passed
    assert "designated" in report.truth_in_rewards.detail


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_truth_indices_validated_on_every_scenario(name):
    """Every scenario's designated indices pass validation again; a wrong step
    count, an index past the last candidate or a non-integer fails by step."""
    classes = dataclasses.replace(build_scenario(name).classes)
    H = classes.horizon
    last = classes.reward_tables[H - 1].shape[0]
    bad_reward = {
        f"truth reward index {last} at step {H - 1}": [0] * (H - 1) + [last],
        "truth reward index 0.0 at step 0": [0.0] + [0] * (H - 1),
        "truth reward index True at step 0": [True] + [0] * (H - 1),
        "truth reward index -1 at step 0": [-1] + [0] * (H - 1),
        "truth_reward_idx must have one entry per step": [0] * (H + 1),
    }
    for match, designated in bad_reward.items():
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(classes, truth_reward_idx=designated)
    ok = dataclasses.replace(classes, truth_reward_idx=[np.int64(0)] + [None] * (H - 1))
    assert ok.truth_reward_idx[0] == 0
    with pytest.raises(ValidationError, match="truth_transition_idx must have one entry per step"):
        dataclasses.replace(classes, truth_transition_idx=classes.truth_transition_idx[:-1])


def test_out_of_range_truth_indices_rejected():
    recsys = build_scenario("recsys-small").classes
    with pytest.raises(ValidationError, match="truth reward index 99 at step 0 is not one of the 2"):
        dataclasses.replace(recsys, truth_reward_idx=[99, 0, 0])
    contract = build_scenario("contract-small").classes
    n = contract.transition_tables[2].shape[0]
    with pytest.raises(ValidationError, match=f"truth transition index {n} at step 2 is not"):
        dataclasses.replace(contract, truth_transition_idx=[0, 0, n])
    dyn = build_scenario("dyn-1d").classes
    n = dyn.mean_map_tables[1][0].shape[0]
    with pytest.raises(ValidationError, match=f"index {n} at step 1, coordinate 0 is not"):
        dataclasses.replace(dyn, truth_transition_idx=[[0], [n], [0]])


@pytest.mark.parametrize("designated", [[[0, 1]] * 3, [[]] * 3, [0] * 3])
def test_dynamical_truth_needs_one_index_per_coordinate(designated):
    """An extra coordinate entry used to be zipped away and pass realizability."""
    dyn = build_scenario("dyn-1d").classes
    with pytest.raises(ValidationError, match="at step 0 must list one entry per coordinate"):
        dataclasses.replace(dyn, truth_transition_idx=designated)


def test_missing_projection_detected():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    discs = list(classes.discriminators)
    keep = [i for i, f in enumerate(discs[0]) if np.abs(f).max() > 0]
    discs[0] = discs[0][[i for i in range(discs[0].shape[0]) if i != keep[-1]]]
    broken = dataclasses.replace(classes, discriminators=discs)
    report = check_realizability(scenario.model, broken, scenario.knowledge())
    assert not report.projections_in_discriminators.passed


def test_missing_value_target_detected():
    scenario = build_scenario("recsys-small")
    classes = scenario.classes
    targets = list(classes.value_targets)
    assert targets[1].shape[0] > 1
    targets[1] = targets[1][:-1]
    broken = dataclasses.replace(classes, value_targets=targets)
    report = check_realizability(scenario.model, broken, scenario.knowledge())
    assert not report.values_in_targets.passed


def test_missing_transition_truth_detected():
    scenario = build_scenario("contract-small")
    classes = scenario.classes
    tables = list(classes.transition_tables)
    tables[2] = tables[2][1:]
    broken = dataclasses.replace(
        classes, transition_tables=tables, truth_transition_idx=[None] * 3
    )
    report = check_realizability(scenario.model, broken, scenario.knowledge())
    assert not report.truth_in_transitions.passed


@pytest.mark.parametrize(
    "name, designated", [("contract-small", [1, 1, 1]), ("dyn-1d", [[1]] * 3)]
)
def test_wrong_designated_transition_index_detected(name, designated):
    scenario = build_scenario(name)
    broken = dataclasses.replace(scenario.classes, truth_transition_idx=designated)
    report = check_realizability(scenario.model, broken, scenario.knowledge())
    assert not report.passed
    assert report.truth_in_transitions.detail == "designated transition index 1 wrong at step 0"
    cfg = RunConfig(
        episodes=2,
        delta=0.1,
        mode=scenario.model.transition_mode,
        seed=0,
        strict_realizability=True,
    )
    with pytest.raises(RealizabilityError, match="designated transition index 1"):
        run_learner(scenario.model, scenario.knowledge(), broken, cfg)


# ---------------------------------------------------------------------------
# Whole-array closures and check against the per-row references
# ---------------------------------------------------------------------------

# Bit patterns that tell bit-exact keys from value equality: both zeros, and
# NaNs with different payloads and signs.
_BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000]
KEY_VALUES = [np.array(b, dtype=np.uint64).view(np.float64).item() for b in _BITS] + [1.0, -1.0, 0.5]


def row_arrays(rows: int, shape: tuple[int, ...]):
    values = st.sampled_from(KEY_VALUES)
    size = rows * int(np.prod(shape))
    return st.lists(values, min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=float).reshape((rows,) + shape)
    )


@st.composite
def row_sets(draw):
    """A base that may repeat its own rows, and extra rows in C order, strided
    or with their (S, A) axes transposed."""
    shape = draw(st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3)]))
    base = draw(row_arrays(draw(st.integers(0, 4)), shape))
    if draw(st.booleans()):
        base = np.concatenate([base, base[::-1]])
    extra = draw(row_arrays(draw(st.integers(0, 10)), shape))
    layout = draw(st.sampled_from(["c", "strided", "transposed"]))
    if layout == "strided":
        extra = np.repeat(extra, 2, axis=0)[::2]
    elif layout == "transposed" and extra.ndim == 3:
        extra = np.ascontiguousarray(extra.transpose(0, 2, 1)).transpose(0, 2, 1)
    return base, extra


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(row_sets())
@example((np.zeros((0, 2, 3)), np.zeros((0, 2, 3))))
@example((np.zeros((0, 2, 3)), np.ones((2, 2, 3))))
@example((np.ones((2, 2, 3)), np.zeros((0, 2, 3))))
def test_dedup_and_unique_match_per_row_references(rows):
    base, extra = rows
    assert_bitwise_equal(_dedup_append(base, extra), ref_dedup_append(base, list(extra)))
    if extra.ndim == 2:
        assert_bitwise_equal(_dedup_append(extra[:0], extra), ref_unique_rows(extra))


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_first_missing_matches_array_equal_scan(rows):
    table_set, tables = rows
    want = next(
        (i for i, t in enumerate(tables) if not any(np.array_equal(r, t) for r in table_set)),
        None,
    )
    assert _first_missing(table_set, tables) == want


def assert_classes_bitwise_equal(got, want) -> None:
    assert got.flags == want.flags
    for family in ("discriminators", "value_targets"):
        for a, b in zip(getattr(got, family), getattr(want, family), strict=True):
            assert_bitwise_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_closed_scenario_classes_match_per_row_reference(monkeypatch, name, seed):
    calls = []
    real = scenarios.close_classes

    def capture(model, classes, knowledge):
        calls.append((model, classes, knowledge))
        return real(model, classes, knowledge)

    monkeypatch.setattr(scenarios, "close_classes", capture)
    scenario = build_scenario(name, seed)
    [(model, classes, knowledge)] = calls
    assert_classes_bitwise_equal(scenario.classes, ref_close_classes(model, classes, knowledge))
    for h in range(classes.horizon):
        labels, tables = zip(*ref_iter_residuals(model, scenario.classes, h))
        assert residual_labels(scenario.classes, h) == list(labels)
        assert_bitwise_equal(residual_stack(model, scenario.classes, h), np.stack(tables))


@st.composite
def general_instances(draw):
    return random_general(
        seed=draw(st.integers(0, 2**32 - 1)),
        horizon=draw(st.integers(1, 3)),
        states=draw(st.integers(1, 3)),
        actions=draw(st.integers(1, 3)),
        feedbacks=draw(st.integers(1, 4)),
        candidates=draw(st.integers(1, 3)),
    )


@settings(max_examples=40, deadline=None)
@given(general_instances())
def test_closed_random_classes_match_per_row_reference(instance):
    model, classes = instance
    knowledge = LearnerKnowledge.from_model(model)
    closed = close_classes(model, classes, knowledge)
    assert_classes_bitwise_equal(closed, ref_close_classes(model, classes, knowledge))
    report = check_realizability(model, closed, knowledge)
    assert report.passed
    assert report.as_dict() == ref_check_realizability(model, closed, knowledge).as_dict()


@pytest.mark.parametrize("seed, states, actions", [(0, 2, 2), (1, 3, 2), (2, 2, 3)])
def test_closed_horizon_5_classes_match_per_row_reference(seed, states, actions):
    model, classes = random_general(
        seed=seed, horizon=5, states=states, actions=actions, feedbacks=2, candidates=2
    )
    knowledge = LearnerKnowledge.from_model(model)
    closed = close_classes(model, classes, knowledge)
    assert_classes_bitwise_equal(closed, ref_close_classes(model, classes, knowledge))
    assert check_realizability(model, closed, knowledge).passed


def _stay_or_swap_instance():
    """Two states with reward 1 only in state 0, over three steps. The true
    kernel stays put and the other candidate swaps the states, so at step 0
    a transition residual against the true step-1 values projects to -2:
    both closures raise their bound flag."""
    H, S, A, E = 3, 2, 2, 2
    model, _ = random_general(seed=0, horizon=H, states=S, actions=A, feedbacks=E, candidates=1)
    reward = np.zeros((H, S, A, E))
    reward[:, 0] = 1.0
    stay = np.broadcast_to(np.eye(S)[:, None, None, :], (H, S, A, E, S)).copy()
    model = dataclasses.replace(model, principal_reward=reward, transition_kernel=stay)
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=1.0,
        reward_tables=[reward[h][None] for h in range(H)],
        discriminators=[np.zeros((0, S, A))] * H,
        value_targets=[np.zeros((0, S))] * H,
        transition_tables=[np.stack([stay[h], stay[h][..., ::-1]]) for h in range(H)],
    )
    return model, classes


def test_close_classes_validates_once_and_keeps_the_flag_order(monkeypatch):
    model, classes = _stay_or_swap_instance()
    knowledge = LearnerKnowledge.from_model(model)
    assert classes.flags == ()
    want = ref_close_classes(model, classes, knowledge)
    # the discriminator closure over the package's closed value targets
    closed_targets = close_classes(model, classes, knowledge).value_targets
    stepwise = ref_close_discriminators(model, dataclasses.replace(classes, value_targets=closed_targets))
    calls = []
    real = HypothesisClasses.__post_init__

    def counting(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(HypothesisClasses, "__post_init__", counting)
    closed = close_classes(model, classes, knowledge)
    # classes are validated at construction; the closure only re-derives the flags
    assert len(calls) == 0
    assert closed.flags == ("value-target-bound-exceeded", "discriminator-bound-exceeded")
    assert_classes_bitwise_equal(closed, want)
    assert_classes_bitwise_equal(closed, stepwise)
    # the caller's classes are left as they were, and share no list with the result
    assert classes.flags == () and len(classes.value_targets[0]) == 0
    assert not {id(x) for x in _lists(classes)} & {id(x) for x in _lists(closed)}


def _lists(value):
    """Every list reachable from a dataclass's fields through lists, nested ones too."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _lists(getattr(value, f.name))
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from _lists(item)


def _replace_row(tables: list[np.ndarray], h: int, j: int, row: np.ndarray) -> list[np.ndarray]:
    out = list(tables)
    out[h] = out[h].copy()
    out[h][j] = row
    return out


def _drop_row(tables: list[np.ndarray], h: int, j: int) -> list[np.ndarray]:
    out = list(tables)
    out[h] = np.delete(out[h], j, axis=0)
    return out


def _append_row(tables: list[np.ndarray], h: int, row: np.ndarray) -> list[np.ndarray]:
    out = list(tables)
    out[h] = np.concatenate([out[h], row[None]])
    return out


def _negative_zeros(tables: list[np.ndarray]) -> list[np.ndarray]:
    return [np.where(t == 0.0, -0.0, t) for t in tables]


def mutations(model, classes):
    """(name, classes) pairs that break, or by value equality keep, each clause."""
    H = classes.horizon
    for h in range(H):
        for j in sorted({0, len(classes.discriminators[h]) // 2, len(classes.discriminators[h]) - 1}):
            yield f"drop discriminator {j} at {h}", dataclasses.replace(
                classes, discriminators=_drop_row(classes.discriminators, h, j)
            )
        if h > 0:
            for j in sorted({0, len(classes.value_targets[h]) - 1}):
                yield f"drop value target {j} at {h}", dataclasses.replace(
                    classes, value_targets=_drop_row(classes.value_targets, h, j)
                )
        r = classes.truth_reward_idx[h] or 0
        shifted = np.clip(classes.reward_tables[h][r] + 0.05, 0.0, classes.bound)
        yield f"missing reward truth at {h}", dataclasses.replace(
            classes, reward_tables=_replace_row(classes.reward_tables, h, r, shifted)
        )
        if h + 1 < H:
            nan_row = classes.value_targets[h + 1][0].copy()
            nan_row.flat[0] = np.nan
            yield f"nan value target at {h + 1}", dataclasses.replace(
                classes, value_targets=_append_row(classes.value_targets, h + 1, nan_row)
            )
        if classes.mode is TransitionMode.GENERAL:
            p = classes.truth_transition_idx[h] or 0
            tilted = 0.5 * (classes.transition_tables[h][p] + 1.0 / model.num_states)
            yield f"missing transition truth at {h}", dataclasses.replace(
                classes, transition_tables=_replace_row(classes.transition_tables, h, p, tilted)
            )
            designated = list(classes.truth_transition_idx)
            designated[h] = (p + 1) % classes.transition_tables[h].shape[0]
            yield f"wrong designated transition at {h}", dataclasses.replace(
                classes, truth_transition_idx=designated
            )
        else:
            per = [list(c) for c in classes.mean_map_tables]
            per[h][0] = per[h][0] + 0.01
            yield f"missing mean-map truth at {h}", dataclasses.replace(classes, mean_map_tables=per)
            designated = [list(t) for t in classes.truth_transition_idx]
            designated[h][0] = ((designated[h][0] or 0) + 1) % classes.mean_map_tables[h][0].shape[0]
            yield f"wrong designated mean map at {h}", dataclasses.replace(
                classes, truth_transition_idx=designated
            )
    yield "negative zeros", dataclasses.replace(
        classes,
        discriminators=_negative_zeros(classes.discriminators),
        value_targets=_negative_zeros(classes.value_targets),
    )


def _closed_tiny_general():
    model = tiny_general()
    return model, singleton_classes(model)


def _closed_random_general():
    model, classes = random_general(7, horizon=3, states=3, actions=2, feedbacks=3, candidates=2)
    return model, close_classes(model, classes, LearnerKnowledge.from_model(model))


def _closed_tiny_dynamical():
    model = tiny_dynamical()
    H, S, A = model.horizon, model.num_states, model.num_actions
    truth = model.mean_map[..., 0]
    classes = HypothesisClasses(
        mode=TransitionMode.DYNAMICAL,
        bound=model.reward_bound,
        reward_tables=[np.stack([r, 0.5 * r]) for r in model.principal_reward],
        discriminators=[np.zeros((0, S, A))] * H,
        value_targets=[np.zeros((0, S))] * H,
        mean_map_tables=[[np.stack([m, np.clip(m + 0.3, -1.0, 1.0)])] for m in truth],
        truth_reward_idx=[0] * H,
        truth_transition_idx=[[0]] * H,
    )
    return model, close_classes(model, classes, LearnerKnowledge.from_model(model))


def _closed_scenario(name):
    def build():
        scenario = build_scenario(name)
        return scenario.model, scenario.classes

    return build


INSTANCES = {
    "tiny-general": _closed_tiny_general,
    "random-general": _closed_random_general,
    "tiny-dynamical": _closed_tiny_dynamical,
    "recsys-small": _closed_scenario("recsys-small"),
    "dyn-1d": _closed_scenario("dyn-1d"),
}


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_realizability_report_matches_per_row_reference_on_mutations(instance):
    model, classes = INSTANCES[instance]()
    knowledge = LearnerKnowledge.from_model(model)
    seen_failures = set()
    for name, mutated in mutations(model, classes):
        got = check_realizability(model, mutated, knowledge).as_dict()
        assert got == ref_check_realizability(model, mutated, knowledge).as_dict(), name
        if name == "negative zeros":
            assert got["passed"], got
        seen_failures |= {k for k, v in got.items() if isinstance(v, dict) and not v["passed"]}
    assert seen_failures == {
        "truth_in_rewards",
        "truth_in_transitions",
        "projections_in_discriminators",
        "values_in_targets",
    }


# ---------------------------------------------------------------------------
# The reward class as loss family 0, against its own path
# ---------------------------------------------------------------------------


FAULTS = (
    "nan",
    "inf",
    "entry below 0",
    "entry above bound",
    "non-kernel row",
    "too many candidates",
    "missing truth",
    "wrong designated index",
    "out-of-range designated index",
    "undesignated truth",
)


def _random_classes(kind: str, seed: int, horizon: int):
    """A random model and its unclosed classes: general, or dynamical in 1-D or 2-D."""
    if kind == "general":
        return random_general(seed, horizon, states=3, actions=2, feedbacks=2, candidates=3)
    if kind == "dyn-1d":
        return random_dynamical(seed, Grid((-1.5,), (1.5,), (4,)), horizon, rewards=2, candidates=(3,))
    grid = Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))
    return random_dynamical(seed, grid, horizon, rewards=2, candidates=(2, 3))


def _plant(classes, fault: str, step: int, family: int, draw: int) -> None:
    """Plant one fault in family `family` of step `step`, in place and
    without validation; classes' lists and tables are copied, not written."""
    rng = np.random.default_rng(draw)
    h = step % classes.horizon
    fams = classes.families(h)
    f = family % len(fams)
    tables, truth = fams[f].tables.copy(), fams[f].truth
    n = len(tables)
    t = truth % n if isinstance(truth, int) else 0
    entry = int(rng.integers(tables.size))
    if fault in ("nan", "inf", "entry below 0", "entry above bound"):
        tables.flat[entry] = {
            "nan": np.nan, "inf": rng.choice([np.inf, -np.inf]),
            "entry below 0": -0.5, "entry above bound": classes.bound + 0.5,
        }[fault]
    elif fault == "non-kernel row":
        tables[np.unravel_index(entry, tables.shape)[:-1]] *= 1.5
    elif fault == "missing truth":
        tables[t] = 0.5 * (tables[t] + tables[(t + 1) % n])
    elif fault == "too many candidates":
        classes.caps = ClassCaps(per_step=max(1, n - 1), joint=classes.caps.joint)
    else:
        truth = {
            "wrong designated index": (t + 1) % n,
            "out-of-range designated index": [n, -1, True, 1.0][entry % 4],
            "undesignated truth": None,
        }[fault]
    classes.reward_tables = list(classes.reward_tables)
    classes.truth_reward_idx = list(classes.truth_reward_idx)
    classes.truth_transition_idx = list(classes.truth_transition_idx)
    if f == 0:
        classes.reward_tables[h], classes.truth_reward_idx[h] = tables, truth
    elif classes.mode is TransitionMode.GENERAL:
        classes.transition_tables = list(classes.transition_tables)
        classes.transition_tables[h], classes.truth_transition_idx[h] = tables, truth
    else:
        classes.mean_map_tables = [list(per) for per in classes.mean_map_tables]
        classes.mean_map_tables[h][f - 1] = tables
        per = classes.truth_transition_idx[h]
        per = [None] * len(fams[1:]) if per is None else list(per)
        per[f - 1] = truth
        classes.truth_transition_idx[h] = per


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 3),
    faults=st.lists(
        st.tuples(st.sampled_from(FAULTS), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**16)),
        min_size=1,
        max_size=2,
    ),
)
@example(kind="dyn-2d", seed=1, horizon=2, faults=[("entry above bound", 1, 0, 5)])
@example(kind="general", seed=2, horizon=2, faults=[("missing truth", 1, 0, 0)])
@example(kind="dyn-1d", seed=3, horizon=2, faults=[("wrong designated index", 0, 0, 0)])
@example(kind="general", seed=4, horizon=2, faults=[("wrong designated index", 1, 1, 0)])
@example(kind="dyn-2d", seed=5, horizon=1, faults=[("too many candidates", 0, 2, 0)])
@example(kind="general", seed=6, horizon=2, faults=[("nan", 1, 0, 3), ("non-kernel row", 0, 1, 7)])
def test_family_loop_matches_the_split_reward_path(kind, seed, horizon, faults):
    """Validation and the truth clauses loop over one family list with the
    rewards first; on random classes with planted faults they raise what the
    reward-first split path raised (the transition cap message aside, see
    helpers.ref_validate) and report the same truth clauses."""
    model, base = _random_classes(kind, seed, horizon)
    broken = copy.copy(base)  # fields replaced below; nothing is validated yet
    for fault, step, family, draw in faults:
        _plant(broken, fault, step, family, draw)
    try:
        ref_validate(copy.copy(broken))
        want = None
    except StrategicMDPError as exc:
        want = exc
    try:
        classes = dataclasses.replace(broken)  # validates at construction
    except StrategicMDPError as exc:
        assert want is not None, exc
        assert (type(exc), str(exc)) == (type(want), str(want))
        return
    assert want is None, want
    got = check_realizability(model, classes, LearnerKnowledge.from_model(model))
    r_clause, t_clause = ref_truth_clauses(model, classes)
    assert got == dataclasses.replace(got, truth_in_rewards=r_clause, truth_in_transitions=t_clause)

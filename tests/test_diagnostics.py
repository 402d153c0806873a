"""Ground-truth oracles: occupancies, worst-case ratios, baseline bias, regret."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategicmdp import (
    GENERATORS,
    ConfigError,
    Grid,
    HypothesisClasses,
    InvalidIndexError,
    LearnerKnowledge,
    Policy,
    RunConfig,
    StepDataset,
    TransitionMode,
    ValidationError,
    build_scenario,
    close_classes,
    deterministic_policy_tables,
    ill_posedness,
    make_rng,
    naive_baseline,
    occupancy,
    policy_value,
    regret_curve,
    rollout,
    run_learner,
    transfer_term,
    true_aggregated_model,
    value_iteration,
)
from strategicmdp import diagnostics, model as model_module
from strategicmdp.config import config_from_dict
from strategicmdp.harness import diagnose, run_experiment
from strategicmdp.hypotheses import residual_stack
from strategicmdp.model import StrategicModel

from helpers import (
    all_action_tables,
    mixture_value,
    occupancy_mse,
    random_dynamical,
    random_general,
    ref_discretize_gaussian,
    ref_locate,
    ref_deterministic_policy_tables,
    ref_occupancy_joints,
    ref_true_aggregated_general,
    ref_worst_ratio,
    tiny_dynamical,
    tiny_general,
)
from test_hypotheses import assert_bitwise_equal, singleton_classes


# ---------------------------------------------------------------------------
# Test-local brute forces
# ---------------------------------------------------------------------------


def feedback_mix_literal(model, dist_row, h, s, a):
    """Per-cell feedback distribution via explicit loops, no shared helpers."""
    E = model.num_feedbacks
    mix = np.zeros(E)
    for t in range(model.num_types):
        b = int(np.argmax(model.agent_reward[h, s, a, t]))
        for e in range(E):
            mix[e] += dist_row[t] * model.feedback_kernel[h, s, a, t, b, e]
    return mix


def occupancy_literal(model, actions, upto, dist):
    """Joint (s, a, e) law at step upto for a deterministic table, by loops."""
    S = model.num_states
    d = np.zeros(S)
    d[model.initial_state] = 1.0
    for h in range(upto):
        nxt = np.zeros(S)
        for s in range(S):
            if d[s] == 0:
                continue
            a = int(actions[h, s])
            mix = feedback_mix_literal(model, dist[h], h, s, a)
            for e in range(model.num_feedbacks):
                for x in range(S):
                    nxt[x] += d[s] * mix[e] * model.transition_kernel[h, s, a, e, x]
        d = nxt
    joint = np.zeros((S, model.num_actions, model.num_feedbacks))
    for s in range(S):
        a = int(actions[upto, s])
        mix = feedback_mix_literal(model, dist[upto], upto, s, a)
        joint[s, a] = d[s] * mix
    return joint


def true_aggregated_literal(model, dist):
    """Dynamical aggregated rewards and transitions by a literal loop over
    (h, s, a, t, e), one discretized Gaussian per (type, feedback) path."""
    H, S, A = model.horizon, model.num_states, model.num_actions
    rewards = np.zeros((H, S, A))
    transitions = np.zeros((H, S, A, S))
    for h, s, a in itertools.product(range(H), range(S), range(A)):
        for t in range(model.num_types):
            b = int(np.argmax(model.agent_reward[h, s, a, t]))
            for e in range(model.num_feedbacks):
                p = dist[h, t] * model.feedback_kernel[h, s, a, t, b, e]
                rewards[h, s, a] += p * model.principal_reward[h, s, a, e]
                mean = model.mean_map[h, s, a, e] + model.trans_confound[h, t]
                transitions[h, s, a] += p * ref_discretize_gaussian(
                    mean, model.grid, model.trans_noise_scale
                )
    return rewards, transitions


def noiseless_path_value(model, actions, dist) -> float:
    """Expected return of a deterministic table on a noiseless dynamical model,
    enumerating every (type, feedback) path and locating each next state."""

    def value(h: int, s: int) -> float:
        if h == model.horizon:
            return 0.0
        a = int(actions[h, s])
        total = 0.0
        for t in range(model.num_types):
            b = int(np.argmax(model.agent_reward[h, s, a, t]))
            for e in range(model.num_feedbacks):
                p = dist[h, t] * model.feedback_kernel[h, s, a, t, b, e]
                if p == 0.0:
                    continue
                r = model.principal_reward[h, s, a, e] + model.reward_confound[h, t]
                nxt = ref_locate(model.grid, model.mean_map[h, s, a, e] + model.trans_confound[h, t])
                total += p * (r + value(h + 1, nxt))
        return total

    return value(0, model.initial_state)


def worst_ratio_literal(model, classes, h, transfer=False):
    """Max MSE ratio over residuals and deterministic policies, by loops."""
    src = model.source_type_dist
    tgt = model.target_type_dist
    best = 0.0
    infinite = False
    for actions in all_action_tables(h + 1, model.num_states, model.num_actions):
        occ_src = occupancy_literal(model, actions, h, src)
        occ_tgt = occupancy_literal(model, actions, h, tgt) if transfer else None
        for nu in residual_stack(model, classes, h):
            if not np.any(nu != 0.0):
                continue
            mse_src = float(np.sum(occ_src * nu * nu))
            if transfer:
                mse_tgt = float(np.sum(occ_tgt * nu * nu))
                num, den = mse_tgt, mse_src
            else:
                proj = np.zeros((model.num_states, model.num_actions))
                for s in range(model.num_states):
                    for a in range(model.num_actions):
                        mix = feedback_mix_literal(model, src[h], h, s, a)
                        proj[s, a] = float(mix @ nu[s, a])
                pmse = float(np.sum(occ_src.sum(axis=-1) * proj * proj))
                num, den = mse_src, pmse
            if den <= 0.0:
                if num > 0.0:
                    infinite = True
                continue
            best = max(best, num / den)
    return best, infinite


def two_candidate_classes(model):
    """Truth plus one wrong reward and one tilted transition, then closed."""
    H, S, A, E = model.horizon, model.num_states, model.num_actions, model.num_feedbacks
    wrong_r = model.principal_reward.copy()
    wrong_r[..., 0] += 0.2
    tilt = 0.85 * model.transition_kernel + 0.15 / S
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=model.reward_bound,
        reward_tables=[
            np.stack([model.principal_reward[h], wrong_r[h]]) for h in range(H)
        ],
        discriminators=[np.zeros((0, S, A)) for _ in range(H)],
        value_targets=[np.zeros((1, S)) for _ in range(H)],
        transition_tables=[
            np.stack([model.transition_kernel[h], tilt[h]]) for h in range(H)
        ],
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H,
    )
    return close_classes(model, classes, LearnerKnowledge.from_model(model))


# ---------------------------------------------------------------------------
# Occupancy
# ---------------------------------------------------------------------------


def test_occupancy_rows_are_distributions():
    model = tiny_general()
    occ = occupancy(model, Policy.uniform(2, 2, 2))
    for h in range(2):
        np.testing.assert_allclose(occ.joints[h].sum(), 1.0, atol=1e-9)
        assert occ.joints[h].min() >= 0


def test_occupancy_matches_literal_recomputation():
    model = tiny_general()
    for actions in [np.zeros((2, 2), dtype=int), np.array([[1, 0], [0, 1]])]:
        pol = Policy.deterministic(actions, 2)
        occ = occupancy(model, pol)
        for h in range(2):
            want = occupancy_literal(model, actions, h, model.source_type_dist)
            np.testing.assert_allclose(occ.joints[h], want, atol=1e-12)


def test_occupancy_matches_monte_carlo():
    model = tiny_general()
    pol = Policy.uniform(2, 2, 2)
    occ = occupancy(model, pol)
    n = 8000
    rng = make_rng(123)
    freq = [np.zeros((2, 2, 2)) for _ in range(2)]
    for _ in range(n):
        traj = rollout(model, pol, rng)
        for h, step in enumerate(traj.steps):
            freq[h][int(step.state), step.action, step.feedback] += 1.0
    for h in range(2):
        p = occ.joints[h]
        tol = 4 * np.sqrt(np.maximum(p * (1 - p), 1e-12) / n) + 1e-6
        assert np.all(np.abs(freq[h] / n - p) <= tol)


def test_occupancy_dynamical_noiseless_is_exact_and_unflagged():
    scenario = build_scenario("dyn-1d", params={"noiseless": True})
    model = scenario.model
    pol = Policy.uniform(model.horizon, model.num_states, model.num_actions)
    occ = occupancy(model, pol)
    assert occ.flags == ()
    n = 4000
    rng = make_rng(9)
    freq = [np.zeros_like(occ.joints[h]) for h in range(model.horizon)]
    for _ in range(n):
        traj = rollout(model, pol, rng)
        for h, step in enumerate(traj.steps):
            freq[h][step.state, step.action, step.feedback] += 1.0
    for h in range(model.horizon):
        p = occ.joints[h]
        tol = 4 * np.sqrt(np.maximum(p * (1 - p), 1e-12) / n) + 1e-6
        assert np.all(np.abs(freq[h] / n - p) <= tol)


def test_occupancy_dynamical_noisy_matches_monte_carlo_and_is_unflagged():
    model = tiny_dynamical()
    pol = Policy.uniform(model.horizon, model.num_states, model.num_actions)
    occ = occupancy(model, pol)
    assert occ.flags == ()
    n = 4000
    rng = make_rng(9)
    freq = [np.zeros_like(occ.joints[h]) for h in range(model.horizon)]
    for _ in range(n):
        traj = rollout(model, pol, rng)
        for h, step in enumerate(traj.steps):
            freq[h][step.state, step.action, step.feedback] += 1.0
    for h in range(model.horizon):
        p = occ.joints[h]
        tol = 4 * np.sqrt(np.maximum(p * (1 - p), 1e-12) / n) + 1e-6
        assert np.all(np.abs(freq[h] / n - p) <= tol)


@pytest.mark.parametrize(
    "type_dist",
    [
        np.ones(2),  # one row, not (H, T)
        np.full((2, 3), 1 / 3),  # a type too many
        np.full((2, 2), np.nan),
        np.array([[np.inf, 0.0], [0.5, 0.5]]),
        np.array([[0.5, 0.6], [0.5, 0.5]]),  # a row summing to 1.1
        np.array([[1.5, -0.5], [0.5, 0.5]]),  # sums to 1 with a negative entry
    ],
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda model, dist: occupancy(model, Policy.uniform(2, 2, 2), dist),
        true_aggregated_model,  # a bad shape raised numpy's broadcast error, a bad row a late one
    ],
    ids=["occupancy", "true_aggregated_model"],
)
def test_occupancy_refuses_a_type_dist_that_is_not_a_table_of_distributions(type_dist, entry):
    with pytest.raises(ValidationError, match="type_dist"):
        entry(tiny_general(), type_dist)


@pytest.mark.parametrize(
    "build",
    [
        lambda model: true_aggregated_model(model, "abc"),
        lambda model: occupancy(model, Policy.uniform(2, 2, 2), "abc"),
        lambda model: true_aggregated_model(model, [[10**400, 0]] * 3),
        lambda model: Grid((10**400,), (10**401,), (2,)),
        lambda model: Grid(("a",), (1.0,), (2,)),
    ],
    ids=["aggregate-string", "occupancy-string", "aggregate-huge-int", "grid-huge-int", "grid-string"],
)
def test_a_table_or_box_that_is_not_floats_is_a_validation_error(build):
    """Each escaped as a bare ValueError, OverflowError or TypeError from
    its float conversion or finiteness check."""
    with pytest.raises(ValidationError):
        build(tiny_general())


def test_occupancy_mse_definition():
    model = tiny_general()
    occ = occupancy(model, Policy.uniform(2, 2, 2))
    rng = np.random.default_rng(0)
    nu = rng.normal(size=(2, 2, 2))
    want = float(np.sum(occ.joints[1] * nu**2))
    np.testing.assert_allclose(occupancy_mse(occ, 1, nu), want, atol=1e-12)


# ---------------------------------------------------------------------------
# Policy enumeration
# ---------------------------------------------------------------------------


def test_policy_tables_exhaustive_when_small():
    tables, sampled = deterministic_policy_tables(2, 2, 2, budget=4096)
    assert not sampled
    assert len(tables) == 2 ** (2 * 2)
    keys = {t.tobytes() for t in tables}
    assert len(keys) == len(tables)


def test_policy_tables_sampled_when_large():
    tables, sampled = deterministic_policy_tables(4, 3, 3, budget=50)
    assert sampled
    assert len(tables) == 50
    again, _ = deterministic_policy_tables(4, 3, 3, budget=50)
    for a, b in zip(tables, again):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("actions", [2, 3, 5, 7, 16, 1000, 2**33])
@pytest.mark.parametrize("block", [1, 3, 128])
def test_sampled_tables_drawn_by_block_read_the_stream_as_one_draw(monkeypatch, actions, block):
    """Blocks of POLICY_BLOCK tables, a last partial one included, hold the
    values of one draw of every table, in the smallest unsigned dtype."""
    monkeypatch.setattr(diagnostics, "POLICY_BLOCK", block)
    got, sampled = deterministic_policy_tables(4, actions, 3, budget=200)
    want = make_rng(0).integers(actions, size=(200, 3, 4))
    assert sampled and got.dtype == {2**33: np.uint64, 1000: np.uint16}.get(actions, np.uint8)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("oracle", [ill_posedness, transfer_term])
@pytest.mark.parametrize("budget", [0, -1, 2.0, True])
def test_ratio_oracles_refuse_a_policy_budget_below_one(oracle, budget):
    """A budget below 1 gave a degenerate result over no policies."""
    scenario = build_scenario("recsys-small")
    with pytest.raises(ConfigError, match="policy budget must be an integer of at least 1"):
        oracle(scenario.model, scenario.classes, 0, policy_budget=budget)


@pytest.mark.parametrize("states, actions, steps", [(2, 2, 2), (9, 2, 1), (3, 3, 2), (4, 3, 2), (1, 1, 5)])
@pytest.mark.parametrize("budget", ["one", "total - 1", "total", "default"])
def test_policy_tables_equal_the_list_built_tables(states, actions, steps, budget):
    """One (N, steps, S) array holds the list-built tables in their order: exhaustive
    tables in itertools.product order, sampled ones as one draw per table gives them."""
    total = actions ** (states * steps)
    budget = {"one": 1, "total - 1": max(total - 1, 1), "total": total, "default": 4096}[budget]
    got, sampled = deterministic_policy_tables(states, actions, steps, budget)
    want, want_sampled = ref_deterministic_policy_tables(states, actions, steps, budget)
    assert sampled == want_sampled
    assert got.shape == (len(want), steps, states) and got.dtype == np.uint8
    for table, ref in zip(got, want):
        np.testing.assert_array_equal(table, ref)


# ---------------------------------------------------------------------------
# Worst-case ratios
# ---------------------------------------------------------------------------


def test_ill_posedness_matches_brute_force():
    model = tiny_general()
    classes = two_candidate_classes(model)
    for h in range(model.horizon):
        got = ill_posedness(model, classes, h)
        want, want_inf = worst_ratio_literal(model, classes, h)
        assert not got.lower_bound_estimate
        assert got.infinite == want_inf
        if not got.infinite:
            np.testing.assert_allclose(got.value, want, rtol=1e-9)
            assert got.value >= 1.0 - 1e-12
            assert got.witness is not None


def test_transfer_term_matches_brute_force():
    model = tiny_general(source=(0.6, 0.4), target=(0.2, 0.8))
    classes = two_candidate_classes(model)
    for h in range(model.horizon):
        got = transfer_term(model, classes, h)
        want, want_inf = worst_ratio_literal(model, classes, h, transfer=True)
        assert got.infinite == want_inf
        if not got.infinite:
            np.testing.assert_allclose(got.value, want, rtol=1e-9)


def test_transfer_term_is_one_when_populations_match():
    model = tiny_general(source=(0.6, 0.4), target=(0.6, 0.4))
    classes = two_candidate_classes(model)
    got = transfer_term(model, classes, 0)
    assert not got.infinite
    np.testing.assert_allclose(got.value, 1.0, atol=1e-12)


@pytest.mark.parametrize("oracle", [ill_posedness, transfer_term])
@pytest.mark.parametrize("h", [99, 3, -1, 1.0, True])
def test_ratio_oracles_check_the_step(oracle, h):
    """h = 99 gave "list index out of range", and transfer_term at h = -1 an
    index error from an empty policy table."""
    scenario = build_scenario("recsys-small")
    with pytest.raises(InvalidIndexError, match="step index"):
        oracle(scenario.model, scenario.classes, h, policy_budget=4)


def test_ill_posedness_degenerate_when_only_truth():
    model = tiny_general()
    classes = singleton_classes(model)
    got = ill_posedness(model, classes, 0)
    assert got.degenerate
    assert got.value == 1.0
    assert got.witness is None


def test_ill_posedness_infinite_flag_construction():
    # symmetric feedback makes the two-sided residual invisible to the
    # instrument: its projection vanishes while its magnitude does not
    # (dyadic constants keep every float op exact, so the projection is 0.0)
    model = tiny_general(source=(0.5, 0.5), target=(0.5, 0.5))
    sym = np.full_like(model.feedback_kernel, 0.5)
    flat = np.full_like(model.principal_reward, 0.5)
    model = dataclasses.replace(model, feedback_kernel=sym, principal_reward=flat)
    H, S, A = model.horizon, model.num_states, model.num_actions
    probe = model.principal_reward.copy()
    probe[..., 0] += 0.25
    probe[..., 1] -= 0.25
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=model.reward_bound,
        reward_tables=[np.stack([model.principal_reward[h], probe[h]]) for h in range(H)],
        discriminators=[np.zeros((0, S, A)) for _ in range(H)],
        value_targets=[np.zeros((1, S)) for _ in range(H)],
        transition_tables=[model.transition_kernel[h][None] for h in range(H)],
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H,
    )
    classes = close_classes(model, classes, LearnerKnowledge.from_model(model))
    got = ill_posedness(model, classes, 0)
    assert got.infinite
    assert got.value is None
    assert got.witness is not None and got.witness.residual == "reward[1]"
    d = got.as_dict()
    assert d["infinite"] and d["value"] is None


def test_ill_posedness_budget_sampling_is_lower_bound():
    model = tiny_general()
    classes = two_candidate_classes(model)
    exact = ill_posedness(model, classes, 1)
    sampled = ill_posedness(model, classes, 1, policy_budget=3)
    assert sampled.lower_bound_estimate
    assert not exact.lower_bound_estimate
    assert sampled.value <= exact.value + 1e-12


@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("oracle", [ill_posedness, transfer_term])
def test_ratio_oracles_equal_per_policy_kernel_reference(noiseless, oracle):
    # Budget 512: step 0 enumerates all 2**9 tables, steps 1 and 2 are sampled.
    scenario = build_scenario("dyn-1d", params={"noiseless": noiseless})
    for h in range(scenario.model.horizon):
        got = oracle(scenario.model, scenario.classes, h, policy_budget=512)
        want = ref_worst_ratio(
            scenario.model, scenario.classes, h, 512, transfer=oracle is transfer_term
        )
        assert got == want
        assert got.as_dict() == want.as_dict()


def probe_instance(seed, states, actions, kind):
    """A random general model whose extra reward candidates differ from the truth
    at one (state, action) cell, twice over (tied residuals), with the true
    transitions alone. "infinite-ill": symmetric feedback there hides the
    two-sided residual from the instrument; "infinite-transfer": the source
    types never show the feedback the residual sits on; "unreachable": the cell
    is off the initial state, so no policy reaches a residual at step 0 (degenerate)."""
    model, rand = random_general(seed, 2, states, actions, 2, 2)
    s, a = (1, 0) if kind == "unreachable" else (0, actions - 1)
    fb, reward, src = model.feedback_kernel.copy(), model.principal_reward.copy(), model.source_type_dist.copy()
    reward[:, s, a] = 0.5  # dyadic, so candidate minus truth is exact
    probe = reward.copy()
    if kind == "infinite-transfer":
        src[:] = [1.0, 0.0]
        fb[:, s, a] = np.eye(2)[:, None, :]  # type t shows feedback t
        probe[:, s, a, 1] = 0.75
    else:
        fb[:, s, a] = 0.5
        probe[:, s, a] = [0.75, 0.25]
    model = dataclasses.replace(model, feedback_kernel=fb, principal_reward=reward, source_type_dist=src)
    H = model.horizon
    rewards = [np.stack([reward[h], probe[h], probe[h]]) for h in range(H)]
    if kind != "unreachable":
        rewards = [np.concatenate([r, rand.reward_tables[h][1:]]) for h, r in enumerate(rewards)]
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=1.0,
        reward_tables=rewards,
        discriminators=[np.zeros((0, states, actions))] * H,
        value_targets=[np.zeros((0, states))] * H,
        transition_tables=[model.transition_kernel[h][None] for h in range(H)],
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H,
    )
    return model, classes


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["general", "dynamical", "infinite-ill", "infinite-transfer", "unreachable"]),
    seed=st.integers(0, 2**16),
    states=st.integers(2, 3),
    actions=st.integers(2, 3),
    block=st.sampled_from([1, 3, diagnostics.POLICY_BLOCK]),
    h=st.integers(0, 1),
    budget=st.one_of(st.sampled_from(["total - 1", "total", "total + 1"]), st.integers(1, 800)),
)
@example(kind="general", seed=1, states=3, actions=2, block=128, h=1, budget="total")  # a gemm changes bits
@example(kind="unreachable", seed=0, states=3, actions=2, block=3, h=1, budget="total + 1")  # tied maxima
def test_blocked_ratio_oracles_equal_the_per_policy_reference(kind, seed, states, actions, block, h, budget):
    """Blocks that end partway through the tables, budgets from 1 to past
    exhaustive, infinite, degenerate and tied results: all equal, bit for bit,
    the reference's one DP and one running best per table."""
    if kind == "general":
        model, classes = random_general(seed, 2, states, actions, 2, 3)
    elif kind == "dynamical":
        model, classes = random_dynamical(seed, Grid((-1.5,), (1.5,), (states,)), 2, rewards=2, candidates=(2,))
    else:
        model, classes = probe_instance(seed, states, actions, kind)
    classes = close_classes(model, classes, LearnerKnowledge.from_model(model))
    total = model.num_actions ** (model.num_states * (h + 1))
    budget = {"total - 1": total - 1, "total": total, "total + 1": total + 1}.get(budget, budget)
    with mock.patch.object(diagnostics, "POLICY_BLOCK", block):
        for oracle in (ill_posedness, transfer_term):
            got = oracle(model, classes, h, policy_budget=budget)
            want = ref_worst_ratio(model, classes, h, budget, transfer=oracle is transfer_term)
            assert got == want
            assert got.as_dict() == want.as_dict()


@pytest.mark.parametrize("kind, oracle", [("infinite-ill", ill_posedness), ("infinite-transfer", transfer_term)])
def test_probe_instances_reach_an_infinite_tied_and_degenerate_result(kind, oracle):
    """The differential test above sees each kind of result it is meant to cover."""
    model, classes = probe_instance(0, 3, 2, kind)
    classes = close_classes(model, classes, LearnerKnowledge.from_model(model))
    infinite = oracle(model, classes, 1)
    assert infinite.infinite and infinite.witness.residual == "reward[1]"  # tied with reward[2]
    model, classes = probe_instance(0, 3, 2, "unreachable")
    classes = close_classes(model, classes, LearnerKnowledge.from_model(model))
    assert oracle(model, classes, 0).degenerate and oracle(model, classes, 0).num_residuals == 2
    tied = transfer_term(model, classes, 1)
    assert not tied.infinite and tied.witness.residual == "reward[1]"


@pytest.mark.parametrize("oracle", [ill_posedness, transfer_term])
def test_ratio_oracles_stay_within_the_memory_of_a_table_list(oracle):
    """dyn-1d at h = 2 samples the default 4096 of its 2**27 tables. A per-table
    loop over a list of (3, 9) arrays peaked at 1,583,713 (ill_posedness) and
    1,584,977 bytes (transfer_term), blocks of 128 int64 tables at 1,531,061
    and 1,567,973, and one DP over all 4096 tables at once at 12,113,069 and
    12,704,309. uint8 tables drawn a block at a time peak at 755,324 and
    791,692 bytes; the cap rounds that up."""
    scenario = build_scenario("dyn-1d")
    oracle(scenario.model, scenario.classes, 2, policy_budget=8)  # first-call allocations
    tracemalloc.start()
    try:
        result = oracle(scenario.model, scenario.classes, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.num_policies == 4096 and result.lower_bound_estimate
    assert peak <= 800_000


@pytest.mark.parametrize("model", [tiny_general(), tiny_dynamical(), tiny_dynamical(0.0)])
def test_occupancy_equals_per_step_kernel_reference(model):
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(model.num_actions), size=(model.horizon, model.num_states))
    policy = Policy(probs)
    for dist in (model.source_type_dist, model.target_type_dist):
        got = occupancy(model, policy, dist).joints
        want = ref_occupancy_joints(model, policy, dist)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["general", "dynamical", "dynamical-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 3),
    policies=st.integers(1, 5),
    one_hot=st.booleans(),
    target=st.booleans(),
    data=st.data(),
)
def test_a_stack_of_action_tables_gives_each_table_its_own_occupancy(
    kind, seed, horizon, policies, one_hot, target, data
):
    """An (N, steps, S, A) stack, steps <= H, gives bit for bit the joints of each table run alone."""
    if kind == "general":
        model, _ = random_general(seed, horizon, 3, 2, 2, 2)
    else:
        grid = Grid((-1.5,), (1.5,), (3,)) if kind == "dynamical" else Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))
        model, _ = random_dynamical(seed, grid, horizon, rewards=2, candidates=(2,) * grid.dim)
    steps = data.draw(st.integers(1, model.horizon), label="steps")
    rng = np.random.default_rng(seed)
    shape = (policies, steps, model.num_states)
    if one_hot:
        stack = np.eye(model.num_actions)[rng.integers(model.num_actions, size=shape)]
    else:
        stack = rng.dirichlet(np.ones(model.num_actions), size=shape)
    dist = model.target_type_dist if target else None
    got = occupancy(model, stack, dist).joints
    assert len(got) == steps
    for i in range(policies):
        alone = occupancy(model, Policy(stack[i]), dist).joints
        for g, w in zip(got, alone, strict=True):
            assert g[i].tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "table",
    [np.full((3, 2, 2), 0.5), np.full((2, 3, 2), 0.5), np.full((2, 2), 0.5), np.full((1, 2, 2, 2), 0.6), 0.5],
    ids=["past the horizon", "a state too many", "no step axis", "not distributions", "a number"],
)
def test_occupancy_refuses_action_tables_past_the_horizon_or_of_another_shape(table):
    with pytest.raises(ValidationError, match="^policy "):
        occupancy(tiny_general(), table)


@pytest.mark.parametrize("oracle, populations", [(ill_posedness, 1), (transfer_term, 2)])
def test_ratio_oracles_run_every_block_through_occupancy(monkeypatch, oracle, populations):
    """The forward DP of the oracles is the public occupancy(), one call per
    block and population, covering every table once per population."""
    scenario = build_scenario("dyn-1d")
    shapes = []
    real = diagnostics.occupancy

    def counting(env, policy, type_dist=None):
        shapes.append(np.shape(policy))
        return real(env, policy, type_dist)

    monkeypatch.setattr(diagnostics, "occupancy", counting)
    budget = 2 * diagnostics.POLICY_BLOCK + 1
    assert oracle(scenario.model, scenario.classes, 1, policy_budget=budget).num_policies == budget
    assert len(shapes) == 3 * populations
    assert sum(shape[0] for shape in shapes) == budget * populations
    assert {shape[1:] for shape in shapes} == {(2, scenario.model.num_states, scenario.model.num_actions)}


def test_a_diagnose_and_run_derive_the_true_law_once_per_built_model(monkeypatch, tmp_path):
    """A 4-seed dyn-1d diagnose plus run with both oracles on: one
    best-response table and H cell-mass kernels per model built."""
    horizon = build_scenario("dyn-1d").model.horizon
    calls = collections.Counter()

    def spy(owner, name, key):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    spy(StrategicModel, "__post_init__", "models")
    spy(model_module, "best_response_table", "best responses")
    spy(diagnostics, "discretize_gaussian", "kernels")
    cfg = config_from_dict(
        {
            "environment": {"generator": "dyn-1d"},
            "run": {"episodes": 5, "seeds": [0, 1, 2, 3]},
            "diagnostics": {"ill_posedness": True, "transfer": True, "policy_budget": 64},
            "output": {"root": str(tmp_path)},
        }
    )
    diagnose(cfg)
    run_experiment(cfg)
    assert calls["models"] == 2
    assert (calls["best responses"], calls["kernels"]) == (2, 2 * horizon)


# ---------------------------------------------------------------------------
# The true law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["dyn-1d", "tiny"])
def test_true_aggregated_model_equals_noiseless_path_enumeration(which):
    if which == "dyn-1d":
        model = build_scenario("dyn-1d", params={"noiseless": True}).model
    else:
        model = tiny_dynamical(0.0)
    rng = np.random.default_rng(3)
    tables = [rng.integers(model.num_actions, size=(model.horizon, model.num_states)) for _ in range(4)]
    for dist in (model.source_type_dist, model.target_type_dist):
        oracle = true_aggregated_model(model, dist)
        # The aggregated rewards leave out the population mean of the reward confound.
        confound_mean = float(np.sum(dist * model.reward_confound))
        for actions in tables:
            got = policy_value(oracle, Policy.deterministic(actions, model.num_actions))
            want = noiseless_path_value(model, actions, dist)
            assert abs(got + confound_mean - want) <= 1e-12


def test_true_aggregated_model_matches_monte_carlo_on_noisy_dyn_1d():
    model = build_scenario("dyn-1d").model
    assert model.trans_noise_scale > 0
    oracle = true_aggregated_model(model, model.source_type_dist)
    policy = value_iteration(oracle).policy
    want = policy_value(oracle, policy) + float(np.sum(model.source_type_dist * model.reward_confound))
    n = 20_000
    rng = make_rng(11)
    returns = np.array(
        [sum(step.reward for step in rollout(model, policy, rng).steps) for _ in range(n)]
    )
    se = returns.std(ddof=1) / np.sqrt(n)
    assert abs(returns.mean() - want) <= 4 * se


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 3),
    target=st.booleans(),
)
def test_true_aggregated_model_equals_literal_path_loop(dims, seed, horizon, target):
    if dims == 1:
        model, _ = random_dynamical(seed, Grid((-1.5,), (1.5,), (4,)), horizon, rewards=2, candidates=(2,))
    else:
        grid = Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))
        model, _ = random_dynamical(seed, grid, horizon, rewards=2, candidates=(2, 2))
    dist = model.target_type_dist if target else model.source_type_dist
    got = true_aggregated_model(model, dist)
    rewards, transitions = true_aggregated_literal(model, dist)
    np.testing.assert_allclose(got.rewards, rewards, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.transitions, transitions, rtol=0, atol=1e-12)


def test_true_aggregated_model_keeps_the_general_formula_bitwise():
    models = [tiny_general()]
    models += [build_scenario(name).model for name in sorted(GENERATORS) if name != "dyn-1d"]
    models += [random_general(seed, 3, 3, 2, 2, 2)[0] for seed in range(5)]
    for model in models:
        assert model.transition_mode is TransitionMode.GENERAL
        for dist in (None, model.source_type_dist):
            got = true_aggregated_model(model, dist)
            want = ref_true_aggregated_general(model, dist)
            np.testing.assert_array_equal(got.rewards, want.rewards)
            np.testing.assert_array_equal(got.transitions, want.transitions)


# ---------------------------------------------------------------------------
# Naive baseline
# ---------------------------------------------------------------------------


def type_separating_model(reward_noise=0.0):
    """Types deterministically reveal themselves through the feedback symbol."""
    model = tiny_general(reward_noise=reward_noise, source=(0.5, 0.5), confound=(0.3, -0.3))
    feed = np.zeros_like(model.feedback_kernel)
    feed[:, :, :, 0, :, 0] = 1.0
    feed[:, :, :, 1, :, 1] = 1.0
    return dataclasses.replace(model, feedback_kernel=feed)


def collect_dataset(model, episodes, seed=0):
    data = StepDataset(
        horizon=model.horizon,
        num_states=model.num_states,
        num_actions=model.num_actions,
        num_feedbacks=model.num_feedbacks,
        state_dim=model.state_dim,
    )
    pol = Policy.uniform(model.horizon, model.num_states, model.num_actions)
    rng = make_rng(seed)
    for _ in range(episodes):
        data.append_trajectory(rollout(model, pol, rng))
    return data


def test_naive_baseline_population_bias_hand_value():
    model = type_separating_model()
    data = collect_dataset(model, 400)
    report = naive_baseline(data, model)
    # feedback 0 is emitted only by the +0.3 type, feedback 1 only by -0.3
    np.testing.assert_allclose(report.population_bias[..., 0], 0.3, atol=1e-12)
    np.testing.assert_allclose(report.population_bias[..., 1], -0.3, atol=1e-12)
    # noiseless rewards make the empirical bias exact wherever cells are hit
    hit = report.counts > 0
    np.testing.assert_allclose(
        report.empirical_bias[hit], report.population_bias[hit], atol=1e-9
    )


def test_naive_baseline_empirical_bias_converges():
    model = type_separating_model(reward_noise=0.3)
    n = 6000
    data = collect_dataset(model, n, seed=2)
    report = naive_baseline(data, model)
    cell = (0, int(model.initial_state), 0, 0)
    count = report.counts[cell]
    assert count > 500
    sigma_hat = 0.3
    assert abs(report.empirical_bias[cell] - 0.3) <= 4 * sigma_hat / np.sqrt(count)


def test_naive_baseline_unconfounded_bias_is_zero():
    model = tiny_general(confound=(0.0, 0.0))
    data = collect_dataset(model, 300)
    report = naive_baseline(data, model)
    np.testing.assert_allclose(report.population_bias, 0.0, atol=1e-12)
    hit = report.counts > 0
    np.testing.assert_allclose(report.empirical_bias[hit], 0.0, atol=1e-9)


def test_naive_baseline_reports_empty_cells():
    model = tiny_general()
    data = collect_dataset(model, 1)
    report = naive_baseline(data, model)
    assert any(f.startswith("empty-cells:") for f in report.flags)
    d = report.as_dict()
    assert set(d) == {"counts", "empirical_bias", "population_bias", "flags"}
    # unvisited cells serialize as nulls, not NaN
    flat = str(d["empirical_bias"])
    assert "nan" not in flat.lower()
    assert "None" in flat


@pytest.mark.parametrize("field", ["horizon", "num_states", "num_actions", "num_feedbacks"])
def test_naive_baseline_refuses_a_dataset_of_another_shape(field):
    """A dataset from another scenario raised numpy's bare broadcast or index error."""
    model = build_scenario("recsys-small").model
    sizes = {name: getattr(model, name) for name in ("horizon", "num_states", "num_actions", "num_feedbacks")}
    data = StepDataset(**{**sizes, field: sizes[field] + 1})
    with pytest.raises(ValidationError, match=r"dataset has \(H, S, A, E\)"):
        naive_baseline(data, model)


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------


def test_regret_curve_singleton_truth():
    model = tiny_general(reward_noise=0.0)
    classes = singleton_classes(model)
    kn = LearnerKnowledge.from_model(model)
    cfg = RunConfig(episodes=5, delta=0.1, mode=TransitionMode.GENERAL, seed=0, beta_scale=0.1)
    result = run_learner(model, kn, classes, cfg)
    curve = regret_curve(result, model, kn)
    oracle = true_aggregated_model(model)
    plan = value_iteration(oracle)
    gap = plan.value_at_initial - mixture_value([result.policies[0]], oracle)
    np.testing.assert_allclose(curve.instant[0], gap, atol=1e-12)
    np.testing.assert_allclose(curve.instant[1:], 0.0, atol=1e-12)
    np.testing.assert_allclose(curve.cumulative[-1], gap, atol=1e-12)
    # the records were annotated in place
    assert result.episodes[0].instant_regret == pytest.approx(gap)
    assert result.episodes[-1].cum_regret == pytest.approx(gap)


def test_regret_nonnegative_and_mixture_identity():
    scenario = build_scenario("recsys-small")
    cfg = RunConfig(episodes=40, delta=0.1, mode=TransitionMode.GENERAL, seed=1, beta_scale=0.1)
    result = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    kn = scenario.knowledge()
    curve = regret_curve(result, scenario.model, kn)
    assert np.all(curve.instant >= -1e-9)
    # online-to-batch: mixture value equals optimal value minus average regret
    oracle = true_aggregated_model(scenario.model)
    mv = mixture_value(result.policies, oracle)
    np.testing.assert_allclose(
        mv, curve.optimal_value - curve.cumulative[-1] / cfg.episodes, atol=1e-9
    )


def regret_literal(run, env) -> np.ndarray:
    """Instantaneous regret with one policy_value call per episode."""
    oracle = true_aggregated_model(env)
    vstar = value_iteration(oracle).value_at_initial
    return np.array([vstar - policy_value(oracle, pol) for pol in run.policies])


def count_policy_values(monkeypatch) -> list:
    calls = []

    def counting(oracle, policy):
        calls.append(policy)
        return policy_value(oracle, policy)

    monkeypatch.setattr(diagnostics, "policy_value", counting)
    return calls


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_regret_curve_matches_per_episode_loop_on_a_memoized_run(monkeypatch, name):
    scenario = build_scenario(name)
    kn = scenario.knowledge()
    cfg = RunConfig(
        episodes=60, delta=0.1, mode=scenario.model.transition_mode, seed=2, beta_scale=0.1
    )
    result = run_learner(scenario.model, kn, scenario.classes, cfg)
    want = regret_literal(result, scenario.model)
    distinct = {id(p) for p in result.policies}
    assert len(distinct) < len(result.policies) // 5  # the run's memo shares Policy objects
    calls = count_policy_values(monkeypatch)
    curve = regret_curve(result, scenario.model, kn)
    assert len(calls) == len(distinct)
    assert_bitwise_equal(curve.instant, want)
    assert_bitwise_equal(curve.cumulative, np.cumsum(want))
    assert [rec.instant_regret for rec in result.episodes] == want.tolist()


def test_regret_curve_evaluates_distinct_objects_with_equal_tables(monkeypatch):
    model = tiny_general()
    kn = LearnerKnowledge.from_model(model)
    H, S, A = model.horizon, model.num_states, model.num_actions
    first = Policy.deterministic(np.zeros((H, S), dtype=int), A)
    twin = Policy(first.action_probs.copy())  # equal table, another object
    other = Policy.uniform(H, S, A)
    # episode 1 plays first, then each episode the policy of the entry before: twin or other
    run = types.SimpleNamespace(
        initial_policy=first,
        committed=(twin, other),
        entry_index=[0, 1, 0, 1, 0, 1],
        policies=[first, twin, other, twin, other, twin],
        instant_regret=None,
        cum_regret=None,
    )
    want = regret_literal(run, model)
    calls = count_policy_values(monkeypatch)
    curve = regret_curve(run, model, kn)
    assert [id(p) for p in calls] == [id(first), id(twin), id(other)]
    assert_bitwise_equal(curve.instant, want)
    assert run.cum_regret == np.cumsum(want).tolist()


@pytest.mark.parametrize("oracle", [ill_posedness, transfer_term])
def test_ratio_oracles_refuse_classes_of_different_sizes(oracle):
    """A model and classes that disagree on (H, S, A, E) are a ValidationError
    naming both tuples, not a numpy broadcasting error."""
    model = build_scenario("recsys-small").model
    classes = build_scenario("contract-small").classes
    with pytest.raises(ValidationError, match=r"model \(3, 3, 2, 3\), classes \(3, 2, 2, 2\)"):
        oracle(model, classes, 0)

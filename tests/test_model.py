"""Simulator primitives: sampling, grids, validation, stepping, policies."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategicmdp import (
    Grid,
    InvalidIndexError,
    LearnerKnowledge,
    Policy,
    StepDataset,
    ValidationError,
    env_step,
    feedback_mix,
    integrate_feedback,
    make_rng,
    rollout,
)
from strategicmdp.model import best_response_table, draw_categorical

from helpers import (
    REF_FEEDBACK_INTEGRATIONS,
    REF_FEEDBACK_MIXES,
    cell_center,
    random_dynamical,
    random_general,
    ref_append_trajectory,
    ref_locate,
    ref_rollout,
    sample_step_batch,
    tiny_dynamical,
    tiny_general,
)


# ---------------------------------------------------------------------------
# Categorical sampling
# ---------------------------------------------------------------------------


def test_draw_categorical_degenerate_is_deterministic():
    rng = make_rng(7)
    probs = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(draw_categorical(rng, probs) == 2 for _ in range(50))


def test_draw_categorical_frequencies_match():
    rng = make_rng(11)
    probs = np.array([0.2, 0.3, 0.5])
    n = 20000
    draws = np.array([draw_categorical(rng, probs) for _ in range(n)])
    freqs = np.bincount(draws, minlength=3) / n
    tol = 4 * np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freqs - probs) <= tol)


@given(
    weights=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=6).filter(
        lambda w: sum(w) > 0
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_draw_categorical_never_leaves_support(weights, seed):
    probs = np.asarray(weights, dtype=float) / sum(weights)
    idx = draw_categorical(make_rng(seed), probs)
    assert 0 <= idx < len(probs)
    assert probs[idx] > 0


def test_same_seed_same_stream():
    probs = np.array([0.4, 0.6])
    a = [draw_categorical(make_rng(3), probs) for _ in range(1)]
    b = [draw_categorical(make_rng(3), probs) for _ in range(1)]
    assert a == b


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_grid_center_locate_roundtrip():
    grid = Grid((-1.0, 0.0), (1.0, 2.0), (4, 3))
    for cell in range(grid.num_cells):
        assert grid.locate(cell_center(grid, cell)) == cell


def test_grid_locate_clips_outside_points():
    grid = Grid((-1.0,), (1.0,), (4,))
    assert grid.locate(np.array([-10.0])) == 0
    assert grid.locate(np.array([10.0])) == grid.num_cells - 1


@st.composite
def grids_and_points(draw):
    """A 1-D or 2-D grid and points inside the box, outside it and on cell edges."""
    dim = draw(st.integers(1, 2))
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    lows = tuple(draw(coord) for _ in range(dim))
    highs = tuple(lo + draw(st.floats(0.01, 6.0)) for lo in lows)
    cells = tuple(draw(st.integers(1, 9)) for _ in range(dim))
    grid = Grid(lows, highs, cells)
    widths = grid.widths()
    per_dim = []
    for d in range(dim):
        edges = [lows[d] + k * widths[d] for k in range(-2, cells[d] + 3)]
        edges += list(grid.edges(d))
        free = draw(st.lists(st.floats(lows[d] - 20.0, highs[d] + 20.0), min_size=1, max_size=6))
        per_dim.append(draw(st.lists(st.sampled_from(edges + free), min_size=1, max_size=12)))
    n = min(len(v) for v in per_dim)
    points = np.array([[per_dim[d][i] for d in range(dim)] for i in range(n)], dtype=float)
    return grid, points


@settings(max_examples=200, deadline=None)
@given(grids_and_points())
def test_grid_locate_matches_literal_formula(case):
    """locate reuses the grid's arrays; the cell is the one the formula
    gives with every array rebuilt, edges and clipping included."""
    grid, points = case
    want = [ref_locate(grid, p) for p in points]
    assert [grid.locate(p) for p in points] == want


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid((0.0,), (0.0,), (3,))
    with pytest.raises(ValidationError):
        Grid((0.0,), (1.0,), (0,))
    with pytest.raises(ValidationError):
        Grid((0.0, 0.0), (1.0,), (2,))


@pytest.mark.parametrize(
    "lows, highs, cells, match",
    [
        ((math.nan,), (1.0,), (2,), "not all finite"),
        ((0.0,), (math.inf,), (2,), "not all finite"),
        ((-math.inf, 0.0), (1.0, 1.0), (2, 2), "not all finite"),
        ((0.0,), (1.0,), (2.5,), "cell count must be an integer of at least 1"),
        ((0.0,), (1.0,), (2.0,), "cell count must be an integer of at least 1"),
        ((0.0,), (1.0,), (True,), "cell count must be an integer of at least 1"),
        ((0.0,), (1.0,), (np.int64(0),), "cell count must be an integer of at least 1"),
    ],
)
def test_grid_refuses_a_non_finite_box_and_non_integer_cell_counts(lows, highs, cells, match):
    """A NaN low and a cell count of 2.5 both constructed; locate, edges and
    gaussian_mass_1d then raised a bare ValueError or TypeError."""
    with pytest.raises(ValidationError, match=match):
        Grid(lows, highs, cells)


def test_gaussian_mass_rows_sum_to_one():
    grid = Grid((-1.0,), (1.0,), (4,))
    for mean in (-2.0, -0.3, 0.0, 0.9, 3.0):
        mass = grid.gaussian_mass_1d(mean, 0.5, 0)
        assert mass.shape == (4,)
        assert mass.min() >= 0
        np.testing.assert_allclose(mass.sum(), 1.0, atol=1e-12)


def test_gaussian_mass_zero_scale_is_point_mass():
    grid = Grid((-1.0,), (1.0,), (4,))
    mass = grid.gaussian_mass_1d(0.3, 0.0, 0)
    np.testing.assert_array_equal(mass, [0.0, 0.0, 1.0, 0.0])
    # means outside the box land in the boundary cells
    np.testing.assert_array_equal(grid.gaussian_mass_1d(-5.0, 0.0, 0), [1, 0, 0, 0])
    np.testing.assert_array_equal(grid.gaussian_mass_1d(5.0, 0.0, 0), [0, 0, 0, 1])


@pytest.mark.parametrize("coordinate, cell", [(1e19, 8), (1e300, 8), (-1e300, 0), (-1e19, 0)])
def test_far_points_and_zero_scale_means_share_the_boundary_bin(coordinate, cell):
    """locate and the zero-scale mass clip in float before the cast to int,
    so a coordinate past the int range lands in the boundary cell, with no
    RuntimeWarning from the cast."""
    grid = Grid(lows=(-2.5,), highs=(2.5,), cells_per_dim=(9,))
    assert grid.locate(np.array([coordinate])) == cell
    np.testing.assert_array_equal(grid.gaussian_mass_1d(np.array([coordinate]), 0.0, 0), [np.eye(9)[cell]])
    plane = Grid((-1.0, 0.0), (1.0, 2.0), (4, 3))
    assert plane.locate(np.array([coordinate, -coordinate])) == (9 if cell else 2)  # bins (3, 0) or (0, 2)


def test_gaussian_mass_tail_folding():
    grid = Grid((-1.0,), (1.0,), (4,))
    # mean far to the left: nearly all mass folds into the first cell
    mass = grid.gaussian_mass_1d(-4.0, 0.5, 0)
    assert mass[0] > 0.999
    # interior mass matches the plain CDF difference
    def ndtr(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    mass = grid.gaussian_mass_1d(0.1, 0.4, 0)
    edges = grid.edges(0)
    want = ndtr((edges[2] - 0.1) / 0.4) - ndtr((edges[1] - 0.1) / 0.4)
    np.testing.assert_allclose(mass[1], want, atol=1e-12)


# ---------------------------------------------------------------------------
# Model construction and validation
# ---------------------------------------------------------------------------


def test_confound_demeaned_at_construction():
    model = tiny_general(confound=(0.3, -0.3), source=(0.6, 0.4))
    # raw mean under the source is 0.6*0.3 - 0.4*0.3 = 0.06
    np.testing.assert_allclose(model.reward_confound[0], [0.24, -0.36], atol=1e-12)
    resid = np.sum(model.source_type_dist * model.reward_confound, axis=1)
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)


def test_trans_confound_demeaned_dynamical():
    model = tiny_dynamical()
    np.testing.assert_allclose(model.trans_confound[0, :, 0], [0.16, -0.24], atol=1e-12)


def test_validation_rejects_bad_shapes_and_ranges():
    good = tiny_general()
    with pytest.raises(ValidationError):
        dataclasses.replace(good, principal_reward=np.zeros((2, 2, 2)))
    with pytest.raises(ValidationError):
        dataclasses.replace(good, principal_reward=good.principal_reward + 5.0)
    bad_feed = good.feedback_kernel.copy()
    bad_feed[0, 0, 0, 0, 0] = (0.5, 0.9)
    with pytest.raises(ValidationError):
        dataclasses.replace(good, feedback_kernel=bad_feed)
    with pytest.raises(ValidationError):
        dataclasses.replace(good, reward_noise_std=-0.1)
    with pytest.raises(InvalidIndexError):
        dataclasses.replace(good, initial_state=5)
    with pytest.raises(ValidationError):
        dataclasses.replace(good, transition_kernel=None)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "maker, key",
    [
        (tiny_general, "reward_noise_std"),
        (tiny_general, "reward_bound"),
        (tiny_dynamical, "trans_noise_scale"),
    ],
)
def test_validation_rejects_non_finite_scales(maker, key, value):
    with pytest.raises(ValidationError, match=key):
        dataclasses.replace(maker(), **{key: value})


def _planted(table, value):
    """A copy of table with value in its first entry."""
    out = np.array(table, dtype=float)
    out.flat[0] = value
    return out


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "maker, table",
    [
        (tiny_general, "source_type_dist"),
        (tiny_general, "target_type_dist"),
        (tiny_general, "agent_reward"),
        (tiny_general, "feedback_kernel"),
        (tiny_general, "principal_reward"),
        (tiny_general, "reward_confound"),
        (tiny_general, "transition_kernel"),
        (tiny_dynamical, "mean_map"),
        (tiny_dynamical, "trans_confound"),
    ],
)
def test_validation_rejects_non_finite_tables(maker, table, value):
    good = maker()
    with pytest.raises(ValidationError, match=f"^{table} has non-finite entries$"):
        dataclasses.replace(good, **{table: _planted(getattr(good, table), value)})


def test_validation_dynamical_requirements():
    good = tiny_dynamical()
    with pytest.raises(ValidationError):
        dataclasses.replace(good, mean_map=None)
    with pytest.raises(ValidationError):
        dataclasses.replace(good, trans_noise_scale=-1.0)
    with pytest.raises(ValidationError):
        dataclasses.replace(good, num_states=3)


# ---------------------------------------------------------------------------
# Best responses and learner-visible knowledge
# ---------------------------------------------------------------------------


def test_best_response_prefers_lowest_index_on_tie():
    model = tiny_general()
    tied = model.agent_reward.copy()
    tied[0, 0, 0, 0, :] = 0.5
    model = dataclasses.replace(model, agent_reward=tied)
    assert best_response_table(model)[0, 0, 0, 0] == 0


def test_best_response_table_matches_scalar():
    model = tiny_general()
    table = best_response_table(model)
    for h in range(model.horizon):
        for s in range(model.num_states):
            for a in range(model.num_actions):
                for t in range(model.num_types):
                    utilities = list(model.agent_reward[h, s, a, t])
                    assert table[h, s, a, t] == utilities.index(max(utilities))


@pytest.mark.parametrize("field, value", [("horizon", 3), ("principal_reward", None), ("grid", None)])
def test_a_built_model_refuses_a_rebound_field(field, value):
    """The derived law is cached on the model, so no field may change under it."""
    model = tiny_dynamical()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(model, field, value)


@pytest.mark.parametrize("build", [tiny_general, tiny_dynamical], ids=["general", "dynamical"])
def test_the_model_derives_its_law_on_first_read_and_keeps_it(build):
    model = build()
    assert "feedback_by_type" not in vars(model) and "step_kernels" not in vars(model)
    fb, kernels = model.feedback_by_type, model.step_kernels
    assert model.feedback_by_type is fb and model.step_kernels is kernels
    assert len(kernels) == model.horizon
    assert not fb.flags.writeable and not any(k.flags.writeable for k in kernels)
    assert "feedback_by_type" not in vars(dataclasses.replace(model))


def test_knowledge_holds_the_target_law_and_nothing_of_the_source():
    model = tiny_general()
    kn = LearnerKnowledge.from_model(model)
    assert [f.name for f in dataclasses.fields(kn)] == ["feedback_law", "grid", "trans_noise_scale"]
    assert kn.feedback_law is model.target_feedback
    assert kn.dims == model.dims


@pytest.mark.parametrize("build", [tiny_general, tiny_dynamical], ids=["general", "dynamical"])
def test_the_model_caches_its_two_population_laws(build):
    model = build()
    assert "source_feedback" not in vars(model) and "target_feedback" not in vars(model)
    for name, dist in (("source_feedback", model.source_type_dist), ("target_feedback", model.target_type_dist)):
        law = getattr(model, name)
        assert getattr(model, name) is law and not law.flags.writeable
        want = np.einsum("ht,hsate->hsae", dist, model.feedback_by_type)
        assert law.tobytes() == want.tobytes()
        np.testing.assert_allclose(law.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("build", [tiny_general, tiny_dynamical], ids=["general", "dynamical"])
def test_the_model_caches_its_target_mdp_and_source_reward_bias(build):
    """Both are derived on first read, kept, and read-only; the bias keeps
    the bits of the baseline's old formula, NaN where the source law is 0."""
    model = build()
    assert "target_mdp" not in vars(model) and "source_reward_bias" not in vars(model)
    mdp, bias = model.target_mdp, model.source_reward_bias
    assert model.target_mdp is mdp and model.source_reward_bias is bias
    assert not any(t.flags.writeable for t in (mdp.rewards, mdp.transitions, bias))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mdp.rewards = mdp.rewards.copy()
    fb, src = model.feedback_by_type, model.source_type_dist
    weighted = np.einsum("ht,hsate->hsae", src * model.reward_confound, fb)
    kappa = np.einsum("ht,hsate->hsae", src, fb)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = np.where(kappa > 0, weighted / np.maximum(kappa, 1e-300), np.nan)
    assert bias.tobytes() == want.tobytes()


def test_the_source_reward_bias_is_nan_where_the_source_law_has_no_mass():
    model = tiny_general(source=(1.0, 0.0), confound=(0.3, -0.3))
    feed = np.zeros_like(model.feedback_kernel)
    feed[:, :, :, 0, :, 0] = 1.0  # only type 1, which the source never draws, emits feedback 1
    feed[:, :, :, 1, :, 1] = 1.0
    bias = dataclasses.replace(model, feedback_kernel=feed).source_reward_bias
    assert np.isnan(bias[..., 1]).all() and not np.isnan(bias[..., 0]).any()


def test_per_type_feedback_substitutes_best_responses():
    # compliant type 0 emits the b=a row, contrary type 1 the b=1-a row
    compliant = tiny_general().feedback_by_type[:, :, :, 0]
    np.testing.assert_allclose(compliant[0, 0, 0], [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(compliant[0, 0, 1], [0.2, 0.8], atol=1e-12)


@pytest.mark.parametrize(
    "field, change, match",
    [
        ("feedback_law", lambda kn: "abc", "feedback law is not a table of floats"),
        ("feedback_law", lambda kn: [["a"]], "feedback law is not a table of floats"),
        ("feedback_law", lambda kn: 2.0 * kn.feedback_law - 0.5, "feedback law has a row that is not a distribution"),
        ("feedback_law", lambda kn: kn.feedback_law / 2, "feedback law has a row that is not a distribution"),
        ("feedback_law", lambda kn: kn.feedback_law * np.nan, "feedback law has non-finite"),
        ("feedback_law", lambda kn: kn.feedback_law[0], r"feedback law has shape \(2, 2, 2\), expected \(H, S, A, E\)"),
        ("feedback_law", lambda kn: kn.feedback_law[..., None], r"expected \(H, S, A, E\)"),
        ("feedback_law", lambda kn: kn.feedback_law[..., :0], r"expected \(H, S, A, E\)"),
        ("feedback_law", lambda kn: kn.feedback_law[:0], r"expected \(H, S, A, E\)"),
        ("grid", lambda kn: "grid", "grid must be None or a Grid"),
        ("grid", lambda kn: ((-1.0,), (1.0,), (2,)), "grid must be None or a Grid"),
        ("grid", lambda kn: Grid((-1.0,), (1.0,), (3,)), "grid must be None or a Grid of the 2 states"),
        ("trans_noise_scale", lambda kn: -0.35, "scale"),
        ("trans_noise_scale", lambda kn: math.nan, "scale"),
        ("trans_noise_scale", lambda kn: math.inf, "scale"),
        ("trans_noise_scale", lambda kn: "1.0", "scale"),
        ("trans_noise_scale", lambda kn: True, "scale"),
    ],
)
def test_knowledge_refuses_what_is_not_a_target_law(field, change, match):
    """The learner integrates feedback out under this law as it is, so target
    type rows (2, -1) gave kernel entries down to -0.18 before the check; a
    law row with a negative entry is the same fault, refused the same way."""
    kn = LearnerKnowledge.from_model(tiny_general())
    with pytest.raises(ValidationError, match=match):
        dataclasses.replace(kn, **{field: change(kn)})


@st.composite
def feedback_sizes(draw):
    """(H, S, A, T, E, n, G): T up to 11, E up to 12, n up to 300 and G up
    to 200 (n * G at most 1200), each down to 1."""
    H, S, A = (draw(st.integers(1, 3)) for _ in range(3))
    T, E, n = draw(st.integers(1, 11)), draw(st.integers(1, 12)), draw(st.integers(1, 300))
    return H, S, A, T, E, n, draw(st.integers(1, min(200, 1200 // n)))


def _maybe_strided(rng: np.random.Generator, shape: tuple, strided: bool) -> np.ndarray:
    """Normal draws of the shape, C-ordered or as a view whose last axis is not contiguous."""
    if not strided:
        return rng.standard_normal(shape)
    return np.moveaxis(rng.standard_normal(shape[-1:] + shape[:-1]), 0, -1)


@settings(max_examples=150, deadline=None)
@given(sizes=feedback_sizes(), strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_feedback_functions_equal_every_old_spelling_bitwise(sizes, strided, seed):
    """feedback_mix and integrate_feedback give the bits of every einsum the
    package sites wrote before them, on the same operands, C-ordered or not."""
    H, S, A, T, E, n, G = sizes
    rng = np.random.default_rng(seed)
    dist, fb = rng.standard_normal((H, T)), _maybe_strided(rng, (H, S, A, T, E), strided)
    mix = feedback_mix(dist, fb)
    for subscripts, ref in REF_FEEDBACK_MIXES.items():
        want = ref(dist, fb)
        assert mix.shape == want.shape and mix.tobytes() == want.tobytes(), subscripts
    weights = _maybe_strided(rng, (S, A, E), strided)
    tables = {rank: _maybe_strided(rng, (n, G, S, A, E)[5 - rank :], strided) for rank in (3, 4, 5)}
    for subscripts, (ranks, ref) in REF_FEEDBACK_INTEGRATIONS.items():
        for rank in ranks:
            got, want = integrate_feedback(weights, tables[rank]), ref(weights, tables[rank])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (subscripts, rank)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_env_step_reproducible():
    model = tiny_general(reward_noise=0.3)
    out1 = env_step(model, 0, 0, 1, make_rng(42))
    out2 = env_step(model, 0, 0, 1, make_rng(42))
    assert out1.feedback == out2.feedback
    assert out1.reward == out2.reward
    assert out1.next_state == out2.next_state
    assert out1.hidden == out2.hidden


def test_noise_draw_always_consumed():
    # the observable draws must not shift when the noise level changes
    quiet = tiny_general(reward_noise=0.0)
    loud = tiny_general(reward_noise=0.5)
    rng_q, rng_l = make_rng(5), make_rng(5)
    for h in range(2):
        out_q = env_step(quiet, h, 0, 1, rng_q)
        out_l = env_step(loud, h, 0, 1, rng_l)
        assert out_q.feedback == out_l.feedback
        assert out_q.hidden.agent_type == out_l.hidden.agent_type
        assert out_q.next_state == out_l.next_state


def test_env_step_reward_decomposition():
    model = tiny_general(reward_noise=0.0)
    out = env_step(model, 0, 1, 1, make_rng(9))
    t, e = out.hidden.agent_type, out.feedback
    want = model.principal_reward[0, 1, 1, e] + model.reward_confound[0, t]
    np.testing.assert_allclose(out.reward, want, atol=1e-12)


def test_env_step_agent_best_responds():
    model = tiny_general()
    for seed in range(20):
        out = env_step(model, 0, 0, 1, make_rng(seed))
        t, b = out.hidden.agent_type, out.hidden.agent_action
        assert b == best_response_table(model)[0, 0, 1, t]


def test_env_step_index_checks():
    model = tiny_general()
    with pytest.raises(InvalidIndexError):
        env_step(model, 5, 0, 0, make_rng(0))
    with pytest.raises(InvalidIndexError):
        env_step(model, 0, 0, 7, make_rng(0))
    # an index must be an integer: a float or a bool is refused, not truncated
    for h, state, a in [(0, 0, 1.5), (True, 0, 0), (0, 1.0, 0), (0, 0, np.float64(1.0))]:
        with pytest.raises(InvalidIndexError):
            env_step(model, h, state, a, make_rng(0))
    out = env_step(model, np.int64(1), np.int64(1), np.int64(0), make_rng(0))
    assert out.state == 1 and out.action == 0


def test_rollout_chains_states():
    model = tiny_general()
    traj = rollout(model, Policy.uniform(2, 2, 2), make_rng(1))
    assert len(traj) == 2
    assert traj.steps[0].state == model.initial_state
    assert traj.steps[1].state == traj.steps[0].next_state


def test_rollout_dynamical_states_are_cells():
    model = tiny_dynamical()
    traj = rollout(model, Policy.uniform(2, 4, 2), make_rng(1))
    assert traj.steps[0].state == model.initial_state
    assert traj.steps[1].state == traj.steps[0].next_cell
    assert np.asarray(traj.steps[0].next_state).shape == (1,)


def test_dynamical_noiseless_step_is_exact_mean():
    model = tiny_dynamical(noise_scale=0.0)
    s = model.initial_state
    out = env_step(model, 0, s, 1, make_rng(3))
    t, e = out.hidden.agent_type, out.feedback
    want = model.mean_map[0, s, 1, e] + model.trans_confound[0, t]
    np.testing.assert_allclose(out.next_state, want, atol=1e-12)


def test_env_step_takes_a_cell_in_dynamical_mode():
    """A dynamical state is its grid cell: a vector is refused like any
    other index that is not an integer in range."""
    model = tiny_dynamical()
    for state in (cell_center(model.grid, 1), np.array([0.1]), 1.0, 4, -1):
        with pytest.raises(InvalidIndexError):
            env_step(model, 0, state, 1, make_rng(0))
    assert env_step(model, 0, np.int64(1), 1, make_rng(0)).state == 1


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["general", "dyn-1d", "dyn-2d"]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 4),
    episodes=st.integers(1, 5),
)
def test_cell_rollout_matches_the_vector_state_path(kind, seed, horizon, episodes):
    """Carrying each step's next cell gives the draws, observations and
    dataset sums of the path that carried vectors and located them in
    rollout, env_step and append_trajectory; its states are the cells of
    the old ones, and the generator ends in the same state."""
    if kind == "general":
        model, _ = random_general(seed, horizon, states=3, actions=2, feedbacks=2, candidates=1)
    else:
        grid = Grid((-1.5,), (1.5,), (4,)) if kind == "dyn-1d" else Grid((-2.0, -1.0), (2.0, 3.0), (3, 2))
        model, _ = random_dynamical(seed, grid, horizon, rewards=1, candidates=(1,) * grid.dim)
    S, A = model.num_states, model.num_actions
    policy = Policy(np.random.default_rng(seed).dirichlet(np.ones(A), size=(horizon, S)))
    shape = (horizon, S, A, model.num_feedbacks, model.state_dim)
    new_data, old_data = StepDataset(*shape), StepDataset(*shape)
    new_rng, old_rng = make_rng(seed), make_rng(seed)
    for _ in range(episodes):
        new, old = rollout(model, policy, new_rng), ref_rollout(model, policy, old_rng)
        assert len(new) == len(old) == horizon
        for n, o in zip(new.steps, old.steps):
            assert (n.action, n.feedback, n.reward, n.hidden) == (o.action, o.feedback, o.reward, o.hidden)
            assert np.asarray(n.next_state).tobytes() == np.asarray(o.next_state).tobytes()
            if model.grid is None:
                assert (n.state, n.next_cell) == (o.state, o.next_state)
            else:
                assert n.state == model.grid.locate(o.state)
                assert n.next_cell == model.grid.locate(o.next_state)
        new_data.append_trajectory(new)
        ref_append_trajectory(old_data, model.grid, old)
    assert repr(new_rng.bit_generator.state) == repr(old_rng.bit_generator.state)  # holds arrays
    for n, o in zip(new_data.steps, old_data.steps):
        for field in dataclasses.fields(n):
            got, want = getattr(n, field.name), getattr(o, field.name)
            assert (got is None and want is None) or got.tobytes() == want.tobytes()


def test_sample_step_batch_matches_population_feedback():
    model = tiny_general()
    n = 40000
    batch = sample_step_batch(model, 0, 0, 1, make_rng(8), n)
    # population feedback mix under the source at (h=0, s=0, a=1)
    fb = model.feedback_by_type[0, 0, 1]
    want = model.source_type_dist[0] @ fb
    freqs = np.bincount(batch["feedbacks"], minlength=2) / n
    tol = 4 * np.sqrt(want * (1 - want) / n)
    assert np.all(np.abs(freqs - want) <= tol)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def test_policy_uniform_and_deterministic():
    uni = Policy.uniform(2, 3, 2)
    np.testing.assert_allclose(uni.action_probs, 0.5)
    det = Policy.deterministic(np.array([[0, 1, 0], [1, 1, 0]]), 2)
    assert det.action_probs[0, 1, 1] == 1.0
    assert det.action_probs[0, 1, 0] == 0.0


@pytest.mark.parametrize("h, s", [(-1, 0), (9, 0), (True, 0), (0, 1.5), (0, -1), (0, 3), (0, np.int64(7))])
def test_sample_action_checks_step_and_state(h, s):
    """A negative step used to play the last step's row; a step or state past
    the table, or a float state, raised a bare IndexError."""
    rng = make_rng(0)
    with pytest.raises(InvalidIndexError):
        Policy.uniform(3, 3, 2).sample_action(rng, h, s)
    assert Policy.uniform(3, 3, 2).sample_action(rng, np.int64(2), np.int32(1)) in (0, 1)


@pytest.mark.parametrize("actions", [[[0, 5]], [[-1, 0]], [[0.0, 1.0]], [[True, False]]])
def test_deterministic_policy_checks_its_action_table(actions):
    with pytest.raises(InvalidIndexError, match=r"\[0, 2\)"):
        Policy.deterministic(np.array(actions), 2)
    with pytest.raises(ValidationError, match="shape"):
        Policy.deterministic(np.array([0, 1]), 2)


def test_policy_rejects_bad_rows():
    with pytest.raises(ValidationError):
        Policy(np.full((1, 2, 2), 0.4))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_policy_rejects_non_finite_entries(value):
    with pytest.raises(ValidationError, match="^policy has non-finite entries$"):
        Policy(np.full((2, 2, 2), value))

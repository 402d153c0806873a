"""The numpy normal CDF and the Gaussian cell-mass discretizers, bit for bit
against scipy's ``ndtr``, which is needed only here, as the test oracle."""

from __future__ import annotations

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from strategicmdp import (
    CandidateAggregates,
    Grid,
    HypothesisClasses,
    LearnerKnowledge,
    TransitionMode,
    build_scenario,
    discretize_gaussian,
)
from strategicmdp.model import normal_cdf

from helpers import (
    ref_discretize_gaussian,
    ref_gaussian_mass_1d,
    ref_mixed_kernels,
)

ndtr = pytest.importorskip("scipy.special").ndtr

PINNED = [
    0.0, -0.0,
    math.sqrt(2), -math.sqrt(2),  # |x| = 1: erf / erfc switch
    8 * math.sqrt(2), -8 * math.sqrt(2),  # erfc P/Q to R/S switch
    37.6, -37.6, 37.7, -37.7,  # x * x crosses MAXLOG between these
    math.inf, -math.inf,
]


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pinned_values_match_scipy():
    x = np.array(PINNED)
    assert_bitwise(normal_cdf(x), ndtr(x))
    for v in PINNED:
        for w in (np.nextafter(v, math.inf), np.nextafter(v, -math.inf)):
            assert normal_cdf(np.array([w]))[0] == ndtr(w)


def test_nan_propagates():
    out = normal_cdf(np.array([math.nan, 0.5]))
    assert math.isnan(out[0]) and out[1] == ndtr(0.5)


def test_scalar_and_empty_inputs():
    assert normal_cdf(0.3) == ndtr(0.3)
    assert normal_cdf(np.zeros((0, 3))).shape == (0, 3)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(max_dims=3, max_side=6),
        elements=st.floats(allow_nan=False, width=64),
    )
)
def test_normal_cdf_bitwise_equals_ndtr(x):
    assert_bitwise(normal_cdf(x), ndtr(x))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=64))
def test_normal_cdf_bitwise_in_the_working_range(values):
    x = np.array(values)
    assert_bitwise(normal_cdf(x), ndtr(x))


def test_dense_sweep_matches_ndtr():
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), np.linspace(-1.5, 1.5, 100_001)])
    assert_bitwise(normal_cdf(x), ndtr(x))


# ---------------------------------------------------------------------------
# Discretizers against their scipy references
# ---------------------------------------------------------------------------


def dyn_knowledge(noiseless):
    scenario = build_scenario("dyn-1d", params={"noiseless": noiseless})
    return scenario, LearnerKnowledge.from_model(scenario.model)


@pytest.mark.parametrize("noiseless", [False, True])
def test_mean_masses_match_reference_on_dyn_1d(noiseless):
    scenario, knowledge = dyn_knowledge(noiseless)
    agg = CandidateAggregates.from_classes(scenario.classes, knowledge)
    want = ref_mixed_kernels(scenario.classes, knowledge)
    assert len(agg.transitions) == len(want)
    for got, want_h in zip(agg.transitions, want):
        assert_bitwise(got, want_h)


@pytest.mark.parametrize("noiseless", [False, True])
def test_discretize_gaussian_matches_reference_on_dyn_1d(noiseless):
    scenario, _ = dyn_knowledge(noiseless)
    model = scenario.model
    for h in range(model.horizon):
        means = model.mean_map[h][None, ...] + model.trans_confound[h][:, None, None, None, :]
        want = ref_discretize_gaussian(means, model.grid, model.trans_noise_scale)
        assert_bitwise(discretize_gaussian(means, model.grid, model.trans_noise_scale), want)


@pytest.mark.parametrize("scale", [0.0, 0.35, 1.3])
def test_discretizers_match_reference_on_2d_grid(scale):
    grid = Grid((-2.0, -1.0), (2.0, 3.0), (5, 3))
    rng = np.random.default_rng(4)
    means = rng.uniform(-4.0, 5.0, size=(3, 4, 2))
    assert_bitwise(
        discretize_gaussian(means, grid, scale), ref_discretize_gaussian(means, grid, scale)
    )
    for mean in means.reshape(-1, 2):
        for k in range(2):
            assert_bitwise(
                grid.gaussian_mass_1d(float(mean[k]), scale, k),
                ref_gaussian_mass_1d(grid, float(mean[k]), scale, k),
            )


@pytest.mark.parametrize("scale", [0.0, 0.6])
def test_mean_masses_match_reference_on_2d_grid(scale):
    # Per-step candidate counts differ (2 or 3 per coordinate), so the masses
    # of all steps are evaluated together and split back by step.
    grid = Grid((-2.0, -1.0), (2.0, 3.0), (5, 3))
    H, S, A, E = 2, grid.num_cells, 2, 2
    rng = np.random.default_rng(8)
    knowledge = LearnerKnowledge(rng.dirichlet(np.ones(E), size=(H, S, A)), grid=grid, trans_noise_scale=scale)
    classes = HypothesisClasses(
        mode=TransitionMode.DYNAMICAL,
        bound=1.0,
        reward_tables=[rng.uniform(size=(2, S, A, E)) for _ in range(H)],
        discriminators=[np.zeros((1, S, A))] * H,
        value_targets=[np.zeros((1, S))] * H,
        mean_map_tables=[
            [rng.uniform(-3.0, 4.0, size=(2 + (h + i) % 2, S, A, E)) for i in range(2)]
            for h in range(H)
        ],
    )
    agg = CandidateAggregates.from_classes(classes, knowledge)
    want = ref_mixed_kernels(classes, knowledge)
    for got, want_h in zip(agg.transitions, want, strict=True):
        assert_bitwise(got, want_h)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-6.0, 6.0),
    st.sampled_from([0.0, 1e-3, 0.2, 0.35, 1.0, 4.0]),
)
def test_gaussian_mass_1d_matches_reference(mean, scale):
    grid = Grid((-2.5,), (2.5,), (9,))
    want = ref_gaussian_mass_1d(grid, mean, scale, 0)
    assert_bitwise(grid.gaussian_mass_1d(mean, scale, 0), want)


# ---------------------------------------------------------------------------
# Repeated means: the CDF runs once per distinct mean and rows are gathered back
# ---------------------------------------------------------------------------


GRID_2D = Grid((-2.0, -1.0), (2.0, 3.0), (5, 3))
SCALES = [0.0, 1e-3, 0.35, 1.3]


def ref_masses(grid, means, scale, k):
    """ref_gaussian_mass_1d at every entry of means, stacked to (*means.shape, n)."""
    rows = [ref_gaussian_mass_1d(grid, m, scale, k) for m in means.ravel().tolist()]
    return np.array(rows).reshape(means.shape + (grid.cells_per_dim[k],))


def repeated_means(grid, k):
    """Arrays drawn with repeats from a few means: signed zeros, the cell
    edges, and values in and beyond the box."""
    special = st.sampled_from([0.0, -0.0, *grid.edges(k).tolist()])
    pool = st.lists(st.one_of(special, st.floats(-6.0, 6.0)), min_size=1, max_size=5)
    return pool.flatmap(
        lambda means: hnp.arrays(
            np.intp,
            hnp.array_shapes(max_dims=3, max_side=5),
            elements=st.integers(0, len(means) - 1),
        ).map(lambda picks: np.array(means)[picks])
    )


def test_gaussian_mass_1d_on_signed_zeros_and_edges_matches_reference():
    grid = Grid((-2.5,), (2.5,), (10,))  # 0.0 is a cell edge
    edges = grid.edges(0)
    means = np.array([[0.0, -0.0, edges[3], 0.7], [edges[3], -0.0, 0.7, 0.0], [edges[7], 0.7, -3.1, edges[7]]])
    for scale in SCALES:
        assert_bitwise(grid.gaussian_mass_1d(means, scale, 0), ref_masses(grid, means, scale, 0))


@pytest.mark.parametrize("scale", SCALES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gaussian_mass_1d_on_repeated_means_matches_reference(scale, data):
    grid = Grid((-2.5,), (2.5,), (9,))
    means = data.draw(repeated_means(grid, 0))
    assert_bitwise(grid.gaussian_mass_1d(means, scale, 0), ref_masses(grid, means, scale, 0))


@pytest.mark.parametrize("scale", SCALES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_discretize_gaussian_on_repeated_means_matches_reference(scale, data):
    x, y = (data.draw(repeated_means(GRID_2D, k)).ravel() for k in range(2))
    n = min(len(x), len(y))
    means = np.stack([x[:n], y[:n]], axis=-1)
    mx, my = (ref_masses(GRID_2D, means[:, k], scale, k) for k in range(2))
    want = (mx[:, :, None] * my[:, None, :]).reshape(n, GRID_2D.num_cells)
    assert_bitwise(discretize_gaussian(means, GRID_2D, scale), want)

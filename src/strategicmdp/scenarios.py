"""Built-in benchmark environments with matched hypothesis classes.

Each generator returns a fully validated simulator and its candidate tables,
with the truth as candidate 0 of every family. Generators are deterministic
functions of their seed and keyword parameters; tables are written out
explicitly so runs are reproducible across platforms. build_scenario is the
one place that turns a generator into a Scenario: it echoes the parameters
and closes the classes once, under the given class caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hypotheses import ClassCaps, HypothesisClasses, close_classes
from .model import Grid, LearnerKnowledge, StrategicModel, TransitionMode, make_rng

# A generator's model, its per-step reward candidate stacks, and its per-step
# transition candidates (see _assemble).
Tables = tuple[StrategicModel, list[np.ndarray], list]


@dataclass
class Scenario:
    name: str
    model: StrategicModel
    classes: HypothesisClasses
    params: dict = field(default_factory=dict)

    def knowledge(self) -> LearnerKnowledge:
        return LearnerKnowledge.from_model(self.model)


def _tile(table: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat a per-step table across the horizon axis."""
    return np.broadcast_to(table, (horizon,) + table.shape).copy()


def _uniform_tilt(kernel: np.ndarray, weight: float) -> np.ndarray:
    """Mix a transition kernel with the uniform kernel; stays a kernel."""
    S = kernel.shape[-1]
    return (1.0 - weight) * kernel + weight / S


def _assemble(
    model: StrategicModel, rewards: list[np.ndarray], transitions: list, caps: ClassCaps
) -> HypothesisClasses:
    """Close candidate classes whose first candidate in every family is the truth.

    transitions[h] is step h's kernel stack in general mode and its list of
    per-coordinate mean-map stacks in dynamical mode. The discriminator and
    value-target families start empty; close_classes fills them under caps.
    """
    H, S, A = model.horizon, model.num_states, model.num_actions
    general = model.transition_mode is TransitionMode.GENERAL
    classes = HypothesisClasses(
        mode=model.transition_mode,
        bound=1.0,
        reward_tables=rewards,
        discriminators=[np.zeros((0, S, A))] * H,
        value_targets=[np.zeros((0, S))] * H,
        transition_tables=transitions if general else None,
        mean_map_tables=None if general else transitions,
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H if general else [[0] * len(per) for per in transitions],
        caps=caps,
    )
    return close_classes(model, classes, LearnerKnowledge.from_model(model))


# ---------------------------------------------------------------------------
# recsys-small
# ---------------------------------------------------------------------------


def recsys_small(
    seed: int = 0,
    *,
    bogus_boost: float = 0.33,
    small_offset: float = 0.05,
    confound: float = 0.3,
    reward_noise: float = 0.25,
    bias_probe: bool = False,
    probe_offset: float = 0.35,
) -> Tables:
    """Three-step recommendation loop with a compliant and a contrarian type.

    The default reward class contains one candidate that inflates the second
    action at the first step by bogus_boost, which exceeds the true value gap;
    optimism therefore plays the inferior action until the candidate is
    eliminated, producing a knee in the regret curve. The transition class
    carries a mild tilt toward uniform that is too small to eliminate quickly.

    With bias_probe the feedback becomes deterministic in the type, making the
    naive per-cell reward regression biased by exactly the confound, while an
    additive probe_offset candidate remains eliminable from aggregates.
    """
    H, S, A, E, T, B = 3, 3, 2, 3, 2, 3
    source = _tile(np.array([0.5, 0.5]), H)
    target = _tile(np.array([0.35, 0.65]), H)

    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0  # compliant type matches the shown action
    agent[:, :, :, 1, 2] = 1.0  # contrarian type always picks the outside option

    by_type_action = np.zeros((T, B, E))
    by_type_action[0] = [[0.80, 0.15, 0.05], [0.70, 0.20, 0.10], [0.60, 0.25, 0.15]]
    by_type_action[1] = [[0.20, 0.30, 0.50], [0.15, 0.25, 0.60], [0.10, 0.20, 0.70]]
    if bias_probe:
        by_type_action = np.zeros((T, B, E))
        by_type_action[0, :, 0] = 1.0
        by_type_action[1, :, 1] = 1.0
    feedback = np.broadcast_to(
        by_type_action[None, None, None], (H, S, A, T, B, E)
    ).copy()

    reward = np.zeros((H, S, A, E))
    s_idx = np.arange(S)[:, None, None]
    a_idx = np.arange(A)[None, :, None]
    e_idx = np.arange(E)[None, None, :]
    reward[0] = np.where(a_idx == 0, 0.55, 0.30) + 0.05 * (e_idx == 0)
    reward[1] = 0.18 + 0.03 * s_idx + 0.04 * (e_idx == 0) + 0.02 * (a_idx == 1)
    reward[2] = 0.22 + 0.04 * s_idx + 0.05 * (e_idx == 0) - 0.02 * (a_idx == 1)

    rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])  # by feedback
    kernel = np.broadcast_to(rows[None, None, None, :, :], (H, S, A, E, S)).copy()

    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=source,
        target_type_dist=target,
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=_tile(np.array([confound, -confound]), H),
        reward_noise_std=reward_noise,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=kernel,
    )

    boost = np.zeros((S, A, E))
    if bias_probe:
        r0 = np.stack([reward[0], reward[0] + probe_offset])
    else:
        boost[:, 1, :] = bogus_boost
        r0 = np.stack([reward[0], reward[0] + boost])
    rewards = [
        r0,
        np.stack([reward[1], reward[1] + small_offset]),
        np.stack([reward[2], reward[2] - small_offset]),
    ]
    if bias_probe:
        transitions = [kernel[h][None] for h in range(H)]
    else:
        transitions = [
            np.stack([kernel[0], _uniform_tilt(kernel[0], 0.10)]),
            np.stack([kernel[1], _uniform_tilt(kernel[1], 0.10)]),
            kernel[2][None],
        ]
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# contract-small
# ---------------------------------------------------------------------------


def contract_small(seed: int = 0, *, reward_noise: float = 0.2) -> Tables:
    """Two-state contracting problem; source equals target, defiant second type."""
    H, S, A, E, T, B = 3, 2, 2, 2, 2, 2
    dist = _tile(np.array([0.6, 0.4]), H)

    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0
        agent[:, :, a, 1, 1 - a] = 1.0

    by_b = np.array([[0.9, 0.1], [0.2, 0.8]])  # feedback dist per agent action
    feedback = np.broadcast_to(
        by_b[None, None, None, None, :, :], (H, S, A, T, B, E)
    ).copy()

    s_idx = np.arange(S)[:, None, None]
    a_idx = np.arange(A)[None, :, None]
    e_idx = np.arange(E)[None, None, :]
    reward = _tile(
        0.3 + 0.25 * (s_idx == 1) + 0.15 * (e_idx == 0) + 0.05 * (a_idx == 1), H
    )

    p_hi = 0.25 + 0.3 * (e_idx == 0) + 0.1 * (a_idx == 1)  # (S, A, E) chance of state 1
    kernel = np.zeros((H, S, A, E, S))
    kernel[..., 1] = p_hi[None]
    kernel[..., 0] = 1.0 - p_hi[None]

    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=dist,
        target_type_dist=dist.copy(),
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=_tile(np.array([0.2, -0.2]), H),
        reward_noise_std=reward_noise,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=kernel,
    )

    bump = 0.15 * (np.arange(E)[None, None, :] == 0) * np.ones((S, A, 1))
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    transitions = [
        np.stack([kernel[h], _uniform_tilt(kernel[h], 0.15)]) for h in range(H)
    ]
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# shifted-target
# ---------------------------------------------------------------------------


def shifted_target(seed: int = 0) -> Tables:
    """Type-separating feedback with a 0.2 source mass moved to full target mass.

    Transitions are feedback- and action-independent, so occupancies agree
    across populations and the worst-case target-to-source MSE ratio is
    exactly the inverse source mass of the first type, 5.
    """
    H, S, A, E, T, B = 2, 2, 2, 2, 2, 1
    source = _tile(np.array([0.2, 0.8]), H)
    target = _tile(np.array([1.0, 0.0]), H)

    agent = np.zeros((H, S, A, T, B))
    agent[..., 0] = 1.0

    feedback = np.zeros((H, S, A, T, B, E))
    feedback[:, :, :, 0, :, 0] = 1.0
    feedback[:, :, :, 1, :, 1] = 1.0

    reward = np.full((H, S, A, E), 0.3)
    kernel = np.full((H, S, A, E, S), 0.5)

    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=source,
        target_type_dist=target,
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=np.zeros((H, T)),
        reward_noise_std=0.1,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=kernel,
    )

    bump = np.zeros((S, A, E))
    bump[..., 0] = 0.4
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    transitions = [kernel[h][None] for h in range(H)]
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# degenerate-feedback
# ---------------------------------------------------------------------------


def degenerate_feedback(seed: int = 0) -> Tables:
    """Single type, feedback a deterministic function of state and action.

    Conditioning on (state, action) already determines the feedback, so
    projecting residuals onto (state, action) loses nothing and the
    ill-posedness ratio is exactly 1.
    """
    H, S, A, E, T, B = 2, 2, 2, 3, 1, 2
    dist = np.ones((H, T))

    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0

    feedback = np.zeros((H, S, A, T, B, E))
    for s in range(S):
        for a in range(A):
            feedback[:, s, a, 0, :, (s + a) % E] = 1.0

    s_idx = np.arange(S)[:, None, None]
    e_idx = np.arange(E)[None, None, :]
    reward = _tile(0.2 + 0.2 * (e_idx == 0) + 0.1 * (s_idx == 1) * np.ones((1, A, 1)), H)

    p_hi = 0.3 + 0.2 * (e_idx == 0) * np.ones((S, A, 1))
    kernel = np.zeros((H, S, A, E, S))
    kernel[..., 1] = p_hi[None]
    kernel[..., 0] = 1.0 - p_hi[None]

    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=dist,
        target_type_dist=dist.copy(),
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=np.zeros((H, T)),
        reward_noise_std=0.15,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=kernel,
    )

    bump = np.zeros((S, A, E))
    bump[..., 0] = 0.2
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    transitions = [
        np.stack([kernel[h], _uniform_tilt(kernel[h], 0.2)]) for h in range(H)
    ]
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# linear-d
# ---------------------------------------------------------------------------


def linear_d(seed: int = 0, *, feature_dim: int = 4, num_candidates: int = 3) -> Tables:
    """Random feature embedding with linear rewards and softmax transitions.

    Candidate tables come from perturbed parameter vectors; the truth is the
    unperturbed one. All randomness is driven by the generator seed.
    """
    if num_candidates < 1:
        raise ConfigError("num_candidates must be at least 1")
    H, S, A, E, T, B = 2, 4, 2, 2, 2, 2
    rng = make_rng(seed * 2 + 1)

    def unit(shape: tuple) -> np.ndarray:
        v = rng.normal(size=shape)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    phi = unit((H, S, A, E, feature_dim))
    psi = unit((H, S, A, E, S, feature_dim))

    theta = unit((H, feature_dim))
    reward = 0.5 + 0.35 * np.einsum("hsaed,hd->hsae", phi, theta)

    w = unit((H, feature_dim))
    logits = np.einsum("hsaexd,hd->hsaex", psi, w)
    kernel = np.exp(logits)
    kernel /= kernel.sum(axis=-1, keepdims=True)

    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0
        agent[:, :, a, 1, 1 - a] = 1.0
    by_b = np.array([[[0.75, 0.25], [0.45, 0.55]], [[0.35, 0.65], [0.60, 0.40]]])
    feedback = np.broadcast_to(
        by_b[None, None, None, :, :, :], (H, S, A, T, B, E)
    ).copy()

    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=_tile(np.array([0.45, 0.55]), H),
        target_type_dist=_tile(np.array([0.7, 0.3]), H),
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=_tile(np.array([0.15, -0.15]), H),
        reward_noise_std=0.2,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=kernel,
    )

    rewards, transitions = [], []
    for h in range(H):
        r_cands = [reward[h]]
        p_cands = [kernel[h]]
        for _ in range(num_candidates - 1):
            th = theta[h] + 0.5 * rng.normal(size=feature_dim)
            th /= np.linalg.norm(th)
            r_cands.append(0.5 + 0.35 * np.einsum("saed,d->sae", phi[h], th))
            ww = w[h] + 0.4 * rng.normal(size=feature_dim)
            lg = np.einsum("saexd,d->saex", psi[h], ww)
            pk = np.exp(lg)
            p_cands.append(pk / pk.sum(axis=-1, keepdims=True))
        rewards.append(np.stack(r_cands))
        transitions.append(np.stack(p_cands))
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# dyn-1d
# ---------------------------------------------------------------------------


def dyn_1d(seed: int = 0, *, noiseless: bool = False) -> Tables:
    """One-dimensional drift dynamics on a nine-cell grid.

    The mean map contracts toward the origin with an action-dependent drift
    and a feedback-dependent pull. With noiseless=True every noise source and
    both confounds vanish, so dataset moments are exact functions of counts.
    """
    H, A, E, T, B = 3, 2, 2, 2, 2
    grid = Grid(lows=(-2.5,), highs=(2.5,), cells_per_dim=(9,))
    S = grid.num_cells
    centers = np.array([grid.center(c)[0] for c in range(S)])

    agent = np.zeros((H, S, A, T, B))
    for a in range(A):
        agent[:, :, a, 0, a] = 1.0
        agent[:, :, a, 1, 1 - a] = 1.0
    by_b = np.array([[[0.80, 0.20], [0.30, 0.70]], [[0.40, 0.60], [0.65, 0.35]]])
    feedback = np.broadcast_to(
        by_b[None, None, None, :, :, :], (H, S, A, T, B, E)
    ).copy()

    drift = np.array([-0.45, 0.45])
    pull = np.array([0.3, -0.3])
    mean = (
        0.85 * centers[:, None, None] + drift[None, :, None] + pull[None, None, :]
    )
    mean = np.clip(mean, -2.3, 2.3)
    mean_map = _tile(mean[..., None], H)  # (H, S, A, E, 1)

    reward = _tile(
        0.15
        + 0.6 * np.exp(-0.5 * centers[:, None, None] ** 2) * np.where(np.arange(A)[None, :, None] == 0, 1.0, 0.9)
        + 0.05 * (np.arange(E)[None, None, :] == 0),
        H,
    )

    confound = 0.0 if noiseless else 0.2
    trans_conf = 0.0 if noiseless else 0.25
    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=4,
        source_type_dist=_tile(np.array([0.5, 0.5]), H),
        target_type_dist=_tile(np.array([0.3, 0.7]), H),
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=_tile(np.array([confound, -confound]), H),
        reward_noise_std=0.0 if noiseless else 0.2,
        reward_bound=1.0,
        transition_mode=TransitionMode.DYNAMICAL,
        state_dim=1,
        grid=grid,
        mean_map=mean_map,
        trans_confound=_tile(np.array([[trans_conf], [-trans_conf]]), H),
        trans_noise_scale=0.0 if noiseless else 0.35,
    )

    bump = np.zeros((S, A, E))
    bump[..., 0] = 0.1
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    shift = np.zeros((S, A, E))
    shift[:, 1, :] = 0.3
    mean_maps = [
        [np.stack([mean_map[h, ..., 0], mean_map[h, ..., 0] + shift])] for h in range(H)
    ]
    return model, rewards, mean_maps


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

GENERATORS = {
    "recsys-small": recsys_small,
    "contract-small": contract_small,
    "shifted-target": shifted_target,
    "linear-d": linear_d,
    "dyn-1d": dyn_1d,
    "degenerate-feedback": degenerate_feedback,
}


def build_scenario(
    name: str, seed: int = 0, params: dict | None = None, caps: ClassCaps = ClassCaps()
) -> Scenario:
    """Build the named generator's scenario and close its classes under caps.

    Scenario.params echoes the seed and every keyword option, defaults
    filled in; every generator takes its seed and then keyword-only options.
    """
    if name not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise ConfigError(f"unknown scenario {name!r}; known scenarios: {known}")
    generator = GENERATORS[name]
    params = params or {}
    try:
        model, rewards, transitions = generator(seed, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for scenario {name!r}: {exc}") from None
    echo = {"seed": seed, **(generator.__kwdefaults__ or {}), **params}
    return Scenario(name, model, _assemble(model, rewards, transitions, caps), echo)

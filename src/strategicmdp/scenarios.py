"""Built-in benchmark environments with matched hypothesis classes.

Each generator returns a fully validated simulator and its candidate tables,
with the truth as candidate 0 of every family. A generator states only its
tables: _model reads the sizes off the feedback kernel and the mode off the
transition tables, _best_responses writes the agent table from each type's
responses, and _tile repeats a table across leading axes. Generators are
deterministic functions of their seed and keyword parameters, so runs are
reproducible across platforms. build_scenario is the one place that turns a
generator into a Scenario: it echoes the parameters and closes the classes
once, under the given class caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hypotheses import ClassCaps, HypothesisClasses, close_classes
from .model import (
    COUNT, SEED, Grid, LearnerKnowledge, StrategicModel, TransitionMode, _is_finite_real, _is_int, _shown,
    make_rng,
)

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


def _tile(table: np.ndarray, *lead: int) -> np.ndarray:
    """A C-contiguous copy of table repeated across new leading axes of sizes lead."""
    out = np.empty(lead + table.shape, dtype=table.dtype)
    out[...] = table
    return out


def _best_responses(best: list[list[int]], H: int, S: int, B: int) -> np.ndarray:
    """0/1 agent reward table (H, S, A, T, B) in which type t answers the
    principal's action a with agent action best[t][a], at every step and state."""
    by_type = np.eye(B)[np.asarray(best)]  # (T, A, B)
    return _tile(by_type.transpose(1, 0, 2), H, S)


def _model(
    feedback: np.ndarray,
    *,
    agent: np.ndarray,
    reward: np.ndarray,
    source: np.ndarray,
    target: np.ndarray,
    confound: np.ndarray,
    noise: float,
    initial_state: int = 0,
    **transitions,
) -> StrategicModel:
    """A scenario's model, sized by its (H, S, A, T, B, E) feedback kernel.

    Rewards lie in [0, 1]. The transition tables given set the mode: a
    transition_kernel makes it general; a grid with its mean_map,
    trans_confound and trans_noise_scale makes it dynamical.
    """
    H, S, A, T, B, E = feedback.shape
    general = "transition_kernel" in transitions
    return StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=initial_state,
        source_type_dist=source,
        target_type_dist=target,
        agent_reward=agent,
        feedback_kernel=feedback,
        principal_reward=reward,
        reward_confound=confound,
        reward_noise_std=noise,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL if general else TransitionMode.DYNAMICAL,
        **transitions,
    )


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
    if bias_probe:  # the feedback symbol is the type
        by_type_action = np.broadcast_to(np.eye(E)[:T, None], (T, B, E))
    else:
        by_type_action = np.array([
            [[0.80, 0.15, 0.05], [0.70, 0.20, 0.10], [0.60, 0.25, 0.15]],
            [[0.20, 0.30, 0.50], [0.15, 0.25, 0.60], [0.10, 0.20, 0.70]],
        ])

    reward = np.zeros((H, S, A, E))
    s_idx, a_idx, e_idx = np.ogrid[:S, :A, :E]
    reward[0] = np.where(a_idx == 0, 0.55, 0.30) + 0.05 * (e_idx == 0)
    reward[1] = 0.18 + 0.03 * s_idx + 0.04 * (e_idx == 0) + 0.02 * (a_idx == 1)
    reward[2] = 0.22 + 0.04 * s_idx + 0.05 * (e_idx == 0) - 0.02 * (a_idx == 1)

    rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])  # by feedback
    kernel = _tile(rows, H, S, A)

    model = _model(
        _tile(by_type_action, H, S, A),
        # the compliant type matches the shown action; the contrarian takes the outside option
        agent=_best_responses([[0, 1], [2, 2]], H, S, B),
        reward=reward,
        source=_tile(np.array([0.5, 0.5]), H),
        target=_tile(np.array([0.35, 0.65]), H),
        confound=_tile(np.array([confound, -confound]), H),
        noise=reward_noise,
        transition_kernel=kernel,
    )

    if bias_probe:
        r0 = np.stack([reward[0], reward[0] + probe_offset])
        transitions = [kernel[h][None] for h in range(H)]
    else:
        boost = np.zeros((S, A, E))
        boost[:, 1, :] = bogus_boost
        r0 = np.stack([reward[0], reward[0] + boost])
        tilted = [np.stack([kernel[h], _uniform_tilt(kernel[h], 0.10)]) for h in range(H - 1)]
        transitions = tilted + [kernel[H - 1][None]]
    rewards = [
        r0,
        np.stack([reward[1], reward[1] + small_offset]),
        np.stack([reward[2], reward[2] - small_offset]),
    ]
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# contract-small
# ---------------------------------------------------------------------------


def contract_small(seed: int = 0, *, reward_noise: float = 0.2) -> Tables:
    """Two-state contracting problem; source equals target, defiant second type."""
    H, S, A, E, T, B = 3, 2, 2, 2, 2, 2
    dist = _tile(np.array([0.6, 0.4]), H)

    s_idx, a_idx, e_idx = np.ogrid[:S, :A, :E]
    reward = _tile(0.3 + 0.25 * (s_idx == 1) + 0.15 * (e_idx == 0) + 0.05 * (a_idx == 1), H)
    p_hi = 0.25 + 0.3 * (e_idx == 0) + 0.1 * (a_idx == 1) * np.ones((S, 1, 1))  # chance of state 1
    kernel = _tile(np.stack([1.0 - p_hi, p_hi], axis=-1), H)

    model = _model(
        _tile(np.array([[0.9, 0.1], [0.2, 0.8]]), H, S, A, T),  # feedback by agent action
        agent=_best_responses([[0, 1], [1, 0]], H, S, B),
        reward=reward,
        source=dist,
        target=dist.copy(),
        confound=_tile(np.array([0.2, -0.2]), H),
        noise=reward_noise,
        transition_kernel=kernel,
    )

    bump = 0.15 * (np.arange(E) == 0)
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    transitions = [np.stack([kernel[h], _uniform_tilt(kernel[h], 0.15)]) for h in range(H)]
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
    reward = np.full((H, S, A, E), 0.3)
    kernel = np.full((H, S, A, E, S), 0.5)

    model = _model(
        _tile(np.eye(E)[:, None], H, S, A),  # the feedback symbol is the type
        agent=_best_responses([[0, 0], [0, 0]], H, S, B),
        reward=reward,
        source=_tile(np.array([0.2, 0.8]), H),
        target=_tile(np.array([1.0, 0.0]), H),
        confound=np.zeros((H, T)),
        noise=0.1,
        transition_kernel=kernel,
    )

    bump = 0.4 * (np.arange(E) == 0)
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
    symbol = np.eye(E)[(np.arange(S)[:, None] + np.arange(A)) % E]  # (S, A, E)

    s_idx, _, e_idx = np.ogrid[:S, :A, :E]
    reward = _tile(0.2 + 0.2 * (e_idx == 0) + 0.1 * (s_idx == 1) * np.ones((1, A, 1)), H)
    p_hi = 0.3 + 0.2 * (e_idx == 0) * np.ones((S, A, 1))  # chance of state 1
    kernel = _tile(np.stack([1.0 - p_hi, p_hi], axis=-1), H)

    model = _model(
        _tile(np.broadcast_to(symbol[:, :, None, None], (S, A, T, B, E)), H),
        agent=_best_responses([[0, 1]], H, S, B),
        reward=reward,
        source=dist,
        target=dist.copy(),
        confound=np.zeros((H, T)),
        noise=0.15,
        transition_kernel=kernel,
    )

    bump = 0.2 * (np.arange(E) == 0)
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    transitions = [np.stack([kernel[h], _uniform_tilt(kernel[h], 0.2)]) for h in range(H)]
    return model, rewards, transitions


# ---------------------------------------------------------------------------
# linear-d
# ---------------------------------------------------------------------------


def linear_d(seed: int = 0, *, feature_dim: int = 4, num_candidates: int = 3) -> Tables:
    """Random feature embedding with linear rewards and softmax transitions.

    Candidate tables come from perturbed parameter vectors; the truth is the
    unperturbed one. All randomness is driven by the generator seed.
    """
    COUNT.check(feature_dim, "feature_dim", ConfigError)
    COUNT.check(num_candidates, "num_candidates", ConfigError)
    H, S, A, E, B = 2, 4, 2, 2, 2
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

    by_b = np.array([[[0.75, 0.25], [0.45, 0.55]], [[0.35, 0.65], [0.60, 0.40]]])
    model = _model(
        _tile(by_b, H, S, A),
        agent=_best_responses([[0, 1], [1, 0]], H, S, B),
        reward=reward,
        source=_tile(np.array([0.45, 0.55]), H),
        target=_tile(np.array([0.7, 0.3]), H),
        confound=_tile(np.array([0.15, -0.15]), H),
        noise=0.2,
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
    H, A, E, B = 3, 2, 2, 2
    grid = Grid(lows=(-2.5,), highs=(2.5,), cells_per_dim=(9,))
    S = grid.num_cells
    centers = grid.lows[0] + (np.arange(S) + 0.5) * grid.widths()[0]

    drift = np.array([-0.45, 0.45])
    pull = np.array([0.3, -0.3])
    mean = np.clip(0.85 * centers[:, None, None] + drift[:, None] + pull, -2.3, 2.3)

    _, a_idx, e_idx = np.ogrid[:S, :A, :E]
    reward = _tile(
        0.15
        + 0.6 * np.exp(-0.5 * centers[:, None, None] ** 2) * np.where(a_idx == 0, 1.0, 0.9)
        + 0.05 * (e_idx == 0),
        H,
    )

    by_b = np.array([[[0.80, 0.20], [0.30, 0.70]], [[0.40, 0.60], [0.65, 0.35]]])
    confound = 0.0 if noiseless else 0.2
    trans_conf = 0.0 if noiseless else 0.25
    model = _model(
        _tile(by_b, H, S, A),
        agent=_best_responses([[0, 1], [1, 0]], H, S, B),
        reward=reward,
        source=_tile(np.array([0.5, 0.5]), H),
        target=_tile(np.array([0.3, 0.7]), H),
        confound=_tile(np.array([confound, -confound]), H),
        noise=0.0 if noiseless else 0.2,
        initial_state=4,
        grid=grid,
        mean_map=_tile(mean[..., None], H),  # (H, S, A, E, 1)
        trans_confound=_tile(np.array([[trans_conf], [-trans_conf]]), H),
        trans_noise_scale=0.0 if noiseless else 0.35,
    )

    bump = 0.1 * (np.arange(E) == 0)
    rewards = [np.stack([reward[h], reward[h] + bump]) for h in range(H)]
    shift = 0.3 * (np.arange(A) == 1)[:, None]
    mean_maps = [[np.stack([mean, mean + shift])] for _ in range(H)]
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


def _option_accepts(default: bool | int | float, value: object) -> bool:
    """A bool option takes a bool, an int option an int, a float option a
    float or a real that is a finite float; only a bool option takes a bool."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, int):
        return _is_int(value)
    return isinstance(value, float) or _is_finite_real(value)


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
    SEED.check(seed, "scenario seed", ConfigError)
    generator = GENERATORS[name]
    params = params or {}
    defaults = generator.__kwdefaults__ or {}
    for key, value in params.items():
        if key in defaults and not _option_accepts(defaults[key], value):
            kind = type(defaults[key]).__name__
            raise ConfigError(f"scenario {name!r} option {key!r} takes a {kind}, got {_shown(value)}")
    try:
        if "num_candidates" in defaults and "num_candidates" in params:
            # every family gets that many candidates, so closing would refuse
            # the first one, step 0's rewards; refuse it before any table is built
            caps.check_per_step(params["num_candidates"], "reward", "step 0")
        model, rewards, transitions = generator(seed, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for scenario {name!r}: {exc}") from None
    except ValueError as exc:  # numpy or int-to-str refusing a value; no package error is one
        options = sorted(params)
        raise ConfigError(f"scenario {name!r} cannot be built with options {options}: {exc}") from None
    echo = {"seed": int(seed), **defaults, **params}  # a numpy seed echoes as JSON's int
    return Scenario(name, model, _assemble(model, rewards, transitions, caps), echo)

"""Seeded general-mode instance for the ``deep-general`` workload.

The library ships no scenario above H = 3, so the benchmark builds one from
the public constructors: a random ``StrategicModel`` whose tables come from
the workload seed, and candidate classes whose first entry at every step is
the truth and whose other entries are random perturbations of it. The
classes are closed with ``close_classes``, so the closed value-target and
discriminator families grow like (|R| * |P|) ** H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from strategicmdp import (
    HypothesisClasses,
    LearnerKnowledge,
    StrategicModel,
    TransitionMode,
    hypotheses,
)


# Principal actions, feedbacks, agent types and agent actions. The closed
# families grow with the horizon and the candidates, so only those vary.
A, E, T, B = 2, 2, 2, 2


@dataclass(frozen=True)
class DeepGeneralSize:
    horizon: int = 5
    states: int = 4
    candidates: int = 2


def _kernels(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random distributions over the last axis, bounded away from zero."""
    raw = rng.uniform(0.2, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def build_deep_general(
    seed: int, size: DeepGeneralSize = DeepGeneralSize()
) -> tuple[StrategicModel, HypothesisClasses]:
    """Random model and closed classes; the truth is candidate 0 at every step."""
    rng = np.random.default_rng(seed)
    H, S = size.horizon, size.states
    model = StrategicModel(
        horizon=H,
        num_states=S,
        num_actions=A,
        num_feedbacks=E,
        num_types=T,
        num_agent_actions=B,
        initial_state=0,
        source_type_dist=_kernels(rng, (H, T)),
        target_type_dist=_kernels(rng, (H, T)),
        agent_reward=rng.uniform(0.0, 1.0, size=(H, S, A, T, B)),
        feedback_kernel=_kernels(rng, (H, S, A, T, B, E)),
        principal_reward=rng.uniform(0.1, 0.9, size=(H, S, A, E)),
        reward_confound=rng.uniform(-0.2, 0.2, size=(H, T)),
        reward_noise_std=0.2,
        reward_bound=1.0,
        transition_mode=TransitionMode.GENERAL,
        transition_kernel=_kernels(rng, (H, S, A, E, S)),
    )
    rewards, transitions = [], []
    for h in range(H):
        r_true = model.principal_reward[h]
        p_true = model.transition_kernel[h]
        r_cands, p_cands = [r_true], [p_true]
        for _ in range(size.candidates - 1):
            shift = rng.uniform(-0.1, 0.1, size=r_true.shape)
            r_cands.append(np.clip(r_true + shift, 0.0, 1.0))
            weight = rng.uniform(0.1, 0.3)
            p_cands.append((1.0 - weight) * p_true + weight * _kernels(rng, p_true.shape))
        rewards.append(np.stack(r_cands))
        transitions.append(np.stack(p_cands))
    classes = HypothesisClasses(
        mode=TransitionMode.GENERAL,
        bound=1.0,
        reward_tables=rewards,
        discriminators=[np.zeros((0, S, A))] * H,
        value_targets=[np.zeros((0, S))] * H,
        transition_tables=transitions,
        truth_reward_idx=[0] * H,
        truth_transition_idx=[0] * H,
    )
    # Looked up on the module so a traced run sees the closure as a span.
    return model, hypotheses.close_classes(model, classes, LearnerKnowledge.from_model(model))

"""Finite candidate classes for rewards, transitions, and their discriminators.

A candidate reward maps (state, action, feedback) to a bounded value; a
candidate transition is a feedback-indexed kernel (general mode) or a per-
coordinate mean map on grid cells (dynamical mode). Estimation additionally
needs two discriminator families: state-action test functions used inside the
minimax losses, and state value functions used as regression targets for
transitions.

close_classes makes the families rich enough for the losses to be
well-calibrated. It adds the optimal value tables of every joint candidate
model aggregated under the target to the value targets, then, for every
candidate residual against the truth, its conditional expectation given
(state, action) under the source population to the discriminators. Both
closures only append (never remove), deduplicate bit-exactly, and are
idempotent; the joint cap bounds the value closure's enumeration. The
realizability check verifies truth membership and both closure properties by
exact table equality through the same code paths.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError
from .model import LearnerKnowledge, StrategicModel, TransitionMode, _is_int, feedback_by_type
from .planning import CandidateAggregates, joint_backup

DEFAULT_PER_STEP_CAP = 8
DEFAULT_JOINT_CAP = 1_000_000


@dataclass(frozen=True)
class ClassCaps:
    per_step: int = DEFAULT_PER_STEP_CAP
    joint: int = DEFAULT_JOINT_CAP


@dataclass(frozen=True)
class ClassSizes:
    """Total (summed over steps, and coordinates where relevant) class sizes."""

    rewards: int
    transitions: int
    discriminators: int
    value_targets: int


@dataclass(frozen=True)
class KernelIndex:
    """Mixed-radix numbering of one step's transition models.

    A model takes one candidate per family: the kernels in general mode (so a
    kernel index is the candidate index), one mean map per state coordinate
    in dynamical mode. radices[i] counts family i's candidates; family 0
    varies slowest, the order CandidateAggregates lays kernels out in.
    """

    radices: tuple[int, ...]

    def encode(self, per_family) -> tuple[int, ...]:
        """Ascending kernel indices of the models drawn from ascending per-family lists."""
        kernels = per_family[0]
        for n, candidates in zip(self.radices[1:], per_family[1:]):
            kernels = [k * n + c for k in kernels for c in candidates]
        return tuple(kernels)

    @cached_property
    def models(self) -> list[tuple[int, ...]]:
        """The candidate of each family, listed by kernel index: the decoding table."""
        return list(itertools.product(*map(range, self.radices)))

    def decode(self, kernels) -> tuple[tuple[int, ...], ...]:
        """Ascending per-family candidate lists of the models among kernels; inverts encode."""
        return tuple(tuple(sorted(set(c))) for c in zip(*(self.models[k] for k in kernels)))


def _check_truth_index(idx, count: int, kind: str, where: str) -> None:
    """A designated truth index is None or an integer naming one of count candidates."""
    if idx is None:
        return
    if not _is_int(idx) or not 0 <= idx < count:
        raise ValidationError(
            f"truth {kind} index {idx!r} at {where} is not one of the {count} candidates"
        )


@dataclass
class HypothesisClasses:
    """Per-step candidate and discriminator families.

    reward_tables[h] is (nR_h, S, A, E). In general mode transition_tables[h]
    is (nP_h, S, A, E, S); in dynamical mode mean_map_tables[h][i] is
    (n_hi, S, A, E) for each state coordinate i. discriminators[h] is
    (nF_h, S, A) and always contains the zero function. value_targets has
    H + 1 entries of shape (nG_h, S); the terminal entry is the zero function
    alone. truth_*_idx record where the true tables sit when known; None means
    not designated.
    """

    mode: TransitionMode
    bound: float
    reward_tables: list[np.ndarray]
    discriminators: list[np.ndarray]
    value_targets: list[np.ndarray]
    transition_tables: list[np.ndarray] | None = None
    mean_map_tables: list[list[np.ndarray]] | None = None
    truth_reward_idx: list[int | None] = field(default_factory=list)
    truth_transition_idx: list = field(default_factory=list)
    caps: ClassCaps = field(default_factory=ClassCaps)
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        H = len(self.reward_tables)
        if H == 0:
            raise ValidationError("need at least one step of reward candidates")
        self.reward_tables = [np.asarray(r, dtype=float) for r in self.reward_tables]
        S, A = self.reward_tables[0].shape[1:3]
        if not math.isfinite(self.bound) or self.bound <= 0:
            raise ValidationError(f"bound must be finite and positive, got {self.bound}")
        if not self.truth_reward_idx:
            self.truth_reward_idx = [None] * H
        if not self.truth_transition_idx:
            if self.mode is TransitionMode.GENERAL:
                self.truth_transition_idx = [None] * H
            else:
                dim = len(self.mean_map_tables[0]) if self.mean_map_tables else 0
                self.truth_transition_idx = [[None] * dim for _ in range(H)]
        if self.mode is TransitionMode.GENERAL:
            if self.transition_tables is None or len(self.transition_tables) != H:
                raise ValidationError("general mode needs transition_tables per step")
            self.transition_tables = [np.asarray(p, dtype=float) for p in self.transition_tables]
        else:
            if self.mean_map_tables is None or len(self.mean_map_tables) != H:
                raise ValidationError("dynamical mode needs mean_map_tables per step")
            self.mean_map_tables = [
                [np.asarray(g, dtype=float) for g in per] for per in self.mean_map_tables
            ]
        self.discriminators = [np.asarray(f, dtype=float) for f in self.discriminators]
        if len(self.discriminators) != H:
            raise ValidationError("discriminators must have one family per step")
        zero_sa = np.zeros((S, A))
        for h in range(H):
            f = self.discriminators[h]
            if f.shape[1:] != (S, A) or not (f == 0.0).all(axis=(1, 2)).any():
                self.discriminators[h] = np.concatenate([f, zero_sa[None]], axis=0)
        self.value_targets = [np.asarray(g, dtype=float) for g in self.value_targets]
        if len(self.value_targets) == H:
            self.value_targets.append(np.zeros((1, S)))
        if len(self.value_targets) != H + 1:
            raise ValidationError("value_targets must cover steps 1..H+1")
        if not np.array_equal(self.value_targets[H], np.zeros((1, S))):
            raise ValidationError("terminal value-target family must be the zero function alone")
        self._validate(S, A)

    def _validate(self, S: int, A: int) -> None:
        H = self.horizon
        for name in ("truth_reward_idx", "truth_transition_idx"):
            if len(getattr(self, name)) != H:
                raise ValidationError(f"{name} must have one entry per step ({H})")
        for h in range(H):
            nR = self.reward_tables[h].shape[0]
            if nR == 0:
                raise ValidationError(f"no reward candidates at step {h}")
            if nR > self.caps.per_step:
                raise CapacityError(
                    f"{nR} reward candidates at step {h} exceed the per-step cap {self.caps.per_step}"
                )
            lo, hi = self.reward_tables[h].min(), self.reward_tables[h].max()
            if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max keep a NaN
                raise ValidationError(f"reward candidates at step {h} have non-finite entries")
            if lo < -1e-9 or hi > self.bound + 1e-9:
                raise ValidationError(f"reward candidates at step {h} leave [0, bound]")
            _check_truth_index(self.truth_reward_idx[h], nR, "reward", f"step {h}")
            if self.mode is TransitionMode.GENERAL:
                assert self.transition_tables is not None
                nP = self.transition_tables[h].shape[0]
                if nP == 0:
                    raise ValidationError(f"no transition candidates at step {h}")
                if nP > self.caps.per_step:
                    raise CapacityError(
                        f"{nP} transition candidates at step {h} exceed the per-step cap"
                    )
                off = np.abs(self.transition_tables[h].sum(axis=-1) - 1.0).max()
                if not math.isfinite(off):  # a NaN or infinite entry leaves its row sum non-finite
                    raise ValidationError(f"transition candidates at step {h} have non-finite entries")
                if off > 1e-9 or self.transition_tables[h].min() < -1e-9:
                    raise ValidationError(f"transition candidates at step {h} are not kernels")
                _check_truth_index(self.truth_transition_idx[h], nP, "transition", f"step {h}")
            else:
                assert self.mean_map_tables is not None
                truth = self.truth_transition_idx[h]
                dim = len(self.mean_map_tables[h])
                if not isinstance(truth, (list, tuple)) or len(truth) != dim:
                    raise ValidationError(
                        f"truth transition index at step {h} must list one entry per coordinate ({dim})"
                    )
                for i, per in enumerate(self.mean_map_tables[h]):
                    if per.shape[0] == 0:
                        raise ValidationError(f"no mean-map candidates at step {h}, coordinate {i}")
                    if per.shape[0] > self.caps.per_step:
                        raise CapacityError(
                            f"{per.shape[0]} mean-map candidates at step {h} exceed the per-step cap"
                        )
                    if not np.isfinite(per).all():
                        raise ValidationError(
                            f"mean-map candidates at step {h}, coordinate {i} have non-finite entries"
                        )
                    _check_truth_index(truth[i], per.shape[0], "transition", f"step {h}, coordinate {i}")
        self._flag_bounds()

    def _flag_bounds(self) -> None:
        """Add a flag for a value target and for a discriminator beyond the bound.

        Value targets are flagged before discriminators, the order in which
        close_classes's two closures raise them; a flag already set stays.
        """
        flags = list(self.flags)
        for flag, tables in (
            ("value-target-bound-exceeded", self.value_targets),
            ("discriminator-bound-exceeded", self.discriminators),
        ):
            if flag not in flags and any(
                t.size and np.abs(t).max() > self.bound + 1e-9 for t in tables
            ):
                flags.append(flag)
        self.flags = tuple(flags)

    @property
    def horizon(self) -> int:
        return len(self.reward_tables)

    def truth_per_family(self, h: int) -> tuple:
        """Step h's designated true candidate per transition family; None where undesignated."""
        truth = self.truth_transition_idx[h]
        return (truth,) if self.mode is TransitionMode.GENERAL else tuple(truth)

    def kernel_index(self, h: int) -> KernelIndex:
        """The numbering of step h's transition models."""
        if self.mode is TransitionMode.GENERAL:
            assert self.transition_tables is not None
            return KernelIndex((len(self.transition_tables[h]),))
        assert self.mean_map_tables is not None
        return KernelIndex(tuple(len(g) for g in self.mean_map_tables[h]))

    def sizes(self) -> ClassSizes:
        """Summed class sizes, the cardinalities used by the confidence levels."""
        rewards = sum(r.shape[0] for r in self.reward_tables)
        transitions = sum(sum(self.kernel_index(h).radices) for h in range(self.horizon))
        discriminators = sum(f.shape[0] for f in self.discriminators)
        value_targets = sum(g.shape[0] for g in self.value_targets)
        return ClassSizes(rewards, transitions, discriminators, value_targets)


# ---------------------------------------------------------------------------
# Residual enumeration shared by closures, checks, and diagnostics
# ---------------------------------------------------------------------------


def source_feedback_mix(
    model: StrategicModel, knowledge: LearnerKnowledge | None = None
) -> np.ndarray:
    """Feedback distribution (H, S, A, E) under the source population.

    The per-type feedback table is knowledge's when given, which holds the
    model's own, so a caller with knowledge at hand does not compute it again.
    """
    fb = feedback_by_type(model) if knowledge is None else knowledge.feedback_by_type
    return np.einsum("ht,hsate->hsae", model.source_type_dist, fb)


def source_projection(kappa_h: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Conditional expectation of nu(s, a, e) given (s, a) under kappa(e | s, a).

    kappa_h is (S, A, E); nu is (..., S, A, E). Shared by the discriminator
    closure, the realizability check, and the diagnostics so membership tests
    stay bit-exact.
    """
    return np.einsum("sae,...sae->...sa", kappa_h, nu)


def residual_stack(
    model: StrategicModel, classes: HypothesisClasses, h: int
) -> np.ndarray:
    """Residuals (n, S, A, E) of every candidate against the truth at step h.

    The rows are the reward residuals (candidate minus true reward), then in
    general mode the transition residuals (candidate kernel minus truth)
    applied to every value target at the next step, transition-major, and in
    dynamical mode the per-coordinate mean-map differences, coordinate-major.
    residual_labels names the rows in the same order.
    """
    rewards = classes.reward_tables[h]
    n = len(rewards)
    if classes.mode is TransitionMode.GENERAL:
        assert classes.transition_tables is not None and model.transition_kernel is not None
        delta = classes.transition_tables[h] - model.transition_kernel[h]
        targets = classes.value_targets[h + 1]
        stack = np.empty((n + len(delta) * len(targets),) + rewards.shape[1:])
        applied = stack[n:].reshape((len(delta), len(targets)) + rewards.shape[1:])
        np.einsum("psaex,gx->pgsae", delta, targets, out=applied)
    else:
        assert classes.mean_map_tables is not None and model.mean_map is not None
        maps = [per - model.mean_map[h][..., i] for i, per in enumerate(classes.mean_map_tables[h])]
        stack = np.empty((n + sum(len(m) for m in maps),) + rewards.shape[1:])
        np.concatenate(maps, out=stack[n:])
    np.subtract(rewards, model.principal_reward[h], out=stack[:n])
    return stack


def residual_labels(classes: HypothesisClasses, h: int) -> list[str]:
    """Labels of the rows of residual_stack at step h, for witnesses in reports."""
    labels = [f"reward[{j}]" for j in range(len(classes.reward_tables[h]))]
    if classes.mode is TransitionMode.GENERAL:
        assert classes.transition_tables is not None
        targets = range(len(classes.value_targets[h + 1]))
        labels += [
            f"transition[{j}]*value[{g}]"
            for j in range(len(classes.transition_tables[h]))
            for g in targets
        ]
    else:
        assert classes.mean_map_tables is not None
        labels += [
            f"mean_map[{i}][{j}]"
            for i, per in enumerate(classes.mean_map_tables[h])
            for j in range(len(per))
        ]
    return labels


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """One key per leading-axis row, equal to that row's tobytes().

    Keys are bit-exact: -0.0 and 0.0 differ, equal NaN bit patterns match.
    """
    flat = np.ascontiguousarray(rows).reshape(rows.shape[0], math.prod(rows.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


def _dedup_append(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Append the rows of extra not already present, preserving order; bit-exact keys."""
    # A dict keeps its keys in first-insertion order, so the keys past base's
    # distinct rows are extra's new rows, in order; a key is the row's bytes.
    keys = dict.fromkeys(_row_keys(base)) if len(base) else {}
    known = len(keys)
    keys.update(dict.fromkeys(_row_keys(extra)))
    if len(keys) == known:
        return base
    new = b"".join(itertools.islice(keys, known, None))
    rows = np.frombuffer(new, dtype=extra.dtype).reshape(len(keys) - known, *extra.shape[1:])
    return np.concatenate([base, rows], axis=0)


def enumerate_suffix_values(
    classes: HypothesisClasses, knowledge: LearnerKnowledge
) -> list[np.ndarray]:
    """Optimal value tables of every joint candidate model, per step, deduplicated.

    Entry h holds the distinct tables V(s) achievable at step h by choosing one
    candidate pair per step from h onward and solving the aggregated model
    under the target. The joint cap guards the enumeration size.
    """
    agg = CandidateAggregates.from_classes(classes, knowledge)
    joint = 1
    for R, P in zip(agg.rewards, agg.transitions):
        joint *= R.shape[0] * P.shape[0]
    if joint > classes.caps.joint:
        raise CapacityError(f"value closure would enumerate {joint} joint models, cap is {classes.caps.joint}")
    S = classes.reward_tables[0].shape[1]
    values = np.zeros((1, S))
    out: list[np.ndarray] = [np.zeros((0, S))] * classes.horizon
    for h in range(classes.horizon - 1, -1, -1):
        values = joint_backup(agg.rewards[h], agg.transitions[h], values)
        values = _dedup_append(values[:0], values)  # distinct rows, first occurrences
        out[h] = values
    return out


def close_classes(
    model: StrategicModel, classes: HypothesisClasses, knowledge: LearnerKnowledge
) -> HypothesisClasses:
    """Value-target closure followed by the discriminator closure.

    Order matters: transition residual projections range over the closed
    value-target family. Projections use the true per-type feedback mixture
    under the source population, so this runs where the scenario is built.
    Classes are validated at construction only: the closures append rows to
    the two families of a copy that shares no list with classes, which is
    left as it was, and re-derive the two bound flags. Nothing is clamped: a
    value target or discriminator beyond the class bound raises a flag.
    """
    suffix = enumerate_suffix_values(classes, knowledge)
    closed = copy.copy(classes)
    for f in fields(classes):
        setattr(closed, f.name, _fresh_lists(getattr(classes, f.name)))
    for h in range(classes.horizon):
        base = classes.value_targets[h]
        # Suffix rows are distinct already, so an empty family takes them unkeyed.
        closed.value_targets[h] = _dedup_append(base, suffix[h]) if len(base) else suffix[h]
    kappa = source_feedback_mix(model, knowledge)
    for h, f in enumerate(classes.discriminators):
        closed.discriminators[h] = _dedup_append(
            f, source_projection(kappa[h], residual_stack(model, closed, h))
        )
    closed._flag_bounds()
    return closed


def _fresh_lists(value):
    """value with every list in it, nested lists too, copied; the items are shared."""
    return [_fresh_lists(v) for v in value] if isinstance(value, list) else value


# ---------------------------------------------------------------------------
# Realizability check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseResult:
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class RealizabilityReport:
    truth_in_rewards: ClauseResult
    truth_in_transitions: ClauseResult
    projections_in_discriminators: ClauseResult
    values_in_targets: ClauseResult
    flags: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.truth_in_rewards.passed
            and self.truth_in_transitions.passed
            and self.projections_in_discriminators.passed
            and self.values_in_targets.passed
        )

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "truth_in_rewards": vars(self.truth_in_rewards),
            "truth_in_transitions": vars(self.truth_in_transitions),
            "projections_in_discriminators": vars(self.projections_in_discriminators),
            "values_in_targets": vars(self.values_in_targets),
            "flags": list(self.flags),
        }


def _first_missing(table_set: np.ndarray, tables: np.ndarray) -> int | None:
    """Index of the first of tables that equals no row of table_set, else None.

    Equality is np.array_equal's: keys are taken on rows + 0.0, which maps
    -0.0 to 0.0, and a table containing NaN, or of another shape, equals
    nothing.
    """
    if len(tables) == 0:
        return None
    if table_set.shape[1:] != tables.shape[1:]:
        return 0
    tables = np.asarray(tables, dtype=float)
    present = set(_row_keys(np.asarray(table_set, dtype=float) + 0.0))
    has_nan = np.isnan(tables).reshape(len(tables), -1).any(axis=1)
    for i, key in enumerate(_row_keys(tables + 0.0)):
        if has_nan[i] or key not in present:
            return i
    return None


def check_realizability(
    model: StrategicModel, classes: HypothesisClasses, knowledge: LearnerKnowledge
) -> RealizabilityReport:
    """Verify truth membership and both closure properties by exact equality.

    The first failing location is reported as a counterexample witness. The
    projection and value computations reuse the closure code paths, so a
    closed class always passes bit-exactly.
    """
    H = classes.horizon
    r_clause = ClauseResult(True)
    for h in range(H):
        if _first_missing(classes.reward_tables[h], model.principal_reward[h][None]) is not None:
            r_clause = ClauseResult(False, f"true reward missing at step {h}")
            break
        idx = classes.truth_reward_idx[h]
        if idx is not None and not np.array_equal(
            classes.reward_tables[h][idx], model.principal_reward[h]
        ):
            r_clause = ClauseResult(False, f"designated reward index {idx} wrong at step {h}")
            break
    t_clause = ClauseResult(True)
    for h in range(H):
        if classes.mode is TransitionMode.GENERAL:
            assert classes.transition_tables is not None and model.transition_kernel is not None
            if _first_missing(classes.transition_tables[h], model.transition_kernel[h][None]) is not None:
                t_clause = ClauseResult(False, f"true transition missing at step {h}")
                break
            designated = [(classes.transition_tables[h], model.transition_kernel[h])]
        else:
            assert classes.mean_map_tables is not None and model.mean_map is not None
            missing = [
                i
                for i, per in enumerate(classes.mean_map_tables[h])
                if _first_missing(per, model.mean_map[h][None, ..., i]) is not None
            ]
            if missing:
                t_clause = ClauseResult(
                    False, f"true mean map missing at step {h}, coordinate {missing[0]}"
                )
                break
            maps = classes.mean_map_tables[h]
            designated = [(per, model.mean_map[h][..., i]) for i, per in enumerate(maps)]
        wrong = [
            idx
            for (table, truth), idx in zip(designated, classes.truth_per_family(h))
            if idx is not None and not np.array_equal(table[idx], truth)
        ]
        if wrong:
            t_clause = ClauseResult(False, f"designated transition index {wrong[0]} wrong at step {h}")
            break
    kappa = source_feedback_mix(model, knowledge)
    p_clause = ClauseResult(True)
    for h in range(H):
        proj = source_projection(kappa[h], residual_stack(model, classes, h))
        j = _first_missing(classes.discriminators[h], proj)
        if j is not None:
            label = residual_labels(classes, h)[j]
            p_clause = ClauseResult(
                False, f"projection of {label} missing from discriminators at step {h}"
            )
            break
    v_clause = ClauseResult(True)
    try:
        suffix = enumerate_suffix_values(classes, knowledge)
        for h in range(H):
            j = _first_missing(classes.value_targets[h], suffix[h])
            if j is not None:
                v_clause = ClauseResult(
                    False, f"candidate value table {j} missing from targets at step {h}"
                )
                break
    except CapacityError as exc:
        v_clause = ClauseResult(False, f"not checkable: {exc}")
    return RealizabilityReport(
        truth_in_rewards=r_clause,
        truth_in_transitions=t_clause,
        projections_in_discriminators=p_clause,
        values_in_targets=v_clause,
        flags=classes.flags,
    )

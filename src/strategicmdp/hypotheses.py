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
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

import numpy as np

from .errors import CapacityError, ValidationError
from .model import (
    COUNT, POSITIVE, LearnerKnowledge, StrategicModel, TransitionMode, _is_int, _shown, as_table, check_dims,
    feedback_mix, integrate_feedback,
)
from .planning import CandidateAggregates, joint_backup

DEFAULT_PER_STEP_CAP = 8
DEFAULT_JOINT_CAP = 1_000_000


@dataclass(frozen=True)
class ClassCaps:
    per_step: int = DEFAULT_PER_STEP_CAP
    joint: int = DEFAULT_JOINT_CAP

    def __post_init__(self) -> None:
        for f in fields(self):
            COUNT.check(getattr(self, f.name), f"class cap {f.name}")

    def check_per_step(self, n: int, kind: str, where: str) -> None:
        if n > self.per_step:
            raise CapacityError(f"{n} {kind} candidates at {where} exceed the per-step cap {self.per_step}")


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


def _stacks(tables, shape: tuple[int, ...], name: str) -> list[np.ndarray]:
    """Each of tables as a stack of tables of the given shape through the table
    rule, entries unchecked; name formats a stack's index into its name."""
    return [as_table(t, (None, *shape), name.format(i), finite=False) for i, t in enumerate(tables)]


def _check_truth_index(idx, count: int, kind: str, where: str) -> None:
    """A designated truth index is None or an integer naming one of count candidates."""
    if idx is not None and not (_is_int(idx) and 0 <= idx < count):
        raise ValidationError(f"truth {kind} index {_shown(idx)} at {where} is not one of the {count} candidates")


@dataclass
class LossFamily:
    """One loss family of one step, in the form rewards and both transition modes share.

    Each candidate predicts the conditional means of G observed quantities.
    apply maps candidate tables (n, S, A, E, ...) to those predictions
    (n, G, S, A, E), observe gives the quantities' per-(s, a) data sums
    (G, S, A) from a step's StepData, and true_table(model) is the model's own
    table. kind and where stem the messages, label names the loss, row
    formats a residual row's label from candidate j and quantity g, and level
    is the family's BetaLevels field, "reward" for the reward family. The
    candidates of a family with kernels set are next-state distributions.
    """

    tables: np.ndarray
    truth: int | None
    kind: str
    where: str
    label: str
    row: str
    level: str
    kernels: bool
    apply: Callable[[np.ndarray], np.ndarray]
    observe: Callable[[Any], np.ndarray]
    true_table: Callable[[StrategicModel], np.ndarray]

    @property
    def part(self) -> str:
        """The class the candidates belong to, "reward" or "transition":
        it names the truth in messages and routes the truth clauses."""
        return "reward" if self.level == "reward" else "transition"


@dataclass
class HypothesisClasses:
    """Per-step candidate and discriminator families.

    reward_tables[h] is (nR_h, S, A, E). In general mode transition_tables[h]
    is (nP_h, S, A, E, S); in dynamical mode mean_map_tables[h][i] is
    (n_hi, S, A, E) for each state coordinate i. discriminators[h] is
    (nF_h, S, A) and always contains the zero function. value_targets has
    H + 1 entries of shape (nG_h, S); the terminal entry is the zero function
    alone. truth_*_idx record where the true tables sit when known; None means
    not designated. Construction stores every table read-only, through the
    table rule (model.as_table).
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
        # Stacks of tables, shapes only: the family loop of _validate checks the entries.
        first = as_table(self.reward_tables[0], (None, "S", "A", "E"), "reward class at step 0", finite=False)
        S, A, E = first.shape[1:]
        self.reward_tables = _stacks([first, *self.reward_tables[1:]], (S, A, E), "reward class at step {}")
        POSITIVE.check(self.bound, "bound")
        self.truth_reward_idx = self.truth_reward_idx or [None] * H
        self.truth_transition_idx = self.truth_transition_idx or [None] * H
        if self.transition_tables is not None:
            self.transition_tables = _stacks(self.transition_tables, (S, A, E, S), "transition class at step {}")
        if self.mean_map_tables is not None:
            self.mean_map_tables = [
                _stacks(m, (S, A, E), f"mean-map class at step {h}, coordinate {{}}")
                for h, m in enumerate(self.mean_map_tables)
            ]
        if len(self.discriminators) != H:
            raise ValidationError("discriminators must have one family per step")
        self.discriminators = _stacks(self.discriminators, (S, A), "discriminator family at step {}")
        for h, f in enumerate(self.discriminators):
            if not (f == 0.0).all(axis=(1, 2)).any():
                with_zero = np.concatenate([f, np.zeros((1, S, A))])
                self.discriminators[h] = as_table(with_zero, None, f"discriminator family at step {h}", finite=False)
        if len(self.value_targets) == H:
            self.value_targets = [*self.value_targets, np.zeros((1, S))]
        if len(self.value_targets) != H + 1:
            raise ValidationError("value_targets must cover steps 1..H+1")
        self.value_targets = _stacks(self.value_targets, (S,), "value-target family at step {}")
        if not np.array_equal(self.value_targets[H], np.zeros((1, S))):
            raise ValidationError("terminal value-target family must be the zero function alone")
        self._validate()

    def _validate(self) -> None:
        H = self.horizon
        for name in ("truth_reward_idx", "truth_transition_idx"):
            if len(getattr(self, name)) != H:
                raise ValidationError(f"{name} must have one entry per step ({H})")
        for h in range(H):
            for fam in self.families(h):
                n = len(fam.tables)
                if n == 0:
                    raise ValidationError(f"no {fam.kind} candidates at {fam.where}")
                self.caps.check_per_step(n, fam.kind, fam.where)
                tables = as_table(fam.tables, None, f"{fam.kind} class at {fam.where}", rows=fam.kernels)
                if fam.part == "reward" and (tables.min() < -1e-9 or tables.max() > self.bound + 1e-9):
                    raise ValidationError(f"reward candidates at {fam.where} leave [0, bound]")
                _check_truth_index(fam.truth, n, fam.part, fam.where)
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

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(H, S, A, E), read off step 0's reward candidates."""
        return (self.horizon, *self.families(0)[0].tables.shape[1:])

    def families(self, h: int) -> tuple[LossFamily, ...]:
        """Step h's loss families: the one place the classes read the mode.

        The reward family comes first: its candidates predict the reward.
        Then the transition families: general mode has one, the kernels,
        whose candidates predict g(next state) for every value target g at
        step h + 1; dynamical mode has one per state coordinate i, whose mean
        maps predict next_state_i. A step's designated transition truth is
        one index in general mode and one per coordinate in dynamical mode;
        None designates none.
        """
        H, truth = self.horizon, self.truth_transition_idx[h]
        reward = LossFamily(
            self.reward_tables[h], self.truth_reward_idx[h], "reward", f"step {h}",
            f"reward-h{h}", "reward[{j}]", "reward",
            kernels=False,
            apply=lambda x: x[:, None],
            observe=lambda d: d.reward_sums.sum(axis=-1)[None],
            true_table=lambda model: model.principal_reward[h],
        )
        if self.mode is TransitionMode.GENERAL:
            if self.transition_tables is None or len(self.transition_tables) != H:
                raise ValidationError("general mode needs transition_tables per step")
            g = self.value_targets[h + 1]
            return (
                reward,
                LossFamily(
                    self.transition_tables[h], truth, "transition", f"step {h}",
                    f"transition-h{h}", "transition[{j}]*value[{g}]", "transition_general",
                    kernels=True,
                    apply=lambda x: np.einsum("psaex,gx->pgsae", x, g),
                    observe=lambda d: np.einsum("sax,gx->gsa", d.next_counts, g),
                    true_table=lambda model: model.transition_kernel[h],
                ),
            )
        if self.mean_map_tables is None or len(self.mean_map_tables) != H:
            raise ValidationError("dynamical mode needs mean_map_tables per step")
        maps = self.mean_map_tables[h]
        truth = [None] * len(maps) if truth is None else truth
        if not isinstance(truth, (list, tuple)) or len(truth) != len(maps):
            raise ValidationError(
                f"truth transition index at step {h} must list one entry per coordinate ({len(maps)})"
            )
        return reward, *(
            LossFamily(
                per, idx, "mean-map", f"step {h}, coordinate {i}",
                f"mean-map-h{h}-c{i}", f"mean_map[{i}][{{j}}]", "transition_dynamical",
                kernels=False,
                apply=lambda x: x[:, None],
                observe=lambda d, i=i: d.next_sums[..., i].sum(axis=-1)[None],
                true_table=lambda model, i=i: model.mean_map[h][..., i],
            )
            for i, (per, idx) in enumerate(zip(maps, truth))
        )

    def kernel_index(self, h: int) -> KernelIndex:
        """The numbering of step h's transition models."""
        return KernelIndex(tuple(len(fam.tables) for fam in self.families(h)[1:]))

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


def residual_stack(
    model: StrategicModel, classes: HypothesisClasses, h: int
) -> np.ndarray:
    """Residuals (n, S, A, E) of every candidate against the truth at step h.

    Per loss family, the candidate-minus-truth tables, applied to the
    family's observed quantities, candidate-major: the reward itself, then in
    general mode every value target at the next step, in dynamical mode the
    coordinate itself. The truth is subtracted before apply: the closures key
    rows bit-exactly, and applying first rounds differently.
    residual_labels names the rows in the same order.
    """
    rows = []
    for fam in classes.families(h):
        applied = fam.apply(fam.tables - fam.true_table(model))
        rows.append(applied.reshape((-1,) + applied.shape[2:]))
    return np.concatenate(rows)


def residual_labels(classes: HypothesisClasses, h: int) -> list[str]:
    """Labels of the rows of residual_stack at step h, for witnesses in reports."""
    labels = []
    for fam in classes.families(h):
        quantities = range(fam.apply(fam.tables[:0]).shape[1])  # G, from no candidates
        labels += [fam.row.format(j=j, g=g) for j in range(len(fam.tables)) for g in quantities]
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
    """Append the rows of extra not already present, preserving order; bit-exact keys.
    An array it builds is read-only."""
    # A dict keeps its keys in first-insertion order, so the keys past base's
    # distinct rows are extra's new rows, in order; a key is the row's bytes.
    keys = dict.fromkeys(_row_keys(base)) if len(base) else {}
    known = len(keys)
    keys.update(dict.fromkeys(_row_keys(extra)))
    if len(keys) == known:
        return base
    new = b"".join(itertools.islice(keys, known, None))
    rows = np.frombuffer(new, dtype=extra.dtype).reshape(len(keys) - known, *extra.shape[1:])
    out = np.concatenate([base, rows], axis=0)
    out.setflags(write=False)
    return out


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
    S = agg.rewards[0].shape[1]
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
    left as it was, and re-derive the two bound flags. The rows appended are
    read-only, as the tables the table rule returns are. Nothing is clamped:
    a value target or discriminator beyond the class bound raises a flag.
    """
    suffix = enumerate_suffix_values(classes, knowledge)
    closed = copy.copy(classes)
    for f in fields(classes):
        setattr(closed, f.name, _fresh_lists(getattr(classes, f.name)))
    for h in range(classes.horizon):
        base = classes.value_targets[h]
        # Suffix rows are distinct already, so an empty family takes them unkeyed.
        closed.value_targets[h] = _dedup_append(base, suffix[h]) if len(base) else suffix[h]
    kappa = feedback_mix(model.source_type_dist, knowledge.feedback_by_type)
    for h, f in enumerate(classes.discriminators):
        proj = integrate_feedback(kappa[h], residual_stack(model, closed, h))
        closed.discriminators[h] = _dedup_append(f, proj)
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
    def clauses(self) -> dict[str, ClauseResult]:
        """The clauses by field name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "flags"}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses.values())

    def as_dict(self) -> dict:
        clauses = {name: vars(c) for name, c in self.clauses.items()}
        return {"passed": self.passed, **clauses, "flags": list(self.flags)}


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
    check_dims(model=model.dims, knowledge=knowledge.dims, classes=classes.dims)
    H = classes.horizon
    # Per part ("reward" or "transition"), the first step with a failure; at
    # that step a missing truth in any family wins over a wrong designation.
    truth_failures: dict[str, str] = {}
    for h in range(H):
        families = [(fam, fam.true_table(model)) for fam in classes.families(h)]
        for fam, true in families:
            if _first_missing(fam.tables, true[None]) is not None:
                noun = fam.kind.replace("-", " ")
                truth_failures.setdefault(fam.part, f"true {noun} missing at {fam.where}")
        for fam, true in families:
            if fam.truth is not None and not np.array_equal(fam.tables[fam.truth], true):
                truth_failures.setdefault(
                    fam.part, f"designated {fam.part} index {fam.truth} wrong at step {h}"
                )
    kappa = feedback_mix(model.source_type_dist, knowledge.feedback_by_type)
    p_clause = ClauseResult(True)
    for h in range(H):
        proj = integrate_feedback(kappa[h], residual_stack(model, classes, h))
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
    r_clause, t_clause = (
        ClauseResult(part not in truth_failures, truth_failures.get(part))
        for part in ("reward", "transition")
    )
    return RealizabilityReport(
        truth_in_rewards=r_clause,
        truth_in_transitions=t_clause,
        projections_in_discriminators=p_clause,
        values_in_targets=v_clause,
        flags=classes.flags,
    )

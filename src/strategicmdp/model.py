"""Episodic simulator for principal-agent interactions with hidden agent types.

The environment is an episodic MDP in which, at every step, a hidden agent type
is drawn, the agent best-responds to the principal's action, and the principal
observes only a feedback signal and a reward. The reward carries an additive
type-dependent shift (demeaned under the source type distribution) plus
Gaussian noise, so conditioning on the realized feedback biases naive reward
estimates. Transitions are either a finite kernel indexed by feedback
("general" mode) or a mean map plus type shift plus Gaussian noise on a
continuous state vector ("dynamical" mode, states binned on a uniform grid).

All stochastic operations take an explicit numpy Generator and consume draws in
a fixed documented order, so a run is reproducible from its 64-bit seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import InvalidIndexError, StrategicMDPError, ValidationError

if TYPE_CHECKING:
    from .planning import AggregatedMDP

SIMPLEX_TOL = 1e-9

# Cephes erf/erfc rational approximations (as in the xsf special-function
# library), highest degree first. Rows: the erf numerator T and denominator U
# (in x^2), then the erfc pairs P/Q (1 <= |x| < 8) and R/S (|x| >= 8). The
# monic denominators are written with their leading 1 and every row is padded
# with leading zeros to degree 8; on finite arguments neither changes a single
# rounding of Horner's rule.
_CDF_COEF = np.array([
    [0, 0, 0, 0, 9.60497373987051638749e0, 9.00260197203842689217e1,
     2.23200534594684319226e3, 7.00332514112805075473e3, 5.55923013010394962768e4],
    [0, 0, 0, 1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
     4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4],
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2],
    [0, 0, 0, 5.64189583547755073984e-1, 1.27536670759978104416e0,
     5.01905042251180477414e0, 6.16021097993053585195e0, 7.40974269950448939160e0,
     2.97886665372100240670e0],
    [0, 0, 1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
     1.20489539808096656605e1, 1.70814450747565897222e1, 9.60896809063285878198e0,
     3.36907645100081516050e0],
]).T.reshape(9, 3, 2, 1)
# Horner steps, each (3 argument rows, 2 polynomials, 1): rows are x^2, |x|, |x|.
_CDF_STEPS = tuple(_CDF_COEF)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def normal_cdf(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit for bit the xsf ``ndtr`` (cephes erf/erfc).

    Follows the xsf branch test: with x = a / sqrt(2), 0.5 + 0.5 erf(x) when
    |x| < 1, else 0.5 erfc(|x|), reflected to 1 - y for x > 0, and erfc = 0
    once x^2 exceeds MAXLOG. All six polynomials run on every element, with
    one rounding per multiply and per add as in the C code, and each element
    keeps its own branch. The exponential goes through libm (``math.exp``),
    as numpy's vectorized exp rounds differently.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        x = a.reshape(-1) * _SQRT1_2
        z = np.abs(x)
        zz = z * z
        args = np.empty((3, 1, z.size))
        args[0, 0] = zz
        args[1:, 0] = z
        acc = _CDF_STEPS[0] * args + _CDF_STEPS[1]
        for c in _CDF_STEPS[2:]:
            acc *= args
            acc += c
        (erf_p, erf_q), mid, far = acc
        inner = z < 1.0
        under = zz > _MAXLOG
        tail = ~inner & ~under  # nan lands here and propagates
        expo = np.zeros_like(z)
        expo[tail] = np.fromiter(map(math.exp, (-zz[tail]).tolist()), float)
        p, q = np.where(z < 8.0, mid, far)
        half = 0.5 * np.where(under, 0.0, (expo * p) / q)
        out = np.where(
            inner, 0.5 + 0.5 * ((x * erf_p) / erf_q), np.where(x > 0, 1.0 - half, half)
        )
    return out.reshape(a.shape)


def make_rng(seed: int) -> np.random.Generator:
    """Return a counter-based generator for the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(seed))


def draw_categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Sample an index from a probability vector with a single uniform draw.

    Uses inverse-CDF on the cumulative sums, so a degenerate (one-hot) vector
    returns its support point for every value of the uniform.
    """
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, len(probs) - 1)


class TransitionMode(Enum):
    """How next states are produced: finite kernel or mean map on a grid."""

    GENERAL = "general"
    DYNAMICAL = "dynamical"


# ---------------------------------------------------------------------------
# Grid for dynamical-mode states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid over a bounding box in up to a few dimensions.

    Cells are indexed row-major over the per-dimension bins. Points outside the
    box belong to the nearest boundary cell, and Gaussian mass outside the box
    is folded into the boundary cells the same way.
    """

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    cells_per_dim: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.lows) == len(self.highs) == len(self.cells_per_dim)):
            raise ValidationError("grid lows/highs/cells_per_dim lengths differ")
        for n in self.cells_per_dim:
            COUNT.check(n, "grid cell count")
        if self.num_cells > np.iinfo(np.intp).max:
            raise ValidationError(f"grid has {_shown(self.num_cells)} cells, more than an array can index")
        if not all(_is_finite_real(x) for x in (*self.lows, *self.highs)):
            raise ValidationError(f"grid box lows {self.lows} and highs {self.highs} are not all finite numbers")
        if any(h <= l for l, h in zip(self.lows, self.highs)):
            raise ValidationError("grid box must have positive extent per dimension")

    @property
    def dim(self) -> int:
        return len(self.cells_per_dim)

    @property
    def num_cells(self) -> int:
        return math.prod(self.cells_per_dim)

    def widths(self) -> np.ndarray:
        return (np.asarray(self.highs) - np.asarray(self.lows)) / np.asarray(
            self.cells_per_dim
        )

    @cached_property
    def _bin_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lows, widths and last bin per dimension, built once: locate runs every step."""
        arrays = (self.lows, self.widths(), np.subtract(self.cells_per_dim, 1))
        return tuple(as_table(x, None, "grid") for x in arrays)

    def _bins(self, coords: np.ndarray, dims: int | slice = slice(None)) -> np.ndarray:
        """Bin of each coordinate along its dimension(s) dims, clipped to the box.

        The clip runs in float before the cast to int, so a coordinate far
        outside the box (even one past the int range) lands in the boundary bin.
        """
        lows, widths, last = (arr[dims] for arr in self._bin_arrays)
        return np.clip(np.floor((coords - lows) / widths), 0, last).astype(int)

    def locate(self, point: np.ndarray) -> int:
        """Cell index containing the point, clipped to the box."""
        point = as_table(point, (self.dim,), "point")
        return int(np.ravel_multi_index(tuple(self._bins(point)), self.cells_per_dim))

    def edges(self, dim: int) -> np.ndarray:
        return np.linspace(self.lows[dim], self.highs[dim], self.cells_per_dim[dim] + 1)

    def gaussian_mass_1d(self, mean: float | np.ndarray, scale: float, dim: int) -> np.ndarray:
        """Per-bin masses (..., n) of N(mean, scale^2) along one dimension.

        mean is a scalar or an array of any shape. Tail mass below/above the
        box is folded into the first/last bin. A zero scale degenerates to a
        point mass in the bin containing the mean; a negative or non-finite
        scale, or a non-finite mean, is a ValidationError. The CDF is
        evaluated once per distinct mean and its rows gathered back: candidate
        means repeat across steps and feedbacks, and equal means (0.0 and -0.0
        included) give bit-identical rows.
        """
        SCALE.check(scale, "cell mass scale")
        means = as_table(mean, None, "cell mass mean table")
        n = self.cells_per_dim[dim]
        if scale == 0.0:
            mass = np.zeros(means.shape + (n,))
            np.put_along_axis(mass, self._bins(means, dim)[..., None], 1.0, axis=-1)
            return mass
        # A dict, not np.unique: no sort, and so no sort code paged in per process.
        rows: dict[float, int] = {}
        gather = [rows.setdefault(m, len(rows)) for m in means.ravel().tolist()]
        distinct = np.fromiter(rows, float, len(rows))
        cdf = np.zeros((len(rows), n + 1))
        cdf[:, 1:-1] = normal_cdf((self.edges(dim)[1:-1] - distinct[:, None]) / scale)
        cdf[:, -1] = 1.0
        return np.diff(cdf, axis=-1)[gather].reshape(means.shape + (n,))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategicModel:
    """Full simulator description, including components hidden from the learner.

    Shapes (H = horizon, S = states or grid cells, A = principal actions,
    T = agent types, B = agent actions, E = feedbacks, d = state dimension):

      source_type_dist    (H, T)   per-step type distribution generating data
      target_type_dist    (H, T)   population the learner optimizes for
      agent_reward        (H, S, A, T, B)
      feedback_kernel     (H, S, A, T, B, E)
      principal_reward    (H, S, A, E)   values within [0, reward_bound]
      reward_confound     (H, T)   additive shift, demeaned under source per step
      transition_kernel   (H, S, A, E, S)   general mode only
      mean_map            (H, S, A, E, d)   dynamical mode only (S = grid cells)
      trans_confound      (H, T, d)   dynamical, demeaned under source per step

    Construction checks every table through the table rule (as_table), which
    stores it read-only, and every distribution row to 1e-9, then demeans both
    confound tables under the per-step source distribution. In both
    modes tables are indexed by the state's cell; in dynamical mode the
    observed next state is a d-vector, and its grid cell is the next state
    the tables see. The model is frozen, so its true law (feedback_by_type, step_kernels
    and the population laws source_feedback, target_feedback, source_reward_bias, target_mdp)
    is computed on first read, never at construction, and kept.
    """

    horizon: int
    num_states: int
    num_actions: int
    num_feedbacks: int
    num_types: int
    num_agent_actions: int
    initial_state: int
    source_type_dist: np.ndarray
    target_type_dist: np.ndarray
    agent_reward: np.ndarray
    feedback_kernel: np.ndarray
    principal_reward: np.ndarray
    reward_confound: np.ndarray
    reward_noise_std: float
    reward_bound: float
    transition_mode: TransitionMode
    transition_kernel: np.ndarray | None = None
    grid: Grid | None = None
    mean_map: np.ndarray | None = None
    trans_confound: np.ndarray | None = None
    trans_noise_scale: float = 1.0

    def __post_init__(self) -> None:
        self.validate()
        self._demean_confounds()

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.horizon, self.num_states, self.num_actions, self.num_feedbacks)

    @property
    def state_dim(self) -> int:
        """d, the grid's dimension; 0 without a grid."""
        return 0 if self.grid is None else self.grid.dim

    def validate(self) -> None:
        """Check the sizes, the constants and every table; each table is
        stored as the table rule returns it."""
        for name in ("horizon", "num_states", "num_actions", "num_feedbacks", "num_types", "num_agent_actions"):
            COUNT.check(getattr(self, name), name)
        H, S, A, E = self.dims
        T, B = self.num_types, self.num_agent_actions
        if self.transition_mode is TransitionMode.GENERAL:
            if self.transition_kernel is None:
                raise ValidationError("general mode requires transition_kernel")
            transitions = {"transition_kernel": ((H, S, A, E, S), True)}
        else:
            if self.grid is None or self.mean_map is None or self.trans_confound is None:
                raise ValidationError("dynamical mode requires grid, mean_map, trans_confound")
            if self.num_states != self.grid.num_cells:
                raise ValidationError("num_states must equal the grid cell count")
            SCALE.check(self.trans_noise_scale, "trans_noise_scale")
            d = self.state_dim
            transitions = {"mean_map": ((H, S, A, E, d), False), "trans_confound": ((H, T, d), False)}
        for name in ("transition_kernel", "mean_map", "trans_confound"):
            if name not in transitions and getattr(self, name) is not None:
                raise ValidationError(f"{name} belongs to the other transition mode")
        for name, (shape, rows) in {
            "source_type_dist": ((H, T), True),
            "target_type_dist": ((H, T), True),
            "agent_reward": ((H, S, A, T, B), False),
            "feedback_kernel": ((H, S, A, T, B, E), True),
            "principal_reward": ((H, S, A, E), False),
            "reward_confound": ((H, T), False),
            **transitions,
        }.items():
            object.__setattr__(self, name, as_table(getattr(self, name), shape, name, rows=rows))  # frozen
        SCALE.check(self.reward_noise_std, "reward_noise_std")
        POSITIVE.check(self.reward_bound, "reward_bound")
        lo, hi = self.principal_reward.min(), self.principal_reward.max()
        if lo < -SIMPLEX_TOL or hi > self.reward_bound + SIMPLEX_TOL:
            raise ValidationError(
                f"principal_reward range [{lo}, {hi}] exceeds [0, {self.reward_bound}]"
            )
        _check_index(self.initial_state, S, "initial state")

    def _demean_confounds(self) -> None:
        """Demean both confound tables under the per-step source distribution, to SIMPLEX_TOL."""
        src = self.source_type_dist
        shift = self.reward_confound - np.sum(src * self.reward_confound, axis=1, keepdims=True)
        object.__setattr__(self, "reward_confound", as_table(shift, None, "reward_confound"))
        if np.abs(np.sum(src * self.reward_confound, axis=1)).max() > SIMPLEX_TOL:
            raise ValidationError("reward_confound is not demeaned under the source")
        if self.trans_confound is not None:
            shift = self.trans_confound - np.einsum("ht,htd->hd", src, self.trans_confound)[:, None, :]
            object.__setattr__(self, "trans_confound", as_table(shift, None, "trans_confound"))
            if np.abs(np.einsum("ht,htd->hd", src, self.trans_confound)).max() > SIMPLEX_TOL:
                raise ValidationError("trans_confound is not demeaned under the source")

    @cached_property
    def feedback_by_type(self) -> np.ndarray:
        """Feedback kernel (H, S, A, T, E) with best responses substituted."""
        idx = best_response_table(self)[..., None, None]
        return as_table(np.take_along_axis(self.feedback_kernel, idx, axis=4)[..., 0, :], None, "feedback_by_type")

    @cached_property
    def source_feedback(self) -> np.ndarray:
        """Feedback law (H, S, A, E) of the source population, read-only."""
        return as_table(feedback_mix(self.source_type_dist, self.feedback_by_type), None, "source feedback law")

    @cached_property
    def target_feedback(self) -> np.ndarray:
        """Feedback law (H, S, A, E) of the target population, read-only."""
        return as_table(feedback_mix(self.target_type_dist, self.feedback_by_type), None, "target feedback law")

    @cached_property
    def source_reward_bias(self) -> np.ndarray:
        """Mean reward shift (H, S, A, E) given the cell under the source, read-only; NaN where it has no mass."""
        weighted = feedback_mix(self.source_type_dist * self.reward_confound, self.feedback_by_type)
        kappa = self.source_feedback
        with np.errstate(invalid="ignore", divide="ignore"):
            bias = np.where(kappa > 0, weighted / np.maximum(kappa, 1e-300), np.nan)
        return as_table(bias, None, "source reward bias", finite=False)

    @cached_property
    def step_kernels(self) -> tuple[np.ndarray, ...]:
        """The next-state law of each of the H steps, read-only; see diagnostics._step_kernels."""
        from .diagnostics import _step_kernels  # here, not at the top: diagnostics imports this module
        return _step_kernels(self)

    @cached_property
    def target_mdp(self) -> AggregatedMDP:
        """The target population's aggregated MDP, read-only; see diagnostics._target_mdp."""
        from .diagnostics import _target_mdp  # as in step_kernels
        return _target_mdp(self)


# ---------------------------------------------------------------------------
# Learner-visible knowledge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerKnowledge:
    """What the learner is allowed to see about the environment.

    Holds the target population's feedback law, each (step, state, action)'s
    feedback distribution over the target types' best responses, plus, in
    dynamical mode, the grid and the structural transition noise scale (a
    public model constant, unit by default). Contains no type distribution,
    no per-type table, no confound tables, and no reward noise level. The
    learner integrates feedback out under the law as given, so construction
    refuses a law whose rows are not distributions, a grid whose cells are
    not the states, and a negative or non-finite noise scale.
    """

    feedback_law: np.ndarray  # (H, S, A, E)
    grid: Grid | None = None
    trans_noise_scale: float = 1.0

    def __post_init__(self) -> None:
        law = as_table(self.feedback_law, ("H", "S", "A", "E"), "feedback law", rows=True)
        if self.grid is not None and not (isinstance(self.grid, Grid) and self.grid.num_cells == law.shape[1]):
            raise ValidationError(f"grid must be None or a Grid of the {law.shape[1]} states, got {_shown(self.grid)}")
        SCALE.check(self.trans_noise_scale, "trans_noise_scale")
        object.__setattr__(self, "feedback_law", law)  # frozen: store the checked table

    @classmethod
    def from_model(cls, model: StrategicModel) -> "LearnerKnowledge":
        check_parts(model=(model, StrategicModel))
        return cls(model.target_feedback, grid=model.grid, trans_noise_scale=model.trans_noise_scale)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(H, S, A, E), the sizes the learner's tables share."""
        return self.feedback_law.shape

    @property
    def horizon(self) -> int:
        return self.feedback_law.shape[0]

    @property
    def num_states(self) -> int:
        return self.feedback_law.shape[1]

    @property
    def num_actions(self) -> int:
        return self.feedback_law.shape[2]

    @property
    def num_feedbacks(self) -> int:
        return self.feedback_law.shape[3]


def best_response_table(model: StrategicModel) -> np.ndarray:
    """Best responses for every (h, s, a, t), lowest index on ties."""
    return np.argmax(model.agent_reward, axis=-1)


def feedback_mix(type_dist: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Feedback law (H, S, A, E) of an (H, T) type population over the
    (H, S, A, T, E) per-type feedback table; other (H, T) weights mix alike."""
    return np.einsum("ht,hsate->hsae", type_dist, fb)


def integrate_feedback(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(..., S, A) sums over e of weights[s, a, e] * table[..., s, a, e].

    With a step's feedback law as weights this is the conditional mean given
    (state, action) of every (S, A, E) table in the stack; with sample counts,
    their total over the data.
    """
    return np.einsum("sae,...sae->...sa", weights, table)


def check_dims(**dims: tuple[int, ...]) -> None:
    """Refuse parts, named by keyword, whose (H, S, A, E) tuples differ."""
    if len(set(dims.values())) > 1:
        raise ValidationError("sizes (H, S, A, E) differ: " + ", ".join(f"{k} {d}" for k, d in dims.items()))


def check_parts(**parts: tuple[object, type]) -> None:
    """The part rule: refuse an argument, named by keyword with its kind (a model, knowledge,
    classes, policy, dataset, run config or result, generator, ...), that is not of its kind."""
    for name, (value, kind) in parts.items():
        if not isinstance(value, kind):
            raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _is_int(value: object) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value: object) -> bool:
    """A real number, not a bool, that is a finite float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _shown(value: object) -> str:
    """repr(value), or a description of a value holding an int too long for repr."""
    try:
        return repr(value)
    except ValueError:  # past Python's limit on the digits of an int's str
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


@dataclass(frozen=True)
class Rule:
    """A value rule: a predicate and the stem of the message that refuses a value."""

    holds: Callable[[object], bool]
    stem: str

    def __call__(self, value: object) -> str | None:
        """None for a value the rule holds for, else the violation's text."""
        return None if self.holds(value) else f"{self.stem}, got {_shown(value)}"

    def check(self, value: object, name: str, error: type[StrategicMDPError] = ValidationError) -> None:
        """Raise error, naming the value, unless the rule holds for it."""
        if not self.holds(value):
            raise error(f"{name} {self(value)}")


# The rule book: every module checks counts, confidence levels, scales and seeds through these rules.
COUNT = Rule(lambda v: _is_int(v) and v >= 1, "must be an integer of at least 1")
NONNEGATIVE = Rule(lambda v: _is_int(v) and v >= 0, "must be an integer of at least 0")
UNIT_INTERVAL = Rule(lambda v: _is_finite_real(v) and 0 < v < 1, "must lie strictly between 0 and 1")
POSITIVE = Rule(lambda v: _is_finite_real(v) and v > 0, "must be finite and positive")
SCALE = Rule(lambda v: _is_finite_real(v) and v >= 0, "must be finite and nonnegative")
SEED = Rule(lambda v: _is_int(v) and 0 <= v < 2**64, "must be an integer of at least 0 and below 2**64")


def as_table(
    value: object, shape: tuple[int | str | None, ...] | None, name: str, *, finite: bool = True, rows: bool = False
) -> np.ndarray:
    """The table rule: value as a read-only float array that only the rule
    holds, else a ValidationError naming the table.

    shape gives each axis an int, an axis name or None, or is None for any
    shape. An int is a size, which passes COUNT before a message prints it; a
    named axis takes any size of at least 1, the same wherever the name
    appears; None takes any size. Entries must be finite unless finite is
    False, and with rows set every row along the last axis must be a
    distribution to SIMPLEX_TOL. An array the rule returned is taken as it
    is, not copied again.
    """
    frozen = isinstance(value, np.ndarray) and value.dtype == float and value.base is None and not value.flags.writeable
    if not frozen:
        try:
            value = np.array(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # ragged, not numbers, past the float range
            raise ValidationError(f"{name} is not a table of floats: {exc}") from None
        value.setflags(write=False)
    if shape is not None and value.shape != shape and not _fits(value.shape, shape):
        for want in shape:
            if want is not None and not isinstance(want, str):
                COUNT.check(want, f"a size of {name}")
        expected = ", ".join("n" if w is None else w if isinstance(w, str) else _shown(int(w)) for w in shape)
        raise ValidationError(f"{name} has shape {value.shape}, expected ({expected})")
    if (finite or rows) and not np.isfinite(value).all():
        raise ValidationError(f"{name} has non-finite entries")
    if rows and value.size and (value.min() < -SIMPLEX_TOL or np.abs(value.sum(axis=-1) - 1.0).max() > SIMPLEX_TOL):
        raise ValidationError(f"{name} has a row that is not a distribution")
    return value


def _fits(actual: tuple[int, ...], shape: tuple[int | str | None, ...]) -> bool:
    """Whether an array of shape actual has the shape as_table's spec gives."""
    fits, named = len(actual) == len(shape), {}  # named: the size each axis name takes
    for n, want in zip(actual, shape):
        if isinstance(want, str):
            fits = fits and n >= 1 and named.setdefault(want, n) == n
        elif want is not None:
            fits = fits and n == want
    return fits


def _check_index(i: int, n: int, what: str) -> None:
    if not _is_int(i) or not 0 <= i < n:
        raise InvalidIndexError(f"{what} index {_shown(i)} is not an integer in [0, {n})")


# ---------------------------------------------------------------------------
# Trajectories and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HiddenStep:
    """Per-step variables the learner never observes."""

    agent_type: int
    agent_action: int


@dataclass(frozen=True)
class TrajectoryStep:
    """One step from the cell ``state``. next_state is what was observed: a
    cell in general mode, a d-vector in dynamical mode; next_cell is its cell."""

    state: int
    action: int
    feedback: int
    reward: float
    next_state: int | np.ndarray
    next_cell: int
    hidden: HiddenStep


@dataclass
class Trajectory:
    steps: list[TrajectoryStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class Policy:
    """Markov policy: per-step, per-state distribution over principal actions."""

    action_probs: np.ndarray  # (H, S, A)

    def __post_init__(self) -> None:
        self.action_probs = as_table(self.action_probs, ("H", "S", "A"), "policy", rows=True)

    @classmethod
    def uniform(cls, horizon: int, num_states: int, num_actions: int) -> "Policy":
        table = np.full((horizon, num_states, num_actions), 1.0 / num_actions)
        return cls(table)

    @classmethod
    def deterministic(cls, actions: np.ndarray, num_actions: int) -> "Policy":
        """Build from an (H, S) table of action indices in [0, num_actions)."""
        as_table(actions, ("H", "S"), "action table")
        COUNT.check(num_actions, "num_actions")
        actions = np.asarray(actions)
        if not (np.issubdtype(actions.dtype, np.integer) and 0 <= actions.min() and actions.max() < num_actions):
            raise InvalidIndexError(f"action table must hold integers in [0, {_shown(num_actions)})")
        try:  # numpy refuses an action count past what an array can hold, or memory can
            return cls(actions[..., None] == np.arange(num_actions))
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ValidationError(f"no policy table has {_shown(num_actions)} actions: {exc}") from None

    def sample_action(self, rng: np.random.Generator, h: int, s: int) -> int:
        check_parts(rng=(rng, np.random.Generator))
        H, S, _ = self.action_probs.shape
        _check_index(h, H, "step")
        _check_index(s, S, "state")
        return draw_categorical(rng, self.action_probs[h, s])


# ---------------------------------------------------------------------------
# Stepping and rollouts
# ---------------------------------------------------------------------------


def env_step(
    model: StrategicModel, h: int, state: int, a: int, rng: np.random.Generator
) -> TrajectoryStep:
    """Advance the environment one step from the cell ``state``.

    Draw order is fixed: agent type, best response (deterministic), feedback,
    reward noise, then next-state noise. Noise draws are always consumed, and
    scaled afterwards, so the stream layout does not depend on parameters.
    A dynamical next state is located on the grid here, once.
    """
    check_parts(model=(model, StrategicModel), rng=(rng, np.random.Generator))
    _check_index(h, model.horizon, "step")
    _check_index(state, model.num_states, "state")
    _check_index(a, model.num_actions, "action")

    t = draw_categorical(rng, model.source_type_dist[h])
    b = int(np.argmax(model.agent_reward[h, state, a, t]))
    e = draw_categorical(rng, model.feedback_kernel[h, state, a, t, b])
    noise = rng.standard_normal() * model.reward_noise_std
    shift = float(model.reward_confound[h, t]) + float(noise)
    r = float(model.principal_reward[h, state, a, e]) + shift

    if model.transition_mode is TransitionMode.GENERAL:
        assert model.transition_kernel is not None
        s_next: int | np.ndarray = draw_categorical(rng, model.transition_kernel[h, state, a, e])
        next_cell = s_next
    else:
        assert model.mean_map is not None and model.trans_confound is not None
        assert model.grid is not None
        eta = rng.standard_normal(model.state_dim) * model.trans_noise_scale
        s_next = model.mean_map[h, state, a, e] + model.trans_confound[h, t] + eta
        next_cell = model.grid.locate(s_next)

    return TrajectoryStep(state, a, e, r, s_next, next_cell, HiddenStep(t, b))


def rollout(model: StrategicModel, policy: Policy, rng: np.random.Generator) -> Trajectory:
    """Play one episode from the initial cell, each step starting from the last one's next cell."""
    check_parts(model=(model, StrategicModel), policy=(policy, Policy), rng=(rng, np.random.Generator))
    as_table(policy.action_probs, (model.horizon, model.num_states, model.num_actions), "policy", finite=False)
    traj = Trajectory()
    cell = model.initial_state
    for h in range(model.horizon):
        step = env_step(model, h, cell, policy.sample_action(rng, h, cell), rng)
        traj.steps.append(step)
        cell = step.next_cell
    return traj

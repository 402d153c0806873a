"""Experiment configuration: YAML schema, defaults, and aggregated validation.

A config file has up to six top-level sections: environment, classes, run,
diagnostics, output, and workers. Every violation found is reported at once
in a single error rather than one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ParseError, ValidationError
from .planning import SelectionMode
from .scenarios import GENERATORS

# PyYAML's libyaml parser when it is compiled in: the same data, parsed faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _unique_key_loader(base: type) -> type:
    """Subclass of a YAML loader that rejects a mapping repeating a key.

    PyYAML would keep the last value silently. Keys merged in with << may
    still be overridden.
    """

    class UniqueKeyLoader(base):
        def construct_mapping(self, node, deep=False):
            keys = []
            for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
                if key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node, deep=True)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}", key_node.start_mark,
                        )
                    keys.append(key)
            return super().construct_mapping(node, deep)

    return UniqueKeyLoader


_LOADER = _unique_key_loader(YAML_LOADER)

_OPTIMISM = tuple(m.value for m in SelectionMode)

_TOP_KEYS = {"environment", "classes", "run", "diagnostics", "output", "workers"}
_ENV_KEYS = {"generator", "seed", "params"}
_CLASS_KEYS = {"per_step_cap", "joint_cap"}
_RUN_KEYS = {
    "episodes",
    "delta",
    "beta_scale",
    "optimism",
    "seeds",
    "evaluation_cadence",
    "strict_realizability",
    "selector_cap",
}
_DIAG_KEYS = {"regret", "naive_baseline", "ill_posedness", "transfer", "policy_budget"}
_OUT_KEYS = {"root", "label"}


@dataclass
class DiagnosticsConfig:
    regret: bool = True
    naive_baseline: bool = True
    ill_posedness: bool = False
    transfer: bool = False
    policy_budget: int = 4096


@dataclass
class OutputConfig:
    root: str = "runs"
    label: str | None = None


@dataclass
class ScenarioConfig:
    """Validated experiment description with defaults filled in."""

    generator: str
    generator_seed: int = 0
    generator_params: dict = field(default_factory=dict)
    per_step_cap: int = 8
    joint_cap: int = 1_000_000
    episodes: int = 100
    delta: float = 0.1
    beta_scale: float = 1.0
    optimism: str = "exact"
    seeds: list[int] = field(default_factory=lambda: [0])
    evaluation_cadence: int = 50
    strict_realizability: bool = False
    selector_cap: int = 1_000_000
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    workers: int = 1
    raw: dict = field(default_factory=dict)


def _section(data: dict, name: str, violations: list[str]) -> dict:
    sec = data.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        violations.append(f"{name}: must be a mapping")
        return {}
    return sec


def _check_keys(sec: dict, allowed: set, prefix: str, violations: list[str]) -> None:
    for key in sec:
        if key not in allowed:
            violations.append(f"{prefix}.{key}: unknown key")


def _as_int(sec: dict, key: str, default: int, lo: int, prefix: str, violations: list[str]) -> int:
    val = sec.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool):
        violations.append(f"{prefix}.{key}: expected an integer, got {val!r}")
        return default
    if val < lo:
        violations.append(f"{prefix}.{key}: must be at least {lo}, got {val}")
        return default
    return val


def _as_bool(sec: dict, key: str, default: bool, prefix: str, violations: list[str]) -> bool:
    val = sec.get(key, default)
    if not isinstance(val, bool):
        violations.append(f"{prefix}.{key}: expected a boolean, got {val!r}")
        return default
    return val


def config_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed mapping; raises one ValidationError listing every issue."""
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError("config root must be a mapping")
    for key in data:
        if key not in _TOP_KEYS:
            violations.append(f"{key}: unknown section")

    env = _section(data, "environment", violations)
    _check_keys(env, _ENV_KEYS, "environment", violations)
    generator = env.get("generator")
    if not isinstance(generator, str) or not generator:
        violations.append("environment.generator: required, must be a scenario name")
        generator = ""
    elif generator not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        violations.append(f"environment.generator: unknown scenario {generator!r} (known: {known})")
    generator_seed = _as_int(env, "seed", 0, 0, "environment", violations)
    params = env.get("params", {}) or {}
    if not isinstance(params, dict):
        violations.append("environment.params: must be a mapping")
        params = {}

    cls = _section(data, "classes", violations)
    _check_keys(cls, _CLASS_KEYS, "classes", violations)
    per_step_cap = _as_int(cls, "per_step_cap", 8, 1, "classes", violations)
    joint_cap = _as_int(cls, "joint_cap", 1_000_000, 1, "classes", violations)

    run = _section(data, "run", violations)
    _check_keys(run, _RUN_KEYS, "run", violations)
    episodes = _as_int(run, "episodes", 100, 1, "run", violations)
    delta = run.get("delta", 0.1)
    if not isinstance(delta, (int, float)) or isinstance(delta, bool) or not 0 < delta < 1:
        violations.append(f"run.delta: must lie strictly between 0 and 1, got {delta!r}")
        delta = 0.1
    beta_scale = run.get("beta_scale", 1.0)
    if (
        not isinstance(beta_scale, (int, float))
        or isinstance(beta_scale, bool)
        or not math.isfinite(beta_scale)
        or beta_scale <= 0
    ):
        violations.append(f"run.beta_scale: must be finite and positive, got {beta_scale!r}")
        beta_scale = 1.0
    optimism = run.get("optimism", "exact")
    if optimism not in _OPTIMISM:
        violations.append(f"run.optimism: must be one of {_OPTIMISM}, got {optimism!r}")
        optimism = "exact"
    seeds = run.get("seeds", [0])
    if (
        not isinstance(seeds, list)
        or not seeds
        or any(not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in seeds)
    ):
        violations.append(
            f"run.seeds: must be a nonempty list of nonnegative integers, got {seeds!r}"
        )
        seeds = [0]
    elif len(set(seeds)) != len(seeds):
        dups = sorted({s for s in seeds if seeds.count(s) > 1})
        violations.append(f"run.seeds: duplicate seeds {dups}")
    evaluation_cadence = _as_int(run, "evaluation_cadence", 50, 1, "run", violations)
    strict = _as_bool(run, "strict_realizability", False, "run", violations)
    selector_cap = _as_int(run, "selector_cap", 1_000_000, 1, "run", violations)

    dg = _section(data, "diagnostics", violations)
    _check_keys(dg, _DIAG_KEYS, "diagnostics", violations)
    diagnostics = DiagnosticsConfig(
        regret=_as_bool(dg, "regret", True, "diagnostics", violations),
        naive_baseline=_as_bool(dg, "naive_baseline", True, "diagnostics", violations),
        ill_posedness=_as_bool(dg, "ill_posedness", False, "diagnostics", violations),
        transfer=_as_bool(dg, "transfer", False, "diagnostics", violations),
        policy_budget=_as_int(dg, "policy_budget", 4096, 1, "diagnostics", violations),
    )

    out = _section(data, "output", violations)
    _check_keys(out, _OUT_KEYS, "output", violations)
    root = out.get("root", "runs")
    if not isinstance(root, str) or not root:
        violations.append(f"output.root: must be a nonempty string, got {root!r}")
        root = "runs"
    label = out.get("label")
    if label is not None and not isinstance(label, str):
        violations.append(f"output.label: must be a string, got {label!r}")
        label = None

    workers = data.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        violations.append(f"workers: must be a positive integer, got {workers!r}")
        workers = 1

    if violations:
        raise ValidationError(
            "invalid config (" + str(len(violations)) + " issue(s)):\n  - "
            + "\n  - ".join(violations)
        )
    return ScenarioConfig(
        generator=generator,
        generator_seed=generator_seed,
        generator_params=params,
        per_step_cap=per_step_cap,
        joint_cap=joint_cap,
        episodes=episodes,
        delta=float(delta),
        beta_scale=float(beta_scale),
        optimism=optimism,
        seeds=list(seeds),
        evaluation_cadence=evaluation_cadence,
        strict_realizability=strict,
        selector_cap=selector_cap,
        diagnostics=diagnostics,
        output=OutputConfig(root=root, label=label),
        workers=workers,
        raw=data,
    )


def parse_yaml(text: str):
    """Parse YAML text with the safe loader; raises yaml.YAMLError.

    A mapping that repeats a key is an error.
    """
    return yaml.load(text, Loader=_LOADER)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a YAML config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    try:
        data = parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse config {path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ParseError(f"config {path} must contain a mapping at the top level")
    return config_from_dict(data)

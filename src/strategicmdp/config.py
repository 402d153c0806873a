"""Experiment configuration: YAML schema, defaults, and aggregated validation.

A config file has up to six top-level sections: environment, classes, run,
diagnostics, output, and workers. Every violation found is reported at once
in a single error rather than one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ParseError, ValidationError
from .diagnostics import DEFAULT_POLICY_BUDGET
from .hypotheses import DEFAULT_JOINT_CAP, DEFAULT_PER_STEP_CAP
from .model import COUNT, NONNEGATIVE, POSITIVE, SEED, UNIT_INTERVAL, _shown
from .planning import DEFAULT_SELECTOR_CAP, SelectionMode
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


def _key(key) -> str:
    """A mapping key as messages name it: a string as it is, anything else as _shown prints it."""
    return key if isinstance(key, str) else _shown(key)


def _boolean(val) -> str | None:
    return None if isinstance(val, bool) else f"expected a boolean, got {_shown(val)}"


def _scenario_name(val) -> str | None:
    if not isinstance(val, str) or not val:
        return "required, must be a scenario name"
    if val not in GENERATORS:
        return f"unknown scenario {val!r} (known: {', '.join(sorted(GENERATORS))})"
    return None


def _mapping_or_null(val) -> str | None:
    return None if val is None or isinstance(val, dict) else "must be a mapping"


def _selection_mode(val) -> str | None:
    return None if val in _OPTIMISM else f"must be one of {_OPTIMISM}, got {_shown(val)}"


def _seed_list(val) -> str | None:
    if not isinstance(val, list) or not val or any(NONNEGATIVE(s) for s in val):
        return f"must be a nonempty list of nonnegative integers, got {_shown(val)}"
    if too_large := next(filter(None, map(SEED, val)), None):
        return f"each seed {too_large}"
    if len(set(val)) != len(val):
        return f"duplicate seeds {_shown(sorted({s for s in val if val.count(s) > 1}))}"
    return None


def _nonempty_string(val) -> str | None:
    return None if isinstance(val, str) and val else f"must be a nonempty string, got {_shown(val)}"


def _string_or_null(val) -> str | None:
    return None if val is None or isinstance(val, str) else f"must be a string, got {_shown(val)}"


# Each section's keys in the order they are checked, with defaults and rules. A
# rule returns None for a valid value, else the violation's text. The classes and
# run keys are ScenarioConfig fields; diagnostics and output keys, their configs'.
_SCHEMA = {
    "environment": {
        "generator": (None, _scenario_name),
        "seed": (0, SEED),
        "params": (None, _mapping_or_null),
    },
    "classes": {
        "per_step_cap": (DEFAULT_PER_STEP_CAP, COUNT),
        "joint_cap": (DEFAULT_JOINT_CAP, COUNT),
    },
    "run": {
        "episodes": (100, COUNT),
        "delta": (0.1, UNIT_INTERVAL),
        "beta_scale": (1.0, POSITIVE),
        "optimism": ("exact", _selection_mode),
        "seeds": ([0], _seed_list),
        "evaluation_cadence": (50, COUNT),
        "strict_realizability": (False, _boolean),
        "selector_cap": (DEFAULT_SELECTOR_CAP, COUNT),
    },
    "diagnostics": {
        "regret": (True, _boolean),
        "naive_baseline": (True, _boolean),
        "ill_posedness": (False, _boolean),
        "transfer": (False, _boolean),
        "policy_budget": (DEFAULT_POLICY_BUDGET, COUNT),
    },
    "output": {
        "root": ("runs", _nonempty_string),
        "label": (None, _string_or_null),
    },
}


@dataclass
class DiagnosticsConfig:
    regret: bool
    naive_baseline: bool
    ill_posedness: bool
    transfer: bool
    policy_budget: int


@dataclass
class OutputConfig:
    root: str
    label: str | None


@dataclass
class ScenarioConfig:
    """Validated experiment description; config_from_dict fills in the defaults."""

    generator: str
    generator_seed: int
    generator_params: dict
    per_step_cap: int
    joint_cap: int
    episodes: int
    delta: float
    beta_scale: float
    optimism: str
    seeds: list[int]
    evaluation_cadence: int
    strict_realizability: bool
    selector_cap: int
    diagnostics: DiagnosticsConfig
    output: OutputConfig
    workers: int
    raw: dict


def config_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed mapping against _SCHEMA; raises one ValidationError listing every issue."""
    if not isinstance(data, dict):
        raise ValidationError("config root must be a mapping")
    violations = [f"{_key(key)}: unknown section" for key in data if key not in _SCHEMA and key != "workers"]
    parsed: dict[str, dict] = {}
    for name, keys in _SCHEMA.items():
        section = {} if data.get(name) is None else data[name]
        if not isinstance(section, dict):
            violations.append(f"{name}: must be a mapping")
            section = {}
        violations += [f"{name}.{_key(key)}: unknown key" for key in section if key not in keys]
        parsed[name] = values = {}
        for key, (default, rule) in keys.items():
            values[key] = section.get(key, default)
            if message := rule(values[key]):
                violations.append(f"{name}.{key}: {message}")
    workers = data.get("workers", 1)
    if message := COUNT(workers):
        violations.append(f"workers: {message}")
    if violations:
        raise ValidationError("\n  - ".join([f"invalid config ({len(violations)} issue(s)):", *violations]))
    env, run = parsed["environment"], parsed["run"]
    run.update(delta=float(run["delta"]), beta_scale=float(run["beta_scale"]), seeds=list(run["seeds"]))
    return ScenarioConfig(
        generator=env["generator"],
        generator_seed=env["seed"],
        generator_params={} if env["params"] is None else env["params"],
        **parsed["classes"],
        **run,
        diagnostics=DiagnosticsConfig(**parsed["diagnostics"]),
        output=OutputConfig(**parsed["output"]),
        workers=workers,
        raw=data,
    )


def parse_yaml(text: str):
    """Parse YAML text with the safe loader; raises yaml.YAMLError, or ValueError
    for a scalar the loader's own int() or date() refuses.

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
    except (yaml.YAMLError, ValueError) as exc:
        raise ParseError(f"cannot parse config {path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ParseError(f"config {path} must contain a mapping at the top level")
    return config_from_dict(data)

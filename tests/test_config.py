"""Config schema: defaults, aggregated violations, YAML loading."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from strategicmdp import GENERATORS, CapacityError, ParseError, SelectionMode, ValidationError, config
from strategicmdp.cli import main
from strategicmdp.config import (
    YAML_LOADER,
    DiagnosticsConfig,
    OutputConfig,
    ScenarioConfig,
    config_from_dict,
    load_config,
    parse_yaml,
)
from strategicmdp.harness import build_from_config, run_config_for

from helpers import BASE_YAML, DYN_YAML, ref_config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"

CONTRACT_YAML = "environment:\n  generator: contract-small\nrun:\n  episodes: 7\n  seeds: [2]\n"


def readme_config() -> str:
    """The annotated YAML block under the README's "Config grammar" heading."""
    return re.search(r"## Config grammar\n.*?```yaml\n(.*?)```", README.read_text(), re.S).group(1)


# Every valid config the tests write, and the README's annotated example.
VALID_CONFIGS = {
    "contract": CONTRACT_YAML,
    "cli-base": BASE_YAML.format(root="runs"),
    "cli-workers": BASE_YAML.format(root="runs") + "workers: 2\n",
    "cli-dyn": DYN_YAML.format(root="runs"),
    "readme": readme_config(),
}


def minimal(**env_extra):
    return {"environment": {"generator": "recsys-small", **env_extra}}


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(minimal())
    assert cfg.generator == "recsys-small"
    assert cfg.generator_seed == 0
    assert cfg.generator_params == {}
    assert cfg.per_step_cap == 8
    assert cfg.joint_cap == 1_000_000
    assert cfg.episodes == 100
    assert cfg.delta == 0.1
    assert cfg.beta_scale == 1.0
    assert cfg.optimism == "exact"
    assert cfg.seeds == [0]
    assert cfg.evaluation_cadence == 50
    assert cfg.strict_realizability is False
    assert cfg.selector_cap == 1_000_000
    assert cfg.diagnostics.regret is True
    assert cfg.diagnostics.ill_posedness is False
    assert cfg.diagnostics.policy_budget == 4096
    assert cfg.output.root == "runs"
    assert cfg.output.label is None
    assert cfg.workers == 1
    assert cfg.raw == minimal()


@pytest.mark.parametrize("mode", list(SelectionMode))
def test_run_options_reach_the_run_config(mode):
    """Each optimism value of the schema is a SelectionMode, and the run
    config built from a scenario config carries it and the selector cap."""
    cfg = config_from_dict({**minimal(), "run": {"optimism": mode.value, "selector_cap": 7}})
    scenario = build_from_config(cfg)
    run = run_config_for(cfg, scenario, seed=4)
    run.validate()
    assert run.optimism is mode
    assert run.selector_cap == 7
    assert run.seed == 4
    assert run.mode is scenario.model.transition_mode


def test_full_config_round_trips():
    data = {
        "environment": {"generator": "dyn-1d", "seed": 5, "params": {"noiseless": True}},
        "classes": {"per_step_cap": 12, "joint_cap": 500},
        "run": {
            "episodes": 250,
            "delta": 0.05,
            "beta_scale": 0.1,
            "optimism": "pointwise",
            "seeds": [3, 4, 5],
            "evaluation_cadence": 10,
            "strict_realizability": True,
            "selector_cap": 4000,
        },
        "diagnostics": {"ill_posedness": True, "transfer": True, "policy_budget": 64},
        "output": {"root": "out", "label": "trial"},
        "workers": 2,
    }
    cfg = config_from_dict(data)
    assert cfg.generator == "dyn-1d"
    assert cfg.generator_params == {"noiseless": True}
    assert cfg.episodes == 250
    assert cfg.optimism == "pointwise"
    assert cfg.seeds == [3, 4, 5]
    assert cfg.evaluation_cadence == 10
    assert cfg.strict_realizability is True
    assert cfg.diagnostics.transfer is True
    assert cfg.output.label == "trial"
    assert cfg.workers == 2


def violations_of(data):
    with pytest.raises(ValidationError) as err:
        config_from_dict(data)
    return str(err.value)


def test_recompute_every_is_an_unknown_key(tmp_path, capsys):
    # Confidence sets are rebuilt every episode; there is no rebuild period.
    msg = violations_of({**minimal(), "run": {"recompute_every": 25}})
    assert "run.recompute_every: unknown key" in msg
    p = tmp_path / "exp.yaml"
    p.write_text(CONTRACT_YAML + "  recompute_every: 3\n")
    assert main(["validate", str(p)]) == 2
    assert "run.recompute_every: unknown key" in capsys.readouterr().err


def test_readme_config_block_matches_the_schema():
    """The README's config block validates and names every key of every
    section, and no key the schema does not know."""
    data = parse_yaml(readme_config())
    config_from_dict(data)
    assert set(data) == {*config._SCHEMA, "workers"}
    for section, keys in config._SCHEMA.items():
        assert set(data[section]) == set(keys), section


def test_schema_keys_are_the_config_fields():
    """A key declared in the table but not in its config class, or the
    reverse, fails here rather than when a config first sets it."""

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(config._SCHEMA["diagnostics"]) == names(DiagnosticsConfig)
    assert set(config._SCHEMA["output"]) == names(OutputConfig)
    assert set(config._SCHEMA["classes"]) | set(config._SCHEMA["run"]) <= names(ScenarioConfig)


SCALARS = st.one_of(
    st.integers(-3, 10),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=3),
    st.sampled_from(["", "exact", "pointwise", "runs", *sorted(GENERATORS)]),
    st.none(),
)
JUNK = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.sampled_from([[], [1, 1], [0, 2, 2], [True]]),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)
POSITIVE = st.integers(1, 9)
VALID = {
    "environment": {
        "generator": st.sampled_from(sorted(GENERATORS)),
        "seed": st.integers(0, 9),
        "params": st.one_of(st.none(), st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)),
    },
    "classes": {"per_step_cap": POSITIVE, "joint_cap": POSITIVE},
    "run": {
        "episodes": POSITIVE,
        "delta": st.floats(0.01, 0.99),
        "beta_scale": st.one_of(POSITIVE, st.floats(0.1, 5.0)),
        "optimism": st.sampled_from([m.value for m in SelectionMode]),
        "seeds": st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
        "evaluation_cadence": POSITIVE,
        "strict_realizability": st.booleans(),
        "selector_cap": POSITIVE,
    },
    "diagnostics": {
        "regret": st.booleans(),
        "naive_baseline": st.booleans(),
        "ill_posedness": st.booleans(),
        "transfer": st.booleans(),
        "policy_budget": POSITIVE,
    },
    "output": {"root": st.text(min_size=1, max_size=3), "label": st.one_of(st.none(), st.text(max_size=3))},
}
UNKNOWN = st.sampled_from(["bogus", "mode", "recompute_every", 3, None])


@st.composite
def config_mappings(draw):
    """A mapping a parsed config could be. A clean one has only known keys,
    valid values and a generator, so it parses, and any key may be left to
    its default; otherwise sections may be null, not mappings or absent,
    and any key may hold junk or be unknown."""
    clean = draw(st.booleans())
    entries = []
    for name, keys in VALID.items():
        shape = "mapping" if clean else draw(st.sampled_from(["mapping"] * 4 + ["absent", "null", "junk"]))
        if shape == "null":
            entries.append((name, None))
        elif shape == "junk":
            entries.append((name, draw(JUNK)))
        elif shape == "mapping":
            section = []
            for key, valid in keys.items():
                kinds = ["absent", "valid"] if clean else ["absent", "valid", "junk", "junk"]
                kind = "valid" if clean and key == "generator" else draw(st.sampled_from(kinds))
                if kind != "absent":
                    section.append((key, draw(valid if kind == "valid" else JUNK)))
            if not clean:
                section += draw(st.lists(st.tuples(UNKNOWN, JUNK), max_size=2))
            entries.append((name, dict(draw(st.permutations(section)))))
    workers = draw(st.sampled_from(["absent", "valid"] if clean else ["absent", "valid", "junk"]))
    if workers != "absent":
        entries.append(("workers", draw(POSITIVE if workers == "valid" else JUNK)))
    if not clean:
        entries += draw(st.lists(st.tuples(UNKNOWN, JUNK), max_size=2))
    return dict(draw(st.permutations(entries)))


def parsed_or_violations(parse, data):
    try:
        return parse(data)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(config_mappings())
def test_schema_parser_matches_the_reference_parser(data):
    """The table-driven parser gives the reference parser's config, or its
    violations in the same order. The one difference: the reference read a
    falsy non-mapping environment.params ([], 0, false, "") as {}, the table
    refuses it, as the reference refuses a truthy one."""
    expected_input = data
    env = data.get("environment")
    if isinstance(env, dict) and not isinstance(env.get("params", {}), dict):
        if env["params"] is not None and not env["params"]:
            expected_input = {**data, "environment": {**env, "params": ["not a mapping"]}}
    got = parsed_or_violations(config_from_dict, data)
    assert got == parsed_or_violations(ref_config_from_dict, expected_input)


@pytest.mark.parametrize("params", [[], 0, False, "", [1], "x"])
def test_environment_params_must_be_a_mapping_when_given(params):
    assert "environment.params: must be a mapping" in violations_of(minimal(params=params))


@pytest.mark.parametrize("params", [None, {}])
def test_null_or_empty_environment_params_are_no_options(params):
    assert config_from_dict(minimal(params=params)).generator_params == {}


def test_all_violations_reported_at_once():
    data = {
        "environment": {"generator": "nope", "bogus": 1},
        "run": {"episodes": 0, "delta": 1.5, "seeds": [1, 1]},
        "mystery": {},
    }
    msg = violations_of(data)
    assert "invalid config (6 issue(s))" in msg
    assert "environment.generator" in msg
    assert "environment.bogus: unknown key" in msg
    assert "run.episodes" in msg
    assert "run.delta" in msg
    assert "run.seeds: duplicate seeds [1]" in msg
    assert "mystery: unknown section" in msg or "mystery" in msg


def test_missing_generator_is_required():
    msg = violations_of({"environment": {}})
    assert "environment.generator: required" in msg


def test_delta_bounds():
    for bad in (0, 1, -0.1, 2, "x", True):
        msg = violations_of({**minimal(), "run": {"delta": bad}})
        assert "run.delta" in msg
    config_from_dict({**minimal(), "run": {"delta": 0.5}})


def test_episodes_must_be_positive_int():
    for bad in (0, -3, 1.5, "many", True):
        msg = violations_of({**minimal(), "run": {"episodes": bad}})
        assert "run.episodes" in msg


def test_beta_scale_positive():
    msg = violations_of({**minimal(), "run": {"beta_scale": 0.0}})
    assert "run.beta_scale" in msg


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_beta_scale_finite(value):
    msg = violations_of({**minimal(), "run": {"beta_scale": value}})
    assert "run.beta_scale" in msg


@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_beta_scale_too_large_for_a_float_is_a_violation(value):
    msg = violations_of({**minimal(), "run": {"beta_scale": value}})
    assert "run.beta_scale" in msg


def test_optimism_enum():
    msg = violations_of({**minimal(), "run": {"optimism": "greedy"}})
    assert "run.optimism" in msg


def test_seeds_shape_errors():
    for bad in ([], [1.5], "0", [True], [-1]):
        msg = violations_of({**minimal(), "run": {"seeds": bad}})
        assert "run.seeds" in msg


def test_negative_generator_seed_rejected(tmp_path, capsys):
    """A negative seed would only fail inside the seeded generator, mid-run."""
    msg = violations_of(minimal(seed=-1))
    assert "environment.seed" in msg
    p = tmp_path / "neg.yaml"
    p.write_text("environment:\n  generator: linear-d\n  seed: -1\n")
    assert main(["run", str(p), "--output-root", str(tmp_path / "runs")]) == 2
    assert "environment.seed" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_mode_is_an_unknown_key(tmp_path, capsys):
    # The transition mode is the generator's own; a config cannot name it.
    msg = violations_of(minimal(mode="general"))
    assert "environment.mode: unknown key" in msg
    p = tmp_path / "exp.yaml"
    p.write_text("environment:\n  generator: dyn-1d\n  mode: dynamical\n")
    assert main(["validate", str(p)]) == 2
    assert "environment.mode: unknown key" in capsys.readouterr().err


def test_class_caps_bound_the_closure_when_the_scenario_is_built():
    """A per-step cap above the default admits more candidates, and a joint
    cap below the closure's enumeration stops the build."""
    env = {"generator": "linear-d", "params": {"num_candidates": 9}}
    scenario = build_from_config(config_from_dict({"environment": env, "classes": {"per_step_cap": 10}}))
    assert scenario.classes.caps.per_step == 10
    assert len(scenario.classes.reward_tables[0]) == 9
    squeezed = config_from_dict({"environment": {"generator": "linear-d"}, "classes": {"joint_cap": 2}})
    with pytest.raises(CapacityError, match="81 joint models, cap is 2"):
        build_from_config(squeezed)


def test_bool_fields_reject_nonbool():
    msg = violations_of({**minimal(), "run": {"strict_realizability": 1}})
    assert "run.strict_realizability" in msg
    msg = violations_of({**minimal(), "diagnostics": {"regret": "yes"}})
    assert "diagnostics.regret" in msg


def test_section_must_be_mapping_but_null_is_empty():
    msg = violations_of({**minimal(), "run": [1, 2]})
    assert "run: must be a mapping" in msg
    cfg = config_from_dict({**minimal(), "run": None})
    assert cfg.episodes == 100


def test_workers_positive():
    msg = violations_of({**minimal(), "workers": 0})
    assert "workers" in msg


def test_load_config_reads_yaml(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(CONTRACT_YAML)
    cfg = load_config(p)
    assert cfg.generator == "contract-small"
    assert cfg.episodes == 7
    assert cfg.seeds == [2]


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("environment: [unclosed\n")
    with pytest.raises(ParseError, match="cannot parse"):
        load_config(p)


def test_loader_is_libyaml_when_compiled_in():
    if yaml.__with_libyaml__:
        assert YAML_LOADER is yaml.CSafeLoader
    else:
        assert YAML_LOADER is yaml.SafeLoader


@pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
def test_load_config_raw_equals_pure_python_safe_load(tmp_path, name):
    text = VALID_CONFIGS[name]
    p = tmp_path / f"{name}.yaml"
    p.write_text(text)
    assert load_config(p).raw == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize(
    "text",
    [
        "environment:\n  generator: nope\nrun:\n  episodes: 0\n",
        "- a\n- b\n",
        "",
        "3",
        "0.1",
        "1e-3",
        "[1, 2]",
        "null",
        "true",
        "pointwise",
        "{a: 1}",
    ],
)
def test_parse_yaml_equals_pure_python_safe_load(text):
    assert parse_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader)


def test_load_config_non_mapping(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- a\n- b\n")
    with pytest.raises(ParseError, match="mapping at the top level"):
        load_config(p)


def test_load_config_empty_file_means_empty_mapping(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    with pytest.raises(ValidationError, match="environment.generator"):
        load_config(p)


# ---------------------------------------------------------------------------
# Duplicate mapping keys
# ---------------------------------------------------------------------------

LOADERS = sorted({YAML_LOADER, yaml.SafeLoader}, key=lambda loader: loader.__name__)


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__name__)
def loader(request, monkeypatch):
    """Parse with the duplicate-rejecting subclass of each available loader."""
    monkeypatch.setattr(config, "_LOADER", config._unique_key_loader(request.param))
    return request.param


DUPLICATE_RUN = (
    "environment:\n  generator: recsys-small\n"
    "run:\n  episodes: 5\n"
    "run:\n  seeds: [1]\n"
)


def test_duplicate_top_level_key_is_rejected(tmp_path, loader):
    p = tmp_path / "twice.yaml"
    p.write_text(DUPLICATE_RUN)
    with pytest.raises(ParseError, match="(?s)cannot parse.*duplicate key 'run'") as err:
        load_config(p)
    assert "line 5" in str(err.value)  # where the second key is


@pytest.mark.parametrize(
    "text, key",
    [
        ("run:\n  episodes: 5\n  delta: 0.1\n  episodes: 6\n", "'episodes'"),
        ("a: {x: 1, y: 2, x: 3}\n", "'x'"),
        ("- {x: 1}\n- {x: 1, x: 1}\n", "'x'"),
        ("1: a\n1.0: b\n", "1.0"),
    ],
)
def test_duplicate_nested_keys_are_rejected(text, key, loader):
    with pytest.raises(yaml.YAMLError, match=f"duplicate key {re.escape(key)}"):
        parse_yaml(text)


def test_merge_keys_are_not_duplicates(loader):
    text = "base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  x: 3\n"
    assert parse_yaml(text) == {"base": {"x": 1, "y": 2}, "d": {"x": 3, "y": 2}}
    assert parse_yaml(text) == yaml.load(text, Loader=loader)


def test_unhashable_key_still_reported_by_the_loader(loader):
    with pytest.raises(yaml.YAMLError, match="unhashable key"):
        parse_yaml("? [1, 2]\n: 3\n")


def test_sweep_rejects_duplicate_key_in_param_value(tmp_path, capsys, loader):
    p = tmp_path / "base.yaml"
    p.write_text(CONTRACT_YAML)
    # values are split at commas, so the repeated key comes in block style
    assert main(["sweep", str(p), "--param", "environment.params=a: 1\na: 2"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse --param environment.params" in err
    assert "duplicate key 'a'" in err


# ---------------------------------------------------------------------------
# Scalars the loader cannot convert
# ---------------------------------------------------------------------------

HUGE = "1" + "0" * 5000  # past Python's 4300-digit int-to-str limit


@pytest.mark.parametrize(
    "value, reason", [("-" + HUGE, "4300 digits"), ("2020-13-45", "month must be")], ids=["huge-int", "bad-date"]
)
def test_validate_refuses_a_scalar_the_loader_cannot_convert(tmp_path, capsys, loader, value, reason):
    """The loader's own int() and date() raised a bare ValueError, a runtime failure with exit 3."""
    p = tmp_path / "huge.yaml"
    p.write_text(f"environment:\n  generator: recsys-small\nrun:\n  episodes: {value}\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse config {p}: ") and reason in err


def test_sweep_refuses_a_param_value_past_the_int_digit_limit(tmp_path, capsys, loader):
    p = tmp_path / "base.yaml"
    p.write_text(CONTRACT_YAML)
    assert main(["sweep", str(p), "--param", f"run.episodes={HUGE}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse --param run.episodes: ") and "4300 digits" in err

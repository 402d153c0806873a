"""Config schema: defaults, aggregated violations, YAML loading."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

from strategicmdp import CapacityError, ParseError, SelectionMode, ValidationError, config
from strategicmdp.cli import main
from strategicmdp.config import YAML_LOADER, config_from_dict, load_config, parse_yaml
from strategicmdp.harness import build_from_config, run_config_for

from helpers import BASE_YAML, DYN_YAML

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
    assert set(data) == config._TOP_KEYS
    schema = {
        "environment": config._ENV_KEYS,
        "classes": config._CLASS_KEYS,
        "run": config._RUN_KEYS,
        "diagnostics": config._DIAG_KEYS,
        "output": config._OUT_KEYS,
    }
    for section, keys in schema.items():
        assert set(data[section]) == keys, section


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

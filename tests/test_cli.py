"""End-to-end command line: artifacts, reproducibility, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from strategicmdp import RunConfig, build_scenario, driver, harness, run_learner
from strategicmdp.cli import ENV_OUTPUT, main
from strategicmdp.config import load_config
from strategicmdp.harness import EPISODE_COLUMNS, SUMMARY_COLUMNS

from helpers import BASE_YAML, DYN_YAML, ref_truth_in_record

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def config_path(tmp_path):
    def write(body=BASE_YAML, name="exp.yaml", root=None):
        root = str(tmp_path / "runs") if root is None else str(root)
        p = tmp_path / name
        p.write_text(body.format(root=root))
        return p

    return write


def read_rows(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_validate_ok(config_path, capsys):
    p = config_path()
    assert main(["validate", str(p)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_all_issues(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("environment:\n  generator: nope\nrun:\n  episodes: 0\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "2 issue(s)" in err
    assert "environment.generator" in err
    assert "run.episodes" in err


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_validate_rejects_non_finite_beta_scale(config_path, capsys, value):
    p = config_path(BASE_YAML.replace("beta_scale: 0.1", f"beta_scale: {value}"))
    assert main(["validate", str(p)]) == 2
    assert "run.beta_scale" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_writes_artifact_tree(config_path, tmp_path, capsys):
    p = config_path()
    assert main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    exp = tmp_path / "runs" / "recsys-small"
    assert str(exp) in out

    manifest = json.loads((exp / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["seeds"] == [0, 1]
    assert manifest["scenario"] == "recsys-small"
    assert manifest["mode"] == "general"
    assert isinstance(manifest["optimal_target_value"], float)

    rows = read_rows(exp / "summary.csv")
    assert rows[0] == SUMMARY_COLUMNS
    assert [r[0] for r in rows[1:]] == ["3", "6"]
    assert all(r[1] == "2" for r in rows[1:])

    for seed in (0, 1):
        sd = exp / f"seed-{seed:04d}"
        erows = read_rows(sd / "episodes.csv")
        assert erows[0] == EPISODE_COLUMNS
        assert len(erows) == 1 + 6
        assert all(r[0] == str(seed) for r in erows[1:])
        assert [r[1] for r in erows[1:]] == [str(k) for k in range(1, 7)]
        diag = json.loads((sd / "diagnostics.json").read_text())
        assert "regret" in diag and "naive_baseline" in diag
        sm = json.loads((sd / "manifest.json").read_text())
        assert sm["seed"] == seed
        assert sm["truth_event"] in (True, False)


def strip_wallclock_csv(path):
    return [row[:-1] for row in read_rows(path)]


def strip_wallclock_json(path):
    data = json.loads(path.read_text())
    data.pop("wallclock_ms", None)
    return data


def test_run_twice_is_identical_modulo_wallclock(config_path, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", str(config_path(root=a, name="a.yaml"))]) == 0
    assert main(["run", str(config_path(root=b, name="b.yaml"))]) == 0
    ea = a / "recsys-small"
    eb = b / "recsys-small"
    assert (ea / "summary.csv").read_bytes() == (eb / "summary.csv").read_bytes()
    for seed in (0, 1):
        sa, sb = ea / f"seed-{seed:04d}", eb / f"seed-{seed:04d}"
        assert strip_wallclock_csv(sa / "episodes.csv") == strip_wallclock_csv(sb / "episodes.csv")
        assert (sa / "diagnostics.json").read_bytes() == (sb / "diagnostics.json").read_bytes()
        ma, mb = strip_wallclock_json(sa / "manifest.json"), strip_wallclock_json(sb / "manifest.json")
        ma["config"].pop("output"), mb["config"].pop("output")
        assert ma == mb


def test_diagnose_writes_oracles(config_path, tmp_path, capsys):
    p = config_path()
    assert main(["diagnose", str(p)]) == 0
    assert "diagnostics.json" in capsys.readouterr().out
    diag = json.loads((tmp_path / "runs" / "recsys-small" / "diagnostics.json").read_text())
    assert diag["scenario"] == "recsys-small"
    assert diag["realizability"]["passed"] is True
    assert len(diag["ill_posedness"]) == 3
    assert len(diag["transfer"]) == 3
    for entry in diag["ill_posedness"]:
        assert entry["infinite"] or entry["value"] >= 1.0


def test_sweep_runs_every_grid_point(config_path, tmp_path, capsys):
    p = config_path()
    rc = main(["sweep", str(p), "--param", "run.episodes=3,5", "--param", "run.beta_scale=0.1,0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == 4
    assert "[episodes=3,beta_scale=0.1]" in out
    runs = tmp_path / "runs"
    dirs = sorted(d.name for d in runs.iterdir())
    assert dirs == [
        "recsys-small_episodes-3_beta_scale-0.1",
        "recsys-small_episodes-3_beta_scale-0.2",
        "recsys-small_episodes-5_beta_scale-0.1",
        "recsys-small_episodes-5_beta_scale-0.2",
    ]
    m = json.loads((runs / dirs[0] / "manifest.json").read_text())
    assert m["config"]["run"]["episodes"] == 3
    assert m["status"] == "ok"


def test_sweep_requires_params(config_path, capsys):
    assert main(["sweep", str(config_path())]) == 2
    assert "--param" in capsys.readouterr().err


def test_sweep_rejects_malformed_param(config_path, capsys):
    assert main(["sweep", str(config_path()), "--param", "run.episodes"]) == 2
    assert "key=v1,v2" in capsys.readouterr().err


def test_sweep_rejects_unparsable_param_value(config_path, capsys):
    assert main(["sweep", str(config_path()), "--param", "run.episodes=[1"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse --param run.episodes" in err
    assert "runtime failure" not in err


def test_sweep_rejects_a_repeated_param_key(config_path, tmp_path, capsys):
    p = config_path()
    rc = main(["sweep", str(p), "--param", "run.episodes=2,3", "--param", " run.episodes=4"])
    assert rc == 2
    assert "--param run.episodes is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_sweep_rejects_invalid_grid_point(config_path, capsys):
    assert main(["sweep", str(config_path()), "--param", "run.delta=0.05,7"]) == 2
    err = capsys.readouterr().err
    assert "sweep point [delta=7]" in err


def test_interrupted_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "diagnostics.json"
    path.write_text("old\n")

    def fill(fh):
        fh.write("new, half written")
        raise OSError("disk full")

    for target in (path, tmp_path / "manifest.json"):
        with pytest.raises(OSError, match="disk full"):
            harness._write_atomic(target, fill)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["diagnostics.json"]


def test_failed_episodes_write_keeps_previous_csv(config_path, tmp_path):
    assert main(["run", str(config_path())]) == 0
    seed_dir = tmp_path / "runs" / "recsys-small" / "seed-0000"
    before = sorted(os.listdir(seed_dir))
    old = (seed_dir / "episodes.csv").read_bytes()
    scenario = build_scenario("recsys-small")
    cfg = RunConfig(episodes=3, delta=0.1, mode=scenario.model.transition_mode, seed=0)
    run = run_learner(scenario.model, scenario.knowledge(), scenario.classes, cfg)
    # Regret is filled in for the first record only, so the write fails at the second row.
    run.episodes[0].instant_regret = run.episodes[0].cum_regret = 0.0
    with pytest.raises(TypeError):
        harness.write_episodes_csv(seed_dir / "episodes.csv", 0, run)
    assert (seed_dir / "episodes.csv").read_bytes() == old
    assert sorted(os.listdir(seed_dir)) == before


@pytest.mark.parametrize(
    "truth_reward_idx, final", [(None, True), ([1, 0, 0], False), ([None, 0, 0], None)]
)
def test_truth_check_runs_once_per_distinct_set_pair(
    config_path, tmp_path, monkeypatch, truth_reward_idx, final
):
    """The learner checks the designated truth once per distinct set key, and
    run_seed's checkpoints match the harness's earlier check made on every
    record. The designations cover a surviving truth, one that leaves (False)
    and an undesignated step (None)."""
    body = BASE_YAML.replace("episodes: 6", "episodes: 40").replace("beta_scale: 0.1", "beta_scale: 0.0001")
    cfg = load_config(config_path(body=body.replace("evaluation_cadence: 3", "evaluation_cadence: 5")))
    runs, calls = [], []
    real_run, real_truth = harness.run_learner, driver._truth_covered
    scenario = harness.build_from_config(cfg)
    if truth_reward_idx is not None:
        scenario.classes = dataclasses.replace(scenario.classes, truth_reward_idx=truth_reward_idx)

    def run(*args):
        runs.append(real_run(*args))
        return runs[-1]

    def truth(classes, reward_sets, families):
        calls.append((reward_sets, tuple(per_family[0] for per_family in families)))
        return real_truth(classes, reward_sets, families)

    monkeypatch.setattr(harness, "run_learner", run)
    monkeypatch.setattr(driver, "_truth_covered", truth)
    outcome = harness.run_seed(cfg, 0, tmp_path / "seed-0000", scenario, {})
    (result,) = runs
    keys = [(rec.reward_sets, rec.transition_sets) for rec in result.episodes]
    assert calls == list(dict.fromkeys(keys)) and len(calls) < len(keys)
    classes = scenario.classes
    want, ok = {}, True
    for rec in result.episodes:
        t = ref_truth_in_record(rec, classes)
        assert rec.truth_covered == t
        if t is None:
            ok = None
        elif ok is True and not t:
            ok = False
        if rec.episode % 5 == 0:
            want[rec.episode] = ok
    assert outcome.truth_prefix_at == want
    assert want[40] is final


def test_every_artifact_is_written_atomically(config_path, tmp_path, monkeypatch):
    written = []
    real = harness._write_atomic

    def spy(path, fill):
        written.append(path.relative_to(tmp_path / "runs").as_posix())
        real(path, fill)

    monkeypatch.setattr(harness, "_write_atomic", spy)
    assert main(["run", str(config_path())]) == 0
    assert main(["diagnose", str(config_path(root=tmp_path / "runs" / "diag"))]) == 0
    body = BASE_YAML + "classes:\n  per_step_cap: 1\n"
    assert main(["run", str(config_path(body=body, root=tmp_path / "runs" / "err"))]) == 3
    per_seed = ("episodes.csv", "diagnostics.json", "manifest.json")
    assert sorted(written) == sorted(
        [f"recsys-small/seed-000{s}/{f}" for s in (0, 1) for f in per_seed]
        + [
            "recsys-small/summary.csv",
            "recsys-small/manifest.json",
            "diag/recsys-small/diagnostics.json",
            "err/recsys-small/manifest.json",
        ]
    )
    error_manifest = tmp_path / "runs" / "err" / "recsys-small" / "manifest.json"
    assert json.loads(error_manifest.read_text())["status"] == "error"
    leftovers = [p for p in (tmp_path / "runs").rglob("*") if p.name.endswith(".tmp")]
    assert leftovers == []


def test_run_capacity_failure_exits_3_and_marks_manifest(config_path, tmp_path, capsys):
    body = BASE_YAML + "classes:\n  per_step_cap: 1\n"
    p = config_path(body=body)
    assert main(["run", str(p)]) == 3
    assert "CapacityError" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "runs" / "recsys-small" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "CapacityError" in manifest["error"]


def test_run_joint_cap_failure_exits_3_and_marks_manifest(config_path, tmp_path, capsys):
    body = BASE_YAML.replace("recsys-small", "linear-d") + "classes:\n  joint_cap: 2\n"
    assert main(["run", str(config_path(body=body))]) == 3
    assert "cap is 2" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "runs" / "linear-d" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "CapacityError" in manifest["error"] and "cap is 2" in manifest["error"]


def test_output_root_env_and_flag_priority(config_path, tmp_path, monkeypatch, capsys):
    env_root = tmp_path / "from-env"
    flag_root = tmp_path / "from-flag"
    monkeypatch.setenv(ENV_OUTPUT, str(env_root))
    p = config_path()
    assert main(["run", str(p)]) == 0
    assert (env_root / "recsys-small" / "manifest.json").exists()
    assert main(["run", str(p), "--output-root", str(flag_root)]) == 0
    assert (flag_root / "recsys-small" / "manifest.json").exists()
    capsys.readouterr()


def test_output_label_overrides_directory_name(config_path, tmp_path):
    body = BASE_YAML + "  label: my-trial\n"
    assert main(["run", str(config_path(body=body))]) == 0
    assert (tmp_path / "runs" / "my-trial" / "summary.csv").exists()


def test_workers_parallel_matches_serial(config_path, tmp_path):
    """The pool's seeds run on a pickled copy of the experiment's scenario and
    write the same episodes, manifests and diagnostics as the serial path."""
    a, b = tmp_path / "serial", tmp_path / "par"
    assert main(["run", str(config_path(root=a, name="s.yaml"))]) == 0
    body = BASE_YAML + "workers: 2\n"
    assert main(["run", str(config_path(body=body, root=b, name="p.yaml"))]) == 0
    for seed in (0, 1):
        sa = a / "recsys-small" / f"seed-{seed:04d}"
        sb = b / "recsys-small" / f"seed-{seed:04d}"
        assert strip_wallclock_csv(sa / "episodes.csv") == strip_wallclock_csv(sb / "episodes.csv")
        ma, mb = (strip_wallclock_json(d / "manifest.json") for d in (sa, sb))
        for m in (ma, mb):  # the config echoes differ in workers and output root only
            m["config"].pop("workers", None)
            m["config"]["output"].pop("root")
        assert ma == mb
        assert (sa / "diagnostics.json").read_bytes() == (sb / "diagnostics.json").read_bytes()


def test_scenario_is_built_once_per_experiment(config_path, monkeypatch):
    """run builds the scenario once for all its seeds, and diagnose once."""
    calls = []
    real = harness.build_scenario

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "build_scenario", spy)
    assert main(["run", str(config_path())]) == 0
    assert len(calls) == 1
    assert main(["diagnose", str(config_path())]) == 0
    assert len(calls) == 2


def test_interrupted_run_exits_130_and_marks_manifest(config_path, tmp_path, monkeypatch, capsys):
    """An interrupt during the second seed leaves an `interrupted` experiment
    manifest, the first seed's artifacts whole, and a one-line message."""
    real = harness.run_learner

    def run(*args):
        if args[3].seed == 1:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(harness, "run_learner", run)
    try:
        code = main(["run", str(config_path())])
    except KeyboardInterrupt:  # escaping would stop the whole test session
        pytest.fail("cli.main let the interrupt through")
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    exp = tmp_path / "runs" / "recsys-small"
    manifest = json.loads((exp / "manifest.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["error"] == "KeyboardInterrupt"
    assert sorted(p.name for p in (exp / "seed-0000").iterdir()) == [
        "diagnostics.json", "episodes.csv", "manifest.json"
    ]
    assert len(read_rows(exp / "seed-0000" / "episodes.csv")) == 6 + 1
    assert json.loads((exp / "seed-0000" / "manifest.json").read_text())["seed"] == 0
    assert not (exp / "seed-0001").exists() and not (exp / "summary.csv").exists()


def run_console_script(name, args, cwd):
    """Run the ``[project.scripts]`` entry ``name`` from pyproject.toml in a
    fresh interpreter, through the same wrapper pip generates for an installed
    console script, with this checkout's ``src`` first on PYTHONPATH."""
    toml = tomllib if tomllib is not None else pytest.importorskip("tomli")
    with (REPO / "pyproject.toml").open("rb") as fh:
        target = toml.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    wrapper = (
        "import sys\n"
        f"sys.argv[0] = {name!r}\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True, text=True, cwd=cwd, env=src_env(),
    )


def src_env():
    """The current environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_console_script_entry_point(config_path, tmp_path):
    p = config_path()
    proc = run_console_script("strategicmdp", ["validate", str(p)], tmp_path)
    assert proc.returncode == 0
    assert "valid" in proc.stdout
    # The wrapper hands main()'s return value to sys.exit.
    missing = run_console_script(
        "strategicmdp", ["validate", str(tmp_path / "absent.yaml")], tmp_path
    )
    assert missing.returncode == 2
    assert "cannot read" in missing.stderr


def test_python_m_entry_point(config_path, tmp_path):
    def run_module(*args):
        return subprocess.run(
            [sys.executable, "-m", "strategicmdp", *args],
            capture_output=True, text=True, cwd=tmp_path, env=src_env(),
        )

    proc = run_module("validate", str(config_path()))
    assert proc.returncode == 0
    assert "valid" in proc.stdout
    missing = run_module("validate", str(tmp_path / "absent.yaml"))
    assert missing.returncode == 2
    assert "cannot read" in missing.stderr


def test_dynamical_path_does_not_import_scipy(tmp_path):
    # The Gaussian discretizers use the package's own normal CDF; scipy is only
    # a test oracle. A fresh interpreter shows what the command line imports.
    cfg = tmp_path / "dyn.yaml"
    cfg.write_text(DYN_YAML.format(root=tmp_path / "runs"))
    script = (
        "import sys\n"
        "from strategicmdp.cli import main\n"
        f"assert main(['diagnose', {str(cfg)!r}]) == 0\n"
        f"assert main(['run', {str(cfg)!r}]) == 0\n"
        "assert 'scipy.special' not in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "runs" / "dyn-1d" / "diagnostics.json").is_file()


def test_serial_path_does_not_import_the_process_pool(config_path, tmp_path):
    # The pool is imported only when workers > 1, so a serial run never loads
    # the multiprocessing stack; test_workers_parallel_matches_serial covers the pool.
    script = (
        "import sys\n"
        "from strategicmdp.cli import main\n"
        "def pool_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
        "print('pool', pool_modules())\n"
        f"assert main(['run', {str(config_path())!r}]) == 0\n"
        "print('pool', pool_modules())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert [l for l in proc.stdout.splitlines() if l.startswith("pool ")] == ["pool []"] * 2
    assert (tmp_path / "runs" / "recsys-small" / "summary.csv").is_file()


@pytest.mark.skipif(
    shutil.which("strategicmdp") is None, reason="strategicmdp is not installed on PATH"
)
def test_console_script_on_path(config_path):
    p = config_path()
    proc = subprocess.run(
        ["strategicmdp", "validate", str(p)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout

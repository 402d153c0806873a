"""The package names that the benchmark in ``bench/`` patches or imports.

The benchmark traces a pass by patching library functions under the names
their callers look them up by, and it builds its workloads from public
constructors. A rename in the package that one of those lookups misses
would crash only a traced benchmark pass; this check makes it fail here.
It only reads ``bench/``.
"""

from __future__ import annotations

import csv
import importlib
from pathlib import Path

import pytest

from strategicmdp import RunConfig, build_scenario, regret_curve, run_learner
from strategicmdp.harness import write_episodes_csv

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    importlib.import_module("synthetic")
    targets = [(owner, attr) for _, pairs, _ in tracing.PATCHES for owner, attr in pairs]
    originals = [owner.__dict__.get(attr) for owner, attr in targets]
    assert [f"{owner.__name__}.{attr}" for (owner, attr), fn in zip(targets, originals) if fn is None] == []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            patched = owner.__dict__[attr]
            unwrapped = patched.__func__ if isinstance(patched, classmethod) else patched
            assert unwrapped.__wrapped__ in (original, getattr(original, "__func__", None))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(targets, originals))


@pytest.mark.parametrize("generator", ["recsys-small", "dyn-1d"])
def test_records_and_episode_rows_count_the_same_joint_models(monkeypatch, tmp_path, generator):
    """deep-general counts the joint models selection scores from the records'
    set sizes, the CLI workloads from episodes.csv; both must count the same.
    A transition_set_sizes that listed per-family tuples instead of model
    counts would break the count from records."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    scenario = build_scenario(generator)
    knowledge = scenario.knowledge()
    cfg = RunConfig(episodes=40, delta=0.1, mode=scenario.model.transition_mode, seed=0, beta_scale=0.1)
    run = run_learner(scenario.model, knowledge, scenario.classes, cfg)
    regret_curve(run, scenario.model, knowledge)
    write_episodes_csv(tmp_path / "episodes.csv", 0, run)
    horizon = scenario.model.horizon
    from_records, from_rows = workloads.WorkCounts(), workloads.WorkCounts()
    for rec in run.episodes:
        sizes = list(rec.reward_set_sizes) + list(rec.transition_set_sizes)
        from_records.add_episode(horizon, sizes, list(rec.flags))
    with (tmp_path / "episodes.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            flags = row["flags"].split(";") if row["flags"] else []
            from_rows.add_episode(horizon, workloads._set_sizes(row["conf_sizes_R"], row["conf_sizes_P"]), flags)
    assert from_records.joint_models == from_rows.joint_models > len(run.episodes)

"""Smoke test of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Checks the result schema against BENCHMARK.json, that every span and metric
is present, that tracing leaves the library unpatched afterwards, and that
the synthetic ``deep-general`` truth is realizable in its closed classes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(BENCH_DIR), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run_bench  # noqa: E402
import tracing  # noqa: E402
from strategicmdp import LearnerKnowledge, check_realizability  # noqa: E402
from synthetic import DeepGeneralSize, build_deep_general  # noqa: E402
from workloads import WORKLOADS, CliWorkload, DeepGeneralWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SIZE = DeepGeneralSize(horizon=2, states=2, candidates=2)
TINY = {
    "recsys-run": CliWorkload("recsys-run", "recsys-small", diagnose=False, num_seeds=2, episodes=4),
    "deep-general": DeepGeneralWorkload("deep-general", num_seeds=2, episodes=4, size=TINY_SIZE),
    "dyn-1d": CliWorkload("dyn-1d", "dyn-1d", diagnose=True, num_seeds=1, episodes=4, policy_budget=8),
}


def test_spec_names_the_workloads_the_script_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run_bench.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run_bench.WORKLOAD_NAMES)
    assert SPEC["command"] == ["python3", "bench/run_bench.py"]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema_and_metric_names(name, trace, tmp_path):
    patched = [(owner, attr, owner.__dict__[attr]) for _, targets, _ in tracing.PATCHES for owner, attr in targets]
    report = run_bench.run_workload(TINY[name], seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)
    line = json.loads(json.dumps(run_bench.summary_line(report)))

    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, report["failures"]
    assert line["attempted"] >= 2 * (TINY[name].num_seeds + int(getattr(TINY[name], "diagnose", False)))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
        return

    assert set(report["spans"]) == set(tracing.SPAN_NAMES)
    assert report["traced_digests"] == report["digests"]
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"
    spans = [json.loads(row) for row in (tmp_path / f"{name}-seed3.spans.jsonl").read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)


def test_every_span_except_the_fallback_selector_runs_somewhere(tmp_path):
    reached = set()
    for name, workload in TINY.items():
        report = run_bench.run_workload(workload, seed=5, seconds=0.0, trace=True, out_dir=tmp_path)
        reached |= {span for span, (calls, _, _) in report["spans"].items() if calls > 0}
    assert set(tracing.SPAN_NAMES) - reached == {"planning.optimistic_select.pointwise"}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("size", [TINY_SIZE, DeepGeneralSize(horizon=3, states=3, candidates=3)])
def test_synthetic_truth_is_realizable(seed, size):
    model, classes = build_deep_general(seed, size)
    report = check_realizability(model, classes, LearnerKnowledge.from_model(model))
    assert report.passed, report.as_dict()
    assert classes.truth_reward_idx == [0] * size.horizon
    for h in range(size.horizon):
        assert classes.reward_tables[h].shape[0] == size.candidates

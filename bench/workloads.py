"""The benchmark's workloads: inputs from a seed, one closed-loop pass, checks.

A workload has a set-up step (load the config and build the scenario with
its class closures, or build the synthetic instance) and an iteration: one
pass of its closed loop, in which a single caller issues a command or a run
and waits for it before sending the next. Each iteration returns its
timings, the operations it attempted with their verdicts, one digest per
operation of the deterministic outputs, and exact work counts.

An operation is one seed run or one diagnose call. It fails on a nonzero CLI
exit, an ``error`` manifest status, an exception, or a failed output check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from strategicmdp import (
    HypothesisClasses,
    LearnerKnowledge,
    RunConfig,
    SelectionMode,
    TransitionMode,
    cli,
    diagnostics,
    driver,
)
from strategicmdp.config import load_config
from strategicmdp.harness import EPISODE_COLUMNS, build_from_config

from synthetic import DeepGeneralSize, build_deep_general

WALLCLOCK = "wallclock_ms"
FALLBACK_FLAG = "selector-capacity-fallback"
STALE_FLAG = "stale-sets"


@dataclass
class Operation:
    key: str
    error: str | None = None
    digest: str | None = None


@dataclass
class Iteration:
    run_wall_s: float
    diagnose_wall_s: float | None
    episode_ms: list[float]
    operations: list[Operation]
    counts: dict[str, float]


@dataclass
class WorkCounts:
    """Exact work done by one iteration; the same on every repeat of a seed."""

    selections: int = 0  # one per confidence-set rebuild
    fallbacks: int = 0
    joint_models: int = 0
    rollout_steps: int = 0
    policies_evaluated: int = 0
    ratio_results: int = 0
    lower_bound_results: int = 0

    def add_episode(self, horizon: int, sizes: list[int], flags: list[str]) -> None:
        self.rollout_steps += horizon
        if STALE_FLAG in flags:
            return
        self.selections += 1
        if FALLBACK_FLAG in flags:
            self.fallbacks += 1
        else:
            self.joint_models += int(np.prod(sizes, dtype=object))

    def add_ratio(self, result: dict) -> None:
        self.ratio_results += 1
        self.policies_evaluated += int(result["num_policies"])
        self.lower_bound_results += int(bool(result["lower_bound_estimate"]))

    def metrics(self, loss_cells_per_recompute: int, sizes) -> dict[str, float]:
        return {
            "planning.select.joint_models": self.joint_models,
            "planning.select.fallback_ratio": self.fallbacks / max(self.selections, 1),
            "estimation.recomputes": self.selections,
            "estimation.loss_cells": self.selections * loss_cells_per_recompute,
            "hypotheses.value_targets": sizes.value_targets,
            "hypotheses.discriminators": sizes.discriminators,
            "diagnostics.policies_evaluated": self.policies_evaluated,
            "diagnostics.lower_bound_share": self.lower_bound_results / max(self.ratio_results, 1),
            "diagnostics.ratio_results": self.ratio_results,
            "model.rollout.steps": self.rollout_steps,
        }


def loss_cells(classes: HypothesisClasses) -> int:
    """Loss cells scored per confidence-set rebuild.

    A cell is one (candidate, discriminator) pair, and for general
    transitions one (candidate, next-step value target, discriminator) triple.
    """
    total = 0
    for h in range(classes.horizon):
        n_disc = classes.discriminators[h].shape[0]
        cells = classes.reward_tables[h].shape[0]
        if classes.mode is TransitionMode.GENERAL:
            cells += classes.transition_tables[h].shape[0] * classes.value_targets[h + 1].shape[0]
        else:
            cells += sum(per.shape[0] for per in classes.mean_map_tables[h])
        total += cells * n_disc
    return total


def derived_seeds(seed: int, count: int) -> list[int]:
    """Distinct learner seeds derived from the workload seed."""
    return random.Random(seed).sample(range(1_000_000), count)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(path: Path, pop: str | None = None) -> tuple[str, dict]:
    data = json.loads(path.read_text())
    if pop is not None:
        data.pop(pop, None)
    return _sha(json.dumps(data, sort_keys=True).encode()), data


def _set_sizes(r_field: str, p_field: str) -> list[int]:
    sizes = [int(n) for n in r_field.split(";")]
    for per in p_field.split(";"):
        sizes.extend(int(n) for n in per.split(","))
    return sizes


# ---------------------------------------------------------------------------
# CLI workloads: recsys-run and dyn-1d
# ---------------------------------------------------------------------------


@dataclass
class CliState:
    config_path: Path
    seeds: list[int]
    classes: HypothesisClasses
    horizon: int


@dataclass(frozen=True)
class CliWorkload:
    """``strategicmdp [diagnose] run`` on a shipped scenario, called in-process."""

    name: str
    generator: str
    diagnose: bool
    num_seeds: int
    episodes: int
    policy_budget: int = 4096

    def config(self, seed: int) -> dict:
        return {
            "environment": {"generator": self.generator},
            "run": {
                "episodes": self.episodes,
                "delta": 0.1,
                "beta_scale": 0.1,
                "optimism": "exact",
                "seeds": derived_seeds(seed, self.num_seeds),
            },
            "diagnostics": {
                "regret": True,
                "naive_baseline": True,
                "ill_posedness": False,
                "transfer": False,
                "policy_budget": self.policy_budget,
            },
            "output": {"label": self.name},
            "workers": 1,
        }

    def prepare(self, seed: int, work_dir: Path) -> Path:
        path = work_dir / f"{self.name}.yaml"
        path.write_text(yaml.safe_dump(self.config(seed), sort_keys=True))
        return path

    def setup(self, config_path: Path) -> CliState:
        cfg = load_config(str(config_path))
        scenario = build_from_config(cfg)
        return CliState(config_path, list(cfg.seeds), scenario.classes, scenario.model.horizon)

    def iteration(self, state: CliState, out_root: Path) -> Iteration:
        shutil.rmtree(out_root, ignore_errors=True)
        counts = WorkCounts()
        operations: list[Operation] = []
        diagnose_s = None
        if self.diagnose:
            start = time.perf_counter()
            code, err = _call_cli(["diagnose", str(state.config_path), "--output-root", str(out_root)])
            diagnose_s = time.perf_counter() - start
            operations.append(self._check_diagnose(out_root, code, err, state, counts))
        start = time.perf_counter()
        code, err = _call_cli(["run", str(state.config_path), "--output-root", str(out_root)])
        run_s = time.perf_counter() - start
        episode_ms: list[float] = []
        operations.extend(self._check_run(out_root, code, err, state, counts, episode_ms))
        return Iteration(
            run_wall_s=run_s,
            diagnose_wall_s=diagnose_s,
            episode_ms=episode_ms,
            operations=operations,
            counts=counts.metrics(loss_cells(state.classes), state.classes.sizes()),
        )

    def _check_diagnose(self, out_root: Path, code: int, err: str, state: CliState, counts: WorkCounts) -> Operation:
        op = Operation("diagnose")
        if code != 0:
            op.error = f"exit {code}: {err.strip()}"
            return op
        try:
            op.digest, diag = _json_digest(out_root / self.name / "diagnostics.json")
            if not diag["realizability"]["passed"]:
                op.error = "realizability check failed"
            for key in ("ill_posedness", "transfer"):
                if len(diag[key]) != state.horizon:
                    op.error = f"{len(diag[key])} {key} results for horizon {state.horizon}"
                for result in diag[key]:
                    counts.add_ratio(result)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            op.error = f"bad diagnostics.json: {exc!r}"
        return op

    def _check_run(self, out_root, code, err, state, counts, episode_ms) -> list[Operation]:
        exp_dir = out_root / self.name
        ops = [Operation(f"seed-{s:04d}") for s in state.seeds]
        shared_error = None
        shared_digest = ""
        if code != 0:
            shared_error = f"exit {code}: {err.strip()}"
        else:
            try:
                digest, manifest = _json_digest(exp_dir / "manifest.json", pop=WALLCLOCK)
                if manifest["status"] != "ok":
                    shared_error = f"manifest status {manifest['status']}"
                shared_digest = digest + _sha((exp_dir / "summary.csv").read_bytes())
            except (OSError, KeyError, TypeError, ValueError) as exc:
                shared_error = f"bad experiment artifacts: {exc!r}"
        for seed, op in zip(state.seeds, ops):
            if shared_error is not None:
                op.error = shared_error
                continue
            try:
                op.digest = _sha(
                    (shared_digest + self._check_seed(exp_dir / op.key, seed, state, counts, episode_ms)).encode()
                )
            except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
                op.error = f"bad seed artifacts: {exc!r}"
            except _CheckFailed as exc:
                op.error = str(exc)
        return ops

    def _check_seed(self, seed_dir: Path, seed: int, state: CliState, counts, episode_ms) -> str:
        with (seed_dir / "episodes.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != EPISODE_COLUMNS:
            raise _CheckFailed(f"episodes.csv header {rows[0]}")
        if len(rows) != self.episodes + 1:
            raise _CheckFailed(f"episodes.csv has {len(rows) - 1} rows, expected {self.episodes}")
        col = EPISODE_COLUMNS.index
        kept = io.StringIO()
        writer = csv.writer(kept)
        for row in rows:
            writer.writerow(row[: col(WALLCLOCK)] + row[col(WALLCLOCK) + 1 :])
        for row in rows[1:]:
            if int(row[col("seed")]) != seed:
                raise _CheckFailed("episodes.csv seed column does not match")
            episode_ms.append(float(row[col(WALLCLOCK)]))
            flags = row[col("flags")].split(";") if row[col("flags")] else []
            counts.add_episode(
                state.horizon, _set_sizes(row[col("conf_sizes_R")], row[col("conf_sizes_P")]), flags
            )
        manifest_digest, manifest = _json_digest(seed_dir / "manifest.json", pop=WALLCLOCK)
        if manifest["seed"] != seed or not manifest["realizability"]["passed"]:
            raise _CheckFailed("seed manifest has the wrong seed or failed realizability")
        diag_digest, diag = _json_digest(seed_dir / "diagnostics.json")
        if min(diag["regret"]["instant"]) < -1e-9:
            raise _CheckFailed("negative instantaneous regret")
        return _sha(kept.getvalue().encode()) + manifest_digest + diag_digest


class _CheckFailed(Exception):
    pass


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one command through ``cli.main`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# Library workload: deep-general
# ---------------------------------------------------------------------------


@dataclass
class DeepState:
    seed: int
    classes: HypothesisClasses
    horizon: int


@dataclass(frozen=True)
class DeepGeneralWorkload:
    """``run_learner`` plus ``regret_curve`` per seed on the synthetic instance."""

    name: str
    num_seeds: int
    episodes: int
    size: DeepGeneralSize = field(default_factory=DeepGeneralSize)

    def prepare(self, seed: int, work_dir: Path) -> int:
        return seed

    def setup(self, seed: int) -> DeepState:
        _, classes = build_deep_general(seed, self.size)
        return DeepState(seed, classes, classes.horizon)

    def iteration(self, state: DeepState, out_root: Path) -> Iteration:
        counts = WorkCounts()
        operations: list[Operation] = []
        runs = []
        start = time.perf_counter()
        model, classes = build_deep_general(state.seed, self.size)
        knowledge = LearnerKnowledge.from_model(model)
        for seed in derived_seeds(state.seed, self.num_seeds):
            op = Operation(f"seed-{seed:04d}")
            operations.append(op)
            cfg = RunConfig(
                episodes=self.episodes,
                delta=0.1,
                mode=TransitionMode.GENERAL,
                seed=seed,
                optimism=SelectionMode.EXACT,
                beta_scale=0.1,
            )
            try:
                # Looked up on the modules so a traced run sees them as spans.
                result = driver.run_learner(model, knowledge, classes, cfg)
                diagnostics.regret_curve(result, model, knowledge)
                runs.append((op, result))
            except Exception as exc:  # noqa: BLE001 - a failed run is a failed operation
                op.error = f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - start
        episode_ms: list[float] = []
        for op, result in runs:
            if result.realizability is None or not result.realizability.passed:
                op.error = "synthetic truth is not realizable in its classes"
            elif len(result.episodes) != self.episodes:
                op.error = f"{len(result.episodes)} episode records, expected {self.episodes}"
            op.digest = _sha(result.canonical_json().encode())
            for rec in result.episodes:
                episode_ms.append(rec.wallclock_ms)
                counts.add_episode(
                    state.horizon,
                    list(rec.reward_set_sizes) + list(rec.transition_set_sizes),
                    list(rec.flags),
                )
        return Iteration(
            run_wall_s=run_s,
            diagnose_wall_s=None,
            episode_ms=episode_ms,
            operations=operations,
            counts=counts.metrics(loss_cells(state.classes), state.classes.sizes()),
        )


WORKLOADS = {
    "recsys-run": CliWorkload("recsys-run", "recsys-small", diagnose=False, num_seeds=4, episodes=1000),
    "deep-general": DeepGeneralWorkload("deep-general", num_seeds=4, episodes=300),
    "dyn-1d": CliWorkload("dyn-1d", "dyn-1d", diagnose=True, num_seeds=8, episodes=1000),
}

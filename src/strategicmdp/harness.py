"""Experiment runner: seeded sweeps, on-disk artifacts, cross-seed summaries.

Layout under the output root, one directory per experiment:

    <root>/<label>/manifest.json          config echo, version, flags
    <root>/<label>/summary.csv            per-checkpoint aggregates over seeds
    <root>/<label>/seed-XXXX/manifest.json
    <root>/<label>/seed-XXXX/episodes.csv
    <root>/<label>/seed-XXXX/diagnostics.json

All numeric CSV fields are written with repr, so identical runs produce
byte-identical files; wall-clock fields are the only nondeterministic values.
"""

from __future__ import annotations

import csv
import json
import os
import time
from copy import deepcopy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_from_dict
from .diagnostics import ill_posedness, naive_baseline, regret_curve, transfer_term
from .driver import RunConfig, RunResult, run_learner
from .errors import ValidationError
from .hypotheses import ClassCaps
from .planning import SelectionMode, true_aggregated_model, value_iteration
from .scenarios import Scenario, build_scenario

EPISODE_COLUMNS = [
    "seed",
    "episode",
    "instant_regret",
    "cum_regret",
    "conf_sizes_R",
    "conf_sizes_P",
    "beta1",
    "beta2",
    "beta3",
    "flags",
    "wallclock_ms",
]

SUMMARY_COLUMNS = ["episode", "num_seeds", "mean_cum_regret", "std_cum_regret", "truth_coverage"]


def _fmt(x) -> str:
    return repr(float(x))


def _sizes_r(rec) -> str:
    return ";".join(str(n) for n in rec.reward_set_sizes)


def _sizes_p(rec) -> str:
    """One entry per step; a dynamical step lists its coordinates' sizes."""
    return ";".join(",".join(map(str, np.ravel(n))) for n in rec.transition_set_sizes)


def _write_atomic(path: Path, fill) -> None:
    """Write path through fill(handle) into a temporary file that then replaces it.

    A failed write removes the temporary file and leaves any earlier file whole.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            fill(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, data: dict) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    _write_atomic(path, lambda fh: fh.write(text))


def build_from_config(cfg: ScenarioConfig) -> Scenario:
    """Construct the scenario named by the config, its classes closed under the class caps."""
    caps = ClassCaps(cfg.per_step_cap, cfg.joint_cap)
    return build_scenario(cfg.generator, cfg.generator_seed, cfg.generator_params, caps)


def run_config_for(cfg: ScenarioConfig, scenario: Scenario, seed: int) -> RunConfig:
    return RunConfig(
        episodes=cfg.episodes,
        delta=cfg.delta,
        mode=scenario.model.transition_mode,
        seed=seed,
        optimism=SelectionMode(cfg.optimism),
        beta_scale=cfg.beta_scale,
        selector_cap=cfg.selector_cap,
        strict_realizability=cfg.strict_realizability,
    )


def checkpoints(episodes: int, cadence: int) -> list[int]:
    marks = sorted(set(range(cadence, episodes + 1, cadence)) | {episodes})
    return marks


@dataclass
class SeedOutcome:
    seed: int
    cum_at: dict[int, float]
    truth_prefix_at: dict[int, bool | None]
    run_flags: tuple[str, ...]
    wallclock_ms: float


def write_episodes_csv(path: Path, seed: int, run: RunResult) -> None:
    """One row per episode; each set-size column is formatted once per distinct
    set object the records share (they stay alive in run.episodes, so ids do)."""

    def fill(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_COLUMNS)
        sizes_r: dict[int, str] = {}
        sizes_p: dict[int, str] = {}
        for rec in run.episodes:
            if id(rec.reward_sets) not in sizes_r:
                sizes_r[id(rec.reward_sets)] = _sizes_r(rec)
            if id(rec.transition_set_sizes) not in sizes_p:
                sizes_p[id(rec.transition_set_sizes)] = _sizes_p(rec)
            writer.writerow(
                [
                    seed,
                    rec.episode,
                    _fmt(rec.instant_regret),
                    _fmt(rec.cum_regret),
                    sizes_r[id(rec.reward_sets)],
                    sizes_p[id(rec.transition_set_sizes)],
                    _fmt(rec.betas[0]),
                    _fmt(rec.betas[1]),
                    _fmt(rec.betas[2]),
                    ";".join(rec.flags),
                    _fmt(rec.wallclock_ms),
                ]
            )

    _write_atomic(path, fill)


def run_seed(
    cfg: ScenarioConfig, seed: int, seed_dir: Path, scenario: Scenario, shared_diag: dict
) -> SeedOutcome:
    """Run one seed on the experiment's scenario and write its artifact directory."""
    t0 = time.perf_counter()
    knowledge = scenario.knowledge()
    run = run_learner(scenario.model, knowledge, scenario.classes, run_config_for(cfg, scenario, seed))
    curve = regret_curve(run, scenario.model, knowledge)

    seed_dir.mkdir(parents=True, exist_ok=True)
    write_episodes_csv(seed_dir / "episodes.csv", seed, run)

    diag: dict = {}
    if cfg.diagnostics.regret:
        diag["regret"] = curve.as_dict()
    if cfg.diagnostics.naive_baseline and run.dataset is not None:
        diag["naive_baseline"] = naive_baseline(run.dataset, scenario.model).as_dict()
    if shared_diag:
        diag.update(shared_diag)
    diag["realizability"] = run.realizability.as_dict()
    _write_json(seed_dir / "diagnostics.json", diag)

    marks = checkpoints(cfg.episodes, cfg.evaluation_cadence)
    cum_at: dict[int, float] = {}
    truth_at: dict[int, bool | None] = {}
    ok: bool | None = True
    for rec in run.episodes:
        t = rec.truth_covered
        if t is None:
            ok = None
        elif ok is True and not t:
            ok = False
        if rec.episode in marks:
            cum_at[rec.episode] = float(rec.cum_regret)
            truth_at[rec.episode] = ok
    wall = (time.perf_counter() - t0) * 1000.0

    manifest = {
        "config": cfg.raw,
        "version": __version__,
        "seed": seed,
        "scenario": scenario.name,
        "mode": scenario.model.transition_mode.value,
        "scenario_params": scenario.params,
        "run_flags": sorted(run.flags),
        "class_flags": sorted(scenario.classes.flags),
        "realizability": run.realizability.as_dict(),
        "truth_event": truth_at.get(cfg.episodes),
        "final_cum_regret": cum_at[cfg.episodes],
        "wallclock_ms": wall,
    }
    _write_json(seed_dir / "manifest.json", manifest)
    return SeedOutcome(
        seed=seed,
        cum_at=cum_at,
        truth_prefix_at=truth_at,
        run_flags=tuple(sorted(run.flags)),
        wallclock_ms=wall,
    )


def _per_step(oracle, cfg: ScenarioConfig, scenario: Scenario) -> list[dict]:
    """One worst-case ratio oracle (ill_posedness or transfer_term) at every step."""
    budget = cfg.diagnostics.policy_budget
    return [
        oracle(scenario.model, scenario.classes, h, policy_budget=budget).as_dict()
        for h in range(scenario.model.horizon)
    ]


def shared_diagnostics(cfg: ScenarioConfig, scenario: Scenario) -> dict:
    """Seed-independent oracles requested by the config, computed once."""
    out: dict = {}
    if cfg.diagnostics.ill_posedness:
        out["ill_posedness"] = _per_step(ill_posedness, cfg, scenario)
    if cfg.diagnostics.transfer:
        out["transfer"] = _per_step(transfer_term, cfg, scenario)
    return out


def write_summary(path: Path, cfg: ScenarioConfig, outcomes: list[SeedOutcome]) -> None:
    marks = checkpoints(cfg.episodes, cfg.evaluation_cadence)

    def fill(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for k in marks:
            cums = np.array([o.cum_at[k] for o in outcomes])
            truths = [o.truth_prefix_at[k] for o in outcomes]
            known = [t for t in truths if t is not None]
            coverage = "" if len(known) < len(truths) else _fmt(np.mean([1.0 if t else 0.0 for t in known]))
            std = float(np.std(cums, ddof=1)) if len(cums) > 1 else 0.0
            writer.writerow(
                [k, len(outcomes), _fmt(cums.mean()), _fmt(std), coverage]
            )

    _write_atomic(path, fill)


def experiment_dir(cfg: ScenarioConfig, output_root: str | None = None) -> Path:
    root = Path(output_root) if output_root else Path(cfg.output.root)
    return root / (cfg.output.label or cfg.generator)


def run_experiment(cfg: ScenarioConfig, output_root: str | None = None) -> Path:
    """Run every seed, write all artifacts, and return the experiment directory.

    The scenario, its closed classes and the shared oracles are built once and
    handed to every seed. An error or an interrupt is recorded in the
    experiment manifest before being re-raised, so a failed or interrupted
    directory is self-describing.
    """
    exp_dir = experiment_dir(cfg, output_root)
    exp_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    manifest: dict = {
        "config": cfg.raw,
        "version": __version__,
        "seeds": list(cfg.seeds),
        "status": "running",
    }
    try:
        scenario = build_from_config(cfg)
        shared = shared_diagnostics(cfg, scenario)
        plan = value_iteration(true_aggregated_model(scenario.model))
        manifest["scenario"] = scenario.name
        manifest["mode"] = scenario.model.transition_mode.value
        manifest["class_flags"] = sorted(scenario.classes.flags)
        manifest["optimal_target_value"] = plan.value_at_initial

        outcomes: list[SeedOutcome] = []
        dirs = {seed: exp_dir / f"seed-{seed:04d}" for seed in cfg.seeds}
        if cfg.workers > 1:
            # imported here so a serial run never loads the multiprocessing stack
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                futures = [
                    pool.submit(run_seed, cfg, seed, dirs[seed], scenario, shared)
                    for seed in cfg.seeds
                ]
                outcomes = [f.result() for f in futures]
        else:
            for seed in cfg.seeds:
                outcomes.append(run_seed(cfg, seed, dirs[seed], scenario, shared))

        write_summary(exp_dir / "summary.csv", cfg, outcomes)
        flags = sorted({f for o in outcomes for f in o.run_flags})
        manifest["run_flags"] = flags
        manifest["status"] = "ok"
        manifest["wallclock_ms"] = (time.perf_counter() - started) * 1000.0
        _write_json(exp_dir / "manifest.json", manifest)
        return exp_dir
    except BaseException as exc:
        manifest["status"] = "interrupted" if isinstance(exc, KeyboardInterrupt) else "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        manifest["wallclock_ms"] = (time.perf_counter() - started) * 1000.0
        _write_json(exp_dir / "manifest.json", manifest)
        raise


def diagnose(cfg: ScenarioConfig, output_root: str | None = None) -> Path:
    """Compute scenario-level oracles without running the learner.

    Writes diagnostics.json with the identifiability measures, the
    realizability report, and the optimal target value. Sample-dependent
    diagnostics (regret, naive baseline) need a run and are skipped here.
    """
    from .hypotheses import check_realizability

    exp_dir = experiment_dir(cfg, output_root)
    exp_dir.mkdir(parents=True, exist_ok=True)
    scenario = build_from_config(cfg)
    knowledge = scenario.knowledge()
    report = check_realizability(scenario.model, scenario.classes, knowledge)
    plan = value_iteration(true_aggregated_model(scenario.model))
    diag = {
        "scenario": scenario.name,
        "mode": scenario.model.transition_mode.value,
        "version": __version__,
        "optimal_target_value": plan.value_at_initial,
        "realizability": report.as_dict(),
        "ill_posedness": _per_step(ill_posedness, cfg, scenario),
        "transfer": _per_step(transfer_term, cfg, scenario),
    }
    _write_json(exp_dir / "diagnostics.json", diag)
    return exp_dir


def apply_override(data: dict, dotted: str, value) -> dict:
    """Return a copy of a config mapping with one dotted path replaced."""
    out = deepcopy(data)
    parts = dotted.split(".")
    node = out
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value
    return out


def sweep_configs(base: dict, grid: dict[str, list]) -> list[tuple[str, ScenarioConfig]]:
    """Cartesian product of dotted-path overrides; returns (label, config) pairs.

    Every combination is validated; the first invalid combination aborts the
    sweep with its full violation list.
    """
    combos: list[tuple[str, dict]] = [("", base)]
    for key, values in grid.items():
        nxt = []
        for label, data in combos:
            for v in values:
                tag = f"{key.split('.')[-1]}={v}"
                nxt.append((f"{label},{tag}" if label else tag, apply_override(data, key, v)))
        combos = nxt
    out = []
    for label, data in combos:
        try:
            cfg = config_from_dict(data)
        except ValidationError as exc:
            raise ValidationError(f"sweep point [{label}]: {exc}") from None
        label_dir = label.replace(",", "_").replace("=", "-") or "base"
        base_label = cfg.output.label or cfg.generator
        cfg.output.label = f"{base_label}_{label_dir}"
        out.append((label, cfg))
    return out

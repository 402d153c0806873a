"""Acceptance gate: nine headline behaviors, one verdict line each.

Each criterion prints a single PASS/FAIL line (with capture suspended) and
then asserts, so the terminal shows the full scoreboard even under -q.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import time

import numpy as np
import pytest

from strategicmdp import (
    GENERATORS,
    CandidateAggregates,
    Policy,
    RunConfig,
    StepDataset,
    TransitionMode,
    build_scenario,
    feedback_mix,
    ill_posedness,
    make_rng,
    naive_baseline,
    occupancy,
    optimistic_select,
    regret_curve,
    rollout,
    run_learner,
    transfer_term,
    true_aggregated_model,
    value_iteration,
)
from strategicmdp.config import config_from_dict
from strategicmdp.estimation import family_losses
from strategicmdp.harness import run_experiment
from strategicmdp.planning import AggregatedMDP

from helpers import brute_force_optimum, occupancy_mse, sample_step_batch, tiny_general
from test_planning import _brute_force_select_general, _full_sets

K_GRID = (250, 500, 1000, 2000)


@pytest.fixture
def verdict(capfd):
    def _verdict(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def truth_in_all_sets(rec, classes) -> bool:
    for h in range(classes.horizon):
        if classes.truth_reward_idx[h] not in rec.reward_sets[h]:
            return False
        ti = classes.truth_transition_idx[h]
        if classes.mode is TransitionMode.GENERAL:
            if ti not in rec.transition_sets[h][0]:
                return False
        else:
            for i, idx in enumerate(ti):
                if idx not in rec.transition_sets[h][i]:
                    return False
    return True


@pytest.fixture(scope="module")
def coverage_runs():
    """Fifty seeds of the recommendation scenario, shared by criteria 1 and 6."""
    scenario = build_scenario("recsys-small")
    kn = scenario.knowledge()
    t0 = time.perf_counter()
    runs = []
    for seed in range(50):
        cfg = RunConfig(
            episodes=200,
            delta=0.1,
            mode=TransitionMode.GENERAL,
            seed=seed,
            beta_scale=0.1,
        )
        runs.append(run_learner(scenario.model, kn, scenario.classes, cfg))
    return scenario, runs, time.perf_counter() - t0


def test_criterion_1_confidence_set_consistency(coverage_runs, verdict):
    scenario, runs, elapsed = coverage_runs
    covered = sum(
        1
        for run in runs
        if all(truth_in_all_sets(rec, scenario.classes) for rec in run.episodes)
    )
    frac = covered / len(runs)
    ok = frac >= 0.85 and elapsed <= 600
    verdict(
        1,
        ok,
        f"truth stayed in every confidence set for {covered}/50 seeds "
        f"(need >= 85%) at K=200, delta=0.1; {elapsed:.1f}s of 600s budget",
    )


def test_criterion_2_regret_sublinearity(verdict):
    scenario = build_scenario("recsys-small")
    kn = scenario.knowledge()
    t0 = time.perf_counter()
    means = {}
    for K in K_GRID:
        finals = []
        for seed in range(20):
            cfg = RunConfig(
                episodes=K,
                delta=0.1,
                mode=TransitionMode.GENERAL,
                seed=seed,
                beta_scale=0.1,
            )
            run = run_learner(scenario.model, kn, scenario.classes, cfg)
            curve = regret_curve(run, scenario.model, kn)
            finals.append(curve.cumulative[-1])
        means[K] = float(np.mean(finals))
    elapsed = time.perf_counter() - t0
    slope = float(np.polyfit(np.log(K_GRID), np.log([means[K] for K in K_GRID]), 1)[0])
    linear_extrap = means[250] / 250 * 2000
    ok = 0.40 <= slope <= 0.85 and means[2000] < 0.5 * linear_extrap and elapsed <= 1800
    verdict(
        2,
        ok,
        f"mean cumulative regret over 20 seeds: log-log slope {slope:.3f} "
        f"(need [0.40, 0.85]); regret {means[2000]:.1f} at K=2000 vs half-linear "
        f"extrapolation {0.5 * linear_extrap:.1f}; {elapsed:.0f}s of 1800s budget",
    )


def exact_population_bias(model, h, s, a, e) -> float:
    """Conditional mean of the confounded reward shift at one observed cell."""
    num = 0.0
    den = 0.0
    for t in range(model.num_types):
        b = int(np.argmax(model.agent_reward[h, s, a, t]))
        p = float(model.source_type_dist[h, t]) * float(model.feedback_kernel[h, s, a, t, b, e])
        num += p * float(model.reward_confound[h, t])
        den += p
    return num / den


def test_criterion_3_beats_confounded_baseline(verdict):
    scenario = build_scenario("recsys-small", params={"bias_probe": True})
    model, classes = scenario.model, scenario.classes
    cell = (0, 0, 0, 0)
    derived = exact_population_bias(model, *cell)

    cfg = RunConfig(
        episodes=2000, delta=0.1, mode=TransitionMode.GENERAL, seed=0, beta_scale=0.1
    )
    run = run_learner(model, scenario.knowledge(), classes, cfg)
    occ = occupancy(model, Policy.uniform(model.horizon, model.num_states, model.num_actions))
    worst_mse = 0.0
    for h, surviving in enumerate(run.episodes[-1].reward_sets):
        for idx in surviving:
            nu = classes.reward_tables[h][idx] - model.principal_reward[h]
            worst_mse = max(worst_mse, occupancy_mse(occ, h, nu))
    report = naive_baseline(run.dataset, model)
    emp = float(report.empirical_bias[cell])
    ok = (
        derived >= 0.3
        and abs(float(report.population_bias[cell]) - derived) <= 1e-12
        and worst_mse <= 0.5 * 0.3**2
        and emp >= 0.2
    )
    verdict(
        3,
        ok,
        f"derived naive bias {derived:.3f} >= 0.3 at (h,s,a,e)={cell}; worst "
        f"surviving-reward source-occupancy MSE {worst_mse:.4f} <= 0.045 at K=2000; "
        f"empirical naive bias {emp:.3f} >= 0.2",
    )


def test_criterion_4_moment_conservation(verdict):
    model = build_scenario("recsys-small").model
    occ = occupancy(model, Policy.uniform(model.horizon, model.num_states, model.num_actions))
    rng = make_rng(2024)
    n = 100_000
    checked = 0
    worst = 0.0
    for h in range(model.horizon):
        reach = occ.joints[h].sum(axis=-1)
        for s in range(model.num_states):
            for a in range(model.num_actions):
                if reach[s, a] <= 0.0:
                    continue
                batch = sample_step_batch(model, h, s, a, rng, n)
                resid = batch["rewards"] - model.principal_reward[h, s, a, batch["feedbacks"]]
                mean = float(resid.mean())
                sd = float(resid.std(ddof=1))
                worst = max(worst, abs(mean) / (4 * sd / np.sqrt(n)))
                checked += 1
    ok = checked > 0 and worst <= 1.0
    verdict(
        4,
        ok,
        f"reward residual means under the source population at all {checked} "
        f"reached (h,s,a) within 4*sd/sqrt(N) of 0 at N={n}; worst ratio {worst:.2f}",
    )


def test_criterion_5_planner_oracles(verdict):
    vi_gap = 0.0
    vi_checked = []
    instances = [("tiny", true_aggregated_model(tiny_general()), 0)]
    for name in sorted(GENERATORS):
        scenario = build_scenario(name)
        m = scenario.model
        count = m.num_actions ** (m.num_states * m.horizon)
        if count <= 4096:
            instances.append((name, true_aggregated_model(m), m.initial_state))
    for label, agg, s1 in instances:
        plan = value_iteration(agg)
        best, _ = brute_force_optimum(agg.rewards, agg.transitions, s1)
        vi_gap = max(vi_gap, abs(plan.value_at_initial - best))
        vi_checked.append(label)

    scenario = build_scenario("recsys-small")
    agg = CandidateAggregates.from_classes(scenario.classes, scenario.knowledge())
    reward_sets, transition_sets = _full_sets(scenario.classes)
    got = optimistic_select(agg, reward_sets, transition_sets, scenario.model.initial_state)
    best_val, _, _ = _brute_force_select_general(
        agg, reward_sets, transition_sets, scenario.model.initial_state
    )
    select_gap = abs(got.value - best_val)

    dyn = build_scenario("dyn-1d")
    dagg = CandidateAggregates.from_classes(dyn.classes, dyn.knowledge())
    dr_sets, dt_sets = _full_sets(dyn.classes)
    dgot = optimistic_select(dagg, dr_sets, dt_sets, dyn.model.initial_state)
    dbest = -np.inf
    import itertools

    axes = []
    for h in range(dyn.classes.horizon):
        axes.append(list(dr_sets[h]))
        axes.append(list(dt_sets[h]))
    for combo in itertools.product(*axes):
        r_idx, m_idx = combo[0::2], combo[1::2]
        rewards = np.stack([dagg.rewards[h][r_idx[h]] for h in range(dyn.classes.horizon)])
        kernels = np.stack([dagg.transitions[h][m_idx[h]] for h in range(dyn.classes.horizon)])
        v = value_iteration(AggregatedMDP(rewards, kernels, dyn.model.initial_state)).value_at_initial
        dbest = max(dbest, v)
    dyn_gap = abs(dgot.value - dbest)

    ok = vi_gap <= 1e-9 and select_gap <= 1e-9 and dyn_gap <= 1e-9
    verdict(
        5,
        ok,
        f"value iteration matches exhaustive policy enumeration on "
        f"{len(vi_checked)} instances (worst gap {vi_gap:.1e}); optimistic "
        f"selection matches joint-model enumeration (gaps {select_gap:.1e} "
        f"general, {dyn_gap:.1e} dynamical)",
    )


def test_criterion_6_optimism(coverage_runs, verdict):
    scenario, runs, _ = coverage_runs
    vstar = value_iteration(true_aggregated_model(scenario.model)).value_at_initial
    checked = 0
    worst_short = -np.inf
    for run in runs:
        for rec in run.episodes:
            if truth_in_all_sets(rec, scenario.classes):
                checked += 1
                worst_short = max(worst_short, vstar - rec.optimistic_value)
    ok = checked > 0 and worst_short <= 1e-9
    verdict(
        6,
        ok,
        f"optimistic value >= optimal target value - 1e-9 on all {checked} "
        f"truth-covered episodes across 50 seeds (worst shortfall {worst_short:.2e})",
    )


def test_criterion_7_diagnostics_exactness(verdict):
    deg = build_scenario("degenerate-feedback")
    taus = [ill_posedness(deg.model, deg.classes, h) for h in range(deg.model.horizon)]
    tau_exact = all(not r.infinite and r.value == 1.0 for r in taus)

    base = build_scenario("recsys-small")
    same_pop = dataclasses.replace(
        base.model, target_type_dist=base.model.source_type_dist.copy()
    )
    ones = [transfer_term(same_pop, base.classes, h) for h in range(same_pop.horizon)]
    one_exact = all(not r.infinite and r.value == 1.0 for r in ones)

    shift = build_scenario("shifted-target")
    cs = [transfer_term(shift.model, shift.classes, h) for h in range(shift.model.horizon)]
    shift_vals = [r.value for r in cs]
    shift_ok = all(not r.infinite and abs(r.value - 5.0) <= 1e-9 for r in cs)

    # every evaluated pair also self-checks projected MSE <= MSE internally
    sweep_ok = True
    for name in sorted(GENERATORS):
        sc = build_scenario(name)
        for h in range(sc.model.horizon):
            r = ill_posedness(sc.model, sc.classes, h, policy_budget=128)
            if not (r.degenerate or r.infinite or r.value >= 1.0 - 1e-12):
                sweep_ok = False

    ok = tau_exact and one_exact and shift_ok and sweep_ok
    verdict(
        7,
        ok,
        f"ill-posedness exactly 1.0 under uninformative feedback; transfer term "
        f"exactly 1.0 with matching populations; transfer term "
        f"{max(shift_vals):.9f} = 5.0 +/- 1e-9 on the shifted-population "
        f"scenario; ratio >= 1 and projected MSE <= MSE on every evaluated instance",
    )


def test_criterion_8_determinism(tmp_path, verdict):
    data = {
        "environment": {"generator": "recsys-small"},
        "run": {
            "episodes": 60,
            "delta": 0.1,
            "beta_scale": 0.1,
            "seeds": [0, 1],
            "evaluation_cadence": 30,
        },
        "output": {"root": str(tmp_path)},
    }
    exp = run_experiment(config_from_dict(copy.deepcopy(data)))

    def snapshot():
        files = {}
        for seed in (0, 1):
            sd = exp / f"seed-{seed:04d}"
            with (sd / "episodes.csv").open() as fh:
                files[f"{seed}/episodes"] = [row[:-1] for row in csv.reader(fh)]
            m = json.loads((sd / "manifest.json").read_text())
            m.pop("wallclock_ms", None)
            files[f"{seed}/manifest"] = m
            files[f"{seed}/diagnostics"] = (sd / "diagnostics.json").read_text()
        top = json.loads((exp / "manifest.json").read_text())
        top.pop("wallclock_ms", None)
        files["manifest"] = top
        files["summary"] = (exp / "summary.csv").read_bytes()
        return files

    first = snapshot()
    run_experiment(config_from_dict(copy.deepcopy(data)))
    second = snapshot()
    ok = first == second
    verdict(
        8,
        ok,
        "identical config and seeds reproduce episodes.csv, manifests, "
        "diagnostics, and summary byte-for-byte (wallclock fields excluded)",
    )


def test_criterion_9_dynamical_mode_sanity(verdict):
    scenario = build_scenario("dyn-1d", params={"noiseless": True})
    model, classes = scenario.model, scenario.classes
    pol = Policy.uniform(model.horizon, model.num_states, model.num_actions)
    H = model.horizon
    wrong_idx = [
        next(i for i in range(classes.mean_map_tables[h][0].shape[0]) if i != classes.truth_transition_idx[h][0])
        for h in range(H)
    ]

    data = StepDataset(
        horizon=H,
        num_states=model.num_states,
        num_actions=model.num_actions,
        num_feedbacks=model.num_feedbacks,
        state_dim=model.state_dim,
    )
    rng = make_rng(5)
    marks = [100, 200, 300, 400, 500]
    true_losses = {h: [] for h in range(H)}
    wrong_losses = {h: [] for h in range(H)}
    for k in range(1, marks[-1] + 1):
        data.append_trajectory(rollout(model, pol, rng))
        if k in marks:
            for h in range(H):
                disc = classes.discriminators[h]
                per = classes.mean_map_tables[h][0]
                step = data.steps[h]
                observed = step.next_sums[..., 0].sum(axis=-1)[None]
                true_losses[h].append(
                    float(family_losses(per[[classes.truth_transition_idx[h][0]]][:, None], observed, step.counts, disc)[0])
                )
                wrong_losses[h].append(float(family_losses(per[[wrong_idx[h]]][:, None], observed, step.counts, disc)[0]))

    occ = occupancy(model, pol)
    mix = feedback_mix(model.source_type_dist, model.feedback_by_type)
    truth_zero = all(v == 0.0 for h in range(H) for v in true_losses[h])
    ratios = []
    for h in range(H):
        nu = (
            classes.mean_map_tables[h][0][wrong_idx[h]]
            - classes.mean_map_tables[h][0][classes.truth_transition_idx[h][0]]
        )
        proj = np.einsum("sae,sae->sa", mix[h], nu)
        slope_exact = 0.5 * float(np.sum(occ.joints[h].sum(axis=-1) * proj**2))
        for k, loss in zip(marks, wrong_losses[h]):
            ratios.append(loss / k / slope_exact)
    ok = truth_zero and occ.flags == () and all(0.8 <= r <= 1.2 for r in ratios)
    verdict(
        9,
        ok,
        f"noiseless dynamical run: true mean-map loss identically 0.0; wrong "
        f"candidate loss grows linearly, per-episode slope within "
        f"[{min(ratios):.2f}, {max(ratios):.2f}] of the exact occupancy-table "
        f"prediction (need [0.8, 1.2])",
    )

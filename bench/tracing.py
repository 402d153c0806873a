"""In-memory spans around the public functions of each library module.

The wrappers live only here: ``Tracer.install`` patches each function under
the name its caller looks it up by (``driver.rollout``,
``harness.ill_posedness``, the ``LossEvaluator`` methods, ...), and
``Tracer.uninstall`` puts the originals back, so nothing in ``src`` changes
and an untraced iteration runs the unpatched code.

Each span records its name, start, end, parent span, the loop iteration
(invocation) it belongs to, and the learner seed active when it began.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from strategicmdp import (
    cli,
    diagnostics,
    driver,
    estimation,
    harness,
    hypotheses,
    planning,
    scenarios,
)


def _select_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[4] if len(args) > 4 else planning.SelectionMode.EXACT)
    return f"planning.optimistic_select.{mode.value}"


def _seed_of_run_seed(args, kwargs):
    return kwargs["seed"] if "seed" in kwargs else args[1]


def _seed_of_run_learner(args, kwargs):
    return (kwargs["cfg"] if "cfg" in kwargs else args[3]).seed


# (span name, [(owner, attribute), ...], seed hook). The owners are the
# namespaces the callers read the name from at call time.
PATCHES = [
    ("cli.main", [(cli, "main")], None),
    ("config.load_config", [(cli, "load_config")], None),
    ("harness.run_experiment", [(cli, "run_experiment")], None),
    ("harness.diagnose", [(cli, "diagnose")], None),
    ("harness.run_seed", [(harness, "run_seed")], _seed_of_run_seed),
    ("harness.write_episodes_csv", [(harness, "write_episodes_csv")], None),
    ("scenarios.build_scenario", [(harness, "build_scenario")], None),
    ("hypotheses.close_classes", [(scenarios, "close_classes"), (hypotheses, "close_classes")], None),
    ("hypotheses.enumerate_suffix_values", [(hypotheses, "enumerate_suffix_values")], None),
    (
        "hypotheses.check_realizability",
        [(driver, "check_realizability"), (hypotheses, "check_realizability")],
        None,
    ),
    ("driver.run_learner", [(harness, "run_learner"), (driver, "run_learner")], _seed_of_run_learner),
    ("model.rollout", [(driver, "rollout")], None),
    ("estimation.append_trajectory", [(estimation.StepDataset, "append_trajectory")], None),
    ("estimation.build_confidence_sets", [(estimation, "build_confidence_sets")], None),
    ("estimation.reward_losses", [(estimation.LossEvaluator, "reward_losses")], None),
    ("estimation.transition_losses", [(estimation.LossEvaluator, "transition_losses")], None),
    (_select_span, [(driver, "optimistic_select")], None),
    ("planning.from_classes", [(planning.CandidateAggregates, "from_classes")], None),
    (
        "planning.value_iteration",
        [(planning, "value_iteration"), (harness, "value_iteration"), (diagnostics, "value_iteration")],
        None,
    ),
    ("planning.policy_value", [(diagnostics, "policy_value")], None),
    (
        "planning.discretize_gaussian",
        [(planning, "discretize_gaussian"), (diagnostics, "discretize_gaussian")],
        None,
    ),
    ("diagnostics.regret_curve", [(harness, "regret_curve"), (diagnostics, "regret_curve")], None),
    ("diagnostics.naive_baseline", [(harness, "naive_baseline")], None),
    ("diagnostics.ill_posedness", [(harness, "ill_posedness")], None),
    ("diagnostics.transfer_term", [(harness, "transfer_term")], None),
    ("diagnostics.occupancy", [(diagnostics, "occupancy")], None),
]

SPAN_NAMES = sorted(
    [name for name, _, _ in PATCHES if isinstance(name, str)]
    + ["planning.optimistic_select.exact", "planning.optimistic_select.pointwise"]
)


class Tracer:
    """Collects spans in memory; aggregates calls, busy and self time per name."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.invocation = 0
        self.seed = None
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, seed_hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seed_hook is not None:
                self.seed = seed_hook(args, kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans) + len(self._stack), span_name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                if self._stack:
                    self._stack[-1][3] += duration
                total = self.totals[span_name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[3]
                self.spans.append(
                    (frame[0], parent, span_name, frame[2], end, self.invocation, self.seed)
                )

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, targets, seed_hook in PATCHES:
            for owner, attr in targets:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__, seed_hook))
                else:
                    patched = self._wrap(name, original, seed_hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def per_iteration(self, iterations: int) -> dict[str, tuple[float, float, float]]:
        """(calls, busy ms, self ms) per span name, averaged over traced iterations."""
        n = max(iterations, 1)
        return {
            name: (calls / n, busy * 1000.0 / n, own * 1000.0 / n)
            for name, (calls, busy, own) in self.totals.items()
        }

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with path.open("w") as fh:
            for sid, parent, name, start, end, inv, seed in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start,
                         "end": end, "invocation": inv, "seed": seed}
                    )
                )
                fh.write("\n")

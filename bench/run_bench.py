"""Benchmark runner for strategicmdp: end-to-end and per-module numbers.

    python3 bench/run_bench.py --workload recsys-run --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all --seconds 30

One workload runs as a closed loop in this process: set up several times
(a high percentile reported as ``setup_s``), then repeat one pass of the
workload's loop until ``--seconds`` is used up, with at least two passes so
repeated outputs can be compared. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-module metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload, untraced and traced, each in a fresh process.

Work files, results and spans go to ``.bench_out/`` at the repository root.
The package is imported from ``src/`` without being installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("recsys-run", "deep-general", "dyn-1d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2
SETUP_BATCH = 20
SETUP_PERCENTILE = 90

# The end-to-end metrics of BENCHMARK.json. On a shared 2-vCPU Intel Xeon VM
# the CPU alternates between two speeds about 1.5x apart, each held for
# seconds, and both the share of fast time and the slow speed drift over
# minutes. Over ten runs of the same code the wall times and episode latencies
# spread by 8-47% (interquartile range over median), and their medians moved
# by up to 25% between two sets of ten runs, so they are measured, printed and
# recorded but not bounded. The slow speed shows up in nearly every run, so
# the slow tail of set-up time is steady enough to bound, and so is memory.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}
REPORTED_UNITS = {
    "run_wall_s": "s", "diagnose_wall_s": "s", "episode_ms.p50": "ms", "episode_ms.p99": "ms"
}


def _threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _prepare_environment() -> None:
    """Thread caps and the import path; must run before numpy is imported."""
    cap = _threads()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = current if current.isdigit() and 0 < int(current) <= cap else str(cap)
    for path in (str(BENCH_DIR), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_info() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "nproc": _threads(),
        "cpu": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Set up, run the closed loop for ``seconds``, check outputs; return the report."""
    import numpy
    from tracing import Tracer

    work_dir = out_dir / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup_input = workload.prepare(seed, work_dir)
        state = workload.setup(setup_input)  # warm-up: imports and first-call costs
        setup_times: list[float] = []

        def timed_setups():
            # A batch before every pass and one after the last spread the
            # set-up samples over the run, so they see the same machine
            # states as the passes, even when there are only two passes.
            for _ in range(SETUP_BATCH):
                start = time.perf_counter()
                workload.setup(setup_input)
                setup_times.append(time.perf_counter() - start)

        tracer = Tracer() if trace else None
        passes, traced_flags, pass_times = [], [], []
        loop_start = time.perf_counter()
        while True:
            timed_setups()
            traced = tracer is not None and len(passes) % 2 == 1
            start = time.perf_counter()
            if traced:
                tracer.invocation = len(passes)
                tracer.install()
            try:
                passes.append(workload.iteration(state, work_dir / "out"))
            finally:
                if traced:
                    tracer.uninstall()
            traced_flags.append(traced)
            pass_times.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - loop_start
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(pass_times) > seconds:
                break
        timed_setups()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Every pass repeats the same inputs, so each operation's digest must
    # match the first pass, traced or not.
    reference = {op.key: op.digest for op in passes[0].operations}
    failures = []
    for index, it in enumerate(passes):
        for op in it.operations:
            if op.error is None and op.digest != reference.get(op.key):
                op.error = "output digest differs from the first pass"
            if op.error is not None:
                failures.append({"pass": index, "operation": op.key, "error": op.error})
    attempted = sum(len(it.operations) for it in passes)

    untraced = [it for it, t in zip(passes, traced_flags) if not t]
    traced_passes = [it for it, t in zip(passes, traced_flags) if t]
    episode_ms = [ms for it in untraced for ms in it.episode_ms]
    end_to_end = {
        "setup_s": float(numpy.percentile(setup_times, SETUP_PERCENTILE)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnose_times = [it.diagnose_wall_s for it in untraced if it.diagnose_wall_s is not None]
    reported = {
        "run_wall_s": statistics.median(it.run_wall_s for it in untraced),
        "diagnose_wall_s": statistics.median(diagnose_times) if diagnose_times else None,
        "episode_ms.p50": float(numpy.median(episode_ms)),
        "episode_ms.p99": float(numpy.percentile(episode_ms, 99)),
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment_info(),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "samples": {
            "setup_s": setup_times,
            "run_wall_s": [it.run_wall_s for it in passes],
            "diagnose_wall_s": [it.diagnose_wall_s for it in passes],
            "traced": traced_flags,
            "episodes": len(episode_ms),
        },
        "end_to_end": end_to_end,
        "reported": reported,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": reference,
        "counts": passes[0].counts,
    }
    if tracer is not None:
        report["traced_digests"] = {op.key: op.digest for op in traced_passes[0].operations}
        overhead = statistics.median(it.run_wall_s for it in traced_passes) / reported["run_wall_s"]
        report["spans"] = tracer.per_iteration(len(traced_passes))
        report["overhead_ratio"] = overhead
        report["per_layer"] = per_layer_metrics(report["spans"], passes[0].counts, overhead)
        tracer.write(out_dir / f"{workload.name}-seed{seed}.spans.jsonl")
    return report


def per_layer_metrics(spans: dict, counts: dict, overhead: float) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    module_self: dict[str, float] = {}
    for name, (calls, busy, own) in spans.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_ms"] = (busy, "ms")
        metrics[f"{name}.self_ms"] = (own, "ms")
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + own
    for module, own in module_self.items():
        metrics[f"module.{module}.self_ms"] = (own, "ms")
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if name.endswith(("_ratio", "_share")) else "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def summary_line(report: dict) -> dict:
    if report["trace"]:
        chosen = report["per_layer"]
    else:
        chosen = {k: (v, END_TO_END_UNITS[k]) for k, v in report["end_to_end"].items()}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in chosen.items()},
    }


def print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
        f"passes={report['passes']} | python {env['python']} numpy {env['numpy']} "
        f"scipy {env['scipy']} | sha {env['git_sha']} | nproc {env['nproc']} | {env['cpu']} "
        f"| threads {env['threads']}"
    )
    samples = report["samples"]
    untraced = samples["traced"].count(False)
    notes = {
        "setup_s": f"p{SETUP_PERCENTILE} of {len(samples['setup_s'])} set-ups",
        "episode_ms.p99": f"{samples['episodes']} episodes, not bounded",
        "peak_rss_mb": "this process",
        "run_wall_s": f"median of {untraced} passes, not bounded",
        "diagnose_wall_s": f"median of {untraced} passes, not bounded",
        "episode_ms.p50": f"{samples['episodes']} episodes, not bounded",
    }
    units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    for name, value in {**report["end_to_end"], **report["reported"]}.items():
        if value is not None:
            print(f"  {name:<16} {value:>12.6g} {units[name]:<3} ({notes[name]})")
    print(f"  {'failed_ratio':<16} {report['failed']}/{report['attempted']} operations")
    for failure in report["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['operation']}: {failure['error']}")
    for key, digest in sorted(report["digests"].items()):
        print(f"  digest {key} {digest}")
    for name, value in report["counts"].items():
        print(f"  {name:<34} {value:>14.6g}")
    if "spans" in report:
        print(f"  trace.overhead_ratio {report['overhead_ratio']:.4f} (traced / untraced run_wall_s)")
        total_self = sum(s for _, _, s in report["spans"].values()) or 1.0
        print(f"  {'span (per traced pass)':<38} {'calls':>10} {'busy ms':>11} {'self ms':>11} {'self %':>7}")
        rows = sorted(report["spans"].items(), key=lambda kv: -kv[1][2])
        for name, (calls, busy, own) in rows:
            print(f"  {name:<38} {calls:>10.6g} {busy:>11.3f} {own:>11.3f} {100 * own / total_self:>6.1f}%")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    # Per workload: the untraced process's digests and the traced process's
    # digests of a traced pass.
    digests: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            result = json.loads((OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").read_text())
            digests.setdefault(name, {})[trace] = result["traced_digests" if trace else "digests"]
            if result["failed"]:
                status = 1
        same = len(digests.get(name, {})) == 2 and digests[name][0] == digests[name][1]
        print(
            f"## {name}: output digests of the untraced process and of the traced passes "
            f"{'identical' if same else 'DIFFER'}"
        )
        status = status or int(not same)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strategicmdp" / "__init__.py").is_file():
        print(f"error: no strategicmdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    print_report(report)
    print(json.dumps(summary_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

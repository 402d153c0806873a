"""SHA-256 digests of every artifact the package writes, at fixed settings.

The table covers `run` with ill-posedness and transfer on for every scenario,
plus `dyn-1d` noiseless and `recsys-small` bias_probe, under exact,
pointwise and exact-with-selector-cap-5 selection, at seeds 0 and 7 and 150
episodes (policy budget 256); each run's `RunResult.canonical_json()`; the
`diagnose` output and the closed classes of each of those scenarios.
Digests follow criterion 8's rule: `episodes.csv` without its last column
(the wall clock), manifests without `wallclock_ms`.

Regret bytes depend on the OpenBLAS kernel numpy picks at runtime, so the
table records numpy's version and that kernel.

    python tests/golden_digests.py          # list the keys that moved
    python tests/golden_digests.py --write  # regenerate the table
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from strategicmdp import build_scenario, harness, run_learner
from strategicmdp.config import config_from_dict
from strategicmdp.scenarios import GENERATORS

TABLE = Path(__file__).resolve().parent / "golden_digests.json"
SCENARIOS = [(name, {}) for name in sorted(GENERATORS)] + [
    ("dyn-1d", {"noiseless": True}),
    ("recsys-small", {"bias_probe": True}),
]
SELECTIONS = {
    "exact": {"optimism": "exact"},
    "pointwise": {"optimism": "pointwise"},
    "cap5": {"optimism": "exact", "selector_cap": 5},
}
SEEDS = [0, 7]
EPISODES = 150
POLICY_BUDGET = 256


def blas_kernel() -> str:
    """Name of the OpenBLAS kernel numpy's bundled library runs on this CPU, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def runtime() -> dict:
    return {"numpy": np.__version__, "blas_kernel": blas_kernel()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_digest(path: Path, root: Path) -> str:
    """Digest of one artifact, with the output root (echoed in manifests) written as <root>."""
    text = path.read_text().replace(str(root), "<root>")
    if path.name == "episodes.csv":
        return _sha(json.dumps([row[:-1] for row in csv.reader(text.splitlines())]).encode())
    if path.name == "manifest.json":
        manifest = json.loads(text)
        manifest.pop("wallclock_ms", None)
        return _sha(json.dumps(manifest, sort_keys=True).encode())
    return _sha(text.encode())


def _canonical(value) -> bytes:
    """Bytes that identify a value: arrays by shape, dtype and data; dataclasses field by field."""
    if isinstance(value, np.ndarray):
        return f"array{value.shape}{value.dtype}:".encode() + np.ascontiguousarray(value).tobytes()
    if dataclasses.is_dataclass(value):
        value = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(map(_canonical, value)) + b"]"
    return repr(value).encode()


def _label(name: str, params: dict) -> str:
    return "+".join([name, *sorted(params)])


def compute(root: Path) -> dict[str, str]:
    """Every digest of the table, computed afresh with artifacts written under root."""
    digests: dict[str, str] = {}
    for name, params in SCENARIOS:
        label = _label(name, params)
        digests[f"classes/{label}"] = _sha(_canonical(build_scenario(name, 0, params).classes))
        for selection, run_keys in SELECTIONS.items():
            data = {
                "environment": {"generator": name, "params": params},
                "run": {"episodes": EPISODES, "seeds": SEEDS, **run_keys},
                "diagnostics": {"ill_posedness": True, "transfer": True, "policy_budget": POLICY_BUDGET},
                "output": {"root": str(root / "run"), "label": f"{label}-{selection}"},
            }
            runs = {}

            def capture(*args, runs=runs):
                runs[args[-1].seed] = result = run_learner(*args)
                return result

            with mock.patch.object(harness, "run_learner", capture):
                exp = harness.run_experiment(config_from_dict(data))
            prefix = f"run/{label}/{selection}"
            for path in sorted(p for p in exp.rglob("*") if p.is_file()):
                digests[f"{prefix}/{path.relative_to(exp).as_posix()}"] = _artifact_digest(path, root)
            for seed, result in runs.items():
                digests[f"{prefix}/seed-{seed:04d}/canonical_json"] = _sha(result.canonical_json().encode())
        data = {
            "environment": {"generator": name, "params": params},
            "diagnostics": {"policy_budget": POLICY_BUDGET},
            "output": {"root": str(root / "diagnose"), "label": label},
        }
        exp = harness.diagnose(config_from_dict(data))
        digests[f"diagnose/{label}/diagnostics.json"] = _artifact_digest(exp / "diagnostics.json", root)
    return digests


def moved_keys(table: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Keys whose digest differs between the table and a fresh computation, or that only one has."""
    return sorted(k for k in table.keys() | digests.keys() if table.get(k) != digests.get(k))


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(Path(tmp))
    if argv == ["--write"]:
        TABLE.write_text(json.dumps({"runtime": runtime(), "digests": digests}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {TABLE}")
        return 0
    table = json.loads(TABLE.read_text())
    moved = moved_keys(table["digests"], digests)
    print(f"runtime {runtime()}, table {table['runtime']}")
    print("\n".join(moved) if moved else f"all {len(digests)} digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

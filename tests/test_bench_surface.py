"""The package names that the benchmark in ``bench/`` patches or imports.

The benchmark traces a pass by patching library functions under the names
their callers look them up by, and it builds its workloads from public
constructors. A rename in the package that one of those lookups misses
would crash only a traced benchmark pass; this check makes it fail here.
It only reads ``bench/``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

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

"""Every artifact's bytes against the committed golden table (tests/golden_digests.py)."""

from __future__ import annotations

import json

import pytest

from golden_digests import TABLE, compute, moved_keys, runtime


def test_artifacts_match_the_golden_table(tmp_path):
    """A change that moves an output on purpose regenerates the table with
    `python tests/golden_digests.py --write` and lists the keys named here."""
    table = json.loads(TABLE.read_text())
    if runtime() != table["runtime"]:
        pytest.skip(
            f"the table was recorded on {table['runtime']}, this runtime is {runtime()}: "
            "regret bytes depend on numpy's version and its BLAS kernel"
        )
    assert moved_keys(table["digests"], compute(tmp_path)) == []


def test_moved_keys_names_changed_missing_and_new_keys():
    table = {"same": "a", "changed": "b", "missing": "c"}
    assert moved_keys(table, {"same": "a", "changed": "x", "new": "d"}) == ["changed", "missing", "new"]

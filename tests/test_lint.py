"""Static checks on the package source that need no linter."""

from __future__ import annotations

import ast
from pathlib import Path

from helpers import REF_FEEDBACK_INTEGRATIONS, REF_FEEDBACK_MIXES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "strategicmdp"


def _module_imports(tree: ast.Module, is_init: bool):
    """(line, bound name) of every module-level import, `if` blocks included.

    `from __future__` imports and the relative re-exports of __init__.py bind
    nothing that the module itself has to use.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_init and node.level > 0):
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None and a.annotation]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return sorted(
        f"{path.name}:{line}: {name}"
        for line, name in _module_imports(tree, path.name == "__init__.py")
        if name not in used
    )


def test_no_unused_module_imports():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in unused_imports(path)]
    assert found == []


def test_unused_import_check_sees_string_annotations_and_if_blocks(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .a import Quoted, Unused\n"
        "def f(x: 'Quoted') -> None:\n"
        "    return np.zeros(TYPE_CHECKING)\n"
    )
    assert unused_imports(source) == ["mod.py:2: os", "mod.py:6: Unused"]


def _private_definitions(tree: ast.Module):
    """(line, name) of every module-level private function or class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.startswith("__"):
            yield node.lineno, node.name


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names the module reads bare, as attributes, or imports by name."""
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_definitions(package: Path) -> list[str]:
    """Module-level private functions and classes that no module of the package references."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    return sorted(
        f"{path.name}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in referenced
    )


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(PACKAGE) == []


def test_unreferenced_private_check_finds_a_planted_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _called():\n"
        "    return 1\n"
        "def _imported():\n"
        "    return 2\n"
        "class _ReadAsAttribute:\n"
        "    pass\n"
        "def _planted():\n"
        "    return _called()\n"
        "def __dunder__():\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import _imported\n"
        "VALUE = (a._ReadAsAttribute, _imported)\n"
    )
    assert unreferenced_private_definitions(tmp_path) == ["a.py:7: _planted"]


def _annotations(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation: with postponed evaluation
    (PEP 563) annotations are strings at run time, so they read nothing."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in filter(None, roots) for n in ast.walk(root)}


def _scoped_nodes(node: ast.AST, scope: str = ""):
    """(dotted class/function scope, node) for every node below node; module level is ""."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield scope, child
            yield from _scoped_nodes(child, scope)


def _names(node: ast.AST, name: str) -> bool:
    """The node is `name`, bare or as an attribute (`obj.name`)."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def scopes_reading(source: str, name: str) -> set[str]:
    """Dotted class/function scopes whose code reads `name` (module level is "").

    A read is a bare name or an attribute (`obj.name`) that is loaded; an
    assignment to it is not a read. Annotations are not code that runs, so a
    name read only there counts nowhere.
    """
    tree = ast.parse(source)
    skipped = _annotations(tree)
    return {
        scope
        for scope, node in _scoped_nodes(tree)
        if _names(node, name)
        and isinstance(getattr(node, "ctx", None), ast.Load)
        and id(node) not in skipped
    }


def scopes_calling(source: str, name: str) -> set[str]:
    """Dotted class/function scopes whose code calls `name`, bare or as an attribute."""
    return {
        scope
        for scope, node in _scoped_nodes(ast.parse(source))
        if isinstance(node, ast.Call) and _names(node.func, name)
    }


def attributes_read(source: str) -> set[str]:
    """Every attribute name the code loads (`obj.name`), annotations skipped."""
    tree = ast.parse(source)
    skipped = _annotations(tree)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped
    }


def unread_fields(records: dict[Path, list[str]], readers: list[Path]) -> list[str]:
    """Fields of the named classes (records: module -> class names) that no
    reader file loads as an attribute; a field only stored, passed by keyword
    or named in an annotation is unread."""
    read = set().union(*(attributes_read(path.read_text()) for path in readers))
    found = []
    for path, names in records.items():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                found += [
                    f"{path.name}:{field.lineno}: {node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and field.target.id not in read
                ]
    return sorted(found)


def test_every_record_field_is_read():
    """State that nothing reads gets deleted: every field of the per-episode
    record, the confidence sets and the per-seed outcome is read somewhere in
    the package or the benchmark (its tests excluded)."""
    bench = PACKAGE.parents[1] / "bench"
    readers = sorted(PACKAGE.glob("*.py")) + sorted(set(bench.glob("*.py")) - set(bench.glob("test_*.py")))
    records = {
        PACKAGE / "driver.py": ["EpisodeRecord"],
        PACKAGE / "estimation.py": ["ConfidenceSets"],
        PACKAGE / "harness.py": ["SeedOutcome"],
    }
    assert unread_fields(records, readers) == []


def test_unread_field_check_finds_a_planted_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    kept: int\n"
        "    planted: float\n"
        "    stored: int = 0\n"
        "class Other:\n"
        "    unchecked: int\n"
        "def make() -> Record:\n"
        "    rec = Record(kept=1, planted=2.0)\n"
        "    rec.stored = 3\n"
        "    return rec\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Record, make\n"
        "def use(rec: Record.planted) -> int:\n"
        "    return make().kept\n"
    )
    readers = [tmp_path / "a.py", tmp_path / "b.py"]
    records = {tmp_path / "a.py": ["Record"]}
    assert unread_fields(records, readers) == ["a.py:5: Record.planted", "a.py:6: Record.stored"]


def test_loss_path_never_reads_the_mode():
    """The loss families come from HypothesisClasses.families, so
    building, evaluating and thresholding them never asks which transition
    mode runs, and the dataset's storage follows its state_dim."""
    scopes = scopes_reading((PACKAGE / "estimation.py").read_text(), "TransitionMode")
    assert scopes == set()


def test_rollout_never_reads_the_mode():
    """A state is its cell in both modes and env_step locates a dynamical
    next state once, so rollout carries cells without asking which
    transition mode runs; only validation and the step's next-state draw do."""
    scopes = scopes_reading((PACKAGE / "model.py").read_text(), "TransitionMode")
    assert scopes == {"StrategicModel.validate", "env_step"}


def test_learner_loop_reads_the_mode_only_to_check_and_shape():
    """run_learner reads the initial cell off the first step, so the driver
    asks which transition mode runs only in the config's type check and in
    the one rule that shows general mode's single family bare."""
    scopes = scopes_reading((PACKAGE / "driver.py").read_text(), "TransitionMode")
    assert scopes == {"RunConfig.validate", "run_learner.shaped"}


def test_classes_read_the_mode_only_in_the_family_builder():
    """Validation, kernel numbering, residuals, their labels and the
    realizability check loop over the loss families; only the builder that
    makes them asks which transition mode runs."""
    scopes = scopes_reading((PACKAGE / "hypotheses.py").read_text(), "TransitionMode")
    assert scopes == {"HypothesisClasses.families"}


def test_rewards_are_read_only_as_a_loss_family():
    """The reward class is family 0 of every step: validation, residuals,
    their labels, the realizability check, the loss evaluator and the
    driver's truth check take it from HypothesisClasses.families. Only that
    builder, the construction checks, the horizon and the class sizes read
    the reward fields, and estimation keeps no family type of its own."""
    allowed = {
        "HypothesisClasses.families",
        "HypothesisClasses.__post_init__",
        "HypothesisClasses.horizon",
        "HypothesisClasses.sizes",
    }
    for module in ("hypotheses.py", "estimation.py", "driver.py"):
        source = (PACKAGE / module).read_text()
        for name in ("reward_tables", "truth_reward_idx"):
            assert scopes_reading(source, name) <= allowed, (module, name)
    tree = ast.parse((PACKAGE / "estimation.py").read_text())
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [name for name in classes if "family" in name.lower()] == []


def test_the_true_law_reads_the_mode_only_in_the_step_kernels():
    """true_aggregated_model, occupancy and the ratio oracles push per-type
    weights through one set of step kernels, so only the kernel builder asks
    which transition mode runs."""
    scopes = scopes_reading((PACKAGE / "diagnostics.py").read_text(), "TransitionMode")
    assert scopes == {"_step_kernels"}


def test_planning_serves_only_the_learner():
    """Learner planning reads no environment tables: the mode is read only
    where the candidate kernels are built, the model is never read, and the
    per-type feedback law is read only off the learner's knowledge, where
    the candidate kernels are built, never computed from the model."""
    source = (PACKAGE / "planning.py").read_text()
    assert scopes_reading(source, "TransitionMode") == {"CandidateAggregates.from_classes"}
    assert scopes_reading(source, "StrategicModel") == set()
    assert scopes_reading(source, "feedback_by_type") == {"CandidateAggregates.from_classes"}
    assert "feedback_by_type" not in _used_names(ast.parse(source))  # an attribute, not the function


def test_scenarios_build_a_model_only_in_the_model_helper():
    """Every generator hands its tables to _model, which reads the sizes off
    the feedback kernel and the mode off the transition tables it is given.
    The Tables alias names the class at module level, so this checks calls."""
    assert scopes_calling((PACKAGE / "scenarios.py").read_text(), "StrategicModel") == {"_model"}


def test_call_site_check_finds_a_planted_call():
    source = (
        "from . import model\n"
        "from .model import StrategicModel\n"
        "Tables = tuple[StrategicModel, list]\n"
        "def _model(**tables) -> StrategicModel:\n"
        "    return StrategicModel(**tables)\n"
        "class Planted:\n"
        "    def build(self):\n"
        "        return model.StrategicModel(horizon=1)\n"
    )
    assert scopes_calling(source, "StrategicModel") == {"_model", "Planted.build"}


def test_mode_reader_check_finds_a_planted_branch():
    source = (
        "from .model import TransitionMode\n"
        "class Kept:\n"
        "    def __init__(self, mode: TransitionMode):\n"
        "        self.general = mode is TransitionMode.GENERAL\n"
        "def planted(mode):\n"
        "    return [m for m in (mode,) if m is TransitionMode.GENERAL]\n"
    )
    assert scopes_reading(source, "TransitionMode") == {"Kept.__init__", "planted"}


def test_scope_check_sees_attribute_reads_and_skips_stores():
    source = (
        "class Classes:\n"
        "    tables: list\n"
        "    def __post_init__(self):\n"
        "        self.tables = list(self.tables)\n"
        "    def set_only(self, t):\n"
        "        self.tables = t\n"
        "def planted(classes):\n"
        "    return classes.tables[0]\n"
    )
    assert scopes_reading(source, "tables") == {"Classes.__post_init__", "planted"}


def test_mode_reader_check_skips_annotations():
    source = (
        "from __future__ import annotations\n"
        "from .model import TransitionMode\n"
        "class Stored:\n"
        "    mode: TransitionMode\n"
        "def typed(mode: TransitionMode = None) -> TransitionMode:\n"
        "    kept: TransitionMode = mode\n"
        "    return kept\n"
        "def branching(mode):\n"
        "    return mode is TransitionMode.GENERAL\n"
    )
    assert scopes_reading(source, "TransitionMode") == {"branching"}


def _einsum_subscripts(source: str):
    """(scope, subscripts) of every einsum call whose subscripts are a string
    literal; an f-string's placeholders read as "{}"."""
    for scope, node in _scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Call) and _names(node.func, "einsum") and node.args:
            first = node.args[0]
            if isinstance(first, ast.JoinedStr):
                yield scope, "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in first.values)
            elif isinstance(first, ast.Constant) and isinstance(first.value, str):
                yield scope, first.value


def feedback_sum_kind(subscripts: str) -> str | None:
    """"mix" when the type axis t is summed out of a per-type feedback operand
    (one ending in te) into a feedback law (output ending in e), "integrate"
    when the feedback axis e, last in every operand, is summed out against
    unbatched (s, a, e) weights; None for any other sum."""
    inputs, _, output = subscripts.partition("->")
    operands = inputs.split(",")
    if "t" not in output and output.endswith("e") and any(op.endswith("te") for op in operands):
        return "mix"
    if "e" not in output and all(op.endswith("e") for op in operands) and "sae" in operands:
        return "integrate"
    return None


def test_feedback_is_mixed_and_integrated_only_in_model():
    """The population mix of the per-type feedback table and the integration
    of feedback against (s, a, e) weights each have one spelling, in
    model.feedback_mix and model.integrate_feedback."""
    found = {
        (path.name, scope, kind)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, subscripts in _einsum_subscripts(path.read_text())
        if (kind := feedback_sum_kind(subscripts))
    }
    assert found == {("model.py", "feedback_mix", "mix"), ("model.py", "integrate_feedback", "integrate")}


def test_feedback_sum_check_knows_every_old_spelling_and_the_kept_sums():
    assert [feedback_sum_kind(sub) for sub in REF_FEEDBACK_MIXES] == ["mix"] * len(REF_FEEDBACK_MIXES)
    integrations = [feedback_sum_kind(sub) for sub in REF_FEEDBACK_INTEGRATIONS]
    assert integrations == ["integrate"] * len(REF_FEEDBACK_INTEGRATIONS)
    kept = ("sae,psaex->psax", "...sae,saex->...{}", "...sate,tsaex->...{}", "hsae,hsae->hsa", "ht,htd->hd")
    assert [feedback_sum_kind(sub) for sub in kept] == [None] * len(kept)
    planted = "import numpy as np\ndef planted(k, nu):\n    return np.einsum(f\"sae,nsae->{'nsa'}\", k, nu)\n"
    assert list(_einsum_subscripts(planted)) == [("planted", "sae,nsae->{}")]

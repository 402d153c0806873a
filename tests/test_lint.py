"""Static checks on the package source that need no linter."""

from __future__ import annotations

import ast
from pathlib import Path

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

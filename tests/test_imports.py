"""Every name a library module imports is used there or re-exported."""

import ast
import importlib
from pathlib import Path

import pytest

import cyclewalk

MODULES = sorted(Path(cyclewalk.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "cyclewalk" if path.stem == "__init__" else f"cyclewalk.{path.stem}"
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    unused = imported - used - exported
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_names():
    """(module, name) of each name that perfbench/checks.py imports from the
    package and of each entry of perfbench/spans.py's TARGETS, read with ast."""
    names = []
    for node in ast.walk(ast.parse((PERFBENCH / "checks.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyclewalk"):
            names.extend((node.module, alias.name) for alias in node.names)
    for node in ast.parse((PERFBENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            for layer, fnames in ast.literal_eval(node.value).items():
                names.extend((f"cyclewalk.{layer}", fname) for fname in fnames)
    return names


def test_benchmark_reads_names_that_exist():
    names = benchmark_names()
    assert ("cyclewalk.thermo", "asymptotic_density") in names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"perfbench reads names the package lacks: {missing}"

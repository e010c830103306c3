"""The engine is numpy-only: every module under src/orsnn imports nothing
but the standard library, numpy and orsnn itself. And it holds only the
tensor and neuron ops that it runs: test-only ops live in tests/."""

import ast
import sys
from pathlib import Path

import pytest

import orsnn

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "orsnn"}


def imported_roots(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import in tree."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_engine_imports_only_the_stdlib_numpy_and_itself():
    modules = sorted(Path(orsnn.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    foreign, seen = {}, set()
    for path in modules:
        roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
        seen |= roots
        if roots - ALLOWED:
            foreign[path.name] = sorted(roots - ALLOWED)
    assert not foreign
    assert "numpy" in seen


def test_the_import_walk_sees_nested_and_aliased_imports():
    tree = ast.parse("import numpy as np\n"
                     "def f():\n"
                     "    from scipy.signal import convolve\n"
                     "    import torch.nn, os.path\n"
                     "from . import tensor\n")
    assert imported_roots(tree) == {"numpy", "scipy", "torch", "os"}


def public_functions(tree: ast.Module) -> set[str]:
    """The names of tree's module-level functions that do not start with _."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def used_from(tree: ast.Module, module: str) -> set[str]:
    """The names of sibling `module` that tree uses: read as attributes of a
    name bound to the module (`from . import tensor as tz`, then tz.conv2d)
    or imported from it (`from .tensor import make_node`) and then read."""
    aliases, imported = set(), {}  # imported: local name -> the module's name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
            elif node.module == module:
                imported |= {a.asname or a.name: a.name for a in node.names}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in imported:
            used.add(imported[node.id])
    return used


@pytest.mark.parametrize("module", ["tensor", "neuron"])
def test_every_public_op_has_an_engine_caller(module):
    """Each public function of orsnn.tensor and orsnn.neuron is used by
    another engine module, __init__ aside: an op that only tests call
    belongs in tests/reference.py."""
    root = Path(orsnn.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in root.glob("*.py")}
    ops = public_functions(trees[module])
    assert ops
    used = set().union(*(used_from(tree, module) for name, tree in trees.items()
                         if name not in (module, "__init__")))
    assert sorted(ops - used) == []


def test_the_caller_walk_sees_aliased_and_imported_uses_only():
    tree = ast.parse("from . import tensor as tz\n"
                     "from .tensor import make_node, add as plus\n"
                     "from .neuron import relu\n"
                     "def f(x):\n"
                     "    y = x.reshape(2)\n"
                     "    return make_node(tz.conv2d(x), (x,), None), plus, relu\n")
    assert used_from(tree, "tensor") == {"conv2d", "make_node", "add"}
    assert public_functions(tree) == {"f"}

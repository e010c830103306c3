"""The engine is numpy-only: every module under src/orsnn imports nothing
but the standard library, numpy and orsnn itself. And it holds only what
it runs: every public tensor and neuron op has an engine caller, and every
defaulted parameter is passed by some engine call, so test-only ops and
settings live in tests/."""

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


# Defaulted parameters that no engine call passes, each kept for a caller
# outside src/orsnn.
OUTSIDE_CALLERS = {
    ("tensor", "backward", "seed"):
        "the tests' vector-Jacobian entry: a non-scalar root needs a seed",
    ("network", "Network.forward", "strict"):
        "perfbench's audit workload passes strict=False until the benchmark drops it",
    ("cli", "main", "argv"):
        "the process entry point reads sys.argv; callers in-process pass argv",
}


def defaulted_params(tree: ast.Module):
    """(qualified name, bare call name, parameter, positional index or None)
    for each defaulted parameter of tree's public functions, public methods
    and the constructors of its public classes. A method's index skips self
    or cls, and a constructor is called by its class's name."""
    def params(fn: ast.FunctionDef, method: bool):
        a = fn.args
        positional = a.posonlyargs + a.args
        if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in fn.decorator_list):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield arg.arg, i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield arg.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, index in params(node, False):
                yield node.name, node.name, name, index
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    qual, called = node.name, node.name
                elif fn.name.startswith("_"):
                    continue
                else:
                    qual, called = f"{node.name}.{fn.name}", fn.name
                for name, index in params(fn, True):
                    yield qual, called, name, index


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call passes the parameter `name` at positional `index`: by
    keyword, by position, or through a * or ** argument (which may pass
    anything)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and index < len(call.args)


def unpassed_params(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, qualified name, parameter) of every defaulted parameter in
    trees that no call in trees passes, matching calls by the bare name of
    the callee (f(...) or obj.f(...))."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                bare = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                calls.setdefault(bare, []).append(node)
    return {(module, qual, name)
            for module, tree in trees.items()
            for qual, called, name, index in defaulted_params(tree)
            if not any(passes(c, name, index) for c in calls.get(called, ()))}


def test_every_defaulted_parameter_has_an_engine_caller():
    """A setting that only tests pass is a second code path the engine
    never runs: it belongs in tests/reference.py. The exemptions are
    parameters passed by callers outside the engine."""
    root = Path(orsnn.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in root.glob("*.py")}
    assert sorted(unpassed_params(trees)) == sorted(OUTSIDE_CALLERS)


def test_the_parameter_walk_matches_by_name_position_keyword_and_star():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def _hidden(e=4): pass\n"
        "class K:\n"
        "    def __init__(self, g=5, h=6): pass\n"
        "    def m(self, i=7, j=8): pass\n"
        "    @staticmethod\n"
        "    def s(k=9): pass\n"
        "    @classmethod\n"
        "    def c(cls, n=10): pass\n"
        "class _Private:\n"
        "    def __init__(self, p=11): pass\n"
        "def use(obj, args, kw):\n"
        "    f(0, 1)\n"
        "    obj.f(0, c=2)\n"
        "    K(5)\n"
        "    obj.m(**kw)\n"
        "    K.s(9)\n"
        "    obj.c(*args)\n"
        "    _Private()\n")
    assert sorted((q, c, n, i) for q, c, n, i in defaulted_params(tree)) == [
        ("K", "K", "g", 0), ("K", "K", "h", 1), ("K.c", "c", "n", 0),
        ("K.m", "m", "i", 0), ("K.m", "m", "j", 1), ("K.s", "s", "k", 0),
        ("f", "f", "b", 1), ("f", "f", "c", None), ("f", "f", "d", None)]
    assert unpassed_params({"mod": tree}) == {("mod", "K", "h"), ("mod", "f", "d")}

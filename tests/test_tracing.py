"""The benchmark tracer's view of the package: every layer it wraps must still
exist under its name and take the arguments its counters read."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.append(str(BENCH))

from tracing import LAYERS  # noqa: E402


def counted_arguments() -> list[set[str]]:
    """Per entry of LAYERS, the argument names its counter reads: the string
    subscripts in its count expression and in the module-level helpers it calls."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    ]
    out = []
    for call in layers.elts:
        names, todo, seen = set(), list(call.args[3:]), set()
        while todo:
            for node in ast.walk(todo.pop()):
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                    if isinstance(node.slice.value, str):
                        names.add(node.slice.value)
                elif isinstance(node, ast.Name) and node.id in helpers and node.id not in seen:
                    seen.add(node.id)
                    todo.append(helpers[node.id])
        out.append(names)
    return out


def test_traced_layers_exist_and_take_counted_arguments():
    needed = counted_arguments()
    assert len(needed) == len(LAYERS)
    assert set().union(*needed) >= {"f", "I", "cubes", "decomposition", "K", "path"}
    for layer, names in zip(LAYERS, needed):
        where = f"qalpha.{layer.module}.{layer.function}"
        fn = getattr(importlib.import_module(f"qalpha.{layer.module}"), layer.function, None)
        assert callable(fn), f"{where} is traced by the benchmark but no longer exists"
        missing = names - set(inspect.signature(fn).parameters)
        assert not missing, f"{where} no longer takes {sorted(missing)}"

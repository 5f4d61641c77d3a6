"""The benchmark tracer looks ordseq names up by string; keep them resolvable.

perfbench/tracer.py is read, not imported, so this test leaves that
directory untouched.
"""

import ast
import importlib
from pathlib import Path

from ordseq.groups import FiniteGroup

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constants() -> dict:
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("FUNCTIONS", "METHODS", "CACHED_LISTINGS"):
                out[name] = ast.literal_eval(node.value)
    return out


def test_tracer_names_resolve():
    consts = _tracer_constants()
    assert set(consts) == {"FUNCTIONS", "METHODS", "CACHED_LISTINGS"}
    listed = {}
    for module_name, names in consts["FUNCTIONS"].values():
        module = importlib.import_module(module_name)
        for fname in names:
            fn = getattr(module, fname, None)
            assert callable(fn) and fn.__module__ == module_name, f"{module_name}.{fname}"
            listed[fname] = fn
    for names in consts["METHODS"].values():
        for mname in names:
            assert callable(getattr(FiniteGroup, mname, None)), f"FiniteGroup.{mname}"
    for fname in consts["CACHED_LISTINGS"]:
        assert hasattr(listed.get(fname), "cache_info"), fname

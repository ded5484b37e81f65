"""The library names that perfbench/tracer.py wraps and reads still resolve.

The tracer names each function it wraps and each lru cache it reads by
(module, dotted path), and swaps a wrapped function in every awbm module
that holds it by name.  A name that moves to another module must stay
reachable from the module the tracer names, as the very object its defining
module holds: a missing name stops every traced job before its trace is
written, and a second copy would leave the calls made inside the defining
module uncounted.  The tracer's tables are read from its source, which this
test does not import.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables():
    """SPANS, COUNTS and CACHES as the tracer's source spells them."""
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in ast.parse(TRACER.read_text()).body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTS",
                                                         "CACHES")}


def _entries():
    tables = _tables()
    return ([("wrapped", m, path) for m, path, _ in tables["SPANS"]]
            + [("wrapped", m, path) for m, path, _ in tables["COUNTS"]]
            + [("cache", m, path) for m, path in tables["CACHES"].values()])


def _resolve(obj, path):
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("kind,modname,path", _entries(),
                         ids=[f"{m}:{p}" for _, m, p in _entries()])
def test_traced_name_is_the_object_its_defining_module_holds(kind, modname,
                                                             path):
    named = importlib.import_module(modname)
    got = _resolve(named, path)
    home = importlib.import_module(
        getattr(named, path.split(".")[0]).__module__)
    assert _resolve(home, path) is got, (modname, path, home.__name__)
    assert callable(got)
    if kind == "cache":
        assert callable(got.cache_info)

"""The library names that the benchmark's own files import still resolve.

perfbench/record.py builds the catalogs from library names it imports at
module level, bench.py's straighten check imports `bk_gauge` and
`cli.parse_tuple` while a run checks its outputs, and tracer.py imports
`awbm.cli`.  Those files do not change when the library moves code between
modules, so a name that moves must stay importable from the module they
import it from, as the very object its defining module holds.  The imports
are read from the benchmark's source with ast, which this test does not run.
"""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _imports():
    """(file, module, name) for every `from awbm... import name`, and
    (file, module, None) for every `import awbm...`, in the benchmark."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "awbm":
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "awbm"]
    return found


IMPORTS = _imports()


def test_the_benchmark_imports_what_it_is_known_to_import():
    names = {(module, name) for _, module, name in IMPORTS}
    assert {("awbm.affine_weyl", "GroupContext"),
            ("awbm.affine_weyl", "WeylTuple"),
            ("awbm.affine_weyl", "restricted_classes"),
            ("awbm.weights", "weight_depth_base"),
            ("awbm.cli", "parse_tuple"), ("awbm.cli", "parse_element"),
            ("awbm.cli", None)} <= names


@pytest.mark.parametrize("file,module,name", IMPORTS,
                         ids=[f"{f}:{m}:{n}" for f, m, n in IMPORTS])
def test_benchmark_import_resolves_to_its_home_object(file, module, name):
    named = importlib.import_module(module)
    if name is None:
        return
    got = getattr(named, name)
    home = getattr(got, "__module__", None)
    if home and home.startswith("awbm."):
        assert getattr(importlib.import_module(home), name) is got, (
            file, module, name, home)

"""Package-wide properties: the shape of the public API, and no floats."""

import ast
import importlib
import pkgutil
import tokenize
from pathlib import Path

import periodic_cluster

PACKAGE_DIR = Path(periodic_cluster.__file__).parent


def _submodules_with_all():
    found = []
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"periodic_cluster.{info.name}")
        if hasattr(module, "__all__"):
            found.append(module)
    return found


def test_all_is_unique_and_public():
    names = periodic_cluster.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if n.startswith("_")] == []


def test_all_is_the_union_of_the_submodule_lists():
    modules = _submodules_with_all()
    assert modules
    union = {name for module in modules for name in module.__all__}
    assert set(periodic_cluster.__all__) == union


def test_every_exported_name_resolves():
    for name in periodic_cluster.__all__:
        assert hasattr(periodic_cluster, name), name


def test_exported_callables_live_where_they_are_listed():
    # a re-export listed in a second module would show up here
    for module in _submodules_with_all():
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_core_is_float_free():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME and tok.string == "float":
                    found.append(f"{path.name}:{tok.start[0]}: float")
                elif tok.type == tokenize.NUMBER and not isinstance(
                    ast.literal_eval(tok.string), int
                ):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []

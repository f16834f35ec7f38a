"""Every `sharptail` name the scripts under `tools/` use exists in the package.

The scripts import private names (`tools/sampler_costs.py` takes
`_MC_CHUNK`, `_component_sampler` and others from `sharptail.oracle`, and
reads `oracle._lattice_layout`) and nothing runs them, so a rename would
break them silently.  Reading their imports and attribute reads here makes
it fail the test suite instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _sharptail_names(path):
    """(owner, name) for each `from sharptail... import name` in `path`, and
    for each `alias.name` read off a name so imported; an owner is a dotted
    path from `sharptail`."""
    tree = ast.parse(path.read_text(), str(path))
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sharptail":
            for alias in node.names:
                names.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sharptail":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            names.append((bound[node.value.id], node.attr))
    return names


def _resolve(dotted):
    """The object at a dotted path from `sharptail`, attribute by attribute."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:  # a submodule the package does not import
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


@pytest.mark.parametrize("path", sorted(TOOLS.glob("*.py")), ids=lambda p: p.name)
def test_every_tool_name_resolves(path):
    missing = []
    for owner, name in _sharptail_names(path):
        try:
            _resolve(f"{owner}.{name}")
        except ImportError:
            missing.append(f"{owner}.{name}")
    assert missing == []


def test_sampler_costs_names_are_read():
    names = set(_sharptail_names(TOOLS / "sampler_costs.py"))
    assert {("sharptail.oracle", n) for n in (
        "_MC_CHUNK", "_component_rng", "_component_sampler", "_Multinomial",
        "_lattice_layout", "_table_build_ns", "_BINOMIAL_NS")} <= names

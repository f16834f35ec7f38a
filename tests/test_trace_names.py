"""Every function the benchmark tracer wraps by name exists in the package.

`perfbench/tracer.py` lists (module, attribute) pairs in SPANS and COUNTED; a
traced run marks itself incorrect when one of them is missing.  Reading the
lists here makes a rename or deletion fail the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTED]


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    missing = []
    for mod, attr in names:
        module = importlib.import_module(f"sharptail.{mod}")
        # a "Class.method" entry is looked up on the class, as the tracer does
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or member not in vars(owner):
            missing.append(f"{mod}.{attr}")
    assert missing == []

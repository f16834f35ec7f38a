"""Every dotted code name README cites in backticks exists in the package.

README names functions, records and constants by dotted paths, such as
`sharptail.models.law_scale`, `SumModel.saddlepoint_record`,
`oracle._TABLE_NS` or `_tiltmath.packed_tilt`.  Nothing else reads them, so a
rename or deletion would leave README pointing at nothing; resolving each one
here makes it fail the test suite instead.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import sharptail

README = Path(__file__).resolve().parent.parent / "README.md"

#: an inline code span holding only a dotted name, such as `oracle._TABLE_NS`
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
#: a span ending in one of these is a file name, not a code name
_FILE_SUFFIXES = {"py", "json", "md", "toml", "txt", "csv"}


def _cited_names():
    names = set(_DOTTED.findall(README.read_text(encoding="utf-8")))
    return sorted(n for n in names if n.rsplit(".", 1)[1] not in _FILE_SUFFIXES)


def _resolve(dotted):
    """The object a README name denotes: a path from `sharptail`, from one
    of its modules, or from a name the package exports; None if none does."""
    first, *rest = dotted.removeprefix("sharptail.").split(".")
    modules = {m.name for m in pkgutil.iter_modules(sharptail.__path__)}
    if first in modules:
        obj = importlib.import_module(f"sharptail.{first}")
    elif hasattr(sharptail, first):
        obj = getattr(sharptail, first)
    else:
        return None
    for part in rest:
        if not hasattr(obj, part):
            return None
        obj = getattr(obj, part)
    return obj


def test_readme_cites_names():
    names = _cited_names()
    assert {"sharptail.models.law_scale", "SumModel.saddlepoint_record", "oracle._TABLE_NS",
            "_tiltmath.packed_tilt"} <= set(names)


def test_every_readme_name_resolves():
    assert [name for name in _cited_names() if _resolve(name) is None] == []

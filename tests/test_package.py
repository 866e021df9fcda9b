"""Guards on the package surface.

Every name the package exports must resolve, and no fracpot module may import
a `_`-prefixed (module-private) name from another fracpot module: what one
module needs from another is public API of that module.
"""

import ast
from pathlib import Path

import fracpot

SOURCES = sorted(Path(fracpot.__file__).resolve().parent.glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in fracpot.__all__ if not hasattr(fracpot, name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "fracpot"
            if internal:
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert SOURCES and offenders == []

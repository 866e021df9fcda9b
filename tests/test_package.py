"""Guards on the package surface.

Every name the package exports must resolve, and no fracpot module may import
a `_`-prefixed (module-private) name from another fracpot module: what one
module needs from another is public API of that module.  No public name may
exist only for the tests: each must have a use in fracpot or in perfbench.
"""

import ast
from pathlib import Path

import fracpot

SOURCES = sorted(Path(fracpot.__file__).resolve().parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def layer_names() -> set:
    """The `module.function` strings of perfbench/tracer.py's LAYERS, read with ast."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no LAYERS tuple")


def public_definitions(module: str, tree):
    """(module.name, name, node) of each public top-level function, class and
    constant of a module, and of each public method of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = getattr(target, "id", "_")
                if not name.startswith("_"):
                    yield f"{module}.{name}", name, node


def reads(tree) -> list:
    """(name, node id) of every name and attribute a tree reads."""
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def test_every_public_name_has_a_production_use():
    """A public name must be read by fracpot itself (not only re-exported by
    __init__.py) or by the perfbench scripts, or be one of perfbench's traced
    layers; tests do not count.  A name read only inside definitions that are
    themselves unused counts as unused too."""
    production = [p for p in SOURCES if p.name != "__init__.py"] + sorted(PERFBENCH.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in production}
    readers = {}  # name -> ids of the nodes that read it
    for tree in trees.values():
        for name, node_id in reads(tree):
            readers.setdefault(name, []).append(node_id)
    definitions = [
        (label, name, {node_id for _, node_id in reads(node)})
        for path, tree in trees.items()
        if path.parent.name == "fracpot"
        for label, name, node in public_definitions(path.stem, tree)
    ]
    layers = layer_names()
    unused, dead_reads = {}, set()  # label -> reads inside it; reads inside unused names
    while True:
        newly = {
            label: inside
            for label, name, inside in definitions
            if label not in layers
            and label not in unused
            and all(r in inside or r in dead_reads for r in readers.get(name, []))
        }
        if not newly:
            break
        unused.update(newly)
        dead_reads.update(*newly.values())
    assert definitions
    assert sorted(unused) == []

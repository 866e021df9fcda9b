"""Guards on the package surface.

Every name the package exports must resolve, and no fracpot module may import
a `_`-prefixed (module-private) name from another fracpot module: what one
module needs from another is public API of that module.  No public name may
exist only for the tests: each must have a use in fracpot or in perfbench.
That check matches bare names, so a method name that several classes define
must be listed in SHARED_METHODS with the production code that reads it.  A
public field of a public class counts only through an attribute read: a bare
name of the same spelling, such as a local variable, does not read it.
The one scipy import is the scipy package itself, in fem, which loads the DIA
kernel's extension file without the scipy.sparse package.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import fracpot
import fracpot.fem

SOURCES = sorted(Path(fracpot.__file__).resolve().parent.glob("*.py"))
PACKAGE_ROOT = str(Path(fracpot.__file__).resolve().parent.parent)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Public method names that more than one fracpot class defines, each mapped to
# the production code that reads every one of them.  A read of the bare name
# cannot tell whose method it calls, so a test-only method would hide behind
# its namesake.
SHARED_METHODS: dict[str, str] = {}


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


def test_the_one_scipy_import_is_the_scipy_package_in_fem():
    """Operators are DIA data on the mesh, so no module builds a scipy
    matrix; fem loads scipy's DIA product kernel from its file, and imports
    nothing else of scipy."""
    imports = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert imports == [("fem.py", "scipy")]


def run_python(code: str, *path: Path) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter with `path` first on its PYTHONPATH."""
    entries = [str(p) for p in path] + [PACKAGE_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, entries))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_the_cli_loads_the_kernel_without_the_scipy_sparse_package():
    proc = run_python(
        "import sys, json, fracpot.cli\n"
        "kernel = sys.modules['scipy.sparse._sparsetools']\n"
        "print(json.dumps(['scipy.sparse' in sys.modules, kernel.__file__]))"
    )
    assert proc.returncode == 0, proc.stderr
    package_loaded, kernel_file = json.loads(proc.stdout)
    assert not package_loaded
    assert kernel_file == importlib.util.find_spec("scipy.sparse._sparsetools").origin


def test_a_later_scipy_sparse_import_reuses_the_loaded_kernel():
    import scipy.sparse._sparsetools

    assert scipy.sparse._sparsetools.dia_matvec is fracpot.fem._DIA_MATVEC


def test_a_missing_kernel_is_an_import_error_naming_where_and_which_scipy(tmp_path):
    fake = tmp_path / "scipy"
    (fake / "sparse").mkdir(parents=True)
    (fake / "__init__.py").write_text('__version__ = "0.0.fake"\n')
    proc = run_python("import fracpot", tmp_path)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last == f"ImportError: no _sparsetools extension in {fake}/sparse (scipy 0.0.fake)"


def layer_names() -> set:
    """The `module.function` strings of perfbench/tracer.py's LAYERS, read with ast."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no LAYERS tuple")


def public_definitions(module: str, tree):
    """(module.name, name, node) of each public top-level function, class and
    constant of a module, and of each public method and annotated field of its
    public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        yield f"{module}.{node.name}.{name}", name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = getattr(target, "id", "_")
                if not name.startswith("_"):
                    yield f"{module}.{name}", name, node


def shared_method_names(trees: dict) -> dict:
    """name -> the `module.Class` owners of each public method name that more
    than one class of the module trees ({module: tree}) defines."""
    owners = {}
    for module, tree in trees.items():
        for label, name, node in public_definitions(module, tree):
            if label.count(".") == 2 and isinstance(node, ast.FunctionDef):  # module.Class.method
                owners.setdefault(name, []).append(label.rsplit(".", 1)[0])
    return {name: sorted(labels) for name, labels in owners.items() if len(labels) > 1}


def test_shared_method_names_are_found():
    tree = ast.parse(
        "class A:\n    def matvec(self): pass\n"
        "class B:\n    def matvec(self): pass\n    def cut(self): pass\n"
    )
    assert shared_method_names({"m": tree}) == {"matvec": ["m.A", "m.B"]}


def reads(tree) -> list:
    """(name, node id, is an attribute) of every name and attribute a tree reads."""
    return [
        (node.id, id(node), False) if isinstance(node, ast.Name) else (node.attr, id(node), True)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def is_field(label: str, node) -> bool:
    return label.count(".") == 2 and isinstance(node, ast.AnnAssign)


def test_every_public_name_has_a_production_use():
    """A public name must be read by fracpot itself (not only re-exported by
    __init__.py) or by the perfbench scripts, or be one of perfbench's traced
    layers; tests do not count.  A name read only inside definitions that are
    themselves unused counts as unused too.  A method name that several
    classes define passes only through an entry of SHARED_METHODS.  A field
    passes only through an attribute read."""
    production = [p for p in SOURCES if p.name != "__init__.py"] + sorted(PERFBENCH.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in production}
    readers, attribute_readers = {}, {}  # name -> ids of the nodes that read it
    for tree in trees.values():
        for name, node_id, is_attribute in reads(tree):
            readers.setdefault(name, []).append(node_id)
            if is_attribute:
                attribute_readers.setdefault(name, []).append(node_id)
    definitions = [
        (label, (attribute_readers if is_field(label, node) else readers).get(name, []),
         {node_id for _, node_id, _ in reads(node)})
        for path, tree in trees.items()
        if path.parent.name == "fracpot"
        for label, name, node in public_definitions(path.stem, tree)
    ]
    layers = layer_names()
    unused, dead_reads = {}, set()  # label -> reads inside it; reads inside unused names
    while True:
        newly = {
            label: inside
            for label, name_readers, inside in definitions
            if label not in layers
            and label not in unused
            and all(r in inside or r in dead_reads for r in name_readers)
        }
        if not newly:
            break
        unused.update(newly)
        dead_reads.update(*newly.values())
    assert definitions
    assert sorted(unused) == []
    shared = shared_method_names(
        {path.stem: tree for path, tree in trees.items() if path.parent.name == "fracpot"}
    )
    assert sorted(set(shared) - set(SHARED_METHODS)) == []
    assert sorted(set(SHARED_METHODS) - set(shared)) == []  # no stale entries

"""Every public name of the package has a reader.

The scan parses src/pga, scripts/ and perfbench/ and collects each name
used as a variable, attribute, import or string constant (perfbench
looks layer functions up by name with getattr).  Every public top-level
function, public class and public method defined in src/pga must be
used somewhere outside its own definition.  Matching is by name only:
a use of any object of the same name counts, so the scan can miss dead
code.  Every error class but the base is caught or tested for in
src/pga, or carries state of its own.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pga"
SCANNED = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# names that only tests read, each kept for the test that needs it
ALLOWED = {
    "read_report": "the report round-trip tests",
    "point_stabilizer": "the stabilizer tests; the stabilizer route to the fixity above the cap builds on it",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """Names of the package's public top-level functions and classes and
    of the public methods of its top-level classes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def _used_names(node, inside, out):
    """Add to out each name node uses, except inside a definition of that
    same name; inside holds the names of the enclosing definitions."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = None
    if name is not None and name not in inside:
        out.add(name)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    for child in ast.iter_child_nodes(node):
        _used_names(child, inside, out)


def used_names():
    out = set()
    for directory in SCANNED:
        for path in sorted(directory.glob("*.py")):
            _used_names(_parse(path), frozenset(), out)
    return out


def test_every_public_name_has_a_reader():
    used = used_names()
    unread = sorted(set(public_definitions()) - used - set(ALLOWED))
    assert unread == [], f"public names nothing in src/pga, scripts or perfbench reads: {unread}"


def test_allowlisted_names_still_exist():
    assert set(ALLOWED) <= set(public_definitions())


def perfbench_layer_calls():
    """perfbench's LAYER_CALLS table, read as a literal without importing
    perfbench."""
    tree = _parse(ROOT / "perfbench" / "workloads.py")
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYER_CALLS"]
    ]
    return ast.literal_eval(table)


def test_perfbench_layer_calls_resolve():
    """perfbench's traced run replaces each function of its LAYER_CALLS
    table on pga.<module> by name; one that no longer resolves fails
    every traced operation."""
    layer_calls = perfbench_layer_calls()
    assert set(layer_calls) == {"harness", "closure"}
    for module, names in layer_calls.items():
        namespace = vars(importlib.import_module(f"pga.{module}"))
        missing = sorted(name for name in names if not callable(namespace.get(name)))
        assert missing == [], f"pga.{module} lacks {missing}"


def _class_names(node):
    """The names an except clause or an isinstance call tests against."""
    if isinstance(node, ast.Tuple):
        return {name for item in node.elts for name in _class_names(item)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def caught_names():
    """Names of the classes that an except clause or an isinstance call
    in src/pga tests for."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                out |= _class_names(node.type)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                out |= _class_names(node.args[1])
    return out


def test_every_error_class_is_reacted_to():
    """An error class other than the base earns its place by being caught
    or tested for, or by carrying state of its own; any other failure
    raises the base class with a message that says what went wrong."""
    caught = caught_names()
    idle = [
        node.name
        for node in _parse(PACKAGE / "errors.py").body
        if isinstance(node, ast.ClassDef)
        and node.name != "PgaError"
        and node.name not in caught
        and not any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
    ]
    assert idle == [], f"error classes nothing in src/pga catches or tests for: {idle}"

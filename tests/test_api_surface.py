"""Every public function and class of the package has a caller, and every
import is read.

A caller is a use in the package or in the benchmark harness: a name, an
attribute, an import or an identifier-like string (the tracer patches
functions by name).  A public method or property counts as called only
through an attribute of its name, so a local variable or a dict key of
the same name does not hide it.  Tests do not count, so a name that only
tests read fails here.

An import of a package or test module must be read as a name in that
module, unless ``__all__`` lists it or its line says ``noqa: F401`` (the
tracer patches a few imported names where a module looks them up).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "spinscape").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
IMPORTERS = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# _Parser.error is argparse's hook; violated_weight is the reference the
# tests compare the package's energies against.
NO_CALLER_NEEDED = {"error", "violated_weight"}


def _used_names() -> tuple:
    """(every name the callers use, the names they use as an attribute)."""
    used, attrs = set(), set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    used.add(node.value)
    return used | attrs, attrs


def _unused(path: Path, used: set, attrs: set) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return ["%s:%d %s" % (path.name, node.lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in (attrs if id(node) in methods else used) | NO_CALLER_NEEDED]


def test_every_public_name_has_a_caller():
    used, attrs = _used_names()
    unused = sorted(entry for path in PACKAGE for entry in _unused(path, used, attrs))
    assert not unused, unused


def _unread_imports(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            read.update(ast.literal_eval(node.value))
    return ["%s:%d %s" % (path.name, alias.lineno, name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in read and "noqa: F401" not in lines[alias.lineno - 1]]


def test_every_import_is_read():
    unread = sorted(entry for path in IMPORTERS for entry in _unread_imports(path))
    assert not unread, unread

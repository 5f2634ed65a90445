"""Every public function and class of the package has a caller.

A caller is a use in the package or in the benchmark harness: a name, an
attribute, an import or an identifier-like string (the tracer patches
functions by name).  Tests do not count, so a name that only tests read
fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "spinscape").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# _Parser.error is argparse's hook; the two references are what the tests
# compare the package's answers against.
NO_CALLER_NEEDED = {"error", "violated_weight", "zero_energy_assignments"}


def _used_names() -> set:
    used = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    used.add(node.value)
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    unused = sorted(
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | NO_CALLER_NEEDED
    )
    assert not unused, unused

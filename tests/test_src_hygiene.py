"""Every top-level function and class of the package has a user in the
program: `src/` itself or the benchmark harness `perfbench/`.

A use is a name read in an expression (a call, a base class, an `except`
clause, an argument) or an attribute access, anywhere in those trees.
Imports, re-exports and `__all__` are not uses, and neither are the tests:
a helper that only tests read belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leechdesign"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_top_level_definition_in_src_has_a_user():
    defined = {
        (node.name, path.relative_to(ROOT).as_posix())
        for path, tree in _trees(PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    used = set()
    for _, tree in _trees(PACKAGE, ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50  # the walk found the package
    assert sorted(f"{where}: {name}" for name, where in defined if name not in used) == []

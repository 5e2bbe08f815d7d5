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


def _is_pair_stats_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "pair_stats"
    )


def test_pair_stats_readers_use_only_values_and_counts():
    # A block's statistics are its histogram: every `pair_stats(i, j)` in
    # the package is read at `.values` or `.counts`, directly or through the
    # name it is assigned to, and `BlockStats` holds nothing else.
    from dataclasses import fields

    from leechdesign.construct import BlockStats

    assert [f.name for f in fields(BlockStats)] == ["values", "counts"]
    reads = []
    for path, tree in _trees(PACKAGE):
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            names = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_pair_stats_call(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(func):
                named = isinstance(node, ast.Name) and node.id in names
                if named and isinstance(node.ctx, ast.Load) or _is_pair_stats_call(node):
                    up = parent[node]
                    if isinstance(up, ast.Assign) and not named:
                        continue  # read through the assigned name
                    reads.append((path.name, func.name, getattr(up, "attr", type(up).__name__)))
    assert len(reads) >= 8  # the walk found the readers
    assert [r for r in reads if r[2] not in ("values", "counts")] == []

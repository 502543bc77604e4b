"""The package serves the program: no module-level name of
``src/magnonchain``, public or private (dunders aside), is read by the
tests alone.  A helper only tests read belongs in ``tests/conftest.py``.

The scan is by name, with ``ast``: a read is a ``Name`` in load context,
an ``Attribute`` or a ``from ... import`` alias, f-string expressions
included.  Reads count in ``src/`` (the definition itself is not a read),
``scripts/`` and ``perfbench/`` for the program, and in ``tests/`` for the
tests.  A name that is also an attribute elsewhere counts as read there.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magnonchain"


def _module_names(tree: ast.Module) -> set[str]:
    """The module-level ``def``, ``class`` and assigned names of a module,
    dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _reads(paths) -> Counter:
    """How often each name is read in the Python files ``paths``."""
    reads = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return reads


def test_no_name_of_the_package_is_read_only_by_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {name: path.stem for path in modules
               for name in _module_names(ast.parse(path.read_text(encoding="utf-8")))}
    program = _reads(modules + sorted((ROOT / "scripts").glob("*.py"))
                     + sorted((ROOT / "perfbench").glob("*.py")))
    tests = _reads(sorted((ROOT / "tests").glob("*.py")))
    assert len(defined) > 100 and program["evolve"] and tests["evolve"]
    only_tests = sorted(f"{module}.{name}" for name, module in defined.items()
                        if tests[name] and not program[name])
    assert not only_tests, f"read only by the tests: {only_tests}"

"""The package holds only code that its commands, suites or other modules
run; references that only tests use live in ``conftest.py``."""

import ast
from collections import Counter
from pathlib import Path

import torusquot

# name -> why it stays in src without a package caller
ALLOWED = {
    "flag_point_semistable": "the benchmark's oracle workload times it; "
    "ROADMAP item 3 replaces it with a flag-matroid rank check",
}


def _references(node):
    """Names a node refers to: plain names, attribute names, import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_function_and_class_has_a_package_caller():
    trees = [ast.parse(p.read_text()) for p in sorted(Path(torusquot.__file__).parent.glob("*.py"))]
    everywhere = Counter(name for tree in trees for name in _references(tree))
    unreferenced = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == Counter(_references(node))[node.name]
    ]
    assert sorted(unreferenced) == sorted(ALLOWED)

"""The package holds only code that its commands, suites or other modules
run; references that only tests use live in ``conftest.py``."""

import argparse
import ast
import doctest
import importlib
import pkgutil
import re
from collections import Counter
from itertools import takewhile
from pathlib import Path

import torusquot
from torusquot import verify
from torusquot.cli import build_parser

# name (``Class.method`` for methods and properties) -> why it stays in
# src without a package caller
ALLOWED = {
    "flag_point_semistable": "the benchmark's oracle workload calls it, and "
    "ROADMAP item 4's thm-5.2-stability suite will",
    "RationalFunction.evaluate": "only the benchmark's symbolic workload and tests call it",
    "quotient_generator_action": "the benchmark's symbolic workload pins its displayed strings; "
    "the package's own suites use induced_generator_action",
    # the benchmark's oracle workload counts draws, resamplings and
    # inconclusive cells, which the exact verdict no longer has; these go
    # with those counters (ROADMAP item 1a)
    "SupportReport.draws": "only the benchmark oracle workload's counters read it",
    "SupportReport.resampled": "only the benchmark oracle workload's counters read it",
    "SupportReport.conclusive": "only the benchmark oracle workload's counters read it",
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


def _public_definitions(tree):
    """(qualified name, node) for each public top-level function and class
    and each public method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def test_every_public_function_and_class_has_a_package_caller():
    """Methods count as called when any package line reads an attribute of
    their name, so a shared name can hide an unused method, never the
    reverse."""
    trees = [ast.parse(p.read_text()) for p in sorted(Path(torusquot.__file__).parent.glob("*.py"))]
    everywhere = Counter(name for tree in trees for name in _references(tree))
    unreferenced = [
        qualified
        for tree in trees
        for qualified, node in _public_definitions(tree)
        if everywhere[node.name] == Counter(_references(node))[node.name]
    ]
    assert sorted(unreferenced) == sorted(ALLOWED)


def _readme_first_column(header):
    """The first word of every code span in the first column of the README
    table under ``header``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = takewhile(lambda line: line.startswith("|"), lines[lines.index(header) + 2:])
    return [span.split()[0] for row in rows for span in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_readme_tables_name_exactly_the_suites_and_subcommands():
    assert sorted(_readme_first_column("| suite | checks |")) == list(verify.available_suites())
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(_readme_first_column("| subcommand | what it reports |")) == sorted(subparsers.choices)


def test_source_doctests_pass():
    """The examples in the package's docstrings run and hold."""
    modules = [torusquot] + [
        importlib.import_module(f"torusquot.{m.name}") for m in pkgutil.iter_modules(torusquot.__path__)
    ]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0


def test_the_oracle_imports_no_random_module():
    """The Grassmannian verdict has no probabilistic ingredient: the oracle
    reads supports off zero patterns and draws no point."""
    tree = ast.parse(Path(torusquot.__file__).with_name("oracle.py").read_text())
    imported = [
        name.split(".")[0]
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        )
    ]
    # itertools is imported, so an empty walk cannot pass
    assert "random" not in imported and "itertools" in imported


def test_no_assert_statement_in_the_package():
    """Every check in the package is a raise: `python -O` strips `assert`
    statements, and no certificate may depend on interpreter flags."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(torusquot.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

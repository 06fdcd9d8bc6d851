"""Every top-level function and class of the package is reached.

A definition counts as reached when its name appears as a Name, an
Attribute or a from-import somewhere in src/, benchmark/*.py or
tests/test_acceptance.py, outside its own definition.  Comments and
docstrings do not count, and neither do the unit tests: code that only
its own tests call is part of no answer, so it is deleted or made one.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "branchspec"
SOURCES = (sorted((ROOT / "src").rglob("*.py"))
           + sorted((ROOT / "benchmark").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def _names(tree):
    """How often each identifier is named in the tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreached():
    """module.name of every top-level definition named nowhere else."""
    refs = Counter()
    for path in SOURCES:
        refs.update(_names(ast.parse(path.read_text())))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and refs[node.name] == _names(node)[node.name]:
                out.append(f"{path.stem}.{node.name}")
    return out


def test_every_top_level_definition_is_reached():
    assert unreached() == []

"""Every top-level function and class of the package is reached, and
every defaulted parameter of a top-level function is set by some call.

A definition counts as reached when its name appears as a Name, an
Attribute or a from-import somewhere in src/, benchmark/*.py or
tests/test_acceptance.py, outside its own definition.  Comments and
docstrings do not count, and neither do the unit tests: code that only
its own tests call is part of no answer, so it is deleted or made one.

A default that no call in src/, benchmark/*.py or tests/ overrides is a
knob nobody turns: its value belongs in the function body.
"""

import ast
import math
from collections import Counter, defaultdict
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


CALLERS = (sorted((ROOT / "src").rglob("*.py"))
           + sorted((ROOT / "benchmark").glob("*.py"))
           + sorted((ROOT / "tests").rglob("*.py")))


def _call_arguments():
    """Per called name (a Name or an Attribute): the keywords and the
    most positional arguments any call passes.  A call with **kwargs
    passes the keyword None, one with *args infinitely many positions."""
    keywords, positional = defaultdict(set), Counter()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                keywords[name].update(k.arg for k in node.keywords)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                positional[name] = max(positional[name],
                                       math.inf if star else len(node.args))
    return keywords, positional


def unset_defaults():
    """module.function(parameter) of every default no call overrides."""
    keywords, positional = _call_arguments()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(params) if i >= first]
            defaulted += [(math.inf, a.arg) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            passed = keywords[node.name]
            out += [f"{path.stem}.{node.name}({arg})" for i, arg in defaulted
                    if not ({arg, None} & passed or positional[node.name] > i)]
    return out


def test_every_default_is_overridden_by_some_call():
    assert unset_defaults() == []

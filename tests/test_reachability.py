"""Every top-level function and class of the package is reached, every
class member is read, and every default is both overridden and relied
on by some call.

The answer scope is src/, benchmark/*.py and tests/test_acceptance.py:
the code that produces or checks the answers.  Comments, docstrings and
the unit tests do not count: code that only its own tests use is part
of no answer, so it is deleted or made one.

A definition counts as reached when its name appears as a Name, an
Attribute or a from-import in the answer scope, outside its own
definition; a method, property or dataclass field, when its name
appears there as an Attribute.

The defaults are those of the parameters of top-level functions and of
the fields of top-level dataclasses, whose constructor calls are found
by the class name.  A call matches by the called name, so a call of a
namesake counts too.  A default that no answer-scope call overrides (a
call passing the default's own literal does not) is a knob nobody
turns: its value belongs in the body.  A default that every
answer-scope call overrides is a path no answer takes: the parameter
becomes required and the default path goes.
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


# members only unit tests read, each with a test that needs it
MEMBER_ALLOWLIST = {
    "flowavg.ReducedFunction.eval":
        "test_hess_equals_central_differences_of_grad",
    "flowavg.ReducedFunction.eval_pole_chart":
        "test_hess_pole_chart_equals_central_differences",
    "quantization.BSRoot.iterations":
        "test_bs_roots_bitwise_equal_to_full_bisection",
}


def _attributes(tree):
    """How often each identifier is named as an Attribute in the tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def unread_members():
    """module.Class.member of every method, property or dataclass field
    read as an attribute nowhere else; dunder methods count as read."""
    refs = Counter()
    for path in SOURCES:
        refs.update(_attributes(ast.parse(path.read_text())))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign):
                    name = node.target.id
                else:
                    continue
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and refs[name] == _attributes(node)[name]:
                    out.append(f"{path.stem}.{cls.name}.{name}")
    return out


def test_every_class_member_is_read():
    assert sorted(unread_members()) == sorted(MEMBER_ALLOWLIST)


def _call_arguments():
    """Per called name (a Name or an Attribute): one dict per call in
    SOURCES, from each position and keyword it passes to the ast.dump of
    the value, or None for a call with *args or **kwargs, which passes
    everything."""
    calls = defaultdict(list)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                passed = {k.arg: ast.dump(k.value) for k in node.keywords}
                passed.update((i, ast.dump(a)) for i, a in enumerate(node.args))
                star = None in passed or any(isinstance(a, ast.Starred)
                                             for a in node.args)
                calls[name].append(None if star else passed)
    return calls


def _is_dataclass(cls):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in cls.decorator_list)


def _defaults():
    """(label, called name, position, name, default) of every defaulted
    parameter of a top-level function and every defaulted field of a
    top-level dataclass, whose constructor is called by the class name;
    a keyword-only parameter has no position."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = args.posonlyargs + args.args
                first = len(params) - len(args.defaults)
                pairs = [(i, a.arg, d) for i, (a, d) in
                         enumerate(zip(params[first:], args.defaults), first)]
                pairs += [(math.inf, a.arg, d) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                for i, arg, d in pairs:
                    yield (f"{path.stem}.{node.name}({arg})", node.name, i,
                           arg, d)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        yield (f"{path.stem}.{node.name}.{f.target.id}",
                               node.name, i, f.target.id, f.value)


def _passed_values():
    """label -> (default, one value per call of its function or class:
    the ast.dump passed, None when omitted, ... when a star passes it)."""
    calls = _call_arguments()
    return {label: (ast.dump(d), [... if c is None else c.get(i, c.get(arg))
                                  for c in calls[name]])
            for label, name, i, arg, d in _defaults()}


def unset_defaults():
    """Every default no call overrides; passing the default's own
    literal is no override."""
    return [label for label, (d, vals) in _passed_values().items()
            if all(v in (None, d) for v in vals)]


def unused_defaults():
    """Every default that no call relies on: each call passes a value."""
    return [label for label, (d, vals) in _passed_values().items()
            if None not in vals and ... not in vals]


def test_every_default_is_overridden_by_some_call():
    assert unset_defaults() == []


def test_every_default_is_relied_on_by_some_call():
    assert unused_defaults() == []

"""Every library function, class and method is reached by something other
than its own unit tests: the library itself, an acceptance criterion or a
benchmark workload.  A name that occurs nowhere else is an orphan; delete it
or give it a caller.  Likewise every defaulted parameter is set by some
caller: one that nobody passes is a constant in disguise."""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "xlab").glob("*.py"))
REACHERS = [ROOT / "tests" / "test_acceptance.py",
            ROOT / "perfbench" / "workloads.py"]

# (function, parameter) pairs set only from outside SOURCES and REACHERS
EXEMPT = {
    ("main", "argv"): "the console script calls main(); tests pass argv",
    ("trig_poly_l1", "oversample"):
        "tests/test_lebesgue.py doubles it as the refinement reference",
    ("radial_ft", "knots"):
        "criterion 15 runs TestBSpline, which passes the B-spline knots",
    ("grid_norm", "p"): "the L_p branch is the Riemann-sum L1 oracle of tests",
}


def definitions(tree):
    """Names of the module-level functions and classes and of the methods
    (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield sub.name


def test_no_orphans():
    texts = [path.read_text() for path in SOURCES + REACHERS]
    words = collections.Counter(w for text in texts
                                for w in re.findall(r"\w+", text))
    defined = collections.Counter(name for text in texts[:len(SOURCES)]
                                  for name in definitions(ast.parse(text)))
    # each definition spells its name once; a use spells it once more
    orphans = sorted(name for name, count in defined.items()
                     if words[name] <= count)
    assert orphans == []


def defaulted_parameters(tree):
    """(function name, parameter, positional slot or None) for each defaulted
    parameter of the module-level functions and the methods; the slot counts
    from the first argument a caller writes (self and cls are bound; the
    library has no staticmethods).  Class __init__s are left out, and so are
    dataclass fields."""
    funcs = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        funcs += [(sub, 1) for sub in cls.body
                  if isinstance(sub, ast.FunctionDef) and sub.name != "__init__"]
    for node, bound in funcs:
        a = node.args
        positional = a.posonlyargs + a.args
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield node.name, positional[i].arg, i - bound
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_every_defaulted_parameter_is_set():
    calls = collections.defaultdict(list)   # name -> [(npos, keywords, starred)]
    values = set()                          # names used other than by a call
    for path in SOURCES + REACHERS:
        tree = ast.parse(path.read_text())
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                starred = any(isinstance(x, ast.Starred) for x in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls[_name(node.func)].append(
                    (len(node.args), {k.arg for k in node.keywords}, starred))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load) and id(node) not in called:
                values.add(_name(node))

    def is_set(func, param, slot):
        return func in values or any(
            starred or param in keywords or (slot is not None and slot < npos)
            for npos, keywords, starred in calls[func])

    unset = sorted(f"{path.stem}.{func}({param})"
                   for path in SOURCES
                   for func, param, slot in defaulted_parameters(
                       ast.parse(path.read_text()))
                   if (func, param) not in EXEMPT and not is_set(func, param, slot))
    assert not unset, "set by no caller: " + ", ".join(unset)

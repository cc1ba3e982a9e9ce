"""Every library function, class and method is reached by something other
than its own unit tests: the library itself, an acceptance criterion or a
benchmark workload.  A name that occurs nowhere else is an orphan; delete it
or give it a caller.  Likewise every defaulted parameter is set by some
caller, one that nobody passes being a constant in disguise, and left out
by some caller, one that every caller passes copying theirs.  No object
carries state its class does not declare.  One budget governs every cost
estimate: no module but cli declares one, and the experiments without a
cost are a closed list.  And every function the library
samples is real, so its only transforms are rfft and irfft."""

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


def _calls_and_values():
    """The calls in SOURCES and REACHERS by the called name, as (positional
    count, keyword names, starred), and the names used other than by a
    call."""
    calls = collections.defaultdict(list)
    values = set()
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
    return calls, values


def test_every_defaulted_parameter_is_set():
    calls, values = _calls_and_values()

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


def test_every_default_is_used():
    # the mirror of the test above: a default that every caller overrides
    # copies the callers' value and belongs to them
    calls, values = _calls_and_values()

    def is_used(func, param, slot):
        return func in values or any(
            not starred and param not in keywords and (slot is None or slot >= npos)
            for npos, keywords, starred in calls[func])

    unused = sorted(f"{path.stem}.{func}({param})"
                    for path in SOURCES
                    for func, param, slot in defaulted_parameters(
                        ast.parse(path.read_text()))
                    if not is_used(func, param, slot))
    assert not unused, "overridden by every caller: " + ", ".join(unused)


def _object_setattr_lines(node):
    return {n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__setattr__" and _name(n.func.value) == "object"}


def test_object_setattr_only_in_post_init():
    # object.__setattr__ writes past a frozen dataclass; outside the
    # __post_init__ that normalizes declared fields it attaches hidden state
    hidden = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        allowed = set().union(*(_object_setattr_lines(node) for node in ast.walk(tree)
                                if isinstance(node, ast.FunctionDef)
                                and node.name == "__post_init__"))
        hidden += [f"{path.name}:{line}"
                   for line in sorted(_object_setattr_lines(tree) - allowed)]
    assert not hidden, "object.__setattr__ outside __post_init__: " + ", ".join(hidden)


def test_budgets_declared_only_in_cli():
    declared = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "cli.py"
                for stmt in ast.parse(path.read_text()).body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and "BUDGET" in node.id]
    assert not declared, "budget declared outside cli: " + ", ".join(declared)


# module-level chunk sizes: everything else derives its working set from
# trig.SYNTHESIS_ENTRIES (2^15 entries, one synthesis stack)
CHUNK_CONSTANTS = {
    ("trig.py", "SYNTHESIS_ENTRIES"): "the cache-size constant",
    ("seqspaces.py", "FUZZ_CHUNK"): "5^7 sequences: one length's batch of the fuzz",
    ("posdef_splines.py", "GRAM_CHUNK"): "point sets per batch, measured at about 2 MB",
}


def test_chunk_constants_declared_once():
    declared = {(path.name, node.id) for path in SOURCES
                for stmt in ast.parse(path.read_text()).body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id.endswith(("_ENTRIES", "_CHUNK"))}
    assert declared == set(CHUNK_CONSTANTS)


# the experiments without a cost estimate: the list only shrinks, and a new
# experiment declares a cost
COSTLESS = {"hyperbolic-fit", "aspline", "walsh-regularity", "walsh-moduli",
            "euler-maclaurin-check"}


def test_costless_experiments_are_a_closed_list():
    from xlab import cli
    assert {name for name, e in cli.REGISTRY.items() if e.cost is None} == COSTLESS


REAL_FFTS = {"rfft", "irfft"}


def test_only_real_ffts():
    # no complex transform (fft, ifft, fft2, ifft2, fftn, ifftn): not as an
    # attribute of an fft module, nor imported from one
    used = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and _name(node.value) == "fft":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fft"):
                names = [alias.name for alias in node.names]
            else:
                continue
            used += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name not in REAL_FFTS]
    assert not used, "complex or other FFTs: " + ", ".join(used)

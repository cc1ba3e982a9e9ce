"""Every library function, class and method is reached by something other
than its own unit tests: the library itself, an acceptance criterion or a
benchmark workload.  A name that occurs nowhere else is an orphan; delete it
or give it a caller."""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "xlab").glob("*.py"))
REACHERS = [ROOT / "tests" / "test_acceptance.py",
            ROOT / "perfbench" / "workloads.py"]


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

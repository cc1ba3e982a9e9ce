"""Span tracing of xlab's public functions, installed from outside the package.

`Tracer.install()` replaces every public function of every layer module by a
timing wrapper.  The replacement is made in every namespace that holds the
function, so the copies bound by `from .trig import synthesize` (lebesgue,
smoothness) and `from .ftlab import radial_ft` (posdef_splines) are timed
too, not only calls through the defining module.  Spans stay in memory as
(name, start, end, parent, failed, outermost) tuples, and `pass_stats`
turns one pass worth of them into per-module and per-function numbers.
"""

import functools
import importlib
import inspect
import re
import statistics
import time

LAYERS = ("cli", "trig", "lebesgue", "smoothness", "seqspaces",
          "posdef_splines", "walsh", "ftlab", "corpus")

KERNELS = (
    "lebesgue.trig_poly_l1", "lebesgue.lebesgue_constant",
    "lebesgue.kolmogorov_deviation", "lebesgue.hyperbolic_l1",
    "lebesgue.rhombic_lebesgue", "trig.synthesize",
    "trig.approximation_error", "smoothness.modulus",
    "seqspaces.duality_identity_cesaro",
    "seqspaces.empirical_pairing_constants", "walsh.br_means_regularity",
    "walsh.dyadic_shift_modulus", "posdef_splines.gram_min_eig",
    "posdef_splines.radial_ft_positivity", "ftlab.radial_ft",
    "ftlab.indicator_ft", "ftlab.zero_curve", "ftlab.euler_maclaurin_sum",
)

# (metric name, callee, caller): callee spans below a caller span, per caller
AMPLIFICATION = (
    ("amp.radial_ft_per_positivity", "ftlab.radial_ft",
     "posdef_splines.radial_ft_positivity"),
    ("amp.indicator_ft_per_zero_curve", "ftlab.indicator_ft",
     "ftlab.zero_curve"),
)

PER_CALL_MIN = 100          # per-call quantiles only from this many calls
TAIL_LEVELS = (500, 900, 990, 999)     # per mille: p50, p90, p99, p99.9
TAIL_BEYOND = 10            # samples that must lie beyond the tail level


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.modules = [importlib.import_module(f"xlab.{name}")
                        for name in LAYERS]
        self.spans = []
        self._stack = []
        self._depth = {}
        self._saved = []        # (namespace, attribute, original) to restore

    def _wrap(self, qualname, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            outer = depth.get(qualname, 0) == 0
            depth[qualname] = depth.get(qualname, 0) + 1
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                depth[qualname] -= 1
                stack.pop()
                spans[sid] = (qualname, t0, t1, parent, failed, outer)

        return wrapper

    def install(self):
        """Wrap every public function and patch every module-level copy."""
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        return len(wrappers)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def take(self):
        """Return and clear the spans recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out


def tail_quantile(samples):
    """(percentile, value) of the highest level in TAIL_LEVELS with at least
    TAIL_BEYOND samples above its nearest-rank value."""
    n = len(samples)
    rank = {q: -(-n * q // 1000) for q in TAIL_LEVELS}
    level = max(q for q in TAIL_LEVELS if n - rank[q] >= TAIL_BEYOND)
    return level / 10, sorted(samples)[rank[level] - 1]


def pass_stats(spans, wall):
    """Per-layer and per-kernel numbers of one traced pass.

    Self time is a span's duration minus the durations of its direct child
    spans; time outside every span is reported as unattributed."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers = {name: {"calls": 0, "self_s": 0.0, "failed": 0} for name in LAYERS}
    funcs = {}
    top = 0.0
    for i, (name, t0, t1, parent, failed, outer) in enumerate(spans):
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += (t1 - t0) - child_time[i]
        layer["failed"] += failed
        f = funcs.setdefault(name, {"calls": 0, "s": 0.0, "durations": []})
        f["calls"] += 1
        f["durations"].append(t1 - t0)
        if outer:
            f["s"] += t1 - t0
        if parent < 0:
            top += t1 - t0
    out = {}
    for name, v in layers.items():
        out[f"{name}.calls"] = v["calls"]
        out[f"{name}.self_s"] = v["self_s"]
        out[f"{name}.failed"] = v["failed"]
    tails = {}
    for name in KERNELS:
        f = funcs.get(name, {"calls": 0, "s": 0.0, "durations": []})
        out[f"{name}.calls"] = f["calls"]
        out[f"{name}.s"] = f["s"]
        p50 = tail = 0.0
        if f["calls"] >= PER_CALL_MIN:
            p50 = statistics.median(f["durations"])
            level, tail = tail_quantile(f["durations"])
            tails[name] = level
        out[f"{name}.p50_s"] = p50
        out[f"{name}.tail_s"] = tail
    for metric, callee, caller in AMPLIFICATION:
        out[metric] = _calls_below(spans, callee, caller) / max(
            1, funcs.get(caller, {"calls": 0})["calls"])
    out["trace.spans"] = len(spans)
    out["trace.unattributed_s"] = wall - top
    return out, tails


def _calls_below(spans, callee, caller):
    """Number of `callee` spans that have a `caller` span among ancestors."""
    count = 0
    for name, _, _, parent, _, _ in spans:
        if name != callee:
            continue
        while parent >= 0:
            if spans[parent][0] == caller:
                count += 1
                break
            parent = spans[parent][3]
    return count


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(text):
    """Seconds of import time per xlab module, from the stderr of
    `python -X importtime`.

    Each module is charged its cumulative time minus the cumulative time of
    the nearest nested xlab modules, so third-party imports (numpy, scipy)
    land on the xlab module that first pulled them in and the per-module
    numbers add up to the package's total."""
    nodes = []          # (depth, name, cumulative_us, children)
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        children = []
        while nodes and nodes[-1][0] > depth:
            children.append(nodes.pop())
        nodes.append((depth, m.group(4), int(m.group(2)), children))
    out = {}

    def visit(node, owner):
        _, name, cumulative, children = node
        mine = name.startswith("xlab.")
        if mine:
            out[name] = out.get(name, 0.0) + cumulative * 1e-6
            if owner is not None:
                out[owner] -= cumulative * 1e-6
            owner = name
        for child in children:
            visit(child, owner)

    for node in nodes:
        visit(node, None)
    return {name.split(".", 1)[1]: s for name, s in out.items()}

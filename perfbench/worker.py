"""One fresh interpreter of the benchmark.

It imports `xlab.cli`, generates the workload's inputs from the seed and
prints `ready`; that line ends set-up.  It then times the reference kernel
once and prints that time, which run.py uses to rescale the set-up time.
In `measure` mode it then runs passes over the operations back to back
(closed loop, one caller) until the time is up, timing the reference kernel
between passes, optionally a second series with every public xlab function
wrapped by the tracer, checks the outputs of the first pass, and prints one
JSON report as its last line.  run.py starts it; it is not meant to be run
by hand.
"""

import argparse
import dataclasses
import gzip
import hashlib
import importlib
import io
import json
import platform
import resource
import sys
import time

import numpy as np

import xlab.cli
from workloads import WORKLOADS, describe, generate


class Reference:
    """A fixed mix of interpreter, numpy and memory-bound work that xlab
    never touches.

    Shared hosts change a core's speed by 20-40 % for minutes at a time;
    timing this kernel next to each pass measures the speed the pass ran
    at, so run.py can rescale pass and set-up times to a nominal speed.
    The 16 MB arrays make it feel memory-bandwidth contention as the
    large-n workloads do."""

    def __init__(self):
        # buffers are kept and written in place, so the kernel adds a
        # constant 46 MB to the resident set and no peak of its own
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal(1 << 21)
        self.out = np.empty_like(self.big)
        self.z = np.empty(1 << 19, dtype=complex)
        self.mat = rng.standard_normal((512, 512))
        self.prod = np.empty_like(self.mat)

    def _once(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        np.multiply(self.big[: 1 << 19], 1j, out=self.z)
        np.exp(self.z, out=self.z)
        acc += float(self.z.real.sum())
        np.cos(self.big, out=self.out)
        acc += float(self.out.sum())
        np.matmul(self.mat, self.mat, out=self.prod)
        acc += float(self.prod.trace())
        return time.perf_counter() - t0

    def time(self):
        """Fastest of three runs, in seconds."""
        return min(self._once() for _ in range(3))


def execute(op):
    """(value, text, error) of one operation; `text` is the CSV a user
    would get, or for a direct call nothing until value_text formats it."""
    try:
        if op["kind"] == "cli":
            cli = xlab.cli
            config = cli.build_config(op["experiment"], op["tokens"], None,
                                      op["seed"])
            report = cli.run(config)
            buf = io.StringIO()
            cli.write_csv(report, buf)
            return report, buf.getvalue(), None
        module, name = op["func"].split(".")
        fn = getattr(importlib.import_module(f"xlab.{module}"), name)
        return fn(*op["args"]), None, None
    except Exception as e:      # a failed operation is data; the pass goes on
        return None, "", f"{type(e).__name__}: {e}"


def value_text(value):
    fields = dataclasses.asdict(value) if dataclasses.is_dataclass(value) \
        else dict(value)
    return ",".join(f"{k}={format(v, '.17g') if isinstance(v, float) else v}"
                    for k, v in sorted(fields.items())) + "\n"


def run_pass(ops):
    t0 = time.perf_counter()
    raw = [execute(op) for op in ops]
    wall = time.perf_counter() - t0
    return wall, [(op, value, value_text(value) if text is None else text,
                   error) for op, (value, text, error) in zip(ops, raw)]


def rows_hash(results):
    """sha256 of every operation's output with the timestamp line dropped."""
    h = hashlib.sha256()
    for op, _, text, error in results:
        body = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("# generated "))
        h.update(f"{describe(op)}\n{body}{error or ''}\n".encode())
    return h.hexdigest()


def failed_ops(results):
    return sum(1 for op, value, _, error in results
               if error is not None
               or (op["kind"] == "cli" and value["failures"]))


def versions():
    import numpy
    import scipy
    out = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "openblas": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return out


def series(ops, seconds, min_passes, reference, tracer=None):
    """Passes back to back until `seconds` have elapsed, each between two
    reference timings; with a tracer, each pass keeps its spans."""
    passes = []
    before = reference.time()
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        wall, results = run_pass(ops)
        spans = tracer.take() if tracer else None
        after = reference.time()
        passes.append({"wall": wall, "ref": 0.5 * (before + after),
                       "traced": tracer is not None,
                       "hash": rows_hash(results),
                       "failed": failed_ops(results),
                       "results": results if not passes else None,
                       "spans": spans})
        before = after
    return passes


def write_spans(path, workload, seed, passes):
    names = sorted({s[0] for p in passes for s in p["spans"]})
    index = {n: i for i, n in enumerate(names)}
    payload = {"workload": workload, "seed": seed,
               "fields": ["name", "start_s", "end_s", "parent", "failed"],
               "names": names, "passes": []}
    for p in passes:
        origin = p["spans"][0][1] if p["spans"] else 0.0
        payload["passes"].append({"wall_s": p["wall"], "spans": [
            [index[n], t0 - origin, t1 - origin, parent, int(failed)]
            for n, t0, t1, parent, failed, _ in p["spans"]]})
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(payload, fh)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="file for the traced spans (gzip JSON)")
    args = parser.parse_args(argv)

    ops = generate(args.workload, args.seed, args.smoke)
    print("ready", flush=True)
    reference = Reference()
    print(reference.time(), flush=True)
    if args.mode == "setup":
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = series(ops, budget, args.min_passes, reference)
    trace = None
    if args.trace:
        from tracing import Tracer, pass_stats
        tracer = Tracer()
        tracer.install()
        try:
            traced = series(ops, budget, args.min_passes, reference, tracer)
        finally:
            tracer.uninstall()
        chosen = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
        stats, tails = pass_stats(chosen["spans"], chosen["wall"])
        trace = {"wall": chosen["wall"], "stats": stats, "tails": tails}
        if args.spans:
            write_spans(args.spans, args.workload, args.seed, traced)
        passes += traced

    from checks import run_checks
    checks = run_checks(args.workload, passes[0]["results"])
    report = {
        "xlab_file": xlab.__file__,
        "versions": versions(),
        "inputs": [describe(op) for op in ops],
        "passes": [{k: p[k] for k in ("wall", "ref", "traced", "hash",
                                      "failed")} for p in passes],
        "ops_per_pass": len(ops),
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": trace,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

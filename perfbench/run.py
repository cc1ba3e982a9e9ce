"""Benchmark of xlab's experiments and kernels: one workload per call.

    python3 perfbench/run.py --workload lebesgue-large-n --seed 1 \
        --seconds 28 --trace 0 [--smoke]

Run from the root of a checkout.  `src/` of that checkout is imported (the
package need not be installed), so two commits are compared by running the
same command in a checkout of each.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  A full record (manifest, inputs, every pass, every check)
goes to perfbench/results/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracing import KERNELS, LAYERS, parse_importtime  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one thread everywhere: spans nest on one stack, and on a 2-core machine
# the second core absorbs the rest of the system
THREAD_VARS = ("XLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
THREADS = "1"
SETUP_SAMPLES = 4           # fresh interpreters timed for setup_s, half
                            # before and half after the measuring one
IMPORT_SAMPLES = 3          # `python -X importtime` runs for L.import_s
# the reference kernel's time at the nominal speed that wall_s and setup_s
# are rescaled to: about its fastest time on a 2-vCPU Xeon (Sapphire
# Rapids) KVM guest, so rescaled times read as times in a quiet spell
REF_NOMINAL_S = 0.058
MIN_PASSES = 3              # untraced passes, even if --seconds runs out first
MIN_TRACED_PASSES = 2       # per series of a traced run
TIME_LIMIT_S = 170.0        # the whole run, workers included


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def run_worker(argv, deadline):
    """(seconds from spawn to `ready`, stdout lines after it) of one worker."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): "
                         f"{' '.join(argv)}")
    return ready, rest.splitlines()


def import_times(samples, deadline):
    """Median over `samples` runs of each layer's import seconds."""
    runs = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import xlab.cli"],
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()), check=True)
        runs.append(parse_importtime(out.stderr))
    return {layer: statistics.median(r.get(layer, 0.0) for r in runs)
            for layer in LAYERS}


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def earlier_hashes(workload, seed, smoke, digest):
    """Row hashes recorded by earlier runs of the same seed and source."""
    out = {}
    for path in sorted(RESULTS.glob(f"{workload}-seed{seed}-trace*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if rec["manifest"]["src_sha256"] == digest \
                and rec["manifest"]["smoke"] == smoke:
            out[path.name] = rec["rows_sha256"]
    return out


def per_layer_metrics(trace, imports, overhead):
    stats = trace["stats"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (stats[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (stats[f"{layer}.self_s"], "s")
        metrics[f"{layer}.failed"] = (stats[f"{layer}.failed"], "count")
        metrics[f"{layer}.import_s"] = (imports[layer], "s")
    for name in KERNELS:
        metrics[f"{name}.calls"] = (stats[f"{name}.calls"], "count")
        for suffix in ("s", "p50_s", "tail_s"):
            metrics[f"{name}.{suffix}"] = (stats[f"{name}.{suffix}"], "s")
    for key, value in stats.items():
        if key.startswith("amp."):
            metrics[key] = (value, "calls/call")
    metrics["trace.wall_s"] = (trace["wall"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.unattributed_s"] = (stats["trace.unattributed_s"], "s")
    metrics["trace.spans"] = (stats["trace.spans"], "count")
    return metrics


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    half = 1 if args.smoke else SETUP_SAMPLES // 2

    def setup_samples():
        """(raw seconds, reference seconds) of `half` fresh interpreters."""
        out = []
        for _ in range(half):
            ready, lines = run_worker(common + ["--mode", "setup"], deadline)
            out.append((ready, float(lines[0])))
        return out

    setups = setup_samples()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = RESULTS / f"{stem}-spans.json.gz"
    argv = common + ["--mode", "measure", "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--min-passes", "1" if args.smoke else
                     str(MIN_TRACED_PASSES if args.trace else MIN_PASSES)]
    if args.trace:
        argv += ["--spans", str(spans_file)]
    ready, lines = run_worker(argv, deadline)
    setups += [(ready, float(lines[0]))] + setup_samples()
    report = json.loads(lines[-1])
    imports = import_times(1 if args.smoke else IMPORT_SAMPLES, deadline) \
        if args.trace else None

    digest = src_digest()
    passes = report["passes"]
    hashes = {p["hash"] for p in passes}
    rows_sha = passes[0]["hash"]
    checks = [tuple(c) for c in report["checks"]]
    checks.append(("rows hash equal across passes" + (
        ", traced and untraced" if args.trace else ""), len(hashes) == 1,
        f"{len(passes)} passes, {len(hashes)} distinct"))
    for name, other in earlier_hashes(args.workload, args.seed, args.smoke,
                                      digest).items():
        checks.append((f"rows hash equals {name}", other == rows_sha,
                       other[:16]))
    src = (ROOT / "src").resolve()
    checks.append(("xlab imported from this checkout's src/",
                   Path(report["xlab_file"]).resolve().is_relative_to(src),
                   report["xlab_file"]))

    def rescaled(traced):
        return [p["wall"] * REF_NOMINAL_S / p["ref"] for p in passes
                if p["traced"] == traced]

    untraced = [p for p in passes if not p["traced"]]
    q1, wall, q3 = quartiles(rescaled(False))
    raw_q1, raw_wall, raw_q3 = quartiles([p["wall"] for p in untraced])
    setup = statistics.median(raw * REF_NOMINAL_S / ref for raw, ref in setups)
    attempted = report["ops_per_pass"] * len(passes)
    failed = sum(p["failed"] for p in passes)
    checks_failed = sum(1 for _, ok, _ in checks if not ok)
    end_to_end = {"wall_s": (wall, "s"),
                  "setup_s": (setup, "s"),
                  "peak_rss_mb": (report["peak_rss_mb"], "MB")}
    # both series rescaled, so a change of machine speed between them does
    # not count as overhead
    per_layer = per_layer_metrics(
        report["trace"], imports,
        statistics.median(rescaled(True)) - wall) if args.trace else {}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "manifest": {
            "git_commit": git_commit(), "src_sha256": digest,
            "xlab_file": report["xlab_file"], **report["versions"],
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: THREADS for var in THREAD_VARS},
            "smoke": args.smoke, "inputs": report["inputs"]},
        "rows_sha256": rows_sha,
        "ref_nominal_s": REF_NOMINAL_S,
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "passes": len(untraced)},
        "wall_raw_s": {"median": raw_wall, "q1": raw_q1, "q3": raw_q3},
        "setup_s": setup,
        "setup_samples": [{"raw_s": raw, "ref_s": ref} for raw, ref in setups],
        "ops": attempted, "ops_failed": failed,
        "checks_failed": checks_failed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "passes": passes,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "tail_levels": report["trace"]["tails"] if args.trace else {},
        "spans_file": str(spans_file.relative_to(ROOT)) if args.trace
        else None,
    }
    tmp = RESULTS / f"{stem}.json.tmp"
    tmp.write_text(json.dumps(record, indent=1))
    tmp.replace(RESULTS / f"{stem}.json")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{report['ops_per_pass']} ops per pass  rows {rows_sha[:16]}")
    for line in report["inputs"]:
        print(f"  input  {line}")
    for name, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED  {name}: {detail}")
    print(f"  wall_s         {wall:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"{len(untraced)} passes; unscaled median {raw_wall:.4f} s)")
    print(f"  setup_s        {setup:.4f} s   (median of {len(setups)} fresh "
          f"interpreters; unscaled median "
          f"{statistics.median(raw for raw, _ in setups):.4f} s)")
    print(f"  peak_rss_mb    {report['peak_rss_mb']:.1f} MB")
    print(f"  ops            {attempted} count")
    print(f"  ops_failed     {failed} count")
    print(f"  checks_failed  {checks_failed} count   (of {len(checks)})")
    for name, (value, unit) in per_layer.items():
        level = record["tail_levels"].get(name.rsplit(".", 1)[0])
        note = f"   (p{level:g})" if name.endswith(".tail_s") and level else ""
        print(f"  {name:50s} {value:.6g} {unit}{note}")
    metrics = per_layer if args.trace else end_to_end
    return {"correct": checks_failed == 0 and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xlab" / "cli.py").is_file():
        print(f"error: no xlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (BenchError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness: tracing, parsing, inputs, and a smoke run
of every workload at tiny sizes through the real command."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tracer_times_from_import_copies_and_restores_them():
    from xlab import lebesgue, posdef_splines, smoothness, trig
    copies = [(lebesgue, "synthesize"), (lebesgue, "compute_coefficients"),
              (smoothness, "synthesize"), (smoothness, "compute_coefficients"),
              (posdef_splines, "radial_ft"),
              (posdef_splines, "cos_transform_boundary")]
    originals = [getattr(mod, name) for mod, name in copies]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(hasattr(getattr(mod, name), "__wrapped__")
                   for mod, name in copies)
        lebesgue.lebesgue_constant(trig.dirichlet(), 8)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in copies] == originals
    names = [s[0] for s in spans]
    top = names.index("lebesgue.lebesgue_constant")
    poly = names.index("lebesgue.trig_poly_l1")
    synth = names.index("trig.synthesize")
    assert spans[top][3] == -1
    assert spans[poly][3] == top and spans[synth][3] == poly


def test_pass_stats_self_time_and_failures():
    spans = [("cli.run", 0.0, 10.0, -1, False, True),
             ("lebesgue.lebesgue_constant", 1.0, 4.0, 0, False, True),
             ("trig.synthesize", 2.0, 3.0, 1, False, True),
             ("ftlab.zero_curve", 5.0, 6.0, 0, True, True)]
    stats, _ = tracing.pass_stats(spans, wall=10.5)
    assert math.isclose(stats["cli.self_s"], 6.0)
    assert math.isclose(stats["lebesgue.self_s"], 2.0)
    assert math.isclose(stats["trig.self_s"], 1.0)
    assert stats["ftlab.failed"] == 1 and stats["cli.failed"] == 0
    assert math.isclose(stats["lebesgue.lebesgue_constant.s"], 3.0)
    assert math.isclose(stats["trace.unattributed_s"], 0.5)


def test_tail_quantile_keeps_ten_samples_beyond():
    level, value = tracing.tail_quantile([float(i) for i in range(1, 101)])
    assert level == 90.0 and value == 90.0
    level, _ = tracing.tail_quantile([1.0] * 1000)
    assert level == 99.0


def test_parse_importtime_charges_nested_package_modules_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        50 |        150 |     xlab.trig",
        "import time:        20 |        170 |   xlab.corpus",
        "import time:       300 |        300 |     scipy",
        "import time:        10 |        310 |   xlab.ftlab",
        "import time:        40 |        520 | xlab.cli",
    ])
    got = tracing.parse_importtime(text)
    assert math.isclose(got["trig"], 150e-6)
    assert math.isclose(got["corpus"], 20e-6)
    assert math.isclose(got["ftlab"], 310e-6)
    assert math.isclose(got["cli"], 40e-6)


def test_fejer_closed_form_at_n_1():
    value, bound = checks.fejer_dirichlet(1)
    assert abs(value - (1 / 3 + 2 * math.sqrt(3) / math.pi)) <= bound


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)
        assert workloads.generate(w, 7) != workloads.generate(w, 8)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_smoke_traced_runs_report_every_per_layer_metric():
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for w in ("lebesgue-large-n", "hyperbolic-2d"):
        out = _run("--workload", w, "--seed", "3", "--seconds", "1",
                   "--trace", "1", "--smoke")
        assert out.returncode == 0, out.stderr
        result = _last_json(out)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        assert result["metrics"]["trace.unattributed_s"]["value"] < 0.05


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    out = _run("--workload", "small-kernels", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = _run("--workload", "hyperbolic-2d", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert out.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)

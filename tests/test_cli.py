import concurrent.futures
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from xlab import cli, corpus, ftlab, lebesgue, posdef_splines, seqspaces, smoothness, trig
from xlab.errors import InvalidArgument


def run_main(args):
    return cli.main(args)


class TestRegistry:
    def test_count(self):
        assert len(cli.list_experiments()) >= 14

    def test_claims_present(self):
        table = {e["id"]: e["claims"] for e in cli.list_experiments()}
        assert "4.1" in table["kolmogorov-fit"]
        assert "1.3" in table["euler-maclaurin-check"]
        assert "1.12" in table["indicator-zeros"]


class TestExitCodes:
    def test_unknown_experiment(self):
        assert run_main(["does-not-exist"]) == 2

    def test_unknown_key(self):
        assert run_main(["lebesgue-table", "bogus=1"]) == 2

    def test_malformed_param(self):
        assert run_main(["lebesgue-table", "nmax"]) == 2

    def test_success(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_main(["lebesgue-table", "method=fejer", "nmin=1",
                         "nmax=4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated")
        assert lines[1] == "method,n,value,quad_error"
        assert len(lines) == 6

    # every bad parameter exits 2 with one error line before any work; a
    # "--config" entry is followed by the text of the config file
    @pytest.mark.parametrize("bad", [
        ["hyperbolic-fit", "nmin=0"],
        ["kolmogorov-fit", "nmin=0"],
        ["kolmogorov-fit", "nmin=-1", "nmax=8"],
        ["two-sided-report", "nmin=0"],
        ["hyperbolic-fit", "nmin=16", "nmax=8"],
        ["kolmogorov-fit", "nmin=8", "nmax=8"],
        ["hyperbolic-fit", "alpha=0.5"],
        ["hyperbolic-fit", "nmax=8192"],
        ["kolmogorov-fit", "r=0"],
        ["lebesgue-table", "method=nosuch"],
        ["lebesgue-table", "nmin=-1"],
        ["lebesgue-table", "nmin=5", "nmax=2"],
        ["lebesgue-table", "tol=inf"],
        ["lebesgue-table", "nmax=1e3"],
        ["indicator-zeros", "body=foo"],
        ["indicator-zeros", "phis=0"],
        ["indicator-zeros", "p=0"],
        ["indicator-zeros", "body=ellipse", "b=0"],
        ["moduli", "f=nosuch"],
        ["moduli", "hdenoms=0"],
        ["moduli", "m=16"],
        ["moduli", "m=5"],
        ["walsh-moduli", "bits=20"],
        ["walsh-moduli", "alpha=0"],
        ["schoenberg", "p=2"],
        ["schoenberg", "p=abc"],
        ["aspline", "n=9"],
        ["duality-fuzz", "maxlen=0"],
        ["duality-fuzz", "maxlen=2.5"],
        ["duality-fuzz", "--config", "maxlen = 2.5"],
        ["posdef-report", "trials=-1"],
        ["walsh-regularity", "nmax=0"],
        ["walsh-regularity", "alpha=x"],
        ["comparison-ratio", "a=nosuch"],
        ["euler-maclaurin-check", "rmax=-1"],
        ["two-sided-report", "r=3", "nmin=1", "nmax=2"],
        ["kolmogorov-fit", "r=110"],
        ["kolmogorov-fit", "r=400"],
        ["lebesgue-table", "method=cesaro(-1)"],
        ["lebesgue-table", "method=riesz(nan,1)"],
        ["lebesgue-table", "method=bochner-riesz(-1)"],
        ["comparison-ratio", "a=cesaro(-1)"],
        ["two-sided-report", "nmax=512"],
        ["indicator-zeros", "p=400"],
        ["indicator-zeros", "radius=0.001"],
        ["kolmogorov-fit", "r=102"],
        ["duality-fuzz", "maxlen=12"],
        ["walsh-regularity", "nmax=65537"],
        ["walsh-regularity", "nu=1e308", "nmax=8"],
        ["lebesgue-table", "nmax=300000"],
        ["lebesgue-table", "method=abel-poisson", "nmax=100000000000000000"],
        ["comparison-ratio", "nmax=1000000000000"],
        ["comparison-ratio", "m=1073741824"],
        ["two-sided-report", "m=1073741824"],
    ])
    def test_bad_fit_params(self, bad, capsys, tmp_path):
        keys = [t.split("=")[0].strip() for t in bad if "=" in t]
        if "--config" in bad:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(bad[-1] + "\n")
            bad = [*bad[:-1], str(cfg)]
        assert run_main(bad) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert any(key in err for key in keys)

    # a body whose transform overflows, its area past 1e300, exits 2 with one
    # line before any ray runs; radius 1e100 still runs
    @pytest.mark.parametrize("bad", [
        ["radius=1e308"], ["radius=1e155"], ["body=ellipse", "a=1e154", "b=1e154"],
        ["body=square", "radius=1e154"], ["body=ellipse", "a=1e200", "b=1e150"]])
    def test_overflowing_body_refused(self, bad, capsys, monkeypatch):
        monkeypatch.setitem(cli.REGISTRY, "indicator-zeros", cli.REGISTRY[
            "indicator-zeros"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        assert run_main(["indicator-zeros", *bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "1e300" in err
        monkeypatch.undo()
        assert run_main(["indicator-zeros", "radius=1e100", "phis=4"]) == 0

    # bounds from a module that loads on first use are read when the token
    # is parsed or the rule checked; each line is pinned byte for byte
    @pytest.mark.parametrize("case", [
        (["walsh-regularity", "nu=1e301"], "nu=1e301: not in [-1e+300, 1e+300]"),
        (["walsh-moduli", "bits=17"], "bits=17: not in [2, 16]"),
        (["aspline", "n=7"], "n=7: not in [2, 6]"),
        (["schoenberg", "m=4"], "m=4: not in [2, 3]"),
        (["euler-maclaurin-check", "rmax=99"], "rmax=99: not in [0, 4]"),
        (["indicator-zeros", "p=400"],
         "need 2(p+1)pi/width <= 1000, the transform's |u| cap, for width 2*radius, "
         "or 2*min(a, b) for an ellipse, and an area pi*radius^2, pi*a*b or "
         "4*radius^2 <= 1e300, which bounds |transform|"),
    ], ids=lambda case: case[0][0])
    def test_deferred_bound_error_lines(self, case, capsys):
        args, line = case
        assert run_main(args) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_walsh_moduli_overflowing_multipliers_refused(self, capsys, monkeypatch):
        # A_N^alpha at N = 2^(bits-1) overflows at alpha = 1000: the check
        # forms the widest mean's multipliers and exits 2 with one line
        monkeypatch.setitem(cli.REGISTRY, "walsh-moduli", cli.REGISTRY[
            "walsh-moduli"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        for tokens in (["alpha=1000"], ["alpha=300", "bits=16"], ["alpha=1e300"]):
            assert run_main(["walsh-moduli", *tokens]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("error: need finite Cesaro multipliers")
        assert cli.build_config("walsh-moduli", ["alpha=300"])

    def test_euler_maclaurin_n_bounded(self, capsys, monkeypatch):
        # n is read as a float by the closed forms: past 2^53 it is refused
        # with one line (n = 10^19 would overflow int64 inside the series)
        monkeypatch.setitem(cli.REGISTRY, "euler-maclaurin-check", cli.REGISTRY[
            "euler-maclaurin-check"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        assert run_main(["euler-maclaurin-check", f"n={10 ** 19}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: n={10 ** 19}: not in [0, {2 ** 53}]\n")
        assert cli.build_config("euler-maclaurin-check", [f"n={2 ** 53}"])

    # a missing config file, a config file that is not UTF-8 text or an
    # output path in a missing directory exits 2 with one error line before
    # the experiment runs
    @pytest.mark.parametrize("args", [["--config", "missing.cfg"],
                                      ["--out", "nodir/x.csv"],
                                      ["--config", "bin.cfg"]],
                             ids=["config", "out", "config-not-utf8"])
    def test_bad_path(self, args, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setitem(cli.REGISTRY, "aspline", cli.REGISTRY["aspline"]._replace(
            fn=lambda p, seed: calls.append(p) or ([], [])))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bin.cfg").write_bytes(b"\xff\xfe\x00bad")
        assert run_main(["aspline", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert args[1] in err

    def test_duality_fuzz_cost_guard(self, capsys, monkeypatch):
        # the bound is the largest maxlen the cost model puts within the
        # budget; a larger one is refused with its estimate before any work
        est, budget = seqspaces.fuzz_seconds, cli.BUDGET_SECONDS
        bound = max(n for n in range(1, 20) if est(n) <= budget)
        assert bound == 11 and budget < est(bound + 1)
        for maxlen in (1, 3, 9):
            entries = sum(n * 5 ** n for n in range(1, maxlen + 1))
            assert est(maxlen) == pytest.approx(entries * seqspaces.FUZZ_ENTRY_S)
        monkeypatch.setitem(cli.REGISTRY, "duality-fuzz", cli.REGISTRY[
            "duality-fuzz"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        # an estimate past the float range is inf
        for maxlen, estimate in ((bound + 1, f"{est(bound + 1):.3g} s, over the 600 s"),
                                 (10 ** 9, "inf GB, over the 1 GB")):
            assert run_main(["duality-fuzz", f"maxlen={maxlen}"]) == 2
            err = capsys.readouterr().err
            assert err == f"error: maxlen={maxlen}: estimated {estimate} budget\n"
        assert cli.build_config("duality-fuzz", [f"maxlen={bound}"])

    def test_moduli_cost_guard(self, capsys, monkeypatch):
        # the time of the sup scan and the multipliers, set by the smallest
        # hdenom, the number of step bounds and of corpus functions, and the
        # bytes per grid point; an input over either budget is refused with
        # its estimate before any work
        est = lambda *args: smoothness.moduli_cost(*args)[1]
        assert est(1024, 1, 256, 4) == pytest.approx(
            8e-9 * 1024 * 256 + 1.3e-7 * 1024 * 4 + 3e-5 * (8 + 1))
        assert est(1024, 3, 256, 4) == pytest.approx(3 * est(1024, 1, 256, 4))
        assert est(2 ** 16, 1, 1, 3) == pytest.approx(
            8e-9 * 2 ** 16 + 1.3e-7 * 2 ** 16 * 3 + 3e-5 * (1 + 1))
        for m, hdenoms in ((256, "16;2"), (4096, "2"), (1024, ";".join(["512"] * 64))):
            config = cli.build_config("moduli", ["f=sin", f"m={m}", f"hdenoms={hdenoms}"])
            tracemalloc.start()
            try:
                cli.run(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= smoothness.moduli_cost(m, 1, 1, len(hdenoms.split(";")))[0]
        monkeypatch.setitem(cli.REGISTRY, "moduli", cli.REGISTRY[
            "moduli"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        runs = len(corpus.periodic_ids())
        for m, hdenoms, r in ((1024, "16;8;4;2", 1000000), (2 ** 16, "2", 50)):
            need = runs * est(m, r, m // 4, len(hdenoms.split(";")))
            assert need > cli.BUDGET_SECONDS
            assert run_main(["moduli", f"m={m}", f"hdenoms={hdenoms}", f"r={r}"]) == 2
            assert capsys.readouterr().err == (
                f"error: m={m} hdenoms={hdenoms} r={r} f=all: estimated {need:.3g} s, "
                "over the 600 s budget\n")
        # over both budgets, the bytes are named
        need = smoothness.moduli_cost(2 ** 40, 1, 2 ** 38, 4)[0]
        assert runs * est(2 ** 40, 1, 2 ** 38, 4) > cli.BUDGET_SECONDS
        assert run_main(["moduli", f"m={2 ** 40}"]) == 2
        assert capsys.readouterr().err == (
            f"error: m={2 ** 40} hdenoms=16;8;4;2 r=1 f=all: estimated {need / 1e9:.3g} GB, "
            "over the 1 GB budget\n")
        for m, steps in ((2 ** 24, 1), (2 ** 27, 1), (2 ** 20, 16)):
            need = smoothness.moduli_cost(m, 1, 1, steps)[0]
            assert need > cli.BUDGET_BYTES
            hdenoms = ";".join([str(m // 2)] * steps)
            assert run_main(["moduli", "f=sin", f"m={m}", f"hdenoms={hdenoms}"]) == 2
            assert capsys.readouterr().err == (
                f"error: m={m} hdenoms={hdenoms} r=1 f=sin: estimated {need / 1e9:.3g} GB, "
                "over the 1 GB budget\n")
        for tokens in (["m=16384", "hdenoms=2"], ["m=1024", "r=1000"],
                       ["f=sin", f"m={2 ** 23}", f"hdenoms={2 ** 22}"]):
            assert cli.build_config("moduli", tokens)

    def test_gram_trials_cost_guard(self, capsys, monkeypatch):
        # a trial count whose searches are over the time budget is refused
        # with the estimate before any work
        for name, searches in (("schoenberg", 1), ("posdef-report", 2.5)):
            monkeypatch.setitem(cli.REGISTRY, name, cli.REGISTRY[name]._replace(
                fn=lambda p, seed: pytest.fail("ran")))
            bound = int(cli.BUDGET_SECONDS / (posdef_splines.GRAM_TRIAL_S * searches))
            assert cli.build_config(name, [f"trials={bound}"])
            for trials in (bound + 1, 10 ** 12):
                assert run_main([name, f"trials={trials}"]) == 2
                need = posdef_splines.GRAM_TRIAL_S * searches * trials
                assert capsys.readouterr().err == (
                    f"error: trials={trials}: estimated {need:.3g} s, over the "
                    "600 s budget\n")
            # a count past the float range is estimated at inf
            assert run_main([name, f"trials={10 ** 400}"]) == 2
            assert capsys.readouterr().err == (
                f"error: trials={10 ** 400}: estimated inf GB, over the 1 GB budget\n")

    def test_lebesgue_table_cost_guard(self, capsys, monkeypatch):
        # the estimates of the stacked engine against the memory budget
        # and the fuzz time budget; an input over either is refused with its
        # estimate before any work
        def nbytes(method, nmin, nmax):
            return lebesgue.table_cost(method, nmin, nmax)[0]

        def seconds(method, nmin, nmax):
            return lebesgue.table_cost(method, nmin, nmax)[1]

        budget = cli.BUDGET_BYTES
        d, ap = trig.dirichlet(), trig.abel_poisson()
        assert nbytes(d, 1, 1) == 40 * 2 ** 15 + 600 + 2 ** 20
        assert nbytes(d, 1, 1023) == 40 * 2 ** 15 + 600 * 1023 + 2 ** 20
        assert nbytes(d, 8191, 8191) == 40 * 2 ** 18 + 600 + 2 ** 20
        assert nbytes(d, 1, 524287) <= budget < nbytes(d, 1, 524288)
        # one synthesis on the 256-grid, J + 1 on the 64-point Taylor grid
        assert seconds(d, 5, 5) == pytest.approx(1.5e-4 + 3.5e-9 * (256 * 8 + (
            lebesgue._taylor_order(5, 2 * np.pi / 64)[0] + 1) * 64 * 6))
        assert seconds(d, 1, 64) < seconds(d, 1, 65) < seconds(d, 1, 1000)
        assert seconds(ap, 1, 200) < cli.BUDGET_SECONDS < seconds(ap, 1, 1600)
        # the rows of a long table of tiny kernels stay within their share
        config = cli.build_config("lebesgue-table", ["method=abel-poisson(0)", "nmax=3000"])
        tracemalloc.start()
        try:
            cli.run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= nbytes(trig.abel_poisson(0.0), 1, 3000)
        monkeypatch.setitem(cli.REGISTRY, "lebesgue-table", cli.REGISTRY[
            "lebesgue-table"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        for method, nmax in (("dirichlet", 524288), ("dirichlet", 10 ** 31),
                             ("abel-poisson(0)", 2 * 10 ** 6)):
            need = nbytes(trig.get_method(method), 1, nmax)
            assert need > budget
            assert run_main(["lebesgue-table", f"method={method}", f"nmax={nmax}"]) == 2
            assert capsys.readouterr().err == (
                f"error: nmax={nmax} nmin=1 method={method}: estimated {need / 1e9:.3g} GB, "
                "over the 1 GB budget\n")
        for method, nmin, nmax in (("dirichlet", 1, 20000), ("abel-poisson", 1, 1600),
                                   ("dirichlet", 261900, 262143),
                                   ("abel-poisson(0.5)", 0, 1500000)):
            est = seconds(trig.get_method(method), nmin, nmax)
            assert est > cli.BUDGET_SECONDS
            assert run_main(["lebesgue-table", f"method={method}", f"nmin={nmin}",
                             f"nmax={nmax}"]) == 2
            assert capsys.readouterr().err == (
                f"error: nmax={nmax} nmin={nmin} method={method}: estimated {est:.3g} s, "
                "over the 600 s budget\n")
        for tokens in (["nmax=4096"], ["method=abel-poisson", "nmax=200"],
                       ["nmin=65536", "nmax=65536"]):
            assert cli.build_config("lebesgue-table", tokens)

    @pytest.mark.parametrize("name,tokens", [
        ("lebesgue-table", ["method=cesaro(1e300)", "nmax=3"]),
        ("lebesgue-table", ["method=cesaro(1e20)", "nmax=20"]),
        ("comparison-ratio", ["a=cesaro(1e300)", "nmax=4", "m=64"])])
    def test_overflowing_weights_refused_before_work(self, name, tokens, capsys, monkeypatch):
        # A_n^alpha overflows at a large order: the cost path forms the
        # weights at nmax, which are not finite, and the run exits 2 with one
        # line before the experiment starts
        monkeypatch.setitem(cli.REGISTRY, name, cli.REGISTRY[name]._replace(
            fn=lambda p, seed: pytest.fail("ran")))
        assert run_main([name, *tokens]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: nmax=") and "weights are not finite" in err

    def test_kolmogorov_fit_cost_guard(self, capsys, monkeypatch):
        # nmax = 10^9 passes the r*log2(nmax) < 53 rule, but its top row
        # needs a 2^35-point grid: refused with its estimate before any work
        monkeypatch.setitem(cli.REGISTRY, "kolmogorov-fit", cli.REGISTRY[
            "kolmogorov-fit"]._replace(fn=lambda p, seed: pytest.fail("ran")))
        need = lebesgue.kolmogorov_cost(16, 10 ** 9)[0]
        assert need == 80 * 2 ** 35 + 2 ** 20
        assert run_main(["kolmogorov-fit", "r=1", "nmin=16", f"nmax={10 ** 9}"]) == 2
        assert capsys.readouterr().err == (
            f"error: nmax={10 ** 9} nmin=16: estimated {need / 1e9:.3g} GB, "
            "over the 1 GB budget\n")
        # the top grid the budget admits is M = 2^23, n <= 262143
        assert cli.build_config("kolmogorov-fit", ["r=2", "nmin=131071", "nmax=262142"])
        assert run_main(["kolmogorov-fit", "r=2", "nmin=131072", "nmax=262144"]) == 2

    def test_indicator_zeros_seconds_are_a_run_term_plus_a_term_a_ray(self):
        # the bisection's indicator_ft calls cost a run the same whatever its
        # ray count: one ray pays the whole run term, and each ray adds the
        # same; the run term is worth many rays
        def seconds(phis):
            config = cli.build_config("indicator-zeros", [f"phis={phis}"])
            return cli.REGISTRY["indicator-zeros"].cost[1](config["params"])[1]

        assert seconds(1) == ftlab.ZERO_CURVE_RUN_S + ftlab.ZERO_CURVE_S
        assert ftlab.ZERO_CURVE_RUN_S >= 20 * ftlab.ZERO_CURVE_S
        for phis in (2, 64, 2000):
            assert seconds(phis) - seconds(1) == pytest.approx((phis - 1) * ftlab.ZERO_CURVE_S)

    @pytest.mark.parametrize("name", [n for n, e in cli.REGISTRY.items() if e.cost])
    def test_every_cost_refuses_over_budget(self, name, capsys, monkeypatch):
        # the first cost key at 2^40 is over a budget for every experiment;
        # the one error line names it before the experiment would run
        key = cli.REGISTRY[name].cost[0][0]
        monkeypatch.setitem(cli.REGISTRY, name, cli.REGISTRY[name]._replace(
            fn=lambda p, seed: pytest.fail("ran")))
        assert run_main([name, f"{key}={2 ** 40}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {key}={2 ** 40}") and err.endswith(" budget\n")

    # the bytes estimate bounds the traced peak at two cheap sizes
    @pytest.mark.parametrize("name,tokens", [
        ("comparison-ratio", ["m=4096", "nmax=64"]),
        ("comparison-ratio", ["m=16384", "nmax=16"]),
        ("two-sided-report", ["m=16384"]),
        ("two-sided-report", ["r=3", "m=4096", "nmax=16"]),
        ("duality-fuzz", ["maxlen=4"]), ("duality-fuzz", ["maxlen=7"]),
        ("schoenberg", ["trials=2000"]), ("posdef-report", ["trials=400"]),
        ("comparison-ratio", ["m=64", "nmax=4096"]),
        ("comparison-ratio", ["a=cesaro(1)", "m=64", "nmax=4096"]),
        ("indicator-zeros", ["phis=64"]), ("indicator-zeros", ["body=square", "phis=256"]),
        ("kolmogorov-fit", []), ("kolmogorov-fit", ["r=3", "nmin=16", "nmax=8192"]),
        ("indicator-zeros", ["phis=2000"])])
    def test_bytes_estimate_bounds_traced_peak(self, name, tokens):
        config = cli.build_config(name, tokens)
        tracemalloc.start()
        try:
            cli.run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.REGISTRY[name].cost[1](config["params"])[0]

    def test_two_sided_grid_rule_agrees_with_step_check(self):
        # the rule 2pi*n <= m against the run-time check of a step 1/n on the
        # m-grid, on both sides of the boundary n = floor(m/2pi)
        rule = cli.REGISTRY["two-sided-report"].check[0]
        for m in (2 ** j for j in range(3, 21)):
            f = trig.SampledFunction(np.zeros(m))
            for n in (int(m / (2 * np.pi)), int(m / (2 * np.pi)) + 1):
                try:
                    smoothness._steps_within(f, 1.0 / n)
                    fits = True
                except InvalidArgument:
                    fits = False
                assert rule({"r": 1, "nmin": n, "nmax": n, "m": m}) == fits, (m, n)

    def test_kolmogorov_fit_failure_exit(self, tmp_path):
        # r=4: the bound at n = 512 and 1024 is not below the value itself;
        # both rows keep the best estimate and get a failure line
        out = tmp_path / "t.csv"
        assert run_main(["kolmogorov-fit", "r=4", "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 5 + 2 and lines[-3].startswith("4,1024,3.05")
        assert lines[-2].startswith("# failure: n=512: ")
        assert lines[-1].startswith("# failure: n=1024: ")

    def test_moduli_overflow_exit(self, tmp_path):
        # a difference of order 2000 overflows: the row keeps its inf and nan
        # and gets a failure line, where it used to pass as a success
        out = tmp_path / "t.csv"
        assert run_main(["moduli", "r=2000", "m=64", "hdenoms=32", "f=sin",
                         "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        assert lines[2] == "sin,2000,0.098174770424681035,inf,nan"
        assert lines[3].startswith("# failure: sin h=0.0981748: omega=inf, omega_tilde=nan")
        assert run_main(["moduli", "r=1000", "m=64", "hdenoms=32",
                         "--out", str(out)]) == 0

    def test_numeric_failure_exit(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_main(["lebesgue-table", "method=dirichlet", "nmin=1",
                         "nmax=2", "tol=1e-30", "--out", str(out)])
        assert code == 1
        assert "# failure" in out.read_text()


class TestDeterminism:
    def test_byte_identical_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["schoenberg", "m=2", "p=3", "alpha=1", "trials=200",
                "--seed", "5"]
        assert run_main(args + ["--out", str(a)]) == 0
        assert run_main(args + ["--out", str(b)]) == 0
        la = a.read_text().splitlines()[1:]
        lb = b.read_text().splitlines()[1:]
        assert la == lb

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("XLAB_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            assert run_main(["lebesgue-table", "nmax=40", "tol=1e-30",
                             "--out", str(out)]) == 1
            texts.append(out.read_text().splitlines()[1:])
        assert texts[0] == texts[1]
        assert sum(line.startswith("# failure") for line in texts[0]) == 40

    def test_threads_split_the_grid_stacks_alike(self, tmp_path, monkeypatch):
        # n = 64..127 share one grid and fill eight stacks; every row and bound
        # is the same for one worker and for two
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("XLAB_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            assert run_main(["lebesgue-table", "method=rogosinski", "nmin=0",
                             "nmax=140", "--out", str(out)]) == 0
            texts.append(out.read_text().splitlines()[1:])
        assert texts[0] == texts[1] and len(texts[0]) == 1 + 141

    def test_thread_count_capped_at_cpu_count(self, monkeypatch, tmp_path):
        # a stub executor records the pool size and starts no threads;
        # lebesgue-table is the one experiment that maps over the pool
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("XLAB_THREADS", "100000")
        out = tmp_path / "t.csv"
        assert run_main(["lebesgue-table", "nmax=8", "--out", str(out)]) == 0
        assert sizes == [3]
        assert [int(l.split(",")[1]) for l in out.read_text().splitlines()[2:]] == \
            list(range(1, 9))
        # indicator-zeros runs its rays in one call, without a pool
        assert run_main(["indicator-zeros", "phis=4", "--out", str(out)]) == 0
        assert sizes == [3]

    def test_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(["schoenberg", "m=2", "p=3", "trials=100", "--seed", "1",
                  "--out", str(a)])
        run_main(["schoenberg", "m=2", "p=3", "trials=100", "--seed", "2",
                  "--out", str(b)])
        assert a.read_text().splitlines()[2] != b.read_text().splitlines()[2]

    # content_hash(build_config(id, [])) pinned at the defaults; a schema
    # change must not move these
    GOLDEN_HASHES = {
        "aspline": "7515ffa9a95604c8", "comparison-ratio": "4fd225597eb2bfda",
        "duality-fuzz": "bb3df26e352a30b1", "euler-maclaurin-check": "a3160451532eb485",
        "hyperbolic-fit": "430e1fe5c8efe52d", "indicator-zeros": "dd96d63ba2a4fff8",
        "kolmogorov-fit": "7ff1f69932cd525d", "lebesgue-table": "b742719ae0448d7a",
        "moduli": "cc0681b8da868925", "posdef-report": "8547c92d53503a5b",
        "schoenberg": "eb154c3b332c72a3", "two-sided-report": "93ededb207bd86d7",
        "walsh-moduli": "9943e899352ec28f", "walsh-regularity": "c299e627f5fc873c",
    }

    def test_golden_config_hashes(self):
        got = {e: cli.content_hash(cli.build_config(e, []))
               for e in cli.REGISTRY}
        assert got == self.GOLDEN_HASHES
        # a token spelled like the default hashes like the default
        assert cli.content_hash(cli.build_config("schoenberg", ["p=3"])) \
            == self.GOLDEN_HASHES["schoenberg"]

    def test_hash_tracks_config(self):
        c1 = cli.build_config("lebesgue-table", ["nmax=5"], seed=0)
        c2 = cli.build_config("lebesgue-table", ["nmax=6"], seed=0)
        assert cli.content_hash(c1) != cli.content_hash(c2)
        assert cli.content_hash(c1) == cli.content_hash(
            cli.build_config("lebesgue-table", ["nmax=5"], seed=0))


class TestFormats:
    def test_json_rows(self, tmp_path):
        out = tmp_path / "t.json"
        code = run_main(["lebesgue-table", "method=fejer", "nmin=1", "nmax=3",
                         "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "lebesgue-table"
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"method", "n", "value", "quad_error"}

    def test_csv_precision(self, tmp_path):
        out = tmp_path / "t.csv"
        run_main(["lebesgue-table", "method=dirichlet", "nmin=1", "nmax=1",
                  "--out", str(out)])
        value = out.read_text().splitlines()[2].split(",")[2]
        assert abs(float(value) - (1 / 3 + 2 * np.sqrt(3) / np.pi)) < 1e-15
        assert len(value) >= 17


class TestConfigFile:
    def test_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = fejer\nnmin = 1\nnmax = 9  # comment\n")
        out = tmp_path / "t.csv"
        code = run_main(["lebesgue-table", "nmax=2", "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header comment + columns + rows 1..2
        assert lines[2].startswith("fejer,1,")

    def test_unknown_key_in_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_main(["lebesgue-table", "--config", str(cfg)]) == 2


class TestExperimentOutputs:
    def test_indicator_zero_rows_inside_bracket(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_main(["indicator-zeros", "body=disc", "p=3", "phis=4",
                         "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[2:]:
            phi, rp, d, product, lower, upper = map(float, line.split(","))
            assert lower < product < upper

    def test_square_symmetry_rays_are_recorded_failures(self, tmp_path):
        # phis=4 gives the rays phi = k pi/4, where the square's zero sits on
        # the bracket's end: every row is a recorded failure, not a traceback
        out = tmp_path / "t.csv"
        assert run_main(["indicator-zeros", "body=square", "phis=4",
                         "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 4 + 4
        assert all(",nan," in line for line in lines[2:6])
        assert all(line.startswith("# failure: phi=") for line in lines[6:])

    def test_indicator_products_are_scale_free(self, tmp_path):
        # the zeros are bisected to adjacent doubles with no absolute
        # tolerance: each d*r_p of a disc of radius 1e6, 1e12 or 1e100 is
        # within 4 ulps of radius 1's on the same ray
        def products(radius):
            out = tmp_path / "t.csv"
            assert run_main(["indicator-zeros", f"radius={radius}", "--out", str(out)]) == 0
            return np.array([float(line.split(",")[3])
                             for line in out.read_text().splitlines()[2:]])

        want = products(1)
        assert want.size == 64
        for radius in ("1e6", "1e12", "1e100"):
            assert np.all(np.abs(products(radius) - want) <= 4 * np.spacing(want)), radius

    def test_duality_fuzz_small(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_main(["duality-fuzz", "maxlen=3", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 3
        for line in rows:
            _, _, gap_a, gap_c = line.split(",")
            assert float(gap_a) <= 1e-9 and float(gap_c) <= 1e-9

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XLAB_THREADS", "2")
        out = tmp_path / "t.csv"
        assert run_main(["lebesgue-table", "method=fejer", "nmin=1",
                         "nmax=6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        ns = [int(l.split(",")[1]) for l in lines[2:]]
        assert ns == sorted(ns)

    def test_hyperbolic_fit_overflowing_alpha(self, tmp_path):
        # k1^alpha past the float range counts as above n: as at alpha = 64,
        # only k1 = 1 is in the index set, so every column but alpha agrees
        def columns(alpha):
            out = tmp_path / "t.csv"
            assert run_main(["hyperbolic-fit", f"alpha={alpha}", "--out", str(out)]) == 0
            return [line.split(",")[1:] for line in out.read_text().splitlines()[2:]]

        want = columns("64")
        assert len(want) == 5
        assert columns("1e10") == columns("1e300") == want

    def test_reader_closing_early_is_no_traceback(self):
        # as `xlab walsh-regularity | head -1`: 1.2 MB of rows, far past a
        # pipe's buffer, to a reader that leaves after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "xlab.cli", "walsh-regularity", "nmax=65536"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# generated ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1 and err == b""

    def test_import_leaves_scipy_unimported(self):
        # scipy is imported by the functions that use it, not at start-up
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, xlab.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    def test_import_loads_only_the_registry_modules(self):
        # building the registry runs errors, trig and lebesgue; the other
        # six are registered and bound on the package, and run on first use
        lazy = ["corpus", "ftlab", "posdef_splines", "seqspaces", "smoothness", "walsh"]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, types, xlab.cli\n"
             "print(sorted(n for n, m in sys.modules.items() if n.split('.')[0] == 'xlab'"
             " and type(m) is types.ModuleType))\n"
             f"print([n for n in {lazy} if getattr(sys.modules['xlab'], n)"
             " is not sys.modules['xlab.' + n]])\n"
             "print('concurrent.futures' in sys.modules)\n"
             "import xlab.walsh\n"
             "print(type(sys.modules['xlab.walsh']) is types.ModuleType)"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.splitlines() == [
            "['xlab', 'xlab.cli', 'xlab.errors', 'xlab.lebesgue', 'xlab.trig']",
            "[]", "False", "True"]

    def test_runs_leave_integrate_and_optimize_unimported(self):
        # claims 1.3 and 1.12 take their integral and their zeros without
        # scipy.integrate or scipy.optimize
        proc = subprocess.run(
            [sys.executable, "-c", "import io, sys\nfrom xlab import cli\n"
             "for args in (['euler-maclaurin-check', 'rmax=0'],"
             " ['indicator-zeros', 'phis=4']):\n"
             "    cli.write_csv(cli.run(cli.build_config(args[0], args[1:])), io.StringIO())\n"
             "print(sorted(m for m in sys.modules if m.split('.')[:2] in"
             " (['scipy', 'integrate'], ['scipy', 'optimize'])))"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "xlab.cli", "list"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) >= 14


# one cheap run per enumerated choice: each body, and each summability-method
# name (with valid arguments where its factory needs them)
_METHOD_ARGS = {0: "", -1: "", 1: "(1)", 2: "(2,1)"}
CHOICE_RUNS = [["indicator-zeros", f"body={body}", "phis=4"]
               for body in ("disc", "ellipse", "square")] \
    + [["lebesgue-table", f"method={name}{_METHOD_ARGS[nargs]}", "nmax=4"]
       for name, (_, nargs) in trig._FACTORIES.items()]


@pytest.mark.parametrize("args", CHOICE_RUNS, ids=[a[1] for a in CHOICE_RUNS])
def test_every_choice_runs(args, tmp_path):
    # an exception escaping main would be a traceback; exit 1 records failures
    assert run_main([*args, "--out", str(tmp_path / "t.csv")]) in (0, 1)


# sha256 of the CSV text below the timestamp line, one small run per
# experiment; a refactor that should not move any number must keep these
GOLDEN_ROWS = [
    ("lebesgue-table", ["method=bernstein", "nmax=24"],
     "d80d9014e85a42a7a0e4bbe0af1eb90f4ece25da4670c2e7499440f63163f83a"),
    ("kolmogorov-fit", ["r=2", "nmin=16", "nmax=128"],
     "96fa845834512d0bfc33f6f1b5e598f0ba9d778f52c2627ea4f60f0bf7ea64e4"),
    ("hyperbolic-fit", ["nmin=16", "nmax=64"],
     "744aa99b20dd47f9fd3c4b61501735460f54468e5a8dd25154dbe0ffe6408eab"),
    ("duality-fuzz", ["maxlen=4"],
     "d5b1fa861f4cce4587fa78915b38888de20e64996affde6f81c28a347f0b0e76"),
    ("moduli", ["m=256"],
     "9004b074ed8c6a28367a0e999d640310bf9741d341bbbde4c7d87044303fb6cf"),
    ("two-sided-report", ["nmin=16", "nmax=64", "m=512"],
     "c119eba05272d10effc48a956d69f0bdc512259f6df9c07f7fde02a40a66b610"),
    ("posdef-report", ["trials=100"],
     "92907952f5390bf6de416699afc73c510086ee24df6e08d2b330c012e0ba381e"),
    ("aspline", ["n=2"],
     "f201dd9ae856ea04054ec98ae52f5c4601b5338232da359a1fd091c91442c272"),
    ("schoenberg", ["trials=200"],
     "b779c608c007a5cb4c24de909ce219bfde859a89959d97684173e6442f502bc6"),
    ("schoenberg", ["m=3", "p=inf", "trials=200"],
     "1d598bff3ba4de8012675e56ca9f6fcf6bea33d13c3bd4c35f8214b1d55edd3d"),
    ("walsh-regularity", ["nmax=64"],
     "ed2581c1648a31e564c7b053f0163e03e37ee47b02ca645beb02185481f10371"),
    ("walsh-moduli", ["bits=6"],
     "02423c902eff997a203b8f678faa5dbd1660b6721759d63363cff1a1269d2069"),
    ("indicator-zeros", ["body=ellipse", "phis=8"],
     "1fc41e6b8c80f6ec88c213bcf281bff5f2f2d8c6424b255ff92bfecbb56a5cf7"),
    ("indicator-zeros", ["body=square", "phis=16"],
     "d83da76966ba907e63c408c43d880617aa67d113fe2204c355c9b2121c45d640"),
    ("comparison-ratio", ["a=rogosinski", "nmax=16", "m=128"],
     "75388e3f8873fa5ec60e1ea4ab8bf564453afe8b4ff82829660f4b7d4e7676d1"),
    ("euler-maclaurin-check", ["rmax=1"],
     "7c25ccf4e22e7ac8d4b8591363a334c6650617698350c56e8a75be4d1ea694cc"),
]


# the id is the experiment, with the tokens added from its second case on
GOLDEN_IDS = [name if [c[0] for c in GOLDEN_ROWS].index(name) == i
              else "-".join([name, *tokens])
              for i, (name, tokens, _) in enumerate(GOLDEN_ROWS)]


@pytest.mark.parametrize("experiment,tokens,digest", GOLDEN_ROWS, ids=GOLDEN_IDS)
def test_golden_row_digest(experiment, tokens, digest):
    buf = io.StringIO()
    cli.write_csv(cli.run(cli.build_config(experiment, tokens)), buf)
    rows = buf.getvalue().split("\n", 1)[1]
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.mark.parametrize("experiment", sorted({c[0] for c in GOLDEN_ROWS}))
def test_golden_row_digest_in_a_fresh_process(experiment):
    # each experiment from a fresh interpreter, where the modules it reads
    # load on first use, gives the same rows
    cases = [(tokens, digest) for name, tokens, digest in GOLDEN_ROWS if name == experiment]
    proc = subprocess.run(
        [sys.executable, "-c", "import hashlib, io, sys\nfrom xlab import cli\n"
         "for tokens in sys.argv[2:]:\n"
         "    buf = io.StringIO()\n"
         "    cli.write_csv(cli.run(cli.build_config(sys.argv[1], tokens.split())), buf)\n"
         "    print(hashlib.sha256(buf.getvalue().split('\\n', 1)[1].encode()).hexdigest())",
         experiment, *(" ".join(tokens) for tokens, _ in cases)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [digest for _, digest in cases]

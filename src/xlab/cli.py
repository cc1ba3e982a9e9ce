"""Command-line driver: deterministic experiment runs with CSV/JSON output.

Usage:  xlab <experiment-id> key=value ... [--out PATH] [--format csv|json]
        [--seed K] [--config FILE]

Parameters are plain key=value tokens; a config file may supply defaults
(one `key = value` per line, '#' comments); each token goes through the
parser its experiment declares for the key before any work starts.  Reruns
with identical config and seed produce byte-identical output up to the
timestamp header line; XLAB_THREADS caps the worker pool size.
"""

import argparse
import collections
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import corpus, ftlab, lebesgue, posdef_splines, seqspaces, smoothness
from . import trig, walsh
from .errors import ConvergenceFailure, InvalidArgument, NotFound

USAGE_ERROR = 2
NUMERIC_ERROR = 1


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _pool_size():
    try:
        return max(1, int(os.environ.get("XLAB_THREADS", "1")))
    except ValueError:
        return 1


def _map(fn, items):
    """fn: item -> (row, failure or None); (rows, failures) in item order."""
    workers = _pool_size()
    if workers == 1:
        out = [fn(it) for it in items]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(fn, items))
    return [row for row, _ in out], [f for _, f in out if f]


# ---------------------------------------------------------------------------
# experiment implementations: params dict + seed -> (rows, failures)
# ---------------------------------------------------------------------------

def _exp_lebesgue_table(p, seed):
    method = trig.get_method(p["method"])

    def one(n):
        try:
            s = lebesgue.lebesgue_constant(method, n, tol=p["tol"])
            return {"method": method.name, "n": n, "value": s.value,
                    "quad_error": s.quad_error}, None
        except ConvergenceFailure as e:
            return {"method": method.name, "n": n,
                    "value": float(e.best_estimate or math.nan),
                    "quad_error": float(e.error_estimate or math.nan)}, \
                f"n={n}: {e}"

    return _map(one, range(p["nmin"], p["nmax"] + 1))


def _exp_kolmogorov_fit(p, seed):
    ns = lebesgue.geometric_grid(p["nmin"], p["nmax"])
    vals, failures = [], []
    for n in ns:
        try:
            vals.append(lebesgue.kolmogorov_deviation(p["r"], n))
        except ConvergenceFailure as e:
            vals.append(e.best_estimate)
            failures.append(f"n={n}: {e}")
    scaled = [v * n ** p["r"] for v, n in zip(vals, ns)]
    c, d, resid = lebesgue.fit_log_model(ns, scaled)
    rows = [{"r": p["r"], "n": n, "value": v, "slope": c, "intercept": d,
             "fit_residual": resid} for n, v in zip(ns, vals)]
    return rows, failures


def _exp_hyperbolic_fit(p, seed):
    ns = lebesgue.geometric_grid(p["nmin"], p["nmax"])
    fit, ns, vals = lebesgue.hyperbolic_exponent(p["alpha"], ns)
    rows = [{"alpha": p["alpha"], "n": n, "value": v,
             "slope": fit.params[1], "fit_residual": fit.residual}
            for n, v in zip(ns, vals)]
    return rows, []


def _exp_duality_fuzz(p, seed):
    import itertools
    rows, failures = [], []
    entries = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for length in range(1, p["maxlen"] + 1):
        worst_a = worst_c = 0.0
        count = 0
        for tup in itertools.product(entries, repeat=length):
            beta = np.array(tup)
            ra = seqspaces.duality_identity_astar(beta)
            rc = seqspaces.duality_identity_cesaro(beta)
            worst_a = max(worst_a, abs(ra["lhs"] - ra["rhs"]))
            worst_c = max(worst_c, abs(rc["lhs"] - rc["rhs"]))
            count += 1
        if worst_a > 1e-9 or worst_c > 1e-9:
            failures.append(f"length {length}: gaps {worst_a:g}, {worst_c:g}")
        rows.append({"length": length, "count": count,
                     "max_gap_astar": worst_a, "max_gap_cesaro": worst_c})
    return rows, failures


def _parse_h_list(spec_str):
    return [np.pi / int(tok) for tok in spec_str.split(";")]


def _exp_moduli(p, seed):
    names = corpus.periodic_ids() if p["f"] == "all" else [p["f"]]
    hs = _parse_h_list(p["hdenoms"])
    rows = []
    for name in names:
        f = corpus.sampled(name, p["m"])
        for h in hs:
            spec = smoothness.ModulusSpec(p["r"], h)
            rows.append({"f_id": name, "r": p["r"], "h": h,
                         "omega": smoothness.modulus(f, spec),
                         "omega_tilde": smoothness.linearized_modulus(f, spec)})
    return rows, []


def _exp_two_sided(p, seed):
    rows = []
    for name, f in corpus.jackson_corpus(p["m"]):
        for n in lebesgue.geometric_grid(p["nmin"], p["nmax"]):
            r = smoothness.jackson_two_sided(f, p["r"], n)
            rows.append({"f_id": name, "r": p["r"], "n": n,
                         "approx_error": r["approx_error"],
                         "modulus": r["modulus_value"], "ratio": r["ratio"]})
    return rows, []


def _exp_posdef_report(p, seed):
    rng = np.random.default_rng(seed)
    rows = []

    def search_min(fn, dim, trials):
        best = math.inf
        for _ in range(trials):
            k = int(rng.integers(3, 13))
            pts = rng.uniform(-3, 3, (k, dim)) * 10 ** rng.uniform(-1.5, 0)
            best = min(best, posdef_splines.gram_min_eig(pts, fn))
        return best

    gauss = search_min(lambda d: math.exp(-float(np.dot(d, d))), 2, p["trials"])
    rows.append({"profile": "gaussian", "claim": "positive definite",
                 "evidence": "search", "value": gauss,
                 "ok": gauss >= -1e-8 * 12})
    for name, prof in [("hat", posdef_splines.RadialProfile(poly=np.array([1.0, -1.0]))),
                       ("exp", posdef_splines.RadialProfile(fn=lambda t: np.exp(-t)))]:
        ok = posdef_splines.polya_test(prof, 1)
        rows.append({"profile": name, "claim": "positive definite",
                     "evidence": "polya", "value": 1.0 if ok else 0.0, "ok": ok})
        ref = search_min(lambda d: float(prof(np.array([np.linalg.norm(d)]))[0]), 1,
                         p["trials"] // 4)
        rows.append({"profile": name, "claim": "no Gram violation",
                     "evidence": "search", "value": ref, "ok": ref >= -1e-8 * 12})
    for n in (2, 3):
        prof = posdef_splines.a_spline(n)
        r = posdef_splines.radial_ft_positivity(prof, 1, 200.0, 0.05)
        rows.append({"profile": prof.label, "claim": "transform positive",
                     "evidence": "transform", "value": r["min_value"],
                     "ok": r["min_value"] > 0})
    stretched = lambda d: math.exp(-abs(float(d[0])) ** 2.5)
    viol = search_min(stretched, 1, p["trials"])
    rows.append({"profile": "exp(-|t|^2.5)", "claim": "violation exists",
                 "evidence": "search", "value": viol, "ok": viol < -1e-6})
    failures = [] if all(r["ok"] for r in rows) else ["evidence check failed"]
    return rows, failures


def _exp_aspline(p, seed):
    prof = posdef_splines.a_spline(p["n"])
    ft = posdef_splines.radial_ft_positivity(prof, 1, 200.0, 0.01)
    rows = [{"n": p["n"], "j": j, "coeff": float(c),
             "ft_min": ft["min_value"], "ft_argmin": ft["argmin"]}
            for j, c in enumerate(prof.poly)]
    return rows, []


def _exp_schoenberg(p, seed):
    pval = math.inf if p["p"] in ("inf", "oo") else float(p["p"])
    r = posdef_splines.schoenberg_check(p["m"], pval, p["alpha"],
                                        trials=p["trials"], seed=seed)
    witness = "" if r["witness"] is None else ";".join(
        ",".join(format(x, ".6g") for x in pt) for pt in r["witness"])
    rows = [{"m": p["m"], "p": p["p"], "alpha": p["alpha"],
             "trials": p["trials"], "seed": seed,
             "min_eig": r["min_eig_found"], "witness": witness}]
    return rows, []


def _exp_walsh_regularity(p, seed):
    r = walsh.br_means_regularity(p["alpha"], p["beta"], p["nu"], p["nmax"])
    rows = [{"alpha": p["alpha"], "beta": p["beta"], "nu": p["nu"],
             "n": n + 1, "lc": float(v)}
            for n, v in enumerate(r["lc_values"])]
    return rows, []


def _exp_walsh_moduli(p, seed):
    rows = []
    for name, values in corpus.dyadic_corpus(p["bits"]):
        sig = walsh.DyadicSignal(values, p["bits"])
        for n in range(0, p["bits"] - 1):
            cap = 1 << (n + 1)
            if cap >= (1 << p["bits"]):
                continue
            mods = walsh.walsh_moduli(sig, n)
            err = float(np.max(np.abs(
                sig.values - walsh.cesaro_means(sig, cap, p["alpha"]).values)))
            rows.append({"f_id": name, "n": n, "N": cap,
                         "Omega_n": mods["Omega_n"], "omega_n": mods["omega_n"],
                         "cesaro_error": err})
    return rows, []


def _exp_euler_maclaurin(p, seed):
    rows, failures = [], []
    families = [("exp", a) for a in np.linspace(0.2, 2.0, 5)] \
        + [("pow", b) for b in np.linspace(1.5, 4.0, 5)]
    for fam, par in families:
        fn = ftlab.exponential_decay(par) if fam == "exp" \
            else ftlab.inverse_power(par)
        for x in (np.pi / 2, -np.pi / 2, 1.0, -1.0, 3.0, -3.0):
            for r in range(p["rmax"] + 1):
                try:
                    res = ftlab.euler_maclaurin_sum(fn, p["n"], r, x)
                    rows.append({"family": fam, "param": float(par), "x": x,
                                 "r": r, "abs_theta": abs(res["theta"]),
                                 "variation": res["variation"]})
                except ConvergenceFailure as e:
                    failures.append(f"{fam}({par:g}) x={x} r={r}: {e}")
    return rows, failures


def _body_from_params(p):
    if p["body"] == "disc":
        return ftlab.ConvexBody2D.disc(p["radius"])
    if p["body"] == "ellipse":
        return ftlab.ConvexBody2D.ellipse(p["a"], p["b"])
    s = p["radius"]
    return ftlab.ConvexBody2D.polygon([[-s, -s], [s, -s], [s, s], [-s, s]])


def _narrowest_width(p):
    return 2 * (min(p["a"], p["b"]) if p["body"] == "ellipse" else p["radius"])


def _exp_indicator_zeros(p, seed):
    body = _body_from_params(p)

    def one(i):
        phi = np.pi * i / p["phis"]
        d = body.width(phi)
        try:
            r = ftlab.zero_curve(body, p["p"], phi)
        except NotFound as e:
            return {"phi": phi, "r_p": math.nan, "d_phi": d,
                    "product": math.nan, "lower": 2 * p["p"] * np.pi,
                    "upper": 2 * (p["p"] + 1) * np.pi}, f"phi={phi:g}: {e}"
        return {"phi": phi, "r_p": r, "d_phi": d, "product": d * r,
                "lower": 2 * p["p"] * np.pi,
                "upper": 2 * (p["p"] + 1) * np.pi}, None

    return _map(one, range(p["phis"]))


def _exp_comparison_ratio(p, seed):
    names, fset = zip(*corpus.comparison_corpus(p["m"]))
    band, table = trig.comparison_ratio(trig.get_method(p["a"]),
                                        trig.get_method(p["b"]),
                                        fset, p["nmax"], p["m"])
    rows = [{"f_id": name, "n": n, "err_a": float(errs[n - 1, 0]),
             "err_b": float(errs[n - 1, 1]), "ratio": float(errs[n - 1, 2]),
             "band_constant": band}
            for name, errs in zip(names, table)
            for n in (1, 2, 4, 8, 16, 32, 64, 128, 256) if n <= p["nmax"]]
    return rows, []


def _number(cast, lo=-math.inf, hi=math.inf, strict=False):
    """Parser of a finite int or float in [lo, hi], or in (lo, hi] if strict."""
    def parse(token):
        try:
            value = cast(token)
        except ValueError:
            raise InvalidArgument(f"not {'an int' if cast is int else 'a float'}")
        if not (-math.inf < value < math.inf and value <= hi
                and (lo < value if strict else lo <= value)):
            raise InvalidArgument(f"not in {'(' if strict else '['}{lo}, {hi}"
                                  + ("]" if hi < math.inf else ")"))
        return value
    return parse


def _one_of(valid):
    """Parser of a name kept as typed: in `valid`, or taken by valid(token)."""
    def parse(token):
        if callable(valid):
            valid(token)
        elif token not in valid:
            raise InvalidArgument(f"not one of {', '.join(valid)}")
        return token
    return parse


def _grid_size(token):
    m = _number(int, trig.GRID_MIN)(token)
    if not trig._is_power_of_two(m):
        raise InvalidArgument("not a power of two")
    return m


_METHOD, _FLOAT = _one_of(trig.get_method), _number(float)
_COUNT, _INDEX = _number(int, 0), _number(int, 1)
_POSITIVE = _number(float, 0, strict=True)
# params: key -> (default, parser); check: (rule on two keys, failure message)
Experiment = collections.namedtuple(
    "Experiment", "fn description claims params columns check", defaults=(None,))

REGISTRY = {
    "lebesgue-table": Experiment(
        _exp_lebesgue_table, "operator norms of a summability mean", "4",
        {"method": ("dirichlet", _METHOD), "nmin": (1, _COUNT),
         "nmax": (64, _COUNT), "tol": (1e-9, _POSITIVE)},
        ["method", "n", "value", "quad_error"],
        (lambda p: p["nmin"] <= p["nmax"], "need nmin <= nmax")),
    "kolmogorov-fit": Experiment(
        _exp_kolmogorov_fit, "bounded-derivative class deviation and log fit",
        "4.1", {"r": (1, _INDEX), "nmin": (64, _INDEX), "nmax": (1024, _INDEX)},
        ["r", "n", "value", "slope", "intercept", "fit_residual"],
        (lambda p: 2 * p["nmin"] <= p["nmax"]
         and p["r"] * math.log2(p["nmax"]) < 53,
         "need 2*nmin <= nmax and r*log2(nmax) < 53: a deviation of order "
         "nmax**-r below the unit roundoff cannot be certified")),
    "hyperbolic-fit": Experiment(
        _exp_hyperbolic_fit, "hyperbolic-cross kernel norm exponent", "4.4a",
        {"alpha": (1.0, _number(float, 1)), "nmin": (256, _INDEX), "nmax": (4096, _INDEX)},
        ["alpha", "n", "value", "slope", "fit_residual"],
        (lambda p: 2 * p["nmin"] <= p["nmax"] and lebesgue.geometric_grid(
            p["nmin"], p["nmax"])[-1] <= lebesgue.HYPERBOLIC_NMAX,
         f"need 2*nmin <= nmax and grid points <= {lebesgue.HYPERBOLIC_NMAX}")),
    "duality-fuzz": Experiment(
        _exp_duality_fuzz, "exhaustive check of both pairing identities",
        "1.13", {"maxlen": (6, _INDEX)},
        ["length", "count", "max_gap_astar", "max_gap_cesaro"]),
    "moduli": Experiment(
        _exp_moduli, "moduli of smoothness and their integral average", "5.3",
        {"f": ("all", _one_of(lambda t: t == "all" or corpus.periodic(t))),
         "r": (1, _INDEX), "m": (1024, _grid_size),
         "hdenoms": ("16;8;4;2", _one_of(lambda t: [_INDEX(d) for d in t.split(";")]))},
        ["f_id", "r", "h", "omega", "omega_tilde"],
        (lambda p: all(2 * int(d) <= p["m"] for d in p["hdenoms"].split(";")),
         "need every hdenom <= m/2: a step pi/hdenom spans a grid cell 2pi/m")),
    "two-sided-report": Experiment(
        _exp_two_sided, "approximation error against the modulus, per corpus",
        "5.1, 5.2b", {"r": (1, _INDEX), "nmin": (16, _INDEX),
                      "nmax": (256, _INDEX), "m": (2048, _grid_size)},
        ["f_id", "r", "n", "approx_error", "modulus", "ratio"],
        (lambda p: p["r"] <= p["nmin"] <= p["nmax"] and trig.TWO_PI
         * lebesgue.geometric_grid(p["nmin"], p["nmax"])[-1] <= p["m"],
         "need r <= nmin <= nmax and 2pi*n <= m for the largest grid n: "
         "the step 1/n spans a grid cell 2pi/m")),
    "posdef-report": Experiment(
        _exp_posdef_report, "positive-definiteness evidence per profile",
        "7.1, 7.4, 7.6", {"trials": (1000, _COUNT)},
        ["profile", "claim", "evidence", "value", "ok"]),
    "aspline": Experiment(
        _exp_aspline, "maximal-smoothness two-piece spline coefficients", "7.6",
        {"n": (3, _number(int, *posdef_splines.A_SPLINE_N_RANGE))},
        ["n", "j", "coeff", "ft_min", "ft_argmin"]),
    "schoenberg": Experiment(
        _exp_schoenberg, "Gram search for exp(-||x||_p^alpha)", "7.14",
        {"m": (2, _number(int, *posdef_splines.SCHOENBERG_DIMS)),  # consecutive
         "p": ("3", _one_of(lambda t: t in ("inf", "oo")
                            or _number(float, 2, strict=True)(t))),
         "alpha": (1.0, _number(float, 0)), "trials": (10000, _COUNT)},
        ["m", "p", "alpha", "trials", "seed", "min_eig", "witness"]),
    "walsh-regularity": Experiment(
        _exp_walsh_regularity, "kernel norms of shifted partial-sum averages",
        "8.2", {"alpha": (0.5, _FLOAT), "beta": (0.5, _FLOAT), "nu": (1.0, _FLOAT),
                "nmax": (1024, _number(int, 2))},    # two octaves to compare
        ["alpha", "beta", "nu", "n", "lc"]),
    "walsh-moduli": Experiment(
        _exp_walsh_moduli, "dyadic moduli against Cesaro approximation", "8.5, 8.6",
        {"bits": (10, _number(int, *walsh.BITS_RANGE)), "alpha": (1.0, _POSITIVE)},
        ["f_id", "n", "N", "Omega_n", "omega_n", "cesaro_error"]),
    "euler-maclaurin-check": Experiment(
        _exp_euler_maclaurin, "normalized residual of the oscillatory-sum formula", "1.3",
        {"n": (1, _COUNT), "rmax": (2, _number(int, 0, ftlab.EULER_MACLAURIN_RMAX))},
        ["family", "param", "x", "r", "abs_theta", "variation"]),
    "indicator-zeros": Experiment(
        _exp_indicator_zeros, "zero curve of a convex-body indicator transform",
        "1.12", {"body": ("disc", _one_of(("disc", "ellipse", "square"))),
                 "radius": (1.0, _POSITIVE), "a": (1.0, _POSITIVE),
                 "b": (0.5, _POSITIVE), "p": (1, _INDEX), "phis": (64, _INDEX)},
        ["phi", "r_p", "d_phi", "product", "lower", "upper"],
        (lambda p: 2 * (p["p"] + 1) * np.pi / _narrowest_width(p)
         <= ftlab.INDICATOR_FT_UMAX,
         f"need 2(p+1)pi/width <= {ftlab.INDICATOR_FT_UMAX:g}, the transform's "
         "|u| cap, for width 2*radius, or 2*min(a, b) for an ellipse")),
    "comparison-ratio": Experiment(
        _exp_comparison_ratio, "worst error ratio of two summability methods",
        "2.14", {"a": ("fejer", _METHOD), "b": ("abel-poisson", _METHOD),
                 "nmax": (256, _INDEX), "m": (1024, _grid_size)},
        ["f_id", "n", "err_a", "err_b", "ratio", "band_constant"]),
}


def list_experiments():
    return [{"id": k, "description": e.description, "claims": e.claims,
             "params": {key: default for key, (default, _) in e.params.items()}}
            for k, e in sorted(REGISTRY.items())]


# ---------------------------------------------------------------------------
# config handling and the driver
# ---------------------------------------------------------------------------

def parse_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgument(f"malformed config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def build_config(experiment, tokens, file_params=None, seed=0):
    if experiment not in REGISTRY:
        raise NotFound(f"unknown experiment {experiment!r}")
    spec = REGISTRY[experiment]
    params = {key: default for key, (default, _) in spec.params.items()}
    merged = dict(file_params or {})
    for tok in tokens:
        if "=" not in tok:
            raise InvalidArgument(f"parameters must be key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        merged[key] = val
    for key, token in merged.items():
        if key not in spec.params:
            raise InvalidArgument(f"unknown key {key!r} for {experiment}")
        try:
            params[key] = spec.params[key][1](token)
        except (InvalidArgument, NotFound) as e:
            raise InvalidArgument(f"{key}={token}: {e}") from None
    if spec.check and not spec.check[0](params):
        raise InvalidArgument(spec.check[1])
    return {"experiment": experiment, "params": params, "seed": int(seed)}


def content_hash(config):
    canon = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run(config):
    """Execute one experiment; returns the run report with rows attached."""
    spec = REGISTRY[config["experiment"]]
    t0 = time.perf_counter()
    rows, failures = spec.fn(config["params"], config["seed"])
    return {
        "experiment": config["experiment"],
        "config_hash": content_hash(config),
        "rows": rows,
        "columns": spec.columns,
        "failures": failures,
        "wall_time": time.perf_counter() - t0,
    }


def write_csv(report, stream):
    stream.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
    cols = report["columns"]
    stream.write(",".join(cols) + "\n")
    for row in report["rows"]:
        stream.write(",".join(_fmt(row[c]) for c in cols) + "\n")
    for f in report["failures"]:
        stream.write(f"# failure: {f}\n")


def write_json(report, stream):
    payload = {
        "experiment": report["experiment"],
        "config_hash": report["config_hash"],
        "failures": report["failures"],
        "rows": [{c: row[c] for c in report["columns"]}
                 for row in report["rows"]],
    }
    json.dump(payload, stream, indent=1, default=_fmt)
    stream.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="xlab", add_help=True,
        description="numerical experiments over the summability laboratory")
    parser.add_argument("experiment", nargs="?",
                        help="experiment id, or 'list' to enumerate")
    parser.add_argument("params", nargs="*", help="key=value parameters")
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0

    if args.experiment in (None, "list"):
        for entry in list_experiments():
            print(f"{entry['id']:24s} {entry['claims']:12s} {entry['description']}")
            print(" " * 24, *(f"{k}={v}" for k, v in entry["params"].items()))
        return 0

    try:
        file_params = parse_config_file(args.config) if args.config else None
        config = build_config(args.experiment, args.params,
                              file_params, args.seed)
    except (NotFound, InvalidArgument) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR

    report = run(config)

    writer = write_csv if args.format == "csv" else write_json
    if args.out:
        with open(args.out, "w") as fh:
            writer(report, fh)
    else:
        writer(report, sys.stdout)
    print(f"# {report['experiment']} hash={report['config_hash']} "
          f"rows={len(report['rows'])} failures={len(report['failures'])} "
          f"time={report['wall_time']:.2f}s", file=sys.stderr)
    return NUMERIC_ERROR if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: deterministic experiment runs with CSV/JSON output.

Usage:  xlab <experiment-id> key=value ... [--out PATH] [--format csv|json]
        [--seed K] [--config FILE]

Parameters are plain key=value tokens; a config file may supply defaults
(one `key = value` per line, '#' comments); each token goes through the
parser its experiment declares for the key before any work starts.  Reruns
with identical config and seed produce byte-identical output up to the
timestamp header line; XLAB_THREADS (capped at the CPU count) sets the
size of lebesgue-table's worker pool, which deals the table's engine stacks
round-robin into one engine call per worker.

Start-up loads xlab.errors, xlab.trig and xlab.lebesgue; corpus, ftlab,
posdef_splines, seqspaces, smoothness and walsh load on their first
attribute access, so a run loads only the modules its experiment reads.
"""

import argparse
import collections
import hashlib
import importlib.util
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import lebesgue, trig
from .errors import ConvergenceFailure, InvalidArgument, NotFound


def _lazy(name):
    """The submodule xlab.<name>, executed on its first attribute access
    (importlib.util.LazyLoader); it is put in sys.modules and bound on the
    package as an import would, so every importer shares the one module.
    Before Python 3.12 the first access takes no lock: lebesgue-table's
    pool threads run only lebesgue and trig, which load eagerly."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


corpus, ftlab, posdef_splines, seqspaces, smoothness, walsh = map(_lazy, (
    "corpus", "ftlab", "posdef_splines", "seqspaces", "smoothness", "walsh"))

USAGE_ERROR = 2
NUMERIC_ERROR = 1
# the budgets of every experiment's estimated cost: 1 GB and ten minutes
BUDGET_BYTES, BUDGET_SECONDS = 10 ** 9, 600


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _pool_size():
    try:
        requested = int(os.environ.get("XLAB_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# experiment implementations: params dict + seed -> (rows, failures)
# ---------------------------------------------------------------------------

def _exp_lebesgue_table(p, seed):
    method = trig.get_method(p["method"])
    ns = range(p["nmin"], p["nmax"] + 1)
    # the table's engine stacks dealt round-robin, one engine call per unit
    # of the pool: one call for the whole table in one thread
    chunks = lebesgue.stacks([lebesgue.grid_size(b) for b in method.band(ns).tolist()])
    workers = _pool_size()
    units = [[ns[i] for chunk in chunks[w::workers] for i in chunk]
             for w in range(min(workers, len(chunks)))]

    def table(unit):
        return lebesgue.lebesgue_constant(method, unit, p["tol"])

    if workers == 1:
        samples = list(map(table, units))
    else:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(table, units))
    by_n = dict(zip(itertools.chain(*units), itertools.chain(*samples)))
    rows, failures = [], []
    for n in ns:
        s = by_n[n]
        if isinstance(s, ConvergenceFailure):
            rows.append({"method": method.name, "n": n,
                         "value": float(s.best_estimate or math.nan),
                         "quad_error": float(s.error_estimate or math.nan)})
            failures.append(f"n={n}: {s}")
        else:
            rows.append({"method": method.name, "n": n, "value": s.value,
                         "quad_error": s.quad_error})
    return rows, failures


def _exp_kolmogorov_fit(p, seed):
    ns = lebesgue.geometric_grid(p["nmin"], p["nmax"])
    vals, failures = [], []
    for n, v in zip(ns, lebesgue.kolmogorov_deviation(p["r"], ns)):
        if isinstance(v, ConvergenceFailure):
            failures.append(f"n={n}: {v}")
            v = v.best_estimate
        vals.append(v)
    scaled = [v * n ** p["r"] for v, n in zip(vals, ns)]
    c, d, resid = lebesgue.fit_log_model(ns, scaled)
    rows = [{"r": p["r"], "n": n, "value": v, "slope": c, "intercept": d,
             "fit_residual": resid} for n, v in zip(ns, vals)]
    return rows, failures


def _exp_hyperbolic_fit(p, seed):
    ns = lebesgue.geometric_grid(p["nmin"], p["nmax"])
    (_, slope, resid), ns, vals = lebesgue.hyperbolic_exponent(p["alpha"], ns)
    rows = [{"alpha": p["alpha"], "n": n, "value": v,
             "slope": slope, "fit_residual": resid}
            for n, v in zip(ns, vals)]
    return rows, []


def _exp_duality_fuzz(p, seed):
    rows, failures = [], []
    entries = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for length in range(1, p["maxlen"] + 1):
        worst_a = worst_c = 0.0
        count = entries.size ** length
        # row k spells k in base 5, last entry fastest, as itertools.product
        place = entries.size ** np.arange(length - 1, -1, -1)
        for start in range(0, count, seqspaces.FUZZ_CHUNK):
            k = np.arange(start, min(count, start + seqspaces.FUZZ_CHUNK))
            beta = entries[k[:, None] // place % entries.size]
            ra = seqspaces.duality_identity_astar(beta)
            rc = seqspaces.duality_identity_cesaro(beta)
            worst_a = max(worst_a, float(np.max(np.abs(ra["lhs"] - ra["rhs"]))))
            worst_c = max(worst_c, float(np.max(np.abs(rc["lhs"] - rc["rhs"]))))
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
    rows, failures = [], []
    for name in names:
        f = corpus.sampled(name, p["m"])
        # a difference of order r grows like 2^r |f|: past r of about 1000 it
        # overflows, and the row is recorded as a failure
        with np.errstate(over="ignore", invalid="ignore"):
            omega = smoothness.modulus(f, p["r"], hs)
            omega_tilde = smoothness.linearized_modulus(f, p["r"], hs)
        for h, w, wt in zip(hs, omega, omega_tilde):
            rows.append({"f_id": name, "r": p["r"], "h": h, "omega": float(w),
                         "omega_tilde": float(wt)})
            if not (math.isfinite(w) and math.isfinite(wt)):
                failures.append(f"{name} h={h:g}: omega={w:g}, omega_tilde={wt:g} "
                                f"not finite at r={p['r']}")
    return rows, failures


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
        def draw():
            k = int(rng.integers(3, 13))
            return rng.uniform(-3, 3, (k, dim)) * 10 ** rng.uniform(-1.5, 0)
        return posdef_splines.gram_search(draw, fn, trials)[0]

    gauss = search_min(lambda d: np.exp(-(d * d).sum(axis=-1)), 2, p["trials"])
    rows.append({"profile": "gaussian", "claim": "positive definite",
                 "evidence": "search", "value": gauss,
                 "ok": gauss >= -1e-8 * 12})
    for name, prof in [("hat", posdef_splines.RadialProfile(poly=np.array([1.0, -1.0]))),
                       ("exp", posdef_splines.RadialProfile(fn=lambda t: np.exp(-t)))]:
        ok = posdef_splines.polya_test(prof, 1)
        rows.append({"profile": name, "claim": "positive definite",
                     "evidence": "polya", "value": 1.0 if ok else 0.0, "ok": ok})
        ref = search_min(lambda d: prof(np.linalg.norm(d, axis=-1)), 1,
                         p["trials"] // 4)
        rows.append({"profile": name, "claim": "no Gram violation",
                     "evidence": "search", "value": ref, "ok": ref >= -1e-8 * 12})
    for n in (2, 3):
        prof = posdef_splines.a_spline(n)
        r = posdef_splines.radial_ft_positivity(prof, 200.0, 0.05)
        rows.append({"profile": prof.label, "claim": "transform positive",
                     "evidence": "transform", "value": r["min_value"],
                     "ok": r["min_value"] > 0})
    stretched = lambda d: np.exp(-np.abs(d[..., 0]) ** 2.5)
    viol = search_min(stretched, 1, p["trials"])
    rows.append({"profile": "exp(-|t|^2.5)", "claim": "violation exists",
                 "evidence": "search", "value": viol, "ok": viol < -1e-6})
    failures = [] if all(r["ok"] for r in rows) else ["evidence check failed"]
    return rows, failures


def _exp_aspline(p, seed):
    prof = posdef_splines.a_spline(p["n"])
    ft = posdef_splines.radial_ft_positivity(prof, 200.0, 0.01)
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
        sig = walsh.DyadicSignal(values)
        caps = [1 << (n + 1) for n in range(p["bits"] - 1)]
        for n, (cap, mean) in enumerate(zip(caps, walsh.cesaro_means(sig, caps, p["alpha"]))):
            err = float(np.max(np.abs(sig.values - mean)))
            rows.append({"f_id": name, "n": n, "N": cap,
                         "Omega_n": walsh.averaged_block_modulus(sig, n),
                         "omega_n": walsh.dyadic_shift_modulus(sig, n),
                         "cesaro_error": err})
    return rows, []


def _exp_euler_maclaurin(p, seed):
    rows, failures = [], []
    families = [("exp", a) for a in np.linspace(0.2, 2.0, 5)] \
        + [("pow", b) for b in np.linspace(1.5, 4.0, 5)]
    for fam, par in families:
        fn = ftlab.exponential_decay(par) if fam == "exp" \
            else ftlab.inverse_power(par)
        for ax in (np.pi / 2, 1.0, 3.0):
            integral = fn.integral(p["n"], ax)
            for x in (ax, -ax):
                series = ftlab.oscillatory_sum(fn, p["n"], x, p["rmax"])
                for r in range(p["rmax"] + 1):
                    try:
                        res = ftlab.euler_maclaurin_sum(fn, p["n"], r, x, integral, series)
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
    return ftlab.ConvexBody2D.square(p["radius"])


def _extent(p):
    """The body's narrowest width and its area, the transform at u = 0,
    which bounds |transform|."""
    if p["body"] == "ellipse":
        return 2 * min(p["a"], p["b"]), np.pi * p["a"] * p["b"]
    return 2 * p["radius"], (np.pi if p["body"] == "disc" else 4.0) * p["radius"] * p["radius"]


def _exp_indicator_zeros(p, seed):
    body = _body_from_params(p)
    phis = [np.pi * i / p["phis"] for i in range(p["phis"])]
    rows, failures = [], []
    for phi, r in zip(phis, ftlab.zero_curve(body, p["p"], phis)):
        if isinstance(r, NotFound):
            failures.append(f"phi={phi:g}: {r}")
            r = math.nan
        d = body.width(phi)
        rows.append({"phi": phi, "r_p": r, "d_phi": d, "product": d * r,
                     "lower": 2 * p["p"] * np.pi, "upper": 2 * (p["p"] + 1) * np.pi})
    return rows, failures


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


def _with_weights(need, names, n):
    """The estimate `need`; where it is within the budgets, the weights of
    each named method at n are formed first, so that a rule that overflows
    is refused before any work (weights raise InvalidArgument unless finite).
    The row at the largest n is enough: Cesaro's A_n^alpha, alpha > 0,
    increases in n."""
    if need[0] <= BUDGET_BYTES and need[1] <= BUDGET_SECONDS:
        for name in names:
            trig.get_method(name).weights(n, kmax=0)
    return need


def _finite_multipliers(p):
    """Whether walsh-moduli's widest Cesaro mean, at N = 2^(bits-1), has
    finite multipliers; A_N^alpha, alpha > 0, increases in N, so then every
    narrower mean's are finite too."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(walsh.cesaro_multipliers(1 << (p["bits"] - 1),
                                                         p["alpha"])).all())


def _moduli_cost(p):
    denoms = [int(d) for d in p["hdenoms"].split(";")]
    need, seconds = smoothness.moduli_cost(p["m"], p["r"], p["m"] // (2 * min(denoms)),
                                           len(denoms))
    return need, seconds * (len(corpus.periodic_ids()) if p["f"] == "all" else 1)


def _grid_size(token):
    m = _number(int, trig.GRID_MIN)(token)
    if not trig._is_power_of_two(m):
        raise InvalidArgument("not a power of two")
    return m


_METHOD, _FLOAT = _one_of(trig.get_method), _number(float)
_COUNT, _INDEX = _number(int, 0), _number(int, 1)
_POSITIVE = _number(float, 0, strict=True)
# params: key -> (default, parser); check: (rule on two keys, failure message
# or a function that returns it); cost: (keys to name, params -> estimated
# (peak bytes, seconds)).  A bound from a lazily loaded module is read when a
# token is parsed or checked, not when the registry is built.
Experiment = collections.namedtuple(
    "Experiment", "fn description claims params columns check cost", defaults=(None, None))
# posdef-report and schoenberg trace up to 2.6 MB for 400..20000 trials
_GRAM_BYTES = 2 ** 22

REGISTRY = {
    "lebesgue-table": Experiment(
        _exp_lebesgue_table, "operator norms of a summability mean", "4",
        {"method": ("dirichlet", _METHOD), "nmin": (1, _COUNT),
         "nmax": (64, _COUNT), "tol": (1e-9, _POSITIVE)},
        ["method", "n", "value", "quad_error"],
        (lambda p: p["nmin"] <= p["nmax"], "need nmin <= nmax"),
        cost=(("nmax", "nmin", "method"), lambda p: _with_weights(lebesgue.table_cost(
            trig.get_method(p["method"]), p["nmin"], p["nmax"]), [p["method"]], p["nmax"]))),
    "kolmogorov-fit": Experiment(
        _exp_kolmogorov_fit, "bounded-derivative class deviation and log fit",
        "4.1", {"r": (1, _INDEX), "nmin": (64, _INDEX), "nmax": (1024, _INDEX)},
        ["r", "n", "value", "slope", "intercept", "fit_residual"],
        (lambda p: 2 * p["nmin"] <= p["nmax"]
         and p["r"] * math.log2(p["nmax"]) < 53,
         "need 2*nmin <= nmax and r*log2(nmax) < 53: a deviation of order "
         "nmax**-r below the unit roundoff cannot be certified"),
        cost=(("nmax", "nmin"), lambda p: lebesgue.kolmogorov_cost(p["nmin"], p["nmax"]))),
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
        ["length", "count", "max_gap_astar", "max_gap_cesaro"],
        cost=(("maxlen",), lambda p: (seqspaces.FUZZ_ENTRY_BYTES * seqspaces.FUZZ_CHUNK
                                      * p["maxlen"], seqspaces.fuzz_seconds(p["maxlen"])))),
    "moduli": Experiment(
        _exp_moduli, "moduli of smoothness and their integral average", "5.3",
        {"f": ("all", _one_of(lambda t: t == "all" or corpus.periodic(t))),
         "r": (1, _INDEX), "m": (1024, _grid_size),
         "hdenoms": ("16;8;4;2", _one_of(lambda t: [_INDEX(d) for d in t.split(";")]))},
        ["f_id", "r", "h", "omega", "omega_tilde"],
        (lambda p: all(2 * int(d) <= p["m"] for d in p["hdenoms"].split(";")),
         "need every hdenom <= m/2: a step pi/hdenom spans a grid cell 2pi/m"),
        cost=(("m", "hdenoms", "r", "f"), _moduli_cost)),
    "two-sided-report": Experiment(
        _exp_two_sided, "approximation error against the modulus, per corpus",
        "5.1, 5.2b", {"r": (1, _INDEX), "nmin": (16, _INDEX),
                      "nmax": (256, _INDEX), "m": (2048, _grid_size)},
        ["f_id", "r", "n", "approx_error", "modulus", "ratio"],
        (lambda p: p["r"] <= p["nmin"] <= p["nmax"] and trig.TWO_PI
         * lebesgue.geometric_grid(p["nmin"], p["nmax"])[-1] <= p["m"],
         "need r <= nmin <= nmax and 2pi*n <= m for the largest grid n: "
         "the step 1/n spans a grid cell 2pi/m"),
        cost=(("m", "r", "nmin", "nmax"), lambda p: smoothness.two_sided_cost(
            len(corpus.JACKSON), p["m"], p["r"],
            lebesgue.geometric_grid(p["nmin"], p["nmax"])))),
    "posdef-report": Experiment(
        _exp_posdef_report, "positive-definiteness evidence per profile",
        "7.1, 7.4, 7.6",  # four searches: trials, trials/4 twice, trials sets
        {"trials": (1000, _COUNT)}, ["profile", "claim", "evidence", "value", "ok"],
        cost=(("trials",), lambda p: (_GRAM_BYTES,
                                      2.5 * p["trials"] * posdef_splines.GRAM_TRIAL_S))),
    "aspline": Experiment(
        _exp_aspline, "maximal-smoothness two-piece spline coefficients", "7.6",
        {"n": (3, lambda t: _number(int, *posdef_splines.A_SPLINE_N_RANGE)(t))},
        ["n", "j", "coeff", "ft_min", "ft_argmin"]),
    "schoenberg": Experiment(
        _exp_schoenberg, "Gram search for exp(-||x||_p^alpha)", "7.14",
        {"m": (2, lambda t: _number(int, *posdef_splines.SCHOENBERG_DIMS)(t)),  # consecutive
         "p": ("3", _one_of(lambda t: t in ("inf", "oo")
                            or _number(float, 2, strict=True)(t))),
         "alpha": (1.0, _number(float, 0)),
         "trials": (10000, _COUNT)},
        ["m", "p", "alpha", "trials", "seed", "min_eig", "witness"],
        cost=(("trials",), lambda p: (_GRAM_BYTES, p["trials"] * posdef_splines.GRAM_TRIAL_S))),
    "walsh-regularity": Experiment(
        _exp_walsh_regularity, "kernel norms of shifted partial-sum averages",
        "8.2", {"alpha": (0.5, _FLOAT), "beta": (0.5, _FLOAT),
                "nu": (1.0, lambda t: _number(float, -walsh.SHIFT_MAX, walsh.SHIFT_MAX)(t)),
                # two octaves to compare; a 16-bit grid holds D_n to n = 2^16
                "nmax": (1024, lambda t: _number(int, 2, 1 << walsh.BITS_RANGE[1])(t))},
        ["alpha", "beta", "nu", "n", "lc"]),
    "walsh-moduli": Experiment(
        _exp_walsh_moduli, "dyadic moduli against Cesaro approximation", "8.5, 8.6",
        {"bits": (10, lambda t: _number(int, *walsh.BITS_RANGE)(t)), "alpha": (1.0, _POSITIVE)},
        ["f_id", "n", "N", "Omega_n", "omega_n", "cesaro_error"],
        (_finite_multipliers, "need finite Cesaro multipliers at the widest mean, "
         "N = 2^(bits-1): A_N^alpha overflows at a large alpha")),
    "euler-maclaurin-check": Experiment(
        _exp_euler_maclaurin, "normalized residual of the oscillatory-sum formula", "1.3",
        # the closed forms read n as a float, exact up to 2^53
        {"n": (1, _number(int, 0, 2 ** 53)),
         "rmax": (2, lambda t: _number(int, 0, ftlab.EULER_MACLAURIN_RMAX)(t))},
        ["family", "param", "x", "r", "abs_theta", "variation"]),
    "indicator-zeros": Experiment(
        _exp_indicator_zeros, "zero curve of a convex-body indicator transform",
        "1.12", {"body": ("disc", _one_of(("disc", "ellipse", "square"))),
                 "radius": (1.0, _POSITIVE), "a": (1.0, _POSITIVE),
                 "b": (0.5, _POSITIVE), "p": (1, _INDEX), "phis": (64, _INDEX)},
        ["phi", "r_p", "d_phi", "product", "lower", "upper"],
        (lambda p: 2 * (p["p"] + 1) * np.pi / _extent(p)[0] <= ftlab.INDICATOR_FT_UMAX
         and _extent(p)[1] <= 1e300,
         lambda: f"need 2(p+1)pi/width <= {ftlab.INDICATOR_FT_UMAX:g}, the transform's "
         "|u| cap, for width 2*radius, or 2*min(a, b) for an ellipse, and an area "
         "pi*radius^2, pi*a*b or 4*radius^2 <= 1e300, which bounds |transform|"),
        cost=(("phis",), lambda p: (
            ftlab.SPECIAL_IMPORT_BYTES + ftlab.ZERO_CURVE_BYTES * p["phis"],
            ftlab.ZERO_CURVE_RUN_S + ftlab.ZERO_CURVE_S * p["phis"]))),
    "comparison-ratio": Experiment(
        _exp_comparison_ratio, "worst error ratio of two summability methods",
        "2.14", {"a": ("fejer", _METHOD), "b": ("abel-poisson", _METHOD),
                 "nmax": (256, _INDEX), "m": (1024, _grid_size)},
        ["f_id", "n", "err_a", "err_b", "ratio", "band_constant"],
        cost=(("nmax", "m"), lambda p: _with_weights(trig.comparison_cost(
            len(corpus.COMPARE), p["nmax"], p["m"]), [p["a"], p["b"]], p["nmax"]))),
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
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidArgument(f"malformed config line: {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                out[key] = val
    except UnicodeDecodeError as e:
        raise InvalidArgument(f"config file {path} is not UTF-8 text: {e.reason}") from None
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
        message = spec.check[1]
        raise InvalidArgument(message() if callable(message) else message)
    if spec.cost:
        keys, estimate = spec.cost
        named = " ".join(f"{key}={params[key]}" for key in keys)
        try:
            need = [float(x) for x in estimate(params)]
        except InvalidArgument as e:
            raise InvalidArgument(f"{named}: {e}") from None
        except OverflowError:   # a huge integer key: past the float range
            need = [math.inf, math.inf]
        for amount, budget, scale, unit in zip(need, (BUDGET_BYTES, BUDGET_SECONDS),
                                               (1e9, 1), ("GB", "s")):
            if amount > budget:
                raise InvalidArgument(f"{named}: estimated {amount / scale:.3g} {unit}, "
                                      f"over the {budget / scale:g} {unit} budget")
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
        # open the output before the run, so a bad path costs no work
        out = open(args.out, "w") if args.out else sys.stdout
    except (NotFound, InvalidArgument, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR

    try:
        report = run(config)
        (write_csv if args.format == "csv" else write_json)(report, out)
        out.flush()
    except BrokenPipeError:
        # the reader left: send what Python flushes at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return NUMERIC_ERROR
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"# {report['experiment']} hash={report['config_hash']} "
          f"rows={len(report['rows'])} failures={len(report['failures'])} "
          f"time={report['wall_time']:.2f}s", file=sys.stderr)
    return NUMERIC_ERROR if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

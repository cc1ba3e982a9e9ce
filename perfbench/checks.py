"""Output checks against references independent of the code under test.

Each check returns (name, ok, detail).  The references are closed forms
(Fejer's formula for the Dirichlet constants, Bessel zeros from scipy,
the a-spline of order 2), identities between methods (Bernstein equals
Rogosinski), and the pinned criterion bands of the acceptance suite.
"""

import math

from scipy import special

FOUR_OVER_PI2 = 4.0 / math.pi ** 2
UNIT_ROUNDOFF = 2.0 ** -53
# criterion 03's band holds from about n = 240 on; below it the fitted
# slopes are still pre-asymptotic, so smoke-size fits are not checked
HYPERBOLIC_SLOPE_MIN_N = 240


def fejer_dirichlet(n):
    """(L_n, rounding bound) from Fejer's closed form
    L_n = 1/(2n+1) + (2/pi) sum_{k=1}^n tan(pi k/(2n+1))/k.

    The bound is first order in the unit roundoff u: the argument of each
    tan carries 4u relative error, amplified by the condition number
    2x/sin(2x) of tan, plus 2u for tan and the division; math.fsum and the
    final products add 4u of the value."""
    m = 2 * n + 1
    terms, bound = [], 0.0
    for k in range(1, n + 1):
        x = math.pi * k / m
        t = math.tan(x) / k
        terms.append(t)
        bound += abs(t) * (4.0 * UNIT_ROUNDOFF * 2.0 * x / math.sin(2.0 * x)
                           + 2.0 * UNIT_ROUNDOFF)
    value = 1.0 / m + (2.0 / math.pi) * math.fsum(terms)
    return value, (2.0 / math.pi) * bound + 4.0 * UNIT_ROUNDOFF * value


def _params(op):
    return dict(tok.split("=", 1) for tok in op["tokens"])


def _finite(*xs):
    return all(math.isfinite(float(x)) for x in xs)


def _by_experiment(results, experiment):
    return [(op, value) for op, value, _, error in results
            if error is None and op["kind"] == "cli"
            and op["experiment"] == experiment]


def _lebesgue_rows(results, method):
    return [row for op, rep in _by_experiment(results, "lebesgue-table")
            if _params(op)["method"] == method for row in rep["rows"]]


def check_dirichlet(results):
    out = []
    for row in _lebesgue_rows(results, "dirichlet"):
        ref, rounding = fejer_dirichlet(row["n"])
        gap = abs(row["value"] - ref)
        allowed = row["quad_error"] + rounding
        out.append((f"dirichlet n={row['n']} vs Fejer closed form",
                    gap <= allowed, f"gap {gap:.2e} <= {allowed:.2e}"))
    return out


def check_bernstein_rogosinski(results):
    rog = {row["n"]: row for row in _lebesgue_rows(results, "rogosinski")}
    out = []
    for row in _lebesgue_rows(results, "bernstein"):
        other = rog.get(row["n"])
        if other is None:
            continue
        gap = abs(row["value"] - other["value"])
        allowed = row["quad_error"] + other["quad_error"]
        out.append((f"bernstein n={row['n']} equals rogosinski",
                    gap <= allowed, f"gap {gap:.2e} <= {allowed:.2e}"))
    return out


def check_kolmogorov(results):
    out = []
    for op, rep in _by_experiment(results, "kolmogorov-fit"):
        rows = rep["rows"]
        vals = [r["value"] for r in rows]
        monotone = all(b < a for a, b in zip(vals, vals[1:]))
        out.append(("kolmogorov deviations decrease", monotone,
                    f"{len(vals)} values"))
        slope = rows[0]["slope"]
        out.append(("kolmogorov leading coefficient in criterion 02 band",
                    abs(slope - FOUR_OVER_PI2) <= 0.05 * FOUR_OVER_PI2,
                    f"{slope:.6f} vs {FOUR_OVER_PI2:.6f} +-5%"))
    return out


def check_hyperbolic(results):
    out = []
    for op, rep in _by_experiment(results, "hyperbolic-fit"):
        rows = rep["rows"]
        alpha = rows[0]["alpha"]
        vals = [r["value"] for r in rows]
        ok = _finite(*vals) and all(b > a > 0 for a, b in zip(vals, vals[1:]))
        out.append((f"hyperbolic alpha={alpha:g} norms finite and growing",
                    ok, f"{len(vals)} values"))
        if rows[0]["n"] >= HYPERBOLIC_SLOPE_MIN_N:
            slope, target = rows[0]["slope"], 1.0 / (2.0 + 2.0 * alpha)
            out.append((f"hyperbolic alpha={alpha:g} slope in criterion 03 "
                        "band", abs(slope - target) <= 0.08,
                        f"{slope:.4f} vs {target:.4f} +-0.08"))
    return out


def check_rhombic(results):
    out = []
    for op, value, _, error in results:
        if error is None and op.get("func") == "lebesgue.rhombic_lebesgue":
            ok = _finite(value.value, value.quad_error) and value.value > 0 \
                and value.quad_error >= 0
            out.append((f"rhombic {tuple(op['args'])} value and fine-coarse "
                        "estimate finite", ok,
                        f"{value.value:.6f} +- {value.quad_error:.1e}"))
    return out


def check_positive_means(results):
    """Fejer and (C,1) kernels are positive, so their norms equal 1;
    de la Vallee Poussin means are bounded by 3."""
    out = []
    for method in ("fejer", "cesaro(1)"):
        rows = _lebesgue_rows(results, method)
        if rows:
            worst = max(abs(r["value"] - 1.0) - r["quad_error"] for r in rows)
            out.append((f"{method} norms equal 1", worst <= 1e-12,
                        f"excess {worst:.1e} over {len(rows)} n"))
    rows = _lebesgue_rows(results, "vallee-poussin")
    if rows:
        top = max(r["value"] for r in rows)
        out.append(("vallee-poussin norms <= 3", top <= 3.0, f"max {top:.6f}"))
    return out


def check_small(results):
    out = []
    for op, rep in _by_experiment(results, "duality-fuzz"):
        gap = max(max(r["max_gap_astar"], r["max_gap_cesaro"])
                  for r in rep["rows"])
        counts = all(r["count"] == 5 ** r["length"] for r in rep["rows"])
        out.append(("duality gaps <= 1e-9, exhaustive", gap <= 1e-9 and counts,
                    f"max gap {gap:.1e}"))
    for op, rep in _by_experiment(results, "indicator-zeros"):
        p = _params(op)
        if p["body"] == "disc":
            ref = special.jn_zeros(1, int(p["p"]))[-1] / float(p["radius"])
            err = max(abs(r["r_p"] - ref) for r in rep["rows"])
            out.append((f"disc zeros p={p['p']} match j_1 zeros", err <= 1e-6,
                        f"max error {err:.1e}"))
        else:
            ok = all(r["lower"] < r["product"] < r["upper"]
                     for r in rep["rows"])
            out.append(("ellipse width products inside (2p pi, 2(p+1) pi)",
                        ok, f"{len(rep['rows'])} rays"))
    for op, rep in _by_experiment(results, "aspline"):
        rows = rep["rows"]
        ft_min = rows[0]["ft_min"]
        out.append(("a-spline transform minimum > 0", ft_min > 0,
                    f"{ft_min:.2e}"))
        if _params(op)["n"] == "2":
            ref = (1.0, 0.0, -6.0, 8.0, -3.0)
            err = max(abs(r["coeff"] - c) for r, c in zip(rows, ref))
            out.append(("a-spline n=2 equals 1-6t^2+8t^3-3t^4",
                        len(rows) == 5 and err <= 1e-10, f"error {err:.1e}"))
    for op, rep in _by_experiment(results, "euler-maclaurin-check"):
        worst = max(r["abs_theta"] for r in rep["rows"])
        out.append(("euler-maclaurin |theta| <= 3", worst <= 3.0 + 1e-9,
                    f"max {worst:.4f} over {len(rep['rows'])} cases"))
    for op, rep in _by_experiment(results, "schoenberg"):
        # the witness column holds the best point set of every search
        row = rep["rows"][0]
        if _params(op)["m"] == "2":
            out.append(("schoenberg (m=2,p=3) clean",
                        row["min_eig"] >= -1e-8 * 12,
                        f"min eig {row['min_eig']:.2e}"))
        else:
            out.append(("schoenberg (m=3,p=inf) has a witness",
                        row["min_eig"] < -1e-6 and row["witness"] != "",
                        f"min eig {row['min_eig']:.2e}"))
    for op, rep in _by_experiment(results, "walsh-regularity"):
        top = max(r["lc"] for r in rep["rows"])
        out.append(("walsh (1/2,1/2,1) means bounded by 1", top <= 1 + 1e-9,
                    f"sup {top:.12f}"))
    for op, rep in _by_experiment(results, "comparison-ratio"):
        band = rep["rows"][0]["band_constant"]
        out.append(("fejer/abel-poisson band constant <= 10", band <= 10.0,
                    f"{band:.3f}"))
    for op, rep in _by_experiment(results, "posdef-report"):
        out.append(("posdef evidence rows all ok",
                    all(r["ok"] for r in rep["rows"]),
                    f"{len(rep['rows'])} rows"))
    for op, rep in _by_experiment(results, "moduli"):
        ok = all(r["omega_tilde"] <= r["omega"] + 1e-12 for r in rep["rows"])
        out.append(("averaged modulus <= plain modulus", ok,
                    f"{len(rep['rows'])} rows"))
    for op, value, _, error in results:
        if error is None and op.get("func") == \
                "seqspaces.empirical_pairing_constants":
            ok = all(math.isfinite(v) and v > 0 for v in value.values())
            out.append(("pairing constants finite and positive", ok,
                        ", ".join(f"{k}={v:.3f}" for k, v in value.items())))
    return out


CHECKS = {
    "lebesgue-large-n": (check_dirichlet, check_bernstein_rogosinski,
                         check_kolmogorov),
    "hyperbolic-2d": (check_hyperbolic, check_rhombic),
    "small-kernels": (check_positive_means, check_dirichlet, check_small),
}


def run_checks(workload, results):
    """All checks of a workload over the results of one pass."""
    return [(name, bool(ok), detail) for check in CHECKS[workload]
            for name, ok, detail in check(results)]

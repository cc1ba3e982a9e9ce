"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred."""

import itertools
import math
import time

import numpy as np
from scipy import special

from xlab import corpus, ftlab, lebesgue as lb, posdef_splines as ps
from xlab import seqspaces as sq, smoothness as sm, trig, walsh as w

# the unit tests of the K-functional and the spline families; pytest puts
# tests/ on sys.path
import test_posdef_splines as unit_ps
import test_smoothness as unit_sm

FOUR_OVER_PI2 = 4.0 / np.pi ** 2


def _report(idx, ok, detail):
    print(f"[criterion {idx:2d}] {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)
    assert ok, detail


def test_criterion_01_classical_lebesgue_constants():
    t0 = time.perf_counter()
    fit, ns, vals = lb.classical_lebesgue_fit(64, 1024)
    elapsed = time.perf_counter() - t0
    slope = fit.params[0]
    resid = [v - FOUR_OVER_PI2 * math.log(n) for n, v in zip(ns, vals)]
    gap = abs(resid[-1] - resid[-2])          # n = 1024 vs 512
    ok = (abs(slope - FOUR_OVER_PI2) <= 0.05 * FOUR_OVER_PI2
          and gap < 0.01 and elapsed < 60.0)
    _report(1, ok, f"slope={slope:.6f} (target {FOUR_OVER_PI2:.6f} +-5%), "
            f"|R_1024-R_512|={gap:.2e} < 0.01, time={elapsed:.1f}s < 60s")


def test_criterion_02_kolmogorov_deviation():
    t0 = time.perf_counter()
    ns = lb.geometric_grid(64, 1024)
    vals = [lb.kolmogorov_deviation(1, n) for n in ns]
    c, d, _ = lb.fit_log_model(ns, [v * n for v, n in zip(vals, ns)])
    elapsed = time.perf_counter() - t0
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    ok = (abs(c - FOUR_OVER_PI2) <= 0.05 * FOUR_OVER_PI2
          and monotone and elapsed < 120.0)
    _report(2, ok, f"leading coeff={c:.6f} (target {FOUR_OVER_PI2:.6f} +-5%), "
            f"monotone={monotone}, time={elapsed:.1f}s < 120s")


def test_criterion_03_hyperbolic_exponent():
    details = []
    ok = True
    for alpha in (1.0, 2.0):
        fit, _, _ = lb.hyperbolic_exponent(alpha, [256, 512, 1024, 2048, 4096])
        slope = fit.params[1]
        target = 1.0 / (2.0 + 2.0 * alpha)
        ok &= abs(slope - target) <= 0.08
        details.append(f"alpha={alpha:g}: slope={slope:.4f} "
                       f"(target {target:.4f} +-0.08)")
    _report(3, ok, "; ".join(details))


def test_criterion_04_duality_identities():
    t0 = time.perf_counter()
    worst_a = worst_c = 0.0
    for length in range(1, 7):
        for tup in itertools.product((-2.0, -1.0, 0.0, 1.0, 2.0),
                                     repeat=length):
            beta = np.array(tup)
            ra = sq.duality_identity_astar(beta)
            rc = sq.duality_identity_cesaro(beta)
            worst_a = max(worst_a, abs(ra["lhs"] - ra["rhs"]))
            worst_c = max(worst_c, abs(rc["lhs"] - rc["rhs"]))
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-9 and worst_c <= 1e-9 and elapsed < 30.0
    _report(4, ok, f"max gaps {worst_a:.2e}/{worst_c:.2e} <= 1e-9 over all "
            f"19530 sequences, time={elapsed:.1f}s < 30s")


def test_criterion_05_pairing_constants():
    details = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        base = sq.empirical_pairing_constants(p, 10000, seed=0)
        double = sq.empirical_pairing_constants(p, 20000, seed=0)
        for key in ("gamma1", "gamma2", "gamma3"):
            finite = math.isfinite(base[key]) and base[key] > 0
            drift = abs(double[key] - base[key]) / base[key]
            ok &= finite and drift <= 0.2
        details.append(f"p={p:g}: g1={base['gamma1']:.3f} "
                       f"g2={base['gamma2']:.3f} g3={base['gamma3']:.3f}")
    _report(5, ok, "; ".join(details) + " (all finite, stable +-20%)")


def test_criterion_06_sharp_constant():
    a = sm.bernstein_mean_sharp_constant()
    a_ref = 1.0 / (2.0 + 4.0 / np.pi * special.sici(np.pi)[0])
    close = abs(a - a_ref) <= 1e-6
    worst_slack = math.inf
    for name, f in corpus.continuity_corpus(2048):
        for n in (8, 16, 32, 64, 128):
            err = sm.bernstein_mean_error(f, n)
            wmod = sm.modulus(f, sm.ModulusSpec(1, np.pi / n))
            worst_slack = min(worst_slack, err - a * wmod)
    ok = close and worst_slack >= -1e-9
    _report(6, ok, f"A={a:.9f} vs independent {a_ref:.9f} (<=1e-6), "
            f"min corpus slack={worst_slack:.2e} >= -1e-9")


def test_criterion_07_moduli():
    dominated = True
    doubling = True
    M = 1024
    step = 2 * np.pi / M
    for name, f in corpus.continuity_corpus(M):
        for r in (1, 2):
            for h in (np.pi / 8, np.pi / 4, np.pi / 2):
                spec = sm.ModulusSpec(r, h)
                wm = sm.modulus(f, spec)
                dominated &= sm.linearized_modulus(f, spec) <= wm + 1e-12
                doubling &= sm.modulus(f, sm.ModulusSpec(r, 2 * h)) \
                    <= 2 ** r * wm + 1e-12
        doubling &= sm.modulus(f, sm.ModulusSpec(3, np.pi / 2)) \
            <= 8 * sm.modulus(f, sm.ModulusSpec(3, np.pi / 4)) + 1e-12
    implication = True
    hs = [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2]
    for name in ("sin", "abs_sin", "lacunary", "exp_cos", "zigzag"):
        f = corpus.sampled(name, M)
        for r in (1, 2):
            deltas = np.arange(1, int(hs[-1] / step) + 1) * step
            scale = max(sm.modulus(f, sm.ModulusSpec(r, d)) / d ** r
                        for d in deltas)
            if scale == 0:
                continue
            g = trig.SampledFunction(f.values / scale)
            for h in hs:
                wt = sm.linearized_modulus(g, sm.ModulusSpec(r, h))
                implication &= wt <= h ** r / (r + 1) * (1 + 1e-6)
    ok = dominated and doubling and implication
    _report(7, ok, f"averaged<=plain: {dominated}, doubling<=2^r: {doubling}, "
            f"averaged bound implication: {implication}")


def test_criterion_08_a_spline():
    closed_form = np.allclose(ps.a_spline(2).poly, [1, 0, -6, 8, -3],
                              atol=1e-10)
    shapes = contacts = positives = True
    details = []
    for n in range(2, 7):
        shape = ps.a_spline_shape(n)
        shapes &= shape["positive"] and shape["decreasing"] \
            and shape["inflections"] == 1
        contacts &= max(ps.a_spline_contact_residuals(n)) <= 1e-10
        ft_min = ps.radial_ft_positivity(ps.a_spline(n), 1, 200.0, 0.01)
        positives &= ft_min["min_value"] > 0.0
        details.append(f"n={n}: ftmin={ft_min['min_value']:.1e}")
    ok = closed_form and shapes and contacts and positives
    _report(8, ok, f"closed form n=2: {closed_form}, bell shapes: {shapes}, "
            f"contact residuals<=1e-10: {contacts}, transforms positive: "
            + " ".join(details))


def test_criterion_09_positive_definiteness():
    rng = np.random.default_rng(0)
    gauss = lambda d: math.exp(-float(np.dot(d, d)))
    hat = lambda d: float(np.clip(1 - abs(float(d[0])), 0, None))
    certified_ok = True
    for fn, dim in ((gauss, 2), (hat, 1)):
        for _ in range(1000):
            k = int(rng.integers(2, 13))
            pts = rng.uniform(-3, 3, (k, dim))
            eig = ps.gram_min_eig(pts, fn)
            certified_ok &= eig >= -1e-8 * k
    stretched = lambda d: math.exp(-abs(float(d[0])) ** 2.5)
    viol = math.inf
    for _ in range(4000):
        pts = rng.uniform(-3, 3, (int(rng.integers(3, 13)), 1))
        viol = min(viol, ps.gram_min_eig(pts, stretched))
    pos_case = ps.schoenberg_check(2, 3.0, 1.0, trials=10000, seed=1)
    neg_case = ps.schoenberg_check(3, math.inf, 1.0, trials=10000, seed=1)
    ok = (certified_ok and viol < -1e-6
          and pos_case["min_eig_found"] >= -1e-8 * 12
          and neg_case["min_eig_found"] < -1e-6)
    _report(9, ok, f"certified profiles clean over 1e3 sets: {certified_ok}, "
            f"power-2.5 witness {viol:.2e} < -1e-6, "
            f"(m=2,p=3,a=1) min={pos_case['min_eig_found']:.2e} clean, "
            f"(m=3,p=inf,a=1) witness {neg_case['min_eig_found']:.2e}")


def test_criterion_10_euler_maclaurin():
    worst = 0.0
    cases = 0
    for fam, par in ([("exp", a) for a in np.linspace(0.2, 2.0, 5)]
                     + [("pow", b) for b in np.linspace(1.5, 4.0, 5)]):
        fn = ftlab.exponential_decay(par) if fam == "exp" \
            else ftlab.inverse_power(par)
        for x in (np.pi / 2, -np.pi / 2, 1.0, -1.0, 3.0, -3.0):
            for r in (0, 1, 2):
                res = ftlab.euler_maclaurin_sum(fn, 1, r, x)
                worst = max(worst, abs(res["theta"]))
                cases += 1
    decreasing = True
    for a in np.linspace(0.2, 2.0, 5):
        fn = ftlab.exponential_decay(a)
        errs = [abs(ftlab.euler_maclaurin_sum(fn, 1, r, 1.0)["lhs"]
                    - ftlab.euler_maclaurin_sum(fn, 1, r, 1.0)["rhs_main"])
                for r in (0, 1, 2)]
        decreasing &= errs[0] > errs[1] > errs[2]
    ok = worst <= 3.0 + 1e-9 and decreasing
    _report(10, ok, f"max |theta|={worst:.4f} <= 3 over {cases} cases, "
            f"corrections strictly decrease the defect: {decreasing}")


def test_criterion_11_walsh():
    bits = 6
    m = 1 << bits
    rows = np.stack([w.walsh_row(n, bits) for n in range(m)])
    j = np.arange(m)
    chars = all(np.all(rows[n, j ^ l] == rows[n, j] * rows[n, l])
                for n in range(m) for l in range(m))
    rng = np.random.default_rng(2)
    f = w.DyadicSignal(rng.standard_normal(1 << 12), 12)
    round_trip = float(np.max(np.abs(w.ifwt(w.fwt(f), 12).values - f.values)))
    reg = w.br_means_regularity(0.5, 0.5, 1.0, 1024)
    balanced = reg["bounded"] and float(np.max(reg["lc_values"])) <= 1 + 1e-9
    half = w.br_means_regularity(0.5, 0.5, 0.5, 1024)
    lc = half["lc_values"]
    octmax = [float(np.max(lc[(1 << k) - 1:(1 << (k + 1)) - 1]))
              for k in range(4, 10)]
    growing = all(b > a for a, b in zip(octmax, octmax[1:]))
    total_growth = octmax[-1] / octmax[0]
    bound_ok = True
    for _ in range(1000):
        g = rng.uniform(0, 1, int(rng.integers(2, 64)))
        lam = np.cumsum(g[::-1])[::-1]
        bound_ok &= w.sidon_telyakovskii_bound(lam)["ok"]
    ok = (chars and round_trip <= 1e-12 and balanced and growing
          and total_growth >= 1.5 and bound_ok)
    _report(11, ok, f"characters exhaustive B=6: {chars}, round trip "
            f"{round_trip:.1e} <= 1e-12, (1/2,1/2,1) sup=1 bounded: "
            f"{balanced}, (1/2,1/2,1/2) octave maxima growing x"
            f"{total_growth:.2f} total (>=1.5), coefficient bound on 1e3 "
            f"sequences: {bound_ok}")


def test_criterion_12_indicator_zeros():
    disc = ftlab.ConvexBody2D.disc(1.0)
    disc_ok = True
    for p in range(1, 6):
        jp = special.jn_zeros(1, p)[-1]
        r = ftlab.zero_curve(disc, p, 0.0)
        disc_ok &= abs(r - jp) <= 1e-6 and p * np.pi < jp < (p + 1) * np.pi
    ell = ftlab.ConvexBody2D.ellipse(1.0, 0.5)
    ell_ok = True
    for i in range(64):
        phi = np.pi * i / 64
        product = ell.width(phi) * ftlab.zero_curve(ell, 1, phi)
        ell_ok &= 2 * np.pi < product < 4 * np.pi
    ok = disc_ok and ell_ok
    _report(12, ok, f"disc zeros match j_(1,p) to 1e-6 with bracket, p<=5: "
            f"{disc_ok}; 2:1 ellipse products in (2pi,4pi) on 64 rays: {ell_ok}")


def test_criterion_13_method_equivalence():
    fset = [f for _, f in corpus.comparison_corpus(1024)]
    worst, _ = trig.comparison_ratio(trig.fejer(), trig.abel_poisson(), fset,
                                     256, m=1024)
    ok = worst <= 10.0
    _report(13, ok, f"recorded band constant C={worst:.3f} <= 10 over the "
            f"corpus, n <= 256")


def _report_unit_checks(idx, checks):
    """Run every test method of each unit-test class and report its passes
    next to the library names the class checks."""
    parts, failed = [], []
    for cls, checked in checks.items():
        names = sorted(n for n in vars(cls) if n.startswith("test_"))
        bad = []
        for name in names:
            try:
                getattr(cls(), name)()
            except AssertionError:
                bad.append(f"{cls.__name__}.{name}")
        parts.append(f"{', '.join(c.__name__ for c in checked)}: "
                     f"{len(names) - len(bad)}/{len(names)} of {cls.__name__}")
        failed += bad
    _report(idx, not failed, "; ".join(parts)
            + (f"; failed: {', '.join(failed)}" if failed else ""))


def test_criterion_14_k_functional():
    # the realization never exceeds its competitors g = 0 and g = the
    # interpolant, vanishes on constants, and stays within a band of the
    # averaged modulus
    _report_unit_checks(14, {unit_sm.TestKFunctional:
                             (sm.k_functional, sm.KFunctionalSpec)})


def test_criterion_15_splines_and_shifts():
    # B-splines: indicator, hat peak, unit mass, nonnegative transform of the
    # odd degrees; e-splines: the hat at n = 1, support, finite differences;
    # e~-splines: support, the indicator's self-convolution, nonnegative
    # transform; shift approximation: exact on its span and on zero, at least
    # second order for a Gaussian
    _report_unit_checks(15, {unit_ps.TestBSpline: (ps.b_spline,),
                             unit_ps.TestESpline: (ps.e_spline,),
                             unit_ps.TestTildeESpline: (ps.tilde_e_spline,),
                             unit_ps.TestShiftApprox: (ps.shift_approx,)})

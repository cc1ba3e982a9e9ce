import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlab import lebesgue as lb
from xlab import trig
from xlab.errors import ConvergenceFailure, InvalidArgument
from xlab.lebesgue import _full_series_poly, _polyval
from xlab.trig import (abel_poisson, bernstein, bochner_riesz, cesaro,
                       dirichlet, fejer, riesz, rogosinski, vallee_poussin)

UNIT_ROUNDOFF = 2.0 ** -53


def method_catalog():
    """Representatives of every supported summability family."""
    return [
        dirichlet(),
        fejer(),
        cesaro(0.5),
        abel_poisson(0.5),
        riesz(2.0, 1.0),
        bochner_riesz(1.0),
        rogosinski(),
        bernstein(),
        vallee_poussin(),
    ]


def tail_kernel(r, n, t):
    """sum_{k>n} cos(kt - r*pi/2)/k^r for t in (0, 2pi), in closed form."""
    t = np.asarray(t, dtype=float)
    full = _polyval(_full_series_poly(r), t)
    if n == 0:
        return full
    k = np.arange(1, n + 1)
    partial = np.cos(np.outer(t, k) - r * np.pi / 2) @ (1.0 / k ** float(r))
    return full - partial


def tail_kernel_direct(r, n, t, terms=200000):
    """Direct accelerated summation of the tail (test oracle): plain sum of
    `terms` terms followed by one arithmetic-mean (Abel-type) stabilization
    of the sequence of partial sums."""
    t = float(t)
    k = np.arange(n + 1, n + 1 + terms)
    parts = np.cumsum(np.cos(k * t - r * np.pi / 2) / k ** r)
    window = parts[-terms // 4:]
    return float(np.mean(window))


def fejer_dirichlet(n):
    """(L_n, rounding bound) from Fejer's closed form
    L_n = 1/(2n+1) + (2/pi) sum_{k=1}^n tan(pi k/(2n+1))/k.

    First order in the unit roundoff u: x = pi*k/(2n+1) is formed with
    relative error 3u (pi, the product, the quotient), which tan amplifies
    by its condition number 2x/sin(2x); tan itself (1 ulp, 2u) and the
    division by k add 3u.  fsum is correctly rounded (u), 2/pi carries 2u
    and the product and the two additions u each: 4u more of the sum, and
    2u of the whole value cover the 1/(2n+1) term and the last addition."""
    m = 2 * n + 1
    terms, bound = [], 0.0
    for k in range(1, n + 1):
        x = math.pi * k / m
        t = math.tan(x) / k
        terms.append(t)
        bound += abs(t) * (3.0 * UNIT_ROUNDOFF * 2.0 * x / math.sin(2.0 * x)
                           + 7.0 * UNIT_ROUNDOFF)
    value = 1.0 / m + (2.0 / math.pi) * math.fsum(terms)
    return value, (2.0 / math.pi) * bound + 2.0 * UNIT_ROUNDOFF * value


class TestLebesgueConstant:
    def test_dirichlet_zero(self):
        assert abs(lb.lebesgue_constant(trig.dirichlet(), 0).value - 1.0) < 1e-14

    def test_dirichlet_one_closed_form(self):
        # kernel 1 + 2cos t changes sign at 2pi/3
        want = 1.0 / 3.0 + 2.0 * math.sqrt(3) / math.pi
        s = lb.lebesgue_constant(trig.dirichlet(), 1)
        assert abs(s.value - want) < 1e-13
        assert s.quad_error < 1e-10

    def test_fejer_is_one(self):
        for n in (0, 1, 7, 40):
            s = lb.lebesgue_constant(trig.fejer(), n)
            assert abs(s.value - 1.0) < 1e-10

    def test_projection_lower_bound(self):
        # operator norm dominates the weight of the constant term
        for method in method_catalog():
            for n in (0, 1, 4, 9):
                lam0 = abs(method.weights(n)[method.band(n)])
                s = lb.lebesgue_constant(method, n)
                assert s.value >= lam0 - 1e-9

    def test_certification_honesty(self):
        # doubling the scan resolution moves the value by less than the
        # reported error bound
        w = trig.dirichlet().weights(17)
        v1, e1 = lb.trig_poly_l1(w, oversample=16)
        v2, _ = lb.trig_poly_l1(w, oversample=32)
        assert abs(v1 - v2) <= max(e1, 1e-12)

    def test_bernstein_matches_rogosinski(self):
        # the half-shift average is the symmetric average's kernel shifted,
        # so their norms agree; exercises complex Hermitian weights
        for n in (4, 9):
            b = lb.lebesgue_constant(trig.bernstein(), n).value
            r = lb.lebesgue_constant(trig.rogosinski(), n).value
            assert abs(b - r) < 1e-8

    def test_strictly_increasing_in_n(self):
        vals = [lb.lebesgue_constant(trig.dirichlet(), n).value
                for n in range(1, 257, 17)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_kernel_grid_norm_consistency(self):
        # Riemann L1 of the sampled kernel agrees with the certified value
        m = 1 << 20
        for n in (1, 5, 17, 64):
            k = trig.synthesize(trig.TrigCoefficients(n, trig.dirichlet().weights(n)), m)
            riemann = trig.grid_norm(k, 1) / (2 * np.pi)
            exact = lb.lebesgue_constant(trig.dirichlet(), n).value
            assert abs(riemann - exact) < 1e-6

    def test_non_hermitian_coefficients_rejected(self):
        with pytest.raises(InvalidArgument):
            lb.trig_poly_l1(np.array([0.0, 1.0, 1j]))

    def test_bound_covers_nearly_hermitian_coefficients(self):
        # accepted by the reality check, but Im f = 2e-6 cos t is not zero
        from scipy import integrate
        c = np.array([1 + 1e-6j, 1.0, 1 + 1e-6j])
        value, err = lb.trig_poly_l1(c)
        k = np.arange(-1, 2)
        ref, ref_err = integrate.quad(lambda t: abs(np.exp(1j * k * t) @ c),
                                      -np.pi, np.pi, limit=200, epsabs=1e-14)
        assert abs(value - ref) <= err + ref_err


class TestOraclesAtScale:
    @pytest.mark.parametrize("n", [1, 17, 1024, 8192, 65536])
    def test_dirichlet_against_fejer_closed_form(self, n):
        value, err = lb.trig_poly_l1(trig.dirichlet().weights(n))
        ref, rounding = fejer_dirichlet(n)
        assert abs(value / (2 * np.pi) - ref) <= err / (2 * np.pi) + rounding

    @pytest.mark.parametrize("n", [256, 4096])
    def test_bernstein_equals_rogosinski(self, n):
        b = lb.lebesgue_constant(trig.bernstein(), n)
        r = lb.lebesgue_constant(trig.rogosinski(), n)
        assert abs(b.value - r.value) <= b.quad_error + r.quad_error

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(method_catalog()), st.integers(1, 300),
           st.floats(0.0, 2 * np.pi, exclude_max=True))
    def test_shift_leaves_norm_unchanged(self, method, n, tau):
        # w_k e^{ik tau} is the kernel translated by tau: same L1 norm
        w = method.weights(n)
        k = np.arange(w.size) - (w.size - 1) // 2
        v0, e0 = lb.trig_poly_l1(w)
        v1, e1 = lb.trig_poly_l1(w * np.exp(1j * k * tau))
        assert abs(v0 - v1) <= e0 + e1


class TestFits:
    def test_synthetic_log_fit(self):
        ns = [64, 128, 256, 512, 1024]
        vals = [0.4 * math.log(n) + 1.0 for n in ns]
        c, d, resid = lb.fit_log_model(ns, vals)
        assert abs(c - 0.4) < 1e-12 and abs(d - 1.0) < 1e-12
        assert resid < 1e-12

    def test_synthetic_power_fit(self):
        ns = [64, 128, 256, 512]
        vals = [3.0 * n ** 0.25 for n in ns]
        c, s, resid = lb.fit_power_model(ns, vals)
        assert abs(s - 0.25) < 1e-12 and abs(c - 3.0) < 1e-10

    def test_precondition(self):
        with pytest.raises(InvalidArgument):
            lb.classical_lebesgue_fit(8, 16)

    def test_geometric_grid(self):
        assert lb.geometric_grid(3, 24) == [3, 6, 12, 24]
        for nmin in (0, -1):            # doubling from 0 or below never ends
            with pytest.raises(InvalidArgument):
                lb.geometric_grid(nmin, 8)


class TestKolmogorovDeviation:
    def test_no_terms_closed_form(self):
        # r=1, n=0: (1/pi) integral of |(pi-t)/2| over the period
        assert abs(lb.kolmogorov_deviation(1, 0) - math.pi / 2) < 1e-12

    def test_tail_oracle(self):
        for (r, n, t) in ((1, 5, 0.7), (2, 8, 1.1), (3, 3, 2.3)):
            closed = tail_kernel(r, n, np.array([t]))[0]
            direct = tail_kernel_direct(r, n, t)
            assert abs(closed - direct) < 1e-6

    def test_monotone_in_n(self):
        for r in (1, 2):
            vals = [lb.kolmogorov_deviation(r, n) for n in (16, 32, 64, 128, 256)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)

    def test_scaling_band(self):
        # frozen from direct computation: 0.630, 0.603, 0.581 decreasing
        # toward 4/pi^2 + (const)/ln n
        for n in (128, 256, 512):
            v = lb.kolmogorov_deviation(1, n) * n / math.log(n)
            assert 0.3 <= v <= 0.65

    def test_large_power_fails_on_tolerance(self):
        # 1024^7 >= 2^63: the coefficients must not wrap around in int64;
        # the honest error bound then exceeds the default tolerance
        with pytest.raises(ConvergenceFailure):
            lb.kolmogorov_deviation(7, 1024)

    @pytest.mark.parametrize("r,n", [(4, 1024), (8, 64)])
    def test_bound_not_below_value_fails(self, r, n):
        # bounds 4.7e-10 and 4.3e-11 pass the absolute tol but exceed the
        # values 3.1e-12 and 7.3e-14 themselves
        with pytest.raises(ConvergenceFailure):
            lb.kolmogorov_deviation(r, n)


class TestRhombic:
    def test_tiny_case(self):
        s = lb.rhombic_lebesgue(1, 1)
        assert s.value >= 1.0

    def test_ratio_trend(self):
        ratios = []
        for n in (4, 8, 16):
            s = lb.rhombic_lebesgue(n, n)
            ratios.append(s.value / (16 / np.pi ** 4 * math.log(n) ** 2))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_rectangular_ratio(self):
        s = lb.rhombic_lebesgue(2, 4)
        assert math.isfinite(s.value)
        assert s.quad_error < 0.05

    def test_hypothesis_guard(self):
        with pytest.raises(InvalidArgument):
            lb.rhombic_lebesgue(4, 6)


class TestHyperbolic:
    def test_small_value_against_brute(self):
        v, err = lb.hyperbolic_l1(1.0, 16)
        ks = [(k1, k2) for k1 in range(1, 17) for k2 in range(1, 17)
              if k1 * k2 <= 16]
        m = 16 * 17
        x = 2 * np.pi * np.arange(m) / m
        kern = np.zeros((m, m))
        for k1, k2 in ks:
            kern += 4 * np.outer(np.cos(k1 * x), np.cos(k2 * x))
        brute = np.sum(np.abs(kern)) / m ** 2
        assert abs(v - brute) < 1e-10

    def test_lattice_guard(self):
        with pytest.raises(InvalidArgument):
            lb.hyperbolic_exponent(1.0, [8192])

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_index_set_rejected(self, n):
        with pytest.raises(InvalidArgument):
            lb.hyperbolic_l1(1.0, n)

    def test_synthetic_slope(self):
        fit, _, _ = lb.hyperbolic_exponent(2.0, [64, 128])
        assert math.isfinite(fit.params[1])


def torus_mean_abs(index_set, m1, m2):
    """Mean of |sum_{k in index_set} e^{i k.x}| over the full m1 x m2 grid
    of the torus, term by term (no grouping, folding or closed form)."""
    x1 = 2 * np.pi * np.arange(m1)[:, None] / m1
    x2 = 2 * np.pi * np.arange(m2)[None, :] / m2
    kern = np.zeros((m1, m2))
    for k1, k2 in index_set:            # symmetric sets: the sines cancel
        kern += np.cos(k1 * x1 + k2 * x2)
    return float(np.mean(np.abs(kern)))


class TestTwoDimensionalPass:
    @pytest.mark.parametrize("lo,hi", [(1, 1), (37, 41), (1, 4096)])
    def test_closed_form_factor_against_cosine_sums(self, lo, hi):
        # the quarter grid of hyperbolic_l1(1.0, 4096): x_i = pi i/h
        u, h = UNIT_ROUNDOFF, 4 * 4097
        row = lb._factors(h, 0.0, lo, hi)[0]
        # a cos or sin of an angle below 2pi that carries relative error 3u
        # (pi, the product, the quotient), plus 1 ulp for the function
        e = (6 * math.pi + 1) * u
        for i in (0, 1, 2, 3, 1000, h // 3, h // 2, h - 1, h):
            want = math.fsum(2.0 * math.cos(math.pi * (k * i % (2 * h)) / h)
                             for k in range(lo, hi + 1))
            tol = 2 * (hi - lo + 1) * e + u * abs(want)         # the oracle
            if i:
                # cos * sin errs by 2e + u, 2/sin(x/2) by 6u relative
                tol += 2 * (2 * e + u) / math.sin(math.pi * i / (2 * h)) \
                    + 6 * u * abs(want)
            assert abs(row[i] - want) <= tol, (i, row[i] - want, tol)

    @pytest.mark.parametrize("groups,n1,n2,oversample", [
        (lb._hyperbolic_groups(1.0, 64), 64, 64, 8),
        (lb._hyperbolic_groups(1.0, 64), 64, 64, 4),
        (lb._hyperbolic_groups(2.0, 128), 11, 128, 8),
        (lb._rhombic_groups(4, 8), 4, 8, 8),
        (lb._rhombic_groups(3, 9), 3, 9, 4),
    ])
    def test_coarse_estimate_equals_half_grid_sum(self, groups, n1, n2,
                                                  oversample):
        fine, coarse = lb._grouped_l1_2d(groups, n1, n2, oversample)
        half, _ = lb._grouped_l1_2d(groups, n1, n2, oversample // 2)
        assert fine != coarse
        assert abs(coarse - half) <= 1e-13 * half

    def test_rhombic_against_dense_torus(self):
        s = lb.rhombic_lebesgue(2, 4)       # oversample 8: m = 16 (n + 1)
        ks = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-4, 5)
              if 2 * abs(k1) + abs(k2) <= 4]
        fine = torus_mean_abs(ks, 48, 80)
        coarse = torus_mean_abs(ks, 24, 40)
        assert abs(s.value - fine) <= 1e-13 * fine
        assert abs(s.quad_error - abs(fine - coarse)) <= 1e-13 * fine

    def test_hyperbolic_against_dense_torus(self):
        v, err = lb.hyperbolic_l1(2.0, 32)  # kmax1 = 5, oversample 8
        ks = [(k1, k2) for k1 in range(-5, 6) for k2 in range(-32, 33)
              if k1 and k2 and k1 * k1 * abs(k2) <= 32]
        fine = torus_mean_abs(ks, 96, 528)
        coarse = torus_mean_abs(ks, 48, 264)
        assert abs(v - fine) <= 1e-13 * fine
        assert abs(err - abs(fine - coarse)) <= 1e-13 * fine

    def test_peak_memory(self):
        tracemalloc.start()
        try:
            lb.hyperbolic_l1(1.0, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestIndependentQuadratureOracle:
    def test_trig_poly_l1_against_scipy(self):
        # adaptive quadrature of |K| is a fully independent route
        from scipy import integrate
        for method, n in ((trig.dirichlet(), 7), (trig.rogosinski(), 5),
                          (trig.cesaro(0.5), 6), (trig.riesz(1, 2), 9)):
            w = method.weights(n)
            band = (w.size - 1) // 2
            value, err = lb.trig_poly_l1(w)

            def absk(t):
                k = np.arange(-band, band + 1)
                return abs(np.exp(1j * k * t) @ w)

            ref, ref_err = integrate.quad(absk, -np.pi, np.pi, limit=400)
            assert abs(value - ref) < 1e-8 + 10 * ref_err

    def test_kolmogorov_deviation_against_scipy(self):
        from scipy import integrate
        for r, n in ((1, 3), (2, 5), (3, 2)):
            value = lb.kolmogorov_deviation(r, n)

            def absg(t):
                return abs(tail_kernel(r, n, np.array([t]))[0])

            ref, ref_err = integrate.quad(absg, 0.0, 2 * np.pi, limit=400)
            assert abs(value - ref / np.pi) < 1e-8 + 10 * ref_err

    def test_random_polynomials_against_riemann(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            band = int(rng.integers(1, 12))
            half = rng.standard_normal(band) + 1j * rng.standard_normal(band)
            w = np.concatenate([np.conj(half[::-1]),
                                rng.standard_normal(1), half])
            value, err = lb.trig_poly_l1(w)
            m = 1 << 18
            k = trig.synthesize(trig.TrigCoefficients(band, w), m)
            riemann = trig.grid_norm(k, 1)
            assert abs(value - riemann) < 1e-5 * max(1.0, riemann)

import math

import numpy as np
import pytest
from scipy import integrate

from xlab import ftlab
from xlab import posdef_splines as ps
from xlab.errors import InvalidArgument


class TestGram:
    def test_gaussian_many_point_sets(self):
        rng = np.random.default_rng(0)
        fn = lambda d: math.exp(-float(np.dot(d, d)))
        for _ in range(300):
            k = int(rng.integers(2, 13))
            pts = rng.uniform(-3, 3, (k, 3))
            eig = ps.gram_min_eig(pts, fn)
            assert eig >= -1e-9 * k

    def test_cosine_collinear(self):
        pts = np.array([[0.0], [np.pi]])
        eig = ps.gram_min_eig(pts, lambda d: math.cos(float(d[0])))
        assert abs(eig) < 1e-12

    def test_stretched_exponential_violation(self):
        rng = np.random.default_rng(1)
        fn = lambda d: math.exp(-abs(float(d[0])) ** 2.5)
        best = 1.0
        for _ in range(2000):
            pts = rng.uniform(-3, 3, (int(rng.integers(3, 13)), 1))
            best = min(best, ps.gram_min_eig(pts, fn))
        assert best < -1e-6

    def test_non_hermitian_rejected(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidArgument):
            ps.gram_min_eig(pts, lambda d: float(d[0]))  # odd


class TestPolya:
    def test_hat_classical(self):
        assert ps.polya_test(ps.RadialProfile(poly=np.array([1.0, -1.0])), 1)

    def test_exponential(self):
        assert ps.polya_test(ps.RadialProfile(fn=lambda t: np.exp(-t)), 1)

    def test_cosine_fails(self):
        assert not ps.polya_test(ps.RadialProfile(fn=np.cos), 1)

    def test_consistency_with_gram(self):
        rng = np.random.default_rng(4)
        hat = lambda d: float(np.clip(1 - abs(float(d[0])), 0, None))
        expf = lambda d: math.exp(-abs(float(d[0])))
        for fn in (hat, expf):
            for _ in range(1000):
                pts = rng.uniform(-3, 3, (int(rng.integers(2, 9)), 1))
                eig = ps.gram_min_eig(pts, fn)
                assert eig >= -1e-8 * len(pts)


class TestBSpline:
    def test_indicator(self):
        assert ps.b_spline(0, 0.0) == 1.0
        assert ps.b_spline(0, 0.6) == 0.0

    def test_hat_peak(self):
        assert abs(ps.b_spline(1, 0.0) - 1.0) < 1e-14

    def test_unit_mass(self):
        for n in (2, 5, 9, 12):
            v, err = integrate.quad(lambda x: ps.b_spline(n, x),
                                    -(n + 1) / 2, (n + 1) / 2, limit=300)
            assert abs(v - 1.0) < 1e-10

    def test_odd_degree_transform_nonnegative(self):
        # scaled to [0,1] support; transform of an even power of sinc
        for n in (1, 3):
            scale = (n + 1) / 2.0
            prof = lambda s: ps.b_spline(n, scale * s)
            knots = tuple(np.arange(1, n + 2) / (n + 1.0))
            r = np.linspace(0, 60, 400)
            vals = [ftlab.radial_ft(prof, 1, ri, knots=knots) for ri in r]
            assert min(vals) >= -1e-9


class TestASpline:
    def test_closed_form_n2(self):
        prof = ps.a_spline(2)
        assert np.allclose(prof.poly, [1.0, 0.0, -6.0, 8.0, -3.0], atol=1e-10)
        assert abs(prof(np.array([0.5]))[0] - 0.3125) < 1e-12

    def test_normalization(self):
        for n in range(2, 7):
            assert abs(ps.a_spline(n)(np.array([0.0]))[0] - 1.0) < 1e-12

    def test_contact_residuals_exact(self):
        for n in range(2, 7):
            assert max(ps.a_spline_contact_residuals(n)) <= 1e-10

    def test_bell_shape(self):
        for n in range(2, 7):
            shape = ps.a_spline_shape(n)
            assert shape["positive"]
            assert shape["decreasing"]
            assert shape["inflections"] == 1

    def test_transform_positive(self):
        for n in (2, 3, 6):
            r = ps.radial_ft_positivity(ps.a_spline(n), 1, 200.0, 0.05)
            assert r["min_value"] > 0.0

    def test_transform_seam_agreement(self):
        for n in (2, 4, 6):
            prof = ps.a_spline(n)
            d0, d1 = ftlab.poly_boundary_derivs(prof.poly_exact)
            seam = 3.0 * (len(prof.poly) - 1) + 8.0
            quad_val = ftlab.radial_ft(prof, 1, seam)
            ibp_val = float(ftlab.cos_transform_boundary(d0, d1,
                                                         np.array([seam]))[0])
            assert abs(quad_val - ibp_val) <= 1e-7 * max(abs(ibp_val), 1e-12)


class TestESpline:
    def test_first_is_hat(self):
        s = np.array([0.0, 0.25, 0.5, 0.9, 1.0, 1.7])
        assert np.allclose(ps.e_spline(1, s), np.clip(1 - s, 0, None))

    def test_support(self):
        assert ps.e_spline(4, 1.0) == 0.0
        assert ps.e_spline(4, 2.3) == 0.0

    def test_against_finite_differences(self):
        # differentiate t^(n-3/2)(1-sqrt(t))^n numerically, n-1 times
        for n in (2, 3):
            t0 = 0.25
            h = 1e-4 if n == 2 else 2e-3

            def base(t):
                return t ** (n - 1.5) * (1 - np.sqrt(t)) ** n

            if n == 2:
                deriv = (base(t0 + h) - base(t0 - h)) / (2 * h)
            else:
                deriv = (base(t0 + h) - 2 * base(t0) + base(t0 - h)) / h ** 2
            want = math.sqrt(t0) * deriv
            got = ps.e_spline(n, math.sqrt(t0))
            assert abs(got - want) < 1e-6 * max(1, abs(want))


class TestTildeESpline:
    def test_support(self):
        assert ps.tilde_e_spline(3, 1.0) == 0.0
        assert ps.tilde_e_spline(3, -1.2) == 0.0

    def test_indicator_self_convolution(self):
        assert abs(ps.tilde_e_spline(0, 0.0) - 1.0) < 1e-14
        assert abs(ps.tilde_e_spline(0, 0.5) - 0.5) < 1e-14

    def test_transform_nonnegative(self):
        # convolution theorem: the transform is a squared modulus up to sign
        for n in (1, 2, 3):
            prof = lambda s: ps.tilde_e_spline(n, s)
            r = np.linspace(0, 40, 300)
            vals = [ftlab.radial_ft(prof, 1, ri) for ri in r]
            assert min(vals) >= -1e-8


class TestRadialPositivity:
    def test_hat_fails_in_three_dimensions(self):
        hat = ps.RadialProfile(poly=np.array([1.0, -1.0]))
        r = ps.radial_ft_positivity(hat, 3, 30.0, 0.05)
        assert r["min_value"] < 0.0


class TestShiftApprox:
    def test_member_of_span(self):
        prof = ps.a_spline(2)
        out = ps.shift_approx(lambda x: prof(np.abs(x)), 2, 0.5, 6)
        assert out["sup_error"] <= 1e-10
        assert abs(out["coeffs"][6] - 1.0) < 1e-8

    def test_zero_function(self):
        out = ps.shift_approx(lambda x: np.zeros_like(x), 2, 0.5, 4)
        assert np.max(np.abs(out["coeffs"])) == 0.0

    def test_gaussian_order(self):
        errs = []
        for h in (0.25, 0.125, 0.0625):
            out = ps.shift_approx(lambda x: np.exp(-x * x), 2, h,
                                  int(round(5.0 / h)))
            errs.append(out["sup_error"])
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(s >= 2.0 for s in slopes)
        assert errs[0] > errs[1] > errs[2]


class TestSchoenberg:
    def test_positive_case(self):
        r = ps.schoenberg_check(2, 3.0, 1.0, trials=2000, seed=0)
        assert r["min_eig_found"] >= -1e-8 * 12

    def test_negative_case_witness(self):
        r = ps.schoenberg_check(3, math.inf, 1.0, trials=2000, seed=0)
        assert r["min_eig_found"] < -1e-6
        assert r["witness"] is not None

    def test_alpha_zero(self):
        r = ps.schoenberg_check(2, 3.0, 0.0, trials=50, seed=0)
        assert abs(r["min_eig_found"]) < 1e-10

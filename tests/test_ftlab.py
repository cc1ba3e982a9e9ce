import math

import numpy as np
import pytest
from scipy import special

from xlab import ftlab as ft
from xlab.errors import InvalidArgument, NotFound


class TestHFunction:
    def test_endpoint(self):
        assert abs(ft.h_function(np.pi) - 1.0 / np.pi) < 1e-14

    def test_origin_limit(self):
        assert ft.h_function(0.0) == 0.0
        assert abs(ft.h_function(0.0, 1) - 1.0 / 12.0) < 1e-15

    def test_seam_agreement(self):
        for p in range(5):
            gap = abs(ft._h_series(ft._H_SEAM, p) - ft._h_closed(ft._H_SEAM, p))
            assert gap < 1e-12

    def test_odd_function(self):
        for x in (0.3, 0.7, 2.0):
            assert abs(ft.h_function(-x) + ft.h_function(x)) < 1e-14

    def test_order_guard(self):
        with pytest.raises(InvalidArgument):
            ft.h_function(1.0, 5)


class TestEulerMaclaurin:
    def test_geometric_closed_form(self):
        f = ft.exponential_decay(1.0)
        res = ft.euler_maclaurin_sum(f, 0, 0, np.pi / 2)
        exact = 1.0 / (1.0 - np.exp(-1.0 + 1j * np.pi / 2))
        assert abs(res["lhs"] - exact) < 1e-10
        assert abs(res["theta"]) <= 3.0

    def test_exponential_first_order(self):
        f = ft.exponential_decay(1.0)
        res = ft.euler_maclaurin_sum(f, 0, 1, np.pi / 2)
        assert abs(res["variation"] - 1.0) < 1e-12
        assert abs(res["theta"]) <= 3.0

    def test_inverse_square(self):
        g = ft.inverse_power(2.0)
        res = ft.euler_maclaurin_sum(g, 1, 0, 1.0)
        assert abs(res["theta"]) <= 3.0
        assert abs(res["variation"] - g.deriv(1, 0)) < 1e-12

    def test_corrections_help(self):
        f = ft.exponential_decay(1.0)
        errs = [abs(ft.euler_maclaurin_sum(f, 0, r, 1.0)["lhs"]
                    - ft.euler_maclaurin_sum(f, 0, r, 1.0)["rhs_main"])
                for r in (0, 1, 2)]
        assert errs[0] > errs[1] > errs[2]

    def test_series_against_closed_forms(self, monkeypatch):
        # sum_{k>=n} f(k) q^k against z^n/(1-z), z = e^{-a} q, for e^{-au}
        # and against q^n Phi(q, b, n+1) for (1+u)^{-b}, both in 20 digits;
        # the gap must stay within the returned bound and the head within
        # OSCILLATORY_TERMS + 1 terms (the largest array deriv sees)
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.mp, "dps", 20)
        cases = [(ft.exponential_decay, a) for a in np.linspace(0.2, 2.0, 5)] \
            + [(ft.inverse_power, b) for b in [*np.linspace(1.5, 4.0, 5), 1.05]]
        for family, par in cases:
            f = family(par)
            sizes = []
            g = ft.DecayingFunction(
                lambda u, p: sizes.append(np.size(u)) or f.deriv(u, p),
                f.variation)
            for x in (np.pi / 2, -np.pi / 2, 1.0, -1.0, 3.0, -3.0, 0.01):
                q = mpmath.expj(x)
                if family is ft.exponential_decay:
                    z = mpmath.exp(-par) * q
                    exact = [z ** n / (1 - z) for n in range(4)]
                else:
                    total = mpmath.lerchphi(q, par, 1)
                    exact = []
                    for n in range(4):
                        exact.append(total)
                        total -= q ** n * mpmath.power(1 + n, -par)
                for n in range(4):
                    value, bound = ft._oscillatory_series(
                        g, n, x, ft.EULER_MACLAURIN_TOL / 10)
                    gap = abs(mpmath.mpc(value.real, value.imag) - exact[n])
                    assert gap <= bound, (family.__name__, par, x, n, gap, bound)
            assert max(sizes) <= ft.OSCILLATORY_TERMS + 1

    def test_series_precision_follows_theta_scale(self, monkeypatch):
        # theta = (lhs - rhs) pi^r / V with pi^r / V up to ~1e12 at n = 50,
        # r = 4, so the sum must be sized for theta, not for lhs: its
        # share of theta stays within EULER_MACLAURIN_TOL of the closed form
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.mp, "dps", 30)
        n, r = 50, 4
        for b in (2.75, 4.0):
            for x in (1.0, np.pi / 2):
                res = ft.euler_maclaurin_sum(ft.inverse_power(b), n, r, x)
                q = mpmath.expj(x)
                exact = q ** n * mpmath.lerchphi(q, b, n + 1)
                gap = abs(mpmath.mpc(res["lhs"].real, res["lhs"].imag) - exact)
                assert gap * np.pi ** r / res["variation"] <= ft.EULER_MACLAURIN_TOL, \
                    (b, x, gap)

    def test_zero_frequency_rejected(self):
        with pytest.raises(InvalidArgument):
            ft.euler_maclaurin_sum(ft.exponential_decay(1.0), 0, 0, 0.0)


class TestIndicatorFT:
    def test_mean_value(self):
        disc = ft.ConvexBody2D.disc(1.3)
        assert abs(ft.indicator_ft(disc, [0.0, 0.0]) - np.pi * 1.69) < 1e-12

    def test_disc_first_bessel_zero(self):
        disc = ft.ConvexBody2D.disc(1.0)
        j11 = special.jn_zeros(1, 1)[0]
        assert abs(ft.indicator_ft(disc, [j11, 0.0])) < 1e-8

    def test_square_sinc_zero(self):
        sq = ft.ConvexBody2D.polygon([[-0.5, -0.5], [0.5, -0.5],
                                      [0.5, 0.5], [-0.5, 0.5]])
        assert abs(ft.indicator_ft(sq, [2 * np.pi, 0.0])) < 1e-12

    def test_polygon_against_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            # random triangle with the origin forced interior
            angles = (rng.uniform(0, 2 * np.pi)
                      + np.array([0, 2 * np.pi / 3, 4 * np.pi / 3])
                      + rng.uniform(-0.4, 0.4, 3))
            radii = rng.uniform(0.5, 1.5, 3)
            verts = np.column_stack([radii * np.cos(angles),
                                     radii * np.sin(angles)])
            body = ft.ConvexBody2D.polygon(verts)
            u = rng.uniform(-4, 4, 2)
            got = ft.indicator_ft(body, u)
            xs = np.linspace(verts[:, 0].min(), verts[:, 0].max(), 900)
            ys = np.linspace(verts[:, 1].min(), verts[:, 1].max(), 900)
            xg, yg = np.meshgrid(xs, ys)
            inside = np.ones_like(xg, dtype=bool)
            v = body.vertices
            for k in range(3):
                a, b = v[k], v[(k + 1) % 3]
                inside &= ((b[0] - a[0]) * (yg - a[1])
                           - (b[1] - a[1]) * (xg - a[0])) >= 0
            cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
            brute = np.sum(np.exp(1j * (u[0] * xg + u[1] * yg))[inside]) * cell
            assert abs(got - brute) < 5e-3 * max(1.0, abs(got))

    def test_ellipse_area(self):
        e = ft.ConvexBody2D.ellipse(2.0, 0.5)
        assert abs(ft.indicator_ft(e, [1e-9, 0.0]) - np.pi) < 1e-9

    def test_convexity_guard(self):
        with pytest.raises(InvalidArgument):
            ft.ConvexBody2D.polygon([[-1, -1], [1, -1], [0.0, 0.1],
                                     [1, 1], [-1, 1]])


class TestZeroCurve:
    def test_disc_matches_bessel_zeros(self):
        disc = ft.ConvexBody2D.disc(1.0)
        for p in (1, 2, 3, 5):
            jp = special.jn_zeros(1, p)[-1]
            r = ft.zero_curve(disc, p, 0.37)
            assert abs(r - jp) < 1e-6
            assert p * np.pi < jp < (p + 1) * np.pi

    def test_bracket_containment(self):
        ell = ft.ConvexBody2D.ellipse(1.0, 0.5)
        for phi in np.linspace(0, np.pi, 9):
            d = ell.width(phi)
            r = ft.zero_curve(ell, 1, phi)
            assert 2 * np.pi < d * r < 4 * np.pi

    def test_asymmetric_rejected(self):
        tri = ft.ConvexBody2D.polygon([[-1, -0.8], [1.2, -0.5], [0.1, 1.0]])
        with pytest.raises(InvalidArgument):
            ft.zero_curve(tri, 1, 0.0)


class TestRadialFT:
    def test_zero_frequency_volume(self):
        prof = lambda s: np.ones_like(s)
        assert abs(ft.radial_ft(prof, 1, 0.0) - 2.0) < 1e-12
        assert abs(ft.radial_ft(prof, 2, 0.0) - np.pi) < 1e-12
        assert abs(ft.radial_ft(prof, 3, 0.0) - 4 * np.pi / 3) < 1e-12

    def test_ball_indicator_closed_form(self):
        prof = lambda s: np.ones_like(s)
        for r in (2.0, 7.5, 30.0):
            want = 4 * np.pi * (math.sin(r) - r * math.cos(r)) / r ** 3
            assert abs(ft.radial_ft(prof, 3, r) - want) < 1e-9

    def test_hat_closed_form(self):
        prof = lambda s: 1.0 - s
        for r in (1.0, 3.0, 17.0):
            want = 2 * (1 - math.cos(r)) / r ** 2
            assert abs(ft.radial_ft(prof, 1, r, knots=(1.0,)) - want) < 1e-9

    def test_poly_transform_matches_quadrature(self):
        coeffs = [0.2, -1.0, 0.5, 1.5]
        prof = lambda s: np.polynomial.polynomial.polyval(s, coeffs)
        for r in (3.0, 12.0, 45.0):
            d0, d1 = ft.poly_boundary_derivs(np.asarray(coeffs, dtype=float))
            a = ft.cos_transform_boundary(d0, d1, r)
            b = ft.radial_ft(prof, 1, r)
            assert abs(a - b) < 1e-10


class TestCrossRouteBodies:
    def test_ellipse_matches_fine_polygon(self):
        # the Bessel-function route and the Green's-theorem edge route
        # must agree when the polygon approximates the ellipse well
        a, b = 1.0, 0.5
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        poly = ft.ConvexBody2D.polygon(
            np.column_stack([a * np.cos(t), b * np.sin(t)]))
        ell = ft.ConvexBody2D.ellipse(a, b)
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = rng.uniform(-8, 8, 2)
            assert abs(ft.indicator_ft(ell, u)
                       - ft.indicator_ft(poly, u)) < 1e-5

    def test_zero_curve_agrees_between_routes(self):
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        poly = ft.ConvexBody2D.polygon(
            np.column_stack([np.cos(t), 0.5 * np.sin(t)]))
        ell = ft.ConvexBody2D.ellipse(1.0, 0.5)
        for phi in (0.0, 0.9):
            assert abs(ft.zero_curve(poly, 1, phi)
                       - ft.zero_curve(ell, 1, phi)) < 1e-4

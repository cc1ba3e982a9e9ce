import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import special

from xlab import ftlab as ft
from xlab.errors import ConvergenceFailure, InvalidArgument


# the general convex-polygon route (Green's theorem), the cross-route oracle
# of the closed-form bodies

def _phi1(w):
    """(e^{iw} - 1)/(iw), stable near w = 0."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-4
    out = np.empty(w.shape, dtype=complex)
    ws = w[small]
    out[small] = 1.0 + 1j * ws / 2.0 - ws ** 2 / 6.0 - 1j * ws ** 3 / 24.0
    wb = w[~small]
    out[~small] = (np.exp(1j * wb) - 1.0) / (1j * wb)
    return out


def polygon(vertices):
    """A convex polygon with the origin inside as a ConvexBody2D whose
    transform sums the closed-form edge integrals of Green's theorem."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
        raise InvalidArgument("polygon needs >= 3 planar vertices")
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] \
        - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    if not (np.all(cross > 0) or np.all(cross < 0)):
        raise InvalidArgument("vertices must describe a convex polygon")
    if np.all(cross < 0):
        v = v[::-1]
    # origin strictly interior: left of every ccw-directed edge
    d = np.roll(v, -1, axis=0) - v
    if not np.all(v[:, 0] * d[:, 1] - v[:, 1] * d[:, 0] > 0):
        raise InvalidArgument("origin must be interior")

    def transform(u):
        # one frequency (2,) or an array (..., 2), the edges on a new last axis
        u0, u1 = (np.asarray(u, dtype=float)[..., j, None] for j in (0, 1))
        nu = np.hypot(u0[..., 0], u1[..., 0])
        cross = u0 * d[:, 1] - u1 * d[:, 0]
        vu, du = (u0 * w[:, 0] + u1 * w[:, 1] for w in (v, d))
        total = np.sum(cross * np.exp(1j * vu) * _phi1(du), axis=-1)
        # nu * nu, not nu ** 2: numpy's pow on an array can differ from that
        # on one value in the last bit, and the scan must match indicator_ft
        return total / (1j * (nu * nu))

    return ft.ConvexBody2D(
        lambda phi: float(np.max(v @ np.array([np.cos(phi), np.sin(phi)]))),
        transform)


def symmetric_polygon(vertices):
    """The polygon oracle for zero_curve, which reads the real part of the
    transform only: the vertex set must be centrally symmetric."""
    v = np.asarray(vertices, dtype=float)
    if len(v) % 2 or not np.allclose(v, -np.roll(v, len(v) // 2, axis=0),
                                     atol=1e-9):
        raise InvalidArgument("zero curves need a centrally symmetric body")
    return polygon(v)


class TestHFunction:
    def test_endpoint(self):
        assert abs(ft.h_function(np.pi, 0) - 1.0 / np.pi) < 1e-14

    def test_origin_limit(self):
        # the closed form holds on 1/2 <= |x| <= pi only
        for x in (0.0, 0.3, -0.3):
            for p in (0, 1):
                with pytest.raises(InvalidArgument):
                    ft.h_function(x, p)

    def test_odd_function(self):
        for x in (0.7, 2.0):
            assert abs(ft.h_function(-x, 0) + ft.h_function(x, 0)) < 1e-14

    def test_order_guard(self):
        with pytest.raises(InvalidArgument):
            ft.h_function(1.0, 5)


class TestEulerMaclaurin:
    def test_geometric_closed_form(self):
        f = ft.exponential_decay(1.0)
        res, = ft.euler_maclaurin_sum(f, 0, 0, np.pi / 2)
        exact = 1.0 / (1.0 - np.exp(-1.0 + 1j * np.pi / 2))
        assert abs(res["lhs"] - exact) < 1e-10
        assert abs(res["theta"]) <= 3.0

    def test_exponential_first_order(self):
        f = ft.exponential_decay(1.0)
        res = ft.euler_maclaurin_sum(f, 0, 1, np.pi / 2)[1]
        assert abs(res["variation"] - 1.0) < 1e-12
        assert abs(res["theta"]) <= 3.0

    def test_inverse_square(self):
        g = ft.inverse_power(2.0)
        res, = ft.euler_maclaurin_sum(g, 1, 0, 1.0)
        assert abs(res["theta"]) <= 3.0
        assert abs(res["variation"] - g.deriv(1, 0)) < 1e-12

    def test_corrections_help(self):
        f = ft.exponential_decay(1.0)
        errs = [abs(res["lhs"] - res["rhs_main"]) for res in ft.euler_maclaurin_sum(f, 0, 2, 1.0)]
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
                f.variation, f.integral)
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
        # r = 4, so the sum must be sized for theta, not for lhs: at the
        # target euler_maclaurin_sum asks for, its share of theta stays
        # within EULER_MACLAURIN_TOL of the closed form
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.mp, "dps", 30)
        n, r = 50, 4
        for b in (2.75, 4.0):
            f = ft.inverse_power(b)
            v = f.variation(n, r)
            for x in (1.0, np.pi / 2):
                lhs, _ = ft._oscillatory_series(
                    f, n, x, ft.EULER_MACLAURIN_TOL / 10 * min(1.0, v / np.pi ** r))
                q = mpmath.expj(x)
                exact = q ** n * mpmath.lerchphi(q, b, n + 1)
                gap = abs(mpmath.mpc(lhs.real, lhs.imag) - exact)
                assert gap * np.pi ** r / v <= ft.EULER_MACLAURIN_TOL, \
                    (b, x, gap)

    def test_series_at_large_n_against_lerchphi(self, monkeypatch):
        # at n = 10^8 the sum is taken relative to n: its bound must cover
        # the gap to q^n Phi(q, b, n+1) in 40 digits, the phase rounding of
        # e^{inx} included, and the inverse_power rows at r = 0 certify
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.mp, "dps", 40)
        n = 10 ** 8
        for b in np.linspace(1.5, 4.0, 5):
            f = ft.inverse_power(b)
            for x in (np.pi / 2, -np.pi / 2, 1.0, -1.0, 3.0, -3.0):
                series = ft.oscillatory_sum(f, n, x, 2)
                q = mpmath.expj(x)
                exact = q ** n * mpmath.lerchphi(q, b, n + 1)
                gap = abs(mpmath.mpc(series[0].real, series[0].imag) - exact)
                assert gap <= series[1], (b, x, gap, series[1])
                # euler_maclaurin_sum sums the series to rmax's target as above
                res = ft.euler_maclaurin_sum(f, n, 2, x)[0]
                assert res["lhs"] == series[0]
                assert abs(res["theta"]) <= 3.0

    def test_theta_error_guard(self):
        # at n = 50, r = 4 pi^r / V ~ 2e10 for b = 2.125, and the series,
        # capped at OSCILLATORY_TERMS + 1 terms, keeps a tail bound that
        # moves theta by ~1e-2: the row fails instead of reporting it
        res = ft.euler_maclaurin_sum(ft.inverse_power(2.125), 50, 4, 1.0)[4]
        assert isinstance(res, ConvergenceFailure)
        assert re.match("numerical error of theta", str(res))

    def test_integral_sized_for_theta(self):
        # pi^r / V ~ 8e11 here: an integral good to quad's default epsabs
        # moved theta by ~40, the contour rule's bound leaves it certified
        res = ft.euler_maclaurin_sum(ft.inverse_power(3.375), 50, 4, 1.0)[4]
        assert abs(res["theta"]) <= 3.0
        assert res["numeric_error"] * np.pi ** 4 / res["variation"] \
            <= ft.EULER_MACLAURIN_THETA_TOL

    def test_underflowing_variation_is_a_failure(self):
        # e^{-a n} underflows at n = 10^8: V = 0 and theta is undefined, so
        # the row fails instead of printing theta = 0
        f = ft.exponential_decay(0.2)
        assert f.variation(10 ** 8, 0) == 0.0
        got = ft.euler_maclaurin_sum(f, 10 ** 8, 2, 1.0)
        assert len(got) == 3
        for res in got:
            assert isinstance(res, ConvergenceFailure)
            assert re.search("underflows to 0", str(res))
        # inverse_power keeps V > 0 there, so the guard does not fire
        assert ft.inverse_power(1.5).variation(10 ** 8, 0) > 0

    def test_slow_decay_certified_by_its_bounds(self, monkeypatch):
        # e^{-au} at a = 1e-7 still weighs about 0.9 at u = n + 10^6: the
        # integral is closed form and the series' tail bound sizes the sum,
        # so the row certifies against e^{(ix-a)n} / (1 - e^{ix-a}); at a =
        # 1e-5 that tail bound misses the tolerance and the row fails by it
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.mp, "dps", 40)
        for x in (np.pi / 2, 3.0):
            res, = ft.euler_maclaurin_sum(ft.exponential_decay(1e-7), 1, 0, x)
            z = 1j * mpmath.mpf(x) - mpmath.mpf(1e-7)
            gap = abs(mpmath.mpc(res["lhs"].real, res["lhs"].imag)
                      - mpmath.exp(z) / (1 - mpmath.exp(z)))
            assert gap <= 1e-14 and gap <= res["numeric_error"]
            res, = ft.euler_maclaurin_sum(ft.exponential_decay(1e-5), 1, 0, x)
            assert isinstance(res, ConvergenceFailure)
            assert re.match("sum/integral tolerance not met", str(res))

    def test_zero_frequency_rejected(self):
        with pytest.raises(InvalidArgument):
            ft.euler_maclaurin_sum(ft.exponential_decay(1.0), 0, 0, 0.0)

    def test_integral_against_closed_forms(self, monkeypatch):
        # int_n^inf f(u) e^{iux} du against e^{(ix-a)n}/(a-ix) for e^{-au}
        # and e^{-ix}(-ix)^{b-1} Gamma(1-b, -ix(n+1)) for (1+u)^{-b}, in 40
        # digits, at both signs of x: one evaluation at |x| serves -x by its
        # conjugate, f being real.  At n = 10^8 the rounding of x n in the phase
        # is the largest error, and the bound must carry it
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(mpmath.mp, "dps", 40)
        cases = [(ft.exponential_decay, a) for a in np.linspace(0.2, 2.0, 5)] \
            + [(ft.inverse_power, b) for b in np.linspace(1.5, 4.0, 5)]
        for family, par in cases:
            f = family(par)
            p = mpmath.mpf(par)
            for n in (0, 1, 3, 50, 10 ** 8):
                for ax in (1e-3, 0.1, 1.0, np.pi / 2, 3.0):
                    value, bound = f.integral(n, ax)
                    for x in (ax, -ax):
                        ix = 1j * mpmath.mpf(x)
                        if family is ft.exponential_decay:
                            exact = mpmath.exp((ix - p) * n) / (p - ix)
                        else:
                            exact = mpmath.exp(-ix) * (-ix) ** (p - 1) \
                                * mpmath.gammainc(1 - p, -ix * (n + 1))
                        at_x = value if x > 0 else value.conjugate()
                        gap = abs(mpmath.mpc(at_x.real, at_x.imag) - exact)
                        assert gap <= bound, (family.__name__, par, n, x, gap, bound)

    @pytest.mark.parametrize("rmax", [0, 2])
    def test_one_integral_per_function_and_abs_x(self, rmax, monkeypatch):
        # 10 functions x 3 |x| integrals and 10 x 6 signed x sums, whatever
        # rmax: -x reads the integral at |x|, and every r the sum at x
        from xlab import cli
        integrals, sums = [], []
        series = ft._oscillatory_series

        def counting(family):
            def make(par):
                f = family(par)
                return dataclasses.replace(f, integral=lambda n, w: integrals.append(
                    (family.__name__, par, w)) or f.integral(n, w))
            return make

        for name in ("exponential_decay", "inverse_power"):
            monkeypatch.setattr(ft, name, counting(getattr(ft, name)))
        monkeypatch.setattr(ft, "_oscillatory_series", lambda f, n, x, target: sums.append(
            (f, x)) or series(f, n, x, target))
        cli.run(cli.build_config("euler-maclaurin-check", [f"rmax={rmax}"]))
        assert len(integrals) == len(set(integrals)) == 30
        assert min(w for _, _, w in integrals) > 0
        assert len(sums) == len(set(sums)) == 60


def _bessel_j1(x):
    with mpmath.workdps(40):
        return np.array([float(mpmath.besselj(1, mpmath.mpf(float(v)))) for v in x])


def _bracket(p):
    """The two adjacent doubles on either side of j_{1,p}."""
    with mpmath.workdps(40):
        z = mpmath.besseljzero(1, p)
    lo = float(z)
    lo = np.nextafter(lo, -np.inf) if mpmath.mpf(lo) > z else lo
    return lo, np.nextafter(lo, np.inf)


class TestJ1:
    U = 2.0 ** -53

    def test_within_the_stated_bound(self):
        # _j1's docstring: the truncation (at most 2e-18 by the midpoint
        # rule up to x = 25, 4e-20 by Hankel's expansion above) plus u (1 +
        # x) of rounding, against mpmath at about 8,000 points in (0, 2000],
        # each side of the switch at x = 25 included
        rng = np.random.default_rng(12)
        near = 25.0 + np.arange(-200, 201) * 1e-12
        x = np.concatenate([rng.uniform(0, 25, 4000), rng.uniform(24, 26, 500), near,
                            rng.uniform(25, 2000, 3000), [ft.J1_HANKEL_X, 2000.0],
                            ft._J1_TOPS])
        x = x[x > 0]
        err = np.abs(ft._j1(x) - _bessel_j1(x))
        truncation = np.where(x <= ft.J1_HANKEL_X, 2e-18, 4e-20)
        assert np.all(err <= truncation + self.U * (1 + x))
        assert np.any(near <= 25) and np.any(near > 25)

    def test_relative_error_at_small_x(self):
        # for x <= 1e-3 every term of the rule is positive: a relative error
        # of at most 4u, down to x = 1e-300
        x = np.geomspace(1e-300, 1e-3, 1200)
        want = _bessel_j1(x)
        assert np.all(np.abs(ft._j1(x) - want) <= 4 * self.U * want)

    def test_each_entry_is_its_own_call(self):
        # the node count follows each x, not the call's largest: any shape,
        # any company, the same bits
        x = np.random.default_rng(5).uniform(0, 60, (7, 96))
        got = ft._j1(x)
        assert got.shape == (7, 96)
        assert got.tolist() == [[float(ft._j1(v)) for v in row] for row in x]
        assert ft._j1(np.array([])).shape == (0,) and ft._j1(0.0) == 0.0

    def test_disc_zeros_on_the_doubles_bracketing_mpmath(self):
        # on the ray phi = 0 the transform reads x = t exactly, so r_p of the
        # unit disc is one of the two doubles about j_{1,p}, p = 1..5, and at
        # p = 1 on every ray of the CLI's default 64
        disc = ft.ConvexBody2D.disc(1.0)
        for p in range(1, 6):
            assert ft.zero_curve(disc, p, [0.0])[0] in _bracket(p)
        got = ft.zero_curve(disc, 1, [np.pi * i / 64 for i in range(64)])
        assert set(got) <= set(_bracket(1))


class TestIndicatorFT:
    def test_mean_value(self):
        # u = 0, the mean value, is no zero-curve point and is not evaluated
        for body in (ft.ConvexBody2D.disc(1.3), ft.ConvexBody2D.ellipse(2.0, 0.5),
                     ft.ConvexBody2D.square(0.5)):
            with pytest.raises(InvalidArgument):
                ft.indicator_ft(body, [0.0, 0.0])

    def test_frequency_array_keeps_its_shape(self):
        # one u gives a complex, an array (..., 2) the transform in u's
        # shape without the last axis, each entry the bits of its own call
        u = np.random.default_rng(3).uniform(-5, 5, (3, 4, 2))
        for body in (ft.ConvexBody2D.disc(1.3), ft.ConvexBody2D.ellipse(2.0, 0.5),
                     ft.ConvexBody2D.square(0.5)):
            assert isinstance(ft.indicator_ft(body, u[0, 0]), complex)
            got = ft.indicator_ft(body, u)
            assert got.shape == (3, 4) and got.dtype == complex
            assert got.tolist() == [[ft.indicator_ft(body, v) for v in row] for row in u]

    def test_disc_first_bessel_zero(self):
        disc = ft.ConvexBody2D.disc(1.0)
        j11 = special.jn_zeros(1, 1)[0]
        assert abs(ft.indicator_ft(disc, [j11, 0.0])) < 1e-8

    def test_square_sinc_zero(self):
        sq = ft.ConvexBody2D.square(0.5)
        assert abs(ft.indicator_ft(sq, [2 * np.pi, 0.0])) < 1e-12

    def test_square_matches_polygon(self):
        rng = np.random.default_rng(11)
        for s in (0.3, 1.0, 2.5):
            sq = ft.ConvexBody2D.square(s)
            poly = polygon([[-s, -s], [s, -s], [s, s], [-s, s]])
            for _ in range(20):
                u = rng.uniform(-8, 8, 2)
                assert abs(ft.indicator_ft(sq, u) - ft.indicator_ft(poly, u)) < 1e-12
                phi = rng.uniform(0, 2 * np.pi)
                assert abs(sq.support(phi) - poly.support(phi)) < 1e-12

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
            body = polygon(verts)
            u = rng.uniform(-4, 4, 2)
            got = ft.indicator_ft(body, u)
            xs = np.linspace(verts[:, 0].min(), verts[:, 0].max(), 900)
            ys = np.linspace(verts[:, 1].min(), verts[:, 1].max(), 900)
            xg, yg = np.meshgrid(xs, ys)
            inside = np.ones_like(xg, dtype=bool)
            v = verts              # counter-clockwise: the angles increase
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
        # the polygon oracle refuses a non-convex vertex list
        with pytest.raises(InvalidArgument):
            polygon([[-1, -1], [1, -1], [0.0, 0.1], [1, 1], [-1, 1]])

class TestZeroCurve:
    def test_disc_matches_bessel_zeros(self):
        disc = ft.ConvexBody2D.disc(1.0)
        for p in (1, 2, 3, 5):
            jp = special.jn_zeros(1, p)[-1]
            r, = ft.zero_curve(disc, p, [0.37])
            assert abs(r - jp) < 1e-6
            assert p * np.pi < jp < (p + 1) * np.pi

    def test_bracket_containment(self):
        ell = ft.ConvexBody2D.ellipse(1.0, 0.5)
        phis = np.linspace(0, np.pi, 9)
        for phi, r in zip(phis, ft.zero_curve(ell, 1, phis)):
            d = ell.width(phi)
            assert 2 * np.pi < d * r < 4 * np.pi

    def test_scan_equals_the_scalar_loop(self):
        # the 96-point scans of all rays are one transform call on a
        # (rays, 96, 2) array, each value the bits of indicator_ft at that
        # point, on the bracket of its own ray
        hexagon = symmetric_polygon([[1, 0], [0.5, 0.8], [-0.5, 0.8], [-1, 0],
                                     [-0.5, -0.8], [0.5, -0.8]])
        bodies = [ft.ConvexBody2D.disc(1.0), ft.ConvexBody2D.disc(0.37),
                  ft.ConvexBody2D.ellipse(1.0, 0.5), ft.ConvexBody2D.ellipse(3.0, 0.1),
                  ft.ConvexBody2D.square(0.7), hexagon]
        phis = np.linspace(0, np.pi, 16, endpoint=False)
        for body in bodies:
            scans = []
            spy = ft.ConvexBody2D(body.support, lambda u: scans.append(
                (np.array(u), np.array(body.transform(u)))) or scans[-1][1])
            for p in (1, 2, 3):
                scans.clear()
                ft.zero_curve(spy, p, phis)
                u, vals = scans[0]
                assert u.shape == (16, 96, 2)
                want = [[ft.indicator_ft(body, v).real for v in ray] for ray in u]
                assert [[v.hex() for v in ray] for ray in np.real(vals)] \
                    == [[v.hex() for v in ray] for ray in want]
                for ray, phi in zip(u, phis):
                    d = body.width(phi)
                    t = np.hypot(ray[:, 0], ray[:, 1])
                    assert np.allclose(t, np.linspace(2 * p * np.pi / d,
                                                      2 * (p + 1) * np.pi / d, 96),
                                       rtol=1e-15, atol=0)

    def test_angles_at_once_equal_one_at_a_time(self):
        # a sequence of angles gives one entry per angle, each the bits of
        # the call at that angle alone, a failure the same failure
        phis = np.pi * np.arange(64) / 64
        for body in (ft.ConvexBody2D.disc(1.0), ft.ConvexBody2D.ellipse(1.0, 0.5),
                     ft.ConvexBody2D.square(0.7)):
            for p in (1, 2, 5, 20):
                got = ft.zero_curve(body, p, phis)
                assert len(got) == 64
                for phi, r in zip(phis, got):
                    one, = ft.zero_curve(body, p, [phi])
                    if isinstance(r, ConvergenceFailure):
                        assert isinstance(one, ConvergenceFailure) and str(one) == str(r)
                    else:
                        assert isinstance(r, float)
                        assert r.hex() == one.hex()

    def test_ray_chunks_leave_the_zeros_alone(self, monkeypatch):
        # SYNTHESIS_ENTRIES // 96 rays a chunk: chunks of 1 and 3 rays give
        # the bits of one chunk of all
        phis = np.pi * np.arange(20) / 20
        for body in (ft.ConvexBody2D.disc(1.0), ft.ConvexBody2D.square(0.7)):
            want = ft.zero_curve(body, 2, phis)
            for entries in (96, 3 * 96 + 5):
                monkeypatch.setattr(ft, "SYNTHESIS_ENTRIES", entries)
                got = ft.zero_curve(body, 2, phis)
                assert [str(r) for r in got] == [str(r) for r in want]
            monkeypatch.undo()

    def test_zero_brackets_a_sign_change(self):
        # the bisection stops at adjacent doubles: at r_p and at one of its
        # neighbouring doubles the transform has opposite signs, or r_p is
        # a zero; r_p is the end of the smaller |transform|
        phis = np.pi * (np.arange(64) + 0.5) / 64
        e = np.stack((np.cos(phis), np.sin(phis)), axis=-1)
        for body in (ft.ConvexBody2D.disc(1.0), ft.ConvexBody2D.disc(1e100),
                     ft.ConvexBody2D.ellipse(1.0, 0.5), ft.ConvexBody2D.square(0.7)):
            for p in (1, 2, 5, 20):
                r = np.array(ft.zero_curve(body, p, phis))
                down, up = np.nextafter(r, 0), np.nextafter(r, np.inf)
                f, fd, fu = (ft.indicator_ft(body, t[:, None] * e).real
                             for t in (r, down, up))
                across = (np.signbit(f) != np.signbit(fd)) & (np.abs(f) <= np.abs(fd)) \
                    | (np.signbit(f) != np.signbit(fu)) & (np.abs(f) <= np.abs(fu))
                assert np.all((f == 0) | across), (body, p)

    def test_scan_keeps_the_frequency_cap(self):
        # a body narrow enough that its bracket passes |u| = INDICATOR_FT_UMAX
        with pytest.raises(InvalidArgument, match="need 0 < |u|"):
            ft.zero_curve(ft.ConvexBody2D.disc(1e-3), 1, [0.0])

    def test_asymmetric_rejected(self):
        # the oracle for zero_curve refuses a polygon without central symmetry
        with pytest.raises(InvalidArgument):
            symmetric_polygon([[-1, -0.8], [1.2, -0.5], [0.1, 1.0]])

    def test_square_off_symmetry_rays(self):
        # the product of two sines vanishes at t = k pi / (s|cos phi|) and
        # t = k pi / (s|sin phi|); off the rays phi = k pi / 4 the first of
        # these inside the bracket is a simple zero
        s = 0.7
        sq = ft.ConvexBody2D.square(s)
        k = np.arange(1, 40)
        for phi in (0.1, 0.5, 1.0, 2.0, 2.9, 4.0):
            d = sq.width(phi)
            zeros = np.concatenate([k * np.pi / (s * abs(np.cos(phi))),
                                    k * np.pi / (s * abs(np.sin(phi)))])
            for p in (1, 2, 3):
                lo, hi = 2 * p * np.pi / d, 2 * (p + 1) * np.pi / d
                want = zeros[(lo < zeros) & (zeros < hi)].min()
                assert abs(ft.zero_curve(sq, p, [phi])[0] - want) < 1e-9, (phi, p)

    def test_square_symmetry_rays_attain_the_bounds(self):
        # on the axes a simple zero sits at d r = 2p pi, the bracket's lower
        # end; on the diagonals both factors vanish at d r = 4 pi, its upper
        # end, a double zero without a sign change: no zero strictly inside
        s = 0.7
        sq = ft.ConvexBody2D.square(s)
        for i in range(8):
            phi = np.pi * i / 4
            e = np.array([np.cos(phi), np.sin(phi)])
            d = sq.width(phi)
            end = 2 * np.pi / d if i % 2 == 0 else 4 * np.pi / d
            assert abs(ft.indicator_ft(sq, end * e)) < 1e-12
            which = "lower" if i % 2 == 0 else "upper"
            r, = ft.zero_curve(sq, 1, [phi])
            assert isinstance(r, ConvergenceFailure)
            assert re.search(f"{which} end .*bound is attained", str(r))

    def test_square_symmetry_failures_are_returned(self, tmp_path):
        # four angles at once: four failure entries, lower and upper ends
        # in turn, and the same four failure lines from the CLI
        from xlab import cli
        phis = [np.pi * i / 4 for i in range(4)]
        got = ft.zero_curve(ft.ConvexBody2D.square(1.0), 1, phis)
        assert all(isinstance(r, ConvergenceFailure) for r in got)
        assert [str(r).split("'s ")[1].split(" end")[0] for r in got] \
            == ["lower", "upper", "lower", "upper"]
        out = tmp_path / "t.csv"
        assert cli.main(["indicator-zeros", "body=square", "phis=4", "--out", str(out)]) == 1
        assert out.read_text().splitlines()[6:] == [
            f"# failure: phi={phi:g}: {r}" for phi, r in zip(phis, got)]


class TestRadialFT:
    def test_zero_frequency_volume(self):
        prof = lambda s: np.ones_like(s)
        assert abs(ft.radial_ft(prof, 0.0) - 2.0) < 1e-12

    def test_hat_closed_form(self):
        prof = lambda s: 1.0 - s
        for r in (1.0, 3.0, 17.0):
            want = 2 * (1 - math.cos(r)) / r ** 2
            assert abs(ft.radial_ft(prof, r, knots=(1.0,)) - want) < 1e-9

    def test_hat_closed_form_frequency_array(self):
        # one call serves every frequency, with the layout of the largest
        prof = lambda s: 1.0 - s
        r = np.linspace(0.5, 60.0, 120).reshape(8, 15)
        got = ft.radial_ft(prof, r)
        assert got.shape == r.shape
        assert np.max(np.abs(got - 2 * (1 - np.cos(r)) / r ** 2)) < 1e-9

    def test_poly_transform_matches_quadrature(self):
        coeffs = [0.2, -1.0, 0.5, 1.5]
        prof = lambda s: np.polynomial.polynomial.polyval(s, coeffs)
        for r in (3.0, 12.0, 45.0):
            d0, d1 = ft.poly_boundary_derivs(np.asarray(coeffs, dtype=float))
            a = ft.cos_transform_boundary(d0, d1, r)
            b = ft.radial_ft(prof, r)
            assert abs(a - b) < 1e-10


class TestCrossRouteBodies:
    def test_ellipse_matches_fine_polygon(self):
        # the Bessel-function route and the Green's-theorem edge route
        # must agree when the polygon approximates the ellipse well
        a, b = 1.0, 0.5
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        poly = polygon(np.column_stack([a * np.cos(t), b * np.sin(t)]))
        ell = ft.ConvexBody2D.ellipse(a, b)
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = rng.uniform(-8, 8, 2)
            assert abs(ft.indicator_ft(ell, u)
                       - ft.indicator_ft(poly, u)) < 1e-5

    def test_zero_curve_agrees_between_routes(self):
        t = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        poly = symmetric_polygon(np.column_stack([np.cos(t), 0.5 * np.sin(t)]))
        ell = ft.ConvexBody2D.ellipse(1.0, 0.5)
        for phi in (0.0, 0.9):
            assert abs(ft.zero_curve(poly, 1, [phi])[0]
                       - ft.zero_curve(ell, 1, [phi])[0]) < 1e-4

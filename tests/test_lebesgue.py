import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlab import lebesgue as lb
from xlab import trig
from xlab.errors import ConvergenceFailure, InvalidArgument
from xlab.lebesgue import _full_series_poly, _polyval
from xlab.trig import (abel_poisson, bernstein, dirichlet, fejer, rogosinski,
                       vallee_poussin)

# pytest puts tests/ on sys.path
from test_trig import method_catalog, row_synthesize

UNIT_ROUNDOFF = 2.0 ** -53


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


def exact_real_dft(c, m):
    """(samples, error bound) of the row c_0..c_K on the M-grid by the
    direct sum a_0 + 2 sum_{k>=1} Re(a_k e^{2pi ijk/M}), a_k = (-1)^k c_k,
    each angle jk mod M reduced exactly to at most pi and looked up in a
    cos/sin table (as lebesgue._factors does), each sum by math.fsum.

    A table entry carries relative angle error u (pi, the product) times an
    angle of at most pi, plus 1 ulp (2u) for the function: e = (pi + 2)u.  A
    term 2(Re a cos - Im a sin) then errs by 2 sqrt(2) |a_k| (e + 2u), and
    the correctly rounded sum adds u |sum|."""
    u = UNIT_ROUNDOFF
    degree = c.size - 1
    a = ((-1.0) ** np.arange(degree + 1)) * np.asarray(c, dtype=complex)
    angle = np.pi / (m // 2) * np.arange(m // 2 + 1)
    cos, sin = np.cos(angle), np.sin(angle)
    k = np.arange(1, degree + 1)
    e = (np.pi + 2.0) * u
    term_err = 2.0 * math.sqrt(2.0) * (e + 2.0 * u) * float(np.sum(np.abs(a[1:])))
    values, errors = np.empty(m), np.empty(m)
    for j in range(m):
        q = j * k % m
        upper = q > m // 2                  # angle 2pi - x: cos x, -sin x
        q = np.where(upper, m - q, q)
        terms = 2.0 * (a[1:].real * cos[q] - a[1:].imag * np.where(upper, -sin[q], sin[q]))
        values[j] = math.fsum([a[0].real, *terms])
        errors[j] = term_err + u * abs(values[j])
    return values, errors


# ---------------------------------------------------------------------------
# the one-row engine (oracle): the scan on the M-grid, one synthesis per
# Taylor order and the antiderivative on the Taylor grid M/4, its own
# polish and sums
# ---------------------------------------------------------------------------

def two_sided_sum(a):
    """sum_{k=-K..K} |a_k| of the half a_0..a_K, a_{-k} = conj a_k."""
    return float(abs(a[0]) + 2.0 * np.sum(np.abs(a[1:])))


def _row_samples(a, m):
    vals = row_synthesize(a, m)
    return vals, (math.log2(m) + 2) * lb.FFT_STAGE_ERROR * two_sided_sum(a)


def _row_horner(taylor, s):
    p, dp = taylor[-1], np.zeros_like(s)
    for row in taylor[-2::-1]:
        dp = dp * s + p
        p = p * s + row
    return p, dp


def _row_polish(taylor, floor, lo, plo, phi):
    hi = lo + 0.25
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo + plo / (plo - phi) / 4
    s = np.where((secant > lo) & (secant < hi), secant, 0.5 * (lo + hi))
    best_s, best_p, best_dp = s, np.full_like(lo, np.inf), np.ones_like(lo)

    def keep(t):
        nonlocal best_s, best_p, best_dp
        p, dp = _row_horner(taylor, t)
        better = np.abs(p) < best_p
        best_s = np.where(better, t, best_s)
        best_p = np.where(better, np.abs(p), best_p)
        best_dp = np.where(better, np.abs(dp), best_dp)
        return p, dp

    # both ends of the scan cell, then Newton from the secant point
    keep(lo)
    keep(hi)
    for _ in range(lb.POLISH_STEPS):
        p, dp = keep(s)
        if np.all(best_p <= floor):
            break
        same = np.signbit(p) == np.signbit(plo)
        lo = np.where(same, s, lo)
        plo = np.where(same, p, plo)
        hi = np.where(same, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            sn = s - p / dp
        bad = ~np.isfinite(sn) | (sn < lo) | (sn > hi)
        s = np.where(bad, 0.5 * (lo + hi), sn)
    return best_s, best_p, best_dp, hi - lo


def one_row_l1(c, oversample=16, poly=(0.0,)):
    """(int |f|, bound) for one array c_0..c_K by the one-row engine."""
    c = np.asarray(c, dtype=complex)
    u = UNIT_ROUNDOFF
    kmax = c.size - 1
    k = np.arange(kmax + 1)
    m = 1 << max(6, int(math.ceil(math.log2(oversample * 2 * (kmax + 1)))))
    h = 2 * np.pi / m
    ht = 4 * h                              # the Taylor grid M/4
    order, rem = 0, kmax * ht
    while rem > u:
        order += 1
        rem *= kmax * ht / (order + 1)
    taylor_rem = rem * two_sided_sum(c)
    poly = np.asarray(poly, dtype=float)
    ipoly = np.concatenate(([0.0], poly / np.arange(1, poly.size + 1)))
    order = max(order, poly.size - 1)
    err_poly = (2 * poly.size + 2) * u * float(_polyval(np.abs(poly), 2 * np.pi + ht))
    err_ipoly = (2 * ipoly.size + 2) * u * float(_polyval(np.abs(ipoly), 2 * np.pi + ht))

    trig_vals, err_data = _row_samples(c, m)
    vals = np.append(trig_vals, trig_vals[0]) + _polyval(poly, h * np.arange(m + 1))
    idx = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    node = idx // 4
    ti = ht * node

    taylor = np.zeros((order + 1, idx.size))
    taylor[0] = trig_vals[4 * node]
    a, dpoly = c, poly
    for j in range(order + 1):
        if j and idx.size:
            a = a * (1j * ht / j) * k
            sampled, err = _row_samples(a, m // 4)
            taylor[j] = sampled[node]
            err_data += err
        taylor[j] += ht ** j * _polyval(dpoly, ti)
        dpoly = dpoly[1:] * np.arange(1, dpoly.size) / (j + 1)
    abs_taylor = np.sum(np.abs(taylor), axis=0)
    noise = taylor_rem + err_data + err_poly + (2 * order + 2) * u * abs_taylor
    s, resid, slope, width = _row_polish(taylor, noise, idx % 4 / 4, vals[idx], vals[idx + 1])
    rho = resid + noise
    with np.errstate(divide="ignore"):
        delta = ht * np.minimum(width, rho / slope)
    # an unconverged cell: twice its scan cell h_T/4 at |f| <= sum_j|d_j| + noise
    mislocation = float(np.sum(np.where(resid > noise, 2.0 * ht / 4 * (abs_taylor + noise),
                                        rho * delta)))

    anti = np.divide(c, 1j * k, out=np.zeros_like(c), where=k != 0)
    p_vals, err_anti = _row_samples(anti, m // 4)
    c0 = c[0].real
    integ, _ = _row_horner(taylor / np.arange(1, order + 2)[:, None], s)
    parts = np.array([
        np.concatenate(([-np.pi], ti - np.pi, [np.pi])) * c0,
        np.concatenate(([p_vals[0]], p_vals[node], [p_vals[0]])),
        _polyval(ipoly, np.concatenate(([0.0], ti, [2 * np.pi]))),
        np.concatenate(([0.0], ht * s * integ, [0.0])),
    ])
    value = math.fsum(np.abs(np.diff(np.sum(parts, axis=0))))
    scale = np.sum(np.abs(parts), axis=0) + np.concatenate(
        ([0.0], ht * abs_taylor, [0.0]))
    point_err = (err_anti + ht * (err_data + err_poly) + err_ipoly
                 + (2 * order + 8) * u * scale)
    rounding = 2.0 * float(np.sum(point_err)) + 2.0 * u * value
    return value, mislocation + 2.0 * idx.size * ht * taylor_rem + rounding


class TestLebesgueConstant:
    def test_dirichlet_zero(self):
        assert abs(lb.lebesgue_constant(trig.dirichlet(), 0).value - 1.0) < 1e-14

    def test_dirichlet_one_closed_form(self):
        # kernel 1 + 2cos t changes sign at 2pi/3
        want = 1.0 / 3.0 + 2.0 * math.sqrt(3) / math.pi
        s = lb.lebesgue_constant(trig.dirichlet(), 1)
        assert abs(s.value - want) < 1e-13
        assert s.quad_error < 1e-10

    def test_zeros_on_scan_nodes(self):
        # Rogosinski n = 2: 1 + sqrt(2) cos x has its zeros at +-3pi/4, nodes
        # of the M = 128 grid; its weight cos(pi/2) = 6e-17 at k = +-2 adds
        # at most 2|c_2| to the norm, and the closed form carries 2u.  The
        # polish takes the zero at the end of its cell, to a few u
        s, want = lb.lebesgue_constant(rogosinski(), 2), 0.5 + 2.0 / math.pi
        slack = 2.0 * abs(rogosinski().weights(2)[2]) + 2.0 * UNIT_ROUNDOFF * want
        assert abs(s.value - want) <= s.quad_error + slack
        assert abs(s.value - want) <= 4.0 * UNIT_ROUNDOFF * want
        assert s.quad_error <= 5e-14
        # Fejer n = 1: 1 + cos x has a double zero at the node pi
        s = lb.lebesgue_constant(fejer(), 1)
        assert abs(s.value - 1.0) <= s.quad_error
        # cos x - a, a = cos(pi - i pi/32), has its zeros at the scan nodes
        # i and 64 - i of M = 64, at i = 4, 8, 12 nodes of the Taylor grid
        # M/4 too; the closed form 2(2 sin x0 + a(pi - 2 x0)), x0 = arccos a,
        # is flat in x0 and carries a few u
        for i in (1, 2, 3, 4, 8, 12):
            a = math.cos(math.pi - i * math.pi / 32)
            value, err = lb.trig_poly_l1(np.array([-a, 0.5]))
            x0 = math.acos(a)
            want = 2.0 * (2.0 * math.sin(x0) + a * (math.pi - 2.0 * x0))
            assert abs(value - want) <= err + 8.0 * UNIT_ROUNDOFF * want
            assert abs(value - want) <= 16.0 * UNIT_ROUNDOFF * want

    @pytest.mark.parametrize("steps", [1, 2])
    def test_bound_holds_when_the_polish_is_cut_short(self, steps, monkeypatch):
        # cells still above their floor after the last pass are charged their
        # whole scan cell, not the bracket the polish left
        monkeypatch.setattr(lb, "POLISH_STEPS", steps)
        for n in (5, 17, 40, 100):
            value, err = lb.trig_poly_l1(dirichlet().weights(n))
            ref, rounding = fejer_dirichlet(n)
            assert abs(value / (2 * np.pi) - ref) <= err / (2 * np.pi) + rounding
        # cos x - a with its zeros at 1/4, 1/2 and 3/4 of a scan cell of M = 64
        for i in range(32):
            for frac in (0.25, 0.5, 0.75):
                a = math.cos(math.pi - (i + frac) * math.pi / 32)
                value, err = lb.trig_poly_l1(np.array([-a, 0.5]))
                x0 = math.acos(a)
                want = 2.0 * (2.0 * math.sin(x0) + a * (math.pi - 2.0 * x0))
                assert abs(value - want) <= err + 8.0 * UNIT_ROUNDOFF * want

    def test_fejer_is_one(self):
        for n in (0, 1, 7, 40):
            s = lb.lebesgue_constant(trig.fejer(), n)
            assert abs(s.value - 1.0) < 1e-10

    def test_projection_lower_bound(self):
        # operator norm dominates the weight of the constant term
        for method in method_catalog():
            for n in (0, 1, 4, 9):
                lam0 = abs(method.weights(n)[0])
                s = lb.lebesgue_constant(method, n)
                assert s.value >= lam0 - 1e-9

    def test_certification_honesty(self, monkeypatch):
        # doubling the scan resolution moves the value by less than the
        # reported error bound
        w = trig.dirichlet().weights(17)
        v1, e1 = lb.trig_poly_l1(w)
        monkeypatch.setattr(lb, "OVERSAMPLE", 32)
        v2, _ = lb.trig_poly_l1(w)
        assert abs(v1 - v2) <= max(e1, 1e-12)

    def test_bernstein_matches_rogosinski(self):
        # the half-shift average is the symmetric average's kernel shifted,
        # so their norms agree; exercises complex weights
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
            k = trig.synthesize(trig.dirichlet().weights(n), m)
            riemann = trig.grid_norm(k, 1) / (2 * np.pi)
            exact = lb.lebesgue_constant(trig.dirichlet(), n).value
            assert abs(riemann - exact) < 1e-6

    def test_non_hermitian_coefficients_rejected(self):
        # a half c_0..c_K stands for a Hermitian array unless c_0 is not
        # real: c_0 != conj c_0
        with pytest.raises(InvalidArgument):
            lb.trig_poly_l1(np.array([1j, 1.0]))

    def test_nearly_hermitian_coefficients_rejected(self):
        # Im c_0 = 1e-6 only: Im f = 1e-6 is not zero, and the engine takes
        # real kernels alone
        with pytest.raises(InvalidArgument):
            lb.trig_poly_l1(np.array([1 + 1e-6j, 1.0]))
        # one such row refuses the whole list
        with pytest.raises(InvalidArgument):
            lb.trig_poly_l1([dirichlet().weights(3), np.array([1 + 1e-6j, 1.0])])

    @pytest.mark.parametrize("c", [[np.nan], [1.0, np.inf], [1.0, 1e308, 1e308]],
                             ids=["nan", "inf", "sum-overflows"])
    def test_infinite_sum_of_moduli_refused_before_synthesis(self, c, monkeypatch):
        # sum|c_k| bounds every sample; where it is not finite the engine
        # refuses the array before any FFT, without a RuntimeWarning
        calls = []
        monkeypatch.setattr(lb, "synthesize", lambda c, m: calls.append(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument):
                lb.trig_poly_l1(c)
        assert calls == []

    @pytest.mark.parametrize("method", method_catalog(), ids=lambda m: m.name)
    def test_weights_are_exactly_hermitian(self, method):
        # the half layout holds the means because each rule gives
        # lambda_{n,-k} = conj lambda_{n,k} bit for bit; and every row the
        # tables hand the engine, in the stacks lebesgue_constant forms them
        # in, passes its check: lambda_{n,0} real
        ns = np.arange(3001)
        for chunk in lb.stacks([lb.grid_size(b) for b in method.band(ns).tolist()]):
            w = method.weights(ns[chunk])
            assert not np.any(w[:, 0].imag)
        k = np.arange(1, 4097)
        for n in (1, 2, 7, 64, 1000, 3000):
            w = np.asarray(method.rule(n, k), dtype=complex)
            assert np.array_equal(np.asarray(method.rule(n, -k), dtype=complex), np.conj(w))
        if method.name in ("bernstein", "rogosinski"):
            for n in (8192, 65536):
                k = np.arange(1, n + 1)
                assert np.array_equal(np.asarray(method.rule(n, -k), dtype=complex),
                                      np.conj(np.asarray(method.rule(n, k), dtype=complex)))


class TestOraclesAtScale:
    @pytest.mark.parametrize("n", [1, 17, 1024, 8192, 65536])
    def test_dirichlet_against_fejer_closed_form(self, n):
        value, err = lb.trig_poly_l1(trig.dirichlet().weights(n))
        ref, rounding = fejer_dirichlet(n)
        assert abs(value / (2 * np.pi) - ref) <= err / (2 * np.pi) + rounding

    @pytest.mark.parametrize("m", [2 ** p for p in range(6, 13)])
    def test_real_synthesis_within_rounding_bound(self, m):
        # the engine's charge per real sample, (log2 M + 2) eta sum|a_k| over
        # k = -K..K, covers the real inverse FFT's error
        rng = np.random.default_rng(m)
        half = rng.standard_normal(m // 2 - 1) + 1j * rng.standard_normal(m // 2 - 1)
        rows = [np.concatenate([rng.standard_normal(1), half])]
        # the engine's scan grid for degree m/32 - 1, its Taylor grid for m/8 - 1
        for n in (m // 32 - 1, m // 8 - 1):
            rows += [dirichlet().weights(n), bernstein().weights(n)]
        for c in rows:
            got = trig.synthesize(c, m)
            want, want_err = exact_real_dft(c, m)
            bound = (math.log2(m) + 2) * lb.FFT_STAGE_ERROR * two_sided_sum(c)
            assert np.max(np.abs(got - want) + want_err) <= bound

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
        shifted = w * np.exp(1j * np.arange(w.size) * tau)
        v0, e0 = lb.trig_poly_l1(w)
        v1, e1 = lb.trig_poly_l1(shifted)
        assert abs(v0 - v1) <= e0 + e1


def tail_coefficients(r, n):
    """kolmogorov_deviation's cosine-sum coefficients c_0..c_n."""
    k = np.arange(1, n + 1)
    return np.concatenate(([0.0], -((-1.0) ** k) * np.exp(-0.5j * np.pi * r)
                           / (2.0 * k ** float(r))))


class TestStackedEngine:
    """The list engine against the one-row oracle: every result == its own
    one-row run, bit for bit."""

    @pytest.mark.parametrize("method", method_catalog(), ids=lambda m: m.name)
    def test_every_method_at_n_0_to_130(self, method):
        ws = [method.weights(n) for n in range(131)]
        assert lb.trig_poly_l1(ws) == [one_row_l1(w) for w in ws]

    def test_polish_takes_at_most_five_passes(self, monkeypatch):
        # one Horner call a pass; started at the ends and the scan's secant,
        # the count does not depend on where the zeros fall
        passes, inside, horner, polish = [], [], lb._horner, lb._polish

        def counted_horner(taylor, s):
            if inside:
                passes[-1] += 1
            return horner(taylor, s)

        def counted_polish(*args):
            passes.append(0)
            inside.append(True)
            try:
                return polish(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(lb, "_horner", counted_horner)
        monkeypatch.setattr(lb, "_polish", counted_polish)
        for method in method_catalog():
            lb.trig_poly_l1([method.weights(n) for n in range(131)])
        for r in (1, 2, 3):
            for n in (63, 126, 252, 504):
                lb.kolmogorov_deviation(r, n)
        lb.trig_poly_l1([dirichlet().weights(1018), rogosinski().weights(510),
                         bernstein().weights(34), rogosinski().weights(34)])
        assert passes and max(passes) <= 5

    def test_one_scan_synthesis_then_the_taylor_grid(self, monkeypatch):
        # a Dirichlet row at n = 1018 samples its M = 32768 scan grid once;
        # its Taylor orders and antiderivative come from the grid M/4
        sizes = []

        def record(c, m):
            sizes.append(m)
            return trig.synthesize(c, m)

        monkeypatch.setattr(lb, "synthesize", record)
        lb.trig_poly_l1(dirichlet().weights(1018))
        assert sizes[0] == 32768 and sizes.count(32768) == 1
        assert len(sizes) > 1 and set(sizes[1:]) == {8192}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_kolmogorov_poly_path(self, r):
        poly = _full_series_poly(r)
        for n in (0, 1, 5, 64, 200):
            c = tail_coefficients(r, n)
            assert lb._stack_l1([c], lb.grid_size(n), poly) == [one_row_l1(c, 16, poly)]
        assert lb.kolmogorov_deviation(r, 64) == one_row_l1(
            tail_coefficients(r, 64), 16, poly)[0] / np.pi

    def test_zero_polynomial_costs_no_pass(self, monkeypatch):
        # the trigonometric rows evaluate no polynomial, on the scan grid,
        # per Taylor order or in the sum; the W^r tail kernel still does
        calls = []

        def counted(coeffs, t):
            calls.append(np.size(t))
            return _polyval(coeffs, t)

        monkeypatch.setattr(lb, "_polyval", counted)
        lb.trig_poly_l1([m.weights(n) for m in method_catalog() for n in (0, 1, 9, 130)])
        assert calls == []
        lb.kolmogorov_deviation(2, 64)
        assert max(calls) == lb.grid_size(64) + 1

    def test_negative_zero_scan_sample_counts_as_positive(self, monkeypatch):
        # Fejer's kernel at n = 8 is positive near x = 0; a -0.0 sample there
        # is no sign change, as +0.0 is
        def run(zero):
            def record(c, m):
                f = trig.synthesize(c, m)
                if m == lb.grid_size(8):
                    i = m // 2 + 3
                    assert (f[0, i - 1:i + 2] > 0).all()
                    f[0, i] = zero
                return f

            monkeypatch.setattr(lb, "synthesize", record)
            return lb.trig_poly_l1(fejer().weights(8))

        assert run(-0.0) == run(0.0)

    @pytest.mark.parametrize("entries", [1 << 17, 1 << 12, 1 << 9])
    def test_list_across_grid_sizes(self, entries, monkeypatch):
        # shuffled degrees on grids 64..8192, random arrays among
        # them; small stacks split the rows and the Taylor orders of a grid
        monkeypatch.setattr(lb, "SYNTHESIS_ENTRIES", entries)
        rng = np.random.default_rng(entries)
        ws = [m.weights(n) for m in method_catalog() for n in (0, 1, 3, 9, 40, 130, 250)]
        for band in rng.integers(1, 60, 12):
            half = rng.standard_normal(band) + 1j * rng.standard_normal(band)
            ws.append(np.concatenate([rng.standard_normal(1), half]))
        ws = [ws[i] for i in rng.permutation(len(ws))]
        assert len({lb.grid_size(w.size - 1) for w in ws}) >= 6
        assert lb.trig_poly_l1(ws) == [one_row_l1(w) for w in ws]
        assert lb.trig_poly_l1(ws) == [lb.trig_poly_l1(w) for w in ws]

    def test_sequence_of_n_records_each_failure(self):
        single = [lb.trig_poly_l1(dirichlet().weights(n))[1] / (2 * np.pi) for n in (1, 40)]
        tol = math.sqrt(single[0] * single[1])       # between the two bounds
        assert min(single) < tol < max(single)
        got = lb.lebesgue_constant(dirichlet(), range(1, 41), tol=tol)
        assert len(got) == 40
        for n, s in zip(range(1, 41), got):
            value, err = lb.trig_poly_l1(dirichlet().weights(n))
            if err / (2 * np.pi) > tol:
                assert isinstance(s, ConvergenceFailure)
                assert (s.best_estimate, s.error_estimate) == (value / (2 * np.pi),
                                                              err / (2 * np.pi))
                with pytest.raises(ConvergenceFailure):
                    lb.lebesgue_constant(dirichlet(), n, tol=tol)
            else:
                assert s == lb.lebesgue_constant(dirichlet(), n, tol=tol)
        assert any(isinstance(s, ConvergenceFailure) for s in got)
        assert not all(isinstance(s, ConvergenceFailure) for s in got)
        assert lb.lebesgue_constant(dirichlet(), []) == []
        with pytest.raises(InvalidArgument):
            lb.lebesgue_constant(dirichlet(), [3, -1])

    def test_cost_estimate_sums_the_grid_runs(self):
        # bisection over the runs of one grid size against the sum over n
        for method in (dirichlet(), vallee_poussin(), abel_poisson(), abel_poisson(0.5)):
            for nmin, nmax in ((0, 0), (0, 130), (37, 300), (5, 6)):
                grids = {n: lb.grid_size(method.band(n)) for n in range(nmin, nmax + 1)}
                last = {m: n for n, m in grids.items()}
                want = lb.ROW_SECONDS * len(grids)
                for n, m in grids.items():
                    # one synthesis on the M-grid, J + 1 on the Taylor grid M/4
                    order = lb._taylor_order(method.band(last[m]), 2 * np.pi / (m // 4))[0]
                    want += lb.ENGINE_SECONDS * (m * math.log2(m)
                                                 + (order + 1) * m // 4 * math.log2(m // 4))
                assert lb.table_cost(method, nmin, nmax)[1] == pytest.approx(want)

    def test_memory_estimate_bounds_traced_peak(self):
        # 64 rows of one stack each: the weights are built a stack at a time
        # (all at once they alone take 2 MB)
        for method, ns in ((dirichlet(), range(1, 99)), (dirichlet(), [4096]),
                           (abel_poisson(), range(150, 153)), (dirichlet(), range(960, 1024)),
                           (bernstein(), range(960, 1024))):
            tracemalloc.start()
            try:
                lb.lebesgue_constant(method, ns, tol=1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= lb.table_cost(method, min(ns), max(ns))[0]


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

    def test_n2_guard_allocates_nothing(self):
        # the x2 factor table alone would hold 65 x 8 (n2 + 1) entries
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgument, match=f"n2 <= {lb.HYPERBOLIC_NMAX}"):
                lb.rhombic_lebesgue(64, 64 * 2 ** 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


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
        (_, slope, _), _, _ = lb.hyperbolic_exponent(2.0, [64, 128])
        assert math.isfinite(slope)


def torus_mean_abs(index_set, m1, m2):
    """Mean of |sum_{k in index_set} e^{i k.x}| over the full m1 x m2 grid
    of the torus, term by term (no grouping, folding or closed form)."""
    x1 = 2 * np.pi * np.arange(m1)[:, None] / m1
    x2 = 2 * np.pi * np.arange(m2)[None, :] / m2
    kern = np.zeros((m1, m2))
    for k1, k2 in index_set:            # symmetric sets: the sines cancel
        kern += np.cos(k1 * x1 + k2 * x2)
    return float(np.mean(np.abs(kern)))


def unfolded_l1_2d(groups, n1, n2, oversample):
    """The 2-D pass with no diagonal fold: every row of tiles takes the
    whole quarter grid's width, in the pass's square tiles."""
    lo1, hi1, c1, deg, c2 = (np.array(v) for v in zip(*groups))
    h1, h2 = oversample * (n1 + 1), oversample * (n2 + 1)
    amat, bmat = lb._factors(h1, c1, lo1, hi1).T, lb._factors(h2, c2, 1, deg)
    w1, w2 = lb._fold_weights(h1), lb._fold_weights(h2)
    side = math.isqrt(2 * lb.SYNTHESIS_ENTRIES)
    totals = np.zeros(2)
    for start in range(0, h1 + 1, side):
        acc = np.zeros((amat[start:start + side].shape[0], 2))
        for lo in range(0, h2 + 1, side):
            tile = amat[start:start + side] @ bmat[:, lo:lo + side]
            np.abs(tile, out=tile)
            acc += tile @ w2[lo:lo + side]
        totals += np.sum(w1[start:start + side] * acc, axis=0)
    return totals[0] / (4 * h1 * h2), totals[1] / (h1 * h2)


def group_weights(groups):
    """Dense weights W[k1, k2], k >= 0, of the cosine products the groups
    stand for: the term by term reading of A_g(x1) B_g(x2)."""
    size = 1 + max(max(g[1], g[3]) for g in groups)
    out = np.zeros((size, size))
    for lo1, hi1, c1, deg, c2 in groups:
        a, b = np.zeros(size), np.zeros(size)
        a[0], a[lo1:hi1 + 1], b[0], b[1:deg + 1] = c1, 1.0, c2, 1.0
        out += np.outer(a, b)
    return out


class TestTwoDimensionalPass:
    @pytest.mark.parametrize("h,kind,args", [
        (8 * 1017, "x1", lb._hyperbolic_groups(1.0, 1016)),
        (8 * 1017, "x2", lb._hyperbolic_groups(1.0, 1016)),
        (4 * 4097, "x2", lb._hyperbolic_groups(2.0, 4096)),
        (8 * 4, "x1", lb._rhombic_groups(3, 9)),
        (8 * 10, "x2", lb._rhombic_groups(3, 9)),
        (8 * 509, "x1", lb._hyperbolic_groups(1.0, 508)),
        (8 * 509, "x2", lb._hyperbolic_groups(1.0, 508)),
        (4 * 46, "x1", lb._hyperbolic_groups(2.0, 2068)),
        (4 * 2069, "x2", lb._hyperbolic_groups(2.0, 2068)),
        # angle indices past 2^31 take int64
        (8, "x1", [(2 ** 28, 2 ** 28 + 5, 0.0, 1, 0.0), (1, 3, 1.0, 1, 0.0)]),
    ])
    def test_factor_table_equals_direct_angles(self, h, kind, args):
        # the table of cos and sin over every multiple of pi/2h must give
        # the bits of evaluating each reduced angle where it is needed
        lo1, hi1, c1, deg, c2 = (np.array(v) for v in zip(*args))
        const, lo, hi = (c1, lo1, hi1) if kind == "x1" else (c2, 1, deg)
        got = lb._factors(h, const, lo, hi)
        const, lo, hi = (np.reshape(v, (-1, 1)) for v in (const, lo, hi))
        i, step = np.arange(h + 1), np.pi / (2 * h)
        want = np.cos(step * ((lo + hi) * i % (4 * h)))
        want *= np.sin(step * ((hi - lo + 1) * i % (4 * h)))
        want[:, 1:] *= 2.0 / np.sin(step * i[1:])
        want[:, :1] = 2.0 * (hi - lo + 1)
        want += const
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile", [2 * lb.SYNTHESIS_ENTRIES, 1 << 12])
    @pytest.mark.parametrize("case", ["hyperbolic-64", "hyperbolic-256", "rhombic-8-8"])
    def test_fold_matches_full_pass(self, case, tile, monkeypatch):
        # small tiles (side 64) fold the small grids too
        monkeypatch.setattr(lb, "SYNTHESIS_ENTRIES", tile // 2)
        if case == "rhombic-8-8":
            s = lb.rhombic_lebesgue(8, 8)
            got = (s.value, s.quad_error)
            groups, n, oversample = lb._rhombic_groups(8, 8), 8, lb.RHOMBIC_OVERSAMPLE
        else:
            n = int(case.split("-")[1])
            got = lb.hyperbolic_l1(1.0, n)
            groups, oversample = lb._hyperbolic_groups(1.0, n), 8
        assert lb._self_conjugate(*(np.array(v) for v in zip(*groups)))
        fine, coarse = unfolded_l1_2d(groups, n, n, oversample)
        assert abs(got[0] - fine) <= 1e-14 * fine
        assert abs(got[1] - abs(fine - coarse)) <= 1e-14 * fine

    @pytest.mark.parametrize("groups,n1,n2", [
        (lb._rhombic_groups(4, 8), 8, 8),         # a rhombus that is no square
        (lb._hyperbolic_groups(2.0, 64), 64, 64),  # k1^2 k2 <= 64
        ([(1, 2, 0.0, 2, 0.0), (3, 3, 0.0, 1, 1.0)], 3, 3),   # mixed constants
        ([(1, 1, 0.0, 2, 0.0), (3, 3, 0.0, 1, 0.0)], 3, 3),   # a gap at k1 = 2
        (lb._hyperbolic_groups(1.0, 16), 16, 40),  # a symmetric set, unequal grids
    ])
    def test_asymmetric_input_takes_the_full_pass(self, groups, n1, n2, monkeypatch):
        monkeypatch.setattr(lb, "SYNTHESIS_ENTRIES", 1 << 7)     # side 16
        assert lb._grouped_l1_2d(groups, n1, n2, 8) == unfolded_l1_2d(groups, n1, n2, 8)

    def test_symmetry_test_against_dense_weights(self):
        # sound on arbitrary group lists, and exact on degree staircases
        rng = np.random.default_rng(13)
        for trial in range(400):
            c = float(trial % 2)
            first, size = 1 - trial % 2, int(rng.integers(1, 9))
            # nonempty rows k1 = first..size of x2-degrees d[k1 - first]
            d = np.sort(rng.integers(first, size + 1, size + 1 - first))[::-1]
            if trial % 4 < 2:               # symmetrize: the set with its transpose
                cells = first + np.arange(d.size)[None, :] <= d[:, None]
                cells |= cells.T
                d = first + cells.sum(axis=1) - 1
            groups = lb._degree_groups(range(first, size + 1),
                                       lambda k: int(d[k - first]), c)
            w = group_weights(groups)
            assert lb._self_conjugate(*(np.array(v) for v in zip(*groups))) \
                == np.array_equal(w, w.T), groups
            # one bound off by one, or one constant changed
            mangled = np.array(groups)
            g, field = int(rng.integers(len(groups))), int(rng.integers(5))
            mangled[g, field] += 1.0 - 2 * mangled[g, field] if field in (2, 4) \
                else rng.choice([-1, 1])
            mangled = [(int(a), int(b), c1, int(d), c2) for a, b, c1, d, c2 in mangled]
            if min(min(g[0] - 1, g[1] - g[0] + 1, g[3]) for g in mangled) < 0:
                continue                    # not a valid group list
            w = group_weights(mangled)
            if lb._self_conjugate(*(np.array(v) for v in zip(*mangled))):
                assert np.array_equal(w, w.T), mangled

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
        (lb._rhombic_groups(4, 4), 4, 4, 8),
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

    @pytest.mark.parametrize("tile", [2 * lb.SYNTHESIS_ENTRIES, 1 << 8])
    def test_square_rhombic_against_dense_torus(self, tile, monkeypatch):
        monkeypatch.setattr(lb, "SYNTHESIS_ENTRIES", tile // 2)   # 1 << 8: side 16
        s = lb.rhombic_lebesgue(3, 3)       # oversample 8: m = 16 (n + 1)
        ks = [(k1, k2) for k1 in range(-3, 4) for k2 in range(-3, 4)
              if abs(k1) + abs(k2) <= 3]
        fine = torus_mean_abs(ks, 64, 64)
        coarse = torus_mean_abs(ks, 32, 32)
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

    @pytest.mark.parametrize("alpha,n,m1,m2", [
        (2.0, 32, 96, 528),     # 49 x 265 quarter grid: ragged rows and columns
        (1.0, 8, 144, 144),     # symmetric, 73 x 73: diagonal squares 20, 20, 20, 13
    ])
    def test_ragged_tiles_against_dense_torus(self, alpha, n, m1, m2, monkeypatch):
        # tiles of side 20, which divides neither side of the quarter grid;
        # a symmetric set's rows of tiles start on the diagonal, so each
        # column tiling begins past a diagonal square and ends ragged
        monkeypatch.setattr(lb, "SYNTHESIS_ENTRIES", 200)
        v, err = lb.hyperbolic_l1(alpha, n)
        kmax1 = int(n ** (1.0 / alpha) + 1e-9)
        groups = lb._hyperbolic_groups(alpha, n)
        assert lb._self_conjugate(*(np.array(g) for g in zip(*groups))) == (kmax1 == n)
        ks = [(k1, k2) for k1 in range(-kmax1, kmax1 + 1) for k2 in range(-n, n + 1)
              if k1 and k2 and abs(k1) ** alpha * abs(k2) <= n]
        fine = torus_mean_abs(ks, m1, m2)
        coarse = torus_mean_abs(ks, m1 // 2, m2 // 2)
        assert abs(v - fine) <= 1e-13 * fine
        assert abs(err - abs(fine - coarse)) <= 1e-13 * fine

    def test_peak_memory(self):
        tracemalloc.start()
        try:
            lb.hyperbolic_l1(1.0, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two 62 x 8137 factor tables and their index arrays peak at
        # 16.6 MB; 8 MB blocks of |K| on top of them took 24 MB
        assert peak < 20 * 2 ** 20


class TestIndependentQuadratureOracle:
    def test_trig_poly_l1_against_scipy(self):
        # adaptive quadrature of |K| is a fully independent route
        from scipy import integrate
        for method, n in ((trig.dirichlet(), 7), (trig.rogosinski(), 5),
                          (trig.cesaro(0.5), 6), (trig.riesz(1, 2), 9)):
            w = method.weights(n)
            value, err = lb.trig_poly_l1(w)

            def absk(t):
                k = np.arange(1, w.size)
                return abs(w[0].real + 2.0 * (np.exp(1j * k * t) @ w[1:]).real)

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
            w = np.concatenate([rng.standard_normal(1), half])
            value, err = lb.trig_poly_l1(w)
            m = 1 << 18
            k = trig.synthesize(w, m)
            riemann = trig.grid_norm(k, 1)
            assert abs(value - riemann) < 1e-5 * max(1.0, riemann)

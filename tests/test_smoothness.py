import math
import tracemalloc

import numpy as np
import pytest
import mpmath as mp
from hypothesis import given, settings, strategies as st
from scipy import special

from xlab import corpus, smoothness as sm, trig
from xlab.errors import InvalidArgument

# pytest puts tests/ on sys.path
from test_trig import row_band, row_weights

SAWTOOTH = ["abs_sin", "triangle", "zigzag", "cusp_pair",
            "shifted_triangle", "sqrt_kink"]


def _difference(values, j, r):
    """The roll-based r-th difference with shift j grid cells (the oracle)."""
    d = np.asarray(values)
    for _ in range(r):
        d = d - np.roll(d, -j)
    return d


def _reference_moduli(f, r, h):
    """(omega_r(f; h), its linearization) one step bound and one shift at a
    time, as the moduli were computed before the difference stack."""
    step = 2 * np.pi / f.size
    jmax = int(np.floor(h / step + 1e-12))
    omega = max(trig.grid_norm(_difference(f.values, j, r))
                for j in range(1, jmax + 1))
    stack = np.stack([_difference(f.values, j, r) for j in range(jmax + 1)])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    avg = trapezoid(stack, dx=step, axis=0) / (jmax * step)
    return omega, trig.grid_norm(avg)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.sampled_from([64, 256, 1024]), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_array_steps_equal_the_roll_oracle(m, r, seed, fractions):
    # step bound by step bound, for h anywhere in [one grid cell, pi],
    # including the end points: the modulus bit-identical, the averaged one
    # (a Fourier multiplier, summed in another order) within
    # 2^r log2(m) eps max|f|; 300 seeded draws stayed within 0.43 of it
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(m)
    f = trig.SampledFunction(values)
    step = 2 * np.pi / m
    hs = np.array([step, np.pi] + [step + (np.pi - step) * u for u in fractions])
    omega = sm.modulus(f, r, hs)
    omega_tilde = sm.linearized_modulus(f, r, hs)
    assert omega.shape == omega_tilde.shape == hs.shape
    bound = 2 ** r * math.log2(m) * np.finfo(float).eps * np.max(np.abs(values))
    for h, w, wt in zip(hs, omega, omega_tilde):
        ref_w, ref_wt = _reference_moduli(f, r, h)
        assert w == ref_w, (m, r, h)
        assert abs(wt - ref_wt) <= bound, (m, r, h)


# the trigonometric polynomials of the corpus as (sine or cosine, k, amplitude)
TRIG_POLYS = {
    "sin": [("s", 1, 1.0)], "cos3": [("c", 3, 1.0)],
    "trigpoly": [("s", 1, 1.0), ("c", 2, 0.5), ("s", 5, -0.25)],
    "beat": [("s", 8, 0.5), ("s", 6, -0.5)],                # sin x cos 7x
    "ripple": [("s", 17, 0.2), ("c", 2, 1.0)],
    "slow_sine": [("s", 1, 0.75), ("s", 3, -0.25)],         # sin^3 x
}


def _mp_averaged_modulus(name, m, r, jmax):
    """The sup over the m-grid of (1/J) sum_{j<=J} w_j Delta_{j delta}^r f
    (trapezoid weights w_j) for the exact trigonometric polynomial, at 40
    digits: e^{ikx} is multiplied by (1/J) sum_j w_j (1 - e^{ikj delta})^r,
    summed term by term."""
    coeffs = {}
    for kind, k, amp in TRIG_POLYS[name]:
        a = mp.mpf(amp) / 2 / (1j if kind == "s" else 1)
        coeffs[k] = coeffs.get(k, 0) + a
        coeffs[-k] = coeffs.get(-k, 0) + (-a if kind == "s" else a)
    xs = [-mp.pi + 2 * mp.pi * mp.mpf(l) / m for l in range(m)]
    out = []
    for big_j in jmax:
        mult = {k: sum((mp.mpf(1) / 2 if j in (0, big_j) else 1)
                       * (1 - mp.expjpi(2 * mp.mpf(k) * j / m)) ** r
                       for j in range(big_j + 1)) / big_j for k in coeffs}
        out.append(max(abs(sum(c * mult[k] * mp.expj(k * x) for k, c in coeffs.items()))
                       for x in xs))
    return out


@pytest.mark.parametrize("name", list(TRIG_POLYS))
def test_averaged_modulus_against_40_digit_reference(name):
    # the multiplier route against the exact averaged difference, at the
    # smallest and the largest default step bound; the samples' own rounding
    # is part of the gap, so the bound is that of the roll-oracle test
    m, hs = 256, np.pi / np.array([16.0, 2.0])
    f = corpus.sampled(name, m)
    for r in (1, 2, 3):
        with mp.workdps(40):
            ref = _mp_averaged_modulus(name, m, r, [m // 32, m // 4])
        bound = 2 ** r * math.log2(m) * np.finfo(float).eps * np.max(np.abs(f.values))
        for got, want in zip(sm.linearized_modulus(f, r, hs), ref):
            assert abs(mp.mpf(got) - want) <= bound, (r, got, want)


def test_scalar_and_shaped_steps():
    f = corpus.sampled("abs_sin", 256)
    hs = np.pi / np.array([[16.0, 8.0], [4.0, 2.0]])
    for fn in (sm.modulus, sm.linearized_modulus):
        table = fn(f, 2, hs)
        assert table.shape == (2, 2)
        scalar = fn(f, 2, float(hs[1, 0]))
        assert type(scalar) is float and scalar == table[1, 0]


class TestModulus:
    def test_constant_vanishes(self):
        f = trig.SampledFunction(np.full(64, 3.7))
        assert sm.modulus(f, 1, 1.0) == 0.0
        assert sm.linearized_modulus(f, 2, 1.0) == 0.0

    def test_sine_first_order(self):
        f = corpus.sampled("sin", 256)
        got = sm.modulus(f, 1, np.pi / 4)
        want = 2 * math.sin(np.pi / 8)
        assert abs(got - want) <= 2 * (2 * np.pi / 256)

    def test_sine_second_order_taylor(self):
        m = 256
        f = corpus.sampled("sin", m)
        h = 2 * np.pi / m
        ratio = sm.modulus(f, 2, h) / h ** 2
        assert abs(ratio - 1.0) < 0.05

    def test_step_guard(self):
        f = corpus.sampled("sin", 64)
        with pytest.raises(InvalidArgument):
            sm.modulus(f, 1, 0.01)

    def test_nondecreasing_in_h(self):
        f = corpus.sampled("lacunary", 512)
        hs = [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2]
        vals = [sm.modulus(f, 1, h) for h in hs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_doubling_inequality_exact(self):
        for r in (1, 2, 3):
            for name, f in corpus.continuity_corpus(512):
                for h in (np.pi / 8, np.pi / 4, np.pi / 2):
                    w1 = sm.modulus(f, r, h)
                    w2 = sm.modulus(f, r, 2 * h)
                    assert w2 <= 2 ** r * w1 + 1e-12


# out-of-range arguments are rejected where they enter: the order by the
# difference, the step bound by the grid-step count, t and r by the K-functional
@pytest.mark.parametrize("fn", [sm.modulus, sm.linearized_modulus])
@pytest.mark.parametrize("r,h", [(0, np.pi / 4), (1, 0.0), (1, -1.0),
                                 (1, np.pi + 0.1), (1, [np.pi / 4, 0.01]),
                                 (1, [np.pi / 4, np.nan]), (1, [])])
def test_moduli_reject_out_of_range(fn, r, h):
    f = corpus.sampled("sin", 64)
    with pytest.raises(InvalidArgument):
        fn(f, r, h)


@pytest.mark.parametrize("t,r", [(0.0, 2), (1.5, 2), (0.5, 0)])
def test_k_functional_rejects_out_of_range(t, r):
    f = corpus.sampled("sin", 64)
    with pytest.raises(InvalidArgument):
        sm.k_functional(f, t, r)


class TestLinearizedModulus:
    def test_dominated_exactly(self):
        for name, f in corpus.continuity_corpus(512):
            for r in (1, 2):
                for h in (np.pi / 8, np.pi / 2):
                    assert sm.linearized_modulus(f, r, h) \
                        <= sm.modulus(f, r, h) + 1e-12

    def test_strict_for_sine(self):
        f = corpus.sampled("sin", 256)
        h = np.pi / 4
        assert sm.linearized_modulus(f, 1, h) < sm.modulus(f, 1, h) - 1e-3

    def test_averaging_implication(self):
        # if omega_r(f; delta) <= delta^r on every grid step then the
        # averaged modulus obeys the 1/(r+1) bound on the test grid
        m = 1024
        step = 2 * np.pi / m
        hs = [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2]
        for r in (1, 2):
            for name in ("sin", "abs_sin", "lacunary", "exp_cos"):
                f = corpus.sampled(name, m)
                deltas = np.arange(1, int(hs[-1] / step) + 1) * step
                scale = np.max(sm.modulus(f, r, deltas) / deltas ** r)
                if scale == 0:
                    continue
                vals = f.values / scale ** (1.0)
                g = trig.SampledFunction(vals)
                for h in hs:
                    wt = sm.linearized_modulus(g, r, h)
                    assert wt <= h ** r / (r + 1) * (1 + 1e-6), (r, name, h)


class TestJackson:
    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(11)
        f = trig.SampledFunction(trig.synthesize(rng.standard_normal(17), 512))
        r = sm.jackson_two_sided(f, 1, 16)
        assert r["approx_error"] <= 1e-9

    def test_sawtooth_band(self):
        # frozen from the corpus run: ratios lie in [0.43, 0.70]
        for name, f in corpus.jackson_corpus(2048):
            if name not in SAWTOOTH:
                continue
            for n in (16, 64, 256):
                ratio = sm.jackson_two_sided(f, 1, n)["ratio"]
                assert 1.0 / 40.0 <= ratio <= 40.0


def loop_k_functional(f, t, r):
    """k_functional one candidate at a time: the weights within the band
    times c, a synthesis of c for each candidate."""
    m, degree = f.size, f.size // 2 - 1
    c = trig.compute_coefficients(f, degree)
    vp, best, n = trig.vallee_poussin(), trig.grid_norm(f.values), 1
    while n <= 4.0 / t and row_band(vp, n) <= degree:
        band = row_band(vp, n)
        g = row_weights(vp, n, band) * c[:band + 1]
        err = trig.grid_norm(trig.synthesize(c, m) - trig.synthesize(g, m))
        deriv = trig.grid_norm(trig.synthesize(sm.spectral_derivative(g, r), m))
        best = min(best, err + (t ** r) * deriv)
        n *= 2
    deriv = trig.grid_norm(trig.synthesize(sm.spectral_derivative(c, r), m))
    return min(best, (t ** r) * deriv)


class TestKFunctional:
    def test_equals_the_per_candidate_loop(self):
        rng = np.random.default_rng(21)
        fs = [corpus.sampled(name, m) for name in ("exp_cos", "abs_sin", "zigzag")
              for m in (4, 64, 1024)]
        fs += [trig.SampledFunction(rng.standard_normal(m)) for m in (8, 256)]
        for f in fs:
            for t in (1.0, 0.5, 1.0 / 16, 0.01):
                for r in (1, 2, 3):
                    assert sm.k_functional(f, t, r) == loop_k_functional(f, t, r)

    def test_spectral_derivative_keeps_the_half(self):
        # c_0..c_K to (ik)^r c_k, k = 0..K: the last axis unchanged
        c = np.array([[2.0, 1.0 + 1.0j, -0.5j], [1.0, 0.0, 3.0]])
        d = sm.spectral_derivative(c, 2)
        assert d.shape == c.shape
        assert np.array_equal(d, c * np.array([0.0, -1.0, -4.0]))

    def test_competitor_zero(self):
        f = corpus.sampled("exp_cos", 256)
        k = sm.k_functional(f, 0.5, 2)
        assert k <= trig.grid_norm(f.values) + 1e-12

    def test_competitor_self(self):
        rng = np.random.default_rng(13)
        f = trig.SampledFunction(trig.synthesize(rng.standard_normal(9), 256))
        deriv = trig.grid_norm(trig.synthesize(
            sm.spectral_derivative(trig.compute_coefficients(f, 8), 2), 256))
        k = sm.k_functional(f, 1.0, 2)
        assert k <= deriv + 1e-9

    def test_constant_is_zero(self):
        f = trig.SampledFunction(np.full(64, 5.0))
        for t in (1.0, 0.25, 0.03):
            assert sm.k_functional(f, t, 2) < 1e-12

    def test_band_against_averaged_modulus(self):
        # frozen corpus constants: k/omega~_2 observed within [1.1, 3.3]
        f = corpus.sampled("sin", 1024)
        t = 1.0 / 16
        k = sm.k_functional(f, t, 2)
        w = sm.linearized_modulus(f, 2, t)
        assert 1.0 <= k / w <= 3.5


class TestSharpConstant:
    def test_value_against_independent_quadratures(self):
        a = sm.bernstein_mean_sharp_constant()
        si_scipy = special.sici(np.pi)[0]
        a_ref = 1.0 / (2.0 + 4.0 / np.pi * si_scipy)
        assert abs(a - a_ref) < 1e-6
        # power series of the sine integral as a second independent route
        si_series = sum((-1) ** k * np.pi ** (2 * k + 1)
                        / ((2 * k + 1) * math.factorial(2 * k + 1))
                        for k in range(20))
        assert abs(a - 1.0 / (2.0 + 4.0 / np.pi * si_series)) < 1e-6

    def test_sanity_bound(self):
        assert sm.bernstein_mean_sharp_constant() < 0.25

    def test_lower_bound_on_corpus(self):
        a = sm.bernstein_mean_sharp_constant()
        for name, f in corpus.continuity_corpus(2048):
            for n in (8, 32, 128):
                err = sm.bernstein_mean_error(f, n)
                w = sm.modulus(f, 1, np.pi / n)
                assert a * w <= err + 1e-9, (name, n)


def test_modulus_profile_pairs():
    f = corpus.sampled("abs_sin", 512)
    for h in (np.pi / 8, np.pi / 4):
        omega = sm.modulus(f, 1, h)
        omega_tilde = sm.linearized_modulus(f, 1, h)
        assert 0 < omega_tilde <= omega


@pytest.mark.parametrize("m,hdenom", [(256, 1), (1024, 2), (1024, 64)])
def test_memory_estimate_bounds_traced_peak(m, hdenom):
    # the cost model behind the moduli guard, against what numpy allocates
    f = corpus.sampled("sin", m)
    for r in range(1, 7):
        for fn in (sm.modulus, sm.linearized_modulus):
            tracemalloc.start()
            try:
                fn(f, r, np.pi / hdenom)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= sm.moduli_cost(m, r, m // (2 * hdenom), 1)[0], (fn, r)


def test_linearized_modulus_peak_stays_small():
    # one FFT and one step bound's multiplier at a time: the difference
    # stacks of every shift (2 GB here) are never formed
    f = corpus.sampled("sin", 16384)
    tracemalloc.start()
    try:
        sm.linearized_modulus(f, 3, np.pi / 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20

import math

import numpy as np
import pytest
from scipy import special

from xlab import corpus, smoothness as sm, trig
from xlab.errors import InvalidArgument

SAWTOOTH = ["abs_sin", "triangle", "zigzag", "cusp_pair",
            "shifted_triangle", "sqrt_kink"]


class TestModulus:
    def test_constant_vanishes(self):
        f = trig.SampledFunction(np.full(64, 3.7))
        assert sm.modulus(f, sm.ModulusSpec(1, 1.0)) == 0.0
        assert sm.linearized_modulus(f, sm.ModulusSpec(2, 1.0)) == 0.0

    def test_sine_first_order(self):
        f = corpus.sampled("sin", 256)
        got = sm.modulus(f, sm.ModulusSpec(1, np.pi / 4))
        want = 2 * math.sin(np.pi / 8)
        assert abs(got - want) <= 2 * (2 * np.pi / 256)

    def test_sine_second_order_taylor(self):
        m = 256
        f = corpus.sampled("sin", m)
        h = 2 * np.pi / m
        ratio = sm.modulus(f, sm.ModulusSpec(2, h)) / h ** 2
        assert abs(ratio - 1.0) < 0.05

    def test_step_guard(self):
        f = corpus.sampled("sin", 64)
        with pytest.raises(InvalidArgument):
            sm.modulus(f, sm.ModulusSpec(1, 0.01))

    def test_nondecreasing_in_h(self):
        f = corpus.sampled("lacunary", 512)
        hs = [np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2]
        vals = [sm.modulus(f, sm.ModulusSpec(1, h)) for h in hs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_doubling_inequality_exact(self):
        for r in (1, 2, 3):
            for name, f in corpus.continuity_corpus(512):
                for h in (np.pi / 8, np.pi / 4, np.pi / 2):
                    w1 = sm.modulus(f, sm.ModulusSpec(r, h))
                    w2 = sm.modulus(f, sm.ModulusSpec(r, 2 * h))
                    assert w2 <= 2 ** r * w1 + 1e-12


class TestLinearizedModulus:
    def test_dominated_exactly(self):
        for name, f in corpus.continuity_corpus(512):
            for r in (1, 2):
                for h in (np.pi / 8, np.pi / 2):
                    spec = sm.ModulusSpec(r, h)
                    assert sm.linearized_modulus(f, spec) \
                        <= sm.modulus(f, spec) + 1e-12

    def test_strict_for_sine(self):
        f = corpus.sampled("sin", 256)
        spec = sm.ModulusSpec(1, np.pi / 4)
        assert sm.linearized_modulus(f, spec) < sm.modulus(f, spec) - 1e-3

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
                scale = max(sm.modulus(f, sm.ModulusSpec(r, d)) / d ** r
                            for d in deltas)
                if scale == 0:
                    continue
                vals = f.values / scale ** (1.0)
                g = trig.SampledFunction(vals)
                for h in hs:
                    wt = sm.linearized_modulus(g, sm.ModulusSpec(r, h))
                    assert wt <= h ** r / (r + 1) * (1 + 1e-6), (r, name, h)


class TestJackson:
    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(11)
        c = trig.TrigCoefficients(8, rng.standard_normal(17))
        f = trig.synthesize(c, 512)
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


class TestKFunctional:
    def test_competitor_zero(self):
        f = corpus.sampled("exp_cos", 256)
        k = sm.k_functional(f, sm.KFunctionalSpec(0.5, 2))
        assert k <= trig.grid_norm(f) + 1e-12

    def test_competitor_self(self):
        rng = np.random.default_rng(13)
        c = trig.TrigCoefficients(4, rng.standard_normal(9))
        f = trig.synthesize(c, 256)
        deriv = trig.grid_norm(trig.synthesize(
            sm.spectral_derivative(trig.compute_coefficients(f, 8), 2), 256))
        k = sm.k_functional(f, sm.KFunctionalSpec(1.0, 2))
        assert k <= deriv + 1e-9

    def test_constant_is_zero(self):
        f = trig.SampledFunction(np.full(64, 5.0))
        for t in (1.0, 0.25, 0.03):
            assert sm.k_functional(f, sm.KFunctionalSpec(t, 2)) < 1e-12

    def test_band_against_averaged_modulus(self):
        # frozen corpus constants: k/omega~_2 observed within [1.1, 3.3]
        f = corpus.sampled("sin", 1024)
        t = 1.0 / 16
        k = sm.k_functional(f, sm.KFunctionalSpec(t, 2))
        w = sm.linearized_modulus(f, sm.ModulusSpec(2, t))
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
                w = sm.modulus(f, sm.ModulusSpec(1, np.pi / n))
                assert a * w <= err + 1e-9, (name, n)


def test_modulus_profile_pairs():
    f = corpus.sampled("abs_sin", 512)
    for h in (np.pi / 8, np.pi / 4):
        omega = sm.modulus(f, sm.ModulusSpec(1, h))
        omega_tilde = sm.linearized_modulus(f, sm.ModulusSpec(1, h))
        assert 0 < omega_tilde <= omega

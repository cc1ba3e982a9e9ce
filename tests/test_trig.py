import math

import numpy as np
import pytest

from xlab import trig
from xlab.errors import InvalidArgument, NotFound


def sampled(fn, m=64):
    return trig.SampledFunction.from_callable(fn, m)


class TestCoefficients:
    def test_cosine(self):
        c = trig.compute_coefficients(sampled(np.cos), 1)
        assert abs(c.c[2] - 0.5) < 1e-14
        assert abs(c.c[0] - 0.5) < 1e-14
        assert abs(c.c[1]) < 1e-14

    def test_single_harmonic(self):
        c = trig.compute_coefficients(sampled(lambda x: np.exp(3j * x)), 4)
        assert abs(c.c[4 + 3] - 1.0) < 1e-14
        for k in (-4, -3, -2, -1, 0, 1, 2, 4):
            assert abs(c.c[4 + k]) < 1e-13

    def test_sawtooth_aliasing(self):
        m = 256
        c = trig.compute_coefficients(sampled(lambda x: x, m), 3)
        for k in (1, 2, 3):
            want = 1j * (-1.0) ** k / k
            assert abs(c.c[3 + k] - want) <= 10 * (2 * np.pi / m)

    def test_degree_guard(self):
        with pytest.raises(InvalidArgument):
            trig.compute_coefficients(sampled(np.cos, 8), 5)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        for n in (0, 3, 7):
            c = trig.TrigCoefficients(n, rng.standard_normal(2 * n + 1)
                                      + 1j * rng.standard_normal(2 * n + 1))
            back = trig.compute_coefficients(trig.synthesize(c, 64), n)
            assert np.max(np.abs(back.c - c.c)) < 1e-12


class TestKernels:
    def test_dirichlet_peak(self):
        k = trig.synthesize(trig.TrigCoefficients(2, trig.dirichlet().weights(2)), 64)
        assert abs(k.values[32].real - 5.0) < 1e-12  # x=0 is sample 32

    def test_fejer_nonnegative(self):
        k = trig.synthesize(trig.TrigCoefficients(1, trig.fejer().weights(1)), 64)
        x = -np.pi + 2 * np.pi * np.arange(64) / 64
        assert np.max(np.abs(k.values.real - (1 + np.cos(x)))) < 1e-12
        assert np.min(k.values.real) >= -1e-12

    def test_bochner_riesz_weights(self):
        w = trig.bochner_riesz(1.0).weights(2).real
        assert np.allclose(w, [0.0, 0.75, 1.0, 0.75, 0.0])

    def test_grid_guard(self):
        with pytest.raises(InvalidArgument):
            trig.synthesize(trig.TrigCoefficients(40, trig.dirichlet().weights(40)), 64)

    def test_fejer_nonneg_and_mass_many_n(self):
        for n in (1, 4, 9, 33):
            k = trig.synthesize(trig.TrigCoefficients(n, trig.fejer().weights(n)), 512)
            assert np.min(k.values.real) >= -1e-12
            l1 = trig.grid_norm(k, 1) / (2 * np.pi)
            assert abs(l1 - 1.0) < 1e-9


class TestApplyMeans:
    def test_dirichlet_identity(self):
        c = trig.TrigCoefficients(1, [2j, 1.0, -2j])
        out = trig.apply_means(trig.dirichlet(), 5, c)
        assert np.allclose(out.c, c.c)

    def test_fejer_halving(self):
        c = trig.TrigCoefficients(1, [1.0, 2.0, 3.0])
        out = trig.apply_means(trig.fejer(), 1, c)
        assert np.allclose(out.c, [0.5, 2.0, 1.5])

    def test_abel_poisson_factor(self):
        c = trig.TrigCoefficients(2, [0.0, 0.0, 0.0, 0.0, 1.0])
        out = trig.apply_means(trig.abel_poisson(0.5), 8, c)
        assert abs(out.c[out.degree + 2] - 0.25) < 1e-15

    def test_near_identity_on_polynomials(self):
        # regular methods reproduce low-degree polynomials as n grows
        rng = np.random.default_rng(5)
        c = trig.TrigCoefficients(3, rng.standard_normal(7))
        m = 256
        for method in (trig.fejer(), trig.cesaro(0.5), trig.riesz(2, 1),
                       trig.vallee_poussin()):
            errs = [trig.approximation_error(method, n, c, m)
                    for n in (8, 512)]
            assert errs[1] <= errs[0] + 1e-15
            assert errs[1] < 0.2


class TestGridNorm:
    def test_constant(self):
        ones = trig.SampledFunction(np.ones(16))
        assert trig.grid_norm(ones, math.inf) == 1.0
        assert abs(trig.grid_norm(ones, 1) - 2 * np.pi) < 1e-14

    def test_cos_l2(self):
        f = sampled(np.cos, 8)
        assert abs(trig.grid_norm(f, 2) - math.sqrt(np.pi)) < 1e-12


class TestCatalog:
    def test_contents(self):
        assert {"dirichlet", "fejer", "cesaro", "abel-poisson", "riesz",
                "bochner-riesz", "rogosinski", "bernstein",
                "vallee-poussin"} <= set(trig._FACTORIES)

    def test_fejer_lookup(self):
        m = trig.get_method("fejer")
        assert np.allclose(m.weights(3, kmax=4).real,
                           [0, 0.25, 0.5, 0.75, 1, 0.75, 0.5, 0.25, 0])

    def test_riesz_lookup(self):
        w = trig.get_method("riesz(2,1)").weights(2).real
        assert np.allclose(w, [0, 0.75, 1.0, 0.75, 0])

    def test_rogosinski_cosine_factors(self):
        w = trig.get_method("rogosinski").weights(2).real
        k = np.array([-2, -1, 0, 1, 2])
        assert np.allclose(w, np.cos(k * np.pi / 4))

    def test_unknown_name(self):
        with pytest.raises(NotFound):
            trig.get_method("fourier-of-doom")
        with pytest.raises(NotFound):
            trig.get_method("riesz(2)")

    def test_cesaro_matches_fejer_at_one(self):
        assert np.allclose(trig.cesaro(1.0).weights(7).real,
                           trig.fejer().weights(7).real)


class TestComparison:
    def test_same_method_is_one(self):
        fs = [sampled(np.sin, 128), sampled(lambda x: np.abs(np.sin(x)), 128)]
        r, _ = trig.comparison_ratio(trig.fejer(), trig.fejer(), fs, 8, m=128)
        assert abs(r - 1.0) < 1e-12

    def test_fejer_vs_abel_poisson_finite(self):
        fs = [sampled(lambda x: np.abs(np.sin(x)), 256), sampled(np.sin, 256)]
        r, _ = trig.comparison_ratio(trig.fejer(), trig.abel_poisson(), fs, 32,
                                     m=256)
        assert math.isfinite(r)

    def test_dirichlet_vs_fejer_grows(self):
        # slowly decaying coefficients: partial sums beat the average by
        # a factor growing with n
        f = sampled(lambda x: np.abs(x) ** 1.5, 512)
        lo, _ = trig.comparison_ratio(trig.fejer(), trig.dirichlet(), [f], 4, m=512)
        hi, _ = trig.comparison_ratio(trig.fejer(), trig.dirichlet(), [f], 64, m=512)
        assert hi > lo


class TestEdgeCases:
    def test_synthesize_guard(self):
        c = trig.TrigCoefficients(5, np.zeros(11))
        with pytest.raises(InvalidArgument):
            trig.synthesize(c, 8)

    def test_from_dict_and_reality_tag(self):
        c = trig.TrigCoefficients(2, [1 - 1j, 0.0, 3.0, 0.0, 1 + 1j])
        assert c.degree == 2
        assert c.is_real_valued()
        c.c[2 + 1] = 1j
        assert not c.is_real_valued()

    def test_cesaro_weights_monotone(self):
        for alpha in (0.25, 0.5, 2.0):
            w = trig.cesaro(alpha).weights(12).real
            half = w[12:]
            assert abs(half[0] - 1.0) < 1e-12
            assert np.all(np.diff(half) <= 1e-12)

    def test_nonregular_comparison_rejected(self):
        halved = trig.SummabilityMethod(
            "halved", lambda n, k: np.full(len(k), 0.5))
        f = sampled(np.sin, 64)
        with pytest.raises(InvalidArgument):
            trig.comparison_ratio(halved, trig.fejer(), [f], 4, m=64)

    def test_method_parameter_domains(self):
        for factory, args in ((trig.cesaro, (-1.0,)), (trig.cesaro, (math.nan,)),
                              (trig.cesaro, (math.inf,)), (trig.riesz, (0.0, 1.0)),
                              (trig.riesz, (math.nan, 1.0)), (trig.riesz, (2.0, -0.5)),
                              (trig.riesz, (2.0, math.inf)),
                              (trig.bochner_riesz, (-1.0,)),
                              (trig.bochner_riesz, (math.nan,))):
            with pytest.raises(InvalidArgument):
                factory(*args)
        # values at or just inside the edges are accepted
        trig.cesaro(-0.5)
        trig.riesz(1e-3, 0.0)
        trig.bochner_riesz(0.0)

    def test_abel_poisson_invalid_radius(self):
        with pytest.raises(InvalidArgument):
            trig.abel_poisson(1.5)

    def test_grid_validations(self):
        with pytest.raises(InvalidArgument):
            trig.SampledFunction(np.ones(12))       # not a power of two
        with pytest.raises(InvalidArgument):
            trig.SampledFunction(np.array([1.0, np.nan, 0.0, 2.0]))

    def test_doubling_on_random_polynomials(self):
        # grid-exact doubling of the difference sup, random inputs
        from xlab import smoothness as sm
        rng = np.random.default_rng(17)
        for _ in range(25):
            deg = int(rng.integers(1, 30))
            c = trig.TrigCoefficients(
                deg, rng.standard_normal(2 * deg + 1)
                + 1j * rng.standard_normal(2 * deg + 1))
            f = trig.SampledFunction(trig.synthesize(c, 256).values.real)
            r = int(rng.integers(1, 4))
            h = rng.choice([np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2])
            w1 = sm.modulus(f, sm.ModulusSpec(r, h))
            w2 = sm.modulus(f, sm.ModulusSpec(r, 2 * h))
            assert w2 <= 2 ** r * w1 * (1 + 1e-12) + 1e-12

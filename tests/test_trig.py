from concurrent.futures import ThreadPoolExecutor
import math
import sys

import numpy as np
import pytest

from xlab import trig
from xlab.errors import InvalidArgument, NotFound


def sampled(fn, m=64):
    return trig.SampledFunction.from_callable(fn, m)


class TestCoefficients:
    def test_cosine(self):
        c = trig.compute_coefficients(sampled(np.cos), 1)
        assert c.shape == (2,)
        assert abs(c[1] - 0.5) < 1e-14
        assert abs(c[0]) < 1e-14

    def test_single_harmonic(self):
        c = trig.compute_coefficients(sampled(lambda x: np.cos(3 * x)), 4)
        assert abs(c[3] - 0.5) < 1e-14
        for k in (0, 1, 2, 4):
            assert abs(c[k]) < 1e-13

    def test_exactly_hermitian(self):
        # the half c_0..c_n of a real function, last axis n+1, is the rfft's
        # first n+1 entries times (-1)^k/M, and c_0 is real bit for bit (the
        # one condition a half carries, which the L1 engine checks), for one
        # function and for a stack
        rng = np.random.default_rng(6)
        for shape, n in (((64,), 31), ((3, 2, 16), 5), ((8,), 0), ((8,), 3)):
            values = rng.standard_normal(shape)
            c = trig.compute_coefficients(trig.SampledFunction(values), n)
            assert c.shape == shape[:-1] + (n + 1,)
            want = (-1.0) ** np.arange(n + 1) * (np.fft.rfft(values)[..., :n + 1] / shape[-1])
            assert np.array_equal(bits(c), bits(want))
            assert not np.any(c[..., 0].imag)

    def test_sawtooth_aliasing(self):
        m = 256
        c = trig.compute_coefficients(sampled(lambda x: x, m), 3)
        for k in (1, 2, 3):
            want = 1j * (-1.0) ** k / k
            assert abs(c[k] - want) <= 10 * (2 * np.pi / m)

    def test_degree_guard(self):
        with pytest.raises(InvalidArgument):
            trig.compute_coefficients(sampled(np.cos, 8), 5)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        for n in (0, 3, 7):
            half = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c = np.concatenate([rng.standard_normal(1), half])
            back = trig.compute_coefficients(trig.SampledFunction(trig.synthesize(c, 64)), n)
            assert np.max(np.abs(back - c)) < 1e-12


class TestKernels:
    def test_dirichlet_peak(self):
        k = trig.synthesize(trig.dirichlet().weights(2), 64)
        assert abs(k[32] - 5.0) < 1e-12  # x=0 is sample 32

    def test_fejer_nonnegative(self):
        k = trig.synthesize(trig.fejer().weights(1), 64)
        x = -np.pi + 2 * np.pi * np.arange(64) / 64
        assert np.max(np.abs(k - (1 + np.cos(x)))) < 1e-12
        assert np.min(k) >= -1e-12

    def test_bochner_riesz_weights(self):
        w = trig.bochner_riesz(1.0).weights(2).real
        assert np.allclose(w, [1.0, 0.75, 0.0])

    def test_grid_guard(self):
        # degree 31 fits the 64-grid, degree 32 does not
        trig.synthesize(trig.dirichlet().weights(31), 64)
        with pytest.raises(InvalidArgument):
            trig.synthesize(trig.dirichlet().weights(32), 64)

    def test_fejer_nonneg_and_mass_many_n(self):
        for n in (1, 4, 9, 33):
            k = trig.synthesize(trig.fejer().weights(n), 512)
            assert np.min(k) >= -1e-12
            l1 = trig.grid_norm(k, 1) / (2 * np.pi)
            assert abs(l1 - 1.0) < 1e-9


class TestApplyMeans:
    # lambda_{n,k} c_k as weights(n, kmax=K) * c for coefficients of degree K
    @pytest.mark.parametrize("method,n,c,want", [
        (trig.dirichlet(), 5, [1.0, -2j], [1.0, -2j]),
        (trig.fejer(), 1, [2.0, 3.0], [2.0, 1.5]),
        (trig.abel_poisson(0.5), 8, [0.0, 0.0, 1.0], [0.0, 0.0, 0.25])],
        ids=["dirichlet-identity", "fejer-halving", "abel-poisson-factor"])
    def test_weights_times_coefficients(self, method, n, c, want):
        out = method.weights(n, kmax=len(c) - 1) * np.asarray(c)
        assert np.allclose(out, want, rtol=0.0, atol=1e-15)

    def test_near_identity_on_polynomials(self):
        # regular methods reproduce low-degree polynomials as n grows
        rng = np.random.default_rng(5)
        c = rng.standard_normal(4)
        m = 256
        for method in (trig.fejer(), trig.cesaro(0.5), trig.riesz(2, 1),
                       trig.vallee_poussin()):
            errs = [trig.approximation_error(method, n, c, m)
                    for n in (8, 512)]
            assert errs[1] <= errs[0] + 1e-15
            assert errs[1] < 0.2


class TestGridNorm:
    def test_constant(self):
        ones = np.ones(16)
        assert trig.grid_norm(ones, math.inf) == 1.0
        assert abs(trig.grid_norm(ones, 1) - 2 * np.pi) < 1e-14

    def test_cos_l2(self):
        f = sampled(np.cos, 8)
        assert abs(trig.grid_norm(f.values, 2) - math.sqrt(np.pi)) < 1e-12


class TestCatalog:
    def test_contents(self):
        assert {"dirichlet", "fejer", "cesaro", "abel-poisson", "riesz",
                "bochner-riesz", "rogosinski", "bernstein",
                "vallee-poussin"} <= set(trig._FACTORIES)

    def test_fejer_lookup(self):
        m = trig.get_method("fejer")
        assert np.allclose(m.weights(3, kmax=4).real, [1, 0.75, 0.5, 0.25, 0])

    def test_riesz_lookup(self):
        w = trig.get_method("riesz(2,1)").weights(2).real
        assert np.allclose(w, [1.0, 0.75, 0])

    def test_rogosinski_cosine_factors(self):
        w = trig.get_method("rogosinski").weights(2).real
        assert np.allclose(w, np.cos(np.arange(3) * np.pi / 4))

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
        with pytest.raises(InvalidArgument):
            trig.synthesize(np.zeros(5), 8)
        with pytest.raises(InvalidArgument):        # not a power of two
            trig.synthesize(np.zeros(2), 12)

    def test_synthesis_refuses_what_it_cannot_sample(self):
        # coefficients that are not finite, checked before the FFT, and
        # finite ones whose samples overflow; the callers inherit both
        for c in ([np.nan], [1.0, np.inf], [0.0, complex(1.0, np.nan)], [0.0, 1e308]):
            with pytest.raises(InvalidArgument):
                trig.synthesize(c, 8)
        c = np.zeros(8)
        c[2] = np.nan
        with pytest.raises(InvalidArgument):
            trig.approximation_error(trig.fejer(), 2, c, 64)

    # the L1 engine accepts lists of coefficients c_0..c_2 with c_0 real, of
    # any length, and rejects an imaginary part in c_0 (a kernel that is not
    # real), an empty array and arrays that are not 1-D, also in an iterator
    # of (index list, arrays) stacks; a bare 1-D array is a list of scalars,
    # each refused as not 1-D (the empty list is tested with the other
    # per-item functions in test_lebesgue)
    @pytest.mark.parametrize("coeffs", [[[3.0 + 1j, 0.0, 1 + 1j]], [np.array([])],
                                        [[3.0, 0.0, 1 + 1j], np.ones((2, 3))],
                                        np.ones((1, 2, 3)), iter([([0], [np.array([])])]),
                                        iter([([0, 1], [np.ones(3), np.ones((2, 3))])]),
                                        np.array([3.0, 0.0, 1.0])],
                             ids=["non-hermitian", "empty-in-list", "2-d-in-list",
                                  "3-d", "empty-in-stack", "2-d-in-stack", "bare-1-d"])
    def test_l1_coefficient_checks(self, coeffs):
        from xlab import lebesgue
        lebesgue.trig_poly_l1([[3.0, 0.0, 1 + 1j]])
        assert lebesgue.trig_poly_l1(iter([([0], [[3.0, 0.0, 0.0, 1 + 1j]])])) \
            == lebesgue.trig_poly_l1([[3.0, 0.0, 0.0, 1 + 1j]])
        with pytest.raises(InvalidArgument):
            lebesgue.trig_poly_l1(coeffs)

    def test_cesaro_weights_monotone(self):
        for alpha in (0.25, 0.5, 2.0):
            w = trig.cesaro(alpha).weights(12).real
            assert abs(w[0] - 1.0) < 1e-12
            assert np.all(np.diff(w) <= 1e-12)

    def test_overflowing_weights_rejected(self):
        # A_n^alpha overflows past the float range: the weights are refused
        # at the first such n, without a numpy warning
        for alpha, n in ((1e300, 2), (1e20, 20)):
            with pytest.raises(InvalidArgument, match=f"not finite at n={n}"):
                trig.cesaro(alpha).weights([1, n, n + 1])
            with pytest.raises(InvalidArgument):
                trig.cesaro(alpha).weights(n, kmax=0)
        assert np.all(np.isfinite(trig.cesaro(1e20).weights(1)))

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
        with pytest.raises(InvalidArgument):        # every function is real
            trig.SampledFunction(np.ones(4, dtype=complex))
        with pytest.raises(InvalidArgument):
            trig.SampledFunction.from_callable(lambda x: np.exp(3j * x), 64)
        # integer samples are stored as float
        assert trig.SampledFunction(np.arange(4)).values.dtype == float

    def test_doubling_on_random_polynomials(self):
        # grid-exact doubling of the difference sup, random inputs
        from xlab import smoothness as sm
        rng = np.random.default_rng(17)
        for _ in range(25):
            deg = int(rng.integers(1, 30))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = trig.SampledFunction(trig.synthesize(c, 256))
            r = int(rng.integers(1, 4))
            h = rng.choice([np.pi / 16, np.pi / 8, np.pi / 4, np.pi / 2])
            w1 = sm.modulus(f, r, h)
            w2 = sm.modulus(f, r, 2 * h)
            assert w2 <= 2 ** r * w1 * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# stacked synthesis against the one-row routes it replaced (oracles)
# ---------------------------------------------------------------------------

def row_synthesize(c, m):
    """One row c_0..c_K on the M-grid by the scaled real inverse FFT of its
    coefficients."""
    c = np.asarray(c, dtype=complex)
    a = np.zeros(m // 2 + 1, dtype=complex)
    a[:c.size] = ((-1.0) ** np.arange(c.size)) * c
    return np.fft.irfft(a, m) * m


def row_band(method, n):
    """The band at one n in scalar arithmetic: for Abel-Poisson the cutoff
    by math.log from the rule at k = 1."""
    if n == 0:
        return 0
    if math.isinf(method.support):
        r = float(np.abs(method.rule(n, np.array([1]))[0]))
        return 0 if r <= 0.0 else max(1, int(math.ceil(math.log(1e-17) / math.log(r))))
    return int(math.ceil(method.support * n))


def row_weights(method, n, kmax):
    """lambda_{n,k}, k = 0..kmax, from the rule at the one n, zero past
    row_band."""
    k = np.arange(kmax + 1)
    if n == 0:
        return np.where(k == 0, 1.0, 0.0).astype(complex)
    w = np.asarray(method.rule(n, k), dtype=complex)
    w[k > row_band(method, n)] = 0.0
    return w


def row_approximation_error(method, n, c, m):
    """Grid sup norm of f - Lambda_n f for one n, as before the stacks: the
    weights within the band times c, subtracted from c."""
    diff = np.array(c, dtype=complex)
    deg = min(diff.size - 1, row_band(method, n))
    diff[:deg + 1] -= row_weights(method, n, deg) * diff[:deg + 1]
    return float(np.max(np.abs(row_synthesize(diff, m))))


def row_comparison_table(method_a, method_b, fset, nmax, m):
    """comparison_ratio's table by the per-n loop over approximation errors."""
    table = np.empty((len(fset), nmax, 3))
    for i, f in enumerate(fset):
        c = trig.compute_coefficients(f, m // 2 - 1)
        for n in range(1, nmax + 1):
            ea = row_approximation_error(method_a, n, c, m)
            eb = row_approximation_error(method_b, n, c, m)
            ratio = (1.0 if ea == 0.0 else math.inf) if eb == 0.0 else ea / eb
            table[i, n - 1] = ea, eb, ratio
    return table


def method_catalog():
    """Representatives of every supported summability family."""
    return [trig.dirichlet(), trig.fejer(), trig.cesaro(0.5), trig.abel_poisson(0.5),
            trig.riesz(2.0, 1.0), trig.bochner_riesz(1.0), trig.rogosinski(),
            trig.bernstein(), trig.vallee_poussin()]


def hexes(a):
    """float.hex of the real and the imaginary part of each entry."""
    return [x.hex() for x in np.asarray(a, dtype=complex).view(float).ravel().tolist()]


def bits(a):
    """The bit patterns of a float or complex array, for == on every bit."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestStackedSynthesis:
    @pytest.mark.parametrize("shape,m", [((5, 32), 64), ((2, 3, 5), 16),
                                         ((4, 1), 8), ((7, 512), 1024)])
    def test_rows_equal_one_row_calls(self, shape, m):
        rng = np.random.default_rng(sum(shape) + m)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[..., ::3] = 0.0                   # exact zeros keep their sign too
        got = trig.synthesize(c, m)
        assert isinstance(got, np.ndarray)
        assert got.shape == shape[:-1] + (m,) and got.dtype == float
        want = np.array([row_synthesize(row, m) for row in c.reshape(-1, shape[-1])])
        assert np.array_equal(bits(got), bits(want.reshape(got.shape)))

    def test_grid_norm_reduces_the_grid_axis(self):
        rng = np.random.default_rng(4)
        f = trig.synthesize(rng.standard_normal((3, 2, 17)), 64)
        for p in (1, 2, math.inf):
            got = trig.grid_norm(f, p)
            assert got.shape == (3, 2)
            for idx in np.ndindex(3, 2):
                assert got[idx] == trig.grid_norm(f[idx], p)
        assert isinstance(trig.grid_norm(f[0, 0]), float)

    def test_coefficients_of_a_stack(self):
        rng = np.random.default_rng(8)
        f = trig.SampledFunction(rng.standard_normal((3, 32)))
        c = trig.compute_coefficients(f, 5)
        assert c.shape == (3, 6)
        for row, values in zip(c, f.values):
            assert np.array_equal(row, trig.compute_coefficients(
                trig.SampledFunction(values), 5))

    def test_stacks_keep_the_grid_checks(self):
        with pytest.raises(InvalidArgument):
            trig.synthesize(np.zeros((2, 5)), 8)
        with pytest.raises(InvalidArgument):
            trig.SampledFunction(np.ones((2, 12)))
        with pytest.raises(InvalidArgument):
            trig.SampledFunction(np.array([[1.0, 0.0, 0.0, 0.0], [np.inf, 0, 0, 0]]))

    def test_approximation_errors_equal_the_per_n_loop(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        ns = [1, 2, 5, 31, 40, 7]
        for method in (trig.fejer(), trig.abel_poisson(), trig.bernstein()):
            got = trig.approximation_error(method, ns, c, 64)
            assert np.array_equal(got, [row_approximation_error(method, n, c, 64)
                                        for n in ns])
            assert trig.approximation_error(method, 5, c, 64) == got[2]
            # a stack of coefficient rows: each row as on its own
            stack = np.stack((c, 2.0 * c - 1.0, c[::-1]))
            assert np.array_equal(trig.approximation_error(method, ns, stack, 64),
                                  [trig.approximation_error(method, ns, row, 64)
                                   for row in stack])
            assert np.array_equal(trig.approximation_error(method, 5, stack, 64),
                                  [trig.approximation_error(method, 5, row, 64)
                                   for row in stack])

    def test_comparison_weights_once_per_stack_of_n(self, monkeypatch):
        # the weights depend on n alone: one call per method and stack of n
        # (after the regularity check), however many functions
        from xlab import corpus
        calls = []
        weights = trig.SummabilityMethod.weights
        monkeypatch.setattr(trig.SummabilityMethod, "weights",
                            lambda self, *a, **k: calls.append(1) or weights(self, *a, **k))
        monkeypatch.setattr(trig, "SYNTHESIS_ENTRIES", 8 * 64)
        fset = [f for _, f in corpus.comparison_corpus(64)]
        trig.comparison_ratio(trig.fejer(), trig.abel_poisson(), fset, 20, 64)
        assert len(fset) == 10 and len(calls) == 2 + 2 * 3

    @pytest.mark.parametrize("a,b,nmax,m", [
        ("fejer", "abel-poisson", 61, 512), ("rogosinski", "vallee-poussin", 64, 512),
        ("dirichlet", "bernstein", 40, 128), ("cesaro(0.5)", "riesz(2,1)", 20, 64)])
    def test_comparison_table_equals_the_per_n_loop(self, a, b, nmax, m, monkeypatch):
        from xlab import corpus
        fset = [f for _, f in corpus.comparison_corpus(m)]
        ma, mb = trig.get_method(a), trig.get_method(b)
        want = row_comparison_table(ma, mb, fset, nmax, m)
        # the default stacks, and stacks of 3 rows with a partial last one
        for entries in (trig.SYNTHESIS_ENTRIES, 3 * m):
            monkeypatch.setattr(trig, "SYNTHESIS_ENTRIES", entries)
            band, table = trig.comparison_ratio(ma, mb, fset, nmax, m)
            assert np.array_equal(table, want)
            with np.errstate(divide="ignore"):
                assert band == np.max(np.maximum(want[..., 2], 1 / want[..., 2]))


class TestWeightStacks:
    """weights over a sequence of n against the rule at one n at a time; the
    reference takes a fresh method per n, so Cesaro's table there runs from
    A_0 to that n alone."""

    @pytest.mark.parametrize("method", method_catalog(), ids=lambda m: m.name)
    def test_rows_equal_the_per_n_rule(self, method):
        for ns in (range(301), [4096, 16384]):
            w = method.weights(ns)
            assert w.shape == (len(ns), max(row_band(method, n) for n in ns) + 1)
            for n, row in zip(ns, w):
                band = row_band(method, n)
                want = row_weights(trig.get_method(method.name), n, band)
                assert hexes(row[:band + 1]) == hexes(want), n
                assert not np.any(row[band + 1:])
            assert method.weights(n).shape == (band + 1,)
            assert hexes(method.weights(n)) == hexes(want)

    @pytest.mark.parametrize("method", method_catalog() + [trig.abel_poisson(), trig.cesaro(1.0)],
                             ids=lambda m: m.name)
    def test_rows_at_a_fixed_kmax(self, method):
        ns = [*range(301), 4096, 16384]
        want = [row_weights(trig.get_method(method.name), n, 40) for n in ns]
        assert hexes(method.weights(ns, kmax=40)) == hexes(want)

    def test_abel_poisson_band_equals_the_math_log_cutoff(self):
        method, ns = trig.abel_poisson(), range(10 ** 5 + 1)
        assert method.band(ns).tolist() == [row_band(method, n) for n in ns]

    def test_threads_share_one_cesaro_table(self):
        # lebesgue-table's pool shares one method: sixteen tasks of rising n
        # extend and rebind its table in turn, and every row still equals
        # the row of a method that one thread alone has extended
        method, serial = trig.cesaro(0.5), trig.cesaro(0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda first: [method.weights(n, kmax=6) for n in
                                                   range(first, 1024, 16)],
                                    range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for first, rows in zip(range(16), got):
            assert hexes(rows) == hexes([serial.weights(n, kmax=6)
                                         for n in range(first, 1024, 16)])

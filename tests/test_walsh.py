import numpy as np
import pytest

from xlab import corpus, walsh as w
from xlab.errors import InvalidArgument
from xlab.walsh import _POP16, _paley, ifwt


def walsh_fn(n, j, bits):
    """Value in {+1,-1} of the n-th Paley-Walsh function at j/2^bits."""
    if not 0 <= n < (1 << bits) or not 0 <= j < (1 << bits):
        raise InvalidArgument("indices must be B-bit words")
    pop = int(_POP16[n & int(_paley(bits)[j])])
    return 1 - 2 * (pop & 1)


def partial_sum(coeffs, n, bits):
    """S_n = sum_{k<n} c_k psi_k as sampled values."""
    c = np.zeros(1 << bits)
    c[:n] = np.asarray(coeffs)[:n]
    return ifwt(c, bits)


class TestSystem:
    def test_constant_function(self):
        assert set(w.walsh_row(0, 6)) == {1.0}

    def test_first_function_halves(self):
        r = w.walsh_row(1, 6)
        assert np.all(r[:32] == 1.0) and np.all(r[32:] == -1.0)

    def test_orthonormality(self):
        rows = np.stack([w.walsh_row(n, 8) for n in range(16)])
        gram = rows @ rows.T / 256.0
        assert np.max(np.abs(gram - np.eye(16))) == 0.0

    def test_scalar_matches_row(self):
        for n in (0, 5, 13):
            row = w.walsh_row(n, 5)
            for j in (0, 7, 31):
                assert walsh_fn(n, j, 5) == row[j]


def rademacher_product(n, bits):
    """psi_n = prod_k r_k^(n_k) with r_k(x) = (-1)^(binary digit k+1 of x),
    digit k+1 of j/2^bits being bit bits-1-k of j."""
    j = np.arange(1 << bits)
    out = np.ones(1 << bits)
    for k in range(bits):
        if n >> k & 1:
            out *= 1 - 2 * ((j >> (bits - 1 - k)) & 1)
    return out


class TestDyadicGroup:
    def test_character_identity_exhaustive(self):
        bits = 6
        m = 1 << bits
        rows = np.stack([w.walsh_row(n, bits) for n in range(m)])
        j = np.arange(m)
        for n in range(m):
            for l in range(m):
                assert np.all(rows[n, j ^ l] == rows[n, j] * rows[n, l])

    def test_character_identities_at_16_bits(self):
        # all 2^32 pairs are too many: seeded n, n' and shifts l, every j
        bits = 16
        m = 1 << bits
        rng = np.random.default_rng(8)
        j = np.arange(m)
        for n, n2 in rng.integers(0, m, (12, 2)):
            row = w.walsh_row(n, bits)
            assert np.all(row == rademacher_product(n, bits))
            for l in rng.integers(0, m, 8):
                assert np.all(row[j ^ l] == row * row[l])
            assert np.all(row * w.walsh_row(n2, bits) == w.walsh_row(n ^ n2, bits))


class TestTransform:
    def test_delta(self):
        f = np.zeros(256)
        f[0] = 1.0
        c = w.fwt(w.DyadicSignal(f))
        assert np.allclose(c, 1.0 / 256.0)

    def test_single_function(self):
        sig = w.DyadicSignal(w.walsh_row(3, 8))
        c = w.fwt(sig)
        assert abs(c[3] - 1.0) < 1e-14
        assert np.max(np.abs(np.delete(c, 3))) < 1e-14

    def test_signal_reads_bits_off_its_length(self):
        assert w.DyadicSignal(np.zeros(1 << 5)).bits == 5
        # a length that is not a power of two, or one outside BITS_RANGE
        for values in (np.zeros(12), np.zeros((4, 4)), np.zeros(2), np.zeros(1 << 17)):
            with pytest.raises(InvalidArgument):
                w.DyadicSignal(values)

    def test_signal_refuses_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidArgument, match="finite"):
                w.DyadicSignal([1.0, bad, 0.0, 2.0])

    def test_synthesis_checks_its_coefficients(self):
        assert isinstance(w.ifwt([1.0, 0.5], 4), np.ndarray)
        with pytest.raises(InvalidArgument):
            w.ifwt([1.0, np.nan], 4)
        with pytest.raises(InvalidArgument):
            w.ifwt([1.0], w.BITS_RANGE[1] + 1)
        with pytest.raises(InvalidArgument):
            w.sidon_telyakovskii_bound([np.inf, 1.0])

    def test_overflowing_transform_refused(self):
        # finite coefficients whose sums pass the float range are refused,
        # not returned as inf samples
        with pytest.raises(InvalidArgument, match="overflows"):
            w.ifwt([1e308, 1e308], 2)
        with pytest.raises(InvalidArgument, match="overflows"):
            w.fwt(w.DyadicSignal(np.full(4, 1e308)))
        assert np.array_equal(w.ifwt([1e307, 1e307], 2), [2e307, 2e307, 0.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        f = w.DyadicSignal(rng.standard_normal(1 << 10))
        back = w.ifwt(w.fwt(f), 10)
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        f = w.DyadicSignal(rng.standard_normal(1 << 9))
        c = w.fwt(f)
        assert abs(np.sum(c ** 2) - np.mean(f.values ** 2)) < 1e-13

    def test_parseval_at_16_bits(self):
        bits = 16
        rng = np.random.default_rng(6)
        f = w.DyadicSignal(rng.standard_normal(1 << bits))
        c = w.fwt(f)
        # each of the B butterfly stages and the two sums round by u
        bound = 2 * bits * 2.0 ** -53 * (np.sum(np.abs(c)) * np.mean(np.abs(f.values))
                                         + np.mean(f.values ** 2))
        assert abs(np.sum(c ** 2) - np.mean(f.values ** 2)) <= bound

    def test_involution_scaling(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(64)
        twice = w._fwht(w._fwht(a))
        assert np.allclose(twice, 64.0 * a)


class TestCesaro:
    def test_alpha_one_is_arithmetic_mean(self):
        rng = np.random.default_rng(3)
        f = w.DyadicSignal(rng.standard_normal(1 << 9))
        c = w.fwt(f)
        n = 37
        got = w.cesaro_means(f, n, 1.0)
        want = np.mean([partial_sum(c, k, 9) for k in range(n + 1)], axis=0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_near_identity_weight_decay(self):
        # degree < 2^(B-1) polynomial, n close to the top: the weights on
        # the occupied block sit within O(degree/n) of one
        bits = 9
        rng = np.random.default_rng(4)
        coeffs = np.zeros(1 << bits)
        coeffs[: 1 << (bits - 1)] = rng.standard_normal(1 << (bits - 1))
        f = w.DyadicSignal(w.ifwt(coeffs, bits))
        n = (1 << bits) - 1
        err = np.max(np.abs(w.cesaro_means(f, n, 1.0) - f.values))
        lam_min = w.cesaro_multipliers(n, 1.0)[(1 << (bits - 1)) - 1]
        bound = (1 - lam_min) * np.sum(np.abs(coeffs))
        assert err <= bound + 1e-12

    def test_sequence_of_n_transforms_once(self, monkeypatch):
        # the list over n equals the one-n calls; the CLI's walsh-moduli
        # transforms each corpus signal once for all its n
        from xlab import cli
        rng = np.random.default_rng(6)
        f = w.DyadicSignal(rng.standard_normal(1 << 7))
        ns = [1, 2, 64, 5, 127]
        for alpha in (1.0, 0.5):
            got = w.cesaro_means(f, ns, alpha)
            assert all(np.array_equal(g, w.cesaro_means(f, n, alpha))
                       for g, n in zip(got, ns))
        with pytest.raises(InvalidArgument):
            w.cesaro_means(f, [3, 128], 1.0)
        calls, fwt = [], w.fwt
        monkeypatch.setattr(w, "fwt", lambda sig: calls.append(sig) or fwt(sig))
        rows, _ = cli._exp_walsh_moduli({"bits": 6, "alpha": 1.0}, 0)
        assert len(calls) == len(corpus.dyadic_corpus(6)) and len(rows) == 5 * len(calls)

    def test_equivalence_band_on_corpus(self):
        # frozen corpus band for the alpha versus alpha=1 error ratios
        for alpha in (0.5, 2.0):
            ratios = []
            for name, values in corpus.dyadic_corpus(10):
                sig = w.DyadicSignal(values)
                for n in (15, 63, 255):
                    e1 = np.max(np.abs(sig.values
                                       - w.cesaro_means(sig, n, 1.0)))
                    ea = np.max(np.abs(sig.values
                                       - w.cesaro_means(sig, n, alpha)))
                    if e1 > 1e-13:
                        ratios.append(ea / e1)
            assert 0.2 <= min(ratios) and max(ratios) <= 5.0


def grid_regularity(alpha, beta, nu, nmax):
    """The 2^bits-sample route to br_means_regularity: D_n built row by row
    on the grid and the shifted kernel read through j (+) s."""
    bits = min(w.BITS_RANGE[1], int(np.ceil(np.log2(nmax))) + 4)
    m = 1 << bits
    j = np.arange(m)
    paley = _paley(bits)
    d = np.zeros(m)
    lc = np.empty(nmax)
    for n in range(1, nmax + 1):
        d = d + (1 - 2 * (_POP16[(n - 1) & paley] & 1)).astype(float)
        s = int(nu * m / n) % m
        lc[n - 1] = float(np.mean(np.abs(alpha * d + beta * d[j ^ s])))
    return lc


class TestRegularity:
    @pytest.mark.parametrize("alpha,beta,nu,nmax", [
        (0.5, 0.5, 1.0, 256), (0.5, 0.5, 0.5, 256), (0.7, -0.2, 0.3, 300),
        (1.0, 0.0, 1.0, 100), (0.5, 0.5, 1.0, 1024)])
    def test_digits_against_grid(self, alpha, beta, nu, nmax):
        got = w.br_means_regularity(alpha, beta, nu, nmax)["lc_values"]
        want = grid_regularity(alpha, beta, nu, nmax)
        if alpha == beta == 0.5 or beta == 0.0:
            # dyadic kernel values: both routes sum exactly
            assert np.array_equal(got, want)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_balanced_unit_shift_bounded(self):
        r = w.br_means_regularity(0.5, 0.5, 1.0, 256)
        assert r["bounded"]
        assert np.max(r["lc_values"]) <= 1.0 + 1e-9

    def test_half_shift_grows_like_partial_sums(self):
        r = w.br_means_regularity(0.5, 0.5, 0.5, 256)
        s = w.br_means_regularity(1.0, 0.0, 1.0, 256)
        assert np.allclose(r["lc_values"], s["lc_values"], atol=1e-12)
        lc = r["lc_values"]
        octmax = [np.max(lc[(1 << k) - 1: (1 << (k + 1)) - 1])
                  for k in range(3, 8)]
        assert all(b > a for a, b in zip(octmax, octmax[1:]))

    def test_partial_sums_against_fine_formula(self):
        # Fine, Trans. AMS 65 (1949): from the binary digits n_i of n,
        # L_n = sum_{i<K} 2^{-i-1} |(n mod 2^i) - n_i 2^i| + 2^{-K} n,
        # K the bit length of n; every n the 16-bit grid holds
        nmax = 1 << w.BITS_RANGE[1]
        lc = w.br_means_regularity(1.0, 0.0, 1.0, nmax)["lc_values"]
        n = np.arange(1, nmax + 1)
        k = np.frexp(n)[1]                  # bit lengths
        i = np.arange(k.max())[:, None]
        terms = 2.0 ** (-i - 1) * np.abs(n % 2 ** i - (n >> i & 1) * 2 ** i)
        fine = np.sum(np.where(i < k, terms, 0.0), axis=0) + 2.0 ** -k * n
        assert np.array_equal(lc, fine)

    def test_partial_sums_log_growth(self):
        r = w.br_means_regularity(1.0, 0.0, 1.0, 512)
        lc = r["lc_values"]
        octmax = [np.max(lc[(1 << k) - 1: (1 << (k + 1)) - 1])
                  for k in range(3, 9)]
        diffs = np.diff(octmax)
        assert np.all(diffs > 0.2)            # steady octave increments
        assert np.max(diffs) < 0.5            # but not geometric


class TestSidonBound:
    def test_single_coefficient(self):
        r = w.sidon_telyakovskii_bound(np.array([1.0, 0, 0, 0]))
        assert r["l1_norm"] <= 1.0 + 1e-12
        assert r["ok"]

    def test_linear_decay(self):
        lam = np.clip(1 - np.arange(20) / 16.0, 0, None)
        assert w.sidon_telyakovskii_bound(lam)["ok"]

    def test_zero(self):
        r = w.sidon_telyakovskii_bound(np.zeros(4))
        assert r["l1_norm"] == 0.0 and r["bound"] == 0.0

    def test_random_admissible(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            g = rng.uniform(0, 1, int(rng.integers(2, 64)))
            lam = np.cumsum(g[::-1])[::-1]    # decreasing tail construction
            assert w.sidon_telyakovskii_bound(lam)["ok"]


def xor_shift_modulus(f, n):
    """omega_n as the sup over every shift t in (0, 2^-n) in turn."""
    j = np.arange(1 << f.bits)
    return max(float(np.max(np.abs(f.values[j ^ t] - f.values)))
               for t in range(1, 1 << (f.bits - n)))


class TestModuli:
    def test_blocks_against_xor_shifts(self):
        for bits in range(2, 11):
            for name, values in corpus.dyadic_corpus(bits):
                sig = w.DyadicSignal(values)
                for n in range(bits):
                    assert w.dyadic_shift_modulus(sig, n) == xor_shift_modulus(sig, n), \
                        (bits, name, n)

    def test_constant(self):
        f = w.DyadicSignal(np.ones(256))
        assert w.averaged_block_modulus(f, 2) == 0.0
        assert w.dyadic_shift_modulus(f, 2) == 0.0

    def test_first_walsh_function(self):
        f = w.DyadicSignal(w.walsh_row(1, 8))
        assert w.dyadic_shift_modulus(f, 0) == 2.0
        assert w.dyadic_shift_modulus(f, 1) == 0.0
        assert w.dyadic_shift_modulus(f, 2) == 0.0

    def test_sandwich_on_corpus(self):
        # frozen band constants for the two-sided Cesaro estimate
        los, his = [], []
        for name, values in corpus.dyadic_corpus(10):
            sig = w.DyadicSignal(values)
            for n in (2, 4, 6):
                cap = 1 << (n + 1)
                err = np.max(np.abs(sig.values
                                    - w.cesaro_means(sig, cap, 1.0)))
                omega_avg = w.averaged_block_modulus(sig, n)
                low = omega_avg + w.dyadic_shift_modulus(sig, n + 1)
                high = omega_avg + w.dyadic_shift_modulus(sig, n)
                if high > 1e-13:
                    los.append(err / high)
                if low > 1e-13:
                    his.append(err / low)
        assert 0.05 <= min(los) and max(his) <= 20.0

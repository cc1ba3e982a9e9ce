import numpy as np

from xlab import corpus, walsh as w
from xlab.errors import InvalidArgument
from xlab.walsh import _POP16, bit_reverse, ifwt


def walsh_fn(n, j, bits):
    """Value in {+1,-1} of the n-th Paley-Walsh function at j/2^bits."""
    if not 0 <= n < (1 << bits) or not 0 <= j < (1 << bits):
        raise InvalidArgument("indices must be B-bit words")
    pop = int(_POP16[n & int(bit_reverse(j, bits))])
    return 1 - 2 * (pop & 1)


def partial_sum(coeffs, n, bits):
    """S_n = sum_{k<n} c_k psi_k as sampled values."""
    c = np.zeros(1 << bits)
    c[:n] = np.asarray(coeffs)[:n]
    return ifwt(c, bits).values


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
        c = w.fwt(w.DyadicSignal(f, 8))
        assert np.allclose(c, 1.0 / 256.0)

    def test_single_function(self):
        sig = w.DyadicSignal(w.walsh_row(3, 8), 8)
        c = w.fwt(sig)
        assert abs(c[3] - 1.0) < 1e-14
        assert np.max(np.abs(np.delete(c, 3))) < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        f = w.DyadicSignal(rng.standard_normal(1 << 10), 10)
        back = w.ifwt(w.fwt(f), 10)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        f = w.DyadicSignal(rng.standard_normal(1 << 9), 9)
        c = w.fwt(f)
        assert abs(np.sum(c ** 2) - np.mean(f.values ** 2)) < 1e-13

    def test_parseval_at_16_bits(self):
        bits = 16
        rng = np.random.default_rng(6)
        f = w.DyadicSignal(rng.standard_normal(1 << bits), bits)
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
        f = w.DyadicSignal(rng.standard_normal(1 << 9), 9)
        c = w.fwt(f)
        n = 37
        got = w.cesaro_means(f, n, 1.0).values
        want = np.mean([partial_sum(c, k, 9) for k in range(n + 1)], axis=0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_near_identity_weight_decay(self):
        # degree < 2^(B-1) polynomial, n close to the top: the weights on
        # the occupied block sit within O(degree/n) of one
        bits = 9
        rng = np.random.default_rng(4)
        coeffs = np.zeros(1 << bits)
        coeffs[: 1 << (bits - 1)] = rng.standard_normal(1 << (bits - 1))
        f = w.ifwt(coeffs, bits)
        n = (1 << bits) - 1
        err = np.max(np.abs(w.cesaro_means(f, n, 1.0).values - f.values))
        lam_min = w.cesaro_multipliers(n, 1.0)[(1 << (bits - 1)) - 1]
        bound = (1 - lam_min) * np.sum(np.abs(coeffs))
        assert err <= bound + 1e-12

    def test_equivalence_band_on_corpus(self):
        # frozen corpus band for the alpha versus alpha=1 error ratios
        for alpha in (0.5, 2.0):
            ratios = []
            for name, values in corpus.dyadic_corpus(10):
                sig = w.DyadicSignal(values, 10)
                for n in (15, 63, 255):
                    e1 = np.max(np.abs(sig.values
                                       - w.cesaro_means(sig, n, 1.0).values))
                    ea = np.max(np.abs(sig.values
                                       - w.cesaro_means(sig, n, alpha).values))
                    if e1 > 1e-13:
                        ratios.append(ea / e1)
            assert 0.2 <= min(ratios) and max(ratios) <= 5.0


class TestRegularity:
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


class TestModuli:
    def test_constant(self):
        f = w.DyadicSignal(np.ones(256), 8)
        mods = w.walsh_moduli(f, 2)
        assert mods["Omega_n"] == 0.0 and mods["omega_n"] == 0.0

    def test_first_walsh_function(self):
        f = w.DyadicSignal(w.walsh_row(1, 8), 8)
        assert w.dyadic_shift_modulus(f, 0) == 2.0
        assert w.dyadic_shift_modulus(f, 1) == 0.0
        assert w.dyadic_shift_modulus(f, 2) == 0.0

    def test_sandwich_on_corpus(self):
        # frozen band constants for the two-sided Cesaro estimate
        los, his = [], []
        for name, values in corpus.dyadic_corpus(10):
            sig = w.DyadicSignal(values, 10)
            for n in (2, 4, 6):
                cap = 1 << (n + 1)
                err = np.max(np.abs(sig.values
                                    - w.cesaro_means(sig, cap, 1.0).values))
                up = w.walsh_moduli(sig, n)
                low = (w.averaged_block_modulus(sig, n)
                       + w.dyadic_shift_modulus(sig, n + 1))
                high = up["Omega_n"] + up["omega_n"]
                if high > 1e-13:
                    los.append(err / high)
                if low > 1e-13:
                    his.append(err / low)
        assert 0.05 <= min(los) and max(his) <= 20.0

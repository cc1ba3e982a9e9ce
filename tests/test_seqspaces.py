import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from xlab import seqspaces as sq


# The one-sequence implementations the batched ones replaced: the oracles of
# the bit-identity tests below.
def _ref_hp(y, p):
    a = np.abs(np.asarray(y, dtype=float)) ** p
    return float(np.max(np.cumsum(a) / np.arange(1, a.size + 1)) ** (1.0 / p))


def _ref_bp(x, p):
    a = np.abs(np.asarray(x, dtype=float)) ** p
    tails = np.cumsum(a[::-1])[::-1]
    return float(np.sum((tails / np.arange(1, a.size + 1)) ** (1.0 / p)))


def _ref_astar(beta):
    b = np.asarray(beta, dtype=float)
    avgs = np.cumsum(np.abs(b)) / np.arange(1, b.size + 1)
    nstar = int(np.argmax(avgs))
    rhs = float(avgs[nstar])
    alpha = np.zeros_like(b)
    if rhs > 0:
        alpha[: nstar + 1] = np.sign(b[: nstar + 1]) / (nstar + 1)
    return {"lhs": float(abs(np.dot(alpha, b))), "rhs": rhs,
            "extremal_alpha": alpha}


def _ref_cesaro(alpha):
    w = np.abs(np.asarray(alpha, dtype=float))
    order = np.argsort(-w, kind="stable")
    cur_max, total = -1, 0.0
    for i in order:
        if w[i] <= 0:
            break
        gain = max(0, i - cur_max)
        total += w[i] * gain
        cur_max = max(cur_max, i)
    suffix = np.maximum.accumulate(w[::-1])[::-1]
    return {"lhs": float(total), "rhs": float(np.sum(suffix))}


def _ref_pairing_constants(p, samples, seed):
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    j = np.arange(1, sq.PAIRING_MAXLEN + 1)
    spike_bp = np.cumsum(j ** (-1.0 / p))
    spike_hq = j ** (-1.0 / q)
    g1, g2, g3 = 0.0, math.inf, math.inf
    for _ in range(samples):
        n = int(rng.integers(1, sq.PAIRING_MAXLEN + 1))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        product = _ref_bp(x, p) * _ref_hp(y, q)
        if product > 0:
            g1 = max(g1, float(abs(np.dot(x, y))) / product)
        ay, ax = np.abs(y), np.abs(x)
        hq_y = _ref_hp(y, q)
        if hq_y > 0:
            best = float(np.max(ay / spike_bp[:n]))
            bpc = _ref_bp(np.sign(y) * ay ** (q - 1.0), p)
            if bpc > 0:
                best = max(best, float(np.sum(ay ** q)) / bpc)
            g2 = min(g2, best / hq_y)
        bp_x = _ref_bp(x, p)
        if bp_x > 0:
            best = float(np.max(ax / spike_hq[:n]))
            hqc = _ref_hp(np.sign(x) * ax ** (p - 1.0), q)
            if hqc > 0:
                best = max(best, float(np.sum(ax ** p)) / hqc)
            g3 = min(g3, best / bp_x)
    return {"gamma1": g1, "gamma2": g2, "gamma3": g3}


def _batches():
    """(count, L) batches with ties and zeros (small integers) and without."""
    rng = np.random.default_rng(12)
    for length in (1, 2, 3, 7, 8, 9, 17, 64):
        yield rng.integers(-2, 3, size=(300, length)).astype(float)
        yield rng.standard_normal((300, length)) * (rng.random((300, length)) < 0.8)


class TestBatchedAgainstOneSequence:
    def test_duality_identities(self):
        for batch in _batches():
            ra = sq.duality_identity_astar(batch)
            rc = sq.duality_identity_cesaro(batch)
            for k, row in enumerate(batch):
                want_a, want_c = _ref_astar(row), _ref_cesaro(row)
                assert (ra["lhs"][k], ra["rhs"][k]) == (want_a["lhs"], want_a["rhs"])
                assert (ra["extremal_alpha"][k] == want_a["extremal_alpha"]).all()
                assert (rc["lhs"][k], rc["rhs"][k]) == (want_c["lhs"], want_c["rhs"])
                # the one-sequence call of the batched code agrees too
                assert sq.duality_identity_cesaro(row) == want_c

    def test_norms_and_pairing(self):
        for batch in _batches():
            x, y = batch, batch[::-1]
            for p in (1.5, 2.0, 3.0):
                q = p / (p - 1.0)
                r = sq.hp_bp_holder_check(x, y, p)
                hp, bp = sq.hp_norm(x, p), sq.bp_norm(x, p)
                for k in range(batch.shape[0]):
                    assert hp[k] == _ref_hp(x[k], p) and bp[k] == _ref_bp(x[k], p)
                    assert r["pairing"][k] == float(abs(np.dot(x[k], y[k])))
                    assert r["bound_product"][k] == _ref_bp(x[k], p) * _ref_hp(y[k], q)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_pairing_constants(self, p):
        assert sq.empirical_pairing_constants(p, 500, seed=3) \
            == _ref_pairing_constants(p, 500, 3)


class TestAstarNorm:
    def test_single(self):
        assert sq.astar_norm([1], 1) == 1.0

    def test_pair(self):
        assert sq.astar_norm([1, 1], 1) == 2.0

    def test_order_sensitivity(self):
        # the late unit entry is seen by both tails
        assert sq.astar_norm([0, 1], 1) == 2.0

    def test_dominates_sup(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            c = rng.standard_normal(rng.integers(1, 40))
            assert sq.astar_norm(c, 1) >= np.max(np.abs(c)) - 1e-12


class TestHpBp:
    def test_single_entry(self):
        assert sq.hp_norm([1], 2) == 1.0
        assert sq.bp_norm([1], 2) == 1.0

    def test_flat_average(self):
        assert sq.hp_norm([1, 1, 1, 1], 1) == 1.0

    def test_holder_pair(self):
        r = sq.hp_bp_holder_check([1], [1], 2)
        assert r["pairing"] == 1.0
        assert r["bound_product"] == 1.0

    def test_zero_vector(self):
        r = sq.hp_bp_holder_check([0, 0, 0], [1, 2, 3], 1.5)
        assert r["pairing"] == 0.0

    def test_sampled_ratio_finite(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(2000):
            n = rng.integers(1, 17)
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            r = sq.hp_bp_holder_check(x, y, 2)
            if r["bound_product"] > 0:
                worst = max(worst, r["pairing"] / r["bound_product"])
        assert math.isfinite(worst)
        assert worst <= 1.5  # empirical constant recorded; comfortably finite


class TestDualityAstar:
    def test_flat_pair(self):
        r = sq.duality_identity_astar(np.array([1.0, 1.0, 0.0]))
        assert r["lhs"] == r["rhs"] == 1.0

    def test_zero(self):
        r = sq.duality_identity_astar(np.array([0.0]))
        assert r["lhs"] == r["rhs"] == 0.0

    def test_spike(self):
        r = sq.duality_identity_astar(np.array([2.0, 0.0, 0.0, 0.0]))
        assert r["lhs"] == r["rhs"] == 2.0

    def test_extremal_alpha_is_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            beta = rng.integers(-2, 3, size=rng.integers(1, 7)).astype(float)
            r = sq.duality_identity_astar(beta)
            if r["rhs"] > 0:
                assert abs(sq.astar_norm(r["extremal_alpha"], 1) - 1.0) < 1e-12
            assert abs(np.dot(r["extremal_alpha"], beta) - r["rhs"]) < 1e-12

    def test_randomized_never_exceeds(self):
        rng = np.random.default_rng(4)
        beta = np.array([1.0, -2.0, 0.0, 2.0])
        r = sq.duality_identity_astar(beta)
        lhs = r["lhs"]
        for _ in range(500):
            cand = rng.standard_normal(beta.size)
            lhs = max(lhs, float(abs(np.dot(cand / sq.astar_norm(cand, 1), beta))))
        assert lhs <= r["rhs"] + 1e-12


class TestDualityCesaro:
    def test_spike_first(self):
        r = sq.duality_identity_cesaro(np.array([1.0, 0.0, 0.0]))
        assert r["lhs"] == r["rhs"] == 1.0

    def test_pair(self):
        r = sq.duality_identity_cesaro(np.array([1.0, 1.0]))
        assert r["lhs"] == r["rhs"] == 2.0

    def test_zero(self):
        r = sq.duality_identity_cesaro(np.array([0.0]))
        assert r["lhs"] == r["rhs"] == 0.0

    def test_exhaustive_short(self):
        for length in range(1, 5):
            for tup in itertools.product((-2, -1, 0, 1, 2), repeat=length):
                a = np.array(tup, dtype=float)
                r = sq.duality_identity_cesaro(a)
                assert abs(r["lhs"] - r["rhs"]) <= 1e-9, tup

    def test_ball_points_never_exceed(self):
        # spikes (n+1) e_n, the sign-matched prefix of ones and random
        # points of the Cesaro unit ball stay below the greedy maximum
        rng = np.random.default_rng(8)
        for alpha in (np.array([1.0, -2.0, 0.0, 2.0]), rng.standard_normal(7)):
            lhs = sq.duality_identity_cesaro(alpha)["lhs"]
            points = [(n + 1) * np.eye(alpha.size)[n] for n in range(alpha.size)]
            points.append(np.sign(alpha))
            for _ in range(500):
                cand = rng.standard_normal(alpha.size)
                points.append(cand / sq.cesaro_sup(cand)[0])
            for beta in points:
                assert abs(np.dot(beta, alpha)) <= lhs * (1 + 1e-12)

    def test_against_linear_program(self):
        # the greedy allocation must match the LP optimum over the
        # prefix-constraint polytope
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            alpha = rng.standard_normal(n)
            w = np.abs(alpha)
            a_ub = np.tril(np.ones((n, n)))
            b_ub = np.arange(1, n + 1, dtype=float)
            res = optimize.linprog(-w, A_ub=a_ub, b_ub=b_ub,
                                   bounds=[(0, None)] * n, method="highs")
            lp = -res.fun
            greedy, _ = sq._prefix_ball_max(w)
            assert abs(lp - greedy) < 1e-9
            assert abs(greedy - sq.duality_identity_cesaro(alpha)["rhs"]) < 1e-9


class TestEmpiricalConstants:
    def test_stability_under_doubling(self):
        rng = np.random.default_rng(6)

        def gamma1(samples, p):
            q = p / (p - 1)
            worst = 0.0
            for _ in range(samples):
                n = int(rng.integers(1, 65))
                x, y = rng.standard_normal(n), rng.standard_normal(n)
                r = sq.hp_bp_holder_check(x, y, p)
                if r["bound_product"] > 0:
                    worst = max(worst, r["pairing"] / r["bound_product"])
            return worst

        for p in (1.5, 2.0, 3.0):
            g_small = gamma1(2000, p)
            g_big = gamma1(4000, p)
            assert math.isfinite(g_big) and g_big > 0
            assert g_big <= 1.2 * g_small + 0.2

import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from xlab import seqspaces as sq


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

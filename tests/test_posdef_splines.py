import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from xlab import cli, ftlab
from xlab import posdef_splines as ps
from xlab.errors import InvalidArgument


class TestGram:
    def test_gaussian_many_point_sets(self):
        rng = np.random.default_rng(0)
        fn = lambda d: np.exp(-(d * d).sum(axis=-1))
        for _ in range(300):
            k = int(rng.integers(2, 13))
            pts = rng.uniform(-3, 3, (k, 3))
            eig = ps.gram_min_eig(pts, fn)
            assert eig >= -1e-9 * k

    def test_cosine_collinear(self):
        pts = np.array([[0.0], [np.pi]])
        eig = ps.gram_min_eig(pts, lambda d: np.cos(d[..., 0]))
        assert abs(eig) < 1e-12

    def test_stretched_exponential_violation(self):
        rng = np.random.default_rng(1)
        fn = lambda d: np.exp(-np.abs(d[..., 0]) ** 2.5)
        best = 1.0
        for _ in range(2000):
            pts = rng.uniform(-3, 3, (int(rng.integers(3, 13)), 1))
            best = min(best, ps.gram_min_eig(pts, fn))
        assert best < -1e-6

    def test_non_hermitian_rejected(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidArgument):
            ps.gram_min_eig(pts, lambda d: d[..., 0])  # odd

    def test_per_entry_evaluator_rejected(self):
        # an evaluator of one difference vector sees the whole array and
        # returns the wrong shape
        pts = np.array([[0.0], [1.0], [2.5]])
        with pytest.raises(InvalidArgument, match=r"\(3, 3\)"):
            ps.gram_min_eig(pts, lambda d: np.cos(d[0]))


class TestPolya:
    def test_hat_classical(self):
        assert ps.polya_test(ps.RadialProfile(poly=np.array([1.0, -1.0])), 1)

    def test_exponential(self):
        assert ps.polya_test(ps.RadialProfile(fn=lambda t: np.exp(-t)), 1)

    def test_cosine_fails(self):
        assert not ps.polya_test(ps.RadialProfile(fn=np.cos), 1)

    def test_consistency_with_gram(self):
        rng = np.random.default_rng(4)
        hat = lambda d: np.clip(1 - np.abs(d[..., 0]), 0, None)
        expf = lambda d: np.exp(-np.abs(d[..., 0]))
        for fn in (hat, expf):
            for _ in range(1000):
                pts = rng.uniform(-3, 3, (int(rng.integers(2, 9)), 1))
                eig = ps.gram_min_eig(pts, fn)
                assert eig >= -1e-8 * len(pts)


class TestBSpline:
    def test_indicator(self):
        assert ps.b_spline(0, 0.0) == 1.0
        assert ps.b_spline(0, 0.6) == 0.0

    def test_hat_peak(self):
        assert abs(ps.b_spline(1, 0.0) - 1.0) < 1e-14

    def test_unit_mass(self):
        for n in (2, 5, 9, 12):
            v, err = integrate.quad(lambda x: ps.b_spline(n, x),
                                    -(n + 1) / 2, (n + 1) / 2, limit=300)
            assert abs(v - 1.0) < 1e-10

    def test_odd_degree_transform_nonnegative(self):
        # scaled to [0,1] support; transform of an even power of sinc
        for n in (1, 3):
            scale = (n + 1) / 2.0
            prof = lambda s: ps.b_spline(n, scale * s)
            knots = tuple(np.arange(1, n + 2) / (n + 1.0))
            r = np.linspace(0, 60, 400)
            assert ftlab.radial_ft(prof, r, knots=knots).min() >= -1e-9


class TestASpline:
    def test_closed_form_n2(self):
        prof = ps.a_spline(2)
        assert np.allclose([float(c) for c in prof.poly], [1.0, 0.0, -6.0, 8.0, -3.0],
                           atol=1e-10)
        assert abs(prof(np.array([0.5]))[0] - 0.3125) < 1e-12

    def test_normalization(self):
        for n in range(2, 7):
            assert abs(ps.a_spline(n)(np.array([0.0]))[0] - 1.0) < 1e-12

    def test_contact_residuals_exact(self):
        for n in range(2, 7):
            assert max(ps.a_spline_contact_residuals(n)) <= 1e-10

    def test_bell_shape(self):
        for n in range(2, 7):
            shape = ps.a_spline_shape(n)
            assert shape["positive"]
            assert shape["decreasing"]
            assert shape["inflections"] == 1

    def test_transform_positive(self):
        for n in (2, 3, 6):
            r = ps.radial_ft_positivity(ps.a_spline(n), 200.0, 0.05)
            assert r["min_value"] > 0.0

    def test_transform_positivity_needs_poly(self):
        with pytest.raises(InvalidArgument, match="poly"):
            ps.radial_ft_positivity(ps.RadialProfile(fn=lambda t: np.exp(-t)),
                                    20.0, 0.5)

    def test_transform_seam_agreement(self):
        for n in (2, 4, 6):
            prof = ps.a_spline(n)
            d0, d1 = ftlab.poly_boundary_derivs(prof.poly)
            seam = 3.0 * (len(prof.poly) - 1) + 8.0
            quad_val = ftlab.radial_ft(prof, seam)
            ibp_val = float(ftlab.cos_transform_boundary(d0, d1,
                                                         np.array([seam]))[0])
            assert abs(quad_val - ibp_val) <= 1e-7 * max(abs(ibp_val), 1e-12)


class TestESpline:
    def test_first_is_hat(self):
        s = np.array([0.0, 0.25, 0.5, 0.9, 1.0, 1.7])
        assert np.allclose(ps.e_spline(1, s), np.clip(1 - s, 0, None))

    def test_support(self):
        assert ps.e_spline(4, 1.0) == 0.0
        assert ps.e_spline(4, 2.3) == 0.0

    def test_against_finite_differences(self):
        # differentiate t^(n-3/2)(1-sqrt(t))^n numerically, n-1 times
        for n in (2, 3):
            t0 = 0.25
            h = 1e-4 if n == 2 else 2e-3

            def base(t):
                return t ** (n - 1.5) * (1 - np.sqrt(t)) ** n

            if n == 2:
                deriv = (base(t0 + h) - base(t0 - h)) / (2 * h)
            else:
                deriv = (base(t0 + h) - 2 * base(t0) + base(t0 - h)) / h ** 2
            want = math.sqrt(t0) * deriv
            got = ps.e_spline(n, math.sqrt(t0))
            assert abs(got - want) < 1e-6 * max(1, abs(want))


class TestTildeESpline:
    def test_support(self):
        assert ps.tilde_e_spline(3, 1.0) == 0.0
        assert ps.tilde_e_spline(3, -1.2) == 0.0
        assert np.all(ps.tilde_e_spline(3, [1e300, -np.inf, np.inf]) == 0.0)

    def test_indicator_self_convolution(self):
        assert abs(ps.tilde_e_spline(0, 0.0) - 1.0) < 1e-14
        assert abs(ps.tilde_e_spline(0, 0.5) - 0.5) < 1e-14

    def test_transform_nonnegative(self):
        # convolution theorem: the transform is a squared modulus up to sign
        for n in (1, 2, 3):
            prof = lambda s: ps.tilde_e_spline(n, s)
            r = np.linspace(0, 40, 300)
            assert ftlab.radial_ft(prof, r).min() >= -1e-8

    def test_against_adaptive_quadrature(self):
        # (-1)^n int P_n(2t) P_n(2(x - t)) dt over [-1/2, 1/2] and the shifted
        # interval, by an independent adaptive rule
        x = np.array([0.0, 0.3, 0.7, 0.95])
        for n in (2, 3):
            def conv(xi):
                f = lambda t: special.eval_legendre(n, 2 * t) \
                    * special.eval_legendre(n, 2 * (xi - t))
                return (-1) ** n * integrate.quad(f, max(-0.5, xi - 0.5),
                                                  min(0.5, xi + 0.5))[0]
            want = np.array([conv(xi) for xi in x])
            assert np.max(np.abs(ps.tilde_e_spline(n, x) - want)) <= 1e-12


class TestShiftApprox:
    def test_member_of_span(self):
        prof = ps.a_spline(2)
        out = ps.shift_approx(lambda x: prof(np.abs(x)), 2, 0.5, 6)
        assert out["sup_error"] <= 1e-10
        assert abs(out["coeffs"][6] - 1.0) < 1e-8

    def test_zero_function(self):
        out = ps.shift_approx(lambda x: np.zeros_like(x), 2, 0.5, 4)
        assert np.max(np.abs(out["coeffs"])) == 0.0

    def test_gaussian_order(self):
        errs = []
        for h in (0.25, 0.125, 0.0625):
            out = ps.shift_approx(lambda x: np.exp(-x * x), 2, h,
                                  int(round(5.0 / h)))
            errs.append(out["sup_error"])
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(s >= 2.0 for s in slopes)
        assert errs[0] > errs[1] > errs[2]


class TestSchoenberg:
    def test_positive_case(self):
        r = ps.schoenberg_check(2, 3.0, 1.0, trials=2000, seed=0)
        assert r["min_eig_found"] >= -1e-8 * 12

    def test_negative_case_witness(self):
        r = ps.schoenberg_check(3, math.inf, 1.0, trials=2000, seed=0)
        assert r["min_eig_found"] < -1e-6
        assert r["witness"] is not None

    def test_alpha_zero(self):
        r = ps.schoenberg_check(2, 3.0, 0.0, trials=50, seed=0)
        assert abs(r["min_eig_found"]) < 1e-10


def _gram_min_eig_one(points, function):
    """gram_min_eig of one point set, as it ran before the stacked
    evaluator (the oracle)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    g = np.asarray(function(pts[:, None, :] - pts[None, :, :]), dtype=complex)
    scale = float(np.max(np.abs(g))) or 1.0
    assert np.max(np.abs(g - g.conj().T)) <= 1e-10 * scale
    return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])


def _schoenberg_loop(m, p, alpha, trials, seed):
    """schoenberg_check one trial at a time, as it ran before the batched
    search (the oracle): (least eigenvalue, first set reaching it)."""
    rng = np.random.default_rng(seed)

    def f(diff):
        return np.exp(-ps.lp_norm(diff, p) ** alpha) if alpha > 0 \
            else np.ones(diff.shape[:-1])

    best = math.inf
    witness = None
    for _ in range(trials):
        k = int(rng.integers(3, 13))
        scale = 10.0 ** rng.uniform(-1.7, 0.0)
        pts = rng.uniform(-3.0, 3.0, (k, m)) * scale
        eig = _gram_min_eig_one(pts, f)
        if eig < best:
            best = eig
            witness = pts.copy()
    return best, witness


def _posdef_report_searches(trials, seed):
    """The four searches of posdef-report one trial at a time, in its order
    of draws, as they ran before the batched search (the oracle)."""
    rng = np.random.default_rng(seed)

    def search_min(fn, dim, trials):
        best = math.inf
        for _ in range(trials):
            k = int(rng.integers(3, 13))
            pts = rng.uniform(-3, 3, (k, dim)) * 10 ** rng.uniform(-1.5, 0)
            best = min(best, _gram_min_eig_one(pts, fn))
        return best

    hat = ps.RadialProfile(poly=np.array([1.0, -1.0]))
    expo = ps.RadialProfile(fn=lambda t: np.exp(-t))
    return [search_min(lambda d: np.exp(-(d * d).sum(axis=-1)), 2, trials),
            search_min(lambda d: hat(np.linalg.norm(d, axis=-1)), 1, trials // 4),
            search_min(lambda d: expo(np.linalg.norm(d, axis=-1)), 1, trials // 4),
            search_min(lambda d: np.exp(-np.abs(d[..., 0]) ** 2.5), 1, trials)]


# trial counts on both sides of a batch boundary
CHUNK_TRIALS = (ps.GRAM_CHUNK - 1, ps.GRAM_CHUNK, ps.GRAM_CHUNK + 1)


class TestBatchedSearch:
    @pytest.mark.parametrize("m,p", [(2, 3.0), (3, math.inf)])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_schoenberg_equals_the_trial_loop(self, m, p, alpha):
        for seed in range(5):
            for trials in CHUNK_TRIALS:
                got = ps.schoenberg_check(m, p, alpha, trials=trials, seed=seed)
                best, witness = _schoenberg_loop(m, p, alpha, trials, seed)
                assert got["min_eig_found"] == best, (seed, trials)
                assert np.array_equal(got["witness"], witness), (seed, trials)

    def test_posdef_report_equals_the_trial_loop(self):
        # the quarter-size searches cross a batch boundary at 4*chunk + 4
        for seed in range(5):
            for trials in (*CHUNK_TRIALS, 4 * ps.GRAM_CHUNK + 4):
                rows, _ = cli._exp_posdef_report({"trials": trials}, seed)
                got = [r["value"] for r in rows if r["evidence"] == "search"]
                assert got == _posdef_report_searches(trials, seed), (seed, trials)

    def test_no_trials(self):
        assert ps.gram_search(lambda: pytest.fail("drew"), np.cos, 0) == (math.inf, None)

    def test_memory_does_not_grow_with_trials(self):
        # one batch at a time: ten batches peak where one does, up to the
        # few small buffers that numpy's allocation cache keeps from each
        # batch (2 KB over ten batches here), which tracemalloc counts
        rng = np.random.default_rng(0)
        fn = lambda d: np.exp(-ps.lp_norm(d, 3.0))
        ps.gram_search(lambda: rng.uniform(-3, 3, (12, 3)), fn, ps.GRAM_CHUNK)
        peaks = []
        for trials in (ps.GRAM_CHUNK, 10 * ps.GRAM_CHUNK):
            tracemalloc.start()
            try:
                ps.gram_search(lambda: rng.uniform(-3, 3, (12, 3)), fn, trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096


@pytest.mark.parametrize("fn,dim", [
    (lambda d: np.exp(-(d * d).sum(axis=-1)), 2),
    (lambda d: np.exp(-ps.lp_norm(d, 3.0) ** 1.5), 3),
    (lambda d: np.exp(-ps.lp_norm(d, math.inf)), 3),
    (lambda d: ps.RadialProfile(poly=np.array([1.0, -1.0]))(np.linalg.norm(d, axis=-1)), 1),
    (lambda d: np.exp(-np.abs(d[..., 0]) ** 2.5), 1),
], ids=["gauss", "lp3", "max-norm", "hat", "stretched"])
def test_stack_equals_single_calls(fn, dim):
    rng = np.random.default_rng(7)
    for shape in ((40, 1), (40, 3), (40, 12), (4, 5, 6)):
        stack = rng.uniform(-3, 3, (*shape, dim))
        got = ps.gram_min_eig(stack, fn)
        assert got.shape == shape[:-1]
        want = [ps.gram_min_eig(pts, fn) for pts in stack.reshape(-1, *shape[-1:], dim)]
        assert got.ravel().tolist() == want


def test_stack_checks_each_matrix():
    # a tiny matrix's asymmetry is judged against its own scale, not the stack's
    pts = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])
    tiny = np.array([1.0, 1e-20])[:, None, None]
    assert ps.gram_min_eig(pts, lambda d: tiny * np.cos(d[..., 0])).shape == (2,)
    with pytest.raises(InvalidArgument, match="not Hermitian"):
        ps.gram_min_eig(pts, lambda d: tiny * (np.cos(d[..., 0]) + 1e-5 * d[..., 0]))
    with pytest.raises(InvalidArgument, match=r"\(2, 2, 2\)"):
        ps.gram_min_eig(pts, lambda d: np.cos(d[0, ..., 0]))


def test_no_scipy_import():
    # the module runs on numpy alone; scipy serves its tests as an oracle
    tree = ast.parse(Path(ps.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "scipy"]

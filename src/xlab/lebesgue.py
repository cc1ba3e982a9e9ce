"""Operator norms (Lebesgue constants) of summability means, worst-case
deviations over the bounded-derivative classes, two-dimensional rhombic and
hyperbolic kernels, and asymptotic-law fitting.

The operator norm of a polynomial mean on continuous periodic functions is
(1/2pi) times the L1 norm of its kernel.  For real kernels (Hermitian
weights) that integral is computed exactly by one engine in O(M log M) time
and O(M) memory, M a power of two >= 32(K+1) for degree K, after the
periodic Chebfun of Wright, Javed, Montanari and Trefethen (SIAM J. Sci.
Comput. 2015): FFTs sample the kernel, its scaled derivatives and its
antiderivative on the M-grid, sign changes are bracketed there, each zero
is polished by safeguarded Newton on the cell's Taylor polynomial, and |K|
is integrated piecewise from the antiderivative's Taylor data at the zeros.
The error bound has three terms: zero mislocation, the Taylor remainder
(from Bernstein's inequality) and rounding.  The deviation over W^r runs
the same engine on the tail kernel, a polynomial minus a cosine sum.  The 2-D
norms sum |K| over the quarter torus in one blocked pass, with closed-form
Dirichlet factors and the coarse estimate read off the even sub-grid."""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .errors import ConvergenceFailure, InvalidArgument
# compute_coefficients is unused here: perfbench's tracer test patches this copy
from .trig import (TWO_PI, TrigCoefficients, compute_coefficients,  # noqa: F401
                   dirichlet, synthesize)


@dataclass(frozen=True)
class LebesgueSample:
    n: object          # int, or pair for the 2-D kernels
    value: float
    quad_error: float

    def __post_init__(self):
        if self.value < 0 or self.quad_error < 0:
            raise InvalidArgument("norm and error bound must be nonnegative")


@dataclass(frozen=True)
class AsymptoticFit:
    model: str
    params: tuple
    residual: float


# ---------------------------------------------------------------------------
# exact L1 norm of a trigonometric polynomial
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0 ** -53
# rounding error of one FFT stage relative to the magnitudes entering it:
# eta = mu + gamma_4 (sqrt(2) + mu) with twiddle factors accurate to mu = u
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 24.1)
FFT_STAGE_ERROR = 7.0 * UNIT_ROUNDOFF
POLISH_STEPS = 16


def _grid_samples(a, m):
    """(real samples of sum a_k e^{ikx} on the M-grid, bound on the rounding
    error of each sample).  Every output of a radix-2 FFT reaches each input
    along one path of unit-modulus twiddles, so log2(M) stages err by at most
    eta * sum|a_k| in total; two more eta cover forming the a_k."""
    vals = synthesize(TrigCoefficients((a.size - 1) // 2, a), m).values.real
    return vals, (math.log2(m) + 2) * FFT_STAGE_ERROR * float(np.sum(np.abs(a)))


def _horner(taylor, s):
    """(p(s), p'(s)) columnwise for p(s) = sum_j taylor[j] s^j."""
    p, dp = taylor[-1], np.zeros_like(s)
    for row in taylor[-2::-1]:
        dp = dp * s + p
        p = p * s + row
    return p, dp


def _polish(taylor, floor):
    """Safeguarded Newton on the cell polynomials p(s) = sum_j taylor[j] s^j,
    each with a sign change on [0, 1].  Keeps the best point seen per cell
    (a converged iterate on a bracket end must not be lost to the safeguard)
    and stops once every |p| is below `floor`, the accuracy of p as a
    stand-in for the function.  Returns (s, |p(s)|, |p'(s)|, bracket width)."""
    lo, hi, plo = np.zeros(taylor.shape[1]), np.ones(taylor.shape[1]), taylor[0]
    s = np.full_like(lo, 0.5)
    best_s, best_p, best_dp = s, np.full_like(lo, np.inf), np.ones_like(lo)
    for _ in range(POLISH_STEPS):
        p, dp = _horner(taylor, s)
        better = np.abs(p) < best_p
        best_s = np.where(better, s, best_s)
        best_p = np.where(better, np.abs(p), best_p)
        best_dp = np.where(better, np.abs(dp), best_dp)
        if np.all(best_p <= floor):
            break
        # signbit keeps values of exactly 0.0 on the positive side
        same = np.signbit(p) == np.signbit(plo)
        lo = np.where(same, s, lo)
        plo = np.where(same, p, plo)
        hi = np.where(same, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            sn = s - p / dp
        bad = ~np.isfinite(sn) | (sn < lo) | (sn > hi)
        s = np.where(bad, 0.5 * (lo + hi), sn)
    return best_s, best_p, best_dp, hi - lo


def _piecewise_l1(c, oversample, poly=(0.0,)):
    """(int_{-pi}^{pi} |f(x)| dx, certified error bound) for the real function
    f(x) = sum_k c_k e^{ikx} + poly(x + pi), c Hermitian of degree K, poly
    in ascending powers.  Sign changes are scanned on x_i = -pi + ih,
    h = 2pi/M, M = 2^m >= max(64, 2 * oversample * (K+1)), closed at
    x_M = pi by the limit from the left (the periodic wrap when poly = 0);
    d_j = f^(j)(x_i) h^j / j!, j <= J, are a bracketing cell's Taylor data
    and F(x) = c_0 x + P(x) + Q(x + pi), P periodic, Q' = poly, is the
    antiderivative.  Error terms: mislocation, sum over zeros of rho * delta
    (rho bounds |f| at the polished point, delta its distance to the zero);
    Taylor remainder, |f - p| <= R = (Kh)^{J+1}/(J+1)! sum|c_k| on a cell
    (J least with R <= u sum|c_k|), so each F(zero) is off by at most hR;
    rounding in the FFT samples, the polynomial and Taylor evaluations and
    the final sum."""
    u = UNIT_ROUNDOFF
    kmax = (c.size - 1) // 2
    k = np.arange(-kmax, kmax + 1)
    m = 1 << max(6, int(math.ceil(math.log2(oversample * 2 * (kmax + 1)))))
    h = TWO_PI / m
    order, rem = 0, kmax * h
    while rem > u:
        order += 1
        rem *= kmax * h / (order + 1)
    taylor_rem = rem * float(np.sum(np.abs(c)))
    poly = np.asarray(poly, dtype=float)
    ipoly = np.concatenate(([0.0], poly / np.arange(1, poly.size + 1)))
    order = max(order, poly.size - 1)
    # |p|(2pi + h) bounds sum_j |p^(j)(t)| h^j / j! for 0 <= t <= 2pi
    err_poly = (2 * poly.size + 2) * u * float(_polyval(np.abs(poly), TWO_PI + h))
    err_ipoly = (2 * ipoly.size + 2) * u * float(_polyval(np.abs(ipoly), TWO_PI + h))

    t = h * np.arange(m + 1)                          # x + pi
    trig_vals, err_data = _grid_samples(c, m)
    vals = np.append(trig_vals, trig_vals[0]) + _polyval(poly, t)
    idx = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    ti = t[idx]

    taylor = np.zeros((order + 1, idx.size))
    taylor[0] = trig_vals[idx]
    a, dpoly = c, poly                                # dpoly = poly^(j) / j!
    for j in range(order + 1):
        if j and idx.size:
            a = a * (1j * h / j) * k
            sampled, err = _grid_samples(a, m)
            taylor[j] = sampled[idx]
            err_data += err
        taylor[j] += h ** j * _polyval(dpoly, ti)
        dpoly = dpoly[1:] * np.arange(1, dpoly.size) / (j + 1)
    abs_taylor = np.sum(np.abs(taylor), axis=0)
    noise = taylor_rem + err_data + err_poly + (2 * order + 2) * u * abs_taylor
    s, resid, slope, width = _polish(taylor, noise)
    rho = resid + noise
    with np.errstate(divide="ignore"):
        delta = h * np.minimum(width, rho / slope)
    mislocation = float(np.sum(rho * delta))

    # F at -pi, at each zero, and at pi
    anti = np.divide(c, 1j * k, out=np.zeros_like(c), where=k != 0)
    p_vals, err_anti = _grid_samples(anti, m)
    c0 = c[kmax].real
    integ, _ = _horner(taylor / np.arange(1, order + 2)[:, None], s)
    parts = np.array([
        np.concatenate(([-np.pi], ti - np.pi, [np.pi])) * c0,
        np.concatenate(([p_vals[0]], p_vals[idx], [p_vals[0]])),
        _polyval(ipoly, np.concatenate(([0.0], ti, [TWO_PI]))),
        np.concatenate(([0.0], h * s * integ, [0.0])),
    ])
    value = math.fsum(np.abs(np.diff(np.sum(parts, axis=0))))
    scale = np.sum(np.abs(parts), axis=0) + np.concatenate(
        ([0.0], h * abs_taylor, [0.0]))
    point_err = (err_anti + h * (err_data + err_poly) + err_ipoly
                 + (2 * order + 8) * u * scale)
    rounding = 2.0 * float(np.sum(point_err)) + 2.0 * u * value
    return value, mislocation + 2.0 * idx.size * h * taylor_rem + rounding


def trig_poly_l1(coeffs, oversample=16):
    """(L1 norm over one period, certified error bound) for a real-valued
    trigonometric polynomial given by Hermitian coefficients c_{-K}..c_K
    (c_{-k} = conj c_k); see `_piecewise_l1` for the method and the bound."""
    c = TrigCoefficients((np.size(coeffs) - 1) // 2, coeffs)
    if not c.is_real_valued():
        raise InvalidArgument("coefficients are not Hermitian (kernel not real)")
    value, err = _piecewise_l1(c.c, oversample)
    # |f| and |Re f| differ by at most |Im f| <= sum|c_k - conj c_{-k}| / 2
    return value, err + np.pi * float(np.sum(np.abs(c.c - np.conj(c.c[::-1]))))


def lebesgue_constant(method, n, tol=1e-9):
    """Operator norm of the mean at index n: (1/2pi) int |K_n(t)| dt."""
    if n < 0 or not tol > 0:
        raise InvalidArgument("need index n >= 0 and tolerance tol > 0")
    value, err = trig_poly_l1(method.weights(n))
    if err / TWO_PI > tol:
        raise ConvergenceFailure("requested tolerance not certified",
                                 best_estimate=value / TWO_PI,
                                 error_estimate=err / TWO_PI)
    return LebesgueSample(n, value / TWO_PI, err / TWO_PI)


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------

def fit_log_model(ns, values):
    """Least squares for value = c*ln(n) + d; returns (c, d, rms residual)."""
    ns = np.asarray(ns, dtype=float)
    a = np.column_stack([np.log(ns), np.ones_like(ns)])
    sol, *_ = np.linalg.lstsq(a, np.asarray(values, dtype=float), rcond=None)
    resid = a @ sol - values
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(resid ** 2)))


def fit_power_model(ns, values):
    """Least squares for value = c*n^s in log-log; returns (c, s, rms)."""
    ns = np.asarray(ns, dtype=float)
    a = np.column_stack([np.log(ns), np.ones_like(ns)])
    y = np.log(np.asarray(values, dtype=float))
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = a @ sol - y
    return float(np.exp(sol[1])), float(sol[0]), float(np.sqrt(np.mean(resid ** 2)))


def geometric_grid(nmin, nmax):
    if nmin < 1:
        raise InvalidArgument("need nmin >= 1")
    out = []
    n = nmin
    while n <= nmax:
        out.append(n)
        n *= 2
    return out


def classical_lebesgue_fit(nmin, nmax):
    """Fit L_n = c*ln n + d for the partial-sum operator norms over the
    geometric grid nmin, 2nmin, ..., nmax."""
    if not (nmax >= 4 * nmin and 4 * nmin >= 64):
        raise InvalidArgument("need nmax >= 4*nmin >= 64")
    ns = geometric_grid(nmin, nmax)
    values = [lebesgue_constant(dirichlet(), n).value for n in ns]
    c, d, resid = fit_log_model(ns, values)
    return AsymptoticFit("c*ln(n)+d", (c, d), resid), ns, values


# ---------------------------------------------------------------------------
# worst-case deviation over W^r
# ---------------------------------------------------------------------------

def _full_series_poly(r):
    """Polynomial p with p(t) = sum_{k>=1} cos(kt - r*pi/2)/k^r on (0, 2pi).

    Built from S_1(t) = (pi - t)/2 by the integration recursion
    S_{r+1}' = S_r with zero mean over the period."""
    coeffs = [np.pi / 2.0, -0.5]          # ascending powers
    for _ in range(r - 1):
        integ = [0.0] + [c / (j + 1) for j, c in enumerate(coeffs)]
        mean = sum(c * TWO_PI ** j / (j + 1) for j, c in enumerate(integ))
        integ[0] = -mean
        coeffs = integ
    return np.array(coeffs)


def _polyval(coeffs, t):
    out = np.zeros_like(t, dtype=float)
    for c in coeffs[::-1]:
        out = out * t + c
    return out


KOLMOGOROV_TOL = 1e-9


def kolmogorov_deviation(r, n):
    """sup over the unit W^r class of ||f - S_n f||_inf, via (1/pi) times
    the L1 norm of the conjugate-tail kernel over a period, certified to
    KOLMOGOROV_TOL."""
    if r < 1 or n < 0:
        raise InvalidArgument("need r >= 1 and n >= 0")
    # on (0, 2pi) the tail kernel is poly(t) - sum_{k<=n} cos(kt - r pi/2)/k^r;
    # in x = t - pi the cosine sum has c_{+-k} = (-1)^k e^{-+i r pi/2} / 2k^r
    k = np.arange(1, n + 1)
    half = -((-1.0) ** k) * np.exp(-0.5j * np.pi * r) / (2.0 * k ** float(r))
    c = np.concatenate((np.conj(half[::-1]), [0.0], half))
    total, err = _piecewise_l1(c, 16, _full_series_poly(r))
    if err / np.pi > KOLMOGOROV_TOL or not err < total:
        raise ConvergenceFailure("error bound not certified", best_estimate=total / np.pi,
                                 error_estimate=err / np.pi)
    return total / np.pi


# ---------------------------------------------------------------------------
# two-dimensional kernels
# ---------------------------------------------------------------------------

BLOCK_ENTRIES = 1 << 20         # |K| entries per block of the 2-D pass (8 MB)
HYPERBOLIC_NMAX = 4096
RHOMBIC_OVERSAMPLE = 8


def _factors(h, const, lo, hi):
    """Rows const + 2 sum_{k=lo}^{hi} cos kx (no sum if hi < lo) on x_i = pi i/h,
    i = 0..h, by the Dirichlet closed form (sin((hi+1/2)x) - sin((lo-1/2)x))
    / sin(x/2) = 2 cos((lo+hi)x/2) sin((hi-lo+1)x/2) / sin(x/2), each angle an
    integer multiple of pi/2h reduced exactly; 2(hi - lo + 1) at x = 0."""
    const, lo, hi = (np.reshape(v, (-1, 1)) for v in (const, lo, hi))
    i = np.arange(h + 1)
    step = np.pi / (2 * h)
    out = np.cos(step * ((lo + hi) * i % (4 * h)))
    out *= np.sin(step * ((hi - lo + 1) * i % (4 * h)))
    out[:, 1:] *= 2.0 / np.sin(step * i[1:])
    out[:, :1] = 2.0 * (hi - lo + 1)
    out += const
    return out


def _fold_weights(h):
    """Trapezoidal fold weights on the quarter grid 0..h (column 0) and on
    its even sub-grid, the quarter grid of half the resolution (column 1)."""
    w = np.where(np.arange(h + 1) % h, 2.0, 1.0)
    return np.column_stack((w, np.where(np.arange(h + 1) % 2, 0.0, w)))


def _grouped_l1_2d(groups, n1, n2, oversample):
    """(fine, coarse) uniform Riemann sums of (1/4pi^2) int int
    |sum_g A_g(x1) B_g(x2)| dx on the m1 x m2 full-period grid,
    m = 2 oversample (n + 1) with oversample even, and on its even sub-grid;
    a group (lo1, hi1, c1, deg, c2) has the factors
    A = c1 + 2 sum_{k=lo1}^{hi1} cos k x1,
    B = c2 + 2 sum_{k=1}^{deg} cos k x2.  K is even in each variable, so one
    blocked pass over the quarter grid [0, pi]^2 folds |K| with both weights."""
    lo1, hi1, c1, deg, c2 = (np.array(v) for v in zip(*groups))
    h1, h2 = oversample * (n1 + 1), oversample * (n2 + 1)
    amat, bmat = _factors(h1, c1, lo1, hi1).T, _factors(h2, c2, 1, deg)
    w1, w2 = _fold_weights(h1), _fold_weights(h2)
    rows = min(h1 + 1, max(1, BLOCK_ENTRIES // (h2 + 1)))
    totals = np.zeros(2)
    for start in range(0, h1 + 1, rows):
        block = amat[start:start + rows] @ bmat
        np.abs(block, out=block)
        totals += np.sum(w1[start:start + rows] * (block @ w2), axis=0)
    return totals[0] / (4 * h1 * h2), totals[1] / (h1 * h2)


def _degree_groups(k1s, degree, c):
    """One group (lo1, hi1, const1, deg, const2) per run of k1 in k1s of equal
    x2-degree, a k1 range since the degree is monotone in k1; c = 1 when the
    index set holds the axes (k = 0), so k1 = 0 enters as const1."""
    groups = []
    for deg, run in itertools.groupby(k1s, degree):
        run = list(run)
        groups.append((max(run[0], 1), run[-1], c if run[0] == 0 else 0.0, deg, c))
    return groups


def _rhombic_groups(n1, n2):
    """Group the rhombus |k1|/n1 + |k2|/n2 <= 1 by x2-degree."""
    return _degree_groups(range(n1 + 1), lambda k1: int(
        math.floor(n2 * (1.0 - k1 / n1) + 1e-12)), 1.0)


def rhombic_lebesgue(n1, n2):
    """Operator norm of the rhombic partial sum on the torus, by uniform
    Riemann sums of |kernel| at two resolutions (the difference is the
    reported error estimate)."""
    if n1 < 1 or n2 % n1 != 0:
        raise InvalidArgument("need n2 a positive multiple of n1")
    if n1 > 64:
        raise InvalidArgument("cost guard: n1 <= 64")
    fine, coarse = _grouped_l1_2d(_rhombic_groups(n1, n2), n1, n2,
                                  RHOMBIC_OVERSAMPLE)
    return LebesgueSample((n1, n2), fine, abs(fine - coarse))


def _hyperbolic_groups(alpha, n):
    """Group {k1 >= 1, k2 >= 1, k1^alpha * k2 <= n} by the k2 degree."""
    return _degree_groups(
        itertools.takewhile(lambda k1: k1 ** alpha <= n, itertools.count(1)),
        lambda k1: int(math.floor(n / k1 ** alpha + 1e-12)), 0.0)


def hyperbolic_l1(alpha, n):
    """(L1/(2pi)^2, error estimate) for the hyperbolic-cross kernel
    (both coordinate axes excluded from the index set)."""
    if alpha < 1 or n < 1:
        raise InvalidArgument("need alpha >= 1 and n >= 1")
    groups = _hyperbolic_groups(alpha, n)
    if 4 * sum((g[1] - g[0] + 1) * g[3] for g in groups) > 10 ** 6:
        raise InvalidArgument("cost guard: kernel support exceeds 1e6 points")
    oversample = 4 if n > 1024 else 8
    fine, coarse = _grouped_l1_2d(groups, int(n ** (1.0 / alpha) + 1e-9), n,
                                  oversample)
    return fine, abs(fine - coarse)


def hyperbolic_exponent(alpha, nset):
    """Log-log slope fit of the hyperbolic kernel norms over nset."""
    if any(n > HYPERBOLIC_NMAX for n in nset):
        raise InvalidArgument(f"cost guard: n <= {HYPERBOLIC_NMAX}")
    values = [hyperbolic_l1(alpha, n)[0] for n in nset]
    c, s, resid = fit_power_model(nset, values)
    return AsymptoticFit("c*n^s", (c, s), resid), list(nset), values

"""Positive-definiteness testing and compactly supported spline families.

Positive definiteness of a function is never "proved" here; a result is
always labeled with its evidence class:

* ``polya``     -- the sufficient convexity criterion verified on a grid,
* ``transform`` -- nonnegativity of the radial Fourier transform on a
                   finite frequency grid,
* ``search``    -- absence of Gram-matrix violations under seeded search.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceFailure, IndeterminateGrid, InvalidArgument
from .ftlab import cos_transform_boundary, poly_boundary_derivs, radial_ft

A_SPLINE_N_RANGE = (2, 6)
SCHOENBERG_DIMS = (2, 3)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def gram_min_eig(points, function):
    """Minimum eigenvalue of the Gram matrix [f(x_i - x_j)] of at most 64
    distinct points in R^m, m <= 4 (Hermitian eigensolver): a float for one
    set, shape (k, m), an array for a stack of sets, shape (..., k, m),
    equal to the sets' own calls bit for bit.  The evaluator f maps the
    (..., k, k, m) differences x_i - x_j to the (..., k, k) values; each
    matrix must be Hermitian on its own."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[-2]
    if k > 64:
        raise InvalidArgument("at most 64 points")
    if pts.shape[-1] > 4:
        raise InvalidArgument("ambient dimension at most 4")
    g = np.asarray(function(pts[..., :, None, :] - pts[..., None, :, :]), dtype=complex)
    if g.shape != pts.shape[:-1] + (k,):
        raise InvalidArgument(f"evaluator must return a {pts.shape[:-1] + (k,)} array")
    gh = np.swapaxes(g, -1, -2).conj()
    scale = np.max(np.abs(g), axis=(-2, -1))
    if np.any(np.max(np.abs(g - gh), axis=(-2, -1))
              > 1e-10 * np.where(scale > 0, scale, 1.0)):
        raise InvalidArgument("Gram matrix is not Hermitian")
    eig = np.linalg.eigvalsh(0.5 * (g + gh))[..., 0]
    return float(eig) if eig.ndim == 0 else eig


# point sets per batch of gram_search: at 12 points in R^3 a batch takes
# about 2 MB whatever the trial count.  A set of 3 to 12 points costs 12-23 us
# (best of 3 on a 2-vCPU host, `schoenberg` and `posdef-report`).
GRAM_CHUNK = 256
GRAM_TRIAL_S = 2.5e-5


def gram_search(draw, function, trials):
    """The least Gram eigenvalue over `trials` point sets from draw(), and
    the first set that reaches it (inf and None for no trials).  The sets
    are drawn in order, GRAM_CHUNK at a time, and the sets of one size in a
    batch go to gram_min_eig as one stack."""
    best, witness = math.inf, None
    for lo in range(0, trials, GRAM_CHUNK):
        sets = [draw() for _ in range(min(GRAM_CHUNK, trials - lo))]
        eigs = np.empty(len(sets))
        for k in {len(s) for s in sets}:
            at = [i for i, s in enumerate(sets) if len(s) == k]
            eigs[at] = gram_min_eig(np.stack([sets[i] for i in at]), function)
        i = int(np.argmin(eigs))
        if eigs[i] < best:
            best, witness = float(eigs[i]), sets[i]
    return best, witness


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """Scalar profile on t >= 0; either a closed-form evaluator or a single
    polynomial piece on [0, 1] with zero extension.  A profile with both
    evaluates through fn, and poly (floats or exact Fractions) serves the
    transform's boundary expansion."""

    fn: object = None
    poly: object = None              # ascending coefficients on [0, 1]
    label: str = ""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.fn is not None:
            return self.fn(t)
        inside = t < 1.0
        out = np.zeros_like(t)
        out[inside] = np.polynomial.polynomial.polyval(t[inside], self.poly)
        return out


POLYA_TOL = 1e-8


def polya_test(profile, m):
    """Grid certification of the sufficient condition for membership in the
    class of positive definite radial functions on R^m: with
    n = [(m+2)/2], requires continuity, a nonnegative limit at infinity,
    convexity of (-1)^(n-1) f^(n-1) on (0, inf), and vanishing of
    t^n f^(n)(t) at 0 and infinity.

    True certifies only the sufficient condition, checked on 600 geometric
    points of [1e-4, 1e4]; a margin within POLYA_TOL of failing raises
    IndeterminateGrid."""
    n = (m + 2) // 2
    t_grid = np.geomspace(1e-4, 1e4, 600)

    def deriv(t, p):
        if p == 0:
            return profile(t)
        h = np.maximum(1e-6, 1e-3 * t)
        return (deriv(t + h, p - 1) - deriv(t - h, p - 1)) / (2 * h)

    # limit at infinity exists and is >= 0
    tail = profile(np.linspace(2e3, 1e4, 64))
    if np.max(tail) - np.min(tail) > 1e-3 * max(1.0, np.max(np.abs(profile(t_grid)))):
        return False
    if np.min(tail) < -POLYA_TOL:
        return False

    # convexity of (-1)^(n-1) f^(n-1): second divided differences (the grid
    # is geometric, so plain differences would see the uneven spacing)
    g = ((-1.0) ** (n - 1)) * deriv(t_grid, n - 1)
    slopes = np.diff(g) / np.diff(t_grid)
    d2 = np.diff(slopes)
    scale = max(1.0, float(np.max(np.abs(slopes))))
    worst = float(np.min(d2))
    if worst < -1e-4 * scale:
        return False
    if worst < -POLYA_TOL * scale:
        raise IndeterminateGrid("convexity margin too small to certify")

    # boundary decay of t^n f^(n)(t)
    for t0 in (1e-4, 1e-3):
        if abs(t0 ** n * deriv(np.array([t0]), n)[0]) > 1e-2:
            return False
    for t1 in (2e3, 8e3):
        if abs(t1 ** n * deriv(np.array([t1]), n)[0]) > 1e-2:
            return False
    return True


# ---------------------------------------------------------------------------
# spline families
# ---------------------------------------------------------------------------

def b_spline(n, x):
    """Central B-spline of degree n (indicator of (-1/2,1/2) convolved with
    itself n times), exact piecewise-polynomial evaluation."""
    if not 0 <= n <= 12:
        raise InvalidArgument("degree restricted to [0, 12]")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(n + 2):
        out += (-1.0) ** j * math.comb(n + 1, j) \
            * np.clip(x + (n + 1) / 2.0 - j, 0.0, None) ** n
    return out / math.factorial(n) if n > 0 else np.where(
        np.abs(x) < 0.5, 1.0, 0.0)


def _falling(a, m):
    out = 1.0
    for i in range(m):
        out *= a - i
    return out


def _a_spline_system(n):
    """Rows/rhs of the defining constraints for the [0,1]-piece coefficients:
    p(0)=1; p^(k)(1)=0 for k=0..2n-2; odd derivatives at 0 vanish through
    order 2n-3.  Entries are exact integers."""
    deg = 3 * n - 2
    size = deg + 1                       # == 3n - 1 unknowns
    rows, rhs = [], []
    e = [0] * size
    e[0] = 1
    rows.append(e)
    rhs.append(1)
    for k in range(0, 2 * n - 1):        # contact at t = 1
        rows.append([int(_falling(i, k)) for i in range(size)])
        rhs.append(0)
    for k in range(1, 2 * n - 2, 2):     # evenness at t = 0
        e = [0] * size
        e[k] = math.factorial(k)
        rows.append(e)
        rhs.append(0)
    return rows, rhs


def a_spline_exact(n):
    """Exact rational coefficients of the [0,1]-piece (Fraction list).

    The constraint matrix gets badly conditioned in floating point from
    n=3 on, but it is an integer matrix, so exact elimination settles the
    uniqueness question and makes the contact residuals exactly zero."""
    from fractions import Fraction
    if not A_SPLINE_N_RANGE[0] <= n <= A_SPLINE_N_RANGE[1]:
        raise InvalidArgument(f"family computed for n in {list(A_SPLINE_N_RANGE)}")
    rows, rhs = _a_spline_system(n)
    size = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            raise ConvergenceFailure("constraint system is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][size] for r in range(size)]


def _deflate_at_one(exact, times):
    """Exact synthetic division of p by (1-t)^times (remainders must vanish)."""
    from fractions import Fraction
    work = list(exact)
    for _ in range(times):
        # divide ascending-coefficient poly by (1 - t)
        out = [Fraction(0)] * (len(work) - 1)
        carry = Fraction(0)
        for j in range(len(work) - 1):
            out[j] = work[j] + carry
            carry = out[j]
        if work[-1] + carry != 0:
            raise ConvergenceFailure("deflation remainder nonzero")
        work = out
    return work


def a_spline(n):
    """The unique even two-piece spline of degree 3n-2 with smoothness
    C^(2n-2), value 1 at the origin, and maximal contact at the support
    endpoint.  Returns the [0,1]-piece as a RadialProfile whose poly holds
    the exact Fraction coefficients.

    Evaluation goes through the exact factorization p = (1-t)^(2n-1) h(t),
    which stays accurate near the endpoint where the raw coefficients
    (up to ~2e4 for n=6) would cancel catastrophically."""
    exact = a_spline_exact(n)
    h = np.array([float(c) for c in _deflate_at_one(exact, 2 * n - 1)])

    def factored(t):
        t = np.asarray(t, dtype=float)
        base = np.clip(1.0 - t, 0.0, None)
        return base ** (2 * n - 1) * np.polynomial.polynomial.polyval(t, h)

    return RadialProfile(fn=factored, poly=tuple(exact), label=f"a_spline({n})")


def a_spline_shape(n):
    """Bell-shape certificate from the factorization p = (1-t)^(2n-1) h(t):
    positivity of h on [0,1], no interior zero of p' (monotone decrease),
    and the interior zero count of p'' (one inflection expected).

    The cofactors have degree <= n, so their root counts are reliable where
    the raw degree-(3n-2) polynomial's are not."""
    k = 2 * n - 1
    h = np.polynomial.Polynomial(
        [float(c) for c in _deflate_at_one(a_spline_exact(n), k)])
    one = np.polynomial.Polynomial([1.0, -1.0])
    g1 = -k * h + one * h.deriv()                     # p' = (1-t)^(k-1) g1
    g2 = k * (k - 1) * h - 2 * k * one * h.deriv() \
        + one ** 2 * h.deriv(2)                       # p'' = (1-t)^(k-2) g2

    def interior_roots(poly):
        return [z.real for z in poly.roots()
                if abs(z.imag) < 1e-9 and 1e-9 < z.real < 1.0 - 1e-9]

    tt = np.linspace(0.0, 1.0, 501)
    return {
        "positive": bool(np.all(h(tt) > 0.0)),
        "decreasing": len(interior_roots(g1)) == 0 and g1(0.5) < 0,
        "inflections": len(interior_roots(g2)),
    }


def a_spline_contact_residuals(n):
    """Exact constraint residuals of a_spline(n) (all zero by construction;
    returned so the verification is a computation, not an assumption)."""
    from fractions import Fraction
    exact = a_spline_exact(n)
    rows, rhs = _a_spline_system(n)
    res = []
    for row, b in zip(rows, rhs):
        res.append(abs(sum(Fraction(r) * c for r, c in zip(row, exact)) - b))
    return [float(x) for x in res]


def e_spline(n, s):
    """Derivative-generated positive-definite spline family: the profile is
    the polynomial obtained by termwise differentiation of
    t^(n-3/2) (1-sqrt(t))^n, evaluated at s = sqrt(t); zero for s >= 1.
    n = 1 reproduces the hat profile (1-s)+."""
    if n < 1:
        raise InvalidArgument("n >= 1")
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = np.abs(s[inside])
    acc = np.zeros_like(si)
    for j in range(n + 1):
        a_j = n - 1.5 + 0.5 * j
        acc += math.comb(n, j) * (-1.0) ** j * _falling(a_j, n - 1) * si ** j
    out[inside] = acc
    return out if out.shape else float(out)


def tilde_e_spline(n, x):
    """Legendre self-convolution spline: (-1)^n (P_n * P_n)(x) with P_n the
    Legendre polynomial rescaled to [-1/2, 1/2] and zero-extended; support
    [-1, 1] and nonnegative Fourier transform by the convolution theorem."""
    if not 0 <= n <= 10:
        raise InvalidArgument("degree restricted to [0, 10]")
    # |x| >= 1 gives an empty interval (half = 0) at finite nodes
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(n + 1)
    lo, hi = np.maximum(-0.5, x - 0.5), np.minimum(0.5, x + 0.5)
    half = 0.5 * (hi - lo)
    t = half[..., None] * nodes + 0.5 * (hi + lo)[..., None]
    p_n = [0.0] * n + [1.0]
    legval = np.polynomial.legendre.legval
    vals = legval(2 * t, p_n) * legval(2 * (x[..., None] - t), p_n)
    out = (-1.0) ** n * half * (vals @ weights)
    return out if out.shape else float(out)


def radial_ft_positivity(profile, rmax, step):
    """Minimum of the 1-D radial transform of a single-piece polynomial
    profile (poly required) on the grid [0, rmax] with the given spacing:
    one radial_ft call below the seam 3*degree + 8 (panels follow the
    oscillation only), the exact boundary expansion above it, where
    quadrature loses the tiny tail values and the expansion no longer
    cancels; the test suite cross-validates the two at the seam."""
    if profile.poly is None:
        raise InvalidArgument("transform positivity needs a profile with poly")
    r = np.arange(0.0, rmax + 0.5 * step, step)
    d0, d1 = poly_boundary_derivs(profile.poly)
    seam = 3.0 * (len(profile.poly) - 1) + 8.0
    low = r < seam
    vals = np.empty_like(r)
    vals[~low] = cos_transform_boundary(d0, d1, r[~low])
    vals[low] = radial_ft(profile, r[low])
    i = int(np.argmin(vals))
    return {"min_value": float(vals[i]), "argmin": float(r[i])}


def shift_approx(f, n, h, halfwidth):
    """Least-squares fit of sum_k c_k A(x + k h) (A the even extension of
    a_spline(n)) to f on a grid of [-Nh-1, Nh+1] with 8 points per step h."""
    prof = a_spline(n)
    nh = halfwidth * h
    npts = max(64, int(round(8 * (2 * nh + 2) / h)))
    x = np.linspace(-nh - 1.0, nh + 1.0, npts)
    cols = np.stack([prof(np.abs(x + k * h))
                     for k in range(-halfwidth, halfwidth + 1)], axis=1)
    target = np.asarray(f(x), dtype=float)
    sol, _, rank, _ = np.linalg.lstsq(cols, target, rcond=1e-12)
    warn = rank < cols.shape[1]
    sup_error = float(np.max(np.abs(cols @ sol - target)))
    return {"coeffs": sol, "sup_error": sup_error, "rank_deficient": bool(warn)}


# ---------------------------------------------------------------------------
# Schoenberg-type searches
# ---------------------------------------------------------------------------

def lp_norm(points, p):
    pts = np.asarray(points, dtype=float)
    if math.isinf(p):
        return np.max(np.abs(pts), axis=-1)
    return (np.abs(pts) ** p).sum(axis=-1) ** (1.0 / p)


def schoenberg_check(m, p, alpha, trials, seed):
    """Randomized Gram search for exp(-||x||_p^alpha) on R^m.

    Point sets of 3 to 12 points with coordinates in [-3, 3] are
    drawn at log-uniform random scales (violations of the small-scale
    distance-matrix kind only surface when the linear term dominates).
    Returns the most negative eigenvalue found and its witness."""
    if m not in SCHOENBERG_DIMS:
        raise InvalidArgument("dimension m in {2, 3}")
    if not (p > 2):
        raise InvalidArgument("exponent p > 2 (use math.inf for the max norm)")
    if alpha < 0:
        raise InvalidArgument("alpha >= 0")
    rng = np.random.default_rng(seed)

    def f(diff):
        return np.exp(-lp_norm(diff, p) ** alpha) if alpha > 0 \
            else np.ones(diff.shape[:-1])

    def draw():
        k = int(rng.integers(3, 13))
        scale = 10.0 ** rng.uniform(-1.7, 0.0)
        return rng.uniform(-3.0, 3.0, (k, m)) * scale

    best, witness = gram_search(draw, f, trials)
    return {"min_eig_found": float(best), "witness": witness,
            "trials": trials, "seed": seed}

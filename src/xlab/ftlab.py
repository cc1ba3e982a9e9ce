"""Oscillatory-sum discretization with certified residual (the correction
function h in closed form on 1/2 <= |x| <= pi, the oscillatory integral in
closed form or on a rotated contour with an error bound), closed-form
indicator transforms of the disc, the ellipse and the square with zero
curves bisected on all rays at once, and the 1-D cosine transform of radial
profiles with its exact boundary expansion for polynomials."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceFailure, InvalidArgument, NotFound
from .lebesgue import UNIT_ROUNDOFF
from .trig import SYNTHESIS_ENTRIES, TWO_PI

EULER_MACLAURIN_RMAX = 4
INDICATOR_FT_UMAX = 1e3          # largest |u| at which indicator_ft evaluates
# indicator-zeros on a 2-vCPU host, one thread (in-process, best of 3-5, p
# = 1 and 20, disc and ellipse, CSV included): 1.2-2.7 ms a run at phis = 1
# for the bisection's ~45 indicator_ft calls, charged 3e-3 s a run, and
# 23-40 us a ray at 2,000 rays, charged 5e-5 s; a traced peak of 580-600
# bytes a row with its CSV line, charged 800, and a ray chunk's working set,
# at most 2.7 MB, which fits in 2^24 with the 14 MB that a process traces
# importing scipy.special, its only scipy module
ZERO_CURVE_RUN_S, ZERO_CURVE_S, ZERO_CURVE_BYTES = 3e-3, 5e-5, 800
SPECIAL_IMPORT_BYTES = 2 ** 24


# ---------------------------------------------------------------------------
# the correction function h(x) = 1/x - cot(x/2)/2 and its derivatives
# ---------------------------------------------------------------------------

def h_function(x, p):
    """p-th derivative of h(x) = 1/x - (1/2)cot(x/2) on 1/2 <= |x| <= pi, in
    closed form; the experiments evaluate it at |x| in {pi/2, 1, 3}."""
    if not 0.5 <= abs(x) <= np.pi + 1e-12:
        raise InvalidArgument("argument restricted to 1/2 <= |x| <= pi")
    c = 1.0 / math.tan(x / 2.0)
    c2 = c * c
    if p == 0:
        u = c
    elif p == 1:
        u = -(1.0 + c2) / 2.0
    elif p == 2:
        u = c * (1.0 + c2) / 2.0
    elif p == 3:
        u = -(1.0 + c2) * (1.0 + 3.0 * c2) / 4.0
    elif p == 4:
        u = c * (1.0 + c2) * (2.0 + 3.0 * c2) / 2.0
    else:
        raise InvalidArgument("derivative order supported up to 4")
    inv = ((-1.0) ** p) * math.factorial(p) / x ** (p + 1)
    return float(inv - u / 2.0)


# ---------------------------------------------------------------------------
# Euler-Maclaurin type discretization of oscillatory sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayingFunction:
    """A function on [n, inf) with derivatives, a variation bound and its
    oscillatory integral.

    deriv(u, p) evaluates f^(p)(u) (vectorized in u); variation(a, p)
    returns the total variation of f^(p) on [a, inf) in closed form;
    integral(n, w) returns int_n^inf f(u) e^{iuw} du at w > 0 as a complex
    value and a bound on its error.
    """

    deriv: object
    variation: object
    integral: object


def exponential_decay(a):
    """f(u) = e^{-a u}; |f^(p)| is monotone so variations are explicit."""
    if a <= 0:
        raise InvalidArgument("decay rate must be positive")

    def deriv(u, p):
        return (-a) ** p * np.exp(-a * np.asarray(u, dtype=float))

    def variation(n, p):
        return a ** p * math.exp(-a * n)

    def integral(n, w):
        """e^{(iw - a)n} / (a - iw) in closed form.  Rounding a n and w n
        moves the modulus and the phase by up to (a n + w n) u, exp, cos, sin
        and the division by a few u more; an e^{-an} below the normal range
        keeps only an absolute accuracy of a few subnormal units."""
        den = complex(a, -w)
        value = math.exp(-a * n) * complex(math.cos(w * n), math.sin(w * n)) / den
        bound = (a * n + w * n + 8) * UNIT_ROUNDOFF * abs(value) \
            + 4 * math.ulp(0.0) / abs(den)
        return value, bound

    return DecayingFunction(deriv, variation, integral)


# inverse_power's integral on the rotated contour: CONTOUR_NODES-point
# Gauss-Legendre panels out to t = CONTOUR_END, each bounded on its
# Bernstein ellipse of parameter CONTOUR_RHO
CONTOUR_NODES, CONTOUR_END, CONTOUR_RHO = 24, 45.0, 3.0


def inverse_power(b):
    """f(u) = (1 + u)^{-b}, b > 1."""
    if b <= 1:
        raise InvalidArgument("need b > 1 for a convergent sum")
    gx, gw = np.polynomial.legendre.leggauss(CONTOUR_NODES)

    def deriv(u, p):
        coef = 1.0
        for i in range(p):
            coef *= -(b + i)
        return coef * (1.0 + np.asarray(u, dtype=float)) ** (-b - p)

    def variation(n, p):
        coef = 1.0
        for i in range(p):
            coef *= b + i
        return coef * (1.0 + n) ** (-b - p)

    def integral(n, w):
        """The ray u = n + it/w, on which e^{iuw} = e^{iwn} e^{-t}:

            int_n^inf f(u) e^{iuw} du = (i/w) e^{iwn} (n+1)^{-b} J,
            J = int_0^inf (1 + it/D)^{-b} e^{-t} dt,   D = (n+1)w,

        J's integrand being analytic off the branch cut t in i[D, inf).
        Gauss-Legendre panels [0, d], [d, 2d], [2d, 4d], ... up to
        CONTOUR_END, d = min(1, D), keep each panel's distance to t = iD at
        least its half-width h.  The bound adds four terms:

        * per panel, Trefethen's bound (ATAP Thm 19.3)
          (64/15) M rho^{-2N} / (rho^2 - 1) h for an integrand bounded by M
          inside the Bernstein ellipse E_rho, rho = CONTOUR_RHO: on E_rho
          Re t >= c - h k and Im t <= h s, k, s = (rho +- 1/rho)/2, so
          |t - iD| >= max(D - h s, c - h k) > 0;
        * the truncation, int_T^inf |.| <= |1 + iT/D|^{-b} e^{-T};
        * the rounding of the nodes, the integrand exp(E), E = -b log(1 +
          it/D) - t, and the sum of N terms, (N + b + 16 + 2 max|E|) u
          sum|h w g|;
        * the phase and the products: w n is rounded by up to w n u, so
          e^{iwn} and with it the value move by up to (w n + 2) u |I|, the
          largest term at large n; (w n + 8) u sum|h w g| (n+1)^{-b} / w
          covers it and the products' rounding.
        """
        big_d = (n + 1) * w
        edges = [0.0, min(1.0, big_d)]
        while edges[-1] < CONTOUR_END:
            edges.append(min(2 * edges[-1], CONTOUR_END))
        lo, hi = np.array(edges[:-1]), np.array(edges[1:])
        c, h = (hi + lo) / 2, (hi - lo) / 2
        t = c[:, None] + h[:, None] * gx
        tau = t / big_d
        expo = -0.5 * b * np.log1p(tau * tau) - t - 1j * b * np.arctan(tau)
        hwg = (h[:, None] * gw) * np.exp(expo)
        j = np.sum(hwg)

        rho = CONTOUR_RHO
        k, s = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
        dist = np.maximum(big_d - h * s, c - h * k)
        m = np.exp(h * k - c) * (dist / big_d) ** -b
        ellipse = 64 / 15 * rho ** (-2 * gx.size) / (rho * rho - 1) * np.sum(m * h)
        tail = math.hypot(1.0, CONTOUR_END / big_d) ** -b * math.exp(-CONTOUR_END)
        abs_sum = float(np.sum(np.abs(hwg)))
        rounding = (gx.size * lo.size + b + 16 + 2 * float(np.max(np.abs(expo)))) \
            * UNIT_ROUNDOFF * abs_sum
        scale = (n + 1.0) ** -b / w
        value = 1j * scale * complex(math.cos(w * n), math.sin(w * n)) * complex(j)
        bound = scale * (ellipse + tail + rounding + (w * n + 8) * UNIT_ROUNDOFF * abs_sum)
        return value, bound

    return DecayingFunction(deriv, variation, integral)


OSCILLATORY_TERMS = 200000
EULER_MACLAURIN_TOL = 1e-6
# the largest numerical error numeric_error * pi^r / V that theta may carry
# (the claim under test is |theta| <= 3)
EULER_MACLAURIN_THETA_TOL = 1e-3


def _oscillatory_series(f, n, x, target):
    """sum_{k>=n} f(k) e^{ikx} for convex decreasing f, as e^{inx} S, q =
    e^{ix}: S's head of h terms summed directly, the rest by two exact
    summation-by-parts steps,

        S = sum_{j<h} f(n+j) q^j + f(n+h) q^h / (1-q) + D q^(h+1) / (1-q)^2 + R,

    D = f(n+h+1) - f(n+h), where the second differences of f telescope to
    |R| <= |D| / |1-q|^2.  h starts at 64 and doubles until that bound is at
    most target, capped at OSCILLATORY_TERMS + 1.

    Returns (value, error bound): |D| / |1-q|^2 plus the rounding.  q**j
    drifts by up to j|x|u in phase and j u in modulus, u = 2^-53, so the
    head and the tail carry (h+1)(1 + |x|)u times their terms' moduli, the
    head log2(h) u more for the pairwise sum; e^{inx}, its phase n x
    rounded, moves the value by up to (n|x| + 4) u |S|.
    """
    q = np.exp(1j * x)
    one_q = 1.0 - q
    h = 64
    while True:
        f_h = f.deriv(n + h, 0)
        d = f.deriv(n + h + 1, 0) - f_h
        if h == OSCILLATORY_TERMS + 1 or abs(d) <= target * abs(one_q) ** 2:
            break
        h = min(2 * h, OSCILLATORY_TERMS + 1)
    fj = f.deriv(n + np.arange(h), 0)
    s = np.sum(fj * q ** np.arange(h)) + f_h * q ** h / one_q + d * q ** (h + 1) / one_q ** 2
    drift = (h + 1) * (1.0 + abs(x)) * UNIT_ROUNDOFF
    rounding = (drift + math.log2(h) * UNIT_ROUNDOFF) * np.sum(np.abs(fj)) \
        + drift * (abs(f_h) / abs(one_q) + abs(d) / abs(one_q) ** 2) \
        + (n * abs(x) + 4) * UNIT_ROUNDOFF * abs(s)
    return np.exp(1j * n * x) * s, abs(d) / abs(one_q) ** 2 + rounding


def oscillatory_sum(f, n, x, rmax):
    """sum_{k>=n} f(k) e^{ikx} and its error bound from _oscillatory_series,
    summed to the smallest target EULER_MACLAURIN_TOL / 10 * min(1, V_r /
    pi^r) over r = 0..rmax, V_r the variation of f^(r) on [n, inf): one sum
    serves every order r <= rmax, and below the head's cap its truncation
    moves each theta by at most EULER_MACLAURIN_TOL / 10."""
    target = min(EULER_MACLAURIN_TOL / 10 * min(1.0, float(f.variation(n, r)) / np.pi ** r)
                 for r in range(rmax + 1))
    return _oscillatory_series(f, n, x, target)


def euler_maclaurin_sum(f, n, r, x, integral=None, series=None):
    """Compare the oscillatory sum sum_{k>=n} f(k)e^{ikx} with its
    integral-plus-corrections discretization.

    Returns the sum (lhs), the main term
    int_n^inf f e^{iux} du + f(n)e^{inx}/2
    + e^{inx} sum_{p<r} ((-i)^{p+1}/p!) h^(p)(x) f^(p)(n),
    the normalized residual theta = (lhs - rhs) * pi^r / V, and the
    variation bound V of f^(r) on [n, inf).  f.integral(n, |x|), (value,
    bound), depends on neither r nor the sign of x (conjugated for x < 0, f
    being real), and the sum not on r: a caller looping over them passes it
    as `integral` and oscillatory_sum(f, n, x, rmax) as `series`, each
    computed here otherwise (the sum with rmax = r).  numeric_error is the
    integral's error bound plus the sum's (the tail bound and head rounding
    of _oscillatory_series, a head of 64 to OSCILLATORY_TERMS + 1 terms); it
    must stay within EULER_MACLAURIN_TOL * max(1, |lhs|), and theta's share
    of it, numeric_error * pi^r / V, within EULER_MACLAURIN_THETA_TOL.  V = 0
    (f^(r) underflows on [n, inf)) leaves theta undefined and is a failure.
    The corrections r >= 1 need h, so 1/2 <= |x| there.
    """
    if x == 0 or abs(x) > np.pi:
        raise InvalidArgument("need 0 < |x| <= pi")
    if not 0 <= r <= EULER_MACLAURIN_RMAX:
        raise InvalidArgument(f"correction order supported up to {EULER_MACLAURIN_RMAX}")
    v = float(f.variation(n, r))
    if v == 0:
        raise ConvergenceFailure(f"variation of f^({r}) on [{n}, inf) underflows to 0: "
                                 "theta is undefined")
    lhs, series_err = oscillatory_sum(f, n, x, r) if series is None else series
    value, integral_err = f.integral(n, abs(x)) if integral is None else integral
    phase = np.exp(1j * n * x)
    rhs = (value if x > 0 else value.conjugate()) + 0.5 * f.deriv(n, 0) * phase
    for p in range(r):
        rhs += phase * ((-1j) ** (p + 1) / math.factorial(p)) \
            * h_function(x, p) * f.deriv(n, p)

    err = integral_err + series_err
    if err > EULER_MACLAURIN_TOL * max(1.0, abs(lhs)):
        raise ConvergenceFailure("sum/integral tolerance not met",
                                 best_estimate=lhs, error_estimate=err)
    theta = (lhs - rhs) * np.pi ** r / v
    theta_err = err * np.pi ** r / v
    if theta_err > EULER_MACLAURIN_THETA_TOL:
        raise ConvergenceFailure(
            f"numerical error of theta {theta_err:.2e} exceeds "
            f"{EULER_MACLAURIN_THETA_TOL:g}",
            best_estimate=theta, error_estimate=theta_err)
    return {"lhs": complex(lhs), "rhs_main": complex(rhs),
            "theta": complex(theta), "variation": v, "numeric_error": err}


# ---------------------------------------------------------------------------
# indicator-function Fourier transforms of convex planar bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexBody2D:
    """A centrally symmetric convex planar body given by two closed forms:
    support(phi), its support function in the direction (cos phi, sin phi),
    and transform(u), the indicator transform int_K e^{i(u,x)} dx at u != 0,
    which is real by the symmetry.  transform takes one frequency u of
    shape (2,) or an array of them of shape (..., 2), and returns u's shape
    without the last axis, each entry the same floating-point expression as
    for a single frequency."""

    support: object
    transform: object

    @classmethod
    def disc(cls, radius):
        """2*pi*R*J_1(R|u|)/|u|."""
        if radius <= 0:
            raise InvalidArgument("disc radius must be positive")
        from scipy import special

        def transform(u):
            nu = np.hypot(u[..., 0], u[..., 1])
            return TWO_PI * radius * special.j1(radius * nu) / nu

        return cls(lambda phi: radius, transform)

    @classmethod
    def ellipse(cls, a, b):
        """Semi-axes a, b: the disc's transform pulled back by diag(a, b)."""
        a, b = float(a), float(b)
        if min(a, b) <= 0:
            raise InvalidArgument("ellipse semi-axes must be positive")
        from scipy import special

        def transform(u):
            rho = np.hypot(a * u[..., 0], b * u[..., 1])
            return TWO_PI * a * b * special.j1(rho) / rho

        return cls(lambda phi: float(np.hypot(a * np.cos(phi), b * np.sin(phi))),
                   transform)

    @classmethod
    def square(cls, s):
        """The square [-s, s]^2: 4 sin(s u_1) sin(s u_2) / (u_1 u_2)."""
        if s <= 0:
            raise InvalidArgument("square half-side must be positive")
        return cls(lambda phi: s * (abs(np.cos(phi)) + abs(np.sin(phi))),
                   lambda u: 4.0 * s * s * np.sinc(s * u[..., 0] / np.pi)
                   * np.sinc(s * u[..., 1] / np.pi))

    def width(self, phi):
        return self.support(phi) + self.support(phi + np.pi)


def indicator_ft(body, u):
    """int_K e^{i(u,x)} dx for 0 < |u| <= INDICATOR_FT_UMAX, at u of shape
    (2,) or (..., 2): a complex for one u, a complex array of u's shape
    without the last axis otherwise."""
    u = np.asarray(u, dtype=float)
    nu = np.hypot(u[..., 0], u[..., 1])
    if not np.all((0 < nu) & (nu <= INDICATOR_FT_UMAX + 1e-9)):
        raise InvalidArgument(f"need 0 < |u| <= {INDICATOR_FT_UMAX:g}")
    value = np.asarray(body.transform(u), dtype=complex)
    return complex(value) if u.ndim == 1 else value


def zero_curve(body, p, phi):
    """p-th positive zero r_p(phi) of t -> indicator_ft(body, t e(phi)): a
    float, or NotFound raised, at one angle; at a sequence of angles one
    entry each, the float or the NotFound (returned, not raised).

    The search interval is (2p*pi/d, 2(p+1)*pi/d) with d the width in the
    direction phi, scanned at 96 points; a missing sign change inside it
    and a zero at one of its ends (the claim's bound attained) are NotFound.
    The first sign change of every ray is bisected at once until the
    midpoint equals an end, the bracket two adjacent doubles, and r_p is the
    end of smaller |transform|: no tolerance, so r_p does not depend on the
    body's scale.  The rays run SYNTHESIS_ENTRIES // 96 at a time, one
    indicator_ft call for the scan and one per bisection step.
    """
    if p < 1:
        raise InvalidArgument("zero index starts at 1")
    phis, out = np.atleast_1d(np.asarray(phi, dtype=float)), []
    rays = max(1, SYNTHESIS_ENTRIES // 96)
    for phi_c in (phis[start:start + rays] for start in range(0, phis.size, rays)):
        d = np.array([body.width(f) for f in phi_c])
        e = np.stack((np.cos(phi_c), np.sin(phi_c)), axis=-1)
        lo, hi = 2 * p * np.pi / d, 2 * (p + 1) * np.pi / d
        ts = np.linspace(lo, hi, 96, axis=-1)
        vals = indicator_ft(body, ts[..., None] * e[:, None]).real
        # a zero at an end, to rounding (a double one shows no sign change)
        ends = np.abs(vals[:, [0, -1]]) <= 1e-12 * np.max(np.abs(vals), axis=-1)[:, None]
        # signbit keeps values of exactly 0.0 on the positive side
        change = np.signbit(vals[:, :-1]) != np.signbit(vals[:, 1:])
        i, ray = np.argmax(change, axis=-1), np.arange(phi_c.size)
        x, fx = ts[ray, [i, i + 1]], vals[ray, [i, i + 1]]      # the brackets' two ends
        live = ray[change.any(axis=-1) & ~ends.any(axis=-1)]
        while True:
            mid = 0.5 * (x[0, live] + x[1, live])
            inside = (mid != x[0, live]) & (mid != x[1, live])
            live, mid = live[inside], mid[inside]
            if not live.size:
                break
            fm = indicator_ft(body, mid[:, None] * e[live]).real
            side = (np.signbit(fm) != np.signbit(fx[0, live])).astype(int)
            x[side, live], fx[side, live] = mid, fm
        r = x[np.argmin(np.abs(fx), axis=0), ray]
        for k in ray:
            if ends[k].any():
                name, end = ("lower", p) if ends[k, 0] else ("upper", p + 1)
                out.append(NotFound(f"zero at the bracket's {name} end d*r = {2 * end}*pi: "
                                    "the claim's bound is attained"))
            elif not change[k].any():
                out.append(NotFound(f"no sign change in ({lo[k]:g}, {hi[k]:g}) for p={p}"))
            else:
                out.append(float(r[k]))
    if np.ndim(phi) == 0 and isinstance(out[0], NotFound):
        raise out[0]
    return out if np.ndim(phi) else out[0]


# ---------------------------------------------------------------------------
# the radial Fourier transform in dimension one
# ---------------------------------------------------------------------------

def radial_ft(profile, r, knots=None):
    """Cosine transform 2 int_0^1 f(s) cos(rs) ds of a profile supported in
    [0, 1], the radial transform in dimension one, at the frequency array r
    (returns r's shape): one composite 12-point Gauss-Legendre layout with
    max(4, ceil(max|r|/2)) panels per unit length, aligned to the supplied
    knots, and one profile evaluation at its nodes."""
    r = np.asarray(r, dtype=float)
    edges = {0.0, 1.0}
    if knots:
        edges.update(k for k in knots if 0.0 < k < 1.0)
    base = sorted(edges)
    per_unit = max(4, math.ceil(float(np.max(np.abs(r), initial=0.0)) / 2.0))
    gx, gw = np.polynomial.legendre.leggauss(12)
    nodes, weights = [], []
    for a, b in zip(base[:-1], base[1:]):
        sub = np.linspace(a, b, max(1, math.ceil((b - a) * per_unit)) + 1)
        half = 0.5 * np.diff(sub)[:, None]
        nodes.append((half * gx + 0.5 * (sub[:-1] + sub[1:])[:, None]).ravel())
        weights.append((half * gw).ravel())
    s, w = np.concatenate(nodes), np.concatenate(weights)
    g = 2.0 * w * profile(s)
    return (g @ np.cos(np.outer(s, r))).reshape(r.shape)


def poly_boundary_derivs(coeffs):
    """All derivative values (p^(j)(0), p^(j)(1)) of a polynomial with
    ascending coefficients; exact when the coefficients are Fractions."""
    work = list(coeffs)
    d0, d1 = [], []
    while work:
        d0.append(work[0])
        d1.append(sum(work))
        work = [i * c for i, c in enumerate(work)][1:]
    return d0, d1


def cos_transform_boundary(d0, d1, r):
    """2 int_0^1 p(s) cos(rs) ds from the boundary derivative values of p,
    via the finite integration-by-parts expansion

        sum_k (-1)^k [ p^(2k)(1) sin r / r^(2k+1)
                       + (p^(2k+1)(1) cos r - p^(2k+1)(0)) / r^(2k+2) ].

    With exact derivative values the terms decrease from the first
    non-vanishing one whenever r exceeds the degree scale, so the result
    keeps relative accuracy far into the tail (values ~1e-18 stay
    resolvable); below that the expansion cancels and quadrature should be
    used instead."""
    d0 = np.asarray([float(v) for v in d0])
    d1 = np.asarray([float(v) for v in d1])
    r = np.asarray(r, dtype=float)
    deg = d0.size - 1
    out = np.zeros_like(r)
    sinr, cosr = np.sin(r), np.cos(r)
    sign = 1.0
    for k in range(0, deg + 1, 2):
        out += sign * d1[k] * sinr / r ** (k + 1)
        if k + 1 <= deg:
            out += sign * (d1[k + 1] * cosr - d0[k + 1]) / r ** (k + 2)
        sign = -sign
    return 2.0 * out


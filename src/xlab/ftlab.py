"""Oscillatory-sum discretization with certified residual, Fourier
transforms of indicator functions of convex planar bodies with zero-curve
tracing, and radial Fourier transforms."""

from dataclasses import dataclass
import math

import numpy as np
from scipy import integrate, optimize, special

from .errors import ConvergenceFailure, InvalidArgument, NotFound
from .trig import TWO_PI

EULER_MACLAURIN_RMAX = 4
INDICATOR_FT_UMAX = 1e3          # largest |u| at which indicator_ft evaluates


# ---------------------------------------------------------------------------
# the correction function h(x) = 1/x - cot(x/2)/2 and its derivatives
# ---------------------------------------------------------------------------

# h(x) = sum_{k>=1} |B_2k|/(2k)! x^(2k-1), radius of convergence 2*pi; the
# 24 terms up to B_48
_H_COEFFS = np.array([abs(b) / math.factorial(2 * k) for k, b in
                      enumerate(special.bernoulli(48)[2::2], start=1)])
_H_SEAM = 0.5


def _h_series(x, p):
    ks = np.arange(1, _H_COEFFS.size + 1)
    powers = 2 * ks - 1
    total = 0.0
    for c, e in zip(_H_COEFFS, powers):
        if e < p:
            continue
        fall = 1.0
        for i in range(p):
            fall *= e - i
        total += c * fall * x ** (e - p)
    return total


def _h_closed(x, p):
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
    return inv - u / 2.0


def h_function(x, p=0):
    """p-th derivative of h(x) = 1/x - (1/2)cot(x/2) on |x| <= pi.

    Power series inside |x| < 0.5, closed form outside; the seam agreement
    is part of the test suite.
    """
    if abs(x) > np.pi + 1e-12:
        raise InvalidArgument("argument restricted to |x| <= pi")
    if p < 0 or p > 4:
        raise InvalidArgument("derivative order supported up to 4")
    if abs(x) < _H_SEAM:
        return float(_h_series(x, p))
    return float(_h_closed(x, p))


# ---------------------------------------------------------------------------
# Euler-Maclaurin type discretization of oscillatory sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayingFunction:
    """A function on [n, inf) with derivatives and a variation bound.

    deriv(u, p) evaluates f^(p)(u) (vectorized in u); variation(a, p)
    returns the total variation of f^(p) on [a, inf) in closed form.
    """

    deriv: object
    variation: object


def exponential_decay(a):
    """f(u) = e^{-a u}; |f^(p)| is monotone so variations are explicit."""
    if a <= 0:
        raise InvalidArgument("decay rate must be positive")

    def deriv(u, p):
        return (-a) ** p * np.exp(-a * np.asarray(u, dtype=float))

    def variation(n, p):
        return a ** p * math.exp(-a * n)

    return DecayingFunction(deriv, variation)


def inverse_power(b):
    """f(u) = (1 + u)^{-b}, b > 1."""
    if b <= 1:
        raise InvalidArgument("need b > 1 for a convergent sum")

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

    return DecayingFunction(deriv, variation)


OSCILLATORY_TERMS = 200000


def _oscillatory_series(f, n, x):
    """sum_{k>=n} f(k) e^{ikx}: OSCILLATORY_TERMS + 1 terms summed directly,
    the rest by a two-level summation-by-parts tail.

    Returns (value, error bound); the bound uses the second-difference
    telescoping valid for eventually monotone-convex decay.
    """
    q = np.exp(1j * x)
    k = np.arange(n, n + OSCILLATORY_TERMS + 1)
    fk = f.deriv(k, 0)
    head = np.sum(fk * q ** k)
    m = n + OSCILLATORY_TERMS + 1
    f_m, f_m1 = f.deriv(m, 0), f.deriv(m - 1, 0)
    d1 = f_m - f_m1
    one_q = 1.0 - q
    tail = (f_m * q ** m) / one_q + (d1 * q ** m) / one_q ** 2
    err = abs(d1) / abs(one_q) ** 2 + abs(f.deriv(m + 1, 0) - f_m) / abs(one_q) ** 2
    return head + tail, err


EULER_MACLAURIN_TOL = 1e-6


def euler_maclaurin_sum(f, n, r, x):
    """Compare the oscillatory sum sum_{k>=n} f(k)e^{ikx} with its
    integral-plus-corrections discretization.

    Returns the sum (lhs), the main term
    int_n^inf f e^{iux} du + f(n)e^{inx}/2
    + e^{inx} sum_{p<r} ((-i)^{p+1}/p!) h^(p)(x) f^(p)(n),
    the normalized residual theta = (lhs - rhs) * pi^r / V, and the
    variation bound V of f^(r) on [n, inf).  The sum and the integral must
    be accurate to EULER_MACLAURIN_TOL relative to max(1, |lhs|).
    """
    if x == 0 or abs(x) > np.pi:
        raise InvalidArgument("need 0 < |x| <= pi")
    if not 0 <= r <= EULER_MACLAURIN_RMAX:
        raise InvalidArgument(f"correction order supported up to {EULER_MACLAURIN_RMAX}")
    big = n + 1e6
    decay = np.max([abs(f.deriv(np.array([big]), p)[0]) for p in range(r + 1)])
    if not decay < 1e-6:
        raise ConvergenceFailure("derivatives do not decay at the truncation point")

    lhs, tail_err = _oscillatory_series(f, n, x)

    def f0(u):
        return f.deriv(u, 0)

    re, re_err = integrate.quad(f0, n, np.inf, weight="cos", wvar=x, limit=400)
    im, im_err = integrate.quad(f0, n, np.inf, weight="sin", wvar=x, limit=400)
    rhs = re + 1j * im + 0.5 * f.deriv(n, 0) * np.exp(1j * n * x)
    phase = np.exp(1j * n * x)
    for p in range(r):
        rhs += phase * ((-1j) ** (p + 1) / math.factorial(p)) \
            * h_function(x, p) * f.deriv(n, p)

    v = float(f.variation(n, r))
    quad_err = re_err + im_err
    if quad_err + tail_err > EULER_MACLAURIN_TOL * max(1.0, abs(lhs)):
        raise ConvergenceFailure("sum/integral tolerance not met",
                                 best_estimate=lhs,
                                 error_estimate=quad_err + tail_err)
    theta = (lhs - rhs) * np.pi ** r / v if v > 0 else 0.0
    return {"lhs": complex(lhs), "rhs_main": complex(rhs),
            "theta": complex(theta), "variation": v,
            "numeric_error": quad_err + tail_err}


# ---------------------------------------------------------------------------
# indicator-function Fourier transforms of convex planar bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexBody2D:
    """A convex planar body: polygon (ccw vertices), disc, or ellipse."""

    kind: str
    vertices: np.ndarray = None
    radius: float = 0.0
    axes: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.kind == "polygon":
            v = np.asarray(self.vertices, dtype=float)
            if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
                raise InvalidArgument("polygon needs >= 3 planar vertices")
            e = np.roll(v, -1, axis=0) - v
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] \
                - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            if not (np.all(cross > 0) or np.all(cross < 0)):
                raise InvalidArgument("vertices must describe a convex polygon")
            if np.all(cross < 0):
                v = v[::-1]
            # origin strictly interior: left of every ccw-directed edge
            e = np.roll(v, -1, axis=0) - v
            off = v[:, 0] * e[:, 1] - v[:, 1] * e[:, 0]
            if not np.all(off > 0):
                raise InvalidArgument("origin must be interior")
            object.__setattr__(self, "vertices", v)
        elif self.kind == "disc":
            if self.radius <= 0:
                raise InvalidArgument("disc radius must be positive")
        elif self.kind == "ellipse":
            if min(self.axes) <= 0:
                raise InvalidArgument("ellipse semi-axes must be positive")
        else:
            raise InvalidArgument(f"unknown body kind {self.kind!r}")

    @classmethod
    def polygon(cls, vertices):
        return cls("polygon", vertices=np.asarray(vertices, dtype=float))

    @classmethod
    def disc(cls, radius=1.0):
        return cls("disc", radius=radius)

    @classmethod
    def ellipse(cls, a, b):
        return cls("ellipse", axes=(float(a), float(b)))

    def support(self, phi):
        e = np.array([np.cos(phi), np.sin(phi)])
        if self.kind == "polygon":
            return float(np.max(self.vertices @ e))
        if self.kind == "disc":
            return self.radius
        a, b = self.axes
        return float(np.hypot(a * e[0], b * e[1]))

    def width(self, phi):
        return self.support(phi) + self.support(phi + np.pi)

    def area(self):
        if self.kind == "polygon":
            v = self.vertices
            w = np.roll(v, -1, axis=0)
            return float(0.5 * np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))
        if self.kind == "disc":
            return math.pi * self.radius ** 2
        return math.pi * self.axes[0] * self.axes[1]

    def centrally_symmetric(self):
        if self.kind in ("disc", "ellipse"):
            return True
        v = self.vertices
        if len(v) % 2:
            return False
        half = len(v) // 2
        return bool(np.allclose(v, -np.roll(v, half, axis=0), atol=1e-9))


def _phi1(w):
    """(e^{iw} - 1)/(iw), stable near w = 0."""
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-4
    out = np.empty(w.shape, dtype=complex)
    ws = w[small]
    out[small] = 1.0 + 1j * ws / 2.0 - ws ** 2 / 6.0 - 1j * ws ** 3 / 24.0
    wb = w[~small]
    out[~small] = (np.exp(1j * wb) - 1.0) / (1j * wb)
    return out


def indicator_ft(body, u):
    """int_K e^{i(u,x)} dx: closed-form edge sums for polygons (Green's
    theorem), 2*pi*R*J_1(R|u|)/|u| for discs, affine pullback for ellipses."""
    u = np.asarray(u, dtype=float)
    nu = float(np.hypot(u[0], u[1]))
    if nu > INDICATOR_FT_UMAX + 1e-9:
        raise InvalidArgument(f"|u| capped at {INDICATOR_FT_UMAX:g}")
    if nu < 1e-6:
        return complex(body.area())
    if body.kind == "disc":
        z = body.radius * nu
        return complex(TWO_PI * body.radius * special.j1(z) / nu)
    if body.kind == "ellipse":
        a, b = body.axes
        rho = float(np.hypot(a * u[0], b * u[1]))
        if rho < 1e-6:
            return complex(body.area())
        return complex(TWO_PI * a * b * special.j1(rho) / rho)
    v = body.vertices
    d = np.roll(v, -1, axis=0) - v
    cross = u[0] * d[:, 1] - u[1] * d[:, 0]
    w = d @ u
    phases = np.exp(1j * (v @ u))
    total = np.sum(cross * phases * _phi1(w))
    return complex(total / (1j * nu ** 2))


def zero_curve(body, p, phi):
    """p-th positive zero r_p(phi) of t -> indicator_ft(body, t e(phi)).

    The search interval is (2p*pi/d, 2(p+1)*pi/d) with d the width in the
    direction phi, scanned at 96 points; a missing sign change inside it is
    reported (not patched).
    """
    if p < 1:
        raise InvalidArgument("zero index starts at 1")
    if not body.centrally_symmetric():
        raise InvalidArgument("zero curves implemented for centrally "
                              "symmetric bodies (real transform)")
    e = np.array([np.cos(phi), np.sin(phi)])
    d = body.width(phi)

    def f(t):
        val = indicator_ft(body, t * e)
        return val.real

    lo, hi = 2 * p * np.pi / d, 2 * (p + 1) * np.pi / d
    ts = np.linspace(lo, hi, 96)
    vals = np.array([f(t) for t in ts])
    # the first sign change of the scan, refined by Brent's method
    idx = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    if not idx.size:
        raise NotFound(f"no sign change in ({lo:g}, {hi:g}) for p={p}")
    i = idx[0]
    root = optimize.brentq(f, ts[i], ts[i + 1], xtol=1e-13, rtol=8.9e-16)
    if not lo < root < hi:
        raise NotFound("root escaped the bracket")
    return float(root)


# ---------------------------------------------------------------------------
# radial Fourier transforms in dimensions 1..3
# ---------------------------------------------------------------------------

def radial_ft(profile, m, r, knots=None):
    """Radial transform of a profile supported in [0, 1]:

    m=1: 2 int f(s) cos(rs) ds,  m=2: 2pi int f(s) s J0(rs) ds,
    m=3: 4pi int f(s) s^2 sinc(rs) ds, by composite 12-point Gauss-Legendre
    with panels aligned to the oscillation and to the supplied knots."""
    if m not in (1, 2, 3):
        raise InvalidArgument("dimension m in {1, 2, 3}")
    r = float(r)
    edges = {0.0, 1.0}
    if knots:
        edges.update(k for k in knots if 0.0 < k < 1.0)
    base = sorted(edges)
    panels = []
    per_unit = max(4, int(math.ceil(abs(r) / 2.0)))
    for a, b in zip(base[:-1], base[1:]):
        k = max(1, int(math.ceil((b - a) * per_unit)))
        sub = np.linspace(a, b, k + 1)
        panels += list(zip(sub[:-1], sub[1:]))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for a, b in panels:
        s = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        fs = np.asarray(profile(s), dtype=float)
        if m == 1:
            g = 2.0 * fs * np.cos(r * s)
        elif m == 2:
            g = TWO_PI * fs * s * special.j0(r * s)
        else:
            rs = r * s
            sinc = np.where(np.abs(rs) < 1e-12, 1.0, np.sin(rs) / np.where(rs == 0, 1, rs))
            g = 2.0 * TWO_PI * fs * s ** 2 * sinc
        total += 0.5 * (b - a) * np.dot(weights, g)
    return float(total)


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


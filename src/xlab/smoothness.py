"""Moduli of smoothness, their integral-averaged linearization, two-sided
approximation bands, K-functional realization, and the sharp lower-bound
constant for the half-shift average of partial sums."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidArgument
from .trig import (TWO_PI, apply_means, approximation_error, bernstein,
                   compute_coefficients, grid_norm, synthesize, vallee_poussin)


@dataclass(frozen=True)
class ModulusSpec:
    """Order r >= 1 and step bound h in (0, pi]; moduli are taken in the
    grid sup norm."""

    r: int
    h: float

    def __post_init__(self):
        if self.r < 1:
            raise InvalidArgument("difference order must be >= 1")
        if not 0 < self.h <= np.pi:
            raise InvalidArgument("step bound must lie in (0, pi]")


@dataclass(frozen=True)
class KFunctionalSpec:
    """Smoothing scale t in (0,1] and derivative order r for the
    (sup norm, r-th derivative) couple."""

    t: float
    r: int

    def __post_init__(self):
        if not 0 < self.t <= 1:
            raise InvalidArgument("t must lie in (0, 1]")
        if self.r < 1:
            raise InvalidArgument("derivative order must be >= 1")


def _difference(values, j, r):
    """r-th forward difference with shift j grid cells:
    sum_nu (-1)^nu C(r,nu) f(x + nu*delta)."""
    d = np.asarray(values, dtype=complex)
    for _ in range(r):
        d = d - np.roll(d, -j)
    return d


def _steps_within(f, h):
    step = TWO_PI / f.size
    jmax = int(np.floor(h / step + 1e-12))
    if jmax < 1:
        raise InvalidArgument("step bound smaller than one grid cell")
    return step, jmax


def modulus(f, spec):
    """omega_r(f; h): sup over grid steps delta <= h of ||Delta_delta^r f||_inf."""
    step, jmax = _steps_within(f, spec.h)
    return max(grid_norm(_difference(f.values, j, spec.r))
               for j in range(1, jmax + 1))


def linearized_modulus(f, spec):
    """The integral-averaged modulus: the sup over delta is replaced by
    (1/h) int_0^h Delta_delta^r f ddelta (trapezoid on the delta grid)."""
    step, jmax = _steps_within(f, spec.h)
    stack = np.stack([_difference(f.values, j, spec.r)
                      for j in range(jmax + 1)])  # j=0 term vanishes
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    avg = trapezoid(stack, dx=step, axis=0) / (jmax * step)
    return grid_norm(avg)


def jackson_two_sided(f, r, n):
    """Approximation error of the realization method against omega_r(f; 1/n).

    The realization operator is the de la Vallee Poussin mean (reproduces
    degree-n polynomials); the returned ratio is corpus data, two-sidedness
    is only claimed over a corpus.
    """
    if n < r:
        raise InvalidArgument("need n >= r")
    m = f.size
    c = compute_coefficients(f, m // 2 - 1)
    err = approximation_error(vallee_poussin(), n, c, m)
    w = modulus(f, ModulusSpec(r, 1.0 / n))
    ratio = err / w if w > 0 else (0.0 if err == 0 else math.inf)
    return {"approx_error": err, "modulus_value": w, "ratio": ratio}


def spectral_derivative(c, order):
    """Coefficients of the order-th derivative: c_k -> (ik)^order c_k."""
    out = c.copy()
    k = np.arange(-out.degree, out.degree + 1)
    out.c = out.c * (1j * k) ** order
    return out


def k_functional(f, spec):
    """Realization estimate of the K-functional for (sup norm, r-th
    derivative bound): minimum over de la Vallee Poussin smoothings g at
    dyadic degrees 2^j <= 4/t (plus g = 0 and g = the interpolant itself)
    of ||f - g|| + t^r ||g^(r)||."""
    m = f.size
    c = compute_coefficients(f, m // 2 - 1)
    t, r = spec.t, spec.r
    vp = vallee_poussin()

    candidates = []
    j = 0
    while 2 ** j <= 4.0 / t:
        candidates.append(2 ** j)
        j += 1

    best = grid_norm(f)  # competitor g = 0
    for n in candidates:
        if vp.band(n) > c.degree:
            break
        g = apply_means(vp, n, c)
        err = grid_norm(np.asarray(synthesize(c, m).values)
                        - np.asarray(synthesize(g, m).values))
        deriv = grid_norm(synthesize(spectral_derivative(g, r), m))
        best = min(best, err + (t ** r) * deriv)
    # competitor g = f (its trigonometric interpolant)
    deriv = grid_norm(synthesize(spectral_derivative(c, r), m))
    best = min(best, (t ** r) * deriv)
    return best


def sine_integral(x):
    """int_0^x sin(t)/t dt by composite Gauss-Legendre, 8 panels of 32 nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    edges = np.linspace(0.0, x, 9)
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        vals = np.where(np.abs(t) < 1e-30, 1.0, np.sin(t) / t)
        total += 0.5 * (b - a) * np.dot(weights, vals)
    return float(total)


def bernstein_mean_sharp_constant():
    """The exact lower-bound constant (2 + (4/pi) * int_0^pi sin t / t dt)^-1
    for approximation by the half-shift average of partial sums."""
    return 1.0 / (2.0 + (4.0 / np.pi) * sine_integral(np.pi))


def bernstein_mean_error(f, n):
    """||f - (S_n(.) + S_n(. + pi/n))/2||_inf on the grid of f."""
    m = f.size
    c = compute_coefficients(f, m // 2 - 1)
    return approximation_error(bernstein(), n, c, m)

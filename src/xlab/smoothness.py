"""Moduli of smoothness, their integral-averaged linearization, two-sided
approximation bands, K-functional realization, and the sharp lower-bound
constant for the half-shift average of partial sums."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgument
from .trig import (SYNTHESIS_ENTRIES, TWO_PI, approximation_error, bernstein,
                   compute_coefficients, grid_norm, synthesize, vallee_poussin)


def _difference_stack(values, r, jlo, jhi):
    """Rows Delta_{j delta}^r f = sum_nu (-1)^nu C(r,nu) f(x + nu*j*delta) for
    the grid shifts j = jlo..jhi-1 (0 <= jlo < jhi <= M/2 + 1), r >= 1.  Each
    subtraction reads f(x + j*delta) from a window of the doubled row, so
    each row equals the one-shift np.roll result."""
    if r < 1:
        raise InvalidArgument("difference order must be >= 1")
    m = values.size
    d = values - sliding_window_view(np.concatenate([values, values]), m)[jlo:jhi]
    for _ in range(r - 1):
        # row k read from column jlo + k of the rows twice over
        flat = np.concatenate([d, d], axis=1).ravel()
        d = d - sliding_window_view(flat, m)[jlo::2 * m + 1][:jhi - jlo]
    return d


def _steps_within(f, h):
    """The number of grid steps within each h, for a step bound h in
    (0, pi], or an array of them."""
    h = np.asarray(h, dtype=float)
    if not (h.size and np.all((0 < h) & (h <= np.pi))):
        raise InvalidArgument("step bound must lie in (0, pi]")
    jmax = np.floor(h / (TWO_PI / f.size) + 1e-12).astype(int)
    if np.any(jmax < 1):
        raise InvalidArgument("step bound smaller than one grid cell")
    return jmax


def modulus(f, r, h):
    """omega_r(f; h) in the grid sup norm: sup over grid steps delta <= h of
    ||Delta_delta^r f||_inf.  A float for a scalar h, h's shape for an array:
    one running maximum over the steps up to the largest h serves them all."""
    jmax = _steps_within(f, h)
    # chunks of SYNTHESIS_ENTRIES stay in cache
    top, rows = jmax.max() + 1, max(1, SYNTHESIS_ENTRIES // f.size)
    sups = np.concatenate([
        np.max(np.abs(_difference_stack(f.values, r, j, min(j + rows, top))), axis=1)
        for j in range(1, top, rows)])
    out = np.maximum.accumulate(sups)[jmax - 1]
    return float(out) if out.ndim == 0 else out


def linearized_modulus(f, r, h):
    """The integral-averaged modulus: the sup over delta is replaced by
    (1/h) int_0^h Delta_delta^r f ddelta (trapezoid on the delta grid).
    A float for a scalar h, h's shape for an array of step bounds.

    A shift by j grid steps multiplies DFT coefficient k by z^j, z = e^{i t},
    t = 2 pi k/M, so the trapezoid over j = 0..J is the multiplier
    1 + (1/J) sum_{nu=1..r} (-1)^nu C(r,nu) T_J(z^nu), where T_J(z) =
    sum_{j<=J} z^j - (1 + z^J)/2 is J at z = 1, else cot(t/2) sin(Jt/2) e^{iJt/2}."""
    jmax = _steps_within(f, h)
    if r < 1:
        raise InvalidArgument("difference order must be >= 1")
    m, hat = f.size, np.fft.rfft(f.values)
    k, j = np.arange(hat.size), jmax.reshape(-1, 1)
    acc, binom = 0.0, 1.0
    for nu in range(1, r + 1):
        binom = -binom * (r - nu + 1) / nu          # (-1)^nu C(r, nu)
        q = k * nu % m                              # t/2 and Jt/2 reduced mod pi
        cot = np.cos(np.pi * q / m) / np.where(q, np.sin(np.pi * q / m), 1.0)
        phi = np.pi * (j * q % m) / m
        acc = acc + binom * np.where(q, cot * np.sin(phi) * np.exp(1j * phi), j)
    out = np.max(np.abs(np.fft.irfft(hat * (1.0 + acc / j), m)), axis=-1).reshape(jmax.shape)
    return float(out) if out.ndim == 0 else out


# Cost per function and difference order, measured on a 2-vCPU host (best of
# 3, M = 64..2^20, r = 1..2000): modulus's scan up to 8e-9 s per grid point
# and step, the multipliers up to 1.3e-7 s per grid point and step bound, and
# each scan stack or order of the multipliers up to 3e-5 s whatever its size.
# `moduli` peaks at up to 58 bytes per grid point and step bound (tracemalloc,
# M = 2^14..2^20), and 2 MB covers a real scan stack of 2^15 entries with its
# working copies (up to 1.3 MB traced at r >= 2, M = 256..1024).
SCAN_POINT_S, MULTIPLIER_POINT_S, STACK_S = 8e-9, 1.3e-7, 3e-5
POINT_BYTES = 80


def moduli_cost(m, r, jmax, steps):
    """Estimated (peak bytes, seconds) of sampling a function on the m-grid
    and taking both moduli of order r for `steps` step bounds of at most
    jmax grid steps."""
    stacks = 1 - (-jmax // max(1, SYNTHESIS_ENTRIES // m))
    return (POINT_BYTES * m * steps + 2 ** 21, r * (
        SCAN_POINT_S * m * jmax + MULTIPLIER_POINT_S * m * steps + STACK_S * stacks))


# jackson_two_sided's coefficients and approximation error take up to 2e-4 s
# plus 1.5e-8 s per grid point and level log2 M, and the traced peak is up to
# 100 bytes per grid point besides the samples (M = 2^10..2^20, r = 1..5).
def two_sided_cost(functions, m, r, ns):
    """Estimated (peak bytes, seconds) of jackson_two_sided of order r for
    each of `functions` functions sampled on the m-grid and each n in ns: the
    coefficients, the approximation error and a modulus scan up to 1/n."""
    seconds = sum(2e-4 + 1.5e-8 * m * math.log2(m)
                  + moduli_cost(m, r, int(m / (TWO_PI * n) + 1e-12), 0)[1] for n in ns)
    return (8 * functions + 100) * m + 2 ** 21, functions * seconds


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
    w = modulus(f, r, 1.0 / n)
    ratio = err / w if w > 0 else (0.0 if err == 0 else math.inf)
    return {"approx_error": err, "modulus_value": w, "ratio": ratio}


def spectral_derivative(c, order):
    """Coefficients of the order-th derivative: c_k -> (ik)^order c_k (last axis)."""
    c = np.asarray(c, dtype=complex)
    return c * (1j * np.arange(c.shape[-1])) ** order


def k_functional(f, t, r):
    """Realization estimate of the K-functional for (sup norm, r-th
    derivative bound), t in (0, 1] and r >= 1: minimum over de la Vallee
    Poussin smoothings g at dyadic degrees 2^j <= 4/t (plus g = 0 and g =
    the interpolant itself) of ||f - g|| + t^r ||g^(r)||."""
    if not 0 < t <= 1:
        raise InvalidArgument("t must lie in (0, 1]")
    if r < 1:
        raise InvalidArgument("derivative order must be >= 1")
    m = f.size
    degree = m // 2 - 1
    c = compute_coefficients(f, degree)
    vp = vallee_poussin()
    ns, n = [], 1
    while n <= 4.0 / t and vp.band(n) <= degree:
        ns.append(n)
        n *= 2
    g = vp.weights(ns, kmax=degree) * c
    err = grid_norm(synthesize(c, m) - synthesize(g, m))
    deriv = grid_norm(synthesize(spectral_derivative(g, r), m))
    # competitors g = 0 and g = f (its trigonometric interpolant)
    best = min(grid_norm(f.values), (t ** r) * grid_norm(synthesize(spectral_derivative(c, r), m)))
    return float(np.min(err + (t ** r) * deriv, initial=best))


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

"""Operator norms (Lebesgue constants) of summability means, worst-case
deviations over the bounded-derivative classes, two-dimensional rhombic and
hyperbolic kernels, and asymptotic-law fitting.

The operator norm of a polynomial mean on continuous periodic functions is
(1/2pi) times the L1 norm of its kernel.  The kernels are real, given by
their coefficients c_0..c_K (c_{-k} = conj c_k, c_0 real), and that
integral is computed exactly by one engine in O(M log M) time
and O(M) memory, M a power of two >= 32(K+1) for degree K, after the
periodic Chebfun of Wright, Javed, Montanari and Trefethen (SIAM J. Sci.
Comput. 2015): a real inverse FFT of c_0..c_K samples the kernel on the
M-grid, where sign changes are bracketed, and real inverse FFTs on the
Taylor grid M/4 sample its scaled derivatives and its antiderivative; each
zero is polished by safeguarded Newton on its Taylor polynomial, started
from its scan cell's ends and secant point, and |K| is integrated piecewise
from the antiderivative's Taylor data at the zeros.  The error bound has
three terms: zero mislocation, the Taylor remainder (from Bernstein's
inequality) and rounding.  `trig_poly_l1` is the engine's one planner: a
table of n runs as one pass per grid size, stacked syntheses of at most
SYNTHESIS_ENTRIES samples and one polish over the cells of every kernel,
each result bit for bit that of its kernel alone.  The deviation over W^r
runs one such pass on the tail kernel, a polynomial minus a cosine sum.  The 2-D
norms sum |K| over the quarter torus in one pass of square tiles of
2 SYNTHESIS_ENTRIES entries, each formed, taken in absolute value and
reduced while it sits in cache, with closed-form Dirichlet factors and the
coarse estimate read off the even sub-grid; a symmetric index set is summed
over one triangle and doubled."""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .errors import ConvergenceFailure, InvalidArgument
# compute_coefficients is unused here: perfbench's tracer test patches this copy
from .trig import (SYNTHESIS_ENTRIES, TWO_PI, compute_coefficients,  # noqa: F401
                   dirichlet, synthesize)


@dataclass(frozen=True)
class LebesgueSample:
    n: object          # int, or pair for the 2-D kernels
    value: float
    quad_error: float

    def __post_init__(self):
        if self.value < 0 or self.quad_error < 0:
            raise InvalidArgument("norm and error bound must be nonnegative")


# ---------------------------------------------------------------------------
# exact L1 norm of a trigonometric polynomial
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0 ** -53
# rounding error of one FFT stage relative to the magnitudes entering it:
# eta = mu + gamma_4 (sqrt(2) + mu) with twiddle factors accurate to mu = u
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 24.1)
FFT_STAGE_ERROR = 7.0 * UNIT_ROUNDOFF
POLISH_STEPS = 16
OVERSAMPLE = 16          # M >= 2 * OVERSAMPLE * (K+1): 32 scan points a period of e^{iKx}
STRIDE = 4               # scan cells per Taylor cell: 8 Taylor nodes a period of e^{iKx}


def _horner(taylor, s):
    """(p(s), p'(s)) columnwise for p(s) = sum_j taylor[j] s^j, s stacking
    one or more points per column along a leading axis."""
    p, dp = np.broadcast_to(taylor[-1], s.shape).copy(), np.zeros_like(s)
    for row in taylor[-2::-1]:
        dp *= s
        dp += p
        p *= s
        p += row
    return p, dp


def _polish(taylor, floor, owner, lo, plo, phi):
    """Safeguarded Newton on the cell polynomials p(s) = sum_j taylor[j] s^j,
    each with a sign change on [lo, hi], hi = lo + 1/STRIDE, in the scan,
    whose values at lo and hi, not p(lo) and p(hi), are plo and phi; cell i
    belongs to polynomial owner[i].  The first pass evaluates p and p' at
    both ends, so that a zero on a scan node is taken where it lies, and at
    the secant point of the two scan values, O(h^2) from a simple zero,
    where Newton starts (the midpoint where that point is not strictly
    inside).  Keeps the best point seen per cell (a converged iterate on a
    bracket end must not be lost to the safeguard), and freezes the cells of
    a polynomial once all of its |p| are below `floor`, the accuracy of p as
    a stand-in for the function, so each polynomial stops where it would
    alone.  Returns (s, |p(s)|, |p'(s)|, bracket width)."""
    hi = lo + 1.0 / STRIDE
    with np.errstate(divide="ignore", invalid="ignore"):
        s = lo + plo / (plo - phi) / STRIDE
    s = np.where((lo < s) & (s < hi), s, 0.5 * (lo + hi))
    best_s, best_p, best_dp = s.copy(), np.full_like(lo, np.inf), np.ones_like(lo)
    points = np.stack((lo, hi, s))
    for _ in range(POLISH_STEPS):
        p, dp = _horner(taylor, points)
        for t, ap, adp in zip(points, np.abs(p), np.abs(dp)):  # the ends first, then s
            better = ap < best_p
            np.copyto(best_s, t, where=better)
            np.copyto(best_p, ap, where=better)
            np.copyto(best_dp, adp, where=better)
        p, dp = p[-1], dp[-1]
        live = np.bincount(owner, best_p > floor)[owner] > 0
        if not live.any():
            break
        # signbit keeps values of exactly 0.0 on the positive side
        same = np.signbit(p) == np.signbit(plo)
        lo = np.where(live & same, s, lo)
        plo = np.where(live & same, p, plo)
        hi = np.where(live & ~same, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            sn = s - p / dp
        bad = ~np.isfinite(sn) | (sn < lo) | (sn > hi)
        s = np.where(live, np.where(bad, 0.5 * (lo + hi), sn), s)
        points = s[None]
    return best_s, best_p, best_dp, hi - lo


def _two_sided_sum(a):
    """sum_{k=-K..K} |a_k| from |a_0|..|a_K| (last axis), a_{-k} = conj a_k."""
    return a[..., 0] + 2.0 * np.add.reduce(a[..., 1:], axis=-1)


def _taylor_order(kmax, h):
    """(J, (Kh)^{J+1}/(J+1)!) for the least J with that factor <= u."""
    order, rem = 0, kmax * h
    while rem > UNIT_ROUNDOFF:
        order += 1
        rem *= kmax * h / (order + 1)
    return order, rem


def grid_size(kmax):
    """Scan grid M = 2^m >= max(64, 2 * OVERSAMPLE * (K+1)) of the 1-D
    engine for degree K."""
    return 1 << max(6, int(math.ceil(math.log2(OVERSAMPLE * 2 * (kmax + 1)))))


def stacks(grids):
    """The index lists of the arrays that one stacked pass takes, given each
    array's grid size M: equal M, at most max(1, SYNTHESIS_ENTRIES // M)
    arrays, in order of M and then of index."""
    out = []
    for m in sorted(set(grids)):
        rows = [i for i, g in enumerate(grids) if g == m]
        step = max(1, SYNTHESIS_ENTRIES // m)
        out += [rows[i:i + step] for i in range(0, len(rows), step)]
    return out


def _stack_l1(cs, m, poly):
    """[(int_{-pi}^{pi} |f(x)| dx, certified error bound)] for the real
    functions f(x) = sum_{|k|<=K} c_k e^{ikx} + poly(x + pi), one per array
    c_0..c_K in cs (any degrees K of grid size M = m), poly an array of
    ascending powers.  Sign changes are scanned on x_i = -pi + ih, h =
    2pi/M, closed at x_M = pi by the limit from the left (the periodic wrap
    when poly = 0); a bracketing cell i takes the Taylor data d_j =
    f^(j)(x_c) h_T^j / j!, j <= J, and the antiderivative F(x) = c_0 x +
    P(x) + Q(x + pi), P periodic, Q' = poly, at its node x_c, c = i //
    STRIDE, of the Taylor grid of step h_T = STRIDE h.

    One stacked synthesis of the samples on the M-grid, the only one that
    needs 32 points a period of e^{iKx}, then stacked syntheses on the
    Taylor grid M_T = M/STRIDE (8 points a period, at least 2K+1) of the
    Taylor orders 1..J of the arrays with sign changes (as many orders per
    call as SYNTHESIS_ENTRIES allows) and of the antiderivatives, then one
    polish over every cell.  The stack is zero-padded to the widest degree
    and the Taylor data to the highest order; the scalars of each array (K,
    J, sum|c_k|, the rounding sums) are formed from the array alone, so each
    result equals that of its array alone.  One gather reads every cell's
    orders from a Taylor call, and one reduction forms an array's rounding
    sums there.  A zero poly (every `trig_poly_l1` row) costs no pass: it
    is evaluated neither on the scan grid nor per order nor in the sum, and
    `+= 0.0` on the scan and the Taylor data turns a -0.0 sample +0.0, as
    adding it did.  The FFTs take 37 % of a Dirichlet row at n = 1018 and 9
    % at n = 34 (30 % and 6 % with that bookkeeping; 2-vCPU host).

    The bound, u the unit roundoff, eta = FFT_STAGE_ERROR and each sum|a_k|
    over k = -K..K, formed from the half as |a_0| + 2 sum_{k>=1} |a_k|:
    * FFT: a real sample of sum a_k e^{ikx}, a_{-k} = conj a_k, errs by at
      most lg sum|a_k|, lg = (log2 M + 2) eta, 2 eta less on M_T.
      pocketfft's real inverse passes (M = 2^p) are radix-4 and radix-2
      butterflies with unit-modulus twiddles and the half-complex inputs
      enter with exact factors 2, so each output reaches a_k and conj a_k
      along one path each, as in a radix-2 FFT of the whole array: log2 M
      levels of eta sum|a_k| (a radix-4 pass is two, its factors +-1, +-i
      exact) and two forming the a_k.  Checked against an exactly reduced
      DFT at M = 2^6..2^12.  The data d_j of a cell err by e_D in all.
    * Taylor remainder: |f(x_c + s h_T) - p(s)| <= R = (K h_T)^{J+1}/(J+1)!
      sum|c_k| <= u sum|c_k| on 0 <= s <= 1 (Lagrange; Bernstein's
      |f^(J+1)| <= K^(J+1) sum|c_k|); integrated to
      a zero it moves F there by h_T R, and each F(zero) enters two terms.
    * Polish: from the ends of the scan cell and the secant point of its
      two scan samples (`_polish`).  Horner on 0 <= s <= 1 errs by
      (2J + 2) u sum_j |d_j|, and sum_j |d_j| <= e^{K h_T} sum|c_k| <=
      e^{pi/4} sum|c_k|; with R, e_D and poly's error it floors |f| at the
      polished point (rho), and the distance to the zero is delta = h_T
      min(bracket, rho/|p'|).  A cell whose best |p| stays above that floor
      after POLISH_STEPS passes has no such distance.  Its zero z and its
      polished point z' both lie in the scan cell, of width h_T/STRIDE,
      where |f| <= sum_j |d_j| + floor; F(z) enters two terms of the sum,
      each of which moves by at most |F(z') - F(z)|, the integral of |f|
      between z and z' at most, so the cell is charged
      2 (h_T/STRIDE)(sum_j |d_j| + floor).
    * Sum: F(zero) = c_0 x_c + P(x_c) + Q(x_c + pi) + h_T s int(s),
      int(s) = sum_j d_j s^j / (j+1), errs by P's sample error, h_T (e_D +
      poly's error), Q's and (2J + 8) u (sum of the parts' magnitudes +
      h_T sum_j |d_j|); each point enters two terms; fsum adds 2u."""
    u, h, ht, mt = UNIT_ROUNDOFF, TWO_PI / m, STRIDE * TWO_PI / m, m // STRIDE
    lg, lg_t = ((math.log2(g) + 2) * FFT_STAGE_ERROR for g in (m, mt))
    kmax = [c.size - 1 for c in cs]
    k = np.arange(max(kmax) + 1)
    stack = np.zeros((len(cs), k.size), dtype=complex)
    orders, taylor_rem, err_data = [], [], []
    with np.errstate(over="ignore"):
        for i, (c, kk) in enumerate(zip(cs, kmax)):
            stack[i, :kk + 1] = c
            order, rem = _taylor_order(kk, ht)
            orders.append(max(order, poly.size - 1))
            total = float(_two_sided_sum(np.abs(c)))
            if not math.isfinite(total):        # it bounds every sample
                raise InvalidArgument("coefficients need a finite sum of moduli")
            taylor_rem.append(rem * total)
            err_data.append(lg * total)
    orders = np.array(orders)
    ipoly = np.concatenate(([0.0], poly / np.arange(1, poly.size + 1)))
    # |p|(2pi + h_T) bounds sum_j |p^(j)(t)| h_T^j / j! for 0 <= t <= 2pi
    err_poly, err_ipoly = ((2 * q.size + 2) * u * float(_polyval(np.abs(q), TWO_PI + ht))
                           if poly.any() else 0.0 for q in (poly, ipoly))

    # the (rows, M) sample arrays are dropped as soon as their cells are
    # read, so that one synthesis at a time sets the peak memory
    trig_vals = synthesize(stack, m)
    vals = np.concatenate((trig_vals, trig_vals[:, :1]), axis=1)
    # at x + pi; adding 0.0 turns a -0.0 sample +0.0, as poly = 0 would
    vals += _polyval(poly, h * np.arange(m + 1)) if poly.any() else 0.0
    owner, idx = np.nonzero(np.diff(np.signbit(vals), axis=1))
    node = idx // STRIDE                              # Taylor node of each cell
    cell_vals, scanned = trig_vals[owner, STRIDE * node], vals[owner, idx]
    scanned_hi = vals[owner, idx + 1]
    del trig_vals, vals
    count = np.bincount(owner, minlength=len(cs))
    first = np.concatenate(([0], np.cumsum(count)))   # cells of i: first[i]..first[i+1]
    ti = ht * node
    order = orders[owner]
    top = int(order.max(initial=0))

    # Taylor data, orders 1..J of the arrays with cells, `per` orders a
    # call: the call synthesizes array has[q] at order js[t] where need[t,
    # q], as its row row[t, q], and one gather reads every cell's orders
    taylor = np.zeros((top + 1, idx.size))
    taylor[0] = cell_vals
    has = np.flatnonzero(count)
    slot = np.searchsorted(has, owner)                # owner[i] is has[slot[i]]
    a, per = stack[has], max(1, SYNTHESIS_ENTRIES // mt // max(has.size, 1))
    for j0 in range(1, top + 1, per):
        js = np.arange(j0, min(j0 + per, top + 1))
        blocks = np.empty((js.size, *a.shape), dtype=complex)
        for t in range(js.size):
            a = blocks[t] = a * (1j * ht / (j0 + t)) * k
        need = orders[has] >= js[:, None]
        row = np.cumsum(need).reshape(need.shape) - 1
        sampled = synthesize(blocks[need], mt)
        taylor[js] = np.where(need[:, slot], sampled[row[:, slot], node], 0.0)
        del sampled
        for q, i in enumerate(has):                   # sum|a_k| of each order, in order
            for total in _two_sided_sum(np.abs(blocks[need[:, q], q, :kmax[i] + 1])):
                err_data[i] += lg_t * total
    if poly.any():
        dpoly = poly                                  # dpoly = poly^(j) / j!
        for j in range(top + 1):
            taylor[j] += ht ** j * _polyval(dpoly, ti)
            dpoly = dpoly[1:] * np.arange(1, dpoly.size) / (j + 1)
    else:
        taylor += 0.0

    abs_taylor = np.sum(np.abs(taylor), axis=0)
    noise = np.array([tr + ed + err_poly for tr, ed in zip(taylor_rem, err_data)])[owner] \
        + (2 * order + 2) * u * abs_taylor
    s, resid, slope, bracket = _polish(taylor, noise, owner, idx % STRIDE / STRIDE,
                                       scanned, scanned_hi)
    rho = resid + noise
    with np.errstate(divide="ignore"):
        delta = ht * np.minimum(bracket, rho / slope)
    misplaced = np.where(resid > noise, 2.0 * ht / STRIDE * (abs_taylor + noise), rho * delta)

    # F at -pi, at each zero, and at pi; the points of array i run from
    # ends[i] (-pi) to ends[i] + count[i] + 1 (pi)
    anti = np.divide(stack, 1j * k, out=np.zeros_like(stack), where=k != 0)
    p_vals = synthesize(anti, mt)
    p_ends, p_cells = p_vals[:, 0].copy(), p_vals[owner, node]
    del p_vals
    err_anti = [lg_t * _two_sided_sum(row[:kk + 1]) for row, kk in zip(np.abs(anti), kmax)]
    ends = first[:-1] + 2 * np.arange(len(cs))
    inner = np.ones(idx.size + 2 * len(cs), dtype=bool)
    inner[ends] = inner[ends + count + 1] = False
    point = np.repeat(np.arange(len(cs)), count + 2)
    integ = _horner(taylor / np.arange(1, top + 2)[:, None], s[None])[0][0]

    def spread(start, cell, end):
        out = np.empty(inner.size)
        out[inner], out[ends], out[ends + count + 1] = cell, start, end
        return out

    # Q = 0 when poly = 0: a part of +0.0 moves no step and no scale
    parts = np.array([
        spread(-np.pi, ti - np.pi, np.pi) * stack[point, 0].real,
        spread(p_ends, p_cells, p_ends),
        *([_polyval(ipoly, spread(0.0, ti, TWO_PI))] if poly.any() else []),
        spread(0.0, ht * s * integ, 0.0),
    ])
    steps = np.abs(np.diff(np.sum(parts, axis=0)))
    scale = np.sum(np.abs(parts), axis=0) + spread(0.0, ht * abs_taylor, 0.0)
    point_err = np.array([ea + ht * (ed + err_poly) + err_ipoly for ea, ed in
                          zip(err_anti, err_data)])[point] \
        + (2 * orders[point] + 8) * u * scale
    out = []
    for i in range(len(cs)):
        value = math.fsum(steps[ends[i]:ends[i] + count[i] + 1])
        rounding = 2.0 * float(np.sum(point_err[ends[i]:ends[i] + count[i] + 2])) \
            + 2.0 * u * value
        mislocation = float(np.sum(misplaced[first[i]:first[i + 1]]))
        out.append((value, mislocation + 2.0 * int(count[i]) * ht * taylor_rem[i]
                    + rounding))
    return out


def trig_poly_l1(coeffs):
    """(L1 norm over one period, certified error bound) for a real-valued
    trigonometric polynomial given by its coefficients c_0..c_K, c_0 real;
    for a sequence of such arrays (any degrees), a list of the pairs in
    input order.  The engine's one planner: each array takes the grid
    grid_size(K), and the arrays of one grid run through `_stack_l1` (the
    method and the bound) in the stacks of `stacks`."""
    single = len(coeffs) == 0 or np.ndim(coeffs[0]) == 0
    cs = [np.asarray(c, dtype=complex) for c in ([coeffs] if single else coeffs)]
    if any(c.ndim != 1 or c.size == 0 or c[0].imag != 0 for c in cs):
        raise InvalidArgument("coefficients must be 1-D arrays c_0..c_K, c_0 real")
    grids = [grid_size(c.size - 1) for c in cs]
    out = [None] * len(cs)
    for chunk in stacks(grids):
        for i, result in zip(chunk, _stack_l1([cs[i] for i in chunk], grids[chunk[0]],
                                              np.zeros(1))):
            out[i] = result
    return out[0] if single else out


# Cost of lebesgue_constant over a range of n, measured on a 2-vCPU host:
# the engine peaks at up to 36.8 bytes per grid point of its largest call
# (tracemalloc, one Dirichlet row at M = 2^18..2^22, n = M/64..M/32 - 1: the
# real samples and scan arrays of the sign-change scan, each dropped once
# its cells are read), a call being SYNTHESIS_ENTRIES points or one row.  A
# row with sign changes takes one real synthesis on the M-grid and J + 1 on
# the Taylor grid M/STRIDE, at up to 3.1e-9 s per grid point and level
# log2 of each (Dirichlet tables, M = 2^13..2^22, best of 3); one without
# takes one of each, up to four times less.  Each n also costs its weights,
# checks and result row whatever M is: 0.021-0.023 ms (in-process, three
# runs) and 0.48 KB in `lebesgue-table method=abel-poisson(0)` (M = 64, no
# sign changes) up to n = 40000, charged 0.15 ms.
ENGINE_BYTES = 40
ENGINE_SECONDS = 3.5e-9
ROW_BYTES = 600
ROW_SECONDS = 1.5e-4


def _synthesis_points(kmax):
    """Grid points times levels log2 of one row's syntheses at degree K: one
    on the M-grid and J + 1 on the Taylor grid M/STRIDE."""
    m = grid_size(kmax)
    mt = m // STRIDE
    order = _taylor_order(kmax, TWO_PI / mt)[0]
    return m * math.log2(m) + (order + 1) * mt * math.log2(mt)


def table_cost(method, nmin, nmax):
    """Estimated (peak bytes, seconds) of `lebesgue-table` over nmin..nmax.
    The bytes: the engine's largest call and the rows.  The seconds: the
    syntheses, summed over the runs of n on one grid (the band does not
    decrease in n, so bisection finds the last n of each run, charged the
    run's top order), and the rows."""
    seconds, n = ROW_SECONDS * (nmax - nmin + 1), nmin
    while n <= nmax:
        m, last, hi = grid_size(method.band(n)), n, nmax
        while last < hi:
            mid = (last + hi + 1) // 2
            last, hi = (mid, hi) if grid_size(method.band(mid)) == m else (last, mid - 1)
        seconds += (last - n + 1) * ENGINE_SECONDS * _synthesis_points(method.band(last))
        n = last + 1
    return (ENGINE_BYTES * max(grid_size(method.band(nmax)), SYNTHESIS_ENTRIES)
            + ROW_BYTES * (nmax - nmin + 1) + 2 ** 20), seconds


def lebesgue_constant(method, n, tol=1e-9):
    """Operator norm of the mean at index n: (1/2pi) int |K_n(t)| dt.  For a
    sequence of n, a list with one entry per n from one engine pass: its
    LebesgueSample, or, where the bound misses tol, the ConvergenceFailure,
    returned rather than raised so that every n is recorded."""
    ns = np.atleast_1d(n).tolist()
    if min(ns, default=0) < 0 or not tol > 0:
        raise InvalidArgument("need index n >= 0 and tolerance tol > 0")
    # the weights of one stack at a time: table_cost bounds the peak
    out, bands = [None] * len(ns), method.band(ns).tolist()
    for chunk in stacks([grid_size(b) for b in bands]):
        w = method.weights([ns[i] for i in chunk])
        rows = [row[:bands[i] + 1] for i, row in zip(chunk, w)]
        for i, (value, err) in zip(chunk, trig_poly_l1(rows)):
            if err / TWO_PI > tol:
                out[i] = ConvergenceFailure("requested tolerance not certified",
                                            best_estimate=value / TWO_PI,
                                            error_estimate=err / TWO_PI)
            else:
                out[i] = LebesgueSample(ns[i], value / TWO_PI, err / TWO_PI)
    if np.ndim(n):
        return out
    if isinstance(out[0], ConvergenceFailure):
        raise out[0]
    return out[0]


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
    s, log_c, resid = fit_log_model(ns, np.log(np.asarray(values, dtype=float)))
    return float(np.exp(log_c)), s, resid


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
    geometric grid nmin, 2nmin, ..., nmax; returns ((c, d, rms residual),
    grid, norms)."""
    if not (nmax >= 4 * nmin and 4 * nmin >= 64):
        raise InvalidArgument("need nmax >= 4*nmin >= 64")
    ns = geometric_grid(nmin, nmax)
    values = [lebesgue_constant(dirichlet(), n).value for n in ns]
    return fit_log_model(ns, values), ns, values


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
        out *= t
        out += c
    return out


KOLMOGOROV_TOL = 1e-9


# kolmogorov_deviation's cost on a 2-vCPU host (r = 1..26, n = 4..262143,
# tracemalloc and best of 2): the tail kernel's pass peaks at up to 71 bytes
# per grid point (r = 3, n = 131072, where rounding noise adds sign changes;
# 33 at r = 1 and 2) and 1 MB whatever M is, and takes up to 4.4e-9 s per
# grid point and level of its syntheses (as in table_cost) plus 2 ms a row;
# charged 80 bytes and 1 MB, 6e-9 s and 2 ms.
def kolmogorov_cost(nmin, nmax):
    """Estimated (peak bytes, seconds) of `kolmogorov-fit` over the geometric
    grid from nmin to nmax: the largest row's pass, and every row's."""
    ns = geometric_grid(nmin, nmax)
    return (80 * grid_size(ns[-1]) + 2 ** 20,
            sum(2e-3 + 6e-9 * _synthesis_points(n) for n in ns))


def kolmogorov_deviation(r, n):
    """sup over the unit W^r class of ||f - S_n f||_inf, via (1/pi) times
    the L1 norm of the conjugate-tail kernel over a period, certified to
    KOLMOGOROV_TOL."""
    if r < 1 or n < 0:
        raise InvalidArgument("need r >= 1 and n >= 0")
    # on (0, 2pi) the tail kernel is poly(t) - sum_{k<=n} cos(kt - r pi/2)/k^r;
    # in x = t - pi the cosine sum has c_k = (-1)^k e^{-i r pi/2} / 2k^r, k >= 1
    k = np.arange(1, n + 1)
    c = np.concatenate(([0.0], -((-1.0) ** k) * np.exp(-0.5j * np.pi * r)
                        / (2.0 * k ** float(r))))
    total, err = _stack_l1([c], grid_size(n), _full_series_poly(r))[0]
    if err / np.pi > KOLMOGOROV_TOL or not err < total:
        raise ConvergenceFailure("error bound not certified", best_estimate=total / np.pi,
                                 error_estimate=err / np.pi)
    return total / np.pi


# ---------------------------------------------------------------------------
# two-dimensional kernels
# ---------------------------------------------------------------------------

HYPERBOLIC_NMAX = 4096
RHOMBIC_OVERSAMPLE = 8


def _factors(h, const, lo, hi):
    """Rows const + 2 sum_{k=lo}^{hi} cos kx (no sum if hi < lo) on x_i = pi i/h,
    i = 0..h, by the Dirichlet closed form (sin((hi+1/2)x) - sin((lo-1/2)x))
    / sin(x/2) = 2 cos((lo+hi)x/2) sin((hi-lo+1)x/2) / sin(x/2), each angle an
    integer multiple of pi/2h reduced exactly; 2(hi - lo + 1) at x = 0.  The
    angle indices are gathered SYNTHESIS_ENTRIES at a time, so that they
    stay in cache, and formed in int32, where the integer modulo is 3-4 times
    faster than in int64, while |lo + hi| h and |hi - lo + 1| h stay below
    2^31 (at most 2.7e8 under HYPERBOLIC_NMAX and the rhombic guards)."""
    const, lo, hi = np.broadcast_arrays(*(np.reshape(v, (-1, 1)) for v in (const, lo, hi)))
    turns, span = lo + hi, hi - lo + 1
    wide = max(np.max(np.abs(turns), initial=0), np.max(np.abs(span), initial=0)) * h >= 2 ** 31
    turns, span = (v.astype(np.int64 if wide else np.int32) for v in (turns, span))
    i = np.arange(h + 1, dtype=turns.dtype)
    angle = np.pi / (2 * h) * np.arange(4 * h)      # every angle, taken once
    cos, sin = np.cos(angle), np.sin(angle)
    inv = 2.0 / sin[1:h + 1]
    step = max(1, SYNTHESIS_ENTRIES // (h + 1))
    out, buf = np.empty((len(turns), h + 1)), np.empty((step, h + 1))
    for start in range(0, len(turns), step):
        rows = slice(start, start + step)
        block = out[rows]
        np.take(cos, turns[rows] * i % (4 * h), out=block)
        np.take(sin, span[rows] * i % (4 * h), out=buf[:len(block)])
        block *= buf[:len(block)]
        block[:, 1:] *= inv
        block[:, :1] = 2.0 * span[rows]
        block += const[rows]
    return out


def _fold_weights(h):
    """Trapezoidal fold weights on the quarter grid 0..h (column 0) and on
    its even sub-grid, the quarter grid of half the resolution (column 1)."""
    w = np.where(np.arange(h + 1) % h, 2.0, 1.0)
    return np.column_stack((w, np.where(np.arange(h + 1) % 2, 0.0, w)))


def _self_conjugate(lo1, hi1, c1, deg, c2):
    """Whether the groups' index set, weights included, is symmetric under
    k1 <-> k2: one constant on the k2 = 0 column and (first group only) the
    k1 = 0 row, k1 runs contiguous from 1, and a staircase of corners
    (hi1, deg) that equals its transpose (deg, hi1)."""
    return bool(np.all(c2 == c1[0]) and not np.any(c1[1:]) and lo1[0] == 1
                and np.array_equal(lo1[1:], hi1[:-1] + 1) and np.array_equal(hi1, deg[::-1]))


def _grouped_l1_2d(groups, n1, n2, oversample):
    """(fine, coarse) uniform Riemann sums of (1/4pi^2) int int
    |sum_g A_g(x1) B_g(x2)| dx on the m1 x m2 full-period grid,
    m = 2 oversample (n + 1) with oversample even, and on its even sub-grid;
    a group (lo1, hi1, c1, deg, c2) has the factors
    A = c1 + 2 sum_{k=lo1}^{hi1} cos k x1,
    B = c2 + 2 sum_{k=1}^{deg} cos k x2.  K is even in each variable, so one
    pass over the quarter grid [0, pi]^2 folds |K| with both weights.  The
    pass runs over square tiles of 2 SYNTHESIS_ENTRIES entries (ragged at
    the grid's ends) in one reused buffer: each tile's product of factors is
    taken in absolute value and reduced against both column weights while
    it is in cache, into one (rows, 2) sum per row of tiles.  A symmetric
    index set (n1 = n2) sums one triangle: a row of tiles takes its
    diagonal square with single weights and the columns past it with
    double ones."""
    lo1, hi1, c1, deg, c2 = (np.array(v) for v in zip(*groups))
    h1, h2 = oversample * (n1 + 1), oversample * (n2 + 1)
    amat, bmat = _factors(h1, c1, lo1, hi1).T, _factors(h2, c2, 1, deg)
    w1, w2 = _fold_weights(h1), _fold_weights(h2)
    sym = n1 == n2 and _self_conjugate(lo1, hi1, c1, deg, c2)
    side = math.isqrt(2 * SYNTHESIS_ENTRIES)
    wpast = 2.0 * w2 if sym else w2
    buf = np.empty(side * side)
    totals = np.zeros(2)
    for start in range(0, h1 + 1, side):
        a = amat[start:start + side]
        acc = np.zeros((a.shape[0], 2))
        for lo in range(start * sym, h2 + 1, side):
            b = bmat[:, lo:lo + side]
            tile = buf[:a.shape[0] * b.shape[1]].reshape(a.shape[0], b.shape[1])
            np.matmul(a, b, out=tile)
            np.abs(tile, out=tile)
            acc += tile @ (w2 if lo == start else wpast)[lo:lo + side]
        totals += np.sum(w1[start:start + side] * acc, axis=0)
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
    if n2 > HYPERBOLIC_NMAX:
        raise InvalidArgument(f"cost guard: n2 <= {HYPERBOLIC_NMAX}")
    fine, coarse = _grouped_l1_2d(_rhombic_groups(n1, n2), n1, n2,
                                  RHOMBIC_OVERSAMPLE)
    return LebesgueSample((n1, n2), fine, abs(fine - coarse))


def _hyperbolic_groups(alpha, n):
    """Group {k1 >= 1, k2 >= 1, k1^alpha * k2 <= n} by the k2 degree."""
    def inside(k1):
        try:
            return k1 ** alpha <= n
        except OverflowError:           # past the float range: above n
            return False

    return _degree_groups(itertools.takewhile(inside, itertools.count(1)),
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
    """Log-log fit value = c*n^s of the hyperbolic kernel norms over nset;
    returns ((c, s, rms residual), grid, norms)."""
    if any(n > HYPERBOLIC_NMAX for n in nset):
        raise InvalidArgument(f"cost guard: n <= {HYPERBOLIC_NMAX}")
    values = [hyperbolic_l1(alpha, n)[0] for n in nset]
    return fit_power_model(nset, values), list(nset), values

"""Walsh system in Paley enumeration on the dyadic group, fast transform,
Cesaro and shifted-partial-sum means, the integrable-series coefficient
bound, and dyadic moduli of smoothness.

Dyadic rationals are represented exactly as B-bit integers j <-> j/2^B;
the group operation is bitwise XOR.  The first fractional bit of x is the
top bit of j, so the Paley pairing reads the sample index bit-reversed.
Samples enter as a checked DyadicSignal; `ifwt` returns a plain array."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .trig import SYNTHESIS_ENTRIES, cesaro_numbers

BITS_RANGE = (2, 16)
_POP8 = sum((np.arange(256) >> k) & 1 for k in range(8)).astype(np.int8)
_POP16 = (_POP8[:, None] + _POP8).ravel()       # popcount of hi * 256 + lo


@dataclass(frozen=True)
class DyadicSignal:
    """2^bits real samples of a function on [0,1) at the left endpoints."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not BITS_RANGE[0] <= self.bits <= BITS_RANGE[1] \
                or self.values.shape != (1 << self.bits,):
            raise InvalidArgument(f"length must be 2^bits, bits in {list(BITS_RANGE)}")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgument("values must be finite")

    @property
    def bits(self):
        return self.values.size.bit_length() - 1


@functools.cache
def _paley(bits):
    """The bit reversal of every sample index: the Paley order of the grid."""
    j, perm = np.arange(1 << bits), np.zeros(1 << bits, dtype=np.int64)
    for _ in range(bits):
        perm, j = (perm << 1) | (j & 1), j >> 1
    perm.flags.writeable = False
    return perm


def walsh_row(n, bits):
    """All 2^bits samples of the n-th Walsh function."""
    pop = _POP16[np.bitwise_and(n, _paley(bits))]
    return (1 - 2 * (pop & 1)).astype(float)


def _fwht(a, copy=True):
    """Fast Walsh-Hadamard butterfly (natural AND-pairing) along the last
    axis, SYNTHESIS_ENTRIES samples (or one row) at a time, which stay in
    cache (15 rows of 2^16: 35 ms against 48 ms in one pass over all, 2-vCPU
    host), in place on a copy, or on a float array itself with copy=False;
    refuses a transform whose sums overflow."""
    a = np.array(a, dtype=float, copy=copy)
    n = a.shape[-1]
    rows, step = a.reshape(-1, n), max(1, SYNTHESIS_ENTRIES // n)
    try:
        with np.errstate(over="raise"):
            for start in range(0, len(rows), step):
                for h in (1 << j for j in range(n.bit_length() - 1)):     # n = 2^bits
                    pairs = rows[start:start + step].reshape(-1, n // (2 * h), 2, h)
                    lo, hi = pairs[:, :, 0], pairs[:, :, 1]
                    lo[...], hi[...] = lo + hi, lo - hi
    except FloatingPointError:
        raise InvalidArgument("transform overflows") from None
    return a


def fwt(signal):
    """Walsh-Paley coefficients c_n = (1/2^B) sum_j f_j psi_n(j); exact for
    step functions on the dyadic grid."""
    b = signal.bits
    hat = _fwht(signal.values) / float(1 << b)
    return hat[_paley(b)]


def ifwt(coeffs, bits):
    """The samples of sum_n c_n psi_n on the 2^bits dyadic grid (inverse of
    fwt), finite coefficients past the given ones being zero."""
    if not BITS_RANGE[0] <= bits <= BITS_RANGE[1] or not np.isfinite(coeffs).all():
        raise InvalidArgument(f"need bits in {list(BITS_RANGE)} and finite coefficients")
    c = np.zeros(1 << bits)
    c[: np.size(coeffs)] = coeffs
    return _fwht(c[_paley(bits)])


def cesaro_multipliers(n, alpha):
    """(C,alpha) multipliers lambda_k = A^alpha_{n-1-k} / A^alpha_n applied
    to c_k, k < n; alpha = 1 is the arithmetic mean of S_0..S_n."""
    a = cesaro_numbers(alpha, n)
    return a[n - 1::-1] / a[n]


def cesaro_means(signals, ns, alpha):
    """The samples of sigma_n^alpha of each DyadicSignal of `signals`, of
    equal bits, on the same grid, at each n of ns: a list per signal of one
    array per n, from one Cesaro table and one butterfly over every (signal,
    n) mean."""
    signals, ns = list(signals), np.atleast_1d(ns).tolist()
    if alpha <= 0:
        raise InvalidArgument("alpha must be positive")
    if not (signals and ns):
        return [[] for _ in signals]
    bits = signals[0].bits
    if any(s.bits != bits for s in signals):
        raise InvalidArgument("need signals of equal bits")
    if not all(0 < k < (1 << bits) for k in ns):
        raise InvalidArgument("need 0 < n < 2^bits")
    a, paley = cesaro_numbers(alpha, max(ns)), _paley(bits)
    coeffs = np.zeros((len(signals), len(ns), 1 << bits))     # in Paley order, as ifwt's
    for rows, c in zip(coeffs, map(fwt, signals)):
        for row, k in zip(rows, ns):    # cesaro_multipliers(k, alpha): a prefix of a
            row[paley[:k]] = a[k - 1::-1] / a[k] * c[:k]    # the bit reversal is an involution
    if not np.isfinite(coeffs).all():
        raise InvalidArgument("need finite coefficients")
    return [list(means) for means in _fwht(coeffs, copy=False)]


# br_means_regularity snaps the shift by int(nu * 2^bits / n), finite for |nu|
# up to about 2.7e303 at 16 bits
SHIFT_MAX = 1e300


def br_means_regularity(alpha, beta, nu, nmax):
    """L1 kernel norms of B_n(f) = alpha S_n(f;x) + beta S_n(f; x (+) nu/n)
    for n <= nmax, with the shift snapped to the dyadic grid of
    min(16, ceil(log2 nmax) + 4) bits.

    Exact from the binary digits of n (Paley's lemma; Fine, Trans. AMS 65,
    1949): on level l, where x has its first 1 at digit l+1, D_n = w_n G(l)
    with G(l) = (n mod 2^l) - n_l 2^l, and D_n(0) = n.  As w_n(x (+) s) =
    w_n(x) w_n(s), |B_n| depends on the levels of x and x (+) s alone; for s
    on level t, x (+) s keeps a level l < t, moves l > t to t, and sends
    level t onto each level k > t with measure 2^-k-1.

    bounded: the top-octave maximum does not exceed 1.2x the previous
    octave's maximum."""
    bits = min(BITS_RANGE[1], int(np.ceil(np.log2(nmax))) + 4)
    m = 1 << bits
    n = np.arange(1, nmax + 1)
    # snap the shift downward: rounding could carry into the leading bit of
    # nu/n and change all the character values, truncation keeps them exact
    s = np.array([int(nu * m / k) % m for k in range(1, nmax + 1)])
    eps = 1 - 2 * (_POP16[n & _paley(bits)[s]] & 1)        # w_n(s)
    t = np.where(s > 0, bits - np.frexp(s)[1], bits + 1)
    lev = np.arange(bits + 1)[:, None]       # grid levels, then the point 0
    g = np.where(lev < bits, (n & ((1 << lev) - 1)) - (n & (1 << lev)), n)
    gt = np.take_along_axis(g, np.minimum(t, bits)[None], 0)
    same = np.abs(alpha + beta * eps) * np.abs(g)
    cross = np.abs(alpha * g + beta * eps * gt) + np.abs(alpha * gt + beta * eps * g)
    mass = 0.5 ** np.minimum(lev + 1, bits)
    lc = np.sum(mass * np.where(lev < t, same, np.where(lev > t, cross, 0.0)), axis=0)
    bounded = bool(np.max(lc[nmax // 2:]) <= 1.2 * np.max(lc[nmax // 4: nmax // 2]))
    return {"lc_values": lc, "bounded": bounded}


def sidon_telyakovskii_bound(lam):
    """Both sides of the coefficient bound for lacunary-block Walsh series
    (one-dimensional blocks {k}): the L1 norm of sum lambda_k psi_k, on the
    grid with four times the support rounded up to a power of two, against
    sum_k max_{s>=k} |lambda_s - lambda_{s+1}|."""
    lam = np.asarray(lam, dtype=float)
    bits = max(2, int(np.ceil(np.log2(max(lam.size, 2)))) + 2)
    l1 = float(np.mean(np.abs(ifwt(lam, bits))))
    d = np.abs(np.diff(np.concatenate([lam, [0.0]])))
    bound = float(np.sum(np.maximum.accumulate(d[::-1])[::-1]))
    return {"l1_norm": l1, "bound": bound, "ok": bool(l1 <= bound + 1e-9)}


def dyadic_shift_modulus(f, n):
    """omega_n: sup over dyadic t in (0, 2^-n) of ||f(. (+) t) - f||_inf.

    The half-open ball is the coset structure of the dyadic group; with it
    every Walsh polynomial of degree < 2^n has omega_n = 0."""
    b = f.bits
    if not 0 <= n < b:
        raise InvalidArgument("need 0 <= n < bits")
    # t < 2^(b-n) keeps j (+) t inside j's aligned block of 2^(b-n) samples
    blocks = f.values.reshape(-1, 1 << (b - n))
    return float(np.max(np.ptp(blocks, axis=1)))


def averaged_block_modulus(f, n):
    """Omega_n: sup over k >= n of (1/2^(k+1)) sum_{nu=0}^k 2^(nu-1) times
    ||f - f(. (+) 2^-(n+1))||_inf.

    The weight sum telescopes to (2^(k+1)-1)/2^(k+2), increasing in k to
    the limit 1/2, so the sup is half the shift norm."""
    b = f.bits
    if not 0 <= n < b:
        raise InvalidArgument("need 0 <= n < bits")
    halves = f.values.reshape(-1, 2, 1 << (b - n - 1))
    return 0.5 * float(np.max(np.abs(halves[:, 0] - halves[:, 1])))

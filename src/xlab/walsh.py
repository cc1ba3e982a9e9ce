"""Walsh system in Paley enumeration on the dyadic group, fast transform,
Cesaro and shifted-partial-sum means, the integrable-series coefficient
bound, and dyadic moduli of smoothness.

Dyadic rationals are represented exactly as B-bit integers j <-> j/2^B;
the group operation is bitwise XOR.  The first fractional bit of x is the
top bit of j, so the Paley pairing reads the sample index bit-reversed."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .trig import cesaro_numbers

BITS_RANGE = (2, 16)
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int8)


@dataclass(frozen=True)
class DyadicSignal:
    """2^bits real samples of a function on [0,1) at the left endpoints."""

    values: np.ndarray
    bits: int

    def __post_init__(self):
        if not BITS_RANGE[0] <= self.bits <= BITS_RANGE[1]:
            raise InvalidArgument(f"bits restricted to {list(BITS_RANGE)}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (1 << self.bits,):
            raise InvalidArgument("length must be exactly 2^bits")
        object.__setattr__(self, "values", v)


def bit_reverse(j, bits):
    j = np.asarray(j)
    out = np.zeros_like(j)
    for _ in range(bits):
        out = (out << 1) | (j & 1)
        j = j >> 1
    return out


def walsh_row(n, bits):
    """All 2^bits samples of the n-th Walsh function."""
    j = np.arange(1 << bits)
    pop = _POP16[np.bitwise_and(n, bit_reverse(j, bits))]
    return (1 - 2 * (pop & 1)).astype(float)


def _fwht(a):
    """In-place style fast Walsh-Hadamard butterfly (natural AND-pairing)."""
    a = np.array(a, dtype=float)
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        a = np.concatenate([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]],
                           axis=1).reshape(n)
        h *= 2
    return a


def fwt(signal):
    """Walsh-Paley coefficients c_n = (1/2^B) sum_j f_j psi_n(j); exact for
    step functions on the dyadic grid."""
    b = signal.bits
    hat = _fwht(signal.values) / float(1 << b)
    return hat[bit_reverse(np.arange(1 << b), b)]


def ifwt(coeffs, bits):
    """Synthesis sum_n c_n psi_n on the 2^bits dyadic grid (inverse of fwt);
    coefficients past the given ones are zero."""
    c = np.asarray(coeffs, dtype=float)
    if c.size != 1 << bits:
        full = np.zeros(1 << bits)
        full[: c.size] = c
        c = full
    vals = _fwht(c[bit_reverse(np.arange(1 << bits), bits)])
    return DyadicSignal(vals, bits)


def cesaro_multipliers(n, alpha):
    """(C,alpha) multipliers lambda_k = A^alpha_{n-1-k} / A^alpha_n applied
    to c_k, k < n; alpha = 1 is the arithmetic mean of S_0..S_n."""
    a = cesaro_numbers(alpha, n)
    return a[n - 1::-1] / a[n]


def cesaro_means(signal, n, alpha):
    """sigma_n^alpha of a DyadicSignal, on the same grid."""
    bits = signal.bits
    c = fwt(signal)
    if not 0 < n < (1 << bits):
        raise InvalidArgument("need 0 < n < 2^bits")
    if alpha <= 0:
        raise InvalidArgument("alpha must be positive")
    return ifwt(cesaro_multipliers(n, alpha) * c[:n], bits)


def br_means_regularity(alpha, beta, nu, nmax):
    """L1 kernel norms of B_n(f) = alpha S_n(f;x) + beta S_n(f; x (+) nu/n)
    for n <= nmax, with the shift snapped to the dyadic grid of
    min(16, ceil(log2 nmax) + 4) bits.

    bounded: the top-octave maximum does not exceed 1.2x the previous
    octave's maximum."""
    bits = min(BITS_RANGE[1], int(np.ceil(np.log2(nmax))) + 4)
    m = 1 << bits
    j = np.arange(m)
    d = np.zeros(m)       # D_n accumulated incrementally
    lc = np.empty(nmax + 1)
    lc[0] = 0.0
    for n in range(1, nmax + 1):
        d = d + walsh_row(n - 1, bits)
        # snap the shift downward: truncation keeps every leading bit of
        # nu/n exact, whereas rounding can carry into the leading bit and
        # change all the character values
        s = int(nu * m / n) % m
        kernel = alpha * d + beta * d[j ^ s]
        lc[n] = float(np.mean(np.abs(kernel)))
    top = lc[nmax // 2 + 1: nmax + 1]
    prev = lc[nmax // 4 + 1: nmax // 2 + 1]
    bounded = bool(np.max(top) <= 1.2 * np.max(prev))
    return {"lc_values": lc[1:], "bounded": bounded}


def sidon_telyakovskii_bound(lam):
    """Both sides of the coefficient bound for lacunary-block Walsh series
    (one-dimensional blocks {k}): the L1 norm of sum lambda_k psi_k, on the
    grid with four times the support rounded up to a power of two, against
    sum_k max_{s>=k} |lambda_s - lambda_{s+1}|."""
    lam = np.asarray(lam, dtype=float)
    bits = max(2, int(np.ceil(np.log2(max(lam.size, 2)))) + 2)
    vals = ifwt(lam, bits).values
    l1 = float(np.mean(np.abs(vals)))
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
    j = np.arange(1 << b)
    v = f.values
    best = 0.0
    for t in range(1, 1 << (b - n)):
        best = max(best, float(np.max(np.abs(v[j ^ t] - v))))
    return best


def averaged_block_modulus(f, n):
    """Omega_n: sup over k >= n of (1/2^(k+1)) sum_{nu=0}^k 2^(nu-1) times
    ||f - f(. (+) 2^-(n+1))||_inf.

    The weight sum telescopes to (2^(k+1)-1)/2^(k+2), increasing in k to
    the limit 1/2, so the sup is half the shift norm."""
    b = f.bits
    if not 0 <= n < b:
        raise InvalidArgument("need 0 <= n < bits")
    shift = 1 << (b - n - 1)
    j = np.arange(1 << b)
    delta = float(np.max(np.abs(f.values - f.values[j ^ shift])))
    return 0.5 * delta

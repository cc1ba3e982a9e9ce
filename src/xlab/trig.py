"""Trigonometric core: sampled periodic functions, Fourier coefficients,
summability means and their kernels.

Conventions used throughout the package:

* a 2*pi-periodic function is real, held as M float samples on the grid
  x_j = -pi + 2*pi*j/M with M a power of two, on the last axis of an
  array; leading axes stack several functions on one grid,
* Fourier coefficients are c_k = (1/2pi) int f(x) e^{-ikx} dx, realized
  discretely as c_k = (1/M) sum_j f(x_j) e^{-ik x_j} (exact for
  trigonometric polynomials of degree < M/2); f being real, c_{-k} =
  conj c_k, so those of degree K are the half c_0..c_K, shape (..., K+1),
  index k holding c_k, with c_0 real: numpy's rfft layout; the only
  transforms are real FFTs, one rfft of a checked SampledFunction and one
  irfft in `synthesize`, a plain array for a stack along leading axes, at
  most SYNTHESIS_ENTRIES samples at a time in the callers that loop over n,
* a summability method is a rule k -> lambda_{n,k} multiplying the
  coefficients, zero beyond a band proportional to n, lambda_{n,-k} =
  conj lambda_{n,k} keeping the mean real; the rule takes n as a column,
  rule(n[:, None], k[None, :]), so that `weights` forms the rows k =
  0..kmax of a whole sequence of n in one array operation, each row equal
  bit for bit to the rule at its own n.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidArgument, NotFound

TWO_PI = 2.0 * np.pi
GRID_MIN = 4
# entries per stacked synthesis of a caller that stacks over n or over steps
# (cache-sized: 2^17 ran no faster and raised small-kernels' peak RSS by
# 8 MB); from M = 2^15 on that is one row per call
SYNTHESIS_ENTRIES = 1 << 15


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SampledFunction:
    """Uniform samples of a 2*pi-periodic function, or of a stack of them.

    values : array of shape (..., M) (M a power of two >= 4), finite real
    entries, stored as float; the last axis is the grid x_j = -pi +
    2*pi*j/M.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim < 1:
            raise InvalidArgument("values need a grid axis")
        if v.shape[-1] < GRID_MIN or not _is_power_of_two(v.shape[-1]):
            raise InvalidArgument(f"grid size must be a power of two >= {GRID_MIN}")
        if v.dtype.kind == "c" or not np.all(np.isfinite(v)):
            raise InvalidArgument("values must be real and finite")
        object.__setattr__(self, "values", v.astype(float, copy=False))

    @property
    def size(self):
        """The grid size M."""
        return self.values.shape[-1]

    @classmethod
    def from_callable(cls, f, m):
        x = -np.pi + TWO_PI * np.arange(m) / m
        return cls(np.asarray(f(x)))


def compute_coefficients(f, n):
    """Discrete Fourier coefficients c_0..c_n of a SampledFunction, shape
    (..., n+1) for a stack.

    c_k = (1/M) sum_j f(x_j) e^{-ik x_j}, exact for trigonometric
    polynomials of degree < M/2, from one rfft.
    """
    m = f.size
    if 2 * n + 1 > m:
        raise InvalidArgument(f"degree {n} too large for grid of size {m}")
    # grid starts at -pi, hence the alternating phase
    return ((-1.0) ** np.arange(n + 1)) * (np.fft.rfft(f.values)[..., :n + 1] / m)


def synthesize(c, m):
    """The samples of Re c_0 + 2 Re sum_{k=1..K} c_k e^{ikx}, coefficients
    c_0..c_K of shape (..., K+1), on the M-grid: a float array (..., M) from
    one real inverse FFT for the stack, each row bit for bit its own call's.
    Refuses coefficients that are not finite or whose samples overflow."""
    c = np.asarray(c, dtype=complex)
    if m < max(GRID_MIN, 2 * c.shape[-1] - 1) or not _is_power_of_two(m):
        raise InvalidArgument(f"grid size must be a power of two >= {GRID_MIN} and 2K+1")
    if not np.isfinite(c).all():
        raise InvalidArgument("coefficients must be finite")
    # irfft pads c_0..c_K with zeros to c_0..c_{M/2}
    a = np.where(np.arange(c.shape[-1]) % 2, -1.0, 1.0) * c
    try:
        with np.errstate(over="raise"):
            return np.fft.irfft(a, m, norm="forward")
    except FloatingPointError:
        raise InvalidArgument("samples overflow") from None


def grid_norm(v, p=math.inf):
    """Riemann-sum L_p norm ((2pi/M) sum |v|^p)^(1/p), sup norm for p=inf, of
    the samples v over the last axis: a float for one row, an array for more."""
    v = np.abs(np.asarray(v))
    if math.isinf(p):
        out = np.max(v, axis=-1)
    else:
        out = ((TWO_PI / v.shape[-1]) * np.sum(v ** p, axis=-1)) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# summability methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummabilityMethod:
    """A multiplier rule lambda_{n,k}, zero for |k| > band(n).

    rule    : callable (n, integer array k) -> weights, lambda_{n,0} = 1
              for regular methods; n is an int or a column n[:, None] against
              k[None, :], each entry the same floating-point expression.
    support : band of the method in units of n (1.0 for classical means,
              2.0 for de la Vallee Poussin, inf for Abel-Poisson).
    """

    name: str
    rule: object
    support: float = 1.0

    def band(self, n):
        """Largest |k| carrying a (non-negligible) weight at index n: an int,
        or an int array for an array of n."""
        n = np.asarray(n)
        if math.isinf(self.support):
            # geometric decay cutoff for Abel-Poisson type rules
            r = np.broadcast_to(np.abs(self.rule(n[..., None], np.array([1]))[..., 0]),
                                n.shape)
            stuck = (r >= 1.0) & (n > 0)
            if np.any(stuck):
                raise InvalidArgument(f"{self.name} weights do not decay at n={n[stuck][0]}")
            with np.errstate(divide="ignore"):
                out = np.where((r > 0.0) & (n > 0),
                               np.maximum(1, np.ceil(math.log(1e-17) / np.log(r))), 0)
        else:
            out = np.ceil(self.support * n.astype(float))
        return int(out) if out.ndim == 0 else out.astype(int)

    def weights(self, n, kmax=None):
        """lambda_{n,k} for k = 0..kmax, kmax defaulting to the band (the
        widest one for a sequence of n): a row for an int n, an array of
        shape (len(n), kmax+1) for a sequence, from one call of the rule.
        Raises InvalidArgument where a weight is not finite (an overflowing
        rule, such as Cesaro's A_n^alpha at a large order)."""
        ns = np.atleast_1d(np.asarray(n, dtype=int))
        band = self.band(ns)
        kmax = int(np.max(band, initial=0)) if kmax is None else kmax
        k = np.arange(kmax + 1)
        w = np.zeros((ns.size, k.size), dtype=complex)
        w[:, 0] = 1.0                         # the unit row of n = 0
        with np.errstate(over="ignore", invalid="ignore"):
            w[ns > 0] = self.rule(ns[ns > 0, None], k)
        w[k > band[:, None]] = 0.0
        bad = ~np.all(np.isfinite(w), axis=1)
        if np.any(bad):
            raise InvalidArgument(f"{self.name} weights are not finite at n={ns[bad][0]}")
        return w[0] if np.ndim(n) == 0 else w


def cesaro_numbers(alpha, n, head=(1.0,)):
    """A_j^alpha = binom(j+alpha, j) for j = 0..n by the stable recursion,
    continued from the head A_0^alpha, A_1^alpha, ... when one is given."""
    a = np.empty(n + 1)
    a[:len(head)] = head
    for j in range(len(head), n + 1):
        a[j] = a[j - 1] * (j + alpha) / j
    return a


def dirichlet():
    return SummabilityMethod("dirichlet",
                             lambda n, k: np.ones_like(k, dtype=float))


def fejer():
    return SummabilityMethod("fejer", lambda n, k: 1.0 - np.abs(k) / (n + 1.0))


def cesaro(alpha):
    if not -1 < alpha < math.inf:
        raise InvalidArgument("Cesaro order must be finite and > -1")

    # one table of A_j for all calls, extended locally and rebound: threads share methods
    table = cesaro_numbers(alpha, 0)

    def w(n, k):
        nonlocal table
        a, top = table, int(np.max(n, initial=0))
        if top >= a.size:
            a = table = cesaro_numbers(alpha, top, a)
        idx = n - np.abs(k)
        return np.where(idx >= 0, a[np.maximum(idx, 0)] / a[n], 0.0)

    return SummabilityMethod(f"cesaro({alpha:g})", w)


def abel_poisson(r=None):
    """Abel-Poisson multipliers r^|k|.

    With r=None the radius is linked to the index by r_n = 1 - 1/n, so
    that n = [1/(1-r)]; with explicit r the rule is the same for every n.
    """
    if r is None:
        def w(n, k):
            rn = 1.0 - 1.0 / np.maximum(n, 1)
            return rn ** np.abs(k).astype(float)

        return SummabilityMethod("abel-poisson", w, support=math.inf)
    if not 0 <= r < 1:
        raise InvalidArgument("Abel-Poisson radius must lie in [0,1)")

    def w(n, k):
        return float(r) ** np.abs(k).astype(float)

    return SummabilityMethod(f"abel-poisson({r:g})", w, support=math.inf)


def riesz(alpha, delta):
    if not (0 < alpha < math.inf and 0 <= delta < math.inf):
        raise InvalidArgument("Riesz parameters need finite alpha > 0, delta >= 0")

    def w(n, k):
        return np.clip(1.0 - (np.abs(k) / n) ** alpha, 0.0, None) ** delta

    return SummabilityMethod(f"riesz({alpha:g},{delta:g})", w)


def bochner_riesz(delta):
    if not 0 <= delta < math.inf:
        raise InvalidArgument("Bochner-Riesz order must be finite and >= 0")
    return SummabilityMethod(f"bochner-riesz({delta:g})",
                             riesz(2.0, delta).rule)


def rogosinski():
    # 0.5*(S_n(.+pi/2n) + S_n(.-pi/2n)) as the multiplier cos(k pi / 2n)
    return SummabilityMethod(
        "rogosinski", lambda n, k: np.cos(np.abs(k) * np.pi / (2.0 * n)))


def bernstein():
    # 0.5*(S_n(.) + S_n(.+pi/n)): complex multipliers, lambda_{-k} = conj
    # lambda_k, so the kernel is real (the Rogosinski kernel shifted by pi/2n)
    return SummabilityMethod(
        "bernstein", lambda n, k: 0.5 * (1.0 + np.exp(1j * k * np.pi / n)))


def vallee_poussin():
    def w(n, k):
        return np.clip(np.minimum(1.0, 2.0 - np.abs(k) / n), 0.0, 1.0)

    return SummabilityMethod("vallee-poussin", w, support=2.0)


_FACTORIES = {
    "dirichlet": (dirichlet, 0),
    "fejer": (fejer, 0),
    "cesaro": (cesaro, 1),
    "abel-poisson": (abel_poisson, -1),   # optional radius
    "riesz": (riesz, 2),
    "bochner-riesz": (bochner_riesz, 1),
    "rogosinski": (rogosinski, 0),
    "bernstein": (bernstein, 0),
    "vallee-poussin": (vallee_poussin, 0),
    "de-la-vallee-poussin": (vallee_poussin, 0),
    "dlvp": (vallee_poussin, 0),
}


def get_method(name):
    """Look up a method by name, e.g. ``"fejer"`` or ``"riesz(2,1)"``."""
    s = name.strip().lower().replace("_", "-").replace(" ", "")
    args = ()
    if "(" in s:
        if not s.endswith(")"):
            raise NotFound(f"malformed method name {name!r}")
        s, argstr = s[:-1].split("(", 1)
        try:
            args = tuple(float(a) for a in argstr.split(",") if a != "")
        except ValueError:
            raise NotFound(f"malformed method arguments in {name!r}")
    if s not in _FACTORIES:
        raise NotFound(f"unknown summability method {name!r}")
    factory, nargs = _FACTORIES[s]
    if nargs >= 0 and len(args) != nargs:
        raise NotFound(f"method {s!r} takes {nargs} parameter(s), got {len(args)}")
    if nargs == -1 and len(args) > 1:
        raise NotFound(f"method {s!r} takes at most one parameter")
    return factory(*args)


def approximation_error(method, n, c, m):
    """Grid sup norm of f - Lambda_n f for f given by coefficients c: a float
    for an int n, an array for a sequence of n, whose differences are
    synthesized as stacks of at most SYNTHESIS_ENTRIES samples.  A stack of
    coefficient rows c, shape (F, K+1), gives F times that: the weights
    of each stack of n are formed once for all rows, and each row is
    synthesized as it is on its own."""
    c = np.asarray(c, dtype=complex)
    ns = np.atleast_1d(n)
    rows = max(1, SYNTHESIS_ENTRIES // m)
    out = np.empty(c.shape[:-1] + (len(ns),))
    for start in range(0, len(ns), rows):
        chunk = ns[start:start + rows]
        # the rule only within the widest band: at large M it is most of c
        deg = min(c.shape[-1] - 1, int(np.max(method.band(chunk))))
        w = method.weights(chunk, kmax=deg)
        for ci, oi in zip(c.reshape(-1, c.shape[-1]), out.reshape(-1, len(ns))):
            diff = np.tile(ci, (len(chunk), 1))
            diff[:, :deg + 1] -= w * ci[:deg + 1]
            oi[start:start + rows] = grid_norm(synthesize(diff, m))
    if np.ndim(n) == 0:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def comparison_ratio(method_a, method_b, fset, nmax, m):
    """Two-sided band constant of two regular methods, and its table.

    table[i, n-1] = (||f_i - A_n f_i||, ||f_i - B_n f_i||, ratio) for
    1 <= n <= nmax, the ratio with 0/0 counted as 1 and x/0 as +inf; the
    band is the max of max(ratio, 1/ratio) over the table (0 if empty).
    """
    for method in (method_a, method_b):
        lam0 = method.weights(1, kmax=0)[0]
        if abs(lam0 - 1.0) > 1e-12:
            raise InvalidArgument(f"{method.name} is not regular "
                                  "(weight at k=0 differs from 1)")
    c = np.empty((len(fset), m // 2), dtype=complex)
    for ci, f in zip(c, fset):
        ci[:] = compute_coefficients(f, m // 2 - 1)
    ea, eb = (approximation_error(method, range(1, nmax + 1), c, m)
              for method in (method_a, method_b))
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.stack((ea, eb, np.where(
            eb == 0.0, np.where(ea == 0.0, 1.0, math.inf), ea / eb)), axis=-1)
    with np.errstate(divide="ignore"):
        ratios = table[..., 2]
        band = np.max(np.maximum(ratios, 1.0 / ratios), initial=0.0)
    return float(band), table


# comparison_ratio's cost on a 2-vCPU host (M = 2^6..2^20, nmax up to 32768,
# four method pairs): per function, method and n up to 8.1e-7 s at M = 64 and
# 2.0e-9 s per grid point and level log2 M at M = 2^20, charged 1.5e-6 s and
# 3.5e-9 s; a traced peak of up to 25 bytes per grid point besides the
# samples and the coefficients of every function (8 + 8 bytes per grid point
# and function), charged 64, up to 57 bytes per function and n, charged 64,
# and 4 MB for the stacked syntheses.
def comparison_cost(functions, nmax, m):
    """Estimated (peak bytes, seconds) of comparison_ratio over `functions`
    functions sampled on the m-grid, n = 1..nmax."""
    return ((16 * functions + 64) * m + 64 * functions * nmax + 2 ** 22,
            functions * (2 * nmax + 2) * (1.5e-6 + 3.5e-9 * m * math.log2(m)))

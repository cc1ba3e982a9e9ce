"""Trigonometric core: sampled periodic functions, Fourier coefficients,
summability means and their kernels.

Conventions used throughout the package:

* a 2*pi-periodic function is held as M uniform samples on the grid
  x_j = -pi + 2*pi*j/M with M a power of two,
* Fourier coefficients are c_k = (1/2pi) int f(x) e^{-ikx} dx, realized
  discretely as c_k = (1/M) sum_j f(x_j) e^{-ik x_j} (exact for
  trigonometric polynomials of degree < M/2),
* a summability method is a rule k -> lambda_{n,k} multiplying the
  coefficients, zero beyond a band proportional to n.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidArgument, NotFound

TWO_PI = 2.0 * np.pi
GRID_MIN = 4


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SampledFunction:
    """Uniform samples of a 2*pi-periodic function.

    values : array of length M (power of two, M >= 4), finite entries.
    The sample points are x_j = -pi + 2*pi*j/M.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1:
            raise InvalidArgument("values must be one-dimensional")
        if v.size < GRID_MIN or not _is_power_of_two(v.size):
            raise InvalidArgument(f"grid size must be a power of two >= {GRID_MIN}")
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def size(self):
        return self.values.size

    @classmethod
    def from_callable(cls, f, m):
        x = -np.pi + TWO_PI * np.arange(m) / m
        return cls(np.asarray(f(x)))


class TrigCoefficients:
    """Finitely supported Fourier coefficients c_k, |k| <= degree."""

    def __init__(self, degree, coeffs):
        if degree < 0:
            raise InvalidArgument("degree must be nonnegative")
        self.degree = int(degree)
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (2 * self.degree + 1,):
            raise InvalidArgument("coefficient array must have length 2*degree+1")
        self.c = c

    def is_real_valued(self):
        """c_{-k} = conj c_k up to an absolute 1e-12."""
        return np.allclose(self.c, np.conj(self.c[::-1]), atol=1e-12)

    def copy(self):
        return TrigCoefficients(self.degree, self.c.copy())


def compute_coefficients(f, n):
    """Discrete Fourier coefficients of a SampledFunction up to degree n.

    c_k = (1/M) sum_j f(x_j) e^{-ik x_j}; exact for trigonometric
    polynomials of degree < M/2.
    """
    m = f.size
    if 2 * n + 1 > m:
        raise InvalidArgument(f"degree {n} too large for grid of size {m}")
    hat = np.fft.fft(np.asarray(f.values, dtype=complex)) / m
    k = np.arange(-n, n + 1)
    # grid starts at -pi, hence the alternating phase
    c = ((-1.0) ** k) * hat[np.mod(k, m)]
    return TrigCoefficients(n, c)


def synthesize(c, m):
    """Evaluate the trigonometric polynomial with coefficients c on the M-grid."""
    if 2 * c.degree + 1 > m:
        raise InvalidArgument("grid too coarse for this degree")
    a = np.zeros(m, dtype=complex)
    k = np.arange(-c.degree, c.degree + 1)
    a[np.mod(k, m)] = ((-1.0) ** k) * c.c
    return SampledFunction(np.fft.ifft(a) * m)


def grid_norm(f, p=math.inf):
    """Riemann-sum L_p norm ((2pi/M) sum |f|^p)^(1/p), sup norm for p=inf."""
    v = np.abs(np.asarray(f.values if isinstance(f, SampledFunction) else f))
    if math.isinf(p):
        return float(np.max(v))
    return float(((TWO_PI / v.size) * np.sum(v ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# summability methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummabilityMethod:
    """A multiplier rule lambda_{n,k}, zero for |k| > band(n).

    rule    : callable (n, integer array k) -> weights, lambda_{n,0} = 1
              for regular methods.
    support : band of the method in units of n (1.0 for classical means,
              2.0 for de la Vallee Poussin, inf for Abel-Poisson).
    """

    name: str
    rule: object
    support: float = 1.0

    def band(self, n):
        """Largest |k| carrying a (non-negligible) weight at index n."""
        if n == 0:
            return 0
        if math.isinf(self.support):
            # geometric decay cutoff for Abel-Poisson type rules
            r = float(np.abs(self.rule(n, np.array([1]))[0]))
            if r <= 0.0:
                return 0
            return max(1, int(math.ceil(math.log(1e-17) / math.log(r))))
        return int(math.ceil(self.support * n))

    def weights(self, n, kmax=None):
        """Array of lambda_{n,k} for k = -kmax..kmax (kmax defaults to band)."""
        if kmax is None:
            kmax = self.band(n)
        k = np.arange(-kmax, kmax + 1)
        if n == 0:
            return np.where(k == 0, 1.0, 0.0).astype(complex)
        w = np.asarray(self.rule(n, k), dtype=complex)
        w[np.abs(k) > self.band(n)] = 0.0
        return w


def cesaro_numbers(alpha, n):
    """A_j^alpha = binom(j+alpha, j) for j = 0..n, by the stable recursion."""
    a = np.empty(n + 1)
    a[0] = 1.0
    for j in range(1, n + 1):
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

    def w(n, k):
        a = cesaro_numbers(alpha, n)
        idx = n - np.abs(k)
        out = np.zeros(len(k))
        inside = idx >= 0
        out[inside] = a[idx[inside]] / a[n]
        return out

    return SummabilityMethod(f"cesaro({alpha:g})", w)


def abel_poisson(r=None):
    """Abel-Poisson multipliers r^|k|.

    With r=None the radius is linked to the index by r_n = 1 - 1/n, so
    that n = [1/(1-r)]; with explicit r the rule is the same for every n.
    """
    if r is None:
        def w(n, k):
            rn = 1.0 - 1.0 / max(n, 1)
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
    # 0.5*(S_n(.) + S_n(.+pi/n)): complex but Hermitian multipliers, so the
    # kernel is real (the Rogosinski kernel shifted by pi/2n)
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


def apply_means(method, n, c):
    """Coefficient-wise product lambda_{n,k} * c_k."""
    band = method.band(n)
    deg = min(c.degree, band)
    w = method.weights(n, kmax=deg)
    k = np.arange(-deg, deg + 1)
    vals = w * c.c[k + c.degree]
    return TrigCoefficients(deg, vals)


def approximation_error(method, n, c, m):
    """Grid sup norm of f - Lambda_n f for f given by coefficients c."""
    diff = c.copy()
    lam = apply_means(method, n, c)
    k = np.arange(-lam.degree, lam.degree + 1)
    diff.c[k + diff.degree] -= lam.c
    return grid_norm(synthesize(diff, m))


def comparison_ratio(method_a, method_b, fset, nmax, m=1024):
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
    table = np.empty((len(fset), max(nmax, 0), 3))
    for i, f in enumerate(fset):
        c = compute_coefficients(f, m // 2 - 1)
        for n in range(1, nmax + 1):
            ea = approximation_error(method_a, n, c, m)
            eb = approximation_error(method_b, n, c, m)
            if eb == 0.0:
                ratio = 1.0 if ea == 0.0 else math.inf
            else:
                ratio = ea / eb
            table[i, n - 1] = ea, eb, ratio
    with np.errstate(divide="ignore"):
        ratios = table[..., 2]
        band = np.max(np.maximum(ratios, 1.0 / ratios), initial=0.0)
    return float(band), table

"""Fixed corpora of test functions used by experiments and band checks.

Band constants for two-sided (equivalence) claims are always quoted
relative to one of these corpora, so the corpora are versioned data: do
not reorder or silently change entries.
"""

import numpy as np

from .errors import NotFound
from .trig import TWO_PI, SampledFunction


def _lacunary(x):
    out = np.zeros_like(x)
    for j in range(1, 8):
        out += np.cos((2 ** j) * x) / 2 ** j
    return out


def _zigzag(x):
    # piecewise linear with kinks at multiples of pi/2
    return np.abs(np.mod(x, np.pi) - np.pi / 2)


_PERIODIC = {
    "sin": np.sin,
    "cos3": lambda x: np.cos(3 * x),
    "trigpoly": lambda x: np.sin(x) + 0.5 * np.cos(2 * x) - 0.25 * np.sin(5 * x),
    "exp_cos": lambda x: np.exp(np.cos(x)),
    "abs_sin": lambda x: np.abs(np.sin(x)),
    "abs_sin2": lambda x: np.abs(np.sin(2 * x)),
    "abs_sin_15": lambda x: np.abs(np.sin(x)) ** 1.5,
    "triangle": np.abs,                       # |x| on [-pi, pi)
    "parabola": lambda x: x * x / np.pi,
    "zigzag": _zigzag,
    "sqrt_kink": lambda x: np.sqrt(np.abs(np.sin(x))),
    "holder_34": lambda x: np.abs(np.sin(x)) ** 0.75,
    "lacunary": _lacunary,
    "sharp_smooth": lambda x: np.arctan(8 * np.sin(x)),
    "beat": lambda x: np.sin(x) * np.cos(7 * x),
    "cusp_pair": lambda x: np.abs(np.sin(x)) + 0.5 * np.abs(np.sin(3 * x)),
    "shifted_triangle": lambda x: np.abs(np.mod(x + 1.0 + np.pi, TWO_PI) - np.pi),
    "flat_top": lambda x: np.minimum(1.0, 2 * np.abs(np.sin(x))),
    "slow_sine": lambda x: np.sin(x / 1.0) ** 3,
    "ripple": lambda x: 0.2 * np.sin(17 * x) + np.cos(2 * x),
}


def periodic_ids():
    return list(_PERIODIC)


def periodic(name):
    try:
        return _PERIODIC[name]
    except KeyError:
        raise NotFound(f"unknown corpus function {name!r}") from None


def sampled(name, m):
    return SampledFunction.from_callable(periodic(name), m)


def continuity_corpus(m):
    """The 20-function corpus for modulus-of-continuity experiments."""
    return [(name, SampledFunction.from_callable(fn, m))
            for name, fn in _PERIODIC.items()]


COMPARE = ["sin", "cos3", "trigpoly", "exp_cos", "abs_sin", "abs_sin2",
           "triangle", "zigzag", "lacunary", "sharp_smooth"]


def comparison_corpus(m):
    """Ten functions (smooth through barely-Hoelder) for method comparison."""
    return [(name, SampledFunction.from_callable(_PERIODIC[name], m))
            for name in COMPARE]


JACKSON = ["abs_sin", "triangle", "zigzag", "cusp_pair", "shifted_triangle",
           "abs_sin_15", "lacunary", "sqrt_kink"]


def jackson_corpus(m):
    """Sawtooth-like functions for direct/inverse band experiments."""
    return [(name, SampledFunction.from_callable(_PERIODIC[name], m))
            for name in JACKSON]


# ---------------------------------------------------------------------------
# dyadic corpus: functions on [0,1) sampled at j/2^B
# ---------------------------------------------------------------------------

def _takagi(x):
    out = np.zeros_like(x)
    for j in range(8):
        s = (2 ** j) * x
        out += np.abs(s - np.round(s)) / 2 ** j
    return out


_DYADIC = {
    "linear": lambda x: x,
    "tent": lambda x: np.abs(x - 0.5),
    "quadratic": lambda x: x * (1.0 - x),
    "sin2pi": lambda x: np.sin(TWO_PI * x),
    "exp": np.exp,
    "takagi": _takagi,
    "step_half": lambda x: (x < 0.5).astype(float),
    "step_quarters": lambda x: np.floor(4 * x) / 4.0,
    "cos_cusp": lambda x: np.abs(np.cos(np.pi * x)) ** 1.5,
    "sqrt": np.sqrt,
}


def dyadic_corpus(bits):
    """Ten functions on [0,1) sampled at the dyadic nodes j/2^bits."""
    x = np.arange(2 ** bits) / 2.0 ** bits
    return [(name, fn(x).astype(float)) for name, fn in _DYADIC.items()]

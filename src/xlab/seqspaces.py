"""Sequence-space norms and exact duality identities.

Three scales appear: the sum-of-tail-sups norm, the sup-of-Cesaro-averages
norm h_p, and its companion b_p built from averaged tails.  Finite
sequences are zero-extended, which makes every tail expression a finite
computation.
"""

import math

import numpy as np

from .errors import InvalidArgument


def _arr(c):
    """Sequences as floats along the last axis; a scalar is a length-1 one."""
    a = np.atleast_1d(np.asarray(c, dtype=float))
    if a.shape[-1] < 1:
        raise InvalidArgument("sequence must be nonempty")
    if not np.all(np.isfinite(a)):
        raise InvalidArgument("sequence entries must be finite")
    return a


def _out(v):
    """A float for one sequence, the array of row values for a batch."""
    return float(v) if np.ndim(v) == 0 else v


def _root(v, p):
    """v^(1/p) by np.float_power, the scalar C pow: numpy's vectorized
    power can differ from it in the last bit, and the one-sequence norms
    took this root of a scalar."""
    return np.float_power(v, 1.0 / p)


def _rowdot(a, b):
    """sum_k a_k b_k along the last axis; row by row the same dot as np.dot."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def astar_norm(c, p):
    """(sum_n sup_{k>=n} |c_k|^p)^(1/p) over the one-sided index set.

    Order sensitive: a late large entry is counted by every earlier tail.
    """
    p = float(p)
    a = np.abs(_arr(c)) ** p
    suffix = np.maximum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]
    return _out(_root(np.sum(suffix, axis=-1), p))


def hp_norm(y, p):
    """sup_n ((1/n) sum_{k=1..n} |y_k|^p)^(1/p), sequences 1-indexed."""
    p = float(p)
    a = np.abs(_arr(y)) ** p
    csum = np.cumsum(a, axis=-1)
    n = np.arange(1, a.shape[-1] + 1)
    return _out(_root(np.max(csum / n, axis=-1), p))


def bp_norm(x, p):
    """sum_n ((1/n) sum_{k>=n} |x_k|^p)^(1/p) with zero-extended tails."""
    p = float(p)
    a = np.abs(_arr(x)) ** p
    tails = np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
    n = np.arange(1, a.shape[-1] + 1)
    return _out(np.sum((tails / n) ** (1.0 / p), axis=-1))


def cesaro_sup(beta):
    """sup_n (1/(n+1)) sum_{k<=n} |beta_k| and the maximizing n."""
    b = np.abs(_arr(beta))
    avgs = np.cumsum(b, axis=-1) / np.arange(1, b.shape[-1] + 1)
    nstar = np.argmax(avgs, axis=-1)
    return _out(np.max(avgs, axis=-1)), (int(nstar) if nstar.ndim == 0 else nstar)


def duality_identity_astar(beta):
    """Both sides of sup_{alpha in tail-sup ball} |sum alpha_k beta_k|.

    The right-hand side is the best Cesaro average of |beta|; the flat
    extremal alpha_k = sign(beta_k)/(n*+1), k <= n*, attains it with
    tail-sup sum exactly one.
    """
    b = _arr(beta)
    rhs, nstar = cesaro_sup(b)
    nstar = np.asarray(nstar)[..., None]
    flat = (np.arange(b.shape[-1]) <= nstar) & (np.asarray(rhs)[..., None] > 0)
    alpha = np.where(flat, np.sign(b) / (nstar + 1), 0.0)
    return {"lhs": _out(np.abs(_rowdot(alpha, b))), "rhs": rhs,
            "extremal_alpha": alpha}


def _prefix_ball_max(weights):
    """Exact max of sum w_k b_k over {b >= 0 : sum_{k<=n} b_k <= n+1 for all n},
    along the last axis.

    The constraint system is nested, so the feasible set is a polymatroid
    with rank g(S) = max(S)+1; the greedy allocation in decreasing weight
    order is optimal.  Returns the value and the maximizing vector.
    """
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, axis=-1, kind="stable")
    ws = -np.sort(-w, axis=-1)
    # g(support) - 1 before each step: the running max of the earlier indices
    before = np.maximum.accumulate(order, axis=-1)
    before = np.concatenate([np.full(w.shape[:-1] + (1,), -1), before[..., :-1]], axis=-1)
    # weights sorted decreasing: the positive ones form a prefix
    active = ws > 0
    gain = np.where(active, np.maximum(0, order - before), 0)
    b = np.zeros_like(w)
    np.put_along_axis(b, order, gain, axis=-1)
    # summed term by term in the greedy order
    total = np.cumsum(np.where(active, ws * gain, 0.0), axis=-1)[..., -1]
    return _out(total), b


def duality_identity_cesaro(alpha):
    """Both sides of sup_{beta in Cesaro ball} |sum alpha_k beta_k|.

    rhs is the sum of tail sups of |alpha|; lhs is the exact linear-program
    maximum over the Cesaro unit ball, by the greedy polymatroid allocation.
    """
    a = _arr(alpha)
    value, _ = _prefix_ball_max(np.abs(a))
    return {"lhs": value, "rhs": astar_norm(a, 1)}


# The duality fuzz checks both identities on every sequence over {0, +-1, +-2}
# of each length L <= maxlen, FUZZ_CHUNK sequences a batch, whose arrays peak
# at about 85 bytes per sequence entry (tracemalloc, L = 6..12).  Batched, a
# sequence entry costs about FUZZ_ENTRY_S (measured on a 2-vCPU Xeon guest:
# 3.8 s at maxlen = 9, 22 s at 10), so maxlen costs fuzz_seconds(maxlen):
# 118 s at 11, 645 s at 12.
FUZZ_CHUNK = 5 ** 7
FUZZ_ENTRY_BYTES, FUZZ_ENTRY_S = 100, 1.8e-7


def fuzz_seconds(maxlen):
    """Estimated duality-fuzz time: FUZZ_ENTRY_S for each of the
    sum_{L<=maxlen} L 5^L = ((4 maxlen - 1) 5^(maxlen+1) + 5)/16 entries."""
    return FUZZ_ENTRY_S * ((4 * maxlen - 1) * 5.0 ** (maxlen + 1) + 5) / 16


PAIRING_MAXLEN = 64


def empirical_pairing_constants(p, samples, seed):
    """Empirical constants of the three pairing inequalities between the
    averaged-tail and Cesaro-sup norms, from random sequences of lengths
    uniform in 1..PAIRING_MAXLEN.

    gamma1: largest observed pairing / (||x||_{b_p} ||y||_{h_q});
    gamma2: smallest observed (sup over candidate x in the b_p ball of the
    pairing) / ||y||_{h_q}; gamma3 symmetrically.  Candidates are the unit
    spikes (their norms have closed forms) and the conjugate-power vector.
    """
    p = float(p)
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    j = np.arange(1, PAIRING_MAXLEN + 1)
    spike_bp = np.cumsum(j ** (-1.0 / p))        # ||e_j||_{b_p}
    spike_hq = j ** (-1.0 / q)                   # ||e_j||_{h_q}
    groups = {}                                  # length -> [(x, y), ...]
    for _ in range(samples):
        n = int(rng.integers(1, PAIRING_MAXLEN + 1))
        x = rng.standard_normal(n)
        groups.setdefault(n, []).append((x, rng.standard_normal(n)))
    # max and min are exact, so the order of the groups does not matter
    g1, g2, g3 = 0.0, math.inf, math.inf
    for n, pairs in groups.items():
        x, y = (np.array(v) for v in zip(*pairs))
        r = hp_bp_holder_check(x, y, p)
        ok = r["bound_product"] > 0
        if ok.any():
            g1 = max(g1, float(np.max(r["pairing"][ok] / r["bound_product"][ok])))
        g2 = min(g2, _dual_ratio(y, hp_norm, q, bp_norm, p, spike_bp[:n]))
        g3 = min(g3, _dual_ratio(x, bp_norm, p, hp_norm, q, spike_hq[:n]))
    return {"gamma1": g1, "gamma2": g2, "gamma3": g3}


def _dual_ratio(v, norm, s, dual_norm, t, spikes):
    """Smallest (best pairing with a candidate of the dual_norm(., t) unit
    ball) / norm(v, s) over the rows v with norm(v, s) > 0, inf for none.
    Candidates are the unit spikes, whose norms are `spikes`, and the
    conjugate-power vector sign(v) |v|^(s-1) when its norm is positive."""
    nv = norm(v, s)
    keep = nv > 0
    if not keep.any():
        return math.inf
    v, nv = v[keep], nv[keep]
    av = np.abs(v)
    best = np.max(av / spikes, axis=-1)
    dn = dual_norm(np.sign(v) * av ** (s - 1.0), t)
    pos = dn > 0
    best[pos] = np.maximum(best[pos], np.sum(av[pos] ** s, axis=-1) / dn[pos])
    return float(np.min(best / nv))


def hp_bp_holder_check(x, y, p):
    """Pairing |sum x_k y_k| against the product ||x||_{b_p} ||y||_{h_q},
    row by row along the last axis."""
    p = float(p)
    if not p > 1:
        raise InvalidArgument("the pairing bound needs p in (1, inf)")
    q = p / (p - 1.0)
    xv, yv = _arr(x), _arr(y)
    n = min(xv.shape[-1], yv.shape[-1])
    pairing = np.abs(_rowdot(xv[..., :n], yv[..., :n]))
    product = bp_norm(xv, p) * hp_norm(yv, q)
    return {"pairing": _out(pairing), "bound_product": product}

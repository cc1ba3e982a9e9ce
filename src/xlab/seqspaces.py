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
    a = np.asarray(c, dtype=float).ravel()
    if a.size < 1:
        raise InvalidArgument("sequence must be nonempty")
    if not np.all(np.isfinite(a)):
        raise InvalidArgument("sequence entries must be finite")
    return a


def astar_norm(c, p):
    """(sum_n sup_{k>=n} |c_k|^p)^(1/p) over the one-sided index set.

    Order sensitive: a late large entry is counted by every earlier tail.
    """
    p = float(p)
    a = np.abs(_arr(c)) ** p
    suffix = np.maximum.accumulate(a[::-1])[::-1]
    return float(np.sum(suffix) ** (1.0 / p))


def hp_norm(y, p):
    """sup_n ((1/n) sum_{k=1..n} |y_k|^p)^(1/p), sequences 1-indexed."""
    p = float(p)
    a = np.abs(_arr(y)) ** p
    csum = np.cumsum(a)
    n = np.arange(1, a.size + 1)
    return float(np.max(csum / n) ** (1.0 / p))


def bp_norm(x, p):
    """sum_n ((1/n) sum_{k>=n} |x_k|^p)^(1/p) with zero-extended tails."""
    p = float(p)
    a = np.abs(_arr(x)) ** p
    tails = np.cumsum(a[::-1])[::-1]
    n = np.arange(1, a.size + 1)
    return float(np.sum((tails / n) ** (1.0 / p)))


def cesaro_sup(beta):
    """sup_n (1/(n+1)) sum_{k<=n} |beta_k| and the maximizing n."""
    b = np.abs(_arr(beta))
    avgs = np.cumsum(b) / np.arange(1, b.size + 1)
    nstar = int(np.argmax(avgs))
    return float(avgs[nstar]), nstar


def duality_identity_astar(beta):
    """Both sides of sup_{alpha in tail-sup ball} |sum alpha_k beta_k|.

    The right-hand side is the best Cesaro average of |beta|; the flat
    extremal alpha_k = sign(beta_k)/(n*+1), k <= n*, attains it with
    tail-sup sum exactly one.
    """
    b = _arr(beta)
    rhs, nstar = cesaro_sup(b)
    alpha = np.zeros_like(b)
    if rhs > 0:
        alpha[: nstar + 1] = np.sign(b[: nstar + 1]) / (nstar + 1)
    lhs = float(abs(np.dot(alpha, b)))
    return {"lhs": lhs, "rhs": rhs, "extremal_alpha": alpha}


def _prefix_ball_max(weights):
    """Exact max of sum w_k b_k over {b >= 0 : sum_{k<=n} b_k <= n+1 for all n}.

    The constraint system is nested, so the feasible set is a polymatroid
    with rank g(S) = max(S)+1; the greedy allocation in decreasing weight
    order is optimal.  Returns the value and the maximizing vector.
    """
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    b = np.zeros_like(w)
    cur_max = -1  # g(current support) - 1
    total = 0.0
    for i in order:
        if w[i] <= 0:
            break
        gain = max(0, i - cur_max)
        b[i] = gain
        total += w[i] * gain
        cur_max = max(cur_max, i)
    return total, b


def duality_identity_cesaro(alpha):
    """Both sides of sup_{beta in Cesaro ball} |sum alpha_k beta_k|.

    rhs is the sum of tail sups of |alpha|; lhs is the exact linear-program
    maximum over the Cesaro unit ball, by the greedy polymatroid allocation.
    """
    a = _arr(alpha)
    value, _ = _prefix_ball_max(np.abs(a))
    return {"lhs": float(value), "rhs": astar_norm(a, 1)}


def empirical_pairing_constants(p, samples, seed=0, maxlen=64):
    """Empirical constants of the three pairing inequalities between the
    averaged-tail and Cesaro-sup norms, from random sequences.

    gamma1: largest observed pairing / (||x||_{b_p} ||y||_{h_q});
    gamma2: smallest observed (sup over candidate x in the b_p ball of the
    pairing) / ||y||_{h_q}; gamma3 symmetrically.  Candidates are the unit
    spikes (their norms have closed forms) and the conjugate-power vector.
    """
    p = float(p)
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    j = np.arange(1, maxlen + 1)
    spike_bp = np.cumsum(j ** (-1.0 / p))        # ||e_j||_{b_p}
    spike_hq = j ** (-1.0 / q)                   # ||e_j||_{h_q}
    g1, g2, g3 = 0.0, math.inf, math.inf
    for _ in range(samples):
        n = int(rng.integers(1, maxlen + 1))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        r = hp_bp_holder_check(x, y, p)
        if r["bound_product"] > 0:
            g1 = max(g1, r["pairing"] / r["bound_product"])
        ay, ax = np.abs(y), np.abs(x)
        hq_y = hp_norm(y, q)
        if hq_y > 0:
            best = float(np.max(ay / spike_bp[:n]))
            conj = np.sign(y) * ay ** (q - 1.0)
            bpc = bp_norm(conj, p)
            if bpc > 0:
                best = max(best, float(np.sum(ay ** q)) / bpc)
            g2 = min(g2, best / hq_y)
        bp_x = bp_norm(x, p)
        if bp_x > 0:
            best = float(np.max(ax / spike_hq[:n]))
            conj = np.sign(x) * ax ** (p - 1.0)
            hqc = hp_norm(conj, q)
            if hqc > 0:
                best = max(best, float(np.sum(ax ** p)) / hqc)
            g3 = min(g3, best / bp_x)
    return {"gamma1": g1, "gamma2": g2, "gamma3": g3}


def hp_bp_holder_check(x, y, p):
    """Pairing |sum x_k y_k| against the product ||x||_{b_p} ||y||_{h_q}."""
    p = float(p)
    if not p > 1:
        raise InvalidArgument("the pairing bound needs p in (1, inf)")
    q = p / (p - 1.0)
    xv, yv = _arr(x), _arr(y)
    n = min(xv.size, yv.size)
    pairing = float(abs(np.dot(xv[:n], yv[:n])))
    product = bp_norm(xv, p) * hp_norm(yv, q)
    return {"pairing": pairing, "bound_product": product}

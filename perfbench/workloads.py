"""The three workloads: inputs generated from the benchmark seed.

An operation is either one experiment config driven through
`xlab.cli.build_config` + `run` + `write_csv`, or one direct library call
where no experiment reaches the layer.  Every size is drawn inside a narrow
band, so that different seeds exercise different inputs at nearly the same
cost (a few per cent apart); `smoke=True` swaps in tiny bands that run in
seconds.
"""

import random

WORKLOADS = ("lebesgue-large-n", "hyperbolic-2d", "small-kernels")


def cli_op(experiment, seed, **params):
    return {"kind": "cli", "experiment": experiment, "seed": seed,
            "tokens": [f"{k}={v}" for k, v in params.items()]}


def call_op(func, *args):
    return {"kind": "call", "func": func, "args": list(args)}


def describe(op):
    """One line naming the operation, as a user would type it."""
    if op["kind"] == "cli":
        return " ".join([op["experiment"], *op["tokens"],
                         f"--seed {op['seed']}"])
    return f"{op['func']}({', '.join(repr(a) for a in op['args'])})"


def _lebesgue_large_n(rng, seed, smoke):
    if smoke:
        n_big, n_mid, n_rog = rng.randint(60, 64), rng.randint(30, 32), \
            rng.randint(30, 32)
        kol_min, n_bern = 32, rng.choice((8, 9))
    else:
        n_big, n_mid, n_rog = rng.randint(1016, 1024), \
            rng.randint(508, 516), rng.randint(508, 516)
        # the panel path's cost jumps between neighbouring n; these two
        # cost about the same
        kol_min, n_bern = rng.randint(62, 64), rng.choice((34, 35))
    ops = [cli_op("lebesgue-table", seed, method="dirichlet", nmin=n, nmax=n)
           for n in (n_big, n_mid)]
    ops.append(cli_op("lebesgue-table", seed, method="rogosinski",
                      nmin=n_rog, nmax=n_rog))
    ops.append(cli_op("kolmogorov-fit", seed, r=1, nmin=kol_min,
                      nmax=8 * kol_min))
    for method in ("bernstein", "rogosinski"):
        ops.append(cli_op("lebesgue-table", seed, method=method,
                          nmin=n_bern, nmax=n_bern))
    return ops


def _hyperbolic_2d(rng, seed, smoke):
    if smoke:
        n1, n2 = rng.randint(30, 32), rng.randint(30, 32)
    else:
        # n1 * 4 stays <= 1024, where hyperbolic_l1 switches oversampling
        n1, n2 = rng.randint(252, 256), rng.randint(512, 520)
    ops = [cli_op("hyperbolic-fit", seed, alpha=1.0, nmin=n1, nmax=4 * n1),
           cli_op("hyperbolic-fit", seed, alpha=2.0, nmin=n2, nmax=4 * n2)]
    for _ in range(3):
        a = rng.randint(4, 8) if smoke else rng.randint(8, 32)
        ops.append(call_op("lebesgue.rhombic_lebesgue", a,
                           a * rng.choice((1, 2, 4))))
    return ops


def _small_kernels(rng, seed, smoke):
    def band(lo, hi, tiny):
        return tiny if smoke else rng.randint(lo, hi)

    ops = [cli_op("lebesgue-table", seed, method=m, nmin=1,
                  nmax=band(lo, hi, 8))
           for m, lo, hi in (("fejer", 96, 100), ("cesaro(1)", 96, 100),
                             ("vallee-poussin", 22, 24),
                             ("dirichlet", 96, 100))]
    ops += [
        cli_op("comparison-ratio", seed, a="fejer", b="abel-poisson",
               nmax=band(60, 64, 8), m=128 if smoke else 512),
        cli_op("moduli", seed, r=rng.choice((1, 2)),
               m=128 if smoke else 512),
        cli_op("two-sided-report", seed, r=rng.choice((1, 2)), nmin=16,
               nmax=32 if smoke else 128, m=256 if smoke else 1024),
        cli_op("duality-fuzz", seed, maxlen=3 if smoke else 5),
        cli_op("posdef-report", seed, trials=band(190, 210, 100)),
        cli_op("aspline", seed, n=2),
        cli_op("schoenberg", seed, m=2, p=3, alpha=1.0,
               trials=band(950, 1000, 200)),
        cli_op("schoenberg", seed, m=3, p="inf", alpha=1.0,
               trials=band(950, 1000, 200)),
        cli_op("walsh-regularity", seed, alpha=0.5, beta=0.5, nu=1.0,
               nmax=band(480, 512, 64)),
        cli_op("walsh-moduli", seed, bits=6 if smoke else 9,
               alpha=rng.choice((1.0, 2.0))),
        cli_op("euler-maclaurin-check", seed, n=rng.randint(1, 3), rmax=0),
        cli_op("indicator-zeros", seed, body="disc",
               radius=round(rng.uniform(0.8, 1.2), 3), p=rng.randint(1, 2),
               phis=8 if smoke else 32),
        cli_op("indicator-zeros", seed, body="ellipse",
               a=round(rng.uniform(0.9, 1.1), 3),
               b=round(rng.uniform(0.4, 0.6), 3), p=1,
               phis=8 if smoke else 32),
        # no experiment reaches the pairing constants
        call_op("seqspaces.empirical_pairing_constants",
                rng.choice((1.5, 2.0, 3.0)), 100 if smoke else 1000, seed),
    ]
    return ops


_GENERATORS = {"lebesgue-large-n": _lebesgue_large_n,
               "hyperbolic-2d": _hyperbolic_2d,
               "small-kernels": _small_kernels}


def generate(workload, seed, smoke=False):
    """The operation list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    experiment_seed = rng.randrange(1 << 16)
    return _GENERATORS[workload](rng, experiment_seed, smoke)

"""Monte-Carlo coverage checks shared by the concentration tests and the
acceptance suite: estimate how often each of the library's upper bounds on
the mean is violated by the true mean over many seeded trials."""
from __future__ import annotations

import math

import numpy as np

from boundslab.concentration import (
    Sample,
    SplitGrid,
    empirical_bernstein_mean_bound,
    hoeffding_mean_bound,
    kl_mean_bound,
    split_kl_mean_bound,
    unexpected_bernstein_mean_bound,
)


def draw_matrix(rng, dist, M, n):
    """M x n draws: dist is 'bernoulli03' or 'ternary' (uniform on {0,1/2,1})."""
    if dist == "bernoulli03":
        return (rng.random((M, n)) < 0.3).astype(float), 0.3
    if dist == "ternary":
        return rng.integers(0, 3, size=(M, n)).astype(float) / 2.0, 0.5
    raise ValueError(dist)


# The library's upper bounds on the mean, as (sample, delta) -> value.
MEAN_BOUNDS = {
    "hoeffding": lambda s, delta: hoeffding_mean_bound(s.mean, s.n, delta).value,
    "kl": lambda s, delta: kl_mean_bound(s.mean, s.n, delta).value,
    "empirical_bernstein":
        lambda s, delta: empirical_bernstein_mean_bound(s, delta).value,
    "unexpected_bernstein":
        lambda s, delta: unexpected_bernstein_mean_bound(s, delta).value,
    # split-kl on the ternary grid {0, 1/2, 1} (K = 2 segments)
    "split_kl": lambda s, delta: split_kl_mean_bound(
        s, SplitGrid([0.0, 0.5, 1.0]), delta).value,
}


def violation_rates(data, true_mean, delta):
    """{bound name: fraction of the M rows of ``data`` whose bound lies below
    the true mean}, for every bound in ``MEAN_BOUNDS``.

    Every mean bound in ``boundslab.concentration`` is a symmetric function of
    the sample: it reads the values only through ``math.fsum`` sums, which
    are correctly rounded in any order.  Rows with the same sorted values
    therefore get the same bound, so the library runs once per distinct
    sorted row and each result is mapped back to all of its rows.
    """
    rows, inverse = np.unique(np.sort(data, axis=1), axis=0,
                              return_inverse=True)
    samples = [Sample.unit(row) for row in rows]
    inverse = inverse.ravel()
    rates = {}
    for name, bound in MEAN_BOUNDS.items():
        below = np.array([bound(s, delta) < true_mean for s in samples])
        rates[name] = float(np.mean(below[inverse]))
    return rates


def pb_validity_rates(trials=500, m=20, n=256, delta=0.05, seed=123,
                      recursive_stages=(1, 2, 3)):
    """Monte-Carlo validity of the minimized PAC-Bayes bounds on synthetic
    finite classes with known true means.  Returns violation rates keyed by
    bound name."""
    from boundslab.divergences import ProbVec
    from boundslab.pac_bayes import (
        LossTable,
        PacBayesQuery,
        alternating_minimize,
        pb_kl_bound,
        pb_lambda_bound,
        recursive_pb,
    )

    rng = np.random.default_rng(seed)
    pi = ProbVec([1.0 / m] * m)
    violations = {"pb_kl": 0, "pb_lambda": 0}
    violations.update({f"recursive_T{T}": 0 for T in recursive_stages})
    for trial in range(trials):
        true_means = rng.uniform(0.2, 0.8, size=m)
        data = (rng.random((m, n)) < true_means[:, None]).astype(float)
        table = LossTable(data)
        fit = alternating_minimize(pi, table, delta)
        rho_w = np.asarray(fit.rho.weights)
        true_gibbs = float(np.dot(rho_w, true_means))
        emp = float(np.dot(rho_w, table.emp_losses()))
        q = PacBayesQuery(fit.rho, pi, n, delta)
        if pb_kl_bound(q, emp).value < true_gibbs:
            violations["pb_kl"] += 1
        if pb_lambda_bound(q, emp, lam=fit.lam).value < true_gibbs:
            violations["pb_lambda"] += 1
        for T in recursive_stages:
            stages = recursive_pb(table, delta, T, seed=int(trial))
            final_rho = np.asarray(stages[-1].detail["stage"].pi_star.weights)
            if stages[-1].value < float(np.dot(final_rho, true_means)):
                violations[f"recursive_T{T}"] += 1
    return {name: count / trials for name, count in violations.items()}


def coverage_threshold(delta, M):
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / M)

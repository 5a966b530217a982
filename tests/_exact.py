"""Exact finite-sum values shared by the concentration tests and the
acceptance suite, for checks where the outcome space is small enough to
enumerate."""
from __future__ import annotations

import math


def kl_mgf_exact(n: int, p: float) -> float:
    """Exact E[e^{n kl(p_hat || p)}] for p_hat the mean of n Bernoulli(p)
    draws, by finite summation in log space.

    The summand C(n,k) p^k (1-p)^{n-k} e^{n kl(k/n||p)} simplifies to
    C(n,k) (k/n)^k ((n-k)/n)^{n-k}, so the value is p-free for p in (0,1);
    at p in {0,1} the expectation is trivially 1.
    """
    if p in (0.0, 1.0):
        return 1.0
    log_terms = []
    for k in range(n + 1):
        log_c = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        term = log_c
        if k > 0:
            term += k * math.log(k / n)
        if k < n:
            term += (n - k) * math.log((n - k) / n)
        log_terms.append(term)
    peak = max(log_terms)
    return math.exp(peak) * math.fsum(math.exp(t - peak) for t in log_terms)

"""High-confidence upper bounds on the mean of samples in [0, 1].

Covers the Hoeffding radius and mean bound, the kl and split-kl mean bounds,
and the empirical and "unexpected" (lambda-grid) Bernstein bounds.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergences import (
    _MAX,
    _check_count,
    _check_delta,
    _check_range,
    _check_unit,
    kl_inverse,
)


@dataclass(frozen=True)
class BoundResult:
    """A computed high-confidence bound: its value, confidence level and the
    auxiliary quantities (budget, chosen lambda, variance proxy, ...) that
    produced it."""

    value: float
    delta: float
    method: str
    detail: dict = field(default_factory=dict)


class Sample:
    """A finite sample of losses in [0, 1]."""

    __slots__ = ("values", "_mean", "_mean_sq")

    def __init__(self, values: Sequence[float]):
        vals = tuple(map(float, values))
        if not vals:
            raise ValueError("sample must be nonempty")
        if any(map(math.isnan, vals)):
            raise ValueError("sample values must not be NaN")
        if max(vals) > 1.0:
            raise ValueError(f"sample value {max(vals)} exceeds upper bound 1.0")
        if min(vals) < 0.0:
            raise ValueError(f"sample value {min(vals)} below lower bound 0.0")
        self.values = vals
        self._mean = self._mean_sq = None  # computed on first use

    @classmethod
    def unit(cls, values: Sequence[float]) -> "Sample":
        """A sample declared to live in [0, 1], as every ``Sample`` is."""
        return cls(values)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if self._mean is None:
            self._mean = math.fsum(self.values) / self.n
        return self._mean

    @property
    def mean_sq(self) -> float:
        """The mean of the squared values."""
        if self._mean_sq is None:
            self._mean_sq = math.fsum(
                map(operator.mul, self.values, self.values)) / self.n
        return self._mean_sq


class SplitGrid:
    """Strictly increasing grid b_0 < ... < b_K with segment widths
    alpha_j = b_j - b_{j-1}; decomposes a bounded value into segment
    indicators: x = b_0 + sum_j alpha_j * x_{|j}."""

    __slots__ = ("points", "alphas")

    def __init__(self, points: Sequence[float]):
        pts = tuple(float(p) for p in points)
        if len(pts) < 2:
            raise ValueError("grid needs at least two points (K >= 1)")
        bad = next((p for p in pts if not math.isfinite(p)), None)
        if bad is not None:
            raise ValueError(f"grid points must be finite, got {bad}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        self.points = pts
        self.alphas = tuple(b - a for a, b in zip(pts, pts[1:]))

    @property
    def K(self) -> int:
        return len(self.alphas)

    def segment_column(self, values, j: int) -> np.ndarray:
        """x_{|j} of every value: the float64 array clamp((x - b_{j-1})/alpha_j).

        The clamp is ``min(1.0, max(0.0, v))`` element by element, in place:
        ``np.fmax`` sends NaN to 0.0, and adding 0.0 turns the -0.0 it may
        keep into 0.0, as the builtins give.  Overflow gives inf silently,
        as Python float arithmetic does.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            v = (np.asarray(values, dtype=float) - self.points[j]) / self.alphas[j]
        np.fmin(np.fmax(v, 0.0, out=v), 1.0, out=v)
        return np.add(v, 0.0, out=v)


def hoeffding_radius(n: int, delta: float) -> float:
    """Hoeffding confidence radius sqrt(ln(1/delta) / (2n)) for the mean of
    n iid [0,1]-valued variables."""
    numer = math.log(1.0 / _check_delta(delta))
    return math.sqrt(numer / (2.0 * _check_count(n, "n")))


def hoeffding_mean_bound(p_hat: float, n: int, delta: float) -> BoundResult:
    """One-sided Hoeffding upper bound min(1, p_hat + sqrt(ln(1/delta)/(2n)))
    on the mean of n iid [0,1]-valued variables with empirical mean p_hat."""
    p_hat = _check_unit(p_hat, "p_hat")
    radius = hoeffding_radius(n, delta)
    return BoundResult(min(1.0, p_hat + radius), delta, "hoeffding",
                       {"radius": radius, "p_hat": p_hat, "n": n})


def kl_mean_bound(p_hat: float, n: int, delta: float) -> BoundResult:
    """kl upper bound on a Bernoulli/[0,1] mean: kl inverted from above at
    the budget ln(1/delta)/n."""
    _check_delta(delta)
    _check_count(n, "n")
    eps = math.log(1.0 / delta) / n
    return BoundResult(kl_inverse(p_hat, eps), delta, "kl-direct-upper",
                       {"eps": eps, "p_hat": p_hat, "n": n})


def split_kl_mean_bound(sample: Sample, grid: SplitGrid, delta: float) -> BoundResult:
    """Split-kl upper bound on the mean of a sample with values in [b_0, b_K].

    Decomposes each value into segment components, applies the kl inverse per
    segment with the shared budget ln(K/delta)/n, and reassembles:
    b_0 + sum_j alpha_j * kl_inverse(p_hat_{|j}, ln(K/delta)/n).
    """
    _check_delta(delta)
    if min(sample.values) < grid.points[0] or max(sample.values) > grid.points[-1]:
        raise ValueError("sample values must lie within [b_0, b_K]")
    n = sample.n
    eps = math.log(grid.K / delta) / n
    values = np.array(sample.values)
    segment_means = tuple(math.fsum(grid.segment_column(values, j).tolist()) / n
                          for j in range(grid.K))
    value = _split_kl_sum(grid.points[0], grid.alphas, segment_means, eps)
    return BoundResult(value, delta, "split-kl",
                       {"eps": eps, "segment_means": segment_means,
                        "K": grid.K, "n": n})


def _split_kl_sum(b0: float, alphas: Sequence[float], means: Sequence[float],
                  eps: float) -> float:
    """The split-kl reassembly (Wu & Seldin, 2022), summed left to right;
    shared by the mean and recursive split-kl bounds."""
    value = b0
    for alpha, mean in zip(alphas, means):
        value += alpha * kl_inverse(mean, eps)
    return value


def sample_variance(sample: Sample) -> float:
    """Unbiased variance estimate nu_hat = (1/(n(n-1))) sum_{i<j} (X_i - X_j)^2,
    computed via the O(n) identity (n/(n-1)) (mean of squares - mean^2)."""
    n = sample.n
    if n < 2:
        raise ValueError("variance estimate needs n >= 2")
    p_hat = sample.mean
    s_bar = sample.mean_sq
    return max(0.0, (n / (n - 1.0)) * (s_bar - p_hat * p_hat))


def empirical_bernstein_mean_bound(sample: Sample, delta: float) -> BoundResult:
    """Empirical Bernstein bound:
    p_hat + sqrt(2 nu_hat ln(2/delta)/n) + 7 ln(2/delta)/(3(n-1))."""
    _check_delta(delta)
    n = sample.n
    nu_hat = sample_variance(sample)  # checks n >= 2
    budget = math.log(2.0 / delta)
    value = sample.mean + math.sqrt(2.0 * nu_hat * budget / n) \
        + 7.0 * budget / (3.0 * (n - 1.0))
    return BoundResult(min(1.0, value), delta, "empirical-bernstein",
                       {"nu_hat": nu_hat, "n": n})


def psi(u: float) -> float:
    """psi(u) = u - ln(1 + u), the rate function behind the unexpected
    Bernstein bound (defined for u > -1)."""
    u = _check_range(u, "u", math.nextafter(-1.0, 0.0), _MAX,
                     "finite and > -1")
    return u - math.log1p(u)


def lambda_grid(n: int, delta: float) -> tuple:
    """The decreasing lambdas of the unexpected Bernstein bound: the
    geometric grid (1/2, 1/4, ..., 1/2^k) with
    k = ceil(log2(sqrt(n / ln(1/delta)) / 2)), forced >= 1; its union-bound
    cost is ln(k/delta).  Below delta = 1 / DBL_MAX, 1 / delta overflows and
    the ratio is 0: k = 1."""
    _check_delta(delta)
    _check_count(n, "n")
    ratio = math.sqrt(n / math.log(1.0 / delta)) / 2.0
    k = max(1, math.ceil(math.log2(max(ratio, 1.0))))
    return tuple(0.5 ** i for i in range(1, k + 1))


def unexpected_bernstein_mean_bound(sample: Sample, delta: float) -> BoundResult:
    """Unexpected Bernstein bound: min(1, min over lambda in ``lambda_grid``
    of p_hat + psi(-lambda b)/(lambda b) * s_n/b + ln(k/delta)/(lambda n))
    at the samples' upper end b = 1, where s_n is the mean of squares; the
    ``s_n_over_b`` detail keeps the general name.  The first lambda of the
    least value is taken."""
    n = sample.n
    lambdas = lambda_grid(n, delta)
    s_n = sample.mean_sq
    p_hat = sample.mean
    budget = math.log(len(lambdas) / delta)
    values = [p_hat + psi(-lam) / lam * s_n + budget / (lam * n)
              for lam in lambdas]
    best = min(values)
    return BoundResult(min(1.0, best), delta, "unexpected-bernstein",
                       {"lambda": lambdas[values.index(best)],
                        "k": len(lambdas), "s_n_over_b": s_n, "n": n})

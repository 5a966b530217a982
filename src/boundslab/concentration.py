"""High-confidence bounds on the mean of bounded samples.

Covers the Markov/Chebyshev tails, the Hoeffding radius/sample-size pair, the
kl and split-kl mean bounds, the Bernstein family (plain, empirical,
"unexpected" with a lambda grid), plus exact finite-summation verifiers for
the moment-generating-function lemmas the bounds rest on.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .divergences import (
    _MAX,
    _TINY,
    _check_count,
    _check_delta,
    _check_nonneg,
    _check_range,
    _check_rate,
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
    """A finite sample of finite reals known to be bounded above by
    ``upper_bound`` (and optionally below by ``lower_bound``)."""

    __slots__ = ("values", "upper_bound", "lower_bound", "_mean", "_mean_sq")

    def __init__(self, values: Sequence[float], upper_bound: float,
                 lower_bound: Optional[float] = None):
        vals = tuple(map(float, values))
        if not vals:
            raise ValueError("sample must be nonempty")
        b = float(upper_bound)
        if any(map(math.isnan, vals)) or math.isnan(b):
            raise ValueError("sample values must not be NaN")
        b = _check_range(b, "upper_bound", -_MAX, _MAX, "finite")
        if max(vals) > b:
            raise ValueError(f"sample value {max(vals)} exceeds upper bound {b}")
        if lower_bound is not None:
            lower_bound = _check_range(lower_bound, "lower_bound", -_MAX, _MAX,
                                       "finite")
        lower = -_MAX if lower_bound is None else lower_bound
        if min(vals) < lower:
            raise ValueError(f"sample value {min(vals)} below lower bound {lower}")
        self.values = vals
        self.upper_bound = b
        self.lower_bound = lower_bound
        self._mean = self._mean_sq = None  # computed on first use

    @classmethod
    def unit(cls, values: Sequence[float]) -> "Sample":
        """A sample declared to live in [0, 1]."""
        return cls(values, upper_bound=1.0, lower_bound=0.0)

    @property
    def is_unit_range(self) -> bool:
        return self.lower_bound == 0.0 and self.upper_bound == 1.0

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if self._mean is None:
            self._mean = _mean_of_powers(self.values, 1)
        return self._mean

    @property
    def mean_sq(self) -> float:
        """The mean of the squared values; ``inf`` only when that mean is
        past the float range."""
        if self._mean_sq is None:
            self._mean_sq = _mean_of_powers(self.values, 2)
        return self._mean_sq


def _mean_of_powers(values: tuple, power: int) -> float:
    """The mean of v**power (``power`` 1 or 2) over finite ``values``:
    ``math.fsum`` of the terms over n wherever that sum stays finite, and
    otherwise the same mean over the values scaled by a power of two."""
    n = len(values)
    try:
        mean = math.fsum(values if power == 1
                         else map(operator.mul, values, values)) / n
    except OverflowError:  # a partial sum passed the float range
        mean = math.inf
    if not math.isinf(mean):
        return mean
    # 2**-k keeps n terms below the float range and scales each exactly,
    # save for terms that underflow, far below the sum
    k = n.bit_length() + 512 * (power - 1)
    scaled = [math.ldexp(v, -k) for v in values]
    try:
        return math.ldexp(math.fsum(scaled if power == 1 else map(
            operator.mul, scaled, scaled)) / n, k * power)
    except OverflowError:  # the mean of squares is past the float range
        return math.inf


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

    def segment_values(self, x: float) -> tuple:
        """The per-segment components x_{|j} = clamp((x - b_{j-1})/alpha_j).

        On grid points this reduces to the indicator 1[x >= b_j]; off-grid
        (continuous) values get the fractional clamped form.  Either way
        b_0 + sum_j alpha_j * x_{|j} reconstructs x exactly.
        """
        return tuple(self.segment_column(x, j).item() for j in range(self.K))

    def segment_column(self, values, j: int) -> np.ndarray:
        """x_{|j} of every value: the float64 array clamp((x - b_{j-1})/alpha_j).

        The clamp is ``min(1.0, max(0.0, v))`` element by element, NaN and
        -0.0 going to 0.0 as with the builtins; ``np.maximum`` and
        ``np.fmax`` give -0.0 for -0.0 depending on operand order and array
        length.  Overflow gives inf silently, as Python float arithmetic does.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            v = (np.asarray(values, dtype=float) - self.points[j]) / self.alphas[j]
        v = np.where(v > 0.0, v, 0.0)
        return np.where(v < 1.0, v, 1.0)


class LambdaGrid:
    """A decreasing grid of admissible lambda values for a Bernstein-type
    bound; the union-bound cost of the grid is ln(k/delta)."""

    __slots__ = ("lambdas",)

    def __init__(self, lambdas: Sequence[float]):
        lams = tuple(_check_rate(x, "lambdas") for x in lambdas)
        if not lams:
            raise ValueError("lambda grid must be nonempty")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda grid must be strictly decreasing")
        self.lambdas = lams

    @property
    def k(self) -> int:
        return len(self.lambdas)

    @classmethod
    def default(cls, n: int, delta: float, b: float) -> "LambdaGrid":
        """The geometric grid {1/(2b), 1/(4b), ..., 1/(2^k b)} with
        k = ceil(log2(sqrt(n / ln(1/delta)) / 2)), forced >= 1."""
        _check_delta(delta)
        _check_count(n, "n")
        b = _check_rate(b, "b")
        k = max(1, math.ceil(math.log2(math.sqrt(n / math.log(1.0 / delta)) / 2.0)))
        return cls([0.5 ** i / b for i in range(1, k + 1)])


def markov_chebyshev_tail(kind: str, *, mean: Optional[float] = None,
                          variance: Optional[float] = None,
                          eps: float) -> float:
    """Markov tail E[X]/eps (X >= 0) or Chebyshev tail Var[X]/eps^2, clipped
    to [0, 1] since both bound a probability."""
    eps = _check_rate(eps, "eps")
    if kind == "markov":
        return min(1.0, _check_nonneg(mean, "mean") / eps)
    if kind == "chebyshev":
        return min(1.0, _check_nonneg(variance, "variance") / eps ** 2)
    raise ValueError(f"kind must be 'markov' or 'chebyshev', got {kind!r}")


def _log_sides_over_delta(delta: float, sides: str) -> float:
    """ln(sides/delta) with sides "one" (1) or "two" (2): the Hoeffding budget."""
    _check_delta(delta)
    if sides not in ("one", "two"):
        raise ValueError(f"sides must be 'one' or 'two', got {sides!r}")
    return math.log((1.0 if sides == "one" else 2.0) / delta)


def hoeffding_radius(n: int, delta: float, sides: str = "one") -> float:
    """Hoeffding confidence radius sqrt(ln(sides/delta) / (2n)) for the mean
    of n iid [0,1]-valued variables."""
    numer = _log_sides_over_delta(delta, sides)
    return math.sqrt(numer / (2.0 * _check_count(n, "n")))


def hoeffding_solve_n(eps: float, delta: float, sides: str = "one") -> int:
    """Smallest n whose Hoeffding radius is <= eps: ceil(ln(sides/delta) / (2 eps^2))."""
    numer = _log_sides_over_delta(delta, sides)
    eps = _check_rate(eps, "eps")
    return max(1, math.ceil(numer / (2.0 * eps ** 2)))


def hoeffding_mean_bound(p_hat: float, n: int, delta: float) -> BoundResult:
    """One-sided Hoeffding upper bound min(1, p_hat + sqrt(ln(1/delta)/(2n)))
    on the mean of n iid [0,1]-valued variables with empirical mean p_hat."""
    p_hat = _check_unit(p_hat, "p_hat")
    radius = hoeffding_radius(n, delta, "one")
    return BoundResult(min(1.0, p_hat + radius), delta, "hoeffding",
                       {"radius": radius, "p_hat": p_hat, "n": n})


def kl_mean_bound(p_hat: float, n: int, delta: float, variant: str = "direct",
                  direction: str = "upper") -> BoundResult:
    """kl confidence bound on a Bernoulli/[0,1] mean.

    ``direct`` inverts kl at budget ln(1/delta)/n; ``via_lemma`` at the
    slightly larger ln(2 sqrt(n)/delta)/n that a uniform (two-sided-capable)
    argument costs.
    """
    _check_delta(delta)
    _check_count(n, "n")
    if variant == "direct":
        eps = math.log(1.0 / delta) / n
    elif variant == "via_lemma":
        eps = math.log(2.0 * math.sqrt(n) / delta) / n
    else:
        raise ValueError(f"variant must be 'direct' or 'via_lemma', got {variant!r}")
    value = kl_inverse(p_hat, eps, direction)
    return BoundResult(value, delta, f"kl-{variant}-{direction}",
                       {"eps": eps, "p_hat": p_hat, "n": n})


def split_kl_mean_bound(sample: Sample, grid: SplitGrid, delta: float) -> BoundResult:
    """Split-kl upper bound on the mean of a sample in [b_0, b_K].

    Decomposes each value into segment components, applies the kl inverse per
    segment with the shared budget ln(K/delta)/n, and reassembles:
    b_0 + sum_j alpha_j * kl_inverse(p_hat_{|j}, ln(K/delta)/n, upper).
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
    shared by the mean, PAC-Bayes and recursive split-kl bounds."""
    value = b0
    for alpha, mean in zip(alphas, means):
        value += alpha * kl_inverse(mean, eps, "upper")
    return value


def bernstein_mean_bound(mean_hat: float, nu: float, b: float, n: int,
                         delta: float) -> BoundResult:
    """Bernstein bound mean_hat + sqrt(2 nu ln(1/delta)/n) + b ln(1/delta)/(3n)
    for variables bounded above by b with (known) variance nu."""
    _check_delta(delta)
    mean_hat = _check_range(mean_hat, "mean_hat", -_MAX, _MAX, "finite")
    nu = _check_nonneg(nu, "nu")
    b = _check_rate(b, "b")
    _check_count(n, "n")
    budget = math.log(1.0 / delta)
    value = mean_hat + math.sqrt(2.0 * nu * budget / n) + b * budget / (3.0 * n)
    return BoundResult(value, delta, "bernstein", {"nu": nu, "b": b, "n": n})


def bernstein_duals(x: float, direction: str = "f") -> float:
    """The pair f(x) = 1 + x - sqrt(1 + 2x) and its inverse
    f_inv(x) = x + sqrt(2x), both on x >= 0."""
    x = _check_nonneg(x, "x")
    if direction == "f":
        return 1.0 + x - math.sqrt(1.0 + 2.0 * x)
    if direction == "f_inv":
        return x + math.sqrt(2.0 * x)
    raise ValueError(f"direction must be 'f' or 'f_inv', got {direction!r}")


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
    """Empirical Bernstein bound for a [0,1]-valued sample:
    p_hat + sqrt(2 nu_hat ln(2/delta)/n) + 7 ln(2/delta)/(3(n-1))."""
    _check_delta(delta)
    if not sample.is_unit_range:
        raise ValueError("empirical Bernstein expects a [0,1]-valued sample")
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


def unexpected_bernstein_mean_bound(sample: Sample, delta: float,
                                    grid: Optional[LambdaGrid] = None) -> BoundResult:
    """Unexpected Bernstein bound: min over lambda in the grid of
    p_hat + psi(-lambda b)/(lambda b^2) * s_n + ln(k/delta)/(lambda n),
    where s_n is the mean of squares and b the sample's upper bound."""
    _check_delta(delta)
    b = _check_rate(sample.upper_bound, "upper bound b")
    n = sample.n
    if grid is None:
        grid = LambdaGrid.default(n, delta, b)
    if max(grid.lambdas) >= 1.0 / b:
        raise ValueError("every lambda must be < 1/b")
    s_n = sample.mean_sq
    p_hat = sample.mean
    budget = math.log(grid.k / delta)
    best_value = math.inf
    best_lambda = grid.lambdas[0]
    for lam in grid.lambdas:
        value = p_hat + psi(-lam * b) / (lam * b * b) * s_n + budget / (lam * n)
        if value < best_value:
            best_value = value
            best_lambda = lam
    if sample.is_unit_range:
        best_value = min(1.0, best_value)
    return BoundResult(best_value, delta, "unexpected-bernstein",
                       {"lambda": best_lambda, "k": grid.k, "s_n": s_n, "n": n})


def kl_mgf_exact(n: int, p: float) -> float:
    """Exact E[e^{n kl(p_hat || p)}] for p_hat the mean of n Bernoulli(p)
    draws, by finite summation in log space.

    The summand C(n,k) p^k (1-p)^{n-k} e^{n kl(k/n||p)} simplifies to
    C(n,k) (k/n)^k ((n-k)/n)^{n-k}, so the value is p-free for p in (0,1);
    at p in {0,1} the expectation is trivially 1.
    """
    n = int(_check_count(n, "n"))
    p = _check_unit(p, "p")
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


def mgf_lemma_check(values: Sequence[float], probs: Sequence[float],
                    lam: float, lemma: str) -> tuple:
    """Exactly evaluate both sides of a moment-generating-function lemma on a
    finite support; returns (lhs, rhs) with the contract lhs <= rhs.

    hoeffding:   E[e^{lam Z}]  vs  e^{lam mu + lam^2 (b-a)^2 / 8}
    bernstein:   E[e^{lam Z}] (mean-zero Z <= b, lam in (0, 3/b))
                 vs  exp(lam^2 nu / (2 (1 - lam b / 3)))
    unexpected:  E[e^{lam (mu - Z) + ((b lam + ln(1 - b lam)) / b^2) Z^2}]
                 (Z <= b, lam in [0, 1/b))  vs  1
    """
    vals = [_check_range(v, "values", -_MAX, _MAX, "finite") for v in values]
    ps = [_check_unit(q, "probs") for q in probs]
    if len(vals) != len(ps) or not vals:
        raise ValueError("values and probs must be nonempty and equal length")
    if abs(math.fsum(ps) - 1.0) > 1e-9:
        raise ValueError("probs must be a probability vector")
    lam = _check_range(lam, "lam", -_MAX, _MAX, "finite")
    mu = math.fsum(v * q for v, q in zip(vals, ps))

    if lemma == "hoeffding":
        a, b = min(vals), max(vals)
        lhs = math.fsum(q * math.exp(lam * v) for v, q in zip(vals, ps))
        rhs = math.exp(lam * mu + lam * lam * (b - a) ** 2 / 8.0)
        return lhs, rhs

    if lemma == "bernstein":
        b = max(vals)
        if abs(mu) > 1e-9:
            raise ValueError("bernstein lemma requires a mean-zero variable")
        _check_rate(b, "b = max(values)")
        _check_range(lam, "lam", _TINY, math.nextafter(3.0 / b, 0.0), "in (0, 3/b)")
        nu = math.fsum(q * v * v for v, q in zip(vals, ps))
        lhs = math.fsum(q * math.exp(lam * v) for v, q in zip(vals, ps))
        exponent = lam * lam * nu / (2.0 * (1.0 - lam * b / 3.0))
        rhs = math.exp(exponent) if exponent < 700 else math.inf
        return lhs, rhs

    if lemma == "unexpected":
        b = max(vals)
        _check_rate(b, "b = max(values)")
        _check_range(lam, "lam", 0.0, math.nextafter(1.0 / b, 0.0), "in [0, 1/b)")
        coeff = (b * lam + math.log1p(-b * lam)) / (b * b)
        lhs = math.fsum(
            q * math.exp(lam * (mu - v) + coeff * v * v) for v, q in zip(vals, ps))
        return lhs, 1.0

    raise ValueError(
        f"lemma must be 'hoeffding', 'bernstein' or 'unexpected', got {lemma!r}")

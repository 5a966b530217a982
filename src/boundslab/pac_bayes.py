"""Generalization bounds over finite hypothesis classes and their minimization.

Hypotheses are represented purely by loss/prediction tables, so every quantity
in a bound is exactly computable.  Covers the PAC-Bayes-kl inequality and the
PAC-Bayes-lambda upper bound, the tandem-loss and disagreement tables of a
weighted majority vote, posterior construction by alternating minimization,
and the recursive (stage-wise) bound built on excess losses with the split-kl
form.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concentration import BoundResult, SplitGrid, _split_kl_sum
from .divergences import (
    _TINY,
    ProbVec,
    _check_count,
    _check_delta,
    _check_nonneg,
    _check_range,
    _check_unit,
    categorical_kl,
    kl_inverse,
)

# lam of the lambda-form upper bounds lies in (0, 2)
_BELOW_TWO = math.nextafter(2.0, 0.0)
# the alternating minimiser's relative tolerance and update cap
REL_TOL, MAX_ITER = 1e-9, 1000


class LossTable:
    """An m x n matrix of per-hypothesis, per-example losses in [0, 1].

    Optionally carries a matching matrix of binary predictions (+-1), from
    which the tandem losses and disagreements of a majority vote are read.
    """

    def __init__(self, losses, predictions=None):
        self.losses = np.asarray(losses, dtype=float)
        if self.losses.ndim != 2:
            raise ValueError("losses must be a 2-D matrix")
        if np.isnan(self.losses).any():
            raise ValueError("losses must not contain NaN")
        if self.losses.min() < 0.0 or self.losses.max() > 1.0:
            raise ValueError("losses must lie in [0, 1]")
        self.predictions = None
        if predictions is not None:
            preds = np.asarray(predictions)
            if preds.shape != self.losses.shape:
                raise ValueError("predictions shape must match losses")
            if not np.isin(preds, (-1, 1)).all():
                raise ValueError("predictions must be +-1")
            self.predictions = preds.astype(int)

    @property
    def m(self) -> int:
        return self.losses.shape[0]

    @property
    def n(self) -> int:
        return self.losses.shape[1]

    def emp_losses(self) -> np.ndarray:
        """Per-hypothesis empirical loss: the row means."""
        return self.losses.mean(axis=1)

    def tandem_losses(self) -> np.ndarray:
        """m x m matrix of empirical tandem losses: the rate at which both
        hypotheses err on the same example."""
        if self.predictions is None:
            raise ValueError("tandem losses need a prediction table")
        err = self.losses
        if not np.isin(err, (0.0, 1.0)).all():
            raise ValueError("tandem losses are defined for zero-one losses")
        # both-err counts are exact integers, each divided once, as a mean is
        return err @ err.T / self.n

    def disagreements(self) -> np.ndarray:
        """m x m matrix of empirical disagreement rates between predictions."""
        if self.predictions is None:
            raise ValueError("disagreements need a prediction table")
        agree = self.predictions @ self.predictions.T  # in [-n, n]
        return (self.n - agree) / (2.0 * self.n)


@dataclass(frozen=True)
class PacBayesQuery:
    """Posterior, prior, sample size and confidence for one bound evaluation."""

    rho: ProbVec
    pi: ProbVec
    n: int
    delta: float

    def __post_init__(self):
        if len(self.rho) != len(self.pi):
            raise ValueError("rho and pi must have equal length")
        _check_delta(self.delta)
        _check_count(self.n, "n")

    @property
    def kl_term(self) -> float:
        return categorical_kl(self.rho, self.pi)


def pb_kl_bound(q: PacBayesQuery, emp_loss: float) -> BoundResult:
    """PAC-Bayes-kl upper bound:
    kl_inverse(emp_loss, (KL(rho||pi) + ln(2 sqrt(n)/delta)) / n)."""
    emp_loss = _check_unit(emp_loss, "emp_loss")
    kl_term = q.kl_term
    if math.isinf(kl_term):
        return BoundResult(1.0, q.delta, "pb-kl", {"kl": kl_term})
    eps = (kl_term + math.log(2.0 * math.sqrt(q.n) / q.delta)) / q.n
    value = kl_inverse(emp_loss, eps)
    return BoundResult(value, q.delta, "pb-kl",
                       {"kl": kl_term, "eps": eps, "emp_loss": emp_loss})


def pb_lambda_bound(q: PacBayesQuery, emp_loss: float, *,
                    lam: float) -> BoundResult:
    """PAC-Bayes-lambda upper bound, for lam in (0, 2):

        emp/(1 - lam/2) + (KL + ln(2 sqrt(n)/delta)) / (lam (1 - lam/2) n)

    The value may exceed 1 (vacuous but valid); it is returned raw.
    """
    emp_loss = _check_unit(emp_loss, "emp_loss")
    lam = _check_range(lam, "lam", _TINY, _BELOW_TWO, "in (0, 2)")
    kl_term = q.kl_term
    complexity = kl_term + math.log(2.0 * math.sqrt(q.n) / q.delta)
    return BoundResult(_lambda_upper(emp_loss, complexity, lam, q.n), q.delta,
                       "pb-lambda-upper", {"kl": kl_term, "lambda": lam})


def _lambda_upper(emp: float, complexity: float, lam: float, n: int) -> float:
    """The PAC-Bayes-lambda upper form, shared by every lambda-form bound."""
    return emp / (1.0 - lam / 2.0) + complexity / (lam * (1.0 - lam / 2.0) * n)


def gibbs_posterior(pi: ProbVec, losses: Sequence[float], scale: float) -> ProbVec:
    """The distribution rho(h) proportional to pi(h) e^{-scale * loss(h)},
    computed with subtract-min stabilization; the exact minimizer of
    scale * E_rho[loss] + KL(rho || pi)."""
    scale = _check_nonneg(scale, "scale")
    ls = np.asarray(list(losses), dtype=float)
    if len(ls) != len(pi):
        raise ValueError("losses length must match pi")
    weights = np.asarray(pi.weights) * np.exp(-scale * (ls - ls.min()))
    return ProbVec(weights / weights.sum())


def _optimal_lambda_raw(emp_loss: float, complexity: float, n: int) -> float:
    """The lam minimizing ``_lambda_upper``, in (0, 1]: 2 / (sqrt(2 n emp /
    complexity + 1) + 1), with complexity = KL + ln(2 sqrt(n)/delta)."""
    return 2.0 / (math.sqrt(2.0 * n * emp_loss / complexity + 1.0) + 1.0)


def _rho_mean(rho: ProbVec, values: np.ndarray) -> float:
    """E_rho[values]: ``math.fsum`` of the products rho(h) * values[h], so
    the double does not depend on the summation order of the BLAS kernel
    the CPU selects, as ``np.dot``'s does."""
    return math.fsum(map(operator.mul, rho.weights, values.tolist()))


@dataclass(frozen=True)
class MinimizationResult:
    rho: ProbVec
    lam: float
    bound: float
    trace: tuple


def _alternating_minimize_core(pi: ProbVec, losses: np.ndarray, n_eff: int,
                               complexity: float) -> MinimizationResult:
    """Alternate the closed-form Gibbs and lambda updates, at most MAX_ITER
    times, until the bound's relative decrease falls below REL_TOL.
    ``complexity`` is the log confidence budget added to KL(rho||pi)."""
    rho = pi
    trace = []
    emp = _rho_mean(rho, losses)
    lam = _optimal_lambda_raw(emp, complexity, n_eff)
    bound = _lambda_upper(emp, complexity, lam, n_eff)
    trace.append(bound)
    for _ in range(MAX_ITER):
        rho = gibbs_posterior(pi, losses, scale=lam * n_eff)
        emp = _rho_mean(rho, losses)
        kl_term = categorical_kl(rho, pi)
        lam = _optimal_lambda_raw(emp, kl_term + complexity, n_eff)
        new_bound = _lambda_upper(emp, kl_term + complexity, lam, n_eff)
        trace.append(new_bound)
        # inf - inf is NaN, which fails the test: an infinite bound stops here
        if (new_bound == math.inf
                or bound - new_bound < REL_TOL * max(bound, 1e-300)):
            bound = min(bound, new_bound)
            break
        bound = new_bound
    return MinimizationResult(rho, lam, bound, tuple(trace))


def alternating_minimize(pi: ProbVec, table: LossTable,
                         delta: float) -> MinimizationResult:
    """Minimize the PAC-Bayes-lambda upper bound over (rho, lambda), on the
    table's full-sample losses with denominator n."""
    _check_delta(delta)
    if len(pi) != table.m:
        raise ValueError("pi length must match the number of hypotheses")
    complexity = math.log(2.0 * math.sqrt(table.n) / delta)
    return _alternating_minimize_core(pi, table.emp_losses(), table.n,
                                      complexity)


def geometric_split(n: int, T: int) -> list:
    """Split n into stage sizes [n_1, ..., n_T] with |S_T| = ceil(n/2),
    |S_{T-1}| = ceil(remaining/2), ..., and the remainder going to S_1."""
    _check_count(T, "T")
    _check_count(n, "n", 2 ** (T - 1))
    sizes = []
    remaining = n
    for _ in range(T - 1):
        s = math.ceil(remaining / 2)
        sizes.append(s)
        remaining -= s
    sizes.append(remaining)
    sizes.reverse()
    return sizes


@dataclass(frozen=True)
class RecursiveStage:
    """Per-stage record of the recursive bound computation.  Stage 1 is the
    gamma_t = 0 stage: its excess bound is its bound, on the levels (0, 1)."""

    t: int
    n_t: int
    n_val: int
    gamma_t: float
    pi_star: ProbVec
    levels: tuple
    excess_bound: float
    bound: float


def recursive_pb(table: LossTable, delta: float, T: int,
                 seed: int = 0) -> list:
    """Stage-wise recursive bound on E_{pi_T*}[L(h)] from the uniform prior.

    The sample is split geometrically into S_1..S_T (column order).  Every
    stage runs one body: stage t draws one reference hypothesis per
    validation example (S_t..S_T) from pi_{t-1}* (stage-scoped seeded
    stream; none when gamma_t = 0), forms the excess losses
    f = loss(h) - gamma_t loss(h') in [-gamma_t, 1] of losses in [0, 1],
    trains pi_t* on the S_t portion, and certifies E_t with the split-kl
    form, decomposing f by the ``SplitGrid`` on -gamma_t, 0, 1 - gamma_t, 1,
    and B_t = E_t + gamma_t B_{t-1}, from B_0 = 0.  Stage 1 is the
    gamma_1 = 0 stage: f is the loss on the one segment [0, 1], so
    B_1 = E_1 is the PAC-Bayes-kl bound on all of S; every later stage
    takes gamma_t = 1/2.  The budget is ln(2 T sqrt(n)/delta) at stage 1
    and ln(6 T sqrt(n_val)/delta) after it.  Returns one BoundResult per
    stage, each carrying its RecursiveStage record.
    """
    _check_delta(delta)
    m, n = table.m, table.n
    sizes = geometric_split(n, T)
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    pi_prev = ProbVec([1.0 / m] * m)
    seed_seq = np.random.SeedSequence(_check_count(seed, "seed", 0))
    stage_seeds = seed_seq.spawn(T)
    losses = table.losses

    results = []
    bound = 0.0
    for t in range(1, T + 1):
        # stage 1 has no reference: its excess loss is the loss
        gamma, budget = (0.5, 6.0) if t > 1 else (0.0, 2.0)
        start, end = starts[t - 1], starts[t]
        n_t = end - start
        n_val = n - start
        # excess losses f[h, i] = loss(h, i) - gamma * loss(h'_i, i)
        excess = losses[:, start:]
        if gamma:
            rng = np.random.default_rng(stage_seeds[t - 1])
            draws = rng.choice(m, size=n_val, p=np.asarray(pi_prev.weights))
            excess = excess - gamma * losses[draws, np.arange(start, n)]
        # stage 1's zero-width segment is dropped with its level; 0.0 - gamma
        # is 0.0 at gamma = 0, where -gamma is -0.0
        grid = SplitGrid(dict.fromkeys((0.0 - gamma, 0.0, 1.0 - gamma, 1.0)))

        complexity = math.log(budget * T * math.sqrt(n_val) / delta)
        # construct pi_t* on the S_t portion via the [0,1]-rescaled
        # lambda surrogate, with the evaluation denominator n_val
        const_losses = (excess[:, :n_t].mean(axis=1) + gamma) / (1.0 + gamma)
        pi_star = _alternating_minimize_core(pi_prev, const_losses, n_val,
                                             complexity).rho

        kl_term = categorical_kl(pi_star, pi_prev)
        eps = (kl_term + complexity) / n_val
        # a rho-weighted mean of [0, 1] values can round above 1
        seg_means = [min(1.0, max(0.0, _rho_mean(
            pi_star, grid.segment_column(excess, j).mean(axis=1))))
            for j in range(grid.K)]
        excess_bound = _split_kl_sum(grid.points[0], grid.alphas, seg_means,
                                     eps)
        bound = excess_bound + gamma * bound
        stage = RecursiveStage(t, n_t, n_val, gamma, pi_star, grid.points,
                               excess_bound, bound)
        results.append(BoundResult(bound, delta, "recursive-pb",
                                   {"stage": stage}))
        pi_prev = pi_star
    return results

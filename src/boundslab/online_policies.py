"""Online decision rules for repeated games against losses in [0, 1].

Module-level functions give the closed-form pieces (learning rates,
schedules, the FTL choice, arm draws, and ``_hedge_weights``, the unchecked
exponential-weights kernel of every Hedge round); the policy classes wrap
them into stateful players for the game loops in
:mod:`boundslab.environments`.  Everything is deterministic given the
caller-supplied random stream; ties always break toward the lowest index.

The bandit policies that ``play_bandit`` plays (EXP3, EXP4, ``UCB1Batch``)
hold R independent rows, the R repetitions of a series, with the state in
(R, K) arrays, or (R, N) for EXP4's N experts: ``act_rows`` gives the arms
of every row's next round and ``update_rows`` takes their losses.  EXP3 and
EXP4 take their exponential weights from one row kernel,
``_exp_weights_rows``, and so does full information: a Hedge whose rate
holds over a period plays a block of rounds as rows, one row per round
(``HedgePolicy.play_rows``).  A row does the float operations of its scalar
counterpart in the same order: exponentials go through ``math.exp``
(``np.exp`` rounds differently), ``ProbVec`` totals through ``math.fsum``
(or one add for two arms, the same double), and at most one ``math.log``
is taken per round.  ``np.sqrt``, division and left-to-right
``np.add.accumulate`` round exactly like their scalar counterparts, and
``np.argmax`` breaks ties toward the lowest index.  UCB1 is the one policy
with a second, scalar implementation (see ``UCB1Batch``).
"""
from __future__ import annotations

import functools
import math
import operator
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from boundslab.divergences import (
    NORMALIZATION_TOL,
    ProbVec,
    _check_count,
    _check_range,
    _check_rate,
    _raise_first_bad_weight,
)

HEDGE_ETA_VARIANTS = ("simple", "tight", "anytime_tight")
UCB1_PARAMETRIZATIONS = ("original", "improved")


def _hedge_weights(losses: Sequence[float], eta: float) -> ProbVec:
    """Exponential-weights distribution p(a) ∝ exp(-eta * L(a)) of a
    nonempty list or tuple of finite cumulative losses, at a rate the
    caller knows to be positive and finite.  The minimum loss is subtracted
    first, which keeps every exponent at or below 0 and makes the output
    invariant under shifting all losses by a constant."""
    low = min(losses)
    weights = [math.exp(-eta * (v - low)) for v in losses]
    # a left-to-right sum, which ``np.add.accumulate`` reproduces; the
    # built-in ``sum`` compensates rounding error from Python 3.12 on
    total = functools.reduce(operator.add, weights)
    return ProbVec(map(operator.truediv, weights, repeat(total)))


def hedge_eta(K: int, *, T: int | None = None, t: int | None = None,
              variant: str = "simple") -> float:
    """Learning rate for Hedge: fixed-horizon ("simple", "tight", which
    need ``T``) or the anytime 2 sqrt(ln K / t) of round ``t``
    ("anytime_tight")."""
    _check_count(K, "K", 2)
    if variant not in HEDGE_ETA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    log_k = math.log(K)
    if variant == "anytime_tight":
        return _anytime_eta(log_k, _check_count(t, "t"))
    base = math.sqrt(2.0 * log_k / _check_count(T, "T"))
    return base if variant == "simple" else 2.0 * base


def _anytime_eta(log_k: float, t: int) -> float:
    """The anytime Hedge rate at round t from log K: 2 sqrt(ln K / t)."""
    return 2.0 * math.sqrt(log_k / t)


def ftl_choice(cum_losses: Sequence[float]) -> int:
    """Follow-the-leader: the arm with the smallest cumulative loss so far,
    lowest index on ties."""
    if len(cum_losses) == 0:
        raise ValueError("cum_losses must be nonempty")
    best, best_val = 0, float(cum_losses[0])
    for a in range(1, len(cum_losses)):
        if float(cum_losses[a]) < best_val:
            best, best_val = a, float(cum_losses[a])
    return best


def doubling_schedule(t: int, K: int) -> tuple[int, float]:
    """Doubling-trick period index and per-period Hedge rate of round t.

    Period m covers rounds [2^m, 2^{m+1}); the rate is the tight fixed-horizon
    rate for horizon 2^m, and the losses restart at each period's first round.
    """
    _check_count(t, "t")
    _check_count(K, "K", 2)
    m = t.bit_length() - 1
    return m, math.sqrt(8.0 * math.log(K) / float(2 ** m))


def sample_arm(dist: Sequence[float], u: float) -> int:
    """Inverse-CDF draw from a distribution over arm indexes with a single
    uniform ``u`` in [0, 1): the first arm whose running sum of the weights,
    one left-to-right ``accumulate``, exceeds u, else the last arm.  The
    weights are summed as given, so pass floats (a ``ProbVec`` holds
    floats)."""
    a = 0  # counted by hand: ``enumerate`` adds an iterator to every draw
    for cum in accumulate(dist):
        if u < cum:
            return a
        a += 1
    return len(dist) - 1


def sample_arms(dists: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sample_arm`` for each row of an (R, K) array of distributions, with
    one uniform per row: the first arm whose running sum exceeds u, else the
    last arm."""
    cum = np.add.accumulate(dists, axis=1)
    cum[:, -1] = np.inf
    return (u[:, None] < cum).argmax(axis=1)


def _as_probvec_rows(p: np.ndarray) -> np.ndarray:
    """What ``ProbVec`` does to each row of nonnegative cells: check the row
    sums to one within ``NORMALIZATION_TOL`` and divide it by its
    ``math.fsum``.  A two-arm row's total is one numpy add, as ``fsum``
    returns the correctly rounded sum, which for two doubles is their IEEE
    sum, and every such total is checked in one comparison.  Wider rows take
    ``fsum`` and the check one Python float at a time.  A NaN or overflowing
    total fails the check."""
    if p.shape[1] == 2:
        totals = p[:, 0] + p[:, 1]
        # np.maximum keeps a NaN; ``initial`` lets a block of no rows pass
        if not (np.maximum.reduce(abs(totals - 1.0), initial=0.0)
                <= NORMALIZATION_TOL):
            _check_totals(totals.tolist())
        return p / totals[:, None]
    try:
        totals = list(map(math.fsum, p.tolist()))
    except OverflowError:  # fsum raises where a sum overflows: name the row
        totals = list(map(_fsum_or_inf, p.tolist()))
    _check_totals(totals)
    return p / np.array(totals)[:, None]


def _fsum_or_inf(row: list[float]) -> float:
    """``math.fsum`` of nonnegative cells, or inf where it would overflow."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _check_totals(totals: list[float]) -> None:
    """Raise for the first row total off one by more than
    ``NORMALIZATION_TOL``, or NaN, naming its row."""
    for total in totals:
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"row {totals.index(total)}: weights sum to "
                             f"{total}, not 1")


def _exp_weights_rows(losses: np.ndarray, eta: float,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``_hedge_weights`` of each row of an (R, K) array of losses, before
    its division: the weights exp(-eta (L - min L)), one ``math.exp`` per
    cell, and each row's left-to-right total, as an (R, 1) array."""
    x = losses - np.minimum.reduce(losses, axis=1, keepdims=True)
    x *= -eta
    weights = np.fromiter(map(math.exp, x.ravel().tolist()), float,
                          x.size).reshape(x.shape)
    return weights, np.add.accumulate(weights, axis=1)[:, -1:]


class HedgePolicy:
    """Full-information exponential weights with a pluggable rate schedule.

    ``variant`` picks the rate: "simple"/"tight" need a horizon ``T``;
    "anytime_tight" uses the running round; ``doubling`` restarts a tight
    fixed-horizon rate on periods of doubling length, whatever the variant.

    Every argument is checked here, so a round runs no checks: a fixed rate
    is taken once, an anytime rate once per round and a doubling rate once
    per period, when the round before its first ends and resets the losses.
    A rate that holds over a period (``fixed_rate``) can play a block of
    that period's rounds at once, with ``play_rows``.
    """

    draws = True

    def __init__(self, K: int, *, variant: str = "anytime_tight",
                 T: int | None = None, doubling: bool = False) -> None:
        _check_count(K, "K", 2)
        if variant not in HEDGE_ETA_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if T is not None:  # checked whether or not the rate reads it
            _check_count(T, "T")
        # a rate that holds for more than one round: fixed-horizon or the
        # current doubling period's; None for an anytime rate
        if doubling:
            self._rate = doubling_schedule(1, K)[1]
        else:
            # validate the schedule eagerly so config errors surface early
            first = hedge_eta(K, T=T, t=1, variant=variant)
            self._rate = None if variant == "anytime_tight" else first
        self._log_k = math.log(K)
        self.K = K
        self.cum_losses = [0.0] * K
        self.t = 0  # completed rounds
        # the completed rounds at which the next doubling period starts: its
        # first round is 2**m, counted from 1; none without doubling
        self.period_end = 1 if doubling else math.inf

    @property
    def fixed_rate(self) -> bool:
        """Whether the rate holds over a period: a fixed-horizon or
        doubling rate, not an anytime one."""
        return self._rate is not None

    def distribution(self) -> ProbVec:
        eta = self._rate
        if eta is None:
            eta = _anytime_eta(self._log_k, self.t + 1)
        return _hedge_weights(self.cum_losses, eta)

    def act(self, u: float) -> int:
        """The arm of the next round, drawn with the uniform ``u``."""
        return sample_arm(self.distribution(), u)

    def observe(self, losses: Sequence[float]) -> None:
        """Consume the full loss column (floats) of the current round."""
        if len(losses) != self.K:
            raise ValueError("loss column has wrong length")
        self._advance(list(map(operator.add, self.cum_losses, losses)), 1)

    def play_rows(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The arms of the next n rounds at a fixed rate, drawn with one
        uniform each, for the (n, K) array of their loss rows; the policy is
        left as n ``act`` and ``observe`` calls leave it.  The rounds must
        lie in one period: n is at most ``period_end - t``.

        The losses before each round are one left-to-right
        ``np.add.accumulate`` from ``cum_losses``, and each round's
        ``distribution`` is a row of ``_exp_weights_rows`` divided by its
        total and by ``_as_probvec_rows``, which ``sample_arms`` draws from.
        """
        if self._rate is None:
            raise ValueError("an anytime rate plays one round at a time")
        if rows.shape[1] != self.K:
            raise ValueError("loss column has wrong length")
        if len(rows) > self.period_end - self.t:
            raise ValueError(f"{len(rows)} rounds from round {self.t} cross "
                             f"the period start at round {self.period_end}")
        cum = np.add.accumulate(np.vstack((self.cum_losses, rows)))
        weights, totals = _exp_weights_rows(cum[:-1], self._rate)
        arms = sample_arms(_as_probvec_rows(weights / totals), u)
        self._advance(cum[-1].tolist(), len(rows))
        return arms

    def _advance(self, cum_losses: list[float], rounds: int) -> None:
        """End ``rounds`` rounds that leave ``cum_losses``; when the next
        round starts a doubling period, take its rate and reset the losses."""
        self.cum_losses = cum_losses
        self.t += rounds
        if self.t >= self.period_end:
            m, self._rate = doubling_schedule(self.t + 1, self.K)
            self.cum_losses = [0.0] * self.K
            self.period_end = 2 ** (m + 1) - 1


class FTLPolicy:
    """Deterministic follow-the-leader over full-information feedback."""

    draws = False

    def __init__(self, K: int) -> None:
        self.K = _check_count(K, "K")
        self.cum_losses = [0.0] * K
        self.t = 0

    def act(self, u=None) -> int:
        return ftl_choice(self.cum_losses)

    def observe(self, losses: Sequence[float]) -> None:
        if len(losses) != self.K:
            raise ValueError("loss column has wrong length")
        self.cum_losses = list(map(operator.add, self.cum_losses, losses))
        self.t += 1


class EXP3Policy:
    """Bandit exponential weights over R independent rows: Hedge on
    importance-weighted loss estimates (Auer et al., 2002), at the anytime
    rate sqrt(ln K / (t K)) of round t, counted from 1.

    ``act`` and ``update_reward`` are the one-round contract of the offline
    replays, on a policy of one row, which feeds a reward in [0,
    ``reward_range``] as the loss (range - reward) / range.
    """

    draws = True

    def __init__(self, K: int, *, R: int = 1,
                 reward_range: float = 1.0) -> None:
        _check_count(K, "K", 2)
        self.K = K
        self.reward_range = _check_rate(reward_range, "reward_range")
        self._log_k = math.log(K)
        self.R = _check_count(R, "R")
        self.offsets = np.arange(R) * K  # row starts, flat
        self.estimates = np.zeros((R, K))  # importance-weighted losses
        self.t = 0  # completed rounds
        self.p = None  # this round's distributions, set by act_rows

    def distributions(self) -> np.ndarray:
        """The (R, K) playing distributions of the next round."""
        eta = math.sqrt(self._log_k / ((self.t + 1) * self.K))
        weights, totals = _exp_weights_rows(self.estimates, eta)
        return _as_probvec_rows(weights / totals)

    def act_rows(self, u: np.ndarray) -> np.ndarray:
        """The arm of every row, drawn with one uniform per row."""
        self.p = self.distributions()
        return sample_arms(self.p, u)

    def update_rows(self, arms: np.ndarray, losses: np.ndarray) -> None:
        """Consume the bandit loss of the arm each row played this round."""
        if self.p is None:
            raise ValueError("update_rows() requires a preceding act_rows()")
        cells = self.offsets + arms
        p_arm = self.p.ravel()[cells]
        if not np.minimum.reduce(p_arm) > 0.0:
            raise ValueError("cannot importance-weight a zero-probability arm")
        self.estimates.ravel()[cells] += losses / p_arm
        self.t += 1
        self.p = None

    def _one_row(self) -> None:
        if self.R != 1:
            raise ValueError(f"act/update_reward play one row, the policy "
                             f"has R={self.R}")

    def act(self, rng) -> int:
        self._one_row()
        return int(self.act_rows(np.array([rng.random()]))[0])

    def update_reward(self, arm: int, reward: float) -> None:
        self._one_row()
        _check_count(arm, "arm", 0, self.K)
        span = self.reward_range
        reward = _check_range(reward, "reward", 0.0, span, f"in [0, {span:g}]")
        self.update_rows(np.array([arm]), np.array([(span - reward) / span]))


class EXP4Policy:
    """Exponential weights over experts whose advice mixes into an arm
    distribution, over R independent rows, at the rate sqrt(2 ln N / (K T))
    of N experts over a horizon of T rounds.  ``advice(t)`` gives round t's
    (n_experts, K) advice, one distribution over the arms per expert, for
    every row.  A row plays p(a) = sum_h w(h) q_h(a) and charges expert h
    q_h(a) l / p(a) for the loss l of the played arm a.
    """

    draws = True

    def __init__(self, n_experts: int, K: int, advice, *, T: int,
                 R: int = 1) -> None:
        # ln 1 = 0: one expert would derive the rate 0
        _check_count(n_experts, "n_experts", 2)
        _check_count(K, "K", 2)
        self.eta = math.sqrt(2.0 * math.log(n_experts)
                             / (K * _check_count(T, "T")))
        self.n_experts = n_experts
        self.K = K
        self.R = _check_count(R, "R")
        self.advice = advice
        self.offsets = np.arange(R) * K  # row starts, flat
        self.estimates = np.zeros((R, n_experts))  # expert losses
        self.t = 0  # completed rounds
        self.p = self.q = None  # this round's mixtures and advice

    def act_rows(self, u: np.ndarray) -> np.ndarray:
        """The arm of every row, drawn with one uniform per row.  The advice
        is checked and divided row by row as ``ProbVec`` does it, but every
        NaN or negative entry is checked for before any row sum."""
        q = np.asarray(self.advice(self.t), dtype=float)
        if q.shape != (self.n_experts, self.K):
            raise ValueError(f"advice must have shape ({self.n_experts}, "
                             f"{self.K}), got {q.shape}")
        if not np.minimum.reduce(q, axis=None) >= 0.0:  # np.minimum keeps NaN
            _raise_first_bad_weight(q.ravel().tolist())
        self.q = q = _as_probvec_rows(q)
        weights, totals = _exp_weights_rows(self.estimates, self.eta)
        w = _as_probvec_rows(weights / totals)
        # summed over the experts in index order, then over the arms
        mixture = np.add.accumulate(w[:, :, None] * q, axis=1)[:, -1]
        totals = np.add.accumulate(mixture, axis=1)[:, -1:]
        self.p = _as_probvec_rows(mixture / totals)
        return sample_arms(self.p, u)

    def update_rows(self, arms: np.ndarray, losses: np.ndarray) -> None:
        """Consume the bandit loss of the arm each row played this round."""
        if self.p is None:
            raise ValueError("update_rows() requires a preceding act_rows()")
        p_arm = self.p.ravel()[self.offsets + arms]
        if not np.minimum.reduce(p_arm) > 0.0:
            raise ValueError("cannot importance-weight a zero-probability arm")
        self.estimates += self.q[:, arms].T * (losses / p_arm)[:, None]
        self.t += 1
        self.p = self.q = None


def _check_ucb1(K: int, parametrization: str) -> float:
    """UCB1's radius scale: round t takes radius sqrt(c / N), c = scale * ln t.
    Doubling is exact, so 1.5 ln t / N ("original") rounds as 3 ln t / (2 N)
    for every N below 2**1023; 1.0 * x ("improved") is x."""
    _check_count(K, "K")
    if parametrization not in UCB1_PARAMETRIZATIONS:
        raise ValueError(f"unknown parametrization {parametrization!r}")
    return 1.5 if parametrization == "original" else 1.0


class UCB1Policy:
    """Deterministic optimism for stochastic bandits.

    Plays each arm once in ascending index order, then the arm with the
    largest confidence index (mean plus radius), ties to the lowest index.
    ``act`` and ``update_reward`` are the replays' one-round contract;
    ``reward_range`` rescales the radius for rewards in [0, range], as
    importance-weighted replay needs.
    """

    draws = False

    def __init__(self, K: int, *, parametrization: str,
                 reward_range: float = 1.0) -> None:
        self.scale = _check_ucb1(K, parametrization)
        self.K = K
        self.reward_range = _check_rate(reward_range, "reward_range")
        self.counts = [0] * K
        self.sums = [0.0] * K
        self.t = 0

    def act(self, rng=None) -> int:
        t = self.t
        if t < self.K:
            return t  # forced initialization pass
        c = self.scale * math.log(t + 1)
        reward_range, sqrt = self.reward_range, math.sqrt
        best, best_index, a = 0, -math.inf, 0
        for total, n in zip(self.sums, self.counts):
            index = total / n + reward_range * sqrt(c / n)
            if index > best_index:
                best, best_index = a, index
            a += 1
        return best

    def update_reward(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self.K:
            raise ValueError(f"arm must be in [0, {self.K}), got {arm}")
        if not 0.0 <= reward <= self.reward_range + 1e-12:
            raise ValueError(f"reward {reward} outside [0, {self.reward_range}]")
        self.counts[arm] += 1
        self.sums[arm] += float(reward)
        self.t += 1


class UCB1Batch:
    """``UCB1Policy`` on losses (unit reward range) over R independent rows
    of per-arm pull counts and reward sums.

    UCB1 is the one policy kept twice, for speed: the offline replays play
    one ``act`` + ``update_reward`` round at a time, which for K = 4 takes
    1.1-2.1 µs on ``UCB1Policy`` and 6-11 µs on a one-row batch (Python
    3.11, 2 CPUs).  The ``replay`` benchmark plays some 75k such rounds per
    pass, and its log round trip builds ``UCB1Policy(K, parametrization=
    "improved", reward_range=K)`` itself for the IW replay, so the scalar
    class stays until that changes too.
    """

    draws = False

    def __init__(self, K: int, *, parametrization: str,
                 R: int = 1) -> None:
        self.scale = _check_ucb1(K, parametrization)
        self.K = K
        self.R = _check_count(R, "R")
        self.offsets = np.arange(R) * K  # row starts, flat
        self.counts = np.zeros((R, K))
        self.sums = np.zeros((R, K))
        self.t = 0  # completed rounds

    def act_rows(self, u=None) -> np.ndarray:
        if self.t < self.K:
            return np.full(self.R, self.t)  # forced initialization pass
        c = self.scale * math.log(self.t + 1)
        radius = np.sqrt(c / self.counts)
        return (self.sums / self.counts + radius).argmax(axis=1)

    def update_rows(self, arms: np.ndarray, losses: np.ndarray) -> None:
        cells = self.offsets + arms
        self.counts.ravel()[cells] += 1.0
        self.sums.ravel()[cells] += 1.0 - losses
        self.t += 1


class FixedPolicy:
    """Non-learning policy that always plays one arm and never draws; the
    evaluation target of the offline replays."""

    draws = False

    def __init__(self, K: int, *, arm: int) -> None:
        _check_count(K, "K")
        self.K = K
        self.arm = _check_count(arm, "arm", 0, K)
        self.t = 0

    def act(self, rng=None) -> int:
        return self.arm

    def update_reward(self, arm: int, reward: float) -> None:
        self.t += 1

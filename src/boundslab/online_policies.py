"""Online decision rules for repeated games against losses in [0, 1].

Module-level functions give the closed-form pieces (learning rates,
schedules, arm draws, and ``_exp_weights_rows``, the unchecked
exponential-weights kernel of every Hedge, EXP3 and EXP4 round); the policy
classes wrap them into stateful players for the game loops in
:mod:`boundslab.environments`.  Everything is deterministic given the
caller-supplied random streams; ties always break toward the lowest index.

Every game policy holds R independent rows, the R repetitions of a series,
with the state in (R, K) arrays, or (R, N) for EXP4's N experts.  The
bandit policies that ``play_bandit`` plays (EXP3, EXP4, ``UCB1Batch``) give
every row's arm of the next round with ``act_rows`` and take their losses
with ``update_rows``.  The full-information policies that
``play_full_information`` plays (Hedge, FTL) see every loss cell, which
never depends on what they play, so ``play_rows`` plays a block of rounds
of every row at once.  A kernel does the float operations of the one-round
formula in the same order: exponentials go through ``math.exp`` (``np.exp``
rounds differently), ``ProbVec`` totals through ``math.fsum`` (or one add
for two arms, the same double), and at most one ``math.log`` is taken per
round.  ``np.sqrt``, division and left-to-right ``np.add.accumulate``
round exactly like their scalar counterparts, and ``np.argmax`` and
``np.argmin`` break ties toward the lowest index.  UCB1 is the one policy
with a second, scalar implementation (see ``UCB1Batch``).
"""
from __future__ import annotations

import math

import numpy as np

from boundslab.divergences import (
    NORMALIZATION_TOL,
    _check_count,
    _check_range,
    _check_rate,
    _raise_first_bad_weight,
)

HEDGE_ETA_VARIANTS = ("simple", "tight", "anytime_tight")
UCB1_PARAMETRIZATIONS = ("original", "improved")


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
        return 2.0 * math.sqrt(log_k / _check_count(t, "t"))
    base = math.sqrt(2.0 * log_k / _check_count(T, "T"))
    return base if variant == "simple" else 2.0 * base


def doubling_schedule(t: int, K: int) -> tuple[int, float]:
    """Doubling-trick period index and per-period Hedge rate of round t.

    Period m covers rounds [2^m, 2^{m+1}); the rate is the tight fixed-horizon
    rate for horizon 2^m, and the losses restart at each period's first round.
    """
    _check_count(t, "t")
    _check_count(K, "K", 2)
    m = t.bit_length() - 1
    return m, math.sqrt(8.0 * math.log(K) / float(2 ** m))


def sample_arms(dists: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from each row of an (R, K) array of distributions
    over arm indexes, with one uniform in [0, 1) per row: the first arm
    whose running sum of the weights, one left-to-right accumulate, exceeds
    u, else the last arm."""
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


def _exp_weights_rows(losses: np.ndarray, eta) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """The exponential weights exp(-eta (L - min L)) of each row of finite
    losses L along the last axis, one ``math.exp`` per cell, and each row's
    left-to-right total, with the last axis kept.  ``eta`` is one positive
    rate, or an array of them that broadcasts against the totals.  The
    minimum loss is subtracted first, which keeps every exponent at or below
    0, so the lowest loss weighs exp(0) = 1 and no weight overflows, and
    makes the distribution, the weights divided by their total, invariant
    under shifting a row by a constant."""
    x = losses - np.minimum.reduce(losses, axis=-1, keepdims=True)
    x *= -eta
    weights = np.fromiter(map(math.exp, x.ravel().tolist()), float,
                          x.size).reshape(x.shape)
    return weights, np.add.accumulate(weights, axis=-1)[..., -1:]


class _FullInformation:
    """A full-information policy over R independent rows, which sees every
    loss cell of each round it plays: its arms of a block of rounds depend
    on the cumulative losses before each round.  ``period_end`` is the
    completed rounds at which a block must end, infinite unless a doubling
    period starts there."""

    period_end = math.inf

    def __init__(self, K: int, R: int) -> None:
        self.K = K
        self.R = _check_count(R, "R")
        self.cum_losses = np.zeros((R, K))
        self.t = 0  # completed rounds

    def _running_losses(self, rows: np.ndarray) -> np.ndarray:
        """The (R, n + 1, K) losses of each row before each of the n rounds
        of the (R, n, K) loss rows and after the last, one left-to-right
        ``np.add.accumulate`` along the rounds from ``cum_losses``."""
        if rows.shape[0] != self.R or rows.shape[2] != self.K:
            raise ValueError(f"loss rows must have shape ({self.R}, n, "
                             f"{self.K}), got {rows.shape}")
        return np.add.accumulate(
            np.concatenate((self.cum_losses[:, None], rows), axis=1), axis=1)


class HedgePolicy(_FullInformation):
    """Full-information exponential weights over R independent rows, with a
    pluggable rate schedule.

    ``variant`` picks the rate: "simple"/"tight" need a horizon ``T``;
    "anytime_tight" takes 2 sqrt(ln K / t) in round t, counted from 1;
    ``doubling`` restarts a tight fixed-horizon rate on periods of doubling
    length, whatever the variant.  Every argument is checked here, so a
    block of rounds runs no checks.
    """

    draws = True

    def __init__(self, K: int, *, R: int = 1, variant: str = "anytime_tight",
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
            # the completed rounds at which the next doubling period starts:
            # its first round is 2**m, counted from 1
            self.period_end = 1
        else:
            # validate the schedule eagerly so config errors surface early
            first = hedge_eta(K, T=T, t=1, variant=variant)
            self._rate = None if variant == "anytime_tight" else first
        self._log_k = math.log(K)
        super().__init__(K, R)

    def play_rows(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The (R, n) arms of every row's next n rounds, for the (R, n, K)
        array of their loss rows, each drawn with its uniform of the (R, n)
        array ``u``.  The rounds must lie in one period: n is at most
        ``period_end - t``.  When the round after them starts a doubling
        period, its rate is taken and the losses reset.

        Each round's distribution is ``_exp_weights_rows`` of the losses
        before it at the round's rate, divided by its total and by
        ``_as_probvec_rows``; ``sample_arms`` draws from the block's rows,
        each repetition's n rounds in turn."""
        R, n, K = rows.shape
        if n > self.period_end - self.t:
            raise ValueError(f"{n} rounds from round {self.t} cross "
                             f"the period start at round {self.period_end}")
        cum = self._running_losses(rows)
        eta = self._rate
        if eta is None:  # the anytime rate of each round, counted from 1
            t = np.arange(self.t + 1, self.t + n + 1)
            eta = 2.0 * np.sqrt(self._log_k / t)[:, None]
        weights, totals = _exp_weights_rows(cum[:, :-1], eta)
        p = _as_probvec_rows((weights / totals).reshape(R * n, K))
        arms = sample_arms(p, u.ravel()).reshape(R, n)
        self.cum_losses = cum[:, -1]
        self.t += n
        if self.t >= self.period_end:
            m, self._rate = doubling_schedule(self.t + 1, K)
            self.cum_losses = np.zeros((R, K))
            self.period_end = 2 ** (m + 1) - 1
        return arms


class FTLPolicy(_FullInformation):
    """Deterministic follow-the-leader over R independent rows: each round
    plays the arm of the smallest cumulative loss so far, lowest index on
    ties."""

    draws = False

    def __init__(self, K: int, *, R: int = 1) -> None:
        super().__init__(_check_count(K, "K"), R)

    def play_rows(self, rows: np.ndarray, u=None) -> np.ndarray:
        """The (R, n) arms of every row's next n rounds, for the (R, n, K)
        array of their loss rows: the first-index ``argmin`` of the losses
        before each round."""
        cum = self._running_losses(rows)
        self.cum_losses = cum[:, -1]
        self.t += rows.shape[1]
        return cum[:, :-1].argmin(axis=2)


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
        # EXP3's _check_range, inline: a replay pass makes ~75k calls
        if not 0.0 <= reward <= self.reward_range:
            raise ValueError(f"reward must be in [0, {self.reward_range:g}], "
                             f"got {float(reward)}")
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

"""Online decision rules for repeated games against losses in [0, 1].

Module-level functions give the closed-form pieces (exponential-weights
distributions, learning rates, confidence indexes, schedules); the policy
classes wrap them into stateful players for the simulation drivers in
:mod:`boundslab.environments`.  Everything is deterministic given the
caller-supplied random stream; ties always break toward the lowest index.

The bandit policies that ``play_bandit`` plays hold R independent rows, the
R repetitions of a series, with the state in (R, K) arrays: ``act_rows``
gives the arms of every row's next round and ``update_rows`` takes their
losses.  A row does the float operations of one scalar game in the same
order: exponentials go through ``math.exp`` (``np.exp`` rounds
differently), ``ProbVec`` totals through ``math.fsum``, and one
``math.log`` is taken per round.  ``np.sqrt``, division and left-to-right
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
    _TINY,
    NORMALIZATION_TOL,
    ProbVec,
    _check_count,
    _check_delta,
    _check_range,
    _check_rate,
    _check_unit,
)

HEDGE_ETA_VARIANTS = ("simple", "tight", "anytime_simple", "anytime_tight")
EXP3_VARIANTS = ("losses", "rewards")
UCB1_PARAMETRIZATIONS = ("original", "improved")


def hedge_distribution(cum_losses: Sequence[float], eta: float) -> ProbVec:
    """Exponential-weights distribution p(a) ∝ exp(-eta * L(a)).

    Stabilized by subtracting the minimum cumulative loss, which also makes
    the output invariant under shifting all losses by a constant.
    """
    eta = _check_rate(eta)
    losses = [float(v) for v in cum_losses]
    if not losses:
        raise ValueError("cum_losses must be nonempty")
    return _hedge_weights(losses, eta)


def _hedge_weights(losses: list[float], eta: float) -> ProbVec:
    """``hedge_distribution`` unchecked, for a nonempty list of floats and a
    rate already known to be positive and finite."""
    low = min(losses)
    weights = [math.exp(-eta * (v - low)) for v in losses]
    # a left-to-right sum, which ``np.add.accumulate`` reproduces; the
    # built-in ``sum`` compensates rounding error from Python 3.12 on
    total = functools.reduce(operator.add, weights)
    return ProbVec(map(operator.truediv, weights, repeat(total)))


def hedge_eta(K: int, *, T: int | None = None, t: int | None = None,
              variant: str = "simple") -> float:
    """Learning rate for Hedge: fixed-horizon ("simple", "tight") or
    round-dependent ("anytime_simple", "anytime_tight")."""
    _check_count(K, "K", 2)
    if variant not in HEDGE_ETA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    log_k = math.log(K)
    if variant in ("simple", "tight"):
        base = math.sqrt(2.0 * log_k / _check_count(T, "T"))
        return base if variant == "simple" else 2.0 * base
    return _anytime_eta(log_k, _check_count(t, "t"), variant)


def _anytime_eta(log_k: float, t: int, variant: str) -> float:
    """The anytime Hedge rate at round t from log K: sqrt(ln K / t), doubled
    for "anytime_tight"."""
    base = math.sqrt(log_k / t)
    return base if variant == "anytime_simple" else 2.0 * base


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


def importance_weighted_loss(loss: float, p_chosen: float, chosen: bool) -> float:
    """Inverse-propensity loss estimate: loss/p if this arm was the one
    played, else 0.  Unbiased for the true loss under the playing
    distribution."""
    if not chosen:
        return 0.0
    p_chosen = _check_range(p_chosen, "p_chosen", _TINY, 1.0, "in (0, 1]")
    return _check_unit(loss, "loss") / p_chosen


def exp4_mix(expert_weights: ProbVec, advice: Sequence[Sequence[float]],
             ) -> tuple[ProbVec, list[tuple]]:
    """Mix expert advice into an arm distribution.

    ``advice`` is an N x K row-stochastic matrix (one ProbVec-like row per
    expert).  Returns the mixture p(a) = sum_h w(h) q_h(a) and the advice
    rows q_h as normalised weight tuples, from which an arm-level loss
    estimate maps to expert h's l̃_h = sum_a q_h(a) l̃_a.
    """
    rows = [row.weights if isinstance(row, ProbVec) else ProbVec(row).weights
            for row in advice]
    if len(rows) != len(expert_weights):
        raise ValueError("one advice row per expert required")
    K = len(rows[0])
    if any(len(row) != K for row in rows):
        raise ValueError("advice rows must share one arm count")
    weights = tuple(expert_weights)
    # sum over the experts in index order, one arm (column) at a time
    mixture = [sum(map(operator.mul, weights, column)) for column in zip(*rows)]
    total = sum(mixture)
    return ProbVec([v / total for v in mixture]), rows


def ucb_index(mu_hat: float, t: int, n_pulls: int,
              parametrization: str = "original") -> float:
    """Upper confidence index mu_hat + radius for an arm pulled ``n_pulls``
    times by round ``t``.  "original" uses sqrt(3 ln t / (2 N)); "improved"
    uses sqrt(ln t / N)."""
    mu_hat = _check_unit(mu_hat, "mu_hat")
    c = _radius_coefficient(math.log(_check_count(t, "t")), parametrization)
    return mu_hat + math.sqrt(c / _check_count(n_pulls, "n_pulls"))


def _radius_coefficient(log_t: float, parametrization: str) -> float:
    """c with UCB1 radius sqrt(c / N) for an arm pulled N times, at ln t =
    ``log_t``: 1.5 ln t for "original", ln t for "improved".  Scaling by 2 is
    exact in binary floating point, so 1.5 ln t / N rounds to the same double
    as 3 ln t / (2 N) for every N below 2**1023."""
    if parametrization == "original":
        return 1.5 * log_t
    if parametrization == "improved":
        return log_t
    raise ValueError(f"unknown parametrization {parametrization!r}")


def epsilon_first_schedule(gap: float, T: int) -> tuple[float, int]:
    """Exploration budget for the two-armed explore-then-commit rule.

    Returns (epsilon, exploration_rounds) with epsilon = max(0,
    4 ln(T gap^2) / (T gap^2)) and the round count rounded up to an even
    number, capped at T.
    """
    gap = _check_range(gap, "gap", _TINY, 1.0, "in (0, 1]")
    _check_count(T, "T")
    scale = T * gap * gap
    eps = max(0.0, 4.0 * math.log(scale) / scale) if scale > 0 else 0.0
    rounds = min(T, 2 * math.ceil(eps * T / 2.0))
    return eps, rounds


def doubling_schedule(t: int, K: int) -> tuple[int, float, bool]:
    """Doubling-trick period index, per-period Hedge rate and reset flag.

    Period m covers rounds [2^m, 2^{m+1}); the rate is the tight fixed-horizon
    rate for horizon 2^m and a reset happens exactly at period boundaries.
    """
    _check_count(t, "t")
    _check_count(K, "K", 2)
    m = t.bit_length() - 1
    eta_m = math.sqrt(8.0 * math.log(K) / float(2 ** m))
    return m, eta_m, t == 2 ** m


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


def exp3_eta(K: int, t: int, eta: float | None = None,
             T: int | None = None) -> float:
    """EXP3 learning rate after ``t`` completed rounds: an explicit ``eta``,
    else the fixed-horizon sqrt(2 ln K / (K T)) when ``T`` is given, else the
    anytime sqrt(ln K / ((t + 1) K))."""
    _check_count(K, "K", 2)
    _check_count(t, "t", 0)
    if eta is not None:
        _check_rate(eta)
    elif T is not None:
        _check_count(T, "T")
    return _exp3_eta(K, t, eta, T)


def _exp3_eta(K: int, t: int, eta: float | None, T: int | None) -> float:
    """``exp3_eta`` unchecked, for arguments a policy has checked."""
    if eta is not None:
        return eta
    if T is not None:
        return math.sqrt(2.0 * math.log(K) / (K * T))
    return math.sqrt(math.log(K) / ((t + 1) * K))


def _as_probvec_rows(p: np.ndarray) -> np.ndarray:
    """What ``ProbVec`` does to each row: check the row sums to one within
    ``NORMALIZATION_TOL`` and divide it by its ``math.fsum``.  The check
    runs on the Python floats ``fsum`` returns; a NaN total fails it."""
    totals = list(map(math.fsum, p.tolist()))
    for total in totals:
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {np.array(totals)}, not 1")
    return p / np.array(totals)[:, None]


class HedgePolicy:
    """Full-information exponential weights with a pluggable rate schedule.

    ``variant`` picks the rate: "simple"/"tight" need a horizon ``T``;
    "anytime_simple"/"anytime_tight" use the running round; ``doubling``
    restarts a tight fixed-horizon rate on periods of doubling length.
    An explicit ``eta`` replaces the ``variant`` schedule; it cannot be
    combined with ``doubling``, which sets its own rate per period.

    Every argument is checked here, so a round runs no checks: a fixed rate
    is taken once, an anytime rate once per round and a doubling rate once
    per period, when ``observe`` ends the round before its first and resets
    the losses.  ``distribution`` only reads.
    """

    draws = True

    def __init__(self, K: int, *, variant: str = "anytime_tight",
                 eta: float | None = None, T: int | None = None,
                 doubling: bool = False) -> None:
        _check_count(K, "K", 2)
        if variant not in HEDGE_ETA_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        # a rate that holds for more than one round: explicit, fixed-horizon
        # or the current doubling period's; None for an anytime rate
        self._rate = None if eta is None else _check_rate(eta)
        if doubling and eta is not None:
            raise ValueError("give eta or doubling, not both")
        if doubling:
            self._rate = doubling_schedule(1, K)[1]
        elif eta is None:
            # validate the schedule eagerly so config errors surface early
            first = hedge_eta(K, T=T, t=1, variant=variant)
            if variant in ("simple", "tight"):
                self._rate = first
        self._log_k = math.log(K)
        self.K = K
        self.variant = variant
        self.cum_losses = [0.0] * K
        self.t = 0  # completed rounds
        # first round of the next doubling period; none without doubling
        self._next_period = 2 if doubling else math.inf

    def distribution(self) -> ProbVec:
        eta = self._rate or _anytime_eta(self._log_k, self.t + 1, self.variant)
        return _hedge_weights(self.cum_losses, eta)

    def act(self, u: float) -> int:
        """The arm of the next round, drawn with the uniform ``u``."""
        return sample_arm(self.distribution(), u)

    def observe(self, losses: Sequence[float]) -> None:
        """Consume the full loss column (floats) of the current round."""
        if len(losses) != self.K:
            raise ValueError("loss column has wrong length")
        self.cum_losses = list(map(operator.add, self.cum_losses, losses))
        self.t += 1
        if self.t + 1 >= self._next_period:  # the next round starts a period
            m, self._rate, _ = doubling_schedule(self.t + 1, self.K)
            self.cum_losses = [0.0] * self.K
            self._next_period = 2 ** (m + 1)


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
    """Bandit exponential weights over R independent rows.

    The "losses" variant plays Hedge on importance-weighted loss estimates;
    with no explicit ``eta`` it uses the anytime rate sqrt(ln K / (t K)), or
    the fixed rate sqrt(2 ln K / (K T)) when a horizon ``T`` is given.  The
    "rewards" variant mixes exponential weights on importance-weighted
    rewards with an explicit uniform-exploration floor eta/K and requires
    eta in (0, 1).

    ``act``, ``update``, ``update_reward`` and ``replay_update`` are the
    one-round contract of the offline replays, on a policy of one row.
    """

    draws = True

    def __init__(self, K: int, *, variant: str = "losses",
                 eta: float | None = None, T: int | None = None,
                 R: int = 1) -> None:
        _check_count(K, "K", 2)
        if variant not in EXP3_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "rewards":
            eta = _check_delta(eta, "eta")
        elif eta is not None:
            eta = _check_rate(eta)
        self.K = K
        self.R = _check_count(R, "R")
        self.variant = variant
        self.eta = eta
        self.T = T if T is None else _check_count(T, "T")
        self.offsets = np.arange(R) * K  # row starts, flat
        self.estimates = np.zeros((R, K))  # losses or rewards, per variant
        self.t = 0  # completed rounds
        self.p = None  # this round's distributions, set by act_rows

    def distributions(self) -> np.ndarray:
        """The (R, K) playing distributions of the next round."""
        eta = _exp3_eta(self.K, self.t, self.eta, self.T)
        est = self.estimates
        if self.variant == "losses":
            # hedge_distribution: exp(-eta (L - min L)) / sum
            x = est - np.minimum.reduce(est, axis=1, keepdims=True)
            x *= -eta
        else:
            # (1 - eta) * softmax(+eta R) + eta / K
            x = est - np.maximum.reduce(est, axis=1, keepdims=True)
            x *= eta
        weights = np.fromiter(map(math.exp, x.ravel().tolist()), float,
                              x.size).reshape(x.shape)
        totals = np.add.accumulate(weights, axis=1)[:, -1:]
        if self.variant == "losses":
            p = weights / totals
        else:
            p = (1.0 - eta) * weights / totals + eta / self.K
        return _as_probvec_rows(p)

    def act_rows(self, u: np.ndarray) -> np.ndarray:
        """The arm of every row, drawn with one uniform per row."""
        self.p = self.distributions()
        return sample_arms(self.p, u)

    def update_rows(self, arms: np.ndarray, losses: np.ndarray) -> None:
        """Consume the bandit loss of the arm each row played this round."""
        if self.p is None:
            raise ValueError("update() requires a preceding act()")
        cells = self.offsets + arms
        p_arm = self.p.ravel()[cells]
        if self.variant == "losses":
            if not np.minimum.reduce(p_arm) > 0.0:
                raise ValueError("cannot importance-weight a zero-probability arm")
            self.estimates.ravel()[cells] += losses / p_arm
        else:
            self.estimates.ravel()[cells] += (1.0 - losses) / p_arm
        self.t += 1
        self.p = None

    def _one_row(self) -> None:
        if self.R != 1:
            raise ValueError(f"act/update play one row, the policy has R={self.R}")

    def act(self, rng) -> int:
        self._one_row()
        return int(self.act_rows(np.array([rng.random()]))[0])

    def update(self, arm: int, loss: float) -> None:
        self._one_row()
        loss = _check_range(loss, "loss", 0.0, 1.0, "in [0, 1]")
        self.update_rows(np.array([arm]), np.array([loss]))

    def update_reward(self, arm: int, reward: float) -> None:
        self.update(arm, 1.0 - float(reward))

    def replay_update(self, arm: int, r_tilde: float, K: int) -> None:
        """Offline replay contract: the [0, K]-range estimated reward is
        mapped back to a [0, 1] loss, (K - r̃)/K, and fed as this round's
        bandit loss with the rate unchanged."""
        self.update(arm, (K - r_tilde) / K)


class EXP4Policy:
    """Exponential weights over experts whose per-round advice mixes into an
    arm distribution; bandit feedback is importance-weighted at the arm level
    and projected back onto the experts."""

    def __init__(self, n_experts: int, K: int, *, eta: float | None = None,
                 T: int | None = None) -> None:
        _check_count(n_experts, "n_experts")
        _check_count(K, "K", 2)
        if eta is None:
            # ln 1 = 0: one expert would derive the rate 0
            _check_count(n_experts, "n_experts", 2)
            T = _check_count(T, "T")
            eta = math.sqrt(2.0 * math.log(n_experts) / (K * T))
        eta = _check_rate(eta)
        self.n_experts = n_experts
        self.K = K
        self.eta = eta
        self.cum_expert_losses = [0.0] * n_experts
        self.t = 0
        self._pending: tuple[ProbVec, list[tuple]] | None = None

    def expert_weights(self) -> ProbVec:
        return _hedge_weights(self.cum_expert_losses, self.eta)

    def act(self, advice: Sequence[Sequence[float]], rng) -> int:
        self._pending = exp4_mix(self.expert_weights(), advice)
        return sample_arm(self._pending[0], rng.random())

    def update(self, arm: int, loss: float) -> None:
        if self._pending is None:
            raise ValueError("update() requires a preceding act()")
        p, rows = self._pending
        # l̃ is zero off the played arm, so sum_a q_h(a) l̃_a is q_h(arm) l̃_arm
        estimate = importance_weighted_loss(loss, p[arm], True)
        for h, row in enumerate(rows):
            self.cum_expert_losses[h] += row[arm] * estimate
        self.t += 1
        self._pending = None


def _check_ucb1(K: int, parametrization: str) -> None:
    _check_count(K, "K")
    if parametrization not in UCB1_PARAMETRIZATIONS:
        raise ValueError(f"unknown parametrization {parametrization!r}")


class UCB1Policy:
    """Deterministic optimism for stochastic bandits.

    Plays each arm once in ascending index order, then the arm with the
    largest confidence index (mean plus radius), ties to the lowest index.
    ``reward_range`` rescales the radius for rewards in [0, range], as
    needed by importance-weighted replay.
    """

    draws = False

    def __init__(self, K: int, *, parametrization: str = "original",
                 reward_range: float = 1.0) -> None:
        _check_ucb1(K, parametrization)
        self.K = K
        self.parametrization = parametrization
        self.reward_range = _check_rate(reward_range, "reward_range")
        self.counts = [0] * K
        self.sums = [0.0] * K
        self.t = 0

    def act(self, rng=None) -> int:
        if self.t < self.K:
            return self.t  # forced initialization pass
        c = _radius_coefficient(math.log(self.t + 1), self.parametrization)
        reward_range = self.reward_range
        best, best_index = 0, -math.inf
        for a, (total, n) in enumerate(zip(self.sums, self.counts)):
            index = total / n + reward_range * math.sqrt(c / n)
            if index > best_index:
                best, best_index = a, index
        return best

    def update_reward(self, arm: int, reward: float) -> None:
        if not 0.0 <= reward <= self.reward_range + 1e-12:
            raise ValueError(f"reward {reward} outside [0, {self.reward_range}]")
        self.counts[arm] += 1
        self.sums[arm] += float(reward)
        self.t += 1

    def update(self, arm: int, loss: float) -> None:
        """Loss-world adapter: reward = 1 - loss (unit range only)."""
        if self.reward_range != 1.0:
            raise ValueError("loss updates require unit reward range")
        self.update_reward(arm, 1.0 - float(loss))

    def replay_update(self, arm: int, r_tilde: float, K: int) -> None:
        """Offline replay contract: estimated rewards live in [0, K], so the
        policy must have been built with reward_range=K."""
        if self.reward_range != float(K):
            raise ValueError("replay needs a UCB1 policy with reward_range=K")
        self.update_reward(arm, r_tilde)


class _RewardRows:
    """R rows of per-arm pull counts and reward sums, fed by losses."""

    draws = False

    def __init__(self, K: int, R: int) -> None:
        self.K = K
        self.R = _check_count(R, "R")
        self.offsets = np.arange(R) * K  # row starts, flat
        self.counts = np.zeros((R, K))
        self.sums = np.zeros((R, K))
        self.t = 0  # completed rounds

    def update_rows(self, arms: np.ndarray, losses: np.ndarray) -> None:
        cells = self.offsets + arms
        self.counts.ravel()[cells] += 1.0
        self.sums.ravel()[cells] += 1.0 - losses
        self.t += 1


class UCB1Batch(_RewardRows):
    """``UCB1Policy`` on losses (unit reward range) over R independent rows.

    UCB1 is the one policy kept twice, for speed: the offline replays play
    one scalar round at a time, and a K = 4 act+update round takes 3-4 µs
    with ``UCB1Policy`` against 10-18 µs on a one-row batch (Python 3.11,
    2 CPUs).  The ``replay`` benchmark plays some 75k such rounds per pass,
    and its log round trip builds ``UCB1Policy(K, reward_range=K)`` itself
    for the IW replay, so the scalar class stays until that changes too.
    """

    def __init__(self, K: int, *, parametrization: str = "original",
                 R: int = 1) -> None:
        _check_ucb1(K, parametrization)
        super().__init__(K, R)
        self.parametrization = parametrization

    def act_rows(self, u=None) -> np.ndarray:
        if self.t < self.K:
            return np.full(self.R, self.t)  # forced initialization pass
        c = _radius_coefficient(math.log(self.t + 1), self.parametrization)
        radius = np.sqrt(c / self.counts)
        return (self.sums / self.counts + radius).argmax(axis=1)


class EpsilonFirstPolicy(_RewardRows):
    """Two-armed explore-then-commit over R independent rows: alternate both
    arms for the scheduled exploration budget, then commit each row to its
    empirically best arm (rewards; ties to the lowest index)."""

    def __init__(self, T: int, gap: float, R: int = 1) -> None:
        self.epsilon, self.exploration_rounds = epsilon_first_schedule(gap, T)
        super().__init__(2, R)
        self.T = T
        self.commit = None  # each row's arm once exploration is over

    def act_rows(self, u=None) -> np.ndarray:
        if self.t < self.exploration_rounds:
            return np.full(self.R, self.t % 2)
        if self.commit is None:
            means = np.divide(self.sums, self.counts, out=np.zeros_like(self.sums),
                              where=self.counts > 0)
            self.commit = np.where(means[:, 0] >= means[:, 1], 0, 1)
        return self.commit


class FixedPolicy:
    """Non-learning policy playing a fixed arm or a fixed distribution;
    useful as the evaluation target in offline replay."""

    def __init__(self, K: int, *, arm: int | None = None,
                 dist: Sequence[float] | None = None) -> None:
        _check_count(K, "K")
        if (arm is None) == (dist is None):
            raise ValueError("give exactly one of arm or dist")
        if arm is not None:
            _check_count(arm, "arm", 0, K)
        if dist is not None and len(dist) != K:
            raise ValueError("distribution has wrong length")
        self.K = K
        self.arm = arm
        self.dist = ProbVec(dist) if dist is not None else None
        self.draws = dist is not None
        self.t = 0

    def act(self, rng=None) -> int:
        if self.arm is not None:
            return self.arm
        return sample_arm(self.dist, rng.random())

    def update(self, arm: int, loss: float) -> None:
        self.t += 1

    def update_reward(self, arm: int, reward: float) -> None:
        self.t += 1

    def replay_update(self, arm: int, r_tilde: float, K: int) -> None:
        self.t += 1

"""Game environments and offline-log replay for the policies in
:mod:`boundslab.online_policies`.

Covers the four game variants (iid/adversarial losses crossed with
full/bandit feedback), the adversarial breaker sequences for
follow-the-leader and UCB1, logged-data replay via importance weighting and
rejection sampling, and the regret accounting helpers.  All environments are
oblivious: losses are fully determined by (spec, seed) before play and never
depend on policy state beyond the chosen index at reveal time.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# Loss cells per block of a batched bandit game (at least one round): bounds
# its memory, whatever the horizon.
BLOCK_CELLS = 1 << 14

# Rounds per block that ``BernoulliEnv.row`` keeps: 4 KiB at K = 2, small
# enough that a series' envs held at once do not show in memory.
ROW_BLOCK = 256


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, a bijective 64-bit scramble, over numpy uint64,
    whose arithmetic wraps modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# Fields of one log record: action id, binary reward, ten binary features.
LOG_FIELDS = 12


@dataclass(frozen=True, eq=False)
class BanditLog:
    """A uniform-logging bandit log as arrays, one entry per record: the
    action id taken, the binary reward observed (both shape (T,)) and ten
    binary side features (shape (T, 10), unused here)."""

    actions: np.ndarray
    rewards: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        T = len(self.actions)
        if self.rewards.shape != (T,) or self.features.shape != (T, LOG_FIELDS - 2):
            raise ValueError("need actions and rewards of shape (T,) and "
                             "features of shape (T, 10)")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass
class GameTranscript:
    """Per-round record of one policy/environment run."""

    arms: np.ndarray
    payoffs: np.ndarray
    kind: str  # "loss" or "reward"
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("loss", "reward"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if len(self.arms) != len(self.payoffs):
            raise ValueError("arms and payoffs must have equal length")

    def __len__(self) -> int:
        return len(self.arms)

    def arm_counts(self, K: int) -> np.ndarray:
        return np.bincount(self.arms, minlength=K)


class BernoulliEnv:
    """Stochastic losses: each cell (t, a) is an independent Bernoulli draw
    with mean ``means[a]``, a function of (seed, t, a) alone, so that full
    and bandit runs over the same seed agree on every revealed entry and the
    reveal order never changes a value.  Every cell comes from one block
    generator, ``blocks``: ``row`` and ``loss`` read a block of
    ``ROW_BLOCK`` rounds held on the env, refilled when t falls outside it."""

    def __init__(self, means: Sequence[float], seed: int) -> None:
        means = [float(m) for m in means]
        if any(not 0.0 <= m <= 1.0 for m in means):
            raise ValueError("all means must lie in [0, 1]")
        if not means:
            raise ValueError("need at least one arm")
        self.means = tuple(means)
        self.K = len(means)
        seed_bits = np.array([int(seed) & _MASK64], dtype=np.uint64)
        self._seed_state = int(_mix64_array(seed_bits)[0])
        self._t0 = 0
        self._block = np.empty((0, self.K))

    def loss(self, t: int, a: int) -> float:
        if not 0 <= a < self.K:
            raise ValueError(f"arm {a} outside [0, {self.K})")
        return self.row(t)[a]

    def row(self, t: int) -> list[float]:
        i = t - self._t0
        if not 0 <= i < len(self._block):
            if t < 0:
                raise ValueError(f"round {t} is negative")
            self._t0 = t - t % ROW_BLOCK
            self._block = BernoulliEnv.blocks([self], self._t0,
                                              self._t0 + ROW_BLOCK)[0]
            i = t - self._t0
        return self._block[i].tolist()

    @staticmethod
    def blocks(envs: Sequence["BernoulliEnv"], t0: int, t1: int) -> np.ndarray:
        """The rows ``row(t)`` for t in [t0, t1) of each env, as an
        (R, t1 - t0, K) array: the same splitmix64 over numpy uint64, for
        the R seed states at once."""
        K = envs[0].K
        states = np.array([env._seed_state for env in envs], dtype=np.uint64)
        cells = np.arange(t0 * K, t1 * K, dtype=np.uint64) * np.uint64(_GOLDEN)
        bits = _mix64_array(states[:, None] + cells)
        uniform = bits.astype(float).reshape(len(envs), t1 - t0, K) / 2.0 ** 64
        means = np.array([env.means for env in envs])[:, None, :]
        return (uniform < means).astype(float)


class MatrixEnv:
    """Adversarial losses read from an explicit T x K matrix fixed before
    play."""

    def __init__(self, matrix) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError("need a T x K loss matrix")
        if matrix.min() < 0.0 or matrix.max() > 1.0:
            raise ValueError("loss entries must lie in [0, 1]")
        self.matrix = matrix
        self.K = matrix.shape[1]
        self.horizon = matrix.shape[0]

    def loss(self, t: int, a: int) -> float:
        return float(self.matrix[t, a])

    def row(self, t: int) -> list[float]:
        return self.matrix[t].tolist()

    @staticmethod
    def blocks(envs: Sequence["MatrixEnv"], t0: int, t1: int) -> np.ndarray:
        """Rows [t0, t1) of each env's matrix, as an (R, t1 - t0, K) array."""
        if any(env.horizon < t1 for env in envs):
            raise ValueError(f"loss matrix has fewer than {t1} rounds")
        return np.stack([env.matrix[t0:t1] for env in envs])


def make_ftl_breaker(T: int) -> np.ndarray:
    """Two-arm oblivious loss matrix on which deterministic
    lowest-index-tiebreak follow-the-leader incurs loss 1 every round from
    t=2: row 1 is (0.5, 0) and later rows alternate (0, 1), (1, 0), always
    charging the current leader."""
    if T < 2:
        raise ValueError(f"need T >= 2, got {T}")
    matrix = np.zeros((T, 2))
    matrix[0] = (0.5, 0.0)
    for t in range(1, T):
        matrix[t] = (0.0, 1.0) if t % 2 == 1 else (1.0, 0.0)
    return matrix


def make_ucb_breaker(T: int, K: int = 2, *, parametrization: str = "improved",
                     ) -> tuple[np.ndarray, list[int]]:
    """Oblivious reward matrix that makes deterministic UCB1 suffer linear
    regret: UCB1 (fixed init order, lowest-index ties) is simulated offline
    and the arm it is about to pull is assigned a low reward while every
    other arm gets a high one.  Rewards are interior to [0, 1] with small
    per-arm offsets so no two arms tie within a round.  Returns the matrix
    and the predicted UCB1 trajectory; validated by simulation, not proved.
    """
    from boundslab.online_policies import UCB1Policy

    if T < 2 * K:
        raise ValueError(f"need T >= 2K, got T={T}, K={K}")
    low, high = 0.1, 0.9
    probe = UCB1Policy(K, parametrization=parametrization)
    rewards = np.empty((T, K))
    trajectory = []
    for t in range(T):
        arm = probe.act()
        for a in range(K):
            base = low if a == arm else high
            rewards[t, a] = base - a * 1e-6
        probe.update_reward(arm, rewards[t, arm])
        trajectory.append(arm)
    return rewards, trajectory


def parse_log(lines: Iterable[str]) -> tuple[int, BanditLog]:
    """Read a full log: a "K=<int>" header line, then one record per line of
    12 whitespace-separated integers laid out as action id in [0, K), binary
    reward, then ten features (binary by convention, not checked).  Blank
    lines and '#'-prefixed comment lines are skipped.  The first malformed
    line raises a ValueError that names it.

    The loop over lines checks only the header and the field counts; the
    records are converted to int64 in one call and their actions and rewards
    checked as arrays.  Only when that fails does ``_first_bad_record`` go
    back over the records one by one to find the line to name."""
    K = None
    tokens, linenos, records = [], [], []
    try:
        for lineno, raw in enumerate(lines, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if K is None:
                line = raw.strip()
                try:
                    K = int(line[2:] if line.startswith("K=") else "")
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: expected 'K=<int>' header") from None
                if K < 1:
                    raise ValueError(f"line {lineno}: K must be positive")
                continue
            if len(fields) != LOG_FIELDS:
                _first_bad_record(K, linenos, records)
                raise ValueError(f"line {lineno}: expected {LOG_FIELDS} fields, "
                                 f"got {len(fields)}: {raw.strip()!r}")
            tokens += fields
            linenos.append(lineno)
            records.append(raw)
    except (OSError, UnicodeDecodeError):
        # a bad record before the unreadable line is named first
        _first_bad_record(K, linenos, records)
        raise
    if K is None:
        raise ValueError("log has no 'K=<int>' header")
    try:
        # Python's int on each token, then a check that it fits 64 bits
        table = np.array(tokens, dtype=np.int64).reshape(-1, LOG_FIELDS)
    except (ValueError, OverflowError):
        table = None
    # a negative int64 reads as a uint64 of at least 2**63, so one unsigned
    # comparison checks both ends of each range
    if (table is None or (table[:, 0].view(np.uint64) >= K).any()
            or (table[:, 1].view(np.uint64) > 1).any()):
        lineno = _first_bad_record(K, linenos, records)
        raise ValueError(f"line {lineno}: feature outside the 64-bit "
                         "integer range")
    return K, BanditLog(table[:, 0], table[:, 1], table[:, 2:])


def _first_bad_record(K: int, linenos: list[int], records: list[str]
                      ) -> int | None:
    """Check the records of ``parse_log`` one line at a time, in order: raise
    the error of the first line with a non-integer token, an action outside
    [0, K) or a non-binary reward.  Otherwise return the number of the first
    line with a value outside the 64-bit integer range, or None."""
    overflow = None
    for lineno, raw in zip(linenos, records):
        try:
            values = list(map(int, raw.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer token in record "
                             f"{raw.strip()!r}") from exc
        action, reward = values[0], values[1]
        if not 0 <= action < K:
            raise ValueError(f"line {lineno}: action {action} outside [0, {K})")
        if reward not in (0, 1):
            raise ValueError(f"line {lineno}: reward must be 0 or 1, got {reward}")
        if overflow is None and not all(-2 ** 63 <= v < 2 ** 63 for v in values):
            overflow = lineno
    return overflow


def write_log(path, K: int, log: BanditLog) -> None:
    """Write ``log`` in the format ``parse_log`` reads."""
    rows = np.column_stack((log.actions, log.rewards, log.features)).tolist()
    line = " ".join(["%d"] * LOG_FIELDS) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(f"K={K}\n")
        handle.writelines(line % tuple(row) for row in rows)


def synthesize_uniform_log(means: Sequence[float], T: int, seed: int,
                           ) -> BanditLog:
    """Uniform-logging synthetic log: action ~ Uniform(K), reward ~
    Bernoulli(means[action]), ten iid Bernoulli(1/2) features."""
    means = [float(m) for m in means]
    if any(not 0.0 <= m <= 1.0 for m in means):
        raise ValueError("all means must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    actions = rng.integers(0, len(means), size=T)
    rewards = (rng.random(T) < np.asarray(means)[actions]).astype(np.int64)
    features = rng.integers(0, 2, size=(T, LOG_FIELDS - 2))
    return BanditLog(actions, rewards, features)


def play_full_information(policy, env, T: int, rng=None) -> GameTranscript:
    """Run a full-information game: the policy picks an arm, incurs that
    entry, then sees the whole loss column.  The incremental hindsight-regret
    accounting is stored in ``detail`` and is recomputable from the matrix."""
    arms = np.empty(T, dtype=int)
    incurred = np.empty(T)
    column_sums = [0.0] * env.K
    cumulative = 0.0
    for t in range(T):
        arm = policy.act(rng)
        row = env.row(t)
        arms[t] = arm
        incurred[t] = row[arm]
        cumulative += row[arm]
        column_sums = [c + v for c, v in zip(column_sums, row)]
        policy.observe(row)
    detail = {
        "feedback": "full",
        "column_sums": tuple(column_sums),
        "final_regret": cumulative - min(column_sums),
    }
    return GameTranscript(arms, incurred, "loss", detail)


def play_bandit(policy, envs: Sequence, T: int,
                rngs: Sequence | None = None) -> list[GameTranscript]:
    """Run R bandit games at once, one per row of ``policy``: row r plays
    ``envs[r]`` with random stream ``rngs[r]``, and only the chosen entry is
    revealed to it.

    ``policy`` holds R independent rows (``EXP3Policy``, ``UCB1Batch``,
    ``EpsilonFirstPolicy``): ``act_rows(u)`` gives every row's arm for the
    next round, from one uniform per row when ``policy.draws``, and
    ``update_rows(arms, losses)`` takes their losses.  The envs must share
    one class with a ``blocks`` method (``BernoulliEnv``, ``MatrixEnv``) and
    the policy's arm count.  Loss cells and uniforms are made a block of
    rounds at a time (``BLOCK_CELLS``), and every cell of a block must lie
    in [0, 1].  The policy is left in its state after T rounds.
    """
    R, K = policy.R, policy.K
    if len(envs) != R:
        raise ValueError(f"need one env per policy row, got {len(envs)} for R={R}")
    if any(type(env) is not type(envs[0]) or env.K != K for env in envs):
        raise ValueError(f"envs must share one class and K={K}")
    if policy.draws and (rngs is None or len(rngs) != R
                         or len({id(rng) for rng in rngs}) != R):
        raise ValueError("need one random stream of its own per repetition")
    rows = np.arange(R)
    arms = np.empty((R, T), dtype=int)
    incurred = np.empty((R, T))
    step = max(1, BLOCK_CELLS // (R * K))
    for t0 in range(0, T, step):
        t1 = min(T, t0 + step)
        cells = type(envs[0]).blocks(envs, t0, t1)
        if not (0.0 <= cells.min() and cells.max() <= 1.0):
            raise ValueError("loss cells must lie in [0, 1]")
        if policy.draws:
            uniforms = np.stack([rng.random(t1 - t0) for rng in rngs], axis=1)
        for i, t in enumerate(range(t0, t1)):
            arm = policy.act_rows(uniforms[i] if policy.draws else None)
            loss = cells[rows, i, arm]
            policy.update_rows(arm, loss)
            arms[:, t] = arm
            incurred[:, t] = loss
    return [GameTranscript(arms[r], incurred[r], "loss", {"feedback": "bandit"})
            for r in range(R)]


def hindsight_regret(loss_matrix, arms: Sequence[int]) -> np.ndarray:
    """Cumulative regret against the best single arm in hindsight,
    recomputed from the stored oblivious matrix."""
    matrix = np.asarray(loss_matrix, dtype=float)
    arms = np.asarray(arms, dtype=int)
    incurred = np.cumsum(matrix[np.arange(len(arms)), arms])
    best = np.min(np.cumsum(matrix[: len(arms)], axis=0), axis=1)
    return incurred - best


def pseudo_regret(arms: Sequence[int], means: Sequence[float]) -> np.ndarray:
    """Cumulative sum of the per-round suboptimality gaps of the chosen arms
    in a stochastic loss environment with known means."""
    means = np.asarray(means, dtype=float)
    gaps = means - means.min()
    return np.cumsum(gaps[np.asarray(arms, dtype=int)])


def replay_importance_weighted(policy, log: BanditLog, K: int,
                               rng=None) -> GameTranscript:
    """Evaluate/train a policy offline on a uniformly-logged bandit log.

    Every record is consumed: the policy acts, the estimated reward is
    r̃ = K * r * 1[policy action = logged action] (inverse of the 1/K logging
    propensity, range [0, K]), and the policy ingests r̃ under its own replay
    contract.  The mean of r̃ is an unbiased estimate of the policy's value.
    """
    outside = (log.actions < 0) | (log.actions >= K)
    if outside.any():
        action = int(log.actions[outside.argmax()])
        raise ValueError(f"logged action {action} outside [0, {K})")
    arms, estimates = [], []
    for action, reward in zip(log.actions.tolist(), log.rewards.tolist()):
        arm = policy.act(rng)
        r_tilde = float(K * reward) if arm == action else 0.0
        policy.replay_update(arm, r_tilde, K)
        arms.append(arm)
        estimates.append(r_tilde)
    estimates = np.asarray(estimates, dtype=float)
    detail = {
        "feedback": "iw-replay",
        "estimated_value": float(estimates.mean()) if len(log) else 0.0,
    }
    return GameTranscript(np.asarray(arms, dtype=int), estimates, "reward",
                          detail)


def replay_rejection_sampling(policy, log: BanditLog, K: int,
                              rng=None) -> GameTranscript:
    """Evaluate/train a policy offline by moving to the next logged record
    whose action matches the policy's choice, feeding that (action, reward)
    as a genuine bandit round and discarding the records passed over.  The
    replay stops at the first choice with no match left.  The effective
    horizon (number of accepted rounds) is reported in ``detail``."""
    # the ascending record positions of each logged action, grouped by one
    # stable sort; the next match at or after ``idx`` is found by bisection
    order = np.argsort(log.actions, kind="stable")
    logged, first = np.unique(log.actions[order], return_index=True)
    positions = dict(zip(logged.tolist(),
                         (p.tolist() for p in np.split(order, first[1:]))))
    logged_rewards = log.rewards.tolist()
    arms, rewards = [], []
    idx, T = 0, len(log)
    while idx < T:
        arm = policy.act(rng)
        matches = positions.get(arm, ())
        j = bisect_left(matches, idx)
        if j == len(matches):
            break
        idx = matches[j] + 1
        reward = float(logged_rewards[idx - 1])
        policy.update_reward(arm, reward)
        arms.append(arm)
        rewards.append(reward)
    detail = {"feedback": "rs-replay", "effective_horizon": len(arms)}
    return GameTranscript(np.asarray(arms, dtype=int), np.asarray(rewards),
                          "reward", detail)

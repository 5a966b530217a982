"""Game environments and offline-log replay for the policies in
:mod:`boundslab.online_policies`.

Covers the four game variants (iid/adversarial losses crossed with
full/bandit feedback), the adversarial breaker sequences for
follow-the-leader and UCB1, logged-data replay via importance weighting and
rejection sampling, and the regret accounting helpers.  All environments are
oblivious: losses are fully determined by (spec, seed) before play and never
depend on policy state beyond the chosen index at reveal time.  So a game
returns only the arms it played, (T,) for one game and (R, T) for R, and
its regret is read from them and the env's cells or arm means.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from boundslab.divergences import _check_count, _check_unit
from boundslab.online_policies import FixedPolicy, HedgePolicy, UCB1Policy


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# Loss cells per array pass (at least one round): a block of a batched
# bandit game or of a fixed-rate Hedge game, so their memory is bounded,
# whatever the horizon.
BLOCK_CELLS = 1 << 14

# Rounds per block of Python rows that an env's ``row`` keeps, and that the
# per-round full-information loop plays at a time: about 30 KiB at K = 2,
# small enough that a series' envs held at once barely show in memory.
ROW_BLOCK = 256

# The most floats one sample, bound grid, loss table, block of loss cells,
# series or policy row may hold: 2**27, 1 GiB as float64.  A config's size
# fields and a log's K are capped so that what they size fits.
MAX_CELLS = 2 ** 27


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, a bijective 64-bit scramble, over numpy uint64,
    whose arithmetic wraps modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _threshold(mean: float) -> int:
    """The number of 64-bit words b with ``float(b) / 2**64 < mean``, for a
    mean in [0, 1].  Rounding b to a double is monotone in b, so these words
    are exactly those below the count.  ``mean * 2**64`` is exact, and a word
    more than 2**11 (an ulp of the largest words) below its ceiling rounds
    below it, so a bisection over the 2**11 words under that ceiling finds
    the count in 11 steps.  The count is below 2**64 even for a mean of 1,
    as the largest words round up to 2**64."""
    scaled = mean * 2.0 ** 64
    high = math.ceil(scaled)  # float(high) >= scaled: no word from it on counts
    low = max(0, high - 2 ** 11)  # every word below low counts
    while low < high:
        mid = (low + high) // 2
        if float(mid) < scaled:
            low = mid + 1
        else:
            high = mid
    return low


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
    """What one offline replay played, a round at a time: the arms and their
    rewards, as ``detail["feedback"]`` says (iw-replay: the estimates r̃;
    rs-replay: the accepted rewards)."""

    arms: np.ndarray
    payoffs: np.ndarray
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.arms) != len(self.payoffs):
            raise ValueError("arms and payoffs must have equal length")

    def __len__(self) -> int:
        return len(self.arms)


def _row(self, t: int) -> list[float]:
    """The K losses of round ``t``, as a fresh list of floats: changing it
    changes no later read.  They are copied from a block of Python rows, the
    ``ROW_BLOCK`` rounds from the multiple of ``ROW_BLOCK`` at or below t,
    that the env's own ``blocks`` makes when t falls outside the block held.
    A negative t, or one at or past the env's ``horizon``, raises a
    ValueError."""
    i = t - self._t0
    if not 0 <= i < len(self._rows):
        if not 0 <= t < self.horizon:
            raise ValueError(f"round {t} outside [0, {self.horizon})")
        t0 = t - t % ROW_BLOCK
        t1 = min(t0 + ROW_BLOCK, self.horizon)
        self._t0, self._rows = t0, type(self).blocks([self], t0, t1)[0].tolist()
        i = t - t0
    return self._rows[i][:]


def _loss(self, t: int, a: int) -> float:
    """Entry ``a`` of ``row(t)``; an arm outside [0, K) raises a
    ValueError, as a round outside the horizon does."""
    if not 0 <= a < self.K:
        raise ValueError(f"arm {a} outside [0, {self.K})")
    return self.row(t)[a]


class BernoulliEnv:
    """Stochastic losses: each cell (t, a) is an independent Bernoulli draw
    with mean ``means[a]``, a function of (seed, t, a) alone, so that full
    and bandit runs over the same seed agree on every revealed entry and the
    reveal order never changes a value.  Every cell comes from one block
    generator, ``blocks``; ``row`` and ``loss`` are the ones ``MatrixEnv``
    has, and read a block of rows that ``blocks`` makes.  There is no last
    round."""

    horizon = math.inf
    # in each class's own namespace, where perfbench's tracer wraps them
    row, loss = _row, _loss

    def __init__(self, means: Sequence[float], seed: int) -> None:
        means = [float(m) for m in means]
        if any(not 0.0 <= m <= 1.0 for m in means):
            raise ValueError("all means must lie in [0, 1]")
        if not means:
            raise ValueError("need at least one arm")
        self.means = tuple(means)
        self.K = len(means)
        self._thresholds = tuple(map(_threshold, means))
        seed = int(_check_count(seed, "seed", 0))
        seed_bits = np.array([seed & _MASK64], dtype=np.uint64)
        self._seed_state = int(_mix64_array(seed_bits)[0])
        self._t0, self._rows = 0, []

    @staticmethod
    def blocks(envs: Sequence["BernoulliEnv"], t0: int, t1: int) -> np.ndarray:
        """The rows ``row(t)`` for t in [t0, t1) of each env, as an
        (R, t1 - t0, K) array: the same splitmix64 over numpy uint64, for
        the R seed states at once.  Cell (t, a) is a loss when its word b
        lies below arm a's threshold (see ``_threshold``), that is when
        ``float(b) / 2**64 < means[a]``, compared as integers."""
        K = envs[0].K
        states = np.array([env._seed_state for env in envs], dtype=np.uint64)
        cells = np.arange(t0 * K, t1 * K, dtype=np.uint64) * np.uint64(_GOLDEN)
        bits = _mix64_array(states[:, None] + cells)
        thresholds = np.array([env._thresholds for env in envs], dtype=np.uint64)
        return (bits.reshape(len(envs), t1 - t0, K)
                < thresholds[:, None, :]).astype(float)


class MatrixEnv:
    """Adversarial losses read from an explicit T x K matrix fixed before
    play; ``horizon`` is T.  ``row`` and ``loss`` are the ones
    ``BernoulliEnv`` has, and read a block of rows that ``blocks`` copies."""

    row, loss = _row, _loss

    def __init__(self, matrix) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError("need a T x K loss matrix")
        # NaN fails; an empty matrix, of no rounds, has no min to check
        if matrix.size and not (0.0 <= matrix.min() and matrix.max() <= 1.0):
            raise ValueError("loss entries must lie in [0, 1]")
        self.matrix = matrix
        self.K = matrix.shape[1]
        self.horizon = matrix.shape[0]
        self._t0, self._rows = 0, []

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
    matrix = np.zeros((_check_count(T, "T", 2), 2))
    matrix[0] = (0.5, 0.0)
    for t in range(1, T):
        matrix[t] = (0.0, 1.0) if t % 2 == 1 else (1.0, 0.0)
    return matrix


def make_ucb_breaker(T: int) -> tuple[np.ndarray, list[int]]:
    """Two-arm oblivious reward matrix that makes deterministic UCB1 suffer
    linear regret: improved UCB1 (fixed init order, lowest-index ties) is
    simulated offline and the arm it is about to pull is assigned a low
    reward while the other arm gets a high one.  Rewards are interior to
    [0, 1] with small per-arm offsets so the arms never tie within a round.
    Returns the matrix and the predicted UCB1 trajectory; validated by
    simulation, not proved.  The simulated UCB1 plays the round robin
    t mod 2 until its radius gap falls under the 1e-6 offset, at round
    27339.
    """
    _check_count(T, "T", 4)
    low, high = 0.1, 0.9
    probe = UCB1Policy(2, parametrization="improved")
    rewards = np.empty((T, 2))
    trajectory = []
    for t in range(T):
        arm = probe.act()
        for a in range(2):
            base = low if a == arm else high
            rewards[t, a] = base - a * 1e-6
        probe.update_reward(arm, rewards[t, arm])
        trajectory.append(arm)
    return rewards, trajectory


def parse_log(lines: Iterable[str]) -> tuple[int, BanditLog]:
    """Read a full log: a "K=<int>" header line with K in [1, MAX_CELLS],
    then one record per line of 12 whitespace-separated integers laid out
    as action id in [0, K), binary reward, then ten features (binary by
    convention, not checked).  Blank lines and '#'-prefixed comment lines
    are skipped.  The first malformed line raises a ValueError that names
    it.

    When the first line is exactly "K=<ASCII digits>\n" with such a K, the
    lines are collected and a log in exactly ``write_log``'s digit layout is
    read by ``_read_digit_table`` as one byte grid.  Any other log goes
    through ``_scan_log``, one pass over the lines that checks each record
    as it reads it, and streams the lines when the first one is not such a
    header.  Each token is read by Python's ``int``, which also reads signs,
    underscores and non-ASCII digits.  A value outside the 64-bit integer
    range is named only when no line fails another check.  A line that
    cannot be read raises its OSError or UnicodeDecodeError, unless a line
    before it is malformed."""
    lines = iter(lines)
    read = []
    try:
        read.extend(islice(lines, 1))
        K = _layout_header(read[0]) if read else None
        if K is not None:
            read.extend(lines)  # the byte grid can still apply
    except (OSError, UnicodeDecodeError):
        _scan_log(read)  # a bad record before the unreadable line is named
        raise
    if K is not None:
        parsed = _read_digit_table(K, read[1:])
        if parsed is not None:
            return parsed
    K, values, overflow = _scan_log(chain(read, lines))
    if K is None:
        raise ValueError("log has no 'K=<int>' header")
    if overflow is not None:
        raise ValueError(f"line {overflow}: feature outside the 64-bit "
                         "integer range")
    table = np.array(values, dtype=np.int64).reshape(-1, LOG_FIELDS)
    return K, BanditLog(table[:, 0], table[:, 1], table[:, 2:])


def _scan_log(lines: Iterable[str]) -> tuple[int | None, list[int],
                                             int | None]:
    """(K or None, values, overflow line) of ``parse_log``'s lines, in one
    pass: the header is read and checked, comments and blank lines are
    skipped, and each record is checked as it is read, for its field count,
    Python's ``int`` of each token, an action in [0, K) and a reward of 0 or
    1; the first that fails raises.  ``values`` holds the records' integers
    in order, and the overflow line is the first with a value outside the
    64-bit integer range, or None."""
    K = overflow = None
    values = []
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
            if K > MAX_CELLS:
                raise ValueError(f"line {lineno}: K must be at most 2**27, "
                                 f"as a policy holds K floats a row")
            continue
        if len(fields) != LOG_FIELDS:
            raise ValueError(f"line {lineno}: expected {LOG_FIELDS} "
                             f"fields, got {len(fields)}: {raw.strip()!r}")
        try:
            record = list(map(int, fields))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer token in record "
                             f"{raw.strip()!r}") from exc
        action, reward = record[0], record[1]
        if not 0 <= action < K:
            raise ValueError(f"line {lineno}: action {action} outside [0, {K})")
        if reward not in (0, 1):
            raise ValueError(f"line {lineno}: reward must be 0 or 1, got {reward}")
        if overflow is None and not (-2 ** 63 <= min(record)
                                     and max(record) < 2 ** 63):
            overflow = lineno
        values += record
    return K, values, overflow


def _layout_header(line) -> int | None:
    """K of a "K=<ASCII digits>\n" header line with K in [1, MAX_CELLS],
    else None."""
    if not isinstance(line, str):
        return None
    digits = line[2:-1]
    if not (line.startswith("K=") and line.endswith("\n")
            and digits.isascii() and digits.isdigit()):
        return None
    try:
        K = int(digits)
    except ValueError:  # past int's digit limit it raises, as in the loop
        return None
    return K if 1 <= K <= MAX_CELLS else None


# The bytes between the digits of a record in ``write_log``'s digit layout:
# a space after each of the first eleven, a newline after the last.
_DIGIT_SEPARATORS = np.frombuffer(b" " * (LOG_FIELDS - 1) + b"\n",
                                  dtype=np.uint8)


def _read_digit_table(K: int, records: list[str]
                      ) -> tuple[int, BanditLog] | None:
    """``parse_log``'s result, read as ``_digit_table`` writes it, when the
    records after a "K=<ASCII digits>\\n" header are all 24 characters:
    twelve single ASCII digits, each followed by a space or, the last, by a
    newline, with every action below K and every reward 0 or 1.  Otherwise
    None, and ``parse_log`` takes its line loop."""
    T, width = len(records), 2 * LOG_FIELDS + 1
    try:
        # each record, then a NUL: a line of any other length puts a NUL in
        # a column that must hold a digit or a separator
        body = "\0".join(records + [""])
    except TypeError:  # a line that is not a str
        return None
    if not body.isascii() or len(body) != width * T:
        return None
    grid = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(T, width)
    values = grid[:, :-1:2] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    if ((values > 9).any() or (grid[:, 1::2] != _DIGIT_SEPARATORS).any()
            or (values[:, 0] >= min(K, 10)).any() or (values[:, 1] > 1).any()):
        return None
    table = values.astype(np.int64)
    return K, BanditLog(table[:, 0], table[:, 1], table[:, 2:])


def write_log(path, K: int, log: BanditLog) -> None:
    """Write ``log`` in the format ``parse_log`` reads: the header, then one
    line per record of its 12 integers, each written as by ``%d`` and
    separated by single spaces.

    When every value is an integer in 0..9 (the synthetic logs) each record
    is exactly 24 bytes, so the records are written from one (T, 24) uint8
    table of digits, spaces and newlines; any other log is formatted one
    line at a time.  Both give the same bytes."""
    _check_count(K, "K")
    table = _digit_table(log)
    if table is not None:
        with open(path, "wb") as handle:
            handle.write(f"K={K}\n".encode("ascii"))
            handle.write(table)
        return
    rows = np.column_stack((log.actions, log.rewards, log.features)).tolist()
    line = " ".join(["%d"] * LOG_FIELDS) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(f"K={K}\n")
        handle.writelines(line % tuple(row) for row in rows)


def _digit_table(log: BanditLog) -> np.ndarray | None:
    """The records of ``log`` as the (T, 24) uint8 bytes of their lines when
    every value is a bool or integer in 0..9; otherwise None."""
    columns = (log.actions, log.rewards, log.features)
    if any(c.dtype.kind not in "biu" for c in columns):
        return None
    if len(log) and any(c.min() < 0 or c.max() > 9 for c in columns):
        return None
    table = np.empty((len(log), 2 * LOG_FIELDS), dtype=np.uint8)
    table[:, 1::2] = ord(" ")
    table[:, -1] = ord("\n")
    table[:, 0] = log.actions
    table[:, 2] = log.rewards
    table[:, 4::2] = log.features
    table[:, ::2] += ord("0")
    return table


def synthesize_uniform_log(means: Sequence[float], T: int, seed: int,
                           ) -> BanditLog:
    """Uniform-logging synthetic log: action ~ Uniform(K), reward ~
    Bernoulli(means[action]), ten iid Bernoulli(1/2) features."""
    means = [_check_unit(m, "means") for m in means]
    rng = np.random.default_rng(_check_count(seed, "seed", 0))
    actions = rng.integers(0, len(means), size=_check_count(T, "T", 0))
    rewards = (rng.random(T) < np.asarray(means)[actions]).astype(np.int64)
    features = rng.integers(0, 2, size=(T, LOG_FIELDS - 2))
    return BanditLog(actions, rewards, features)


def play_full_information(policy, env, T: int, rng=None) -> np.ndarray:
    """Run a full-information game and return its (T,) int array of arms:
    the policy picks an arm, incurs that entry, then sees the whole loss
    column.  Score the arms with ``hindsight_regret`` on the env's cells
    (``type(env).blocks([env], 0, T)[0]``) or with ``pseudo_regret``; the
    incurred losses are ``cells[np.arange(T), arms]``.

    A Hedge whose rate holds over a period (``policy.fixed_rate``) plays a
    block of rounds at a time with ``policy.play_rows``: a block ends after
    ``max(1, BLOCK_CELLS // K)`` rounds, the cell bound of a ``play_bandit``
    block at R = 1, or at the policy's next period start, and reads its rows
    from ``type(env).blocks``.  A game past the env's ``horizon`` plays up
    to it and raises what ``row`` raises there.  Any other policy plays
    ``ROW_BLOCK`` rounds to a block, each one ``act`` and one
    ``observe(env.row(t))``; ``policy.act(u)`` takes one uniform per round
    when ``policy.draws`` (Hedge) and None otherwise (FTL).  The uniforms
    are drawn from ``rng`` per block, which gives the same doubles and
    leaves ``rng`` in the same state as one draw per round.
    """
    _check_count(T, "T", 0)
    if policy.draws and rng is None:
        raise ValueError("a policy that draws needs a random stream")
    blockwise = isinstance(policy, HedgePolicy) and policy.fixed_rate
    step = max(1, BLOCK_CELLS // env.K)
    act, row_of, observe = policy.act, env.row, policy.observe
    arms = np.empty(T, dtype=int)
    t0 = 0
    while t0 < T:
        if blockwise:
            t1 = min(T, t0 + step, t0 + policy.period_end - policy.t)
            stop = min(t1, env.horizon)
            rows = type(env).blocks([env], t0, stop)[0]
            arms[t0:stop] = policy.play_rows(rows, rng.random(t1 - t0)[:stop - t0])
            if stop < t1:
                raise ValueError(f"round {stop} outside [0, {stop})")
        else:
            t1 = min(T, t0 + ROW_BLOCK)
            uniforms = (rng.random(t1 - t0).tolist() if policy.draws
                        else [None] * (t1 - t0))
            for t, u in zip(range(t0, t1), uniforms):
                arms[t] = act(u)
                observe(row_of(t))
        t0 = t1
    return arms


def play_bandit(policy, envs: Sequence, T: int,
                rngs: Sequence | None = None) -> np.ndarray:
    """Run R bandit games at once, one per row of ``policy``, and return
    their (R, T) int array of arms: row r plays ``envs[r]`` with random
    stream ``rngs[r]``, and only the chosen entry is revealed to it.

    ``policy`` holds R independent rows (``EXP3Policy``, ``UCB1Batch``):
    ``act_rows(u)`` gives every row's arm for the next round, from one
    uniform per row when ``policy.draws``, and ``update_rows(arms, losses)``
    takes their losses.  The envs must share
    one class with a ``blocks`` method (``BernoulliEnv``, ``MatrixEnv``) and
    the policy's arm count.  Loss cells and uniforms are made a block of
    rounds at a time (``BLOCK_CELLS``), and every cell of a block must lie
    in [0, 1].  A block is laid out once as one row of R·K cells per round,
    so a round reads its R losses with one flat index.  The policy is left
    in its state after T rounds.
    """
    _check_count(T, "T", 0)
    R, K = policy.R, policy.K
    if len(envs) != R:
        raise ValueError(f"need one env per policy row, got {len(envs)} for R={R}")
    if any(type(env) is not type(envs[0]) or env.K != K for env in envs):
        raise ValueError(f"envs must share one class and K={K}")
    if policy.draws and (rngs is None or len(rngs) != R
                         or len({id(rng) for rng in rngs}) != R):
        raise ValueError("need one random stream of its own per repetition")
    offsets = np.arange(R) * K  # row starts in a round's R·K cells
    act_rows, update_rows = policy.act_rows, policy.update_rows
    arms = np.empty((R, T), dtype=int)
    step = max(1, BLOCK_CELLS // (R * K))
    for t0 in range(0, T, step):
        t1 = min(T, t0 + step)
        cells = type(envs[0]).blocks(envs, t0, t1)
        if not (0.0 <= cells.min() and cells.max() <= 1.0):
            raise ValueError("loss cells must lie in [0, 1]")
        rounds = cells.transpose(1, 0, 2).reshape(t1 - t0, R * K)
        uniforms = (np.stack([rng.random(t1 - t0) for rng in rngs], axis=1)
                    if policy.draws else [None] * (t1 - t0))
        for t, u, cells_t in zip(range(t0, t1), uniforms, rounds):
            arm = act_rows(u)
            update_rows(arm, cells_t[offsets + arm])
            arms[:, t] = arm
    return arms


def hindsight_regret(loss_matrix, arms: Sequence[int]) -> np.ndarray:
    """Cumulative regret against the best single arm in hindsight,
    recomputed from the stored oblivious matrix, of the (T,) arms of one
    game or, row by row, the (R, T) arms of R games on the same matrix.
    Each row accumulates along the rounds, so it is the 1-D result of its
    arms to the bit."""
    matrix = np.asarray(loss_matrix, dtype=float)
    arms = _check_arms(arms, matrix.shape[1])
    T = arms.shape[-1]
    if T > len(matrix):
        raise ValueError(f"arms must hold at most one arm per loss-matrix row "
                         f"({len(matrix)}), got {T}")
    regret = matrix[np.arange(T), arms]
    np.cumsum(regret, axis=-1, out=regret)
    regret -= np.min(np.cumsum(matrix[:T], axis=0), axis=1)
    return regret


def pseudo_regret(arms: Sequence[int], means: Sequence[float]) -> np.ndarray:
    """Cumulative sum of the per-round suboptimality gaps of the chosen arms
    in a stochastic loss environment with known means, of (T,) or, row by
    row, (R, T) arms, as ``hindsight_regret`` takes them."""
    means = np.asarray(means, dtype=float)
    regret = (means - means.min())[_check_arms(arms, len(means))]
    np.cumsum(regret, axis=-1, out=regret)
    return regret


def _check_arms(arms: Sequence[int], K: int) -> np.ndarray:
    """``arms`` as ints in [0, K), which numpy would read from the end."""
    arms = np.asarray(arms, dtype=int)
    _check_count(arms.min(initial=0), "arms", 0, K)
    _check_count(arms.max(initial=0), "arms", 0, K)
    return arms


def _check_replay(policy, log: BanditLog, K: int, rng) -> None:
    """Both replays' contract, checked before any round: the policy plays K
    arms, one that ``draws`` has ``rng``, each logged action is in [0, K)."""
    _check_count(K, "K")
    if policy.K != K:
        raise ValueError(f"the policy plays {policy.K} arms, the log has {K}")
    if policy.draws and rng is None:
        raise ValueError("a policy that draws needs a random stream")
    outside = (log.actions < 0) | (log.actions >= K)
    if outside.any():
        action = int(log.actions[outside.argmax()])
        raise ValueError(f"logged action {action} outside [0, {K})")


def replay_importance_weighted(policy, log: BanditLog, K: int,
                               rng=None) -> GameTranscript:
    """Evaluate/train a policy offline on a uniformly-logged bandit log.

    Every record is consumed: the policy acts, the estimated reward is
    r̃ = K * r * 1[policy action = logged action] (inverse of the 1/K logging
    propensity, range [0, K]), and the policy, which must take rewards in
    [0, K], ingests r̃ with ``update_reward``, the one per-record contract of
    both replays.  The mean of r̃ is an unbiased estimate of the policy's value.

    A ``FixedPolicy`` never learns and draws nothing, so its replay is one
    array step with the bytes of the per-record loop: the arms are its arm,
    r̃ is K * r where the logged action is the arm and 0.0 elsewhere, and
    ``policy.t`` advances by the log length.  Every other policy acts and
    updates once per record, after ``_check_replay``.
    """
    _check_replay(policy, log, K, rng)
    if type(policy) is FixedPolicy:
        arms = np.full(len(log), policy.arm, dtype=int)
        estimates = np.where(log.actions == policy.arm, K * log.rewards,
                             0).astype(np.float64)
        policy.t += len(log)
    else:
        arms, estimates = [], []
        for action, reward in zip(log.actions.tolist(), log.rewards.tolist()):
            arm = policy.act(rng)
            r_tilde = float(K * reward) if arm == action else 0.0
            policy.update_reward(arm, r_tilde)
            arms.append(arm)
            estimates.append(r_tilde)
        arms = np.asarray(arms, dtype=int)
        estimates = np.asarray(estimates, dtype=float)
    detail = {
        "feedback": "iw-replay",
        "estimated_value": float(estimates.mean()) if len(log) else 0.0,
    }
    return GameTranscript(arms, estimates, detail)


def replay_rejection_sampling(policy, log: BanditLog, K: int,
                              rng=None) -> GameTranscript:
    """Evaluate/train a policy offline by moving to the next logged record
    whose action matches the policy's choice, feeding that (action, reward)
    as a genuine bandit round and discarding the records passed over.  The
    replay stops at the first choice with no match left.  The effective
    horizon (number of accepted rounds) is reported in ``detail``.  It
    starts with ``_check_replay``, as the importance-weighted replay does."""
    _check_replay(policy, log, K, rng)
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
                          detail)

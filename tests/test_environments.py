import hashlib
import io
import math
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boundslab import environments, online_policies
from boundslab.divergences import ProbVec
from boundslab.environments import (
    BanditLog,
    BernoulliEnv,
    GameTranscript,
    MatrixEnv,
    hindsight_regret,
    make_ftl_breaker,
    make_ucb_breaker,
    parse_log,
    play_bandit,
    play_full_information,
    pseudo_regret,
    replay_importance_weighted,
    replay_rejection_sampling,
    synthesize_uniform_log,
    write_log,
)
from boundslab.online_policies import (
    EXP3Policy,
    EXP4Policy,
    FTLPolicy,
    FixedPolicy,
    HedgePolicy,
    UCB1Batch,
    UCB1Policy,
    _hedge_weights,
    doubling_schedule,
    hedge_eta,
    sample_arm,
    sample_arms,
)


class TestBernoulliEnv:
    def test_zero_means_zero_losses(self):
        env = BernoulliEnv([0.0, 0.0], seed=4)
        assert all(env.loss(t, a) == 0.0 for t in range(50) for a in range(2))

    def test_all_half_means_have_no_gap(self):
        env = BernoulliEnv([0.5, 0.5, 0.5], seed=9)
        rng = np.random.default_rng(1)
        arms = play_bandit(EXP3Policy(3), [env], 200, [rng])
        assert np.all(pseudo_regret(arms, env.means) == 0.0)

    def test_empirical_means_match_clt(self):
        T = 100000
        env = BernoulliEnv([0.25, 0.75], seed=2024)
        for a, mu in enumerate(env.means):
            mean = sum(env.loss(t, a) for t in range(T)) / T
            assert abs(mean - mu) <= 3 * math.sqrt(mu * (1 - mu) / T)

    def test_reveal_order_does_not_change_values(self):
        env = BernoulliEnv([0.3, 0.6], seed=7)
        forward = [(t, a, env.loss(t, a)) for t in range(20) for a in range(2)]
        env2 = BernoulliEnv([0.3, 0.6], seed=7)
        for t, a, value in reversed(forward):
            assert env2.loss(t, a) == value

    def test_full_and_bandit_agree_on_revealed_entries(self):
        env = BernoulliEnv([0.4, 0.8], seed=13)
        rows = [env.row(t) for t in range(30)]
        env2 = BernoulliEnv([0.4, 0.8], seed=13)
        for t in range(30):
            arm = t % 2
            assert env2.loss(t, arm) == rows[t][arm]

    def test_rejects_bad_means(self):
        # and a loss matrix with such an entry; NaN fails both checks
        for bad in (1.2, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                BernoulliEnv([0.5, bad], seed=0)
            with pytest.raises(ValueError, match=r"^loss entries must lie in "
                               r"\[0, 1\]$"):
                MatrixEnv([[0.5, bad]] * 5)
        with pytest.raises(ValueError):
            BernoulliEnv([], seed=0)

    def test_blocks_equal_rows(self):
        # a window across a ``row`` block edge, not aligned to it
        t0, t1 = environments.ROW_BLOCK - 60, environments.ROW_BLOCK + 40
        envs = [BernoulliEnv([0.1, 0.5, 0.9], seed=s) for s in (0, 2 ** 64 - 1, 77)]
        block = BernoulliEnv.blocks(envs, t0, t1)
        assert block.shape == (3, 100, 3)
        for env, rows in zip(envs, block):
            assert rows.tolist() == [env.row(t) for t in range(t0, t1)]

    def test_rows_match_pinned_digest(self):
        # SHA-256 of the float64 bytes of every row(t), t in [0, 600), of
        # the three seeds, computed with a pure-Python per-cell splitmix64,
        # an implementation independent of ``blocks``
        envs = [BernoulliEnv((0.1, 0.5, 0.9), s) for s in (0, 2 ** 64 - 1, 77)]
        rows = [[env.row(t) for t in range(600)] for env in envs]
        assert all(type(v) is float for r in rows for row in r for v in row)
        digest = hashlib.sha256(np.array(rows).tobytes()).hexdigest()
        assert digest == ("300fff03f6d613a0a32beb13c85bc7c630a62b552ef22b71"
                          "b2f8212a204e73dc")

    @pytest.mark.parametrize("mean", [
        0.0, 5e-324, 2.0 ** -11, 0.25, 0.35, 0.5, 0.65, 1.0 - 2.0 ** -53, 1.0,
        *np.random.default_rng(22).random(20).tolist()])
    def test_threshold_counts_the_words_below_the_mean(self, mean):
        # a word counts as a loss when float(b) / 2**64 < mean; the count is
        # a prefix of the words, so checking its two edges checks them all
        threshold = environments._threshold(mean)
        assert 0 <= threshold < 2 ** 64
        for b in (threshold - 1, threshold):
            if 0 <= b < 2 ** 64:
                assert (b < threshold) == (float(b) / 2.0 ** 64 < mean)

    def test_numpy_casts_words_as_python_floats_do(self):
        # the pins were set with cells from numpy's cast of the words to
        # float64; the thresholds, found with ``float``, keep them only if
        # that cast rounds as ``float`` does
        edges = [0, 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 53 + 3,
                 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 2 ** 10, 2 ** 63 + 2 ** 10 + 1,
                 2 ** 64 - 2 ** 11, 2 ** 64 - 2 ** 10 - 1, 2 ** 64 - 2 ** 10,
                 2 ** 64 - 1]
        seeded = np.random.default_rng(7).integers(
            0, 2 ** 64, size=20000, dtype=np.uint64, endpoint=False).tolist()
        words = edges + seeded
        cast = np.array(words, dtype=np.uint64).astype(float).tolist()
        assert cast == [float(b) for b in words]

    def test_blocks_equal_the_float_compare_of_the_words(self):
        # edge and seeded means: a cell is float(b) / 2**64 < mean
        rng = np.random.default_rng(3)
        means = [0.0, 1.0, 2.0 ** -11, *rng.random(5).tolist()]
        envs = [BernoulliEnv(means, s) for s in (0, 2 ** 64 - 1, 91)]
        block = BernoulliEnv.blocks(envs, 40, 300)
        K = len(means)
        cells = np.arange(40 * K, 300 * K, dtype=np.uint64) * np.uint64(
            environments._GOLDEN)
        states = np.array([env._seed_state for env in envs], dtype=np.uint64)
        bits = environments._mix64_array(states[:, None] + cells)
        uniform = bits.astype(float).reshape(3, 260, K) / 2.0 ** 64
        assert np.array_equal(block, (uniform < np.array(means)).astype(float))

    def test_loss_at_block_edges(self):
        # rounds [0, 600) are the pinned rows above
        edge = environments.ROW_BLOCK
        rows = [BernoulliEnv((0.1, 0.5, 0.9), 77).row(t) for t in range(600)]
        env = BernoulliEnv((0.1, 0.5, 0.9), 77)
        # forward and backward across edges, so each step may refill
        for t in (edge - 1, edge, 0, 2 * edge, 2 * edge - 1, edge + 1, 599):
            for a in range(3):
                assert env.loss(t, a) == rows[t][a]
        with pytest.raises(ValueError):
            env.loss(edge, 3)
        with pytest.raises(ValueError):
            env.row(-1)


def _row_env(kind):
    """A fresh env of each class, three arms; the matrix spans two row
    blocks and part of a third."""
    if kind == "bernoulli":
        return BernoulliEnv((0.1, 0.5, 0.9), 77)
    rng = np.random.default_rng(5)
    return MatrixEnv(rng.random((2 * environments.ROW_BLOCK + 37, 3)))


class TestRows:
    """``row`` and ``loss``, which both env classes share."""

    @pytest.mark.parametrize("kind", ["bernoulli", "matrix"])
    def test_row_is_a_fresh_list(self, kind):
        env = _row_env(kind)
        first = env.row(3)
        assert type(first) is list and first is not env.row(3)
        kept = list(first)
        first[0] = 2.0
        first.append(7.0)
        assert env.row(3) == kept

    @pytest.mark.parametrize("kind", ["bernoulli", "matrix"])
    def test_rows_equal_blocks_across_block_edges(self, kind):
        edge = environments.ROW_BLOCK
        t1 = 2 * edge + 37  # the matrix's horizon: its last round is t1 - 1
        block = type(_row_env(kind)).blocks([_row_env(kind)], 0, t1)[0]
        env = _row_env(kind)
        # out of order, so each step may refill the block held
        rounds = [edge, edge - 1, 0, t1 - 1, 2 * edge, 2 * edge - 1, edge + 1,
                  t1 - 2, 1]
        for t in rounds:
            row = env.row(t)
            assert row == block[t].tolist()
            assert all(type(v) is float for v in row)
            assert [env.loss(t, a) for a in range(3)] == row
        assert [env.row(t) for t in range(t1)] == block.tolist()

    @pytest.mark.parametrize("kind", ["bernoulli", "matrix"])
    def test_rounds_and_arms_outside_the_game_raise(self, kind):
        env = _row_env(kind)
        env.row(0)  # a block is held: a negative t must not wrap into it
        for t in (-1, -environments.ROW_BLOCK):
            with pytest.raises(ValueError, match=rf"round {t} outside \[0, "):
                env.row(t)
            with pytest.raises(ValueError, match="outside"):
                env.loss(t, 0)
        for a in (-1, 3):
            with pytest.raises(ValueError, match=rf"arm {a} outside \[0, 3\)"):
                env.loss(0, a)
        if kind == "matrix":
            for t in (env.horizon, env.horizon + environments.ROW_BLOCK):
                with pytest.raises(ValueError,
                                   match=rf"round {t} outside \[0, {env.horizon}\)"):
                    env.row(t)


    def test_a_matrix_of_no_rounds_is_an_env_of_horizon_0(self):
        env = MatrixEnv(np.zeros((0, 2)))
        assert (env.K, env.horizon) == (2, 0)
        no_round = r"^round 0 outside \[0, 0\)$"
        with pytest.raises(ValueError, match=no_round):
            env.row(0)
        # a game of no rounds plays nothing, one of a round raises
        for make in (lambda: HedgePolicy(2, variant="tight", T=1),
                     lambda: HedgePolicy(2), lambda: FTLPolicy(2)):
            arms = play_full_information(make(), env, 0,
                                         np.random.default_rng(0))
            assert arms.shape == (0,) and arms.dtype == int
            with pytest.raises(ValueError, match=no_round):
                play_full_information(make(), env, 1, np.random.default_rng(0))
        arms = play_bandit(EXP3Policy(2), [env], 0, [np.random.default_rng(0)])
        assert arms.shape == (1, 0) and arms.dtype == int


class TestFtlBreaker:
    def test_ftl_loses_every_round_after_the_first(self):
        T = 200
        matrix = make_ftl_breaker(T)
        arms = play_full_information(FTLPolicy(2), MatrixEnv(matrix), T)
        cumulative = np.cumsum(matrix[np.arange(T), arms])
        for t in range(2, T + 1):
            assert cumulative[t - 1] >= t - 1

    def test_regret_is_linear_in_horizon(self):
        T = 2000
        matrix = make_ftl_breaker(T)
        arms = play_full_information(FTLPolicy(2), MatrixEnv(matrix), T)
        best = min(matrix.sum(axis=0))
        assert abs(best - T / 2) <= 1.0
        assert hindsight_regret(matrix, arms)[-1] >= T / 2 - 1

    def test_anytime_hedge_stays_below_theorem_bound(self):
        T = 2000
        env = MatrixEnv(make_ftl_breaker(T))
        regrets = []
        for rep in range(10):
            rng = np.random.default_rng(100 + rep)
            arms = play_full_information(HedgePolicy(2), env, T, rng)
            regrets.append(hindsight_regret(env.matrix, arms)[-1])
        regrets = np.asarray(regrets)
        bound = math.sqrt(T * math.log(2))
        assert regrets.mean() <= bound + 3 * regrets.std()

    def test_domain(self):
        with pytest.raises(ValueError):
            make_ftl_breaker(1)


class TestUcbBreaker:
    def test_entries_interior_and_untied(self):
        matrix, trajectory = make_ucb_breaker(300)
        assert matrix.shape == (300, 2)
        assert matrix.min() > 0.0 and matrix.max() < 1.0
        assert len(trajectory) == 300
        for row in matrix:
            assert len(set(row.tolist())) == 2

    def test_ucb_follows_prediction_and_suffers_linear_regret(self):
        T = 10000
        matrix, trajectory = make_ucb_breaker(T)
        policy = UCB1Policy(2, parametrization="improved")
        earned = 0.0
        for t in range(T):
            arm = policy.act()
            assert arm == trajectory[t]
            earned += matrix[t, arm]
            policy.update_reward(arm, matrix[t, arm])
        best = matrix.sum(axis=0).max()
        assert best - earned >= 0.3 * T

    def test_exp3_is_fine_on_the_same_matrix(self):
        T, K = 4000, 2
        matrix, _ = make_ucb_breaker(T)
        losses = 1.0 - matrix
        games = play_bandit(EXP3Policy(K, R=20),
                            [MatrixEnv(losses) for _ in range(20)], T,
                            [np.random.default_rng(rep) for rep in range(20)])
        regrets = hindsight_regret(losses, games)[:, -1]
        assert np.mean(regrets) <= math.sqrt(2 * K * T * math.log(K))

    @pytest.mark.parametrize("K, first", [(2, 27339), (3, 25787)])
    def test_the_round_robin_ends_once_the_radius_gap_is_below_the_offsets(
            self, K, first):
        # UCB1 plays the round robin t mod K until its radius gap falls
        # under the 1e-6 arm offsets; at K = 3 on the K-arm test data
        _, trajectory = _ucb_breaker_game(first + 1, K)
        assert trajectory[:first] == [t % K for t in range(first)]
        assert trajectory[first] != first % K

    def test_the_k_arm_test_data_is_the_breaker_at_two_arms(self):
        assert np.array_equal(_ucb_breaker(600, 2), make_ucb_breaker(600)[0])


# Every bandit policy the runner builds, as (arm count, horizon, rows) ->
# fresh policy.
BANDIT_KINDS = {
    "ucb1_original": lambda K, T, R: UCB1Batch(K, parametrization="original", R=R),
    "ucb1_improved": lambda K, T, R: UCB1Batch(K, parametrization="improved", R=R),
    "exp3_anytime": lambda K, T, R: EXP3Policy(K, R=R),
}

# SHA-256 of ``_game_digest`` over the R = 4 games of each kind below, as
# the scalar loop act -> env.loss -> update of the former one-game EXP3
# class played them, one repetition at a time.
SCALAR_LOOP_DIGESTS = {
    ("exp3_anytime", "bernoulli"): "f5c498bf40236d752359f6878a6b17c83b0a3a5fbddde25b877096364c49a1ec",
    ("exp3_anytime", "ucb_breaker"): "7e55c90a2e3e6030a95ceef42e46f15e113053bc64512a6be8fe19a5a78b804b",
}
# SHA-256 of ``_record_draws`` over the same games: every row drawn from,
# the R rows of a round together, then each row's final loss estimates.
SCALAR_LOOP_DIST_DIGESTS = {
    ("exp3_anytime", "bernoulli"): "cd77fc805ac5a39956579ce3335c7fd5279851d80f0b32e19b9c85095528f6a5",
    ("exp3_anytime", "ucb_breaker"): "88cb79e69fb710d1b84ae8e7ff1dc17472ad85cde3d0ac748786a9d6591da69c",
}
# (draws, games) SHA-256 pairs of the same R = 4 EXP3 games, K = 3 above,
# at each arm count of the ``ucb_vs_exp3`` preset's k_grid, and at K = 5,
# where division by K rounds, as at K = 3; taken when the rate took ln K in
# every round, through a function that also served a fixed-horizon and an
# explicit rate, and unchanged since ln K is taken once per policy.
EXP3_ARM_COUNT_DIGESTS = {
    (2, "bernoulli"): ("7ae54b7646c51a79a4ac65756fa6458d2903f0eb0db17bed2ea4dc5df220b914",
        "f3996bb51df3bb09ddf74830f73ed7a2b6e68e21ff5de132897ab61aca71d2f6"),
    (2, "ucb_breaker"): ("86c96601e584645b9b3ccc2eee36ba01ec70dc662d62e2184da9e411e7e46a8c",
        "a5bc217ecaf738fd8b7bf301909ea409e4061e244898b1dda39d9896d4977bdb"),
    (4, "bernoulli"): ("7aa6bf397dc737bd486422c17629e6ca506e1d7bdd04be57ca9280855b8698ca",
        "f998a86737fd356208c09fbcb0a1f0478d4eaa0a960edf65e9a3d2f15dfc2642"),
    (4, "ucb_breaker"): ("1821b2b80c63a9b57694d278ab0ad662f835d7e3fd988fbd49a55f56669049db",
        "c5e8a20ced8234023765e3b06b2b672a139c4d847695c95aafb49da14130baaa"),
    (5, "bernoulli"): ("60777ee708dc265046426d1f2cde9362d3b41f095b0b87ce64cab0b8fa7973c8",
        "9b5fe7dd0de1ab09902cb71e29ea5d26be8127e1e1ca0cd8727693c3ecbdbdd4"),
    (5, "ucb_breaker"): ("323458b748d177b51a7c4cba87e0517ec2985dda423d33cb24cdc8b01ff2ecad",
        "d63414f8517fe6cc7735846c09cf4abb3a350486acb79603c2c98b664983a446"),
    (8, "bernoulli"): ("bae125dfcdbf8a1d98cc794c36a5b843b60dab8aa3819e437f9644a58d17f608",
        "e5cdbdf63f0354a55beaf6cc233b30271389836bd3af90f85f22b00a1e2a5674"),
    (8, "ucb_breaker"): ("3dd78aefc4ebde1ded446d29eb67c0959dc2e2ab843c6bb917cd301c608fa231",
        "128bf81a42b95875df768133d8a2f04aa6eda79b50d1fe0bec955a9688ed203c"),
    (16, "bernoulli"): ("11b741dcc3e6b2dc67d78928f80feb77807437f570e6aad3ff0dda634a580165",
        "63e60c9b9574dcde363b8847aefaec68598ad2648c5a70ee7a4a468182eadbcb"),
    (16, "ucb_breaker"): ("7146159aca80a2446ac4c0c1e4937a6361b6a5adc23f52335fd887146125e94f",
        "12d1a19260225e312c2c61bf7519e5228f90b3dde36d3a522ff690eb909b0ff0"),
}


def _record_draws(monkeypatch):
    """A SHA-256 fed the ``float.hex`` of every distribution row a game
    draws an arm from, in draw order, by wrapping ``sample_arms`` and
    ``sample_arm`` in ``online_policies``; a block of rows hashes as the
    same rows drawn one round at a time."""
    h = hashlib.sha256()

    def rows(p, u):
        for row in p.tolist():
            _hash_row(h, row)
        return sample_arms(p, u)

    def row(dist, u):
        _hash_row(h, dist)
        return sample_arm(dist, u)

    monkeypatch.setattr(online_policies, "sample_arms", rows)
    monkeypatch.setattr(online_policies, "sample_arm", row)
    return h


def _hash_row(h, row) -> None:
    h.update(repr([float.hex(v) for v in row]).encode())


def _exp3_digests(policy, envs, games, rngs, drawn) -> tuple[str, str]:
    """The SHA-256 of every row EXP3 ``games`` (their arms, one a row) drew
    from, then each row's final loss estimates, and their ``_game_digest``."""
    estimates = policy.estimates.tolist()
    for row in estimates:
        _hash_row(drawn, row)
    return drawn.hexdigest(), _game_digest(
        (game.tolist(), _payoffs(env, game), row, rng.random())
        for env, game, row, rng in zip(envs, games, estimates, rngs))


def _payoffs(env, arms) -> list[float]:
    """The losses a game that played ``arms`` on ``env`` incurred, read from
    the env's cells."""
    T = len(arms)
    return type(env).blocks([env], 0, T)[0][np.arange(T), arms].tolist()


def _game_digest(games) -> str:
    """One SHA-256 over (arms, losses, final per-arm state, next draw of the
    stream) of each game, floats as ``float.hex``."""
    h = hashlib.sha256()
    for arms, losses, state, next_draw in games:
        h.update(repr((arms, [float.hex(float(v)) for v in losses],
                       [float.hex(float(v)) for v in state],
                       float.hex(next_draw))).encode())
    return h.hexdigest()


def _bandit_envs(kind: str, K: int, T: int, R: int):
    if kind == "bernoulli":
        means = [0.3 + 0.4 * a / (K - 1) for a in range(K)]
        return [BernoulliEnv(means, seed=1000 + r) for r in range(R)]
    return [MatrixEnv(1.0 - _ucb_breaker(T, K)) for _ in range(R)]


def _ucb_breaker(T: int, K: int) -> np.ndarray:
    """Test data: the UCB breaker's rewards at K arms, built as
    ``make_ucb_breaker`` built them before it fixed two arms, since the
    games pinned on them at more arms predate that.  Improved UCB1's next
    arm gets 0.1 and every other arm 0.9, each less 1e-6 times its index."""
    probe = UCB1Policy(K, parametrization="improved")
    rewards = np.empty((T, K))
    for t in range(T):
        arm = probe.act()
        rewards[t] = [(0.1 if a == arm else 0.9) - a * 1e-6 for a in range(K)]
        probe.update_reward(arm, rewards[t, arm])
    return rewards


def _ucb_breaker_game(T: int, K: int) -> tuple[np.ndarray, list[int]]:
    """(rewards, trajectory) of the UCB breaker: ``make_ucb_breaker`` at two
    arms, else the K-arm test data, whose trajectory is the arm of each
    round's lowest reward."""
    if K == 2:
        return make_ucb_breaker(T)
    rewards = _ucb_breaker(T, K)
    return rewards, rewards.argmin(axis=1).tolist()


def _exp4_advice(kind: str, N: int, K: int):
    """advice(t) of N experts over K arms: a fixed matrix, one arm per
    expert rotating with t (the last expert uniform), or Dirichlet rows,
    whose ``math.fsum`` is often off 1.0 and so divides them again."""
    if kind == "static":
        q = 1.0 + (7 * np.arange(N)[:, None] + 3 * np.arange(K)) % 5
        q = q / q.sum(axis=1, keepdims=True)
        return lambda t: q

    def advice(t):
        if kind == "dirichlet":
            return np.random.default_rng([7, t]).dirichlet(np.ones(K), size=N)
        q = np.zeros((N, K))
        q[np.arange(N), (np.arange(N) + t) % K] = 1.0
        q[-1] = 1.0 / K
        return q
    return advice


# SHA-256 of ``_game_digest`` over the R = 3 games (final state: the expert
# losses) of each (advice, env, N, K) below, as the loop act(advice(t), rng)
# -> env.loss -> update of the former one-game EXP4 class played them, one
# repetition at a time, at the rate sqrt(2 ln N / (K T)).  The N = K = 3
# rows were pinned from ``play_bandit`` when EXP4 still took an explicit
# rate, whose rows of that shape they replace.
EXP4_DIGESTS = {
    ("static", "bernoulli", 4, 2): "61636cee2d5e85ef81c5b0ffa876da0123f96f9e260586eb5a0792cdf048f793",
    ("static", "bernoulli", 3, 3): "36b5ce9d6aba6dc1f2bc07e281e88120579c20f9ccf97a3170b1de1a3a1a2743",
    ("static", "bernoulli", 5, 4): "6ac9f44c0eea568429b979bb15c5d49bc483d3a40d06f4e9560b6daed5ae5d1b",
    ("static", "matrix", 4, 2): "22c04dbe364542e30514956f2bccb1deadb4de72ad0caca0e51add14fd4cccd3",
    ("static", "matrix", 3, 3): "db0768fd3e756075f9dbb80eae188c63810b90f1d6df9d3cb8e673fef38a3b93",
    ("static", "matrix", 5, 4): "b938d641f455b3cb5618769b85bf11966a354638ec942b616902d166c36771ca",
    ("varying", "bernoulli", 4, 2): "23c521c2188d368b894b4fc0965a7e24133c388827a6a4df8e39827fa1bf9507",
    ("varying", "bernoulli", 3, 3): "940f5a12de4326fef6284f9f65d831b587d55a5ee664fa23b9c82bd551ecbfa5",
    ("varying", "bernoulli", 5, 4): "52f541ebcdfc02868e30a51023fb7f3927a5064052ecd930b6f039097848adf7",
    ("varying", "matrix", 4, 2): "e44f4597b263923c7f634fa2f5511eef9f15a8ef864275a32eb9ccd46ee02297",
    ("varying", "matrix", 3, 3): "57ab8a0bd56fc99dc6cac895dee6750e53da7f9010ae2dffd8673a473fde1217",
    ("varying", "matrix", 5, 4): "c01bcbb4866a60772766fdba3fe7627871f4f25cf1dc3df5a5931fb989dc8bfe",
    ("dirichlet", "bernoulli", 4, 2): "c71e4c87052d3e12cae55203785c2bf1313c99f40f3a3b2b6c23af689b0cc754",
    ("dirichlet", "bernoulli", 3, 3): "40ce8e9170e30b086da8db857770b9ebfd986699b964fe4a348ac95d13846abe",
    ("dirichlet", "bernoulli", 5, 4): "3b40b25d83f5ef74f92c6651e26246358e7a6b08d588b69a2badb90cb7700a18",
    ("dirichlet", "matrix", 4, 2): "bbd5185d9bf817ac476cb9ba359f3041824a94fa23c984262f582563d786c149",
    ("dirichlet", "matrix", 3, 3): "f5fa3283310ea75f70568cd7a392346d083fc1f8131bd8797360cbc00bc3ba23",
    ("dirichlet", "matrix", 5, 4): "0fac734756d90b7f59a6125c99924e28072956b1865af7102347470f405925f6",
}
# SHA-256 of ``_record_draws`` over the same games: every row drawn from,
# then each row's final expert loss estimates.
EXP4_DIST_DIGESTS = {
    ("static", "bernoulli", 4, 2): "58b20a3b19abc9bbb14619c7d6a61dd1e78f9e14a11de50b2ebbdb7aa2228814",
    ("static", "bernoulli", 3, 3): "8220988490cf3fb549072c9b74c3d89c57d3c4be54d5b1dc2a556fe4f59049f5",
    ("static", "bernoulli", 5, 4): "98e9bb69d7df9ae188a40646dd9b15487680c842b95e32dba388dc3fd4891213",
    ("static", "matrix", 4, 2): "3b92d24e024c6a593ba82e028d86266783f6b66cf7664a0f20fb85998f0dec1a",
    ("static", "matrix", 3, 3): "1ea45b21287c2d6db407d81163926149ebba1de1407b00b989f9f06436428688",
    ("static", "matrix", 5, 4): "6dbf6692f8f89af8cf6d1ee49e43355ed4be9861b6db0592dc357baece730d64",
    ("varying", "bernoulli", 4, 2): "cde4fb4a6b1c428293966666835659bbee64c5dac8fa387797cbc16ec720ee2a",
    ("varying", "bernoulli", 3, 3): "5b9cd112aeccb45e6a76b138698fadcc769dd4da23f136535584a886f7f86077",
    ("varying", "bernoulli", 5, 4): "487c251c4dfaa990bc0fa3d59be6b5c4079454246ac58a1ed24b71d5dbd47855",
    ("varying", "matrix", 4, 2): "2c5332727de3beeac11fb43c9c463c52ee302effc0b3b93794ec8be05ea85919",
    ("varying", "matrix", 3, 3): "c8b2b2b099a2756dd07bee08df2d5bca72b4b0bffdc5e4335a566a4b71a820fc",
    ("varying", "matrix", 5, 4): "0dd75a42a969bcb41b0266526cad20ee1608bfa12daf6ce35cacbcff89badb0c",
    ("dirichlet", "bernoulli", 4, 2): "bf0e6e48a96f8a0d93d1d65152410f545b83974059a52f6ed668f4f8a5db5700",
    ("dirichlet", "bernoulli", 3, 3): "e46a04e3f25f9701c807bf8edbfb64289a02e963647ec166e2b74736a3d22501",
    ("dirichlet", "bernoulli", 5, 4): "e6dc4b113f024e7eb49482594a9406d69d4df23d508195121a95cfde94477c8d",
    ("dirichlet", "matrix", 4, 2): "fec7929fe68de9530e803379fb765ac8dc1cdc2813b13918a56284958dbee643",
    ("dirichlet", "matrix", 3, 3): "bff76cfa05cd4fd5f2a8ca4d26688f3d1a1ddf0e65a5c9a1cfcb56386cba8f6d",
    ("dirichlet", "matrix", 5, 4): "ad6e0c8801c25c9fd9fcebef209ff80a19c9dacbdee3d39c9a2d2261e973c33f",
}


class TestBatchedBandit:
    @pytest.mark.parametrize("env_kind", ["bernoulli", "ucb_breaker"])
    @pytest.mark.parametrize("policy_kind", sorted(BANDIT_KINDS))
    def test_equals_scalar_loop_per_repetition(self, policy_kind, env_kind,
                                               monkeypatch):
        # small blocks, so a game spans many of them
        monkeypatch.setattr(environments, "BLOCK_CELLS", 40)
        drawn = _record_draws(monkeypatch)
        K, T, R = 3, 400, 4
        policy = BANDIT_KINDS[policy_kind](K, T, R)
        rngs = [np.random.default_rng(50 + r) for r in range(R)]
        envs = _bandit_envs(env_kind, K, T, R)
        games = play_bandit(policy, envs, T, rngs)
        assert games.shape == (R, T) and policy.t == T
        if policy_kind.startswith("ucb1"):
            # the live scalar reference: one UCB1Policy game per repetition
            for r, game in enumerate(games):
                scalar = UCB1Policy(
                    K, parametrization=policy_kind.removeprefix("ucb1_"))
                env = _bandit_envs(env_kind, K, T, R)[r]
                arms, losses = [], []
                for t in range(T):
                    arm = scalar.act()
                    loss = env.loss(t, arm)
                    scalar.update_reward(arm, 1.0 - loss)
                    arms.append(arm)
                    losses.append(loss)
                assert game.tolist() == arms
                assert _payoffs(envs[r], game) == losses
                assert policy.counts[r].tolist() == scalar.counts
                assert policy.sums[r].tolist() == scalar.sums
            return
        assert _exp3_digests(policy, envs, games, rngs, drawn) == (
            SCALAR_LOOP_DIST_DIGESTS[policy_kind, env_kind],
            SCALAR_LOOP_DIGESTS[policy_kind, env_kind])

    @pytest.mark.parametrize("env_kind", ["bernoulli", "ucb_breaker"])
    @pytest.mark.parametrize("K", [2, 4, 5, 8, 16])
    def test_exp3_is_pinned_at_more_arm_counts(self, K, env_kind,
                                               monkeypatch):
        monkeypatch.setattr(environments, "BLOCK_CELLS", 40)
        drawn = _record_draws(monkeypatch)
        T, R = 400, 4
        policy = EXP3Policy(K, R=R)
        rngs = [np.random.default_rng(50 + r) for r in range(R)]
        envs = _bandit_envs(env_kind, K, T, R)
        games = play_bandit(policy, envs, T, rngs)
        assert policy.t == T
        assert _exp3_digests(policy, envs, games, rngs, drawn) == \
            EXP3_ARM_COUNT_DIGESTS[K, env_kind]

    @pytest.mark.parametrize("advice, env_kind, N, K", list(EXP4_DIGESTS))
    def test_exp4_equals_scalar_loop_per_repetition(self, advice, env_kind, N,
                                                    K, monkeypatch):
        monkeypatch.setattr(environments, "BLOCK_CELLS", 40)
        drawn = _record_draws(monkeypatch)
        T, R = 300, 3
        policy = EXP4Policy(N, K, _exp4_advice(advice, N, K), T=T, R=R)
        envs = (_bandit_envs("bernoulli", K, T, R) if env_kind == "bernoulli"
                else [MatrixEnv(np.random.default_rng(2000 + r).random((T, K)))
                      for r in range(R)])
        rngs = [np.random.default_rng(50 + r) for r in range(R)]
        games = play_bandit(policy, envs, T, rngs)
        assert policy.t == T
        estimates = policy.estimates.tolist()
        for row in estimates:
            _hash_row(drawn, row)
        assert drawn.hexdigest() == EXP4_DIST_DIGESTS[advice, env_kind, N, K]
        digest = _game_digest(
            (game.tolist(), _payoffs(env, game), row, rng.random())
            for env, game, row, rng in zip(envs, games, estimates, rngs))
        assert digest == EXP4_DIGESTS[advice, env_kind, N, K]

    def test_input_checks(self):
        env = MatrixEnv(np.full((10, 2), 0.5))
        env.matrix[6, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            play_bandit(UCB1Batch(2, parametrization="original"), [env], 10)
        policy = EXP3Policy(2, R=2)
        policy.act_rows(np.array([0.1, 0.9]))
        policy.p[1] = (1.0, 0.0)
        with pytest.raises(ValueError, match="zero-probability"):
            policy.update_rows(np.array([0, 1]), np.array([0.5, 0.5]))
        envs = [BernoulliEnv([0.5, 0.5], seed=0)] * 2
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="random stream"):
            play_bandit(EXP3Policy(2, R=2), envs, 10, [rng, rng])
        with pytest.raises(ValueError, match="random stream"):
            play_bandit(EXP3Policy(2, R=2), envs, 10)
        with pytest.raises(ValueError, match="one env per policy row"):
            play_bandit(EXP3Policy(2, R=3), envs, 10, [rng, None, None])
        with pytest.raises(ValueError, match="K=3"):
            play_bandit(UCB1Batch(3, parametrization="original"), envs[:1],
                        10)
        with pytest.raises(ValueError, match="R=2"):
            EXP3Policy(2, R=2).act(rng)


# Each full-information policy of one game, built from (K, T).
FULL_INFO_KINDS = {
    "ftl": lambda K, T: FTLPolicy(K),
    "hedge_anytime_tight": lambda K, T: HedgePolicy(K, variant="anytime_tight"),
    "hedge_doubling": lambda K, T: HedgePolicy(K, doubling=True),
    "hedge_simple": lambda K, T: HedgePolicy(K, variant="simple", T=T),
    "hedge_tight": lambda K, T: HedgePolicy(K, variant="tight", T=T),
}

# SHA-256 of each full-information game's transcript, computed with the loop
# that drew one uniform per Hedge round; see ``_full_info_digest``.
FULL_INFO_DIGESTS = {
    ("ftl", "bernoulli"): "c53f95a78916c0910ebcdb49375d6ea748394f966f9d33dce45f037d2f8e79dd",
    ("ftl", "ftl_breaker"): "bca3147a73b5f815e35e1a0ba99d0a2a5e623bd36bbaf189cd588822d069774b",
    ("hedge_anytime_tight", "bernoulli"): "23ddd86fab615e9ece3faf236c4beaf8bac250ec0d6eeb2dfd2aff970b30c0a3",
    ("hedge_anytime_tight", "ftl_breaker"): "f25cc783da30b731a0e769db562b23272108a1a399e2abfff545e169ba750a93",
    ("hedge_doubling", "bernoulli"): "cbc9ddf0fca141d6a36734f580365cb485cdd4c69e2129baec5b7c30b017210d",
    ("hedge_doubling", "ftl_breaker"): "165f6c0d5f8f61fca8fba4aef73862f3b2266b0c7abe47bdf35e50fadee17d01",
    ("hedge_simple", "bernoulli"): "fee064ab448ee56e6e556cbd3d22d4b30255bc0624f019a0753bd96a34c5cf87",
    ("hedge_simple", "ftl_breaker"): "02e9e915b6a67d7b40f1306df95871e5709d694c8a374c2b95b8e1530a43686d",
    ("hedge_tight", "bernoulli"): "2526f0adea5d59cd1b60562be58bfa02290bddcd38e36043edb599e3eb7cd2a5",
    ("hedge_tight", "ftl_breaker"): "09af2aefbbce0ba63e49c5cb2411013ea673cacc48a13ec6083ff8cffddb9522",
}
# SHA-256 of ``_record_draws`` over the same games: every distribution a
# Hedge draws from (FTL draws nothing), at either block size.
FULL_INFO_DIST_DIGESTS = {
    ("ftl", "bernoulli"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ftl", "ftl_breaker"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("hedge_anytime_tight", "bernoulli"): "ca53e2fc56b89a8e0a7548b461a85f14c4800d91050fe3fb9ee4c1a445a8fb15",
    ("hedge_anytime_tight", "ftl_breaker"): "25fcb84e6a14df8fd7ba129ec98e20ccc90fbe0d8d0e427b49b8ccf86aa023ea",
    ("hedge_doubling", "bernoulli"): "1fb56c97e0570fea37fb52477d540704461d6787269595fe78e58e908bf50841",
    ("hedge_doubling", "ftl_breaker"): "74a3018d26634b8057c602f877001519e507e6a04804dfd9c2fdaf9888e6b503",
    ("hedge_simple", "bernoulli"): "f452b8178ea2aed9c97244badff466453c389579a7311bd828bd833010abf0bc",
    ("hedge_simple", "ftl_breaker"): "367c39d1a2521018b66c3a6c0522d30fd73fe62255844e63082e62286ae4f1fc",
    ("hedge_tight", "bernoulli"): "250a96167de876632ff33468219f88f338deaf80e4e0642844124d4de3ac4ad8",
    ("hedge_tight", "ftl_breaker"): "f5d89ce1b25028f7977a9042fa7b6b9f088aa355f0c3580cb0d5a93a5c363d12",
}


def _full_info_digest(arms, env, rng) -> str:
    """One SHA-256 over the arm bytes, the payoffs, the column sums and the
    final hindsight regret of the env's cells (floats as ``float.hex``) and
    the next draw of the stream.  The digests were taken when the game's
    transcript kept the payoffs, and its ``detail`` those two as running
    left-to-right sums; the env's cells and their cumulative sums give the
    same doubles."""
    cells = type(env).blocks([env], 0, len(arms))[0]
    return hashlib.sha256(repr((
        arms.tobytes(),
        [float.hex(v) for v in cells[np.arange(len(arms)), arms].tolist()],
        [float.hex(v) for v in np.cumsum(cells, axis=0)[-1].tolist()],
        float.hex(hindsight_regret(cells, arms)[-1]),
        float.hex(rng.random()),
    )).encode()).hexdigest()


def _blocks_of(monkeypatch, row_block: int, K: int) -> None:
    """At ``row_block`` = 13, blocks of 13 rounds for the env's rows and the
    per-round loop (``ROW_BLOCK``) and for the fixed-rate pass
    (``BLOCK_CELLS``, 13·K cells), so a game spans many blocks and the last
    one is short; at ``ROW_BLOCK`` both keep their default sizes."""
    if row_block != environments.ROW_BLOCK:
        monkeypatch.setattr(environments, "ROW_BLOCK", row_block)
        monkeypatch.setattr(environments, "BLOCK_CELLS", row_block * K)


class TestFullInformation:
    @pytest.mark.parametrize("row_block", [13, environments.ROW_BLOCK])
    @pytest.mark.parametrize("env_kind", ["bernoulli", "ftl_breaker"])
    @pytest.mark.parametrize("policy_kind", sorted(FULL_INFO_KINDS))
    def test_transcript_is_pinned(self, policy_kind, env_kind, row_block,
                                  monkeypatch):
        drawn = _record_draws(monkeypatch)
        T = 600  # doubling periods up to [512, 1024)
        env = (BernoulliEnv((0.35, 0.5, 0.65), seed=2024)
               if env_kind == "bernoulli" else MatrixEnv(make_ftl_breaker(T)))
        _blocks_of(monkeypatch, row_block, env.K)
        policy = FULL_INFO_KINDS[policy_kind](env.K, T)
        # seed 32, not 31, from when two anytime rates were pinned: at seed
        # 31 they played the same arms on the breaker
        rng = np.random.default_rng(32)
        arms = play_full_information(policy, env, T, rng)
        assert policy.t == T
        assert drawn.hexdigest() == FULL_INFO_DIST_DIGESTS[policy_kind,
                                                           env_kind]
        digest = _full_info_digest(arms, env, rng)
        assert digest == FULL_INFO_DIGESTS[policy_kind, env_kind]

    def test_a_drawing_policy_needs_a_stream(self):
        env = MatrixEnv(make_ftl_breaker(10))
        with pytest.raises(ValueError, match="random stream"):
            play_full_information(HedgePolicy(2), env, 10)
        arms = play_full_information(FTLPolicy(2), env, 10)
        assert arms.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


# SHA-256 (``_full_info_digest``) of fixed-rate Hedge games, computed when
# each round built its distribution with ``_hedge_weights``, before any
# faster path; on the uniform real-valued matrices no loss vector recurs.
# The "hedge_simple" games were pinned later, from the block pass, when the
# game's ``detail`` still kept the column sums and final regret;
# ``test_each_distribution_is_hedge_weights`` checks their rounds
# against ``_hedge_weights``.
FIXED_RATE_DIGESTS = {
    ("hedge_doubling", "bernoulli_k5"): "fb85253ad8de9b81187b5c7c2ce735863ca3c77dde0ecf6d11529ae57db2aabf",
    ("hedge_doubling", "uniform_k2"): "c92d44317e4b622d37ea2b9c81c19783acebd3931ca6373b9e85f61abe2fbbba",
    ("hedge_doubling", "uniform_k5"): "b5f926798bbe2de2dfa4694a30675042410172884f32083f91422b67b3575599",
    ("hedge_doubling", "uniform_k8"): "44573790803791e4f333612142773dad447a5d59aa3f81241706f6f92c9530da",
    ("hedge_simple", "bernoulli_k5"): "deb4a109ef0d3bc773c0d1d9698f639f3d877b2f1f70a98a27348c45af073f16",
    ("hedge_simple", "uniform_k2"): "d88c21e4f66899b55113af93d9f6dc7f1e5b1413a2e1efb2cbcc5de5e4cbc42d",
    ("hedge_simple", "uniform_k5"): "4bebd0c588474fcd892cc99cdbb466cd7cd00244137fa95959b3ca30d199618f",
    ("hedge_simple", "uniform_k8"): "6393990eaddec26cc2aad23fc440a00324401e216c2a41adeb852d852f67e9db",
    ("hedge_tight", "bernoulli_k5"): "628fb41b82465471ddf227c6833a21e450d922db4c65158d4aef42330bac945e",
    ("hedge_tight", "uniform_k2"): "49dd2e85d26823f2acb3124bebbcd1fb24546e4445db749c8061fae721861631",
    ("hedge_tight", "uniform_k5"): "d6bdda4e8c35254e70b812ad39cc555aa8539fafb5aea3b100e3abf01bffde73",
    ("hedge_tight", "uniform_k8"): "adaf418bdecf8e292e282b21e209116073fef9ed3f245124763a445156e17800",
}
# SHA-256 of ``_record_draws`` over the same games: every distribution
# drawn from, as ``_hedge_weights`` built each one round by round.
FIXED_RATE_DIST_DIGESTS = {
    ("hedge_doubling", "bernoulli_k5"): "1389670f376fa7266cc7ad04193016dfd974c86e68c028e1d3a54046bb8a50f1",
    ("hedge_doubling", "uniform_k2"): "2ace6bb3c5f964e3c8e2313fd589006f5170b0f530cc3d4ff83054201abe345c",
    ("hedge_doubling", "uniform_k5"): "97d186a61478624f580260a96548a668e1d403f92a38f4669192a3233d7e4e67",
    ("hedge_doubling", "uniform_k8"): "ecee46cf24472282e7b1b4ba98d310ca52ed5783d24dccda900e71f2fb686f06",
    ("hedge_simple", "bernoulli_k5"): "b30c72d3f78f8ad615b8aa093ed61bbc26b9eed3241f2badcf3ffe63c57eb648",
    ("hedge_simple", "uniform_k2"): "e241081fd82711dc2fd4d8d8a75fba70cde7a58b5a7742408790e33f07ab47e0",
    ("hedge_simple", "uniform_k5"): "bf2d00773a264d5ec4719b31609432ba14a53835ab321f730ef17c54d1fdf400",
    ("hedge_simple", "uniform_k8"): "6d08202efbd410a3a0b56df3f64dac841e858455d806b23e788038d8bf4d07f6",
    ("hedge_tight", "bernoulli_k5"): "2881ccc6e63d3fb3e8dac22578a3cd51e05e16212e2f6b52ca0e379512b57507",
    ("hedge_tight", "uniform_k2"): "2e86c20e2cf2c9c564e22a0b301dead2c9e5541565a677cf17bdfefa6f96b474",
    ("hedge_tight", "uniform_k5"): "d3957af0a21cc5e58e2b5d8e36b4859bfec565096ee2cdb0ebdee0e0e300276a",
    ("hedge_tight", "uniform_k8"): "7f4603a5f2ef4908fb598323b898beefa2eb71fadf34dc1761c22b2724b348a8",
}
FIXED_RATE_KINDS = ("hedge_doubling", "hedge_tight", "hedge_simple")
# numpy sums 8 or more cells pairwise, so "uniform_k8" shows a row total
# that is not left to right
PINNED_ENVS = ("bernoulli_k5", "uniform_k2", "uniform_k5", "uniform_k8")
# every policy kind that ``play_full_information`` plays a block at a time
BLOCK_KINDS = FIXED_RATE_KINDS
# (draws, transcript) SHA-256 pairs, as above, of the kinds it plays one
# round at a time, pinned when the game's ``detail`` still kept the column
# sums and final regret
PER_ROUND_DIGESTS = {
    ("ftl", "bernoulli_k5"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3ef3621925bb69a980745a1f301f093adb02232527b79c082b26013cce52c113"),
    ("ftl", "uniform_k2"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2337c6d13392809bc3a7e0f7bedc07640c1c21aa6f6ee604d2699815fe39c7f1"),
    ("ftl", "uniform_k5"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "910c4fd57582a55433d07ab3a9bc4f09c17f4913736bc5b7bea419108277715c"),
    ("ftl", "uniform_k8"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3322cd1ca1755622e66602fe289b34bb74dd38c20fd09fe97c413ae645916e4"),
    ("hedge_anytime_tight", "bernoulli_k5"): ("f730dfda4c4177aac034eb01b043745e15b77c6d278ae3cb719db638f4e0a042",
        "99c98dc73fd56f986aa0204f61ff7288cc181a55dde4ba01f96824732bea1cbb"),
    ("hedge_anytime_tight", "uniform_k2"): ("542db0aee177f1b0e9c8ab26659c88962c5d4db73906a045ff117e66820e6a9e",
        "b1eb0276effc559a36334add6b46463734aa491d603930168c21042988d7651f"),
    ("hedge_anytime_tight", "uniform_k5"): ("2c5209e443c5b0c33d66484e0d80440a616f28a7223136a290b3accb0e1d9f55",
        "10310db4cce4daab66be27aaf8f2ff4b74ee9f01d8eca90b969f33f9990bbad6"),
    ("hedge_anytime_tight", "uniform_k8"): ("5970d9531d55655c6c506bc5f817e50219e00311be895ccad7f450e77695b798",
        "8a56ee02ba12e572efae5d5dcc34912f11a0b104f18f3b7bd53f358eb848aa7d"),
}


def _fixed_rate_env(kind: str, T: int):
    """A Bernoulli env of the first K of five means ("bernoulli_k<K>"), or a
    seeded T x K matrix of uniform reals ("uniform_k<K>")."""
    K = int(kind[-1])
    if kind.startswith("bernoulli"):
        return BernoulliEnv((0.1, 0.3, 0.5, 0.7, 0.9)[:K], seed=2026)
    return MatrixEnv(np.random.default_rng(K).random((T, K)))


def _fixed_rate(policy_kind: str, K: int, T: int, t: int) -> float:
    """The rate a fixed-rate policy kind of ``FULL_INFO_KINDS`` plays in
    round t, counted from 0."""
    if policy_kind == "hedge_doubling":
        return doubling_schedule(t + 1, K)[1]
    return hedge_eta(K, T=T, variant=policy_kind.removeprefix("hedge_"))


def _play_by_hand(policy, env, T: int, rng):
    """``play_full_information`` one round at a time: one draw from ``rng``,
    one ``act``, one ``env.row`` and one ``observe`` a round.  Returns the
    arms, the payoffs, the column sums and final hindsight regret as running
    left-to-right sums, and each round's distribution."""
    arms, payoffs, dists = [], [], []
    column_sums, total = [0.0] * env.K, 0.0
    for t in range(T):
        dists.append(policy.distribution().weights)
        arm = policy.act(rng.random())
        row = env.row(t)
        policy.observe(row)
        arms.append(arm)
        payoffs.append(row[arm])
        total += row[arm]
        column_sums = [s + v for s, v in zip(column_sums, row)]
    return arms, payoffs, (column_sums, total - min(column_sums)), dists


class TestFixedRateHedge:
    """A Hedge whose rate holds over a period, which ``play_full_information``
    plays a block of rounds at a time."""

    T = 600  # doubling periods up to [512, 1024)

    @pytest.mark.parametrize("env_kind", PINNED_ENVS)
    @pytest.mark.parametrize("policy_kind", FIXED_RATE_KINDS)
    def test_transcript_is_pinned(self, policy_kind, env_kind, monkeypatch):
        drawn = _record_draws(monkeypatch)
        env = _fixed_rate_env(env_kind, self.T)
        rng = np.random.default_rng(32)
        arms = play_full_information(
            FULL_INFO_KINDS[policy_kind](env.K, self.T), env, self.T, rng)
        assert drawn.hexdigest() == FIXED_RATE_DIST_DIGESTS[policy_kind,
                                                            env_kind]
        digest = _full_info_digest(arms, env, rng)
        assert digest == FIXED_RATE_DIGESTS[policy_kind, env_kind]

    @pytest.mark.parametrize("env_kind", PINNED_ENVS)
    @pytest.mark.parametrize("policy_kind", FIXED_RATE_KINDS)
    def test_each_distribution_is_hedge_weights(self, policy_kind, env_kind):
        env = _fixed_rate_env(env_kind, self.T)
        policy = FULL_INFO_KINDS[policy_kind](env.K, self.T)
        for t in range(self.T):
            eta = _fixed_rate(policy_kind, env.K, self.T, t)
            want = _hedge_weights(policy.cum_losses, eta)
            assert policy.distribution().weights == want.weights
            policy.observe(env.row(t))

    @pytest.mark.parametrize("row_block", [13, environments.ROW_BLOCK])
    @pytest.mark.parametrize("env_kind", ["bernoulli", "uniform"])
    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("policy_kind", BLOCK_KINDS)
    def test_block_pass_equals_per_round_play(self, policy_kind, K, env_kind,
                                              row_block, monkeypatch):
        # blocks of 13 rounds cut most doubling periods more than once
        _blocks_of(monkeypatch, row_block, K)
        drawn = []  # each distribution the block pass draws an arm from

        def recorded(p, u):
            drawn.extend(map(tuple, p.tolist()))
            return sample_arms(p, u)

        monkeypatch.setattr(online_policies, "sample_arms", recorded)
        kind = f"{env_kind}_k{K}"
        played, by_hand = [FULL_INFO_KINDS[policy_kind](K, self.T)
                           for _ in range(2)]
        rng, hand_rng = np.random.default_rng(32), np.random.default_rng(32)
        env = _fixed_rate_env(kind, self.T)
        played_arms = play_full_information(played, env, self.T, rng)
        arms, payoffs, running, dists = _play_by_hand(
            by_hand, _fixed_rate_env(kind, self.T), self.T, hand_rng)
        assert played_arms.tolist() == arms
        # the runner's scoring of the env's cells gives the payoffs and the
        # running sums
        cells = type(env).blocks([env], 0, self.T)[0]
        assert cells[np.arange(self.T), played_arms].tolist() == payoffs
        assert (np.cumsum(cells, axis=0)[-1].tolist(),
                hindsight_regret(cells, played_arms)[-1]) == running
        assert drawn == dists
        assert (played.t, played.cum_losses, played.period_end) == \
            (by_hand.t, by_hand.cum_losses, by_hand.period_end)
        assert played.distribution().weights == by_hand.distribution().weights
        assert rng.random() == hand_rng.random()

    @pytest.mark.parametrize("rows", [15, 20])
    @pytest.mark.parametrize("policy_kind",
                             BLOCK_KINDS + ("hedge_anytime_tight",))
    def test_the_block_pass_raises_what_the_loop_raises(self, policy_kind,
                                                        rows):
        # the anytime rate plays the per-round loop, the reference; 15 rounds
        # end a doubling block, 20 fall inside one
        make, T = FULL_INFO_KINDS[policy_kind], 30
        policy = make(2, T)
        with pytest.raises(ValueError,
                           match=rf"^round {rows} outside \[0, {rows}\)$"):
            play_full_information(policy, MatrixEnv(np.full((rows, 2), 0.5)),
                                  T, np.random.default_rng(0))
        assert policy.t == rows  # the rounds before it were played
        env = BernoulliEnv((0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError, match="^loss column has wrong length$"):
            play_full_information(make(2, T), env, T, np.random.default_rng(0))
        with pytest.raises(ValueError, match="random stream"):
            play_full_information(make(2, T), env, T)

    @pytest.mark.parametrize("policy_kind", BLOCK_KINDS)
    def test_a_fixed_rate_game_builds_no_probvec_and_reads_no_row(
            self, policy_kind, monkeypatch):
        def refuse(*args):
            raise AssertionError("the block pass made a per-round call")

        monkeypatch.setattr(ProbVec, "__init__", refuse)
        monkeypatch.setattr(BernoulliEnv, "row", refuse)
        # the shape of the tight_hedge preset's games
        arms = play_full_information(
            FULL_INFO_KINDS[policy_kind](2, 2000), BernoulliEnv((0.5, 0.5), 2),
            2000, np.random.default_rng(2))
        assert arms.shape == (2000,)


class TestPerRoundPlay:
    """FTL and anytime Hedge, which ``play_full_information`` plays one
    round at a time, on the fixed-rate games' envs."""

    T = 600

    @pytest.mark.parametrize("policy_kind, env_kind", list(PER_ROUND_DIGESTS))
    def test_per_round_transcript_is_pinned(self, policy_kind, env_kind,
                                            monkeypatch):
        drawn = _record_draws(monkeypatch)
        env = _fixed_rate_env(env_kind, self.T)
        policy = FULL_INFO_KINDS[policy_kind](env.K, self.T)
        assert not getattr(policy, "fixed_rate", False)
        rng = np.random.default_rng(32)
        arms = play_full_information(policy, env, self.T, rng)
        assert (drawn.hexdigest(), _full_info_digest(arms, env, rng)) == \
            PER_ROUND_DIGESTS[policy_kind, env_kind]


def _log(actions, rewards):
    """A log of the given actions and rewards, with all-zero features."""
    return BanditLog(np.asarray(actions), np.asarray(rewards),
                     np.zeros((len(actions), 10), dtype=np.int64))


def _formatted(K, log) -> bytes:
    """The bytes of the log format: a header, then each record's 12 values
    written with ``%d`` and joined by single spaces."""
    rows = zip(log.actions.tolist(), log.rewards.tolist(),
               log.features.tolist())
    lines = [f"K={K}"] + [" ".join("%d" % v for v in (a, r, *f))
                          for a, r, f in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


# Tokens for one field of a log record or its header, and characters for
# one changed byte: digits, signs, separators, a comment start, a
# non-ASCII digit and values past the action range, the cap or int64.
LOG_TOKENS = ["", "0", "1", "2", "9", "10", "-1", "+1", "-0", "01", "1_0",
              "x", "\u0663", "1.0", str(2 ** 63), "#", "0 0", "K=0", "K=11",
              f"K={2 ** 27 + 1}"]
LOG_CHARS = "0129 \n\t\r#+-_xK=\u0663"


# An edit of a written log: none, one field of one line replaced by a
# token or a small integer, or one character replaced (0), inserted (1) or
# deleted (2).  Lines, fields and positions wrap around, so any drawn index
# names one; the action, reward and last fields are drawn most often.
log_edits = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("field"), st.integers(0, 12),
              st.one_of(st.sampled_from([0, 1, 11]), st.integers(0, 11)),
              st.one_of(st.sampled_from(LOG_TOKENS),
                        st.integers(-1, 12).map(str))),
    st.tuples(st.just("byte"), st.integers(0, 400), st.integers(0, 2),
              st.sampled_from(LOG_CHARS)))


def _edit_log(text: str, edit) -> str:
    """``text`` after one of ``log_edits``."""
    if edit[0] == "field":
        lines = text.split("\n")[:-1]
        i = edit[1] % len(lines)
        fields = lines[i].split(" ")
        fields[edit[2] % len(fields)] = edit[3]
        lines[i] = " ".join(fields)
        return "\n".join(lines) + "\n"
    if edit[0] == "byte":
        at, op, char = edit[1] % len(text), edit[2], edit[3]
        return text[:at] + char * (op < 2) + text[at + (op != 1):]
    return text


def _read_log(text: str):
    """``parse_log``'s K and arrays of ``text``, or its ValueError's message."""
    try:
        K, log = parse_log(io.StringIO(text))
    except ValueError as exc:
        return str(exc)
    return K, log.actions, log.rewards, log.features


class TestLogParsing:
    def test_example_records(self):
        K, log = parse_log(["K=16", "7 0 1 0 0 1 0 1 0 0 1 0",
                            "0 1 0 0 0 0 0 0 0 0 0 0"])
        assert K == 16 and len(log) == 2
        assert (log.actions[0], log.rewards[0]) == (7, 0)
        assert log.features[0].tolist() == [1, 0, 0, 1, 0, 1, 0, 0, 1, 0]
        assert (log.actions[1], log.rewards[1]) == (0, 1)

    def test_validation_errors(self):
        for line, message in [
            ("1 2 0 0 0 0 0 0 0 0 0 0", "line 2: reward must be 0 or 1, got 2"),
            ("1 0 0 0 0", "line 2: expected 12 fields, got 5"),
            ("1 0 x 0 0 0 0 0 0 0 0 0", "line 2: non-integer token"),
            ("5 0 0 0 0 0 0 0 0 0 0 0", r"line 2: action 5 outside \[0, 4\)"),
            ("1 0 0 0 0 0 0 0 0 0 0 " + "9" * 20,
             "line 2: feature outside the 64-bit integer range"),
        ]:
            with pytest.raises(ValueError, match=message):
                parse_log(["K=4", line])

    @pytest.mark.parametrize("bad, message", [
        # the first bad line is named, whichever check the later one fails
        ({3: "1 2 0 0 0 0 0 0 0 0 0 0", 5: "1 0 x 0 0 0 0 0 0 0 0 0"},
         "line 3: reward must be 0 or 1, got 2"),
        ({2: "1 0 x 0 0 0 0 0 0 0 0 0", 4: "1 0 0 0 0"},
         "line 2: non-integer token"),
        # a 64-bit overflow is reported only when no line fails another check
        ({2: "1 0 0 0 0 0 0 0 0 0 0 " + "9" * 20,
          6: "9 0 0 0 0 0 0 0 0 0 0 0"},
         r"line 6: action 9 outside \[0, 4\)"),
        ({3: "1 0 0 0 0 0 0 0 0 0 0 " + "9" * 20,
          5: "1 0 0 0 0 0 0 0 0 0 0 -" + "9" * 20},
         "line 3: feature outside the 64-bit integer range"),
        ({4: "1 0 0 0 0 0 0 0 0 0 0 " + "9" * 20, 5: "1 0"},
         "line 5: expected 12 fields, got 2"),
        ({2: "1 -1 0 0 0 0 0 0 0 0 0 0", 3: "-1 0 0 0 0 0 0 0 0 0 0 0"},
         "line 2: reward must be 0 or 1, got -1"),
        ({7: "-1 0 0 0 0 0 0 0 0 0 0 0"}, r"line 7: action -1 outside \[0, 4\)"),
    ])
    def test_first_bad_line_is_named(self, bad, message):
        good = "1 0 0 0 0 0 0 0 0 0 0 0"
        lines = ["K=4"] + [bad.get(n, good) for n in range(2, 8)]
        with pytest.raises(ValueError, match=message):
            parse_log(lines)

    def test_bad_record_named_before_a_later_read_error(self):
        def lines():
            yield "K=4"
            yield "1 0 0 0 0 0 0 0 0 0 0 0"
            yield "4 0 0 0 0 0 0 0 0 0 0 0"
            raise UnicodeDecodeError("ascii", b"\xff", 0, 1, "bad byte")
        with pytest.raises(ValueError, match=r"line 3: action 4 outside"):
            parse_log(lines())

    def test_messages_quote_the_line_as_written(self):
        with pytest.raises(ValueError) as info:
            parse_log(["K=4", "0 0 0 0 0 0 0 0 0 0 0 0",
                       "  1\t0  0 0 0 0 0 0 0 0 0 2.5 \n"])
        assert str(info.value) == ("line 3: non-integer token in record "
                                   "'1\\t0  0 0 0 0 0 0 0 0 0 2.5'")

    def test_tokens_parse_as_python_int(self):
        K, log = parse_log(["K=4", "+1 0 1_0 ٣ -0 0 0 0 0 0 0 "
                            + str(2 ** 63 - 1), "0 1 0 0 0 0 0 0 0 0 0 "
                            + str(-2 ** 63)])
        assert log.actions.tolist() == [1, 0]
        assert log.rewards.tolist() == [0, 1]
        assert log.features[0, :3].tolist() == [10, 3, 0]
        assert log.features[:, -1].tolist() == [2 ** 63 - 1, -2 ** 63]
        for token in ("1__0", "0x1", "1e3", "²"):
            with pytest.raises(ValueError, match="line 2: non-integer token"):
                parse_log(["K=4", "0 0 0 0 0 0 0 0 0 0 0 " + token])

    def test_header_only_log_is_empty(self):
        K, log = parse_log(["K=3", "# no records"])
        assert K == 3 and len(log) == 0
        assert log.features.shape == (0, 10)

    def test_header_comments_and_round_trip(self, tmp_path):
        log = synthesize_uniform_log([0.2, 0.8], T=50, seed=3)
        path = tmp_path / "game.log"
        write_log(path, 2, log)
        text = path.read_text().splitlines()
        assert text[0] == "K=2"
        K, parsed = parse_log(["# comment", "", *text])
        assert K == 2
        for name in ("actions", "rewards", "features"):
            assert np.array_equal(getattr(parsed, name), getattr(log, name))

    def test_literal_text_round_trip(self, tmp_path):
        text = ("K=3\n"
                "2 1 0 1 0 0 1 1 0 0 0 1\n"
                "0 0 1 1 1 1 1 1 1 1 1 1\n"
                "1 1 0 0 0 0 0 0 0 0 0 0\n")
        K, log = parse_log(["# header follows", *text.splitlines()])
        assert K == 3
        assert log.actions.tolist() == [2, 0, 1]
        assert log.rewards.tolist() == [1, 0, 1]
        assert log.features.tolist() == [[0, 1, 0, 0, 1, 1, 0, 0, 0, 1],
                                         [1] * 10, [0] * 10]
        path = tmp_path / "literal.log"
        write_log(path, K, log)
        assert path.read_bytes() == text.encode("ascii")

    @pytest.mark.parametrize("seed", range(6))
    def test_digit_table_matches_line_formatter(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(0, 300)) if seed else 0
        dtypes = (np.int64, np.int32, np.uint8, bool, np.uint64, np.int8)
        K = int(rng.integers(1, 11))
        log = BanditLog(rng.integers(0, K, size=T).astype(dtypes[seed]),
                        rng.integers(0, 2, size=T).astype(dtypes[seed - 1]),
                        rng.integers(0, 10, size=(T, 10)).astype(
                            dtypes[seed - 2]))
        path = tmp_path / "digits.log"
        write_log(path, K, log)
        assert path.read_bytes() == _formatted(K, log)
        K_read, parsed = parse_log(path.read_text().splitlines())
        assert K_read == K
        for name in ("actions", "rewards", "features"):
            assert getattr(parsed, name).dtype == np.int64
            assert np.array_equal(getattr(parsed, name), getattr(log, name))

    @pytest.mark.parametrize("K, action, feature", [
        (4, 3, 10),           # a multi-digit feature
        (4, 2, -1),           # a negative feature
        (4, 0, 2 ** 63 - 1),  # the int64 edges
        (4, 1, -2 ** 63),
        (11, 10, 0),          # a two-digit action
    ])
    def test_general_writer_round_trips(self, tmp_path, K, action, feature):
        log = synthesize_uniform_log([0.5] * 4, T=40, seed=K)
        features = log.features.copy()
        features[17, 4] = feature
        actions = log.actions.copy()
        actions[23] = action
        log = BanditLog(actions, log.rewards, features)
        path = tmp_path / "general.log"
        write_log(path, K, log)
        assert path.read_bytes() == _formatted(K, log)
        K_read, parsed = parse_log(path.read_text().splitlines())
        assert K_read == K
        for name in ("actions", "rewards", "features"):
            assert np.array_equal(getattr(parsed, name), getattr(log, name))

    def test_float_log_takes_the_line_formatter(self, tmp_path):
        log = synthesize_uniform_log([0.5] * 4, T=5, seed=2)
        features = log.features.astype(float) + 0.5
        path = tmp_path / "float.log"
        write_log(path, 4, BanditLog(log.actions, log.rewards, features))
        assert path.read_bytes() == _formatted(4, log)  # %d truncates
        features[3, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            write_log(path, 4, BanditLog(log.actions, log.rewards, features))

    @pytest.mark.parametrize("line", [
        "+3 1 0 0 0 0 0 0 0 0 0 5",
        "3 1 0 0 0 0 0 0 0 0 0 +5",
        "3 1 0 0 0 0 0 0 0 0 0 0_5",
        "٣ 1 0 0 0 0 0 0 0 0 0 5",
        "3 1 0 0 0 0 0 0 0 0 0 ٥",
        "3\t1\t0\t0\t0\t0\t0\t0\t0\t0\t0\t5",
        "3  1 0   0 0 0 0 0 0 0 0  5  ",
        "  3 1 0 0 0 0 0 0 0 0 0 5",
    ])
    def test_both_conversions_give_the_same_arrays(self, line):
        canonical = "3 1 0 0 0 0 0 0 0 0 0 5"
        others = ["0 0 1 0 1 0 1 0 1 0 1 9", "2 1 9 8 7 6 5 4 3 2 1 0"]
        _, want = parse_log(["K=4", others[0], canonical, others[1]])
        _, got = parse_log(["K=4", others[0], line, others[1]])
        for name in ("actions", "rewards", "features"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(0, 300), K=st.integers(1, 10),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_digit_grid_equals_line_loop(self, tmp_path_factory, T, K, seed):
        rng = np.random.default_rng(seed)
        log = BanditLog(rng.integers(0, K, size=T), rng.integers(0, 2, size=T),
                        rng.integers(0, 10, size=(T, 10)))
        path = tmp_path_factory.mktemp("log") / "digits.log"
        write_log(path, K, log)
        with mock.patch.object(environments, "_scan_log",
                               side_effect=AssertionError("took the loop")):
            with open(path, "r", encoding="ascii") as handle:
                K_grid, grid = parse_log(handle)
        # splitlines drops the newlines, so these lines take the loop
        with mock.patch.object(environments, "_scan_log",
                               wraps=environments._scan_log) as scan:
            K_loop, loop = parse_log(path.read_text().splitlines())
        assert scan.called
        assert K_grid == K_loop == K
        for name in ("actions", "rewards", "features"):
            got, want = getattr(grid, name), getattr(loop, name)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(got, getattr(log, name))

    @settings(max_examples=300, deadline=None)
    @given(K=st.integers(1, 12), T=st.integers(0, 12),
           seed=st.integers(0, 2 ** 32 - 1), edit=log_edits)
    @example(K=4, T=3, seed=0, edit=("field", 1, 1, "2"))
    @example(K=4, T=3, seed=0, edit=("field", 2, 0, "4"))
    @example(K=4, T=3, seed=0, edit=("field", 2, 0, "9"))
    @example(K=4, T=3, seed=0, edit=("byte", 6, 0, "2"))
    @example(K=4, T=3, seed=0, edit=("byte", 4, 0, "9"))
    @example(K=4, T=3, seed=0, edit=("byte", 27, 2, "0"))
    @example(K=4, T=3, seed=0, edit=("field", 0, 0, "K=0"))
    def test_two_readers_give_one_answer(self, tmp_path_factory, K, T, seed,
                                         edit):
        # a log in write_log's digit layout, or one field or one character
        # of it changed, read as it is (the byte grid where it applies) and
        # after a comment line, which sends it through _scan_log: the same
        # arrays, or the same error on the same record, one line later
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.getbasetemp() / "two_readers.log"
        write_log(path, K, BanditLog(rng.integers(0, min(K, 10), T),
                                     rng.integers(0, 2, T),
                                     rng.integers(0, 10, (T, 10))))
        text = _edit_log(path.read_text(encoding="ascii"), edit)
        grid = _read_log(text)
        with mock.patch.object(environments, "_scan_log",
                               wraps=environments._scan_log) as scan:
            loop = _read_log("# c\n" + text)
        assert scan.called
        if isinstance(grid, str):
            assert loop == re.sub(r"^line (\d+):",
                                  lambda m: f"line {int(m[1]) + 1}:", grid)
            return
        assert not isinstance(loop, str), loop
        assert grid[0] == loop[0]
        for got, want in zip(grid[1:], loop[1:]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edit, want", [
        (lambda text: text.replace("\n", "\r\n"), (4, [])),
        (lambda text: text[:-1], (4, [])),
        (lambda text: "# a comment\n" + text, (4, [])),
        (lambda text: text.replace("\n", "\n\n", 2), (4, [])),
        (lambda text: text.replace("\n", "\n#" + "-" * 22 + "\n", 1), (4, [])),
        (lambda text: text.replace("\n", "\n+", 1), (4, [])),
        (lambda text: text.replace("\n", "\n" + "\t".join("0" * 12) + "\n",
                                   1), (4, [[0] * 12])),
        (lambda text: text.replace("K=4", "K=11", 1).replace(
            "\n", "\n10 1 0 0 0 0 0 0 0 0 0 0\n", 1), (11, [[10, 1] + [0] * 10])),
        (lambda text: text.replace("\n", "\n5 0 0 0 0 0 0 0 0 0 0 0\n", 1),
         "line 2: action 5 outside [0, 4)"),
        (lambda text: text.replace("\n", "\n0 2 0 0 0 0 0 0 0 0 0 0\n", 1),
         "line 2: reward must be 0 or 1, got 2"),
        (lambda text: text.replace("K=4", "K=0", 1), "line 1: K must be positive"),
        (lambda text: "K=0\n", "line 1: K must be positive"),
        (lambda text: text.replace("\n", "\n0 1 0 0 0 0 0 0 0 0 0 x\n", 1),
         "line 2: non-integer token in record '0 1 0 0 0 0 0 0 0 0 0 x'"),
        (lambda text: text.replace("\n", "\n1 0 0 0 0 0 0 0 0 0 00\n", 1),
         "line 2: expected 12 fields, got 11: '1 0 0 0 0 0 0 0 0 0 00'"),
        (lambda text: text.replace("K=4", f"K={2 ** 27 + 1}", 1),
         "line 1: K must be at most 2**27, as a policy holds K floats a row"),
        (lambda text: text.replace("K=4", f"K={10 ** 20}", 1),
         "line 1: K must be at most 2**27, as a policy holds K floats a row"),
        (lambda text: "# c\n" + text.replace("K=4", f"K={2 ** 27 + 1}", 1),
         "line 2: K must be at most 2**27, as a policy holds K floats a row"),
        (lambda text: "# c\n" + text.replace("K=4", f"K={10 ** 20}", 1),
         "line 2: K must be at most 2**27, as a policy holds K floats a row"),
    ], ids=["crlf", "no_final_newline", "leading_comment", "blank_line",
            "comment_of_24", "plus_token", "tabs", "two_digit_action",
            "bad_action", "bad_reward", "zero_K", "zero_K_no_records", "letter",
            "field_count", "K_past_the_cap", "K_past_the_index_range",
            "comment_then_K_past_the_cap",
            "comment_then_K_past_the_index_range"])
    def test_near_miss_layouts_take_the_line_loop(self, tmp_path, edit, want):
        """``want`` is the error message, or K and the records the edit puts
        before the written ones."""
        log = synthesize_uniform_log([0.2, 0.5, 0.8, 0.3], T=8, seed=5)
        path = tmp_path / "near.log"
        write_log(path, 4, log)
        path.write_bytes(edit(path.read_text()).encode("ascii"))
        # newline="" keeps each line's CRLF as written
        with mock.patch.object(environments, "_scan_log",
                               wraps=environments._scan_log) as scan, \
                open(path, "r", encoding="ascii", newline="") as handle:
            if isinstance(want, str):
                with pytest.raises(ValueError) as info:
                    parse_log(handle)
                assert str(info.value) == want
            else:
                K, parsed = parse_log(handle)
        assert scan.called
        if isinstance(want, str):
            return
        rows = np.array(want[1] + np.column_stack(
            (log.actions, log.rewards, log.features)).tolist(), dtype=np.int64)
        assert K == want[0]
        assert np.array_equal(parsed.actions, rows[:, 0])
        assert np.array_equal(parsed.rewards, rows[:, 1])
        assert np.array_equal(parsed.features, rows[:, 2:])

    @pytest.mark.parametrize("lines, raised", [
        ([], UnicodeDecodeError),
        (["K=x\n"], "line 1: expected 'K=<int>' header"),
        (["K=4\n", "1 0\n"], "line 2: expected 12 fields, got 2: '1 0'"),
        (["K=4\n", "1 0 0 0 0 0 0 0 0 0 0 0\n", "4 0 0 0 0 0 0 0 0 0 0 0\n"],
         "line 3: action 4 outside [0, 4)"),
        (["K=4\n", "1 0 0 0 0 0 0 0 0 0 0 0\n", "3 1 0 0 0 0 0 0 0 0 0 9\n"],
         UnicodeDecodeError),
    ], ids=["before_header", "after_bad_header", "after_field_count",
            "after_bad_record", "after_good_records"])
    def test_read_error_order(self, lines, raised):
        def handle():
            yield from lines
            raise UnicodeDecodeError("ascii", b"\xff", 0, 1, "bad byte")
        if raised is UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError, match="bad byte"):
                parse_log(handle())
        else:
            with pytest.raises(ValueError) as info:
                parse_log(handle())
            assert not isinstance(info.value, UnicodeDecodeError)
            assert str(info.value) == raised

    @pytest.mark.parametrize("head, message", [
        (["t,policy,mean,std\n"], "line 1: expected 'K=<int>' header"),
        (["# a comment\n", "K=x\n"], "line 2: expected 'K=<int>' header"),
        (["K=4 \n", "1 0\n"], "line 2: expected 12 fields, got 2: '1 0'"),
        (["# c\n", "K=4\n", "4 0 0 0 0 0 0 0 0 0 0 0\n"],
         "line 3: action 4 outside [0, 4)"),
        (["K=4 \n", "0 2 0 0 0 0 0 0 0 0 0 0\n"],
         "line 2: reward must be 0 or 1, got 2"),
        (["# c\n", "K=4\n", "0 1 0 0 0 0 0 0 0 0 0 x\n"],
         "line 3: non-integer token in record '0 1 0 0 0 0 0 0 0 0 0 x'"),
    ], ids=["csv", "comment_then_bad_header", "spaced_header", "bad_action",
            "bad_reward", "letter"])
    def test_loop_errors_come_before_the_rest_is_read(self, head, message):
        # a first line that is not "K=<ASCII digits>\n" rules out the byte
        # grid, so the lines stream through the loop as they are read
        served = []
        def handle():
            for line in head + ["0 1 0 0 0 0 0 0 0 0 0 0\n"] * 1000:
                served.append(line)
                yield line
        with pytest.raises(ValueError) as info:
            parse_log(handle())
        assert str(info.value) == message
        assert len(served) == len(head)

    def test_a_header_k_at_the_cap_takes_the_byte_grid(self, tmp_path):
        path = tmp_path / "widest.log"
        log = synthesize_uniform_log([0.5] * 4, T=3, seed=1)
        write_log(path, 2 ** 27, log)
        with mock.patch.object(environments, "_scan_log",
                               side_effect=AssertionError("took the loop")):
            with open(path, "r", encoding="ascii") as handle:
                K, parsed = parse_log(handle)
        assert K == 2 ** 27
        assert np.array_equal(parsed.actions, log.actions)

    def test_a_header_k_at_the_cap_after_a_comment_takes_the_loop(
            self, tmp_path):
        # the line loop's cap admits the K the byte grid admits
        path = tmp_path / "widest.log"
        log = synthesize_uniform_log([0.5] * 4, T=3, seed=1)
        write_log(path, 2 ** 27, log)
        path.write_text("# c\n" + path.read_text())
        with mock.patch.object(environments, "_scan_log",
                               wraps=environments._scan_log) as scan:
            with open(path, "r", encoding="ascii") as handle:
                K, parsed = parse_log(handle)
        assert scan.called
        assert K == 2 ** 27
        assert np.array_equal(parsed.actions, log.actions)
        assert np.array_equal(parsed.rewards, log.rewards)

    @pytest.mark.parametrize("bad_record", [False, True])
    def test_undecodable_byte_after_a_full_buffer(self, tmp_path, bad_record):
        # the handle decodes the first 8192 bytes and yields their lines
        # before the byte it cannot decode raises
        log = synthesize_uniform_log([0.5] * 4, T=500, seed=1)
        path = tmp_path / "tail.log"
        write_log(path, 4, log)
        text = path.read_bytes()
        if bad_record:
            text = text.replace(b"\n", b"\n7 0 0 0 0 0 0 0 0 0 0 0\n", 1)
        path.write_bytes(text + b"\xff\n")
        with open(path, "r", encoding="ascii") as handle:
            if bad_record:
                with pytest.raises(ValueError,
                                   match=r"^line 2: action 7 outside \[0, 4\)$"):
                    parse_log(handle)
            else:
                with pytest.raises(UnicodeDecodeError):
                    parse_log(handle)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="line 1: expected 'K=<int>'"):
            parse_log(["7 0 1 0 0 1 0 1 0 0 1 0"])
        with pytest.raises(ValueError, match="line 2: expected 'K=<int>'"):
            parse_log(["# comment", "K=x"])
        with pytest.raises(ValueError, match="no 'K=<int>' header"):
            parse_log(["# comment only"])

    def test_synthesized_arrays_are_the_raw_draws(self):
        means = [0.1, 0.6, 0.9]
        log = synthesize_uniform_log(means, T=200, seed=8)
        rng = np.random.default_rng(8)
        actions = rng.integers(0, 3, size=200)
        uniforms = rng.random(200)
        features = rng.integers(0, 2, size=(200, 10))
        assert np.array_equal(log.actions, actions)
        assert np.array_equal(log.rewards,
                              uniforms < np.asarray(means)[actions])
        assert np.array_equal(log.features, features)
        assert len(log) == 200

    def test_log_shapes_must_agree(self):
        with pytest.raises(ValueError, match="shape"):
            BanditLog(np.zeros(3, int), np.zeros(2, int), np.zeros((3, 10), int))
        with pytest.raises(ValueError, match="shape"):
            BanditLog(np.zeros(3, int), np.zeros(3, int), np.zeros((3, 9), int))


class TestImportanceWeightedReplay:
    def test_single_record_values(self):
        match = _log([3], [1])
        trans = replay_importance_weighted(FixedPolicy(16, arm=3), match, 16)
        assert trans.payoffs[0] == 16.0
        trans = replay_importance_weighted(FixedPolicy(16, arm=4), match, 16)
        assert trans.payoffs[0] == 0.0

    def test_logged_action_outside_range(self):
        log = _log([0, 1, 5, 7], [1, 0, 1, 1])
        with pytest.raises(ValueError, match=r"logged action 5 outside \[0, 4\)"):
            replay_importance_weighted(FixedPolicy(4, arm=0), log, 4)

    def test_per_record_unbiasedness_by_enumeration(self):
        # exact expectation over the uniformly logged action, K <= 8
        for K in (2, 5, 8):
            means = [(a + 1) / (K + 1) for a in range(K)]
            for target in range(K):
                estimate = sum(
                    (1.0 / K) * (K * means[logged] if logged == target else 0.0)
                    for logged in range(K)
                )
                assert math.isclose(estimate, means[target], rel_tol=1e-12)

    def test_fixed_policy_value_estimate(self):
        K = 8
        means = [0.1 * (a % 5) + 0.1 for a in range(K)]
        log = synthesize_uniform_log(means, T=40000, seed=11)
        trans = replay_importance_weighted(FixedPolicy(K, arm=3), log, K)
        truth = means[3]
        se = np.std(trans.payoffs) / math.sqrt(len(log))
        assert abs(trans.detail["estimated_value"] - truth) <= 3 * se

    @pytest.mark.parametrize("arm", range(4))
    def test_fixed_policy_estimates_are_k_times_its_matched_rewards(self,
                                                                    arm):
        log = synthesize_uniform_log([0.3, 0.5, 0.7, 0.9], T=500, seed=arm)
        policy = FixedPolicy(4, arm=arm)
        trans = replay_importance_weighted(policy, log, 4)
        want = [4.0 * r if a == arm else 0.0
                for a, r in zip(log.actions.tolist(), log.rewards.tolist())]
        assert trans.payoffs.tolist() == want
        assert trans.arms.tolist() == [arm] * 500
        assert trans.detail == {"feedback": "iw-replay",
                                "estimated_value": float(np.mean(want))}
        assert policy.t == 500

    def test_every_record_consumed(self):
        log = synthesize_uniform_log([0.5] * 4, T=123, seed=5)
        trans = replay_importance_weighted(FixedPolicy(4, arm=0), log, 4)
        assert len(trans) == 123

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fixed_arm_step_matches_per_record_loop(self, data):
        K = data.draw(st.integers(2, 12), label="K")
        T = data.draw(st.integers(0, 200), label="T")
        actions = data.draw(st.lists(st.integers(0, K - 1), min_size=T,
                                     max_size=T), label="actions")
        rewards = data.draw(st.lists(st.integers(0, 1), min_size=T,
                                     max_size=T), label="rewards")
        log = _log(np.array(actions, dtype=np.int64),
                   np.array(rewards, dtype=np.int64))
        for arm in range(K):
            fixed = FixedPolicy(K, arm=arm)
            step = replay_importance_weighted(fixed, log, K)
            loop = replay_importance_weighted(_FixedArmLoop(K, arm), log, K)
            for name in ("arms", "payoffs"):
                got, want = getattr(step, name), getattr(loop, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert step.detail == loop.detail
            assert fixed.t == T

    @pytest.mark.parametrize("bad", [-1, 4, 9])
    def test_fixed_arm_step_checks_actions_like_the_loop(self, bad):
        log = _log([0, 3, bad, 1, 7], [1, 0, 1, 1, 0])
        messages = []
        for policy in (FixedPolicy(4, arm=2), _FixedArmLoop(4, 2)):
            with pytest.raises(ValueError) as info:
                replay_importance_weighted(policy, log, 4)
            messages.append(str(info.value))
            assert policy.t == 0
        assert messages[0] == messages[1] == f"logged action {bad} outside [0, 4)"


@pytest.mark.parametrize("replay", [replay_importance_weighted,
                                    replay_rejection_sampling],
                         ids=["iw", "rs"])
def test_a_replay_names_a_missing_random_stream(replay):
    # checked before the first record, so the policy has not moved
    log = synthesize_uniform_log([0.5] * 4, T=50, seed=3)
    # the estimates of importance weighting reach K
    policy = EXP3Policy(4, reward_range=4 if replay is
                        replay_importance_weighted else 1)
    with pytest.raises(ValueError) as info:
        replay(policy, log, 4)
    assert str(info.value) == "a policy that draws needs a random stream"
    assert policy.t == 0
    replay(policy, log, 4, np.random.default_rng(0))
    assert policy.t > 0


@pytest.mark.parametrize("replay", [replay_importance_weighted,
                                    replay_rejection_sampling],
                         ids=["iw", "rs"])
@pytest.mark.parametrize("actions, bad", [([0, 7, 1, -1], 7),
                                          ([2, -1, 3, 7], -1),
                                          ([0, 1, 2, 4], 4)])
def test_a_replay_rejects_a_logged_action_outside_its_arms(replay, actions,
                                                           bad):
    # before the first record, whatever the policy; rejection sampling
    # would otherwise pass over such records as never matched
    log = _log(actions, [1, 0, 1, 1])
    for policy in (UCB1Policy(4, parametrization="original"),
                   UCB1Policy(4, parametrization="original", reward_range=4.0),
                   FixedPolicy(4, arm=2), EXP3Policy(4)):
        with pytest.raises(ValueError) as info:
            replay(policy, log, 4, np.random.default_rng(0))
        assert str(info.value) == f"logged action {bad} outside [0, 4)"
        assert policy.t == 0


@pytest.mark.parametrize("replay", [replay_importance_weighted,
                                    replay_rejection_sampling],
                         ids=["iw", "rs"])
@pytest.mark.parametrize("make", [
    lambda: UCB1Policy(5, parametrization="original"),
    lambda: UCB1Policy(5, parametrization="original", reward_range=5.0),
    lambda: UCB1Policy(3, parametrization="original", reward_range=3.0),
    lambda: FixedPolicy(6, arm=5),
    lambda: FixedPolicy(2, arm=0), lambda: EXP3Policy(5)],
    ids=["ucb1_5", "ucb1_5_range_5", "ucb1_3", "fixed_6_arm_5", "fixed_2",
         "exp3_5"])
def test_a_replay_rejects_a_policy_of_other_arms(replay, make):
    # a K = 5 policy would play the never-logged arm 4, and rejection
    # sampling would stop at its first pull of it
    log = synthesize_uniform_log([0.5] * 4, T=50, seed=3)
    policy = make()
    with pytest.raises(ValueError) as info:
        replay(policy, log, 4, np.random.default_rng(0))
    assert str(info.value) == f"the policy plays {policy.K} arms, the log has 4"
    assert policy.t == 0


def test_policies_that_draw_nothing_replay_without_a_stream():
    log = synthesize_uniform_log([0.5] * 4, T=50, seed=3)
    for policy in (UCB1Policy(4, parametrization="original"),
                   FixedPolicy(4, arm=1)):
        assert policy.draws is False
        assert len(replay_rejection_sampling(policy, log, 4)) > 0
    ucb = UCB1Policy(4, parametrization="original", reward_range=4)
    assert len(replay_importance_weighted(ucb, log, 4)) == 50


@pytest.mark.parametrize("make, message", [
    (lambda: UCB1Policy(4, parametrization="improved"),
     "reward 4.0 outside [0, 1.0]"),
    (lambda: EXP3Policy(4), "reward must be in [0, 1], got 4.0")],
    ids=["ucb1", "exp3"])
def test_an_iw_replay_needs_a_policy_of_its_reward_range(make, message):
    # r~ reaches K, so a policy built for rewards in [0, 1] raises at its
    # first matched reward of 1, from its own update_reward check; UCB1
    # first plays arm 0 (logged reward 0), then arm 1
    log = _log([0, 1, 2, 3] * 10, [0] + [1] * 39)
    policy = make()
    with pytest.raises(ValueError) as info:
        replay_importance_weighted(policy, log, 4, np.random.default_rng(0))
    assert str(info.value) == message
    assert policy.t < len(log)
    if isinstance(policy, UCB1Policy):
        assert policy.t == 1


@pytest.mark.parametrize("replay", [replay_importance_weighted,
                                    replay_rejection_sampling],
                         ids=["iw", "rs"])
def test_a_fixed_policy_replays_the_same_with_a_stream(replay):
    # it never draws, so a stream changes no byte and is left as it was
    log = synthesize_uniform_log([0.2, 0.4, 0.6, 0.8], T=300, seed=12)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    without = replay(FixedPolicy(4, arm=2), log, 4)
    with_rng = replay(FixedPolicy(4, arm=2), log, 4, rng)
    assert rng.bit_generator.state == state
    for name in ("arms", "payoffs"):
        assert (getattr(without, name).tobytes()
                == getattr(with_rng, name).tobytes())
    assert without.detail == with_rng.detail


class _FixedArmLoop:
    """Plays one arm, as ``FixedPolicy(K, arm=arm)`` does, through the
    per-record loop of ``replay_importance_weighted``: it is not a
    ``FixedPolicy``, so it takes the loop."""

    draws = False

    def __init__(self, K: int, arm: int) -> None:
        self.K = K
        self.arm = arm
        self.t = 0

    def act(self, rng=None) -> int:
        return self.arm

    def update_reward(self, arm: int, reward: float) -> None:
        self.t += 1


class TestRejectionSamplingReplay:
    def test_all_matching_log_fully_consumed(self):
        log = _log([1] * 40, [1] * 40)
        trans = replay_rejection_sampling(FixedPolicy(2, arm=1), log, 2)
        assert trans.detail["effective_horizon"] == 40
        assert np.all(trans.payoffs == 1.0)

    @pytest.mark.parametrize("arm", range(4))
    def test_fixed_policy_accepts_exactly_its_records(self, arm):
        log = synthesize_uniform_log([0.3, 0.5, 0.7, 0.9], T=500, seed=arm)
        trans = replay_rejection_sampling(FixedPolicy(4, arm=arm), log, 4)
        matching = log.actions == arm
        assert trans.detail["effective_horizon"] == matching.sum()
        assert np.array_equal(trans.payoffs, log.rewards[matching])
        assert np.all(trans.arms == arm)

    @pytest.mark.parametrize("logged", range(3))
    def test_ucb_stops_at_first_arm_without_match(self, logged):
        # UCB1 first plays arms 0, 1, 2 in order, so on a log holding only
        # ``logged`` it is accepted once if that is arm 0 and never otherwise
        log = _log([logged] * 30, [1] * 30)
        trans = replay_rejection_sampling(
            UCB1Policy(3, parametrization="original"), log, 3)
        assert trans.detail["effective_horizon"] == (1 if logged == 0 else 0)
        assert trans.arms.tolist() == ([0] if logged == 0 else [])

    def test_skips_to_next_matching_record(self):
        # arms 0, 1, 2 match records 1, 2, 3; record 0 is passed over
        log = _log([2, 0, 1, 2], [0, 1, 0, 1])
        trans = replay_rejection_sampling(
            UCB1Policy(3, parametrization="original"), log, 3)
        assert trans.arms.tolist() == [0, 1, 2]
        assert trans.payoffs.tolist() == [1.0, 0.0, 1.0]

    def test_effective_horizon_matches_matching_rate(self):
        log = synthesize_uniform_log([0.5, 0.5], T=1000, seed=21)
        trans = replay_rejection_sampling(FixedPolicy(2, arm=0), log, 2)
        assert abs(trans.detail["effective_horizon"] - 500) <= 3 * math.sqrt(250)

    def test_ucb_replay_matches_live_play(self):
        K, T = 4, 4000
        means = [0.2, 0.45, 0.7, 0.35]
        replayed, live = [], []
        for rep in range(20):
            log = synthesize_uniform_log(means, T=T, seed=1000 + rep)
            trans = replay_rejection_sampling(
                UCB1Policy(K, parametrization="improved"), log, K)
            replayed.append(trans.payoffs.mean())
            rng = np.random.default_rng(5000 + rep)
            policy = UCB1Policy(K, parametrization="improved")
            horizon = trans.detail["effective_horizon"]
            earned = []
            for t in range(horizon):
                arm = policy.act()
                reward = float(rng.random() < means[arm])
                policy.update_reward(arm, reward)
                earned.append(reward)
            live.append(np.mean(earned))
        replayed, live = np.asarray(replayed), np.asarray(live)
        se = math.sqrt(replayed.var() / 20 + live.var() / 20)
        assert abs(replayed.mean() - live.mean()) <= 3 * se


# SHA-256 of scalar ``UCB1Policy`` games, taken before the policy resolved its
# radius scale at construction: replays of a seeded uniform log (reward
# range 1 under rejection sampling, K under importance weighting) and the
# UCB breaker's matrix and trajectory, which simulates improved UCB1 (at
# T = 600 the round robin; TestUcbBreaker pins where that ends).  The K = 5
# breaker row was pinned later, at the parent of the change that made the
# breaker's parametrization fixed; the K = 3 and 5 rows read the K-arm test
# data since the breaker fixed two arms.
UCB1_DIGESTS = {
    ("iw", 2, "original"): "8251def45f68f2697239d4f898502bd3cfcc7160adc006710afa08e60392c5ad",
    ("iw", 2, "improved"): "67148a88f23d9e486b579c3a06d4646fe95b13051a1711b26b12b8a8691fd416",
    ("iw", 3, "original"): "3dbb9d090ac2520a0271fae1792d56c38840dfc3825022852af10b38a487dd3f",
    ("iw", 3, "improved"): "c40df1ab01f1edbe530b5eec24e85d9ffb140fe6eada90816602301ba5d9492e",
    ("iw", 5, "original"): "38b5bdd39a7d9c790034332c319d386d78317cba4900f34055194aa68d315ddf",
    ("iw", 5, "improved"): "5fcd5d7509a041dae8ee32e6ee13d0cf88f6c1ded42b487338b0c371e0b1d145",
    ("rs", 2, "original"): "312f5a7d7b70d2a537d3e0b30456b4fe64c3067493dbc44c28f25d920ef1771b",
    ("rs", 2, "improved"): "7ed6ec6d1fc4e108a85fbf4b7409770b4ab9ee2688b2304f77a105b052f327bf",
    ("rs", 3, "original"): "039ee29335eb44dd25cdd1d4e2d5ae8d80dae25c32001cace848d7f11744c861",
    ("rs", 3, "improved"): "9bcfbcd0d898ba417b894abb6cf0b7d0f94c1267c50b00557312f4816c2f9598",
    ("rs", 5, "original"): "659c8e06a62accca31f0f0afd7d76cf18b077ff275d2f876e86697ec290df6d8",
    ("rs", 5, "improved"): "ce1ac33fa7003b7acb915255fadb0ff1b52443a2f9b81ec813f49d37569aa714",
    ("breaker", 2, "improved"): "5316b3861f2d6fb6f72cb765a4d4b72ac6c5339b57ffd02c87730e63a2314ff4",
    ("breaker", 3, "improved"): "f5e6627e3e72f0aebdef897088b5973a56fb506c766651980c2b86646b755bc2",
    ("breaker", 5, "improved"): "5b48598819a43cec356f6412b4c5bc6c7538a3b0dfa6f2d98fd7f7b0f6a23522",
}


def _ucb1_digest(kind: str, K: int, parametrization: str) -> str:
    """SHA-256 of one pinned scalar UCB1 game: arms, payoffs and detail of
    a replay ("rs", "iw"), or the breaker's matrix and trajectory, floats
    as ``float.hex``."""
    h = hashlib.sha256()
    if kind == "breaker":
        matrix, trajectory = _ucb_breaker_game(600, K)
        h.update(repr(([float.hex(v) for v in matrix.ravel().tolist()],
                       trajectory)).encode())
        return h.hexdigest()
    log = synthesize_uniform_log([0.2 + 0.6 * a / (K - 1) for a in range(K)],
                                 T=3000, seed=40 + K)
    policy = UCB1Policy(K, parametrization=parametrization,
                        reward_range=K if kind == "iw" else 1.0)
    replay = (replay_importance_weighted if kind == "iw"
              else replay_rejection_sampling)
    trans = replay(policy, log, K)
    detail = {key: float.hex(v) if isinstance(v, float) else v
              for key, v in sorted(trans.detail.items())}
    h.update(repr((trans.arms.tolist(),
                   [float.hex(v) for v in trans.payoffs.tolist()],
                   detail, policy.counts,
                   [float.hex(v) for v in policy.sums])).encode())
    return h.hexdigest()


class TestScalarUcb1Pinned:
    @pytest.mark.parametrize("kind, K, parametrization", list(UCB1_DIGESTS))
    def test_game_is_pinned(self, kind, K, parametrization):
        assert _ucb1_digest(kind, K, parametrization) \
            == UCB1_DIGESTS[kind, K, parametrization]

class TestRegretAccounting:
    def test_pseudo_regret_examples(self):
        got = pseudo_regret([1, 1, 0], [0.0, 0.25])
        assert np.allclose(got, [0.25, 0.5, 0.5])
        assert np.all(pseudo_regret([0, 0, 0], [0.1, 0.9]) == 0.0)

    def test_pseudo_regret_identity(self):
        rng = np.random.default_rng(8)
        means = np.array([0.3, 0.7, 0.5])
        arms = rng.integers(0, 3, size=100)
        got = pseudo_regret(arms, means)
        direct = np.cumsum(means[arms]) - np.arange(1, 101) * means.min()
        assert np.allclose(got, direct, atol=1e-12)

    @pytest.mark.parametrize("regret", [
        lambda arms: pseudo_regret(arms, [0.2, 0.5]),
        lambda arms: hindsight_regret([[0.0, 1.0], [1.0, 0.0]], arms)],
        ids=["pseudo_regret", "hindsight_regret"])
    @pytest.mark.parametrize("arm", [-1, 2])
    def test_arms_outside_the_arm_count_are_rejected(self, regret, arm):
        # numpy would read arm -1 as the last arm, in one game or in R
        for arms in ([arm, 0], [[0, 0], [arm, 0]]):
            with pytest.raises(ValueError) as info:
                regret(arms)
            assert str(info.value) == f"arms must be in [0, 2), got {arm}"
        assert len(regret([1, 0])) == 2

    @pytest.mark.parametrize("rows, arms", [([[0.0, 1.0]], [0, 1]),
                                            ([], [0]),
                                            ([[0.5, 0.5]] * 3, [1] * 4)])
    def test_arms_past_the_matrix_rows_are_rejected(self, rows, arms):
        matrix = np.array(rows).reshape(len(rows), 2)
        # the rounds are the last axis: one game's arms or three games' rows
        for games in (arms, [arms] * 3):
            with pytest.raises(ValueError) as info:
                hindsight_regret(matrix, games)
            assert str(info.value) == (f"arms must hold at most one arm per "
                                       f"loss-matrix row ({len(rows)}), got "
                                       f"{len(arms)}")
        assert len(hindsight_regret(matrix, arms[:len(rows)])) == len(rows)
        assert hindsight_regret(matrix, [arms[:len(rows)]] * 3).shape == \
            (3, len(rows))

    @pytest.mark.parametrize("T", [0, 1, 7, 300])
    @pytest.mark.parametrize("kind", ["bernoulli", "bernoulli_gap",
                                      "fractional_means", "ftl_breaker",
                                      "ucb_breaker", "uniform"])
    def test_each_row_of_arms_scores_as_its_one_game_call(self, kind, T):
        # the runner scores a series' R x T arms with one call; each row must
        # be its game's 1-D regret to the bit, and the arms left as they were
        K = 3 if kind in ("bernoulli_gap", "fractional_means", "uniform") else 2
        rng = np.random.default_rng([T, K])
        # a breaker of at least the 4 rounds both allow; arms may cover
        # fewer rows than the matrix has
        regret = {
            "bernoulli": lambda arms: pseudo_regret(arms, (0.25, 0.75)),
            "bernoulli_gap": lambda arms: pseudo_regret(arms, (0.25, 0.5, 0.5)),
            "fractional_means": lambda arms: pseudo_regret(arms, (0.3, 0.7, 0.1)),
            "ftl_breaker": partial(hindsight_regret, make_ftl_breaker(max(T, 4))),
            "ucb_breaker": partial(hindsight_regret,
                                   1.0 - make_ucb_breaker(max(T, 4))[0]),
            "uniform": partial(hindsight_regret, rng.random((T, K))),
        }[kind]
        games = rng.integers(0, K, size=(5, T))
        kept = games.tobytes()
        scored = regret(games)
        assert games.tobytes() == kept
        assert scored.shape == (5, T) and scored.dtype == float
        for game, row in zip(games, scored):
            assert regret(game).tobytes() == row.tobytes()

    def test_full_information_accounting_is_recomputable(self):
        # the hindsight regret of the stored matrix is the running
        # left-to-right payoff total less the least running column sum
        T = 500
        matrix = make_ftl_breaker(T)
        played = play_full_information(HedgePolicy(2), MatrixEnv(matrix), T,
                                       np.random.default_rng(17))
        arms, payoffs, (column_sums, regret), _ = _play_by_hand(
            HedgePolicy(2), MatrixEnv(matrix), T, np.random.default_rng(17))
        assert played.tolist() == arms
        assert matrix[np.arange(T), played].tolist() == payoffs
        assert hindsight_regret(matrix, played)[-1] == regret
        assert np.cumsum(matrix, axis=0)[-1].tolist() == column_sums

    def test_transcript_validation(self):
        with pytest.raises(ValueError):
            GameTranscript(np.array([0, 1]), np.array([0.5]))

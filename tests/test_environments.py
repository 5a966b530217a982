import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boundslab import environments
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
    EpsilonFirstPolicy,
    FTLPolicy,
    FixedPolicy,
    HedgePolicy,
    UCB1Batch,
    UCB1Policy,
)


class TestBernoulliEnv:
    def test_zero_means_zero_losses(self):
        env = BernoulliEnv([0.0, 0.0], seed=4)
        assert all(env.loss(t, a) == 0.0 for t in range(50) for a in range(2))

    def test_all_half_means_have_no_gap(self):
        env = BernoulliEnv([0.5, 0.5, 0.5], seed=9)
        rng = np.random.default_rng(1)
        [trans] = play_bandit(EXP3Policy(3), [env], 200, [rng])
        assert np.all(pseudo_regret(trans.arms, env.means) == 0.0)

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


class TestFtlBreaker:
    def test_ftl_loses_every_round_after_the_first(self):
        T = 200
        env = MatrixEnv(make_ftl_breaker(T))
        trans = play_full_information(FTLPolicy(2), env, T)
        cumulative = np.cumsum(trans.payoffs)
        for t in range(2, T + 1):
            assert cumulative[t - 1] >= t - 1

    def test_regret_is_linear_in_horizon(self):
        T = 2000
        matrix = make_ftl_breaker(T)
        trans = play_full_information(FTLPolicy(2), MatrixEnv(matrix), T)
        best = min(matrix.sum(axis=0))
        assert abs(best - T / 2) <= 1.0
        assert trans.detail["final_regret"] >= T / 2 - 1

    def test_anytime_hedge_stays_below_theorem_bound(self):
        T = 2000
        env = MatrixEnv(make_ftl_breaker(T))
        regrets = []
        for rep in range(10):
            rng = np.random.default_rng(100 + rep)
            trans = play_full_information(HedgePolicy(2), env, T, rng)
            regrets.append(trans.detail["final_regret"])
        regrets = np.asarray(regrets)
        bound = math.sqrt(T * math.log(2))
        assert regrets.mean() <= bound + 3 * regrets.std()

    def test_domain(self):
        with pytest.raises(ValueError):
            make_ftl_breaker(1)


class TestUcbBreaker:
    def test_entries_interior_and_untied(self):
        matrix, trajectory = make_ucb_breaker(300, K=3)
        assert matrix.min() > 0.0 and matrix.max() < 1.0
        assert len(trajectory) == 300
        for row in matrix:
            assert len(set(row.tolist())) == 3

    def test_ucb_follows_prediction_and_suffers_linear_regret(self):
        T = 10000
        matrix, trajectory = make_ucb_breaker(T, K=2)
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
        matrix, _ = make_ucb_breaker(T, K=K)
        losses = 1.0 - matrix
        games = play_bandit(EXP3Policy(K, R=20),
                            [MatrixEnv(losses) for _ in range(20)], T,
                            [np.random.default_rng(rep) for rep in range(20)])
        regrets = [hindsight_regret(losses, trans.arms)[-1] for trans in games]
        assert np.mean(regrets) <= math.sqrt(2 * K * T * math.log(K))


# Every bandit policy the runner builds, as (arm count, horizon, rows) ->
# fresh policy; epsilon-first is two-armed only.
BANDIT_KINDS = {
    "ucb1_original": lambda K, T, R: UCB1Batch(K, parametrization="original", R=R),
    "ucb1_improved": lambda K, T, R: UCB1Batch(K, parametrization="improved", R=R),
    "exp3_anytime": lambda K, T, R: EXP3Policy(K, R=R),
    "exp3_fixed_horizon": lambda K, T, R: EXP3Policy(K, T=T, R=R),
    "exp3_explicit_eta": lambda K, T, R: EXP3Policy(K, eta=0.3, R=R),
    "exp3_rewards": lambda K, T, R: EXP3Policy(K, variant="rewards", eta=0.2, R=R),
    "epsilon_first": lambda K, T, R: EpsilonFirstPolicy(T, 0.25, R),
}

# SHA-256 of ``_game_digest`` over the R = 4 games of each kind below, as
# the scalar loop act -> env.loss -> update of the former one-game EXP3 and
# epsilon-first classes played them, one repetition at a time.
SCALAR_LOOP_DIGESTS = {
    ("epsilon_first", "bernoulli"): "14142e25d78ee739bc0221ac5b06ed2be4d2ab6b057fe05309e94e8652750dea",
    ("epsilon_first", "ucb_breaker"): "7c6b90d947f9864a885c8c3a85d8f40517a5277e1b0e5f168fc0fc7195f353ac",
    ("exp3_anytime", "bernoulli"): "f5c498bf40236d752359f6878a6b17c83b0a3a5fbddde25b877096364c49a1ec",
    ("exp3_anytime", "ucb_breaker"): "7e55c90a2e3e6030a95ceef42e46f15e113053bc64512a6be8fe19a5a78b804b",
    ("exp3_explicit_eta", "bernoulli"): "fe4ab6531ad96b1b2a5d4162a7177c8a96c461073b59825948df6968f1281e92",
    ("exp3_explicit_eta", "ucb_breaker"): "cb3233fd26d528549644a523d3d5c92e0243cf5ec1bb98e299f906bac3ae5c55",
    ("exp3_fixed_horizon", "bernoulli"): "efca6280530bd5de74946f743a6ea18b3901f610cdc083eaea8ef30e36763e52",
    ("exp3_fixed_horizon", "ucb_breaker"): "480d0f381b0140e66366d7e2434d00551ddd83a4ac6e9879789137fa1bd4280a",
    ("exp3_rewards", "bernoulli"): "7caeb53775fa0843eaeb3d730f5ae148d524529ccbd5fa7da9963999dbf6e9b9",
    ("exp3_rewards", "ucb_breaker"): "5644dc34583e6752d0e2aab912748d69468c09ec1854962552ee6282cc57554a",
}


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
    rewards, _ = make_ucb_breaker(T, K)
    return [MatrixEnv(1.0 - rewards) for _ in range(R)]


class TestBatchedBandit:
    @pytest.mark.parametrize("env_kind", ["bernoulli", "ucb_breaker"])
    @pytest.mark.parametrize("policy_kind", sorted(BANDIT_KINDS))
    def test_equals_scalar_loop_per_repetition(self, policy_kind, env_kind,
                                               monkeypatch):
        # small blocks, so a game spans many of them
        monkeypatch.setattr(environments, "BLOCK_CELLS", 40)
        K = 2 if policy_kind == "epsilon_first" else 3
        T, R = 400, 4
        policy = BANDIT_KINDS[policy_kind](K, T, R)
        rngs = [np.random.default_rng(50 + r) for r in range(R)]
        games = play_bandit(policy, _bandit_envs(env_kind, K, T, R), T, rngs)
        assert len(games) == R and policy.t == T
        if policy_kind.startswith("ucb1"):
            # the live scalar reference: one UCB1Policy game per repetition
            for r, game in enumerate(games):
                scalar = UCB1Policy(K, parametrization=policy.parametrization)
                env = _bandit_envs(env_kind, K, T, R)[r]
                arms, losses = [], []
                for t in range(T):
                    arm = scalar.act()
                    loss = env.loss(t, arm)
                    scalar.update(arm, loss)
                    arms.append(arm)
                    losses.append(loss)
                assert game.arms.tolist() == arms
                assert game.payoffs.tolist() == losses
                assert policy.counts[r].tolist() == scalar.counts
                assert policy.sums[r].tolist() == scalar.sums
            return
        state = (policy.estimates if policy_kind.startswith("exp3")
                 else np.hstack([policy.counts, policy.sums]))
        digest = _game_digest(
            (game.arms.tolist(), game.payoffs.tolist(), row, rng.random())
            for game, row, rng in zip(games, state.tolist(), rngs))
        assert digest == SCALAR_LOOP_DIGESTS[policy_kind, env_kind]

    def test_input_checks(self):
        env = MatrixEnv(np.full((10, 2), 0.5))
        env.matrix[6, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            play_bandit(UCB1Batch(2), [env], 10)
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
            play_bandit(UCB1Batch(3), envs[:1], 10)
        with pytest.raises(ValueError, match="R=2"):
            EXP3Policy(2, R=2).act(rng)


# Each full-information policy of one game, built from (K, T).
FULL_INFO_KINDS = {
    "ftl": lambda K, T: FTLPolicy(K),
    "hedge_anytime_simple": lambda K, T: HedgePolicy(K, variant="anytime_simple"),
    "hedge_anytime_tight": lambda K, T: HedgePolicy(K, variant="anytime_tight"),
    "hedge_doubling": lambda K, T: HedgePolicy(K, doubling=True),
    "hedge_explicit_eta": lambda K, T: HedgePolicy(K, eta=0.3),
    "hedge_simple": lambda K, T: HedgePolicy(K, variant="simple", T=T),
    "hedge_tight": lambda K, T: HedgePolicy(K, variant="tight", T=T),
}

# SHA-256 of each full-information game's transcript, computed with the loop
# that drew one uniform per Hedge round; see ``_full_info_digest``.
FULL_INFO_DIGESTS = {
    ("ftl", "bernoulli"): "c53f95a78916c0910ebcdb49375d6ea748394f966f9d33dce45f037d2f8e79dd",
    ("ftl", "ftl_breaker"): "bca3147a73b5f815e35e1a0ba99d0a2a5e623bd36bbaf189cd588822d069774b",
    ("hedge_anytime_simple", "bernoulli"): "7c8383d69b2af851d7a28bb6457eda4b64ec3b672a12892bda916b8bd25b4934",
    ("hedge_anytime_simple", "ftl_breaker"): "1e2d8a8be1a65b0c8689c523ed570ccbe0eb5817fffeb8aa7df9e8a6562d1d6d",
    ("hedge_anytime_tight", "bernoulli"): "23ddd86fab615e9ece3faf236c4beaf8bac250ec0d6eeb2dfd2aff970b30c0a3",
    ("hedge_anytime_tight", "ftl_breaker"): "f25cc783da30b731a0e769db562b23272108a1a399e2abfff545e169ba750a93",
    ("hedge_doubling", "bernoulli"): "cbc9ddf0fca141d6a36734f580365cb485cdd4c69e2129baec5b7c30b017210d",
    ("hedge_doubling", "ftl_breaker"): "165f6c0d5f8f61fca8fba4aef73862f3b2266b0c7abe47bdf35e50fadee17d01",
    ("hedge_explicit_eta", "bernoulli"): "d7d74c0c3186e9d71ecadbfe6580be0c3517959d4adb94ec25950c912fa7a105",
    ("hedge_explicit_eta", "ftl_breaker"): "e6e2c8794b678dae83ca099d551afd8b2f56d30111600a754581a661ee2b8f37",
    ("hedge_simple", "bernoulli"): "fee064ab448ee56e6e556cbd3d22d4b30255bc0624f019a0753bd96a34c5cf87",
    ("hedge_simple", "ftl_breaker"): "02e9e915b6a67d7b40f1306df95871e5709d694c8a374c2b95b8e1530a43686d",
    ("hedge_tight", "bernoulli"): "2526f0adea5d59cd1b60562be58bfa02290bddcd38e36043edb599e3eb7cd2a5",
    ("hedge_tight", "ftl_breaker"): "09af2aefbbce0ba63e49c5cb2411013ea673cacc48a13ec6083ff8cffddb9522",
}


def _full_info_digest(trans, rng) -> str:
    """One SHA-256 over the arm bytes, the payoffs, the ``detail`` sums and
    regret (floats as ``float.hex``) and the next draw of the stream."""
    detail = trans.detail
    return hashlib.sha256(repr((
        trans.arms.tobytes(),
        [float.hex(v) for v in trans.payoffs.tolist()],
        [float.hex(v) for v in detail["column_sums"]],
        float.hex(detail["final_regret"]),
        float.hex(rng.random()),
    )).encode()).hexdigest()


class TestFullInformation:
    @pytest.mark.parametrize("row_block", [13, environments.ROW_BLOCK])
    @pytest.mark.parametrize("env_kind", ["bernoulli", "ftl_breaker"])
    @pytest.mark.parametrize("policy_kind", sorted(FULL_INFO_KINDS))
    def test_transcript_is_pinned(self, policy_kind, env_kind, row_block,
                                  monkeypatch):
        # blocks of 13 rounds, for the game loop and the env's rows, so a
        # game spans many and the last one is short
        monkeypatch.setattr(environments, "ROW_BLOCK", row_block)
        T = 600  # doubling periods up to [512, 1024)
        env = (BernoulliEnv((0.35, 0.5, 0.65), seed=2024)
               if env_kind == "bernoulli" else MatrixEnv(make_ftl_breaker(T)))
        policy = FULL_INFO_KINDS[policy_kind](env.K, T)
        # at seed 31 the two anytime rates happen to play the same arms on
        # the breaker, so their digests could not tell them apart
        rng = np.random.default_rng(32)
        trans = play_full_information(policy, env, T, rng)
        assert policy.t == T
        digest = _full_info_digest(trans, rng)
        assert digest == FULL_INFO_DIGESTS[policy_kind, env_kind]

    def test_a_drawing_policy_needs_a_stream(self):
        env = MatrixEnv(make_ftl_breaker(10))
        with pytest.raises(ValueError, match="random stream"):
            play_full_information(HedgePolicy(2), env, 10)
        trans = play_full_information(FTLPolicy(2), env, 10)
        assert trans.arms.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


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
    ], ids=["crlf", "no_final_newline", "leading_comment", "blank_line",
            "comment_of_24", "plus_token", "tabs", "two_digit_action",
            "bad_action", "bad_reward", "zero_K", "zero_K_no_records", "letter",
            "field_count"])
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
            loop = replay_importance_weighted(_FixedArmLoop(arm), log, K)
            for name in ("arms", "payoffs"):
                got, want = getattr(step, name), getattr(loop, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert step.detail == loop.detail and step.kind == loop.kind
            assert fixed.t == T

    @pytest.mark.parametrize("bad", [-1, 4, 9])
    def test_fixed_arm_step_checks_actions_like_the_loop(self, bad):
        log = _log([0, 3, bad, 1, 7], [1, 0, 1, 1, 0])
        messages = []
        for policy in (FixedPolicy(4, arm=2), _FixedArmLoop(2)):
            with pytest.raises(ValueError) as info:
                replay_importance_weighted(policy, log, 4)
            messages.append(str(info.value))
            assert policy.t == 0
        assert messages[0] == messages[1] == f"logged action {bad} outside [0, 4)"


@pytest.mark.parametrize("replay", [replay_importance_weighted,
                                    replay_rejection_sampling],
                         ids=["iw", "rs"])
@pytest.mark.parametrize("make", [lambda: EXP3Policy(4),
                                  lambda: FixedPolicy(4, dist=[0.25] * 4)],
                         ids=["exp3", "fixed_dist"])
def test_a_replay_names_a_missing_random_stream(replay, make):
    # checked before the first record, so the policy has not moved
    log = synthesize_uniform_log([0.5] * 4, T=50, seed=3)
    policy = make()
    with pytest.raises(ValueError) as info:
        replay(policy, log, 4)
    assert str(info.value) == "a policy that draws needs a random stream"
    assert policy.t == 0
    replay(policy, log, 4, np.random.default_rng(0))
    assert policy.t > 0


def test_policies_that_draw_nothing_replay_without_a_stream():
    log = synthesize_uniform_log([0.5] * 4, T=50, seed=3)
    for policy in (UCB1Policy(4), FixedPolicy(4, arm=1)):
        assert policy.draws is False
        assert len(replay_rejection_sampling(policy, log, 4)) > 0
    assert FixedPolicy(4, dist=[0.25] * 4).draws is True
    ucb = UCB1Policy(4, reward_range=4)
    assert len(replay_importance_weighted(ucb, log, 4)) == 50


class _FixedArmLoop:
    """Plays one arm, as ``FixedPolicy(K, arm=arm)`` does, through the
    per-record loop of ``replay_importance_weighted``: it is not a
    ``FixedPolicy``, so it takes the loop."""

    draws = False

    def __init__(self, arm: int) -> None:
        self.arm = arm
        self.t = 0

    def act(self, rng=None) -> int:
        return self.arm

    def replay_update(self, arm: int, r_tilde: float, K: int) -> None:
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
        trans = replay_rejection_sampling(UCB1Policy(3), log, 3)
        assert trans.detail["effective_horizon"] == (1 if logged == 0 else 0)
        assert trans.arms.tolist() == ([0] if logged == 0 else [])

    def test_skips_to_next_matching_record(self):
        # arms 0, 1, 2 match records 1, 2, 3; record 0 is passed over
        log = _log([2, 0, 1, 2], [0, 1, 0, 1])
        trans = replay_rejection_sampling(UCB1Policy(3), log, 3)
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
        # numpy would read arm -1 as the last arm
        with pytest.raises(ValueError) as info:
            regret([arm, 0])
        assert str(info.value) == f"arms must be in [0, 2), got {arm}"
        assert len(regret([1, 0])) == 2

    @pytest.mark.parametrize("rows, arms", [([[0.0, 1.0]], [0, 1]),
                                            ([], [0]),
                                            ([[0.5, 0.5]] * 3, [1] * 4)])
    def test_arms_past_the_matrix_rows_are_rejected(self, rows, arms):
        matrix = np.array(rows).reshape(len(rows), 2)
        with pytest.raises(ValueError) as info:
            hindsight_regret(matrix, arms)
        assert str(info.value) == (f"arms must hold at most one arm per "
                                   f"loss-matrix row ({len(rows)}), got "
                                   f"{len(arms)}")
        assert len(hindsight_regret(matrix, arms[:len(rows)])) == len(rows)

    def test_full_information_accounting_is_recomputable(self):
        T = 500
        matrix = make_ftl_breaker(T)
        rng = np.random.default_rng(17)
        trans = play_full_information(HedgePolicy(2), MatrixEnv(matrix), T, rng)
        recomputed = hindsight_regret(matrix, trans.arms)[-1]
        assert trans.detail["final_regret"] == recomputed

    def test_transcript_validation(self):
        with pytest.raises(ValueError):
            GameTranscript(np.array([0]), np.array([0.5]), "points")
        with pytest.raises(ValueError):
            GameTranscript(np.array([0, 1]), np.array([0.5]), "loss")
        trans = GameTranscript(np.array([0, 1, 1]), np.zeros(3), "loss")
        assert list(trans.arm_counts(3)) == [1, 2, 0]

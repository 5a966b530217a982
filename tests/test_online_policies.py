import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from boundslab.online_policies import (
    EXP3Policy,
    EXP4Policy,
    EpsilonFirstPolicy,
    FTLPolicy,
    FixedPolicy,
    HedgePolicy,
    UCB1Policy,
    _as_probvec_rows,
    doubling_schedule,
    epsilon_first_schedule,
    exp3_eta,
    exp4_mix,
    ftl_choice,
    hedge_distribution,
    hedge_eta,
    importance_weighted_loss,
    sample_arm,
    ucb_index,
)
from boundslab.divergences import NORMALIZATION_TOL, ProbVec

finite_losses = st.lists(
    st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=8
)


class TestHedgeDistribution:
    def test_zero_losses_uniform(self):
        p = hedge_distribution([0.0, 0.0, 0.0], 0.7)
        assert all(math.isclose(w, 1 / 3, rel_tol=1e-12) for w in p)

    def test_closed_form_two_arms(self):
        p = hedge_distribution([0.0, math.log(2)], 1.0)
        assert math.isclose(p[0], 2 / 3, rel_tol=1e-12)
        assert math.isclose(p[1], 1 / 3, rel_tol=1e-12)

    @given(finite_losses, st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=-20.0, max_value=20.0))
    def test_shift_invariance(self, losses, eta, shift):
        p = hedge_distribution(losses, eta)
        q = hedge_distribution([v + shift for v in losses], eta)
        assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                   for a, b in zip(p, q))

    @given(finite_losses, st.floats(min_value=0.01, max_value=5.0))
    def test_valid_simplex(self, losses, eta):
        p = hedge_distribution(losses, eta)
        assert isinstance(p, ProbVec)
        assert math.isclose(sum(p), 1.0, abs_tol=1e-9)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            hedge_distribution([0.0, 1.0], 0.0)


class TestHedgeEta:
    def test_simple_example(self):
        assert math.isclose(hedge_eta(2, T=2000, variant="simple"),
                            0.026328, abs_tol=1e-6)

    def test_tight_is_twice_simple(self):
        simple = hedge_eta(3, T=500, variant="simple")
        assert math.isclose(hedge_eta(3, T=500, variant="tight"),
                            2 * simple, rel_tol=1e-12)

    def test_anytime_ratio(self):
        a = hedge_eta(4, t=17, variant="anytime_simple")
        assert math.isclose(hedge_eta(4, t=17, variant="anytime_tight"),
                            2 * a, rel_tol=1e-12)
        assert math.isclose(a, math.sqrt(math.log(4) / 17), rel_tol=1e-12)

    def test_grid_optimality_simple(self):
        # the fixed rate minimizes ln K / eta + eta T / 2
        K, T = 5, 3000
        eta_star = hedge_eta(K, T=T, variant="simple")
        objective = lambda e: math.log(K) / e + e * T / 2
        best = min(objective(0.0001 + 0.0999 * i / 9999) for i in range(10000))
        assert objective(eta_star) <= best + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            hedge_eta(1, T=10)
        with pytest.raises(ValueError):
            hedge_eta(2, T=10, variant="bogus")
        with pytest.raises(ValueError):
            hedge_eta(2, variant="simple")

    @pytest.mark.parametrize("kwargs", [
        {"variant": "simple", "T": 300},
        {"variant": "tight", "T": 300},
        {"variant": "anytime_simple"},
        {"variant": "anytime_tight"},
        {"eta": 0.37},
        {"doubling": True},
    ])
    def test_hedge_rate_per_round(self, kwargs):
        K, T = 3, 300
        rng = np.random.default_rng(9)
        pol = HedgePolicy(K, **kwargs)
        for t in range(1, T + 1):
            p = pol.distribution()  # applies a doubling reset first
            if "eta" in kwargs:
                eta = kwargs["eta"]
            elif kwargs.get("doubling"):
                eta = doubling_schedule(t, K)[1]
            else:
                eta = hedge_eta(K, T=kwargs.get("T"), t=t,
                                variant=kwargs["variant"])
            assert p == hedge_distribution(pol.cum_losses, eta)
            pol.observe(rng.random(K).tolist())


class TestHedgePolicyChecks:
    @pytest.mark.parametrize("kwargs", [
        {"variant": "bogus"},
        {"variant": "bogus", "eta": 0.1},
        {"variant": "bogus", "doubling": True},
    ])
    def test_variant_is_always_checked(self, kwargs):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            HedgePolicy(2, **kwargs)

    @pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("doubling", [False, True])
    def test_explicit_eta_is_positive_and_finite(self, eta, doubling):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            HedgePolicy(2, eta=eta, doubling=doubling)

    def test_eta_and_doubling_exclude_each_other(self):
        with pytest.raises(ValueError, match="eta or doubling, not both"):
            HedgePolicy(2, eta=0.1, doubling=True)

    def test_round_needs_one_uniform(self):
        assert HedgePolicy.draws and not FTLPolicy.draws
        pol = HedgePolicy(3, eta=0.5)
        pol.observe([1.0, 0.0, 1.0])
        p = pol.distribution()
        for u in (0.0, p[0] - 1e-12, p[0], 0.999999):
            assert pol.act(u) == sample_arm(p, u)
        assert FTLPolicy(3).act() == 0


class TestFtlChoice:
    def test_examples(self):
        assert ftl_choice([1.0, 2.0]) == 0
        assert ftl_choice([2.0, 2.0]) == 0
        assert ftl_choice([3.0, 1.0, 2.0]) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            ftl_choice([])


class TestImportanceWeighting:
    def test_values(self):
        assert importance_weighted_loss(1.0, 0.25, True) == 4.0
        assert importance_weighted_loss(0.7, 0.1, False) == 0.0

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            importance_weighted_loss(0.5, 0.0, True)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=2, max_size=6))
    def test_conditional_unbiasedness_by_enumeration(self, losses):
        K = len(losses)
        p = [1.0 / K] * K
        for a in range(K):
            estimate = sum(
                p[drawn] * importance_weighted_loss(losses[a], p[a], drawn == a)
                for drawn in range(K)
            )
            assert math.isclose(estimate, losses[a], rel_tol=1e-12,
                                abs_tol=1e-12)


class TestExp3:
    def test_first_round_uniform_both_variants(self):
        for variant, eta in (("losses", None), ("rewards", 0.2)):
            pol = EXP3Policy(4, variant=variant, eta=eta)
            p = pol.distributions()[0]
            assert all(math.isclose(w, 0.25, rel_tol=1e-12) for w in p)

    def test_anytime_eta_default(self):
        assert math.isclose(exp3_eta(3, 0),
                            math.sqrt(math.log(3) / 3), rel_tol=1e-12)
        assert math.isclose(exp3_eta(3, 9),
                            math.sqrt(math.log(3) / 30), rel_tol=1e-12)
        # the policy plays its first round at the anytime rate
        first = EXP3Policy(3)
        first.estimates[0] = (0.0, 1.0, 2.0)
        assert first.distributions()[0].tolist() == list(
            hedge_distribution([0.0, 1.0, 2.0], exp3_eta(3, 0)))

    def test_fixed_eta_grid_optimality(self):
        # sqrt(2 ln K / (K T)) minimizes ln K / eta + eta K T / 2
        K, T = 4, 2000
        eta_star = exp3_eta(K, 0, T=T)
        objective = lambda e: math.log(K) / e + e * K * T / 2
        best = min(objective(0.0001 + 0.0999 * i / 9999) for i in range(10000))
        assert objective(eta_star) <= best + 1e-9

    def test_estimates_nondecreasing_and_unbiased_second_moment(self):
        rng = np.random.default_rng(5)
        pol = EXP3Policy(3)
        prev = pol.estimates[0].tolist()
        for t in range(200):
            arm = pol.act(rng)
            p = pol.p[0]
            # conditional second moment by enumeration over the drawn arm:
            # sum_a p(a) E[l~_a^2] = sum_a l_a^2 <= K
            losses = rng.random(3)
            second = sum(
                p[a] * sum(
                    p[drawn]
                    * importance_weighted_loss(
                        float(losses[a]), p[a], drawn == a) ** 2
                    for drawn in range(3)
                )
                for a in range(3)
            )
            assert second <= 3.0 + 1e-9
            pol.update(arm, float(losses[arm]))
            assert all(cur >= old - 1e-15
                       for cur, old in zip(pol.estimates[0], prev))
            prev = pol.estimates[0].tolist()

    def test_rewards_variant_floor(self):
        rng = np.random.default_rng(11)
        eta = 0.15
        pol = EXP3Policy(4, variant="rewards", eta=eta)
        for _ in range(300):
            p = pol.distributions()[0]
            assert min(p) >= eta / 4 - 1e-12
            arm = pol.act(rng)
            pol.update(arm, float(rng.random()))

    @pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan, math.inf])
    def test_losses_variant_needs_a_positive_finite_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            EXP3Policy(2, eta=eta)

    def test_rewards_variant_requires_eta_in_unit_interval(self):
        with pytest.raises(ValueError):
            EXP3Policy(2, variant="rewards")
        with pytest.raises(ValueError):
            EXP3Policy(2, variant="rewards", eta=1.5)

    def test_a_nan_estimate_fails_the_sum_check(self):
        pol = EXP3Policy(2, R=2)
        pol.estimates[0, 1] = math.nan
        with pytest.raises(ValueError) as caught:
            pol.distributions()
        assert str(caught.value) == "weights sum to [nan  1.], not 1"

    @pytest.mark.parametrize("off", [2 * NORMALIZATION_TOL,
                                     -2 * NORMALIZATION_TOL])
    def test_a_row_off_one_fails_the_sum_check(self, off):
        p = np.array([[0.5, 0.5], [0.5, 0.5 + off], [0.25, 0.75]])
        with pytest.raises(ValueError) as caught:
            _as_probvec_rows(p)
        assert str(caught.value) == "weights sum to [1. 1. 1.], not 1"
        # within the tolerance, each row is divided by its sum
        p[1, 1] = 0.5 + off / 4
        assert _as_probvec_rows(p).tolist() == [
            list(ProbVec(row)) for row in p.tolist()]

    def test_update_requires_act(self):
        pol = EXP3Policy(2)
        with pytest.raises(ValueError):
            pol.update(0, 0.5)

    def test_one_row_contract_checks(self):
        rng = np.random.default_rng(0)
        for variant, eta in (("losses", None), ("rewards", 0.2)):
            pol = EXP3Policy(2, variant=variant, eta=eta)
            arm = pol.act(rng)
            # -1e-17 is a loss below 0 although 1 - (-1e-17) rounds to 1
            for bad in (-0.5, 1.5, math.nan, -1e-17):
                with pytest.raises(ValueError, match=r"loss must be in \[0, 1\]"):
                    pol.update(arm, bad)
            pol.replay_update(arm, 2.0, 2)  # estimated reward K: loss 0
            assert pol.t == 1 and pol.p is None
        rows = EXP3Policy(2, R=2)
        with pytest.raises(ValueError, match="R=2"):
            rows.act(rng)
        rows.act_rows(np.array([0.1, 0.9]))
        with pytest.raises(ValueError, match="R=2"):
            rows.update(0, 0.5)


class TestExp4:
    def test_mixture_examples(self):
        w = ProbVec([0.5, 0.5])
        p, _ = exp4_mix(w, [(1.0, 0.0), (0.0, 1.0)])
        assert p.weights == (0.5, 0.5)
        w = ProbVec([0.75, 0.25])
        p, _ = exp4_mix(w, [(1.0, 0.0), (0.0, 1.0)])
        assert math.isclose(p[0], 0.75, rel_tol=1e-12)

    def test_single_expert_follows_advice(self):
        p, rows = exp4_mix(ProbVec([1.0]), [(0.2, 0.3, 0.5)])
        assert all(math.isclose(a, b, rel_tol=1e-12)
                   for a, b in zip(p, (0.2, 0.3, 0.5)))
        assert rows == [(0.2, 0.3, 0.5)]
        # the one expert is charged its advice for the played arm times l̃
        pol = EXP4Policy(1, 3, eta=0.1)
        arm = pol.act([(0.2, 0.3, 0.5)], np.random.default_rng(0))
        pol.update(arm, 0.5)
        assert pol.cum_expert_losses == [rows[0][arm] * (0.5 / p[arm])]

    def test_expert_losses_are_the_advice_weighted_estimates(self):
        # expert h is charged sum_a q_h(a) l̃_a, l̃ zero off the played arm
        rng = np.random.default_rng(2)
        N, K = 4, 3
        pol = EXP4Policy(N, K, eta=0.3)
        want = [0.0] * N
        for _ in range(200):
            advice = rng.dirichlet(np.ones(K), size=N)
            p, rows = exp4_mix(pol.expert_weights(), advice)
            assert rows == [ProbVec(row).weights for row in advice]
            assert np.allclose(p.weights, np.asarray(pol.expert_weights().weights)
                               @ advice, rtol=1e-12)
            arm = pol.act(advice, rng)
            loss = float(rng.random())
            estimates = [0.0] * K
            estimates[arm] = loss / p[arm]
            for h, row in enumerate(rows):
                want[h] += sum(q * est for q, est in zip(row, estimates))
            pol.update(arm, loss)
            assert pol.cum_expert_losses == want

    def test_default_eta(self):
        pol = EXP4Policy(8, 2, T=10000)
        assert math.isclose(pol.eta,
                            math.sqrt(2 * math.log(8) / (2 * 10000)),
                            rel_tol=1e-12)

    def test_default_eta_needs_two_experts(self):
        # the derived rate sqrt(2 ln 1 / (K T)) is 0; an explicit eta is not
        with pytest.raises(ValueError) as info:
            EXP4Policy(1, 2, T=100)
        assert str(info.value) == "n_experts must be >= 2 and finite, got 1"
        assert EXP4Policy(1, 2, eta=0.1).eta == 0.1

    @pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan, math.inf])
    def test_eta_must_be_positive_and_finite(self, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            EXP4Policy(3, 2, eta=eta)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exp4_mix(ProbVec([0.5, 0.5]), [(1.0, 0.0)])
        with pytest.raises(ValueError):
            exp4_mix(ProbVec([1.0]), [(0.9, 0.2)])


class TestUcbIndex:
    def test_examples(self):
        assert math.isclose(ucb_index(0.5, int(math.e ** 2) + 1, 3, "original"),
                            0.5 + math.sqrt(3 * math.log(int(math.e ** 2) + 1) / 6),
                            rel_tol=1e-12)
        # exact closed forms at t = e^2 via the continuous formula
        t = math.e ** 2
        assert math.isclose(0.5 + math.sqrt(3 * math.log(t) / 6), 1.5,
                            rel_tol=1e-12)
        assert math.isclose(0.5 + math.sqrt(math.log(t) / 3), 1.31650,
                            abs_tol=1e-5)

    @given(st.integers(1, 10 ** 15), st.integers(1, 10 ** 15))
    def test_radius_is_bit_equal_to_the_stated_formulas(self, t, n):
        assert ucb_index(0.0, t, n, "original") == math.sqrt(
            3.0 * math.log(t) / (2.0 * n))
        assert ucb_index(0.0, t, n, "improved") == math.sqrt(math.log(t) / n)

    def test_round_one_is_mean(self):
        assert ucb_index(0.37, 1, 1, "original") == 0.37
        assert ucb_index(0.37, 1, 1, "improved") == 0.37

    def test_domain(self):
        with pytest.raises(ValueError):
            ucb_index(0.5, 10, 0, "original")
        with pytest.raises(ValueError):
            ucb_index(0.5, 10, 1, "bogus")


@st.composite
def ucb1_states(draw):
    """A UCB1 policy's parameters and state (counts, sums, rounds played).
    Arms are drawn from a pool of at most three (count, mean) pairs, so exact
    ties between arms are common; ``t`` < K is a forced round."""
    K = draw(st.integers(1, 6))
    parametrization = draw(st.sampled_from(["original", "improved"]))
    reward_range = draw(st.sampled_from([1.0, float(K)]))
    pool = draw(st.lists(st.tuples(st.integers(1, 10 ** 6),
                                   st.floats(0.0, 1.0)),
                         min_size=1, max_size=3))
    arms = draw(st.lists(st.sampled_from(pool), min_size=K, max_size=K))
    counts = [n for n, _ in arms]
    sums = [n * mean * reward_range for n, mean in arms]
    t = draw(st.one_of(st.integers(0, K - 1), st.integers(K, 10 ** 7)))
    return K, parametrization, reward_range, counts, sums, t


class TestUcbPolicy:
    @given(ucb1_states())
    @example((3, "improved", 3.0, [2, 2, 2], [1.5, 1.5, 1.5], 6))
    @example((2, "original", 1.0, [1, 1], [0.0, 0.0], 1))
    def test_act_is_first_argmax_of_ucb_index(self, state):
        K, parametrization, reward_range, counts, sums, t = state
        pol = UCB1Policy(K, parametrization=parametrization,
                         reward_range=reward_range)
        pol.counts, pol.sums, pol.t = counts, sums, t
        if t < K:
            assert pol.act() == t
            return
        indices = [sums[a] / counts[a] + reward_range * ucb_index(
                       0.0, t + 1, counts[a], parametrization)
                   for a in range(K)]
        assert pol.act() == indices.index(max(indices))

    def test_initialization_order_and_counts(self):
        rng = np.random.default_rng(0)
        pol = UCB1Policy(4)
        for a in range(4):
            assert pol.act() == a
            pol.update_reward(a, float(rng.random()))
        assert pol.counts == [1, 1, 1, 1]
        for t in range(50):
            arm = pol.act()
            pol.update_reward(arm, float(rng.random()))
        assert sum(pol.counts) == pol.t
        assert all(c >= 1 for c in pol.counts)

    def test_tie_breaks_lowest_index(self):
        pol = UCB1Policy(3)
        for a in range(3):
            pol.act()
            pol.update_reward(a, 0.5)
        assert pol.act() == 0

    def test_loss_adapter_prefers_low_loss_arm(self):
        pol = UCB1Policy(2, parametrization="improved")
        for a in range(2):
            pol.act()
            pol.update(a, (0.1, 0.9)[a])
        for _ in range(200):
            arm = pol.act()
            pol.update(arm, (0.1, 0.9)[arm])
        assert pol.counts[0] > pol.counts[1]


class TestEpsilonFirst:
    def test_schedule_example(self):
        eps, rounds = epsilon_first_schedule(0.2, 10000)
        assert math.isclose(eps, 0.0599146, abs_tol=1e-6)
        assert rounds == 600

    def test_small_horizon_no_exploration(self):
        eps, rounds = epsilon_first_schedule(0.1, 100)  # T * gap^2 = 1
        assert eps == 0.0
        assert rounds == 0

    def test_stationary_point(self):
        T, gap = 10000, 0.2
        eps, _ = epsilon_first_schedule(gap, T)
        f = lambda e: e / 2 + 2 * math.exp(-e * T * gap * gap / 4)
        h = 1e-6
        derivative = (f(eps + h) - f(eps - h)) / (2 * h)
        assert abs(derivative) < 1e-6

    def test_policy_alternates_then_commits(self):
        # row 0 sees arm 0 win, row 1 arm 1, row 2 a tie
        losses = np.array([(0.1, 0.9), (0.9, 0.1), (0.5, 0.5)])
        pol = EpsilonFirstPolicy(10000, 0.2, R=3)
        seen = []
        for t in range(pol.exploration_rounds):
            arms = pol.act_rows()
            seen.append(arms.tolist())
            pol.update_rows(arms, losses[np.arange(3), arms])
        assert seen[:4] == [[0] * 3, [1] * 3, [0] * 3, [1] * 3]
        assert sum(arms[0] for arms in seen) * 2 == len(seen)
        assert pol.act_rows().tolist() == [0, 1, 0]  # empirically best arm

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_first_schedule(0.0, 100)


class TestDoubling:
    def test_examples(self):
        m, eta, reset = doubling_schedule(1, 2)
        assert (m, reset) == (0, True)
        assert math.isclose(eta, math.sqrt(8 * math.log(2)), rel_tol=1e-12)
        assert doubling_schedule(7, 2)[0] == 2
        assert doubling_schedule(7, 2)[2] is False
        assert doubling_schedule(8, 2)[:1] == (3,)
        assert doubling_schedule(8, 2)[2] is True

    def test_hedge_rate_and_resets_follow_the_schedule(self):
        # the arm-0 loss grows within a period, so a reset shows as zero
        # losses and the rate in the distribution of every later round
        K = 2
        pol = HedgePolicy(K, doubling=True)
        for t in range(1, 2 ** 12 + 1):
            p = pol.distribution()
            _, eta, reset = doubling_schedule(t, K)
            assert (pol.cum_losses == [0.0, 0.0]) == reset
            assert p == hedge_distribution(pol.cum_losses, eta)
            pol.observe([1.0, 0.0])

    def test_hedge_distribution_changes_nothing(self):
        # the period restart belongs to observe: a distribution asked for at
        # any round, period starts included, leaves the losses as they were
        rng = np.random.default_rng(5)
        pol = HedgePolicy(3, doubling=True)
        for t in range(1, 2 ** 7 + 1):
            before = list(pol.cum_losses)
            assert pol.distribution() == pol.distribution()
            assert pol.cum_losses == before
            pol.observe(rng.random(3).tolist())

    def test_hedge_wrapper_resets(self):
        rng = np.random.default_rng(3)
        pol = HedgePolicy(2, doubling=True)
        for t in range(1, 10):
            pol.act(rng.random())
            pol.observe([1.0, 0.0])
            if t + 1 in (2, 4, 8):
                # peeking at the next round's distribution applies the reset
                p = pol.distribution()
                assert math.isclose(p[0], 0.5, rel_tol=1e-12)


def _running_sum_arm(dist, u):
    """The reference inverse-CDF draw: a running float sum from 0.0, one
    ``float`` add per weight."""
    cum = 0.0
    for a, w in enumerate(dist):
        cum += float(w)
        if u < cum:
            return a
    return len(dist) - 1


class TestSampling:
    def test_inverse_cdf(self):
        dist = [0.2, 0.5, 0.3]
        assert sample_arm(dist, 0.0) == 0
        assert sample_arm(dist, 0.19) == 0
        assert sample_arm(dist, 0.2) == 1
        assert sample_arm(dist, 0.69) == 1
        assert sample_arm(dist, 0.999) == 2

    @given(weights=st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-17, 0.5])
                            | st.floats(min_value=0.0, max_value=1.0),
                            min_size=1, max_size=8),
           under_one=st.booleans(),
           u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(weights=[0.0, -0.0, 1.0], under_one=False, u=0.0)
    def test_inverse_cdf_matches_the_running_sum_loop(self, weights, under_one,
                                                      u):
        if under_one:
            # scale the weights so that their left-to-right sum lands just
            # under 1, where u may pass every partial sum
            total = math.fsum(weights)
            if total > 0.0:
                weights = [w / total * math.nextafter(1.0, 0.0) for w in weights]
        # u at, and one ulp either side of, each partial sum and the ends
        below_one = math.nextafter(1.0, 0.0)
        points = [u, 0.0, below_one, *itertools.accumulate(weights)]
        for c in points:
            for v in (math.nextafter(c, -1.0), c, math.nextafter(c, 2.0)):
                v = min(max(v, 0.0), below_one)
                assert sample_arm(weights, v) == _running_sum_arm(weights, v)
                assert sample_arm(tuple(weights), v) == sample_arm(weights, v)

    def test_determinism_of_policy_runs(self):
        def run():
            rng = np.random.default_rng(77)
            pol = EXP3Policy(3)
            arms, estimates = [], None
            for _ in range(100):
                arm = pol.act(rng)
                pol.update(arm, float(rng.random()))
                arms.append(arm)
            return arms, tuple(pol.estimates[0].tolist())

        assert run() == run()


class TestFixedPolicy:
    def test_constant_arm(self):
        pol = FixedPolicy(4, arm=2)
        assert pol.act() == 2
        pol.update_reward(2, 1.0)
        assert pol.act() == 2

    def test_distribution_sampling(self):
        rng = np.random.default_rng(9)
        pol = FixedPolicy(2, dist=[0.8, 0.2])
        draws = [pol.act(rng) for _ in range(2000)]
        assert abs(sum(draws) / 2000 - 0.2) < 0.03

    def test_rejects_ambiguous_construction(self):
        with pytest.raises(ValueError):
            FixedPolicy(2)
        with pytest.raises(ValueError):
            FixedPolicy(2, arm=0, dist=[0.5, 0.5])

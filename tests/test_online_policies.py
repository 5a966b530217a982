import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from boundslab.online_policies import (
    EXP3Policy,
    EXP4Policy,
    FTLPolicy,
    FixedPolicy,
    HedgePolicy,
    UCB1Batch,
    UCB1Policy,
    _as_probvec_rows,
    _hedge_weights,
    doubling_schedule,
    ftl_choice,
    hedge_eta,
    sample_arm,
)
from boundslab.divergences import NORMALIZATION_TOL, ProbVec

BIG = sys.float_info.max
finite_losses = st.lists(
    st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=8
)


class TestHedgeWeights:
    def test_zero_losses_uniform(self):
        p = _hedge_weights([0.0, 0.0, 0.0], 0.7)
        assert all(math.isclose(w, 1 / 3, rel_tol=1e-12) for w in p)

    def test_closed_form_two_arms(self):
        p = _hedge_weights([0.0, math.log(2)], 1.0)
        assert math.isclose(p.weights[0], 2 / 3, rel_tol=1e-12)
        assert math.isclose(p.weights[1], 1 / 3, rel_tol=1e-12)

    @given(finite_losses, st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=-20.0, max_value=20.0))
    def test_shift_invariance(self, losses, eta, shift):
        p = _hedge_weights(losses, eta)
        q = _hedge_weights([v + shift for v in losses], eta)
        assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                   for a, b in zip(p, q))

    @given(finite_losses, st.floats(min_value=0.01, max_value=5.0))
    def test_valid_simplex(self, losses, eta):
        p = _hedge_weights(losses, eta)
        assert isinstance(p, ProbVec)
        assert math.isclose(sum(p), 1.0, abs_tol=1e-9)

    # the minimum is subtracted first, so every exponent is at most 0: a
    # product past the float range is exp(-inf) = 0, never inf or NaN
    @pytest.mark.parametrize("losses, eta, want", [
        ([0.0, 1e6], 1.0, (1.0, 0.0)),
        ([BIG, 0.0], 1.0, (0.0, 1.0)),
        ([0.0, 1.0], BIG, (1.0, 0.0)),
        ([0.0, 0.0, 1e6], 1.0, (0.5, 0.5, 0.0)),
    ], ids=["large_spread", "largest_loss", "largest_rate", "tied_lowest"])
    def test_an_exponent_past_the_float_range_is_a_zero_weight(
            self, losses, eta, want):
        assert tuple(_hedge_weights(losses, eta).weights) == want

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6)
           .filter(lambda ls: max(ls) - min(ls) < math.inf),
           st.floats(min_value=5e-324, max_value=BIG))
    @example([0.0, 1.0], BIG)
    @example([BIG, 0.0], 5e-324)
    def test_a_finite_spread_at_any_rate_is_a_simplex(self, losses, eta):
        # the lowest loss has weight exp(0) = 1 before the division, so the
        # total is at least 1 and that arm holds the most mass
        p = _hedge_weights(losses, eta)
        assert p.weights[losses.index(min(losses))] == max(p.weights) > 0
        assert math.isclose(sum(p), 1.0, abs_tol=1e-9)


class TestHedgeEta:
    def test_simple_example(self):
        assert math.isclose(hedge_eta(2, T=2000, variant="simple"),
                            0.026328, abs_tol=1e-6)

    def test_tight_is_twice_simple(self):
        simple = hedge_eta(3, T=500, variant="simple")
        assert math.isclose(hedge_eta(3, T=500, variant="tight"),
                            2 * simple, rel_tol=1e-12)

    def test_anytime_ratio(self):
        assert math.isclose(hedge_eta(4, t=17, variant="anytime_tight"),
                            2 * math.sqrt(math.log(4) / 17), rel_tol=1e-12)

    @pytest.mark.parametrize("K", range(2, 65))
    def test_tight_is_the_written_out_rate_bit_for_bit(self, K):
        # acceptance 04 builds its tight Hedge from the variant and T alone;
        # it passed this formula as an explicit rate while Hedge took one
        assert [T for T in range(1, 2001) if hedge_eta(K, T=T, variant="tight")
                != math.sqrt(8 * math.log(K) / T)] == []

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
        {"variant": "anytime_tight"},
        {"doubling": True},
        # as the runner builds it: a variant and T, which doubling ignores
        {"variant": "simple", "T": 300, "doubling": True},
    ])
    def test_hedge_rate_per_round(self, kwargs):
        K, T = 3, 300
        rng = np.random.default_rng(9)
        pol = HedgePolicy(K, **kwargs)
        for t in range(1, T + 1):
            p = pol.distribution()  # applies a doubling reset first
            if kwargs.get("doubling"):
                eta = doubling_schedule(t, K)[1]
            else:
                eta = hedge_eta(K, T=kwargs.get("T"), t=t,
                                variant=kwargs["variant"])
            assert p.weights == _hedge_weights(pol.cum_losses, eta).weights
            pol.observe(rng.random(K).tolist())


class TestHedgePolicyChecks:
    @pytest.mark.parametrize("kwargs", [
        {"variant": "bogus"},
        {"variant": "bogus", "doubling": True},
    ])
    def test_variant_is_always_checked(self, kwargs):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            HedgePolicy(2, **kwargs)

    def test_round_needs_one_uniform(self):
        assert HedgePolicy.draws and not FTLPolicy.draws
        pol = HedgePolicy(3, variant="tight", T=10)
        pol.observe([1.0, 0.0, 1.0])
        p = pol.distribution()
        for u in (0.0, p.weights[0] - 1e-12, p.weights[0], 0.999999):
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
    """The loss estimates that EXP3's and EXP4's ``update_rows`` add: l / p
    at the played arm, 0 elsewhere, and for EXP4 expert h's advice for the
    played arm times that."""

    @staticmethod
    def _policies(K, advice):
        return (EXP3Policy(K, R=K),
                EXP4Policy(len(advice), K, lambda t: advice, T=100, R=K))

    def test_values(self):
        pol = EXP3Policy(4, R=2)
        pol.act_rows(np.array([0.1, 0.9]))  # the first round is uniform
        pol.update_rows(np.array([0, 3]), np.array([1.0, 0.7]))
        assert pol.estimates.tolist() == [[4.0, 0.0, 0.0, 0.0],
                                          [0.0, 0.0, 0.0, 0.7 / 0.25]]

    def test_zero_probability_rejected(self):
        for pol in self._policies(2, np.array([(1.0, 0.0)] * 2)):
            with pytest.raises(ValueError, match="requires a preceding act"):
                pol.update_rows(np.array([0, 1]), np.array([0.5, 0.5]))
            pol.act_rows(np.array([0.5, 0.5]))
            pol.p[1] = (1.0, 0.0)
            with pytest.raises(ValueError, match="zero-probability"):
                pol.update_rows(np.array([0, 1]), np.array([0.5, 0.5]))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=2, max_size=6))
    def test_conditional_unbiasedness_by_enumeration(self, losses):
        # from one state, row d plays arm d: the estimates averaged over the
        # playing distribution are the losses, and each expert's its advice
        # times the losses
        K = len(losses)
        advice = np.random.default_rng(K).dirichlet(np.ones(K), size=3)
        for pol in self._policies(K, advice):
            pol.act_rows(np.zeros(K))
            p = pol.p[0]
            pol.update_rows(np.arange(K), np.array(losses))
            want = advice @ losses if isinstance(pol, EXP4Policy) else losses
            assert np.allclose(p @ pol.estimates, want, rtol=1e-12,
                               atol=1e-12)


def _zero_columns(p: np.ndarray, K: int) -> np.ndarray:
    """The two-column ``p`` with K - 2 zero columns after it."""
    return np.pad(p, ((0, 0), (0, K - 2)))


def _nudged(x: float, ulps: int) -> float:
    """x moved ``ulps`` doubles up (or down, for a negative count)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# nonnegative finite doubles: any of [0, 2], subnormals, those within an ulp
# of 1, and any whose sum with another cannot overflow, which fsum raises on
_cells = st.one_of(
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0 ** -1022, exclude_max=True),
    st.sampled_from([_nudged(1.0, -1), 1.0, _nudged(1.0, 1)]),
    st.floats(0.0, sys.float_info.max / 2))
# a row that sums to about 1, and a cell with a half ulp of it, or three
# halves, beside it: a sum halfway between two doubles, which rounds to even.
# Every cell is nonnegative, as ``_as_probvec_rows`` requires: at a = 1 a
# step down from 1 - a = 0 is clamped to 0
_near_one = st.builds(lambda a, ulps: (a, max(0.0, _nudged(1.0 - a, ulps))),
                      st.floats(0.0, 1.0), st.integers(-2, 2))
_tie = st.builds(lambda a, odd: (a, odd * math.ulp(a) / 2),
                 _cells, st.sampled_from([1, 3]))
two_cell_rows = st.one_of(st.tuples(_cells, _cells), _near_one, _tie,
                          _tie.map(lambda row: row[::-1]))


class TestExp3:
    def test_first_round_uniform(self):
        p = EXP3Policy(4).distributions()[0]
        assert all(math.isclose(w, 0.25, rel_tol=1e-12) for w in p)

    def test_anytime_eta_default(self):
        # after t rounds the policy plays Hedge at sqrt(ln K / ((t + 1) K))
        pol = EXP3Policy(3)
        pol.estimates[0] = (0.0, 1.0, 2.0)
        for t, eta in ((0, math.sqrt(math.log(3) / 3)),
                       (9, math.sqrt(math.log(3) / 30))):
            pol.t = t
            assert pol.distributions()[0].tolist() == list(
                _hedge_weights([0.0, 1.0, 2.0], eta))

    @pytest.mark.parametrize("K", [2, 4, 5, 8, 16])
    def test_anytime_rate_per_round(self, K):
        # at the arm counts of the ucb_vs_exp3 preset's k_grid, and at 5,
        # where division by K rounds, each round plays Hedge on the
        # estimates at sqrt(ln K / (t K)), t from 1
        rng = np.random.default_rng(K)
        pol = EXP3Policy(K)
        for t in range(1, 51):
            eta = math.sqrt(math.log(K) / (t * K))
            want = _hedge_weights(pol.estimates[0].tolist(), eta)
            assert pol.distributions()[0].tolist() == list(want)
            pol.update(pol.act(rng), rng.random())

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
            probe = EXP3Policy(3, R=3)
            probe.p = np.tile(p, (3, 1))
            probe.update_rows(np.arange(3), losses)  # row d plays arm d
            second = sum(
                p[a] * sum(p[d] * probe.estimates[d, a] ** 2 for d in range(3))
                for a in range(3)
            )
            assert second <= 3.0 + 1e-9
            pol.update(arm, float(losses[arm]))
            assert all(cur >= old - 1e-15
                       for cur, old in zip(pol.estimates[0], prev))
            prev = pol.estimates[0].tolist()

    # K = 2 totals a row with one add, K = 3 (a zero third column, which
    # leaves each total as it is) with ``math.fsum``: one message for both
    @pytest.mark.parametrize("K", [2, 3])
    def test_a_nan_estimate_fails_the_sum_check(self, K):
        pol = EXP3Policy(K, R=2)
        pol.estimates[0, 1] = math.nan
        with pytest.raises(ValueError) as caught:
            pol.distributions()
        assert str(caught.value) == "row 0: weights sum to nan, not 1"

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("off, total", [
        (2 * NORMALIZATION_TOL, "1.0000000020000002"),
        (-2 * NORMALIZATION_TOL, "0.9999999980000001")],
        ids=["2e-09", "-2e-09"])
    def test_a_row_off_one_fails_the_sum_check(self, off, total, K):
        p = np.array([[0.5, 0.5], [0.5, 0.5 + off], [0.25, 0.75 + off]])
        with pytest.raises(ValueError) as caught:
            _as_probvec_rows(_zero_columns(p, K))
        # the first failing row, with its fsum total as a Python float
        assert str(caught.value) == f"row 1: weights sum to {total}, not 1"
        # within the tolerance, each row is divided by its sum
        p[1:, 1] = 0.5 + off / 4, 0.75 + off / 4
        p = _zero_columns(p, K)
        assert _as_probvec_rows(p).tolist() == [
            list(ProbVec(row)) for row in p.tolist()]

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_the_first_row_off_one_is_named(self, bad, K):
        # row ``bad`` sums to 2, and every row after it to more
        p = np.full((3, 2), 0.5)
        p[bad:, 1] += np.arange(1.0, 4.0 - bad)
        with pytest.raises(ValueError) as caught:
            _as_probvec_rows(_zero_columns(p, K))
        assert str(caught.value) == f"row {bad}: weights sum to 2.0, not 1"

    def test_a_two_cell_total_that_overflows_fails_the_sum_check(self):
        # math.fsum raises OverflowError here; the one add gives inf
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError) as caught:
            _as_probvec_rows(np.array([[0.5, 0.5], [1e308, 1e308]]))
        assert str(caught.value) == "row 1: weights sum to inf, not 1"

    @pytest.mark.parametrize("rows, named", [
        ([(0.25, 0.25, 0.5), (1e308, 1e308, 0.0), (0.5, 1.0, 0.5)],
         "row 1: weights sum to inf, not 1"),
        ([(0.25, 0.25, 0.5), (0.5, 1.0, 0.5), (1e308, 1e308, 0.0)],
         "row 1: weights sum to 2.0, not 1")], ids=["at", "after"])
    def test_a_wide_row_total_that_overflows_fails_the_sum_check(self, rows,
                                                               named):
        # math.fsum raises OverflowError on (1e308, 1e308, 0); the rows are
        # then summed one at a time, so the first failing row is named
        with pytest.raises(ValueError) as caught:
            _as_probvec_rows(np.array(rows))
        assert str(caught.value) == named

    @given(two_cell_rows)
    @example((1.0 - 2.0 ** -53, 2.0 ** -54))  # a tie, to even: 1.0
    @example((0.5, 0.5 + 2.0 ** -53))  # a tie, to even: 1.0
    @example((0.5, 0.5 + 3 * 2.0 ** -53))  # a tie, to even: 1 + 2**-51
    @example((5e-324, 1.0))
    def test_a_two_cell_total_is_the_fsum_total(self, row):
        assert float.hex(row[0] + row[1]) == float.hex(math.fsum(row))
        try:
            want = list(ProbVec(row))
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                _as_probvec_rows(np.array([row]))
            assert str(caught.value) == f"row 0: {exc}"
        else:
            got = _as_probvec_rows(np.array([row]))[0].tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_update_requires_act(self):
        pol = EXP3Policy(2)
        with pytest.raises(ValueError):
            pol.update(0, 0.5)

    def test_one_row_contract_checks(self):
        rng = np.random.default_rng(0)
        pol = EXP3Policy(2)
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

    # -1 and -3 index the last and the first arm of a Python sequence
    @pytest.mark.parametrize("arm", [-1, -3, 3, 4])
    def test_an_arm_outside_the_policy_is_rejected(self, arm):
        pol = EXP3Policy(3)
        pol.act(np.random.default_rng(0))
        for call in (lambda: pol.update(arm, 0.5),
                     lambda: pol.update_reward(arm, 0.5),
                     lambda: pol.replay_update(arm, 1.5, 3)):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == f"arm must be in [0, 3), got {arm}"
        assert pol.estimates.tolist() == [[0.0] * 3] and pol.t == 0
        pol.update(2, 0.5)  # the round is still open
        assert pol.t == 1

    @pytest.mark.parametrize("call", ["update", "update_reward",
                                      "replay_update"])
    @pytest.mark.parametrize("arm", [0, 2])
    def test_an_arm_at_either_end_is_credited(self, arm, call):
        # loss 0.5 three ways: loss 0.5, reward 0.5, estimated reward 1.5 of 3
        pol = EXP3Policy(3)
        pol.act(np.random.default_rng(0))
        p_arm = pol.p[0, arm]
        args = {"update": (0.5,), "update_reward": (0.5,),
                "replay_update": (1.5, 3)}[call]
        getattr(pol, call)(arm, *args)
        want = [0.0] * 3
        want[arm] = 0.5 / p_arm
        assert pol.estimates.tolist() == [want] and pol.t == 1


def _static(*rows):
    advice = np.array(rows)
    return lambda t: advice


class TestExp4:
    def test_mixture_examples(self):
        pol = EXP4Policy(2, 2, _static((1.0, 0.0), (0.0, 1.0)), T=100)
        pol.act_rows(np.array([0.5]))
        assert pol.p.tolist() == [[0.5, 0.5]]
        # expert weights 0.75 and 0.25
        pol.estimates[0] = (0.0, math.log(3.0) / pol.eta)
        pol.act_rows(np.array([0.5]))
        assert math.isclose(pol.p[0, 0], 0.75, rel_tol=1e-12)

    def test_agreeing_experts_are_followed(self):
        pol = EXP4Policy(2, 3, _static(*[(0.2, 0.3, 0.5)] * 2), T=100)
        [arm] = pol.act_rows(np.array([0.6]))
        p, q = pol.p[0], pol.q[0]
        assert np.allclose(p, (0.2, 0.3, 0.5), rtol=1e-12)
        assert tuple(q) == ProbVec((0.2, 0.3, 0.5)).weights
        # each expert is charged its advice for the played arm times l̃
        pol.update_rows(np.array([arm]), np.array([0.5]))
        assert pol.estimates.tolist() == [[q[arm] * (0.5 / p[arm])] * 2]

    def test_expert_losses_are_the_advice_weighted_estimates(self):
        # expert h is charged sum_a q_h(a) l̃_a, l̃ zero off the played arm,
        # and a row plays the advice mixed by Hedge on its expert losses
        rng = np.random.default_rng(2)
        N, K, R, T = 4, 3, 2, 200
        advice = rng.dirichlet(np.ones(K), size=(T, N))
        pol = EXP4Policy(N, K, lambda t: advice[t], T=T, R=R)
        want = np.zeros((R, N))
        for t in range(T):
            weights = np.array([_hedge_weights(row, pol.eta).weights
                                for row in pol.estimates.tolist()])
            arms = pol.act_rows(rng.random(R))
            rows = [ProbVec(row).weights for row in advice[t]]
            assert list(map(tuple, pol.q.tolist())) == rows
            assert np.allclose(pol.p, weights @ advice[t], rtol=1e-12)
            losses = rng.random(R)
            for r, arm in enumerate(arms):
                estimates = [0.0] * K
                estimates[arm] = losses[r] / pol.p[r, arm]
                for h, row in enumerate(rows):
                    want[r, h] += sum(q * est for q, est in zip(row, estimates))
            pol.update_rows(arms, losses)
            assert pol.estimates.tolist() == want.tolist()

    def test_default_eta(self):
        pol = EXP4Policy(8, 2, _static(*[(0.5, 0.5)] * 8), T=10000)
        assert math.isclose(pol.eta,
                            math.sqrt(2 * math.log(8) / (2 * 10000)),
                            rel_tol=1e-12)

    def test_default_eta_needs_two_experts(self):
        # the derived rate sqrt(2 ln 1 / (K T)) is 0
        advice = _static((0.5, 0.5))
        with pytest.raises(ValueError) as info:
            EXP4Policy(1, 2, advice, T=100)
        assert str(info.value) == "n_experts must be >= 2 and finite, got 1"

    @pytest.mark.parametrize("advice", [
        [(1.0, 0.0)], [(1.0, 0.0, 0.0)] * 2, [0.5, 0.5], [[(0.5, 0.5)]] * 2])
    def test_advice_of_the_wrong_shape(self, advice):
        pol = EXP4Policy(2, 2, lambda t: advice, T=10)
        shape = np.shape(advice)
        with pytest.raises(ValueError) as info:
            pol.act_rows(np.array([0.5]))
        assert str(info.value) == f"advice must have shape (2, 2), got {shape}"

    @pytest.mark.parametrize("bad", [
        (1.5, -0.5), (-math.inf, 2.0), (math.nan, 1.0), (0.5, math.nan),
        (math.nan, -1.0), (0.9, 0.2), (math.inf, 0.0), (0.5, 0.5 - 1e-8)])
    def test_advice_raises_as_its_probvec_would(self, bad):
        # with ProbVec's message; a row sum off one names the row
        pol = EXP4Policy(2, 2, _static((0.5, 0.5), bad), T=10)
        with pytest.raises(ValueError) as want:
            ProbVec(bad)
        with pytest.raises(ValueError) as got:
            pol.act_rows(np.array([0.5]))
        assert str(got.value) in (str(want.value), f"row 1: {want.value}")

    @pytest.mark.parametrize("row", [0, 1])
    def test_advice_whose_sum_overflows_names_its_row(self, row):
        # math.fsum raises OverflowError on (1e308, 1e308, 0); ProbVec and
        # the advice check both name the sum, inf
        advice = [(0.5, 0.5, 0.0)] * 2
        advice[row] = (1e308, 1e308, 0.0)
        pol = EXP4Policy(2, 3, _static(*advice), T=10)
        with pytest.raises(ValueError) as want:
            ProbVec(advice[row])
        with pytest.raises(ValueError) as got:
            pol.act_rows(np.array([0.5]))
        assert str(want.value) == "weights sum to inf, not 1"
        assert str(got.value) == f"row {row}: {want.value}"


class TestRadiusCoefficient:
    @given(st.integers(1, 10 ** 15), st.integers(1, 10 ** 15))
    def test_radius_is_bit_equal_to_the_stated_formulas(self, t, n):
        # c = scale * ln t, with each class's construction-time scale
        log_t = math.log(t)
        for cls in (UCB1Policy, UCB1Batch):
            original = cls(2, parametrization="original").scale
            improved = cls(2, parametrization="improved").scale
            assert math.sqrt(original * log_t / n) \
                == math.sqrt(3.0 * math.log(t) / (2.0 * n))
            assert math.sqrt(improved * log_t / n) \
                == math.sqrt(math.log(t) / n)

    def test_domain(self):
        for cls in (UCB1Policy, UCB1Batch):
            with pytest.raises(ValueError,
                               match="unknown parametrization 'bogus'"):
                cls(2, parametrization="bogus")

    def test_the_scalar_policy_takes_no_default_parametrization(self):
        # every caller outside the tests plays improved UCB1, the config's
        # batch default is original: the scalar class makes no choice
        with pytest.raises(TypeError, match="parametrization"):
            UCB1Policy(2)


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


def first_argmax_of_the_index(counts, sums, reward_range, parametrization,
                              t):
    """The first arm maximising sums/counts + range * sqrt(c / counts) in
    round t + 1, with c = 1.5 ln(t + 1) ("original") or ln(t + 1)."""
    c = {"original": 1.5, "improved": 1.0}[parametrization] * math.log(t + 1)
    indices = [v / n + reward_range * math.sqrt(c / n)
               for n, v in zip(counts, sums)]
    return indices.index(max(indices))


class TestUcbPolicy:
    @given(ucb1_states())
    @example((3, "improved", 3.0, [2, 2, 2], [1.5, 1.5, 1.5], 6))
    @example((2, "original", 1.0, [1, 1], [0.0, 0.0], 1))
    # the arm flips if either coefficient is scaled by 1.5 or by 1 / 1.5
    @example((2, "improved", 1.0, [100, 10000], [20.0, 5000.0], 10100))
    @example((2, "original", 1.0, [100, 10000], [20.0, 5000.0], 10100))
    def test_act_is_first_argmax_of_the_index(self, state):
        K, parametrization, reward_range, counts, sums, t = state
        pol = UCB1Policy(K, parametrization=parametrization,
                         reward_range=reward_range)
        pol.counts, pol.sums, pol.t = counts, sums, t
        if t < K:
            assert pol.act() == t
            return
        assert pol.act() == first_argmax_of_the_index(
            counts, sums, reward_range, parametrization, t)

    @given(ucb1_states())
    @example((3, "improved", 3.0, [2, 2, 2], [1.5, 1.5, 1.5], 6))
    @example((3, "original", 1.0, [1, 4, 9], [0.5, 2.0, 4.5], 20))
    @example((2, "improved", 1.0, [100, 10000], [20.0, 5000.0], 10100))
    @example((2, "original", 1.0, [100, 10000], [20.0, 5000.0], 10100))
    def test_batch_rows_are_first_argmaxes_of_the_index(self, state):
        # the state, and the state with its arms reversed, as two rows
        K, parametrization, reward_range, counts, sums, t = state
        sums = [v / reward_range for v in sums]  # the batch has range 1
        rows = [(counts, sums), (counts[::-1], sums[::-1])]
        pol = UCB1Batch(K, parametrization=parametrization, R=2)
        pol.counts = np.array([n for n, _ in rows], dtype=float)
        pol.sums = np.array([v for _, v in rows])
        pol.t = t
        expected = [t, t] if t < K else [
            first_argmax_of_the_index(n, v, 1.0, parametrization, t)
            for n, v in rows]
        assert pol.act_rows().tolist() == expected

    # -1 and -3 index the last and the first arm of a Python list
    @pytest.mark.parametrize("arm", [-1, -3, 3, 4])
    def test_an_arm_outside_the_policy_is_rejected(self, arm):
        unit = UCB1Policy(3, parametrization="original")
        replay = UCB1Policy(3, parametrization="original", reward_range=3.0)
        for call in (lambda: unit.update_reward(arm, 0.5),
                     lambda: unit.update(arm, 0.5),
                     lambda: replay.replay_update(arm, 1.5, 3)):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == f"arm must be in [0, 3), got {arm}"
        for pol in (unit, replay):
            assert (pol.counts, pol.sums, pol.t) == ([0] * 3, [0.0] * 3, 0)

    @pytest.mark.parametrize("call", ["update", "update_reward",
                                      "replay_update"])
    @pytest.mark.parametrize("arm", [0, 2])
    def test_an_arm_at_either_end_is_credited(self, arm, call):
        # reward 0.25 on the unit range, or estimated reward 1.5 of 3
        pol, value, reward = {
            "update": (UCB1Policy(3, parametrization="original"), (0.75,),
                       0.25),
            "update_reward": (UCB1Policy(3, parametrization="original"),
                              (0.25,), 0.25),
            "replay_update": (UCB1Policy(3, parametrization="original",
                                         reward_range=3.0), (1.5, 3), 1.5),
        }[call]
        getattr(pol, call)(arm, *value)
        counts, sums = [0] * 3, [0.0] * 3
        counts[arm], sums[arm] = 1, reward
        assert (pol.counts, pol.sums, pol.t) == (counts, sums, 1)

    def test_initialization_order_and_counts(self):
        rng = np.random.default_rng(0)
        pol = UCB1Policy(4, parametrization="original")
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
        pol = UCB1Policy(3, parametrization="original")
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


class TestDoubling:
    def test_examples(self):
        m, eta = doubling_schedule(1, 2)
        assert m == 0
        assert math.isclose(eta, math.sqrt(8 * math.log(2)), rel_tol=1e-12)
        assert doubling_schedule(7, 2)[0] == 2
        assert doubling_schedule(8, 2)[0] == 3

    def test_hedge_rate_and_resets_follow_the_schedule(self):
        # the arm-0 loss grows within a period, so a reset shows as zero
        # losses and the rate in the distribution of every later round
        K = 2
        pol = HedgePolicy(K, doubling=True)
        for t in range(1, 2 ** 12 + 1):
            p = pol.distribution()
            m, eta = doubling_schedule(t, K)
            assert (pol.cum_losses == [0.0, 0.0]) == (t == 2 ** m)
            assert p.weights == _hedge_weights(pol.cum_losses, eta).weights
            pol.observe([1.0, 0.0])

    def test_hedge_distribution_changes_nothing(self):
        # the period restart belongs to observe: a distribution asked for at
        # any round, period starts included, leaves the losses as they were
        rng = np.random.default_rng(5)
        pol = HedgePolicy(3, doubling=True)
        for t in range(1, 2 ** 7 + 1):
            before = list(pol.cum_losses)
            assert pol.distribution().weights == pol.distribution().weights
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
                assert math.isclose(p.weights[0], 0.5, rel_tol=1e-12)


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

    @pytest.mark.parametrize("arm", range(4))
    def test_plays_its_arm_and_never_draws(self, arm):
        pol = FixedPolicy(4, arm=arm)
        assert pol.draws is False
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert [pol.act(rng) for _ in range(5)] == [arm] * 5
        assert pol.act() == arm
        assert rng.bit_generator.state == state

    def test_arm_is_a_required_keyword(self):
        with pytest.raises(TypeError):
            FixedPolicy(2)
        with pytest.raises(TypeError):
            FixedPolicy(2, 0)

    def test_replay_update_counts_a_round(self):
        pol = FixedPolicy(3, arm=1)
        for t, (arm, r_tilde) in enumerate([(1, 3.0), (0, 0.0), (1, 0.0)]):
            pol.replay_update(arm, r_tilde, 3)
            assert pol.t == t + 1
            assert pol.act() == 1

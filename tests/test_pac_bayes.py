import itertools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest

import _digests
from _coverage import coverage_threshold, pb_validity_rates
from boundslab.concentration import SplitGrid
from boundslab.divergences import ProbVec, binary_kl, categorical_kl, kl_inverse
from boundslab.pac_bayes import (
    LossTable,
    PacBayesQuery,
    _rho_mean,
    alternating_minimize,
    geometric_split,
    gibbs_posterior,
    pb_kl_bound,
    pb_lambda_bound,
    recursive_pb,
)


def make_binary_table(rng, m, n):
    """Random labels and predictions; losses are the implied zero-one errors."""
    labels = rng.choice([-1, 1], size=n)
    preds = rng.choice([-1, 1], size=(m, n))
    losses = (preds != labels[None, :]).astype(float)
    return LossTable(losses, predictions=preds)


class TestLossTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossTable([[0.5, 1.5]])
        with pytest.raises(ValueError):
            LossTable([[0.5]], predictions=[[2]])

    @pytest.mark.parametrize("call, message", [
        (lambda: LossTable([0.0, 1.0]), "losses must be a 2-D matrix"),
        (lambda: LossTable([[0.0, math.nan]]), "losses must not contain NaN"),
        (lambda: LossTable([[-5e-324, 0.5]]), "losses must lie in [0, 1]"),
        (lambda: LossTable([[0.5, math.inf]]), "losses must lie in [0, 1]"),
        (lambda: LossTable([[0.0, 1.0]], predictions=[[1, -1, 1]]),
         "predictions shape must match losses"),
        (lambda: LossTable([[0.0, 1.0]], predictions=[[1, 0]]),
         "predictions must be +-1"),
        (lambda: LossTable([[0.0, 1.0]]).tandem_losses(),
         "tandem losses need a prediction table"),
        (lambda: LossTable([[0.0, 0.5]], predictions=[[1, -1]])
         .tandem_losses(), "tandem losses are defined for zero-one losses"),
        (lambda: LossTable([[0.0, 1.0]]).disagreements(),
         "disagreements need a prediction table"),
    ], ids=["one_dimensional", "nan", "below_zero", "infinite",
            "prediction_shape", "prediction_value", "tandem_unlabelled",
            "tandem_real_losses", "disagreements_unlabelled"])
    def test_error_messages(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_emp_losses_are_row_means(self):
        rng = np.random.default_rng(4)
        losses = rng.random((6, 37))
        got = LossTable(losses).emp_losses()
        assert got.tolist() == [row.mean() for row in losses]

    def test_tandem_losses_match_a_per_pair_mean(self):
        # the both-err count of each pair, divided once by n, is the same
        # double as the mean of the pair's product of errors
        rng = np.random.default_rng(8)
        for m, n in [(1, 1), (3, 7), (5, 100), (4, 333)]:
            table = make_binary_table(rng, m, n)
            err = table.losses
            want = [[(err[i] * err[j]).mean() for j in range(m)]
                    for i in range(m)]
            assert table.tandem_losses().tolist() == want


class TestPbKl:
    def test_rho_equals_pi_drops_kl_term(self):
        pi = ProbVec([0.25] * 4)
        q = PacBayesQuery(pi, pi, 1000, 0.05)
        res = pb_kl_bound(q, 0.1)
        eps = math.log(2 * math.sqrt(1000) / 0.05) / 1000
        assert math.isclose(res.value, kl_inverse(0.1, eps), rel_tol=1e-12)

    def test_off_support_posterior_is_vacuous(self):
        q = PacBayesQuery(ProbVec([1.0, 0.0]), ProbVec([0.0, 1.0]), 100, 0.05)
        assert pb_kl_bound(q, 0.0).value == 1.0

    def test_inversion_consistency(self):
        pi = ProbVec([0.1] * 10)
        q = PacBayesQuery(pi, pi, 1000, 0.05)
        res = pb_kl_bound(q, 0.1)
        assert abs(binary_kl(0.1, res.value) - res.detail["eps"]) < 1e-9


@pytest.mark.parametrize("bad", [-3.0, 1.5, -5e-324, math.nan, math.inf,
                                 -math.inf])
def test_bounds_reject_an_impossible_empirical_loss(bad):
    pi = ProbVec([1.0])
    q = PacBayesQuery(pi, pi, 100, 0.05)
    for name, bound in [
        ("emp_loss", lambda: pb_kl_bound(q, bad)),
        ("emp_loss", lambda: pb_lambda_bound(q, bad, lam=1.0)),
    ]:
        want = (f"{name} must not be NaN" if math.isnan(bad)
                else f"{name} must be in [0, 1], got {bad}")
        with pytest.raises(ValueError) as info:
            bound()
        assert str(info.value) == want


class TestPbLambda:
    def test_upper_dominates_pb_kl(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.dirichlet(np.ones(5))
            rho = ProbVec(w)
            pi = ProbVec([0.2] * 5)
            q = PacBayesQuery(rho, pi, 200, 0.05)
            emp = float(rng.uniform(0, 0.5))
            kl_b = pb_kl_bound(q, emp).value
            lam = float(rng.uniform(0.05, 1.95))
            assert pb_lambda_bound(q, emp, lam=lam).value >= kl_b - 1e-9

    def test_zero_loss_grid_minimum(self):
        pi = ProbVec([1.0])
        q = PacBayesQuery(pi, pi, 500, 0.05)
        lam_star = alternating_minimize(pi, LossTable(np.zeros((1, 500))),
                                        0.05).lam
        assert lam_star == 1.0
        best = pb_lambda_bound(q, 0.0, lam=lam_star).value
        for lam in np.linspace(0.01, 1.99, 500):
            assert best <= pb_lambda_bound(q, 0.0, lam=float(lam)).value + 1e-12

    def test_lambda_domain(self):
        pi = ProbVec([1.0])
        q = PacBayesQuery(pi, pi, 100, 0.05)
        with pytest.raises(ValueError):
            pb_lambda_bound(q, 0.1, lam=2.0)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 1.95])
    def test_upper_closed_form(self, lam):
        rho, pi = ProbVec([0.7, 0.2, 0.1]), ProbVec([1 / 3] * 3)
        q = PacBayesQuery(rho, pi, 400, 0.05)
        res = pb_lambda_bound(q, 0.2, lam=lam)
        kl = categorical_kl(rho, pi)
        complexity = kl + math.log(2 * math.sqrt(400) / 0.05)
        want = (0.2 / (1 - lam / 2)
                + complexity / (lam * (1 - lam / 2) * 400))
        assert math.isclose(res.value, want, rel_tol=1e-12)
        assert res.method == "pb-lambda-upper" and res.delta == 0.05
        assert res.detail == {"kl": kl, "lambda": lam}

    def test_lam_is_a_required_keyword(self):
        pi = ProbVec([1.0])
        q = PacBayesQuery(pi, pi, 100, 0.05)
        with pytest.raises(TypeError):
            pb_lambda_bound(q, 0.1)
        with pytest.raises(TypeError):
            pb_lambda_bound(q, 0.1, 1.0)


class TestGibbsPosterior:
    def test_zero_scale_returns_prior(self):
        pi = ProbVec([0.3, 0.7])
        assert gibbs_posterior(pi, [0.1, 0.9], 0.0).weights == pi.weights

    def test_two_point_closed_form(self):
        rho = gibbs_posterior(ProbVec([0.5, 0.5]), [0.0, 1.0], math.log(3))
        assert rho.weights == pytest.approx((0.75, 0.25))

    def test_shift_invariance_bitwise(self):
        pi = ProbVec([0.2, 0.3, 0.5])
        # shift by an exactly representable constant so the subtract-min
        # stabilization recovers identical floats
        a = gibbs_posterior(pi, [0.25, 0.5, 0.875], 3.0)
        b = gibbs_posterior(pi, [2.25, 2.5, 2.875], 3.0)
        assert a.weights == b.weights

    def test_first_order_optimality(self):
        rng = np.random.default_rng(5)
        pi = ProbVec(rng.dirichlet(np.ones(6)))
        losses = rng.random(6)
        scale = 4.0
        rho = gibbs_posterior(pi, losses, scale)

        def objective(w):
            return scale * float(np.dot(w, losses)) + categorical_kl(w, pi)

        base = objective(np.asarray(rho.weights))
        for _ in range(100):
            direction = rng.normal(size=6)
            direction -= direction.mean()  # stay on the simplex tangent
            w = np.asarray(rho.weights) + 1e-3 * direction
            if (w < 0).any():
                continue
            w = w / w.sum()
            assert objective(w) >= base - 1e-9


class TestOptimalLambda:
    """The minimiser's lam on one hypothesis, where KL = 0."""

    def test_ratio_three(self):
        # choose inputs so 2 n emp / complexity = 3
        n, delta = 100, 0.05
        complexity = math.log(2 * math.sqrt(n) / delta)
        emp = 3 * complexity / (2 * n)
        fit = alternating_minimize(ProbVec([1.0]), LossTable([[emp] * n]), delta)
        assert math.isclose(fit.lam, 2 / 3, rel_tol=1e-12)

    def test_matches_grid_search(self):
        pi = ProbVec([1.0])
        q = PacBayesQuery(pi, pi, 300, 0.1)
        for emp in (0.0, 0.05, 0.3, 0.8):
            lam_star = alternating_minimize(pi, LossTable([[emp] * 300]),
                                            0.1).lam
            assert 0 < lam_star <= 1
            complexity = math.log(2 * math.sqrt(300) / 0.1)
            assert math.isclose(lam_star, 2 / (math.sqrt(
                2 * 300 * emp / complexity + 1) + 1), rel_tol=1e-12)
            best = pb_lambda_bound(q, emp, lam=lam_star).value
            grid = np.linspace(1e-4, 2 - 1e-4, 10_000)
            grid_best = min(
                pb_lambda_bound(q, emp, lam=float(l)).value
                for l in grid)
            assert best <= grid_best + 1e-8


class TestAlternatingMinimize:
    def test_single_hypothesis(self):
        table = LossTable(np.full((1, 100), 0.3))
        fit = alternating_minimize(ProbVec([1.0]), table, 0.05)
        assert fit.rho.weights == (1.0,)
        assert 0 < fit.lam <= 1

    def test_identical_rows_keep_prior(self):
        table = LossTable(np.tile(np.linspace(0, 1, 60), (5, 1)))
        pi = ProbVec([0.2] * 5)
        fit = alternating_minimize(pi, table, 0.05)
        assert np.allclose(fit.rho.weights, pi.weights)
        assert categorical_kl(fit.rho, pi) < 1e-12

    def test_random_table_monotone_trace(self):
        rng = np.random.default_rng(42)
        table = LossTable(rng.random((50, 500)))
        pi = ProbVec([1 / 50] * 50)
        fit = alternating_minimize(pi, table, 0.05)
        trace = fit.trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
        assert fit.bound <= trace[0] + 1e-12
        assert 0 < fit.lam <= 1

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 100])
    def test_rho_mean_is_the_rounded_exact_sum(self, m):
        # the correctly rounded sum of the products, whatever the order
        rng = np.random.default_rng(m)
        rho = ProbVec(rng.dirichlet(np.ones(m)))
        values = rng.random(m)
        exact = sum(map(Fraction, map(operator.mul, rho.weights,
                                      values.tolist())))
        assert _rho_mean(rho, values) == float(exact)

    def test_last_trace_entry_is_the_lambda_bound_of_the_fit(self):
        # the table's n is the denominator, as in pb_lambda_bound
        rng = np.random.default_rng(6)
        table = LossTable(rng.random((8, 300)))
        pi = ProbVec([1 / 8] * 8)
        fit = alternating_minimize(pi, table, 0.05)
        emp = _rho_mean(fit.rho, table.emp_losses())
        q = PacBayesQuery(fit.rho, pi, table.n, 0.05)
        assert fit.trace[-1] == pb_lambda_bound(q, emp, lam=fit.lam).value
        assert fit.bound <= fit.trace[-1]

    def test_prior_length_must_match_the_table(self):
        table = LossTable(np.zeros((3, 10)))
        with pytest.raises(ValueError) as info:
            alternating_minimize(ProbVec([0.5, 0.5]), table, 0.05)
        assert str(info.value) == ("pi length must match the number of "
                                   "hypotheses")


class TestMajorityVote:
    def _disjoint_error_table(self, M=4, per_block=5):
        n = M * per_block
        labels = np.ones(n, dtype=int)
        preds = np.ones((M, n), dtype=int)
        for h in range(M):
            preds[h, h * per_block:(h + 1) * per_block] = -1
        losses = (preds != labels[None, :]).astype(float)
        return LossTable(losses, predictions=preds)

    def test_disjoint_error_oracles(self):
        table = self._disjoint_error_table()
        rho = np.full(4, 0.25)
        first_order_oracle = 2 * float(np.dot(rho, table.emp_losses()))
        tandem = table.tandem_losses()
        second_order_oracle = 4 * float(rho @ tandem @ rho)
        assert first_order_oracle == pytest.approx(0.5)
        assert second_order_oracle == pytest.approx(0.25)

    def test_single_hypothesis_tandem_is_diagonal(self):
        rng = np.random.default_rng(3)
        table = make_binary_table(rng, 1, 200)
        tandem = table.tandem_losses()
        assert tandem[0, 0] == pytest.approx(table.emp_losses()[0])

    def test_tandem_never_exceeds_first_moment(self):
        rng = np.random.default_rng(11)
        for _ in range(20)            :
            table = make_binary_table(rng, 5, 100)
            rho = np.asarray(ProbVec(rng.dirichlet(np.ones(5))).weights)
            emp_t = float(rho @ table.tandem_losses() @ rho)
            assert emp_t <= float(np.dot(rho, table.emp_losses())) + 1e-12

    def test_l2d_identity_on_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(5, 60))
            table = make_binary_table(rng, m, n)
            rho = np.asarray(ProbVec(rng.dirichlet(np.ones(m))).weights)
            lhs = float(rho @ table.tandem_losses() @ rho)
            rhs = float(np.dot(rho, table.emp_losses())) \
                - 0.5 * float(rho @ table.disagreements() @ rho)
            assert abs(lhs - rhs) < 1e-12


class TestPbSplitKl:
    def test_excess_loss_grid_widths(self):
        grid = SplitGrid([-0.5, 0.0, 0.5, 1.0])
        assert grid.alphas == (0.5, 0.5, 0.5)


class TestRecursive:
    def test_geometric_split(self):
        assert geometric_split(10, 3) == [2, 3, 5]
        assert geometric_split(256, 1) == [256]
        assert geometric_split(7, 2) == [3, 4]
        with pytest.raises(ValueError):
            geometric_split(1, 3)

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8])
    def test_geometric_split_leaves_every_stage_a_sample(self, T):
        # from the least n it takes, 2**(T-1), each halving leaves at least
        # 1, so no stage is empty and the sizes add up to n
        for n in range(2 ** (T - 1), 2 ** (T - 1) + 40):
            sizes = geometric_split(n, T)
            assert len(sizes) == T and min(sizes) >= 1 and sum(sizes) == n
        assert geometric_split(2 ** (T - 1), T) == [1] + [
            2 ** i for i in range(T - 1)]

    def test_single_stage_matches_pb_kl(self):
        rng = np.random.default_rng(1)
        table = LossTable((rng.random((8, 128)) < 0.3).astype(float))
        stages = recursive_pb(table, 0.05, 1)
        stage = stages[0].detail["stage"]
        pi = ProbVec([1 / 8] * 8)
        q = PacBayesQuery(stage.pi_star, pi, 128, 0.05)
        emp = float(np.dot(stage.pi_star.weights, table.emp_losses()))
        assert math.isclose(stages[0].value, pb_kl_bound(q, emp).value,
                            abs_tol=1e-10)

    def test_stage_one_is_the_gamma_zero_stage(self):
        # stage 1 certifies the loss itself on the one segment [0, 1], so
        # its excess bound is its bound
        rng = np.random.default_rng(6)
        table = LossTable(rng.random((4, 40)))
        first = recursive_pb(table, 0.05, 2, seed=3)
        stage = first[0].detail["stage"]
        assert (stage.gamma_t, stage.levels) == (0.0, (0.0, 1.0))
        assert stage.excess_bound == first[0].value

    def test_recomposition_identity(self):
        rng = np.random.default_rng(2)
        table = LossTable((rng.random((10, 64)) < 0.4).astype(float))
        stages = recursive_pb(table, 0.05, 3, seed=5)
        for prev, cur in zip(stages, stages[1:]):
            st = cur.detail["stage"]
            assert math.isclose(cur.value,
                                st.excess_bound + st.gamma_t * prev.value,
                                rel_tol=1e-12)

    def test_gamma_zero_collapses_to_plain_split_kl(self):
        # stage 1 of T = 2: the excess loss is the plain loss, certified by
        # kl on all n examples at the budget ln(2 T sqrt(n) / delta)
        rng = np.random.default_rng(3)
        losses = (rng.random((6, 64)) < 0.35).astype(float)
        stages = recursive_pb(LossTable(losses), 0.05, 2, seed=0)
        st = stages[0].detail["stage"]
        assert stages[0].value == st.excess_bound and st.n_val == 64
        emp = float(np.dot(st.pi_star.weights, losses.mean(axis=1)))
        eps = (categorical_kl(st.pi_star, ProbVec([1 / 6] * 6))
               + math.log(2 * 2 * math.sqrt(64) / 0.05)) / 64
        assert stages[0].value == pytest.approx(kl_inverse(emp, eps))

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_stage_levels_are_the_split_grid_of_its_bound(self, T):
        # stage 1 (gamma = 0) drops the zero-width segment's level; every
        # later stage is the gamma = 1/2 stage on -1/2, 0, 1/2, 1
        rng = np.random.default_rng(4)
        table = LossTable((rng.random((5, 64)) < 0.4).astype(float))
        stages = [res.detail["stage"]
                  for res in recursive_pb(table, 0.05, T, seed=0)]
        assert [(st.gamma_t, st.levels) for st in stages] == [
            (0.0, (0.0, 1.0))] + [(0.5, SplitGrid([-0.5, 0.0, 0.5, 1.0])
                                   .points)] * (T - 1)

    def test_all_one_losses(self):
        # the rho-weighted mean of all-one losses can round to just above 1,
        # which kl_inverse rejects; the true Gibbs loss is 1, so every stage
        # must certify at least 1 and stage 1 exactly kl^-1(1, eps) = 1
        table = LossTable(np.ones((20, 50)))
        for T in (1, 2, 3):
            stages = recursive_pb(table, 0.05, T, seed=0)
            assert stages[0].value == 1.0
            assert all(stage.value >= 1.0 for stage in stages)

    def test_constant_fractional_losses_are_certified_above_their_value(self):
        # every hypothesis loses c on every example, so the excess losses
        # are deterministic and every posterior's risk is c: every stage of
        # a valid bound certifies at least c.  The indicators
        # 1[f >= level] decompose f only where f lies on a level, as on
        # {0, 1} losses; here they undercount (0.37 at c = 0.5, T = 2)
        short = []
        for c, T, m in itertools.product((0.1, 0.25, 0.5, 0.75, 0.9),
                                         (2, 3, 4), (1, 3)):
            stages = recursive_pb(LossTable(np.full((m, 256), c)), 0.05, T,
                                  seed=0)
            values = [stage.value for stage in stages]
            if min(values) < c:
                short.append((c, T, m, values))
        assert short == []

    def test_stage_values_match_pinned_digest(self):
        # every stage's value and every later stage's excess bound, on {0, 1}
        # and fractional tables, m = 1, 3, 8 and T = 1..4
        values = _digests.stage_values()
        assert len(values) == 96 and all(type(v) is float for v in values)
        assert _digests.hex_digest(values) == _digests.PINNED["stages"]

    def test_validity_monte_carlo(self):
        rates = pb_validity_rates(trials=120, seed=77)
        threshold = coverage_threshold(0.05, 120)
        for name, rate in rates.items():
            assert rate <= threshold, f"{name} violated validity: {rate}"


def _delta_calls():
    """{name: call(delta)} for every public function and class of the bound
    modules that takes ``delta``, each with valid other arguments."""
    from boundslab import concentration as c

    table = LossTable([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    pi = ProbVec([0.5, 0.5])
    sample = c.Sample.unit([0.0, 0.5, 1.0, 0.25])
    return {
        "lambda_grid": lambda d: c.lambda_grid(100, d),
        "hoeffding_radius": lambda d: c.hoeffding_radius(100, d),
        "hoeffding_mean_bound": lambda d: c.hoeffding_mean_bound(0.5, 100, d),
        "kl_mean_bound": lambda d: c.kl_mean_bound(0.5, 100, d),
        "split_kl_mean_bound": lambda d: c.split_kl_mean_bound(
            sample, SplitGrid([0.0, 0.5, 1.0]), d),
        "empirical_bernstein_mean_bound":
            lambda d: c.empirical_bernstein_mean_bound(sample, d),
        "unexpected_bernstein_mean_bound":
            lambda d: c.unexpected_bernstein_mean_bound(sample, d),
        "PacBayesQuery": lambda d: PacBayesQuery(pi, pi, 4, d),
        "alternating_minimize": lambda d: alternating_minimize(pi, table, d),
        "recursive_pb": lambda d: recursive_pb(table, d, 2),
    }


def test_every_delta_taker_is_listed():
    """The table below covers every public function, method and class of
    the bound modules with a ``delta`` parameter; ``BoundResult`` only
    records the delta of a bound already computed."""
    import inspect

    from boundslab import concentration, pac_bayes

    found = set()
    for module in (concentration, pac_bayes):
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or obj.__module__ != module.__name__):
                continue
            if "delta" in inspect.signature(obj).parameters:
                found.add(name)
            for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
                member = getattr(member, "__func__", member)
                if (not attr.startswith("_") and inspect.isfunction(member)
                        and "delta" in inspect.signature(member).parameters):
                    found.add(f"{name}.{attr}")
    assert found - {"BoundResult"} == set(_delta_calls())


@pytest.mark.parametrize("name", sorted(_delta_calls()))
@pytest.mark.parametrize("delta", [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0),
                                   -0.1, math.inf, -math.inf, math.nan])
def test_every_delta_taker_rejects_delta_outside_0_1(name, delta):
    call = _delta_calls()[name]
    call(0.05)
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\), got "):
        call(delta)


@pytest.mark.parametrize("name", sorted(_delta_calls()))
def test_every_delta_taker_is_vacuous_at_the_smallest_delta(name):
    # 1 / 5e-324 overflows to inf: no error and no warning, every bound is
    # vacuous, the default lambda grid is the forced k = 1 one and the
    # minimiser stops after one step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _delta_calls()[name](5e-324)
    for r in result if isinstance(result, list) else [result]:
        value = getattr(r, "value", getattr(r, "bound", r))
        assert not isinstance(value, float) or value >= 1.0
    if name == "lambda_grid":
        assert result == (0.5,)
    if name == "alternating_minimize":
        assert result.trace == (math.inf, math.inf)

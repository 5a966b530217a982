import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _coverage import coverage_threshold, draw_matrix, violation_rates
from boundslab.concentration import (
    BoundResult,
    LambdaGrid,
    Sample,
    SplitGrid,
    bernstein_duals,
    bernstein_mean_bound,
    empirical_bernstein_mean_bound,
    hoeffding_mean_bound,
    hoeffding_radius,
    hoeffding_solve_n,
    kl_mean_bound,
    kl_mgf_exact,
    markov_chebyshev_tail,
    mgf_lemma_check,
    psi,
    sample_variance,
    split_kl_mean_bound,
    unexpected_bernstein_mean_bound,
)
from boundslab.divergences import binary_kl, kl_inverse


class TestMarkovChebyshev:
    def test_markov_coin_example(self):
        # Expected number of heads in 10 fair flips is 5; tail at 8 is 5/8.
        assert markov_chebyshev_tail("markov", mean=5, eps=8) == 5 / 8

    def test_chebyshev_zero_variance(self):
        assert markov_chebyshev_tail("chebyshev", variance=0, eps=0.1) == 0.0

    def test_chebyshev_sample_mean(self):
        # Var of a mean of 100 iid Bernoulli(1/2) is 0.25/100.
        assert markov_chebyshev_tail(
            "chebyshev", variance=0.25 / 100, eps=0.1) == pytest.approx(0.25)

    def test_clipping_and_errors(self):
        assert markov_chebyshev_tail("markov", mean=5, eps=1) == 1.0
        with pytest.raises(ValueError):
            markov_chebyshev_tail("markov", mean=5, eps=0)
        with pytest.raises(ValueError):
            markov_chebyshev_tail("banana", mean=1, eps=1)


class TestHoeffding:
    def test_radius_values(self):
        assert math.isclose(hoeffding_radius(1000, 0.01, "one"), 0.047985, abs_tol=1e-6)
        assert math.isclose(hoeffding_radius(1000, 0.01, "two"), 0.051470, abs_tol=1e-6)

    def test_radius_round_trip(self):
        r = hoeffding_radius(400, 0.03, "one")
        assert math.isclose(math.exp(-2 * 400 * r * r), 0.03, rel_tol=1e-12)

    def test_solve_n(self):
        assert hoeffding_solve_n(0.01, 0.01, "one") == 23026
        assert hoeffding_solve_n(1.0, 0.5, "one") == 1
        assert hoeffding_solve_n(0.1, 2 * math.exp(-2), "two") == 100

    def test_solve_n_is_smallest(self):
        for eps, delta in [(0.05, 0.1), (0.02, 0.01)]:
            n = hoeffding_solve_n(eps, delta, "one")
            assert hoeffding_radius(n, delta, "one") <= eps
            if n > 1:
                assert hoeffding_radius(n - 1, delta, "one") > eps

    def test_domain(self):
        with pytest.raises(ValueError):
            hoeffding_radius(1000, 1.5)
        with pytest.raises(ValueError):
            hoeffding_radius(0, 0.1)

    def test_mean_bound(self):
        # p_hat + sqrt(ln(1/delta) / (2n)), clipped at 1
        res = hoeffding_mean_bound(0.25, 200, 0.05)
        radius = math.sqrt(math.log(20.0) / 400.0)
        assert res.value == 0.25 + radius
        assert (res.delta, res.method, res.detail["radius"]) == (
            0.05, "hoeffding", radius)
        assert hoeffding_mean_bound(0.95, 200, 0.05).value == 1.0
        with pytest.raises(ValueError, match="p_hat"):
            hoeffding_mean_bound(1.5, 200, 0.05)


class TestKlMeanBound:
    def test_closed_form_at_zero(self):
        res = kl_mean_bound(0.0, 1000, 0.01, "direct", "upper")
        assert math.isclose(res.value, 1 - math.exp(-math.log(100) / 1000), rel_tol=1e-9)
        assert math.isclose(res.value, 0.0045946, abs_tol=1e-6)

    def test_symmetry_at_half(self):
        up = kl_mean_bound(0.5, 200, 0.05, "direct", "upper").value
        lo = kl_mean_bound(0.5, 200, 0.05, "direct", "lower").value
        assert math.isclose(up + lo, 1.0, abs_tol=1e-8)

    def test_via_lemma_budget(self):
        res = kl_mean_bound(0.1, 1000, 0.01, "via_lemma", "upper")
        expected_eps = math.log(2 * math.sqrt(1000) / 0.01) / 1000
        assert math.isclose(res.detail["eps"], expected_eps, rel_tol=1e-12)
        assert res.value == pytest.approx(kl_inverse(0.1, expected_eps, "upper"))

    def test_matches_inversion(self):
        res = kl_mean_bound(0.1, 1000, 0.01, "direct", "upper")
        assert abs(binary_kl(0.1, res.value) - math.log(100) / 1000) < 1e-9

    def test_kl_never_looser_than_hoeffding(self):
        for n in (10, 100, 1000):
            for delta in (0.5, 0.05, 0.01):
                radius = hoeffding_radius(n, delta, "one")
                for p_hat in np.linspace(0, 1, 21):
                    kl_b = kl_mean_bound(float(p_hat), n, delta, "direct", "upper").value
                    assert kl_b <= p_hat + radius + 1e-9


class TestSplitGrid:
    def test_reconstruction_on_grid_points(self):
        grid = SplitGrid([0.0, 0.25, 0.5, 1.0])
        for x in grid.points:
            segs = grid.segment_values(x)
            rebuilt = grid.points[0] + sum(a * s for a, s in zip(grid.alphas, segs))
            assert math.isclose(rebuilt, x, abs_tol=1e-12)

    def test_reconstruction_continuous(self):
        grid = SplitGrid([-1.0, 0.0, 0.5, 2.0])
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1, 2, size=200):
            segs = grid.segment_values(float(x))
            rebuilt = grid.points[0] + sum(a * s for a, s in zip(grid.alphas, segs))
            assert abs(rebuilt - x) < 1e-12

    def test_clamp_sends_nan_and_negative_zero_to_zero(self):
        # as min(1.0, max(0.0, v)) does, whatever the array length
        grid = SplitGrid([0.0, 0.5, 1.0])
        for x in (-0.0, math.nan, -5e-324):
            assert [v.hex() for v in grid.segment_values(x)] == ["0x0.0p+0"] * 2
        for n in (1, 3, 8, 17, 1000):
            column = grid.segment_column(np.full(n, -0.0), 0).tolist()
            assert [v.hex() for v in column] == ["0x0.0p+0"] * n
        assert grid.segment_values(math.inf) == (1.0, 1.0)
        assert grid.segment_values(0.5) == (1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitGrid([0.0])
        with pytest.raises(ValueError):
            SplitGrid([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_non_finite_points(self, bad, at):
        # a NaN passes the strictly-increasing check, since b <= a is False
        points = [0.0, 0.5, 1.0]
        points[at] = bad
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            SplitGrid(points)


class TestSplitKlBound:
    def test_single_segment_reduces_to_kl(self):
        values = [0, 1, 1, 0, 1, 0, 0, 0, 1, 1]
        sample = Sample.unit(values)
        res = split_kl_mean_bound(sample, SplitGrid([0.0, 1.0]), 0.05)
        ref = kl_mean_bound(sample.mean, sample.n, 0.05, "direct", "upper")
        assert math.isclose(res.value, ref.value, abs_tol=1e-10)

    def test_ternary_all_half(self):
        sample = Sample.unit([0.5] * 100)
        res = split_kl_mean_bound(sample, SplitGrid([0.0, 0.5, 1.0]), 0.05)
        expected = 0.5 + 0.5 * (1 - math.exp(-math.log(40) / 100))
        assert math.isclose(res.value, expected, rel_tol=1e-9)
        assert res.detail["segment_means"] == (1.0, 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0)
                    | st.sampled_from([-0.0, 5e-324, 0.25, 0.5, 1.0 - 2.0 ** -53]),
                    min_size=1, max_size=60),
           st.sampled_from([[0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.1, 0.7, 1.0],
                            [j / 8 for j in range(9)], [0.0, 5e-324, 1.0]]))
    @example([-0.0, -0.0], [0.0, 0.5, 1.0])
    def test_segment_means_are_means_of_segment_values(self, values, points):
        grid = SplitGrid(points)
        res = split_kl_mean_bound(Sample.unit(values), grid, 0.05)
        columns = zip(*(grid.segment_values(x) for x in values))
        means = tuple(math.fsum(col) / len(values) for col in columns)
        assert [m.hex() for m in res.detail["segment_means"]] == \
            [m.hex() for m in means]

    def test_definition_at_32_segments(self):
        rng = np.random.default_rng(5)
        values = [float(v) for v in rng.random(300)] + [0.0, 0.5, 1.0]
        grid = SplitGrid([j / 32 for j in range(33)])
        res = split_kl_mean_bound(Sample.unit(values), grid, 0.05)
        columns = zip(*(grid.segment_values(v) for v in values))
        means = tuple(math.fsum(col) / len(values) for col in columns)
        assert res.detail["segment_means"] == means
        value = grid.points[0]
        for alpha, mean in zip(grid.alphas, means):
            value += alpha * kl_inverse(mean, res.detail["eps"], "upper")
        assert res.value == value

    def test_out_of_range_sample(self):
        with pytest.raises(ValueError):
            split_kl_mean_bound(Sample([1.5], upper_bound=2.0),
                                SplitGrid([0.0, 1.0]), 0.05)


class TestBernstein:
    def test_zero_variance(self):
        res = bernstein_mean_bound(0.2, 0.0, 1.0, 50, 0.1)
        assert math.isclose(res.value, 0.2 + math.log(10) / 150, rel_tol=1e-12)

    def test_worked_value(self):
        res = bernstein_mean_bound(0.0, 0.25, 1.0, 100, math.exp(-1))
        assert math.isclose(res.value, math.sqrt(0.005) + 1 / 300, rel_tol=1e-12)
        assert math.isclose(res.value, 0.074045, abs_tol=1e-6)

    def test_delta_near_one(self):
        res = bernstein_mean_bound(0.3, 0.1, 1.0, 100, 1 - 1e-12)
        assert abs(res.value - 0.3) < 1e-6

    def test_duals(self):
        assert bernstein_duals(0.0, "f") == 0.0
        assert math.isclose(bernstein_duals(4.0, "f"), 2.0, rel_tol=1e-12)
        assert math.isclose(bernstein_duals(2.0, "f_inv"), 4.0, rel_tol=1e-12)
        for x in np.linspace(0.1, 10, 25):
            assert math.isclose(
                bernstein_duals(bernstein_duals(float(x), "f"), "f_inv"), x,
                rel_tol=1e-9)
        with pytest.raises(ValueError):
            bernstein_duals(-1.0)


class TestEmpiricalBernstein:
    def test_constant_sample(self):
        sample = Sample.unit([0.4] * 20)
        res = empirical_bernstein_mean_bound(sample, 0.1)
        assert res.detail["nu_hat"] == 0.0
        assert math.isclose(res.value, 0.4 + 7 * math.log(20) / (3 * 19), rel_tol=1e-12)

    def test_two_point_variance(self):
        assert sample_variance(Sample.unit([0.0, 1.0])) == pytest.approx(0.5)

    def test_identity_matches_pairwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            vals = rng.random(rng.integers(2, 40))
            sample = Sample.unit(vals)
            n = len(vals)
            pairwise = sum(
                (vals[i] - vals[j]) ** 2 for i in range(n) for j in range(i + 1, n)
            ) / (n * (n - 1))
            assert math.isclose(sample_variance(sample), pairwise, abs_tol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            empirical_bernstein_mean_bound(Sample.unit([0.5]), 0.1)


class TestUnexpectedBernstein:
    def test_psi(self):
        assert psi(0.0) == 0.0
        assert math.isclose(psi(-0.5), -0.5 - math.log(0.5), rel_tol=1e-12)
        assert math.isclose(psi(-0.5), 0.193147, abs_tol=1e-6)

    def test_default_grid(self):
        grid = LambdaGrid.default(100, 0.05, 1.0)
        assert grid.k == 2
        assert grid.lambdas == (0.5, 0.25)

    def test_default_grid_at_the_largest_upper_bound(self):
        # 2**i * b overflows at b = max float, and 1 / inf is 0.0; the grid
        # is 2**-i / b, the same doubles wherever 2**i * b is finite
        big = sys.float_info.max
        assert all(lam > 0.0 for lam in LambdaGrid.default(10 ** 6, 0.05,
                                                            big).lambdas)
        res = unexpected_bernstein_mean_bound(Sample([big, big], big), 0.05)
        assert res.detail["lambda"] == 0.5 / big
        bs = [1e-300, 0.5, 1.0, 3.0, 1e300,
              *(np.random.default_rng(21).random(200) * 100).tolist()]
        for b in bs:
            assert LambdaGrid.default(10 ** 6, 0.05, b).lambdas == tuple(
                1.0 / (2.0 ** i * b) for i in range(1, 10))

    def test_grid_must_be_admissible(self):
        sample = Sample([0.1, 0.2], upper_bound=0.5)
        with pytest.raises(ValueError):
            unexpected_bernstein_mean_bound(sample, 0.05, LambdaGrid([2.0]))

    def test_min_over_grid_matches_exhaustive(self):
        rng = np.random.default_rng(3)
        vals = rng.random(60)
        sample = Sample.unit(vals)
        grid = LambdaGrid.default(60, 0.1, 1.0)
        res = unexpected_bernstein_mean_bound(sample, 0.1, grid)
        budget = math.log(grid.k / 0.1)
        explicit = min(
            sample.mean + psi(-lam) / lam * sample.mean_sq + budget / (lam * 60)
            for lam in grid.lambdas
        )
        assert math.isclose(res.value, min(1.0, explicit), rel_tol=1e-12)


class TestKlMgfExact:
    def test_degenerate_p(self):
        assert kl_mgf_exact(10, 0.0) == 1.0
        assert kl_mgf_exact(10, 1.0) == 1.0

    def test_small_n_closed_forms(self):
        assert math.isclose(kl_mgf_exact(1, 0.5), 2.0, rel_tol=1e-12)
        assert math.isclose(kl_mgf_exact(2, 0.5), 2.5, rel_tol=1e-12)

    def test_sandwich(self):
        # sqrt(n) <= E[e^{n kl}] <= 2 sqrt(n); the value is p-free for interior p
        for n in range(1, 201):
            v = kl_mgf_exact(n, 0.5)
            assert math.sqrt(n) <= v <= 2 * math.sqrt(n)
        for p in (0.1, 0.3, 0.7, 0.9):
            assert math.isclose(kl_mgf_exact(50, p), kl_mgf_exact(50, 0.5), rel_tol=1e-9)

    def test_large_n_no_overflow(self):
        v = kl_mgf_exact(10000, 0.5)
        assert math.sqrt(10000) <= v <= 2 * math.sqrt(10000)


class TestMgfLemmaCheck:
    def test_lambda_zero(self):
        lhs, rhs = mgf_lemma_check([-1, 1], [0.5, 0.5], 0.0, "hoeffding")
        assert (lhs, rhs) == (1.0, 1.0)
        lhs, rhs = mgf_lemma_check([-1, 1], [0.5, 0.5], 0.0, "unexpected")
        assert (lhs, rhs) == (1.0, 1.0)

    def test_rademacher(self):
        lhs, rhs = mgf_lemma_check([-1, 1], [0.5, 0.5], 1.0, "hoeffding")
        assert math.isclose(lhs, math.cosh(1), rel_tol=1e-12)
        assert math.isclose(rhs, math.exp(0.5), rel_tol=1e-12)

    def test_bernoulli(self):
        lhs, rhs = mgf_lemma_check([0, 1], [0.5, 0.5], 1.0, "hoeffding")
        assert math.isclose(lhs, 0.5 * (1 + math.e), rel_tol=1e-12)
        assert math.isclose(rhs, math.exp(0.5 + 0.125), rel_tol=1e-12)
        assert lhs == pytest.approx(1.85914, abs=1e-5)
        assert rhs == pytest.approx(1.86825, abs=1e-5)

    def test_randomized_supports(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            size = rng.integers(2, 6)
            vals = np.sort(rng.uniform(-1, 1, size))
            probs = rng.dirichlet(np.ones(size))
            lam = float(rng.uniform(0, 3))
            lhs, rhs = mgf_lemma_check(vals, probs, lam, "hoeffding")
            assert lhs <= rhs * (1 + 1e-12)

            centered = vals - float(np.dot(vals, probs))
            b = float(centered.max())
            if b > 1e-6:
                lam_b = float(rng.uniform(1e-6, 3.0 / b * 0.999))
                lhs, rhs = mgf_lemma_check(centered, probs, lam_b, "bernstein")
                assert lhs <= rhs * (1 + 1e-12)

            positive = np.abs(vals) + 0.05
            b_u = float(positive.max())
            lam_u = float(rng.uniform(0, 0.999 / b_u))
            lhs, rhs = mgf_lemma_check(positive, probs, lam_u, "unexpected")
            assert lhs <= rhs * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mgf_lemma_check([1, 2], [0.5, 0.5], 0.5, "bernstein")  # not mean zero
        with pytest.raises(ValueError):
            mgf_lemma_check([0, 1], [0.5, 0.5], 1.5, "unexpected")  # lam >= 1/b


class TestCoverage:
    @pytest.mark.parametrize("dist", ["bernoulli03", "ternary"])
    def test_upper_bounds_cover_true_mean(self, dist):
        rng = np.random.default_rng(20260823)
        M, n, delta = 10_000, 100, 0.05
        data, true_mean = draw_matrix(rng, dist, M, n)
        threshold = coverage_threshold(delta, M)
        for name, rate in violation_rates(data, true_mean, delta).items():
            assert rate <= threshold, f"{name} violated coverage: {rate}"

    def test_sampling_without_replacement(self):
        rng = np.random.default_rng(99)
        N, n, delta, M = 100, 50, 0.05, 10_000
        population = rng.random(N)
        mu = population.mean()
        radius = hoeffding_radius(n, delta, "one")
        idx = np.argsort(rng.random((M, N)), axis=1)[:, :n]
        means = population[idx].mean(axis=1)
        hold_rate = float(np.mean(means + radius >= mu))
        sigma = math.sqrt(delta * (1 - delta) / M)
        assert hold_rate >= 1 - delta - 3 * sigma


class TestBoundResultAndSample:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            Sample([], upper_bound=1.0)
        with pytest.raises(ValueError):
            Sample([1.2], upper_bound=1.0)
        with pytest.raises(ValueError):
            Sample.unit([-0.1])

    def test_mean_and_mean_sq_are_summed_once(self, monkeypatch):
        sample = Sample.unit([0.1, 0.2, 0.7])
        fsum, calls = math.fsum, []
        monkeypatch.setattr(math, "fsum",
                            lambda xs: calls.append(1) or fsum(xs))
        first = (sample.mean, sample.mean_sq)
        unexpected_bernstein_mean_bound(sample, 0.05)
        empirical_bernstein_mean_bound(sample, 0.05)
        assert (sample.mean, sample.mean_sq) == first and len(calls) == 2

    def test_mean_and_mean_sq_past_the_float_range(self):
        # the sums overflow, the means do not, until the squares' mean does
        big = sys.float_info.max
        assert Sample([big, big], big).mean == big
        assert Sample([big, big, -big], big).mean == big / 3
        assert Sample([1.5e154, 0.0, 0.0, 0.0], 2e154).mean_sq \
            == (1.5e154 / 2) ** 2
        assert Sample([1.3e154, 1.3e154], 2e154).mean_sq == 1.3e154 ** 2
        assert Sample([1e300, 0.0], 1e300).mean_sq == math.inf

    def test_bound_result_detail(self):
        res = BoundResult(0.5, 0.05, "demo", {"eps": 1.0})
        assert res.detail["eps"] == 1.0


def digest_samples():
    """Three seeded unit samples (continuous, on the 1/64 grid, and U-shaped
    with the edge values appended) and an all -0.0 one."""
    rng = np.random.default_rng(2022)
    return [
        Sample.unit(rng.random(500).tolist()),
        Sample.unit((rng.integers(0, 65, 400) / 64).tolist()),
        Sample.unit(rng.beta(0.3, 0.3, 300).tolist()
                    + [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]),
        Sample.unit([-0.0] * 7),
    ]


class TestPinnedDigest:
    def test_split_kl_and_sample_match_pinned_digest(self):
        # Sample.mean/mean_sq and split_kl_mean_bound's value, budget and
        # segment means at K = 2, 8, 32, 64; pinned before the segment
        # columns and the sample passes moved to numpy and map
        values = []
        for sample in digest_samples():
            values += [sample.mean, sample.mean_sq]
            for K in (2, 8, 32, 64):
                grid = SplitGrid([j / K for j in range(K + 1)])
                res = split_kl_mean_bound(sample, grid, 0.05)
                values += [res.value, res.detail["eps"],
                           *res.detail["segment_means"]]
        assert all(type(v) is float for v in values)
        digest = hashlib.sha256(
            ",".join(v.hex() for v in values).encode()).hexdigest()
        assert digest == (
            "b5e75e1cf08ca84b810cad3d9ab92d9c"
            "9706b027ae29a16bbb83118597ac75af")


class TestSampleErrorContract:
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, math.nan,
                                     math.inf, -math.inf]), max_size=5),
           st.sampled_from([1.0, 2.0, math.nan, math.inf, -math.inf]),
           st.sampled_from([None, 0.0, -1.0, math.nan, -math.inf]))
    @example([0.5], 1.0, math.nan)
    @example([0.5], math.inf, None)
    @example([-math.inf, 0.5], 1.0, None)
    def test_messages_in_order(self, values, upper, lower):
        # empty, then NaN, then the upper bound, then the lower bound; each
        # bound must be finite, and with no lower bound the values must be
        # at least -max float
        if not values:
            expected = "sample must be nonempty"
        elif any(math.isnan(v) for v in values) or math.isnan(upper):
            expected = "sample values must not be NaN"
        elif math.isinf(upper):
            expected = f"upper_bound must be finite, got {upper}"
        elif max(values) > upper:
            expected = f"sample value {max(values)} exceeds upper bound {upper}"
        elif lower is not None and not math.isfinite(lower):
            expected = f"lower_bound must be finite, got {lower}"
        elif min(values) < (floor := -sys.float_info.max if lower is None
                            else lower):
            expected = f"sample value {min(values)} below lower bound {floor}"
        else:
            sample = Sample(values, upper, lower)
            assert sample.values == tuple(values) and sample.n == len(values)
            return
        with pytest.raises(ValueError) as info:
            Sample(values, upper, lower)
        assert type(info.value) is ValueError and str(info.value) == expected

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _coverage import coverage_threshold, draw_matrix, violation_rates
from _exact import kl_mgf_exact
from boundslab.concentration import (
    BoundResult,
    Sample,
    SplitGrid,
    empirical_bernstein_mean_bound,
    hoeffding_mean_bound,
    hoeffding_radius,
    kl_mean_bound,
    lambda_grid,
    psi,
    sample_variance,
    split_kl_mean_bound,
    unexpected_bernstein_mean_bound,
)
from boundslab.divergences import binary_kl, kl_inverse


class TestHoeffding:
    def test_radius_values(self):
        assert math.isclose(hoeffding_radius(1000, 0.01), 0.047985, abs_tol=1e-6)

    def test_radius_round_trip(self):
        r = hoeffding_radius(400, 0.03)
        assert math.isclose(math.exp(-2 * 400 * r * r), 0.03, rel_tol=1e-12)

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
    @pytest.mark.parametrize("p_hat, n, delta", [
        (0.0, 1, 0.5), (0.37, 100, 0.05), (1.0 - 2.0 ** -53, 10 ** 6, 1e-9)])
    def test_is_kl_inverse_at_its_budget(self, p_hat, n, delta):
        eps = math.log(1.0 / delta) / n
        res = kl_mean_bound(p_hat, n, delta)
        assert res == BoundResult(kl_inverse(p_hat, eps), delta,
                                  "kl-direct-upper",
                                  {"eps": eps, "p_hat": p_hat, "n": n})

    def test_closed_form_at_zero(self):
        res = kl_mean_bound(0.0, 1000, 0.01)
        assert math.isclose(res.value, 1 - math.exp(-math.log(100) / 1000), rel_tol=1e-9)
        assert math.isclose(res.value, 0.0045946, abs_tol=1e-6)

    def test_matches_inversion(self):
        res = kl_mean_bound(0.1, 1000, 0.01)
        assert abs(binary_kl(0.1, res.value) - math.log(100) / 1000) < 1e-9

    def test_kl_never_looser_than_hoeffding(self):
        for n in (10, 100, 1000):
            for delta in (0.5, 0.05, 0.01):
                radius = hoeffding_radius(n, delta)
                for p_hat in np.linspace(0, 1, 21):
                    kl_b = kl_mean_bound(float(p_hat), n, delta).value
                    assert kl_b <= p_hat + radius + 1e-9


def segment_components(grid, x):
    """x_{|j} = min(1, max(0, (x - b_{j-1}) / alpha_j)) of one value for
    every segment j, by the definition, in Python floats."""
    return tuple(min(1.0, max(0.0, (x - b) / alpha))
                 for b, alpha in zip(grid.points, grid.alphas))


class TestSplitGrid:
    def test_reconstruction_on_grid_points(self):
        # on the grid points each column is the indicator 1[x >= b_j]
        grid = SplitGrid([0.0, 0.25, 0.5, 1.0])
        columns = [grid.segment_column(grid.points, j) for j in range(grid.K)]
        for j, column in enumerate(columns):
            assert column.tolist() == [float(x >= grid.points[j + 1])
                                       for x in grid.points]
        rebuilt = grid.points[0] + sum(a * c for a, c in zip(grid.alphas, columns))
        assert np.abs(rebuilt - grid.points).max() < 1e-12

    def test_reconstruction_continuous(self):
        grid = SplitGrid([-1.0, 0.0, 0.5, 2.0])
        values = np.random.default_rng(7).uniform(-1, 2, size=200)
        columns = [grid.segment_column(values, j) for j in range(grid.K)]
        rebuilt = grid.points[0] + sum(a * c for a, c in zip(grid.alphas, columns))
        assert np.abs(rebuilt - values).max() < 1e-12

    def test_clamp_sends_nan_and_negative_zero_to_zero(self):
        # as min(1.0, max(0.0, v)) does, whatever the array length
        grid = SplitGrid([0.0, 0.5, 1.0])
        for x in (-0.0, math.nan, -5e-324):
            for n in (1, 3, 8, 17, 1000):
                for j in range(grid.K):
                    column = grid.segment_column(np.full(n, x), j).tolist()
                    assert [v.hex() for v in column] == ["0x0.0p+0"] * n
        assert [grid.segment_column([math.inf, 0.5], j).tolist()
                for j in range(grid.K)] == [[1.0, 1.0], [1.0, 0.0]]

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
        ref = kl_mean_bound(sample.mean, sample.n, 0.05)
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
        columns = zip(*(segment_components(grid, x) for x in values))
        means = tuple(math.fsum(col) / len(values) for col in columns)
        assert [m.hex() for m in res.detail["segment_means"]] == \
            [m.hex() for m in means]

    def test_definition_at_32_segments(self):
        rng = np.random.default_rng(5)
        values = [float(v) for v in rng.random(300)] + [0.0, 0.5, 1.0]
        grid = SplitGrid([j / 32 for j in range(33)])
        res = split_kl_mean_bound(Sample.unit(values), grid, 0.05)
        columns = zip(*(segment_components(grid, v) for v in values))
        means = tuple(math.fsum(col) / len(values) for col in columns)
        assert res.detail["segment_means"] == means
        value = grid.points[0]
        for alpha, mean in zip(grid.alphas, means):
            value += alpha * kl_inverse(mean, res.detail["eps"])
        assert res.value == value

    @pytest.mark.parametrize("value", [0.1, 0.9])
    def test_out_of_range_sample(self, value):
        with pytest.raises(ValueError, match=r"^sample values must lie "
                           r"within \[b_0, b_K\]$"):
            split_kl_mean_bound(Sample([value]), SplitGrid([0.2, 0.5, 0.8]),
                                0.05)


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
        assert lambda_grid(100, 0.05) == (0.5, 0.25)

    def test_default_grid_is_the_halving_grid(self):
        # k = ceil(log2(sqrt(n / ln(1/delta)) / 2)), at least 1; at
        # delta = 5e-324, 1 / delta overflows and k is 1
        for n, delta, k in [(1, 0.5, 1), (10, 0.05, 1), (100, 0.05, 2),
                            (10 ** 6, 0.05, 9), (10 ** 6, 1e-300, 5),
                            (10 ** 6, 5e-324, 1)]:
            assert lambda_grid(n, delta) == tuple(
                0.5 ** i for i in range(1, k + 1))

    @pytest.mark.parametrize("values", [
        [0.0, 1.0], [0.2, 0.7, 1.0], [0.5] * 7, [0.0] * 5 + [1.0],
        [5e-324, 1.0 - 2.0 ** -53], [1e-160, 0.0], [1.0] * 3,
        (np.random.default_rng(23).random(200) * 0.5).tolist(),
    ])
    def test_the_bound_matches_its_exact_value(self, values):
        # the formula with p_hat and s_n summed exactly, with psi and the
        # log taken in floats, before the cap at 1
        res = unexpected_bernstein_mean_bound(Sample(values), 0.05)
        lam, k = Fraction(res.detail["lambda"]), res.detail["k"]
        n = len(values)
        s_n = sum(Fraction(v) ** 2 for v in values) / n
        exact = (sum(map(Fraction, values)) / n
                 + Fraction(psi(-res.detail["lambda"])) / lam * s_n
                 + Fraction(math.log(k / 0.05)) / (lam * n))
        assert res.detail["s_n_over_b"] == float(s_n)
        assert math.isclose(res.value, min(1.0, float(exact)), rel_tol=1e-12)

    def test_min_over_grid_matches_exhaustive(self):
        rng = np.random.default_rng(3)
        vals = rng.random(60)
        sample = Sample.unit(vals)
        lambdas = lambda_grid(60, 0.1)
        res = unexpected_bernstein_mean_bound(sample, 0.1)
        budget = math.log(len(lambdas) / 0.1)
        explicit = min(
            sample.mean + psi(-lam) / lam * sample.mean_sq + budget / (lam * 60)
            for lam in lambdas
        )
        assert math.isclose(res.value, min(1.0, explicit), rel_tol=1e-12)

    def test_matches_pinned_digest(self):
        # value, chosen lambda and grid size on fractional and {0, 1}
        # samples over a grid of n and delta, down to the smallest delta;
        # pinned while the lambda grid was a class and a caller could pass
        # its own
        rng = np.random.default_rng(36)
        values = []
        for n in (2, 5, 30, 100, 1000, 10000):
            draws = rng.random(n)
            for sample in (Sample(draws), Sample(draws < 0.3)):
                for delta in (0.5, 0.05, 1e-3, 1e-12, 1e-300, 5e-324):
                    res = unexpected_bernstein_mean_bound(sample, delta)
                    values += [res.value, res.detail["lambda"],
                               float(res.detail["k"])]
        assert len(values) == 216
        digest = hashlib.sha256(
            ",".join(v.hex() for v in values).encode()).hexdigest()
        assert digest == (
            "d8c9b127fd1189d069a44594b9fa0e2d"
            "6a6f263758fc32f27bff8e943077aa7e")


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

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
    def test_equals_the_unsimplified_sum(self, n, p):
        # the expectation as written, sum over k of
        # C(n,k) p^k (1-p)^{n-k} e^{n kl(k/n||p)} with the library's kl,
        # against the p-free summand the helper sums
        log_terms = [
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
            + n * binary_kl(k / n, p)
            for k in range(n + 1)]
        direct = math.fsum(math.exp(t) for t in log_terms)
        assert math.isclose(kl_mgf_exact(n, p), direct, rel_tol=1e-9)

    def test_large_n_no_overflow(self):
        v = kl_mgf_exact(10000, 0.5)
        assert math.sqrt(10000) <= v <= 2 * math.sqrt(10000)


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
        radius = hoeffding_radius(n, delta)
        idx = np.argsort(rng.random((M, N)), axis=1)[:, :n]
        means = population[idx].mean(axis=1)
        hold_rate = float(np.mean(means + radius >= mu))
        sigma = math.sqrt(delta * (1 - delta) / M)
        assert hold_rate >= 1 - delta - 3 * sigma


class TestBoundResultAndSample:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            Sample([])
        with pytest.raises(ValueError):
            Sample([1.2])
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

    def test_unit_is_the_plain_constructor(self):
        values = [0.0, -0.0, 5e-324, 0.25, 1.0]
        for sample in (Sample(values), Sample.unit(values)):
            assert type(sample) is Sample and sample.values == tuple(values)
        assert Sample.unit(np.array(values)).values == tuple(values)

    @pytest.mark.parametrize("index", range(4))
    def test_mean_and_mean_sq_are_within_an_ulp_of_exact(self, index):
        # math.fsum rounds each sum once, and the division by n once more
        sample = digest_samples()[index]
        exact = [sum(map(Fraction, sample.values)) / sample.n,
                 sum(Fraction(v) ** 2 for v in sample.values) / sample.n]
        for got, want in zip((sample.mean, sample.mean_sq), exact):
            assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want)))

    @pytest.mark.parametrize("bound, method, keys", [
        (lambda s: hoeffding_mean_bound(s.mean, s.n, 0.05), "hoeffding",
         {"radius", "p_hat", "n"}),
        (lambda s: kl_mean_bound(s.mean, s.n, 0.05), "kl-direct-upper",
         {"eps", "p_hat", "n"}),
        (lambda s: split_kl_mean_bound(s, SplitGrid([0.0, 0.5, 1.0]), 0.05),
         "split-kl", {"eps", "segment_means", "K", "n"}),
        (lambda s: empirical_bernstein_mean_bound(s, 0.05),
         "empirical-bernstein", {"nu_hat", "n"}),
        (lambda s: unexpected_bernstein_mean_bound(s, 0.05),
         "unexpected-bernstein", {"lambda", "k", "s_n_over_b", "n"}),
    ], ids=["hoeffding", "kl", "split_kl", "empirical_bernstein",
            "unexpected_bernstein"])
    def test_bound_result_method_and_detail_keys(self, bound, method, keys):
        sample = Sample([0.0, 0.5, 1.0, 0.25, 0.5])
        res = bound(sample)
        assert (res.method, res.delta, set(res.detail)) == (method, 0.05, keys)
        assert sample.mean <= res.value <= 1.0

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
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 1.5,
                                     -5e-324, -1.0, math.nan, math.inf,
                                     -math.inf]), max_size=5))
    @example([-math.inf, 0.5])
    @example([math.inf, -math.inf])
    def test_messages_in_order(self, values):
        # empty, then NaN, then above 1, then below 0
        if not values:
            expected = "sample must be nonempty"
        elif any(math.isnan(v) for v in values):
            expected = "sample values must not be NaN"
        elif max(values) > 1.0:
            expected = f"sample value {max(values)} exceeds upper bound 1.0"
        elif min(values) < 0.0:
            expected = f"sample value {min(values)} below lower bound 0.0"
        else:
            for sample in (Sample(values), Sample.unit(values)):
                assert sample.values == tuple(values)
                assert sample.n == len(values)
            return
        for make in (Sample, Sample.unit):
            with pytest.raises(ValueError) as info:
                make(values)
            assert type(info.value) is ValueError and str(info.value) == expected

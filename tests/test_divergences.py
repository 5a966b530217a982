import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from boundslab.divergences import (
    BISECT_MAX_ITER,
    BISECT_TOL,
    NORMALIZATION_TOL,
    ProbVec,
    _kl_interior,
    binary_kl,
    categorical_kl,
    kl_inverse,
    pinsker_relaxations,
)

UNIT_GRID = [i / 100 for i in range(101)]
# kl_inverse's budget in the bounds_compare preset: ln(1/delta)/n at
# delta = 0.01, n = 1000
BOUNDS_EPS = math.log(1.0 / 0.01) / 1000


def _probvec_rule(weights):
    """What ``ProbVec`` makes of ``weights``, as (weights, None) or (None,
    (exception type, message)): the first NaN or negative weight in order
    raises, then the sum checks on the ``math.fsum`` total decide, a total
    that overflows, where ``fsum`` raises, being inf."""
    if not weights:
        return None, (ValueError, "ProbVec needs at least one weight")
    for w in weights:
        if math.isnan(w):
            return None, (ValueError, "ProbVec weights must not be NaN")
        if w < 0.0:
            return None, (ValueError,
                          f"ProbVec weights must be nonnegative, got {w}")
    try:
        total = math.fsum(weights)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > NORMALIZATION_TOL:
        return None, (ValueError, f"weights sum to {total}, not 1")
    return tuple(w / total for w in weights), None


class TestProbVec:
    def test_renormalizes_within_tolerance(self):
        v = ProbVec([0.5, 0.5 + 5e-10])
        assert math.isclose(sum(v.weights), 1.0, abs_tol=1e-15)

    def test_rejects_far_from_one(self):
        with pytest.raises(ValueError):
            ProbVec([0.5, 0.4])

    def test_rejects_negative_and_nan_and_empty(self):
        with pytest.raises(ValueError):
            ProbVec([1.5, -0.5])
        with pytest.raises(ValueError):
            ProbVec([float("nan"), 1.0])
        with pytest.raises(ValueError):
            ProbVec([])

    @pytest.mark.parametrize("weights", [
        [0.1, 0.2, 0.7], [1 / 3] * 3, [0.25, 0.75], [-0.0, 1.0]])
    def test_keeps_weights_summing_to_exactly_one(self, weights):
        assert math.fsum(weights) == 1.0
        got = ProbVec(weights).weights
        assert [w.hex() for w in got] == [w.hex() for w in weights]

    def test_first_bad_weight_is_named(self):
        with pytest.raises(ValueError, match="NaN"):
            ProbVec([0.5, float("nan"), -0.5, 1.0])
        with pytest.raises(ValueError, match="nonnegative, got -0.5"):
            ProbVec([0.5, -0.5, float("nan"), 1.0])

    @given(st.lists(st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308]),
        st.floats(-1.0, 1.0)), max_size=6))
    @example([1.0, math.nan, 1e308, 1e308])
    @example([math.inf, math.nan])
    @example([0.5, 1e308, 1e308])  # fsum raises: the sum is named, inf
    def test_validation_follows_the_first_bad_weight_rule(self, weights):
        want, error = _probvec_rule(weights)
        if error is None:
            got = ProbVec(weights).weights
            assert [w.hex() for w in got] == [w.hex() for w in want]
            return
        with pytest.raises(Exception) as info:
            ProbVec(weights)
        assert (type(info.value), str(info.value)) == error

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)
           .filter(lambda ws: math.fsum(ws) > 0.0))
    def test_valid_vector_keeps_its_weights(self, raw):
        total = math.fsum(raw)
        weights = [w / total for w in raw]
        want, error = _probvec_rule(weights)
        assert error is None
        got = ProbVec(weights).weights
        assert [w.hex() for w in got] == [w.hex() for w in want]


class TestBinaryKl:
    def test_zero_iff_equal(self):
        assert binary_kl(0.5, 0.5) == 0.0
        assert binary_kl(0.0, 0.0) == 0.0
        assert binary_kl(1.0, 1.0) == 0.0
        assert binary_kl(0.3, 0.31) > 0.0

    def test_closed_forms(self):
        assert math.isclose(binary_kl(0.0, 0.5), math.log(2), rel_tol=1e-12)
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert math.isclose(binary_kl(0.25, 0.5), expected, rel_tol=1e-12)
        assert math.isclose(binary_kl(0.25, 0.5), 0.130812, abs_tol=1e-6)

    def test_support_violations_are_infinite(self):
        assert binary_kl(0.5, 0.0) == math.inf
        assert binary_kl(0.5, 1.0) == math.inf
        assert binary_kl(1.0, 0.0) == math.inf
        assert binary_kl(0.0, 1.0) == math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            binary_kl(float("nan"), 0.5)

    @given(st.floats(min_value=5e-324, max_value=1.0 - 2.0 ** -53),
           st.floats(min_value=5e-324, max_value=1.0 - 2.0 ** -53))
    @example(0.5, 0.5)
    @example(5e-324, 1.0 - 2.0 ** -53)
    @example(1.0 - 2.0 ** -53, 5e-324)
    def test_interior_formula_is_binary_kl(self, p, q):
        # binary_kl's unchecked interior formula; kl_inverse's loop inlines
        # it, and test_bisection_decides_by_binary_kl holds the two together
        assert _kl_interior(p, q).hex() == binary_kl(p, q).hex()

    def test_pinsker_on_grid(self):
        for p in UNIT_GRID:
            for q in UNIT_GRID:
                assert binary_kl(p, q) >= 2.0 * (p - q) ** 2 - 1e-12

    def test_refined_pinsker_on_grid(self):
        for p in UNIT_GRID:
            for q in UNIT_GRID:
                if q > p:
                    assert binary_kl(p, q) >= (p - q) ** 2 / (2.0 * q) - 1e-12


class TestCategoricalKl:
    def test_identical_is_zero(self):
        assert categorical_kl([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert math.isclose(categorical_kl([1.0, 0.0], [0.5, 0.5]), math.log(2))

    def test_support_violation(self):
        assert categorical_kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            categorical_kl([1.0], [0.5, 0.5])

    def test_a_ratio_that_underflows_gives_the_finite_term(self):
        # 5e-324 / 2.0 rounds to 0.0; 5e-324 ln(5e-324 / 2) is -745.13 times
        # the smallest subnormal, which rounds to -745 times it
        assert categorical_kl([5e-324, 0.5], [2.0, 0.5]) == -745 * 5e-324

    def test_a_ratio_that_overflows_gives_the_finite_term(self):
        # 1.0 / 5e-324 overflows to inf; the divergence is ln(1 / 5e-324)
        kl = categorical_kl([1.0, 0.0], [5e-324, 1.0])
        assert kl == -math.log(5e-324)
        assert kl == pytest.approx(744.44, abs=0.01)

    def test_product_distribution_doubles_kl(self):
        rho = [0.7, 0.2, 0.1]
        pi = [0.3, 0.3, 0.4]
        rho2 = [a * b for a in rho for b in rho]
        pi2 = [a * b for a in pi for b in pi]
        assert math.isclose(
            categorical_kl(rho2, pi2), 2.0 * categorical_kl(rho, pi), rel_tol=1e-12
        )


def grid_scan_upper(p_hat, eps, step=1e-6):
    """Brute-force oracle: largest q on a fine grid with kl(p_hat||q) <= eps."""
    best = p_hat
    q = p_hat
    while q <= 1.0:
        if binary_kl(p_hat, min(q, 1.0)) <= eps:
            best = q
        q += step
    return min(best, 1.0)


def bisect_by_binary_kl(p_hat, eps):
    """kl_inverse's bisection for an interior p_hat, deciding each step by
    the public ``binary_kl(p_hat, mid) <= eps``."""
    lo, hi = p_hat, 1.0
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if binary_kl(p_hat, mid) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


class TestKlInverse:
    @given(st.floats(min_value=5e-324, max_value=1.0 - 2.0 ** -53),
           st.sampled_from([0.0, 5e-324, 1e-300])
           | st.floats(min_value=1e-12, max_value=1e3))
    @example(5e-324, 0.0)
    @example(5e-324, 1e3)
    @example(1.0 - 2.0 ** -53, 5e-324)
    @example(1.0 - 2.0 ** -53, 1e-300)
    # the window's edges: budgets too small to certify it, ...
    @example(0.3, 1e-300)
    @example(0.3, 1e-30)
    @example(0.3, 1e-16)
    # ... p_hat where p_hat + sqrt(eps/2) is past 1, up to roots within
    # rounding of 1, ...
    @example(0.95, BOUNDS_EPS)
    @example(0.99, BOUNDS_EPS)
    @example(0.9999, BOUNDS_EPS)
    @example(1.0 - 1e-9, BOUNDS_EPS)
    # ... and the extreme interior p_hat
    @example(5e-324, BOUNDS_EPS)
    @example(1.0 - 2.0 ** -53, BOUNDS_EPS)
    def test_bisection_decides_by_binary_kl(self, p_hat, eps):
        # the loop's inline, unclamped kl decides every step as binary_kl,
        # and a mid outside the window is decided as binary_kl would
        assert (kl_inverse(p_hat, eps).hex()
                == bisect_by_binary_kl(p_hat, eps).hex())

    def test_seeded_sweep_decides_by_binary_kl(self):
        rng = np.random.default_rng(20260)
        n = 3000
        # p_hat log-uniform near 0 and near 1, and uniform; eps log-uniform
        # from below the window's reach to far past the bounds' scale
        far = 10.0 ** rng.uniform(-320.0, -0.3, n)
        p_hats = np.choose(rng.integers(0, 3, n),
                           [far, 1.0 - 10.0 ** rng.uniform(-16.0, -0.3, n),
                            rng.random(n)])
        epss = 10.0 ** rng.uniform(-18.0, 2.0, n)
        for p_hat, eps in zip(p_hats.tolist(), epss.tolist()):
            assert (kl_inverse(p_hat, eps).hex()
                    == bisect_by_binary_kl(p_hat, eps).hex()), (p_hat, eps)

    def test_bounds_compare_spends_its_logs_near_the_root(self, monkeypatch):
        # the plain bisection took 72.3 logs a call on this grid
        calls = []
        log = math.log
        monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
        for k in range(1, 1000):
            kl_inverse(k / 1000, BOUNDS_EPS)
        assert len(calls) / 999 <= 30

    def test_zero_budget_is_identity(self):
        assert kl_inverse(0.3, 0.0) == pytest.approx(0.3, abs=1e-7)

    def test_closed_form_at_zero(self):
        eps = 0.25
        assert math.isclose(kl_inverse(0.0, eps), 1.0 - math.exp(-eps))

    def test_closed_form_at_one(self):
        assert kl_inverse(1.0, 0.25) == 1.0

    def test_infinite_budget(self):
        assert kl_inverse(0.4, math.inf) == 1.0

    def test_matches_grid_scan_oracle(self):
        q = kl_inverse(0.1, 0.05)
        assert 0.1 < q < 1.0
        assert abs(q - grid_scan_upper(0.1, 0.05)) < 1e-5

    def test_round_trip_when_interior(self):
        for p_hat in (0.05, 0.1, 0.3, 0.5, 0.9):
            for eps in (1e-4, 1e-2, 0.1):
                q = kl_inverse(p_hat, eps)
                if q < 1.0:
                    assert abs(binary_kl(p_hat, q) - eps) < 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_monotone_in_eps(self, p_hat, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert kl_inverse(p_hat, lo) <= kl_inverse(p_hat, hi) + 1e-10

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_monotone_in_p_hat(self, p1, p2, eps):
        lo, hi = min(p1, p2), max(p1, p2)
        assert kl_inverse(lo, eps) <= kl_inverse(hi, eps) + 1e-10

    def test_tighter_than_relaxations(self):
        for p_hat in UNIT_GRID:
            for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
                q = kl_inverse(p_hat, eps)
                plain, refined = pinsker_relaxations(p_hat, eps)
                assert q <= min(plain, refined) + 1e-9

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            kl_inverse(0.5, -1.0)


class TestPinskerRelaxations:
    def test_plain(self):
        plain, _ = pinsker_relaxations(0.1, 0.02)
        assert math.isclose(plain, 0.2, rel_tol=1e-12)

    def test_refined_upper(self):
        _, refined = pinsker_relaxations(0.01, 0.005)
        assert math.isclose(refined, 0.03, rel_tol=1e-12)

    @pytest.mark.parametrize("p_hat", [0.0, 0.3, 1.0])
    def test_infinite_budget_gives_one(self, p_hat):
        assert pinsker_relaxations(p_hat, math.inf) == (1.0, 1.0)


def hex_digest(values) -> str:
    """SHA-256 over ``float.hex`` of each value, comma separated."""
    return hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()


# The pinned grid: 0 and 1, the smallest subnormal, the largest double
# below 1, and every k/n with n <= 40.
DIGEST_P = sorted({0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0}
                  | {k / n for n in range(1, 41) for k in range(n + 1)})
DIGEST_EPS = (0.0, 1e-300, 1e-12, 1e-3, 0.05, 1.0, 50.0, math.inf)


def categorical_cases():
    """Seeded (rho, pi) pairs with zeros in either argument, some of them
    putting mass where pi has none."""
    rng = np.random.default_rng(2022)
    cases = []
    for k in range(2, 10):
        for _ in range(6):
            rho = rng.dirichlet(np.ones(k)).tolist()
            pi = rng.dirichlet(np.full(k, 0.5)).tolist()
            zeros = rng.integers(0, 4)
            if zeros == 1:
                rho[rng.integers(k)] = 0.0
            elif zeros == 2:
                j = int(rng.integers(k))
                rho[j] = pi[j] = 0.0
            elif zeros == 3:
                pi[rng.integers(k)] = 0.0
            cases.append((rho, pi))
    cases.append(([-0.0, 1.0], [0.0, 1.0]))
    cases.append(([0.5, 0.5], [0.5, 0.5]))
    return cases


class TestPinnedDigest:
    def test_numeric_core_matches_pinned_digest(self):
        # kl_inverse on the p_hat x eps grid, binary_kl on the p x q grid
        # with its edges, and categorical_kl; this list was pinned before
        # the bisection stopped going through the checked binary_kl, with a
        # lower inverse after each upper one, and re-pinned without those
        # lower values by the code that still computed both
        values = [kl_inverse(p, eps) for p in DIGEST_P for eps in DIGEST_EPS]
        values += [binary_kl(p, q) for p in DIGEST_P for q in DIGEST_P]
        values += [categorical_kl(rho, pi) for rho, pi in categorical_cases()]
        assert all(type(v) is float for v in values)
        assert hex_digest(values) == (
            "d597486c321e1b16cc8d934f7be6fba4"
            "bd04d9eb37ddef838acc13daedb8231a")


def unit_error(name: str, x: float):
    """The message for an argument that must lie in [0, 1], or None."""
    if math.isnan(x):
        return f"{name} must not be NaN"
    if not 0.0 <= x <= 1.0:
        return f"{name} must be in [0, 1], got {x}"
    return None


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0,
                               1.0 + 2.0 ** -52, -5e-324, math.nan, math.inf,
                               -math.inf])
ANY_FLOAT = EDGE_FLOATS | st.floats(allow_nan=True, allow_infinity=True)


# the entries whose order decides categorical_kl: both zeros, a subnormal,
# inner values, one, negative values down to the one next to zero, both
# infinities and NaN
KL_ENTRIES = [0.0, -0.0, 5e-324, 0.25, 1.0, -0.25, -5e-324, math.inf,
              -math.inf, math.nan]


def two_pass_categorical_kl(rho, pi):
    """categorical_kl by a pre-scan for the first pair holding a NaN, an
    infinite or a negative entry, then a sum over the pairs before it: +inf
    if one of them puts mass where pi has none, else the error for that
    pair if there is one (NaN named first), else the sum.  Returns a
    ValueError instead of raising it."""
    ok = lambda x: 0.0 <= x < math.inf
    bad_at = next((i for i, (r, q) in enumerate(zip(rho, pi))
                   if not (ok(r) and ok(q))), len(rho))
    total = 0.0
    for r, q in zip(rho[:bad_at], pi[:bad_at]):
        if r == 0.0:
            continue
        if q == 0.0:
            return math.inf
        # a ratio that overflows, as 1.0 / 5e-324 does, gives the finite term
        ratio = r / q
        total += r * (math.log(ratio) if ratio < math.inf
                      else math.log(r) - math.log(q))
    if bad_at == len(rho):
        return total
    r, q = rho[bad_at], pi[bad_at]
    if math.isnan(r) or math.isnan(q):
        return ValueError("KL arguments must not be NaN")
    return ValueError("KL arguments must be finite and nonnegative, got "
                      f"{q if ok(r) else r}")


class TestErrorContract:
    """Which ValueError, with which message, NaN and out-of-range input
    raises; p is checked before q, p_hat before eps."""

    @given(ANY_FLOAT, ANY_FLOAT)
    def test_binary_kl(self, p, q):
        expected = unit_error("p", p) or unit_error("q", q)
        if expected is None:
            assert binary_kl(p, q) >= 0.0
            return
        with pytest.raises(ValueError) as info:
            binary_kl(p, q)
        assert type(info.value) is ValueError and str(info.value) == expected

    @given(ANY_FLOAT, ANY_FLOAT)
    def test_kl_inverse(self, p_hat, eps):
        expected = unit_error("p_hat", p_hat)
        if expected is None and (math.isnan(eps) or eps < 0.0):
            expected = f"eps must be a nonnegative real, got {eps}"
        if expected is None:
            assert p_hat <= kl_inverse(p_hat, eps) <= 1.0
            return
        with pytest.raises(ValueError) as info:
            kl_inverse(p_hat, eps)
        assert type(info.value) is ValueError and str(info.value) == expected

    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan]),
                 min_size=k, max_size=k),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]),
                 min_size=k - 1, max_size=k))))
    def test_categorical_kl(self, case):
        rho, pi = case
        if len(rho) != len(pi):
            with pytest.raises(ValueError, match="^length mismatch: "):
                categorical_kl(rho, pi)
            return
        # the first pair that is NaN or puts mass where pi has none decides
        first = next((i for i, (r, q) in enumerate(zip(rho, pi))
                      if math.isnan(r) or math.isnan(q) or (r != 0 and q == 0)),
                     None)
        if first is None:
            assert math.isfinite(categorical_kl(rho, pi))
        elif math.isnan(rho[first]) or math.isnan(pi[first]):
            with pytest.raises(ValueError) as info:
                categorical_kl(rho, pi)
            assert str(info.value) == "KL arguments must not be NaN"
        else:
            assert categorical_kl(rho, pi) == math.inf

    @pytest.mark.parametrize("r0", KL_ENTRIES)
    @pytest.mark.parametrize("q0", KL_ENTRIES)
    def test_categorical_kl_agrees_with_the_two_pass_sum(self, r0, q0):
        # every (rho, pi) of length 2 whose first pair is (r0, q0)
        for r1 in KL_ENTRIES:
            for q1 in KL_ENTRIES:
                rho, pi = [r0, r1], [q0, q1]
                want = two_pass_categorical_kl(rho, pi)
                if isinstance(want, ValueError):
                    with pytest.raises(ValueError) as info:
                        categorical_kl(rho, pi)
                    assert str(info.value) == str(want), (rho, pi)
                else:
                    got = categorical_kl(rho, pi)
                    same = got == want or math.isnan(got) and math.isnan(want)
                    assert same, (rho, pi, got, want)

    def test_categorical_kl_infinite_before_a_later_nan(self):
        assert categorical_kl([0.5, math.nan], [0.0, 0.5]) == math.inf
        with pytest.raises(ValueError, match="NaN"):
            categorical_kl([0.0, math.nan, 0.5], [0.5, 0.5, 0.0])

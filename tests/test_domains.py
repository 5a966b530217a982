"""Every public entry point of the library names a bad scalar argument.

The table lists, for each public function and class of the five library
modules (a class with its public class and static methods), the scalar
numeric parameters it takes: a call that passes one value for that
parameter and valid values for the rest, a value in the domain and the
finite values outside it.  NaN, +inf and -inf are fed as well, unless the
row lists one as in the domain, and each must raise a ValueError whose
message starts with the parameter's name.  A callable with no scalar
numeric parameter, or whose checks are pinned elsewhere, is listed in
``NO_ROW`` with the reason.  Instance methods are the per-round code and
keep their own checks.
"""
import inspect
import math
import os

import numpy as np
import pytest

from boundslab import (
    concentration,
    divergences,
    environments,
    online_policies,
    pac_bayes,
)
from boundslab.concentration import (
    Sample,
    SplitGrid,
    empirical_bernstein_mean_bound,
    hoeffding_mean_bound,
    hoeffding_radius,
    kl_mean_bound,
    lambda_grid,
    psi,
    split_kl_mean_bound,
    unexpected_bernstein_mean_bound,
)
from boundslab.divergences import (
    ProbVec,
    binary_kl,
    kl_inverse,
    pinsker_relaxations,
)
from boundslab.environments import (
    BernoulliEnv,
    MatrixEnv,
    make_ftl_breaker,
    make_ucb_breaker,
    play_bandit,
    play_full_information,
    replay_importance_weighted,
    replay_rejection_sampling,
    synthesize_uniform_log,
    write_log,
)
from boundslab.online_policies import (
    EXP3Policy,
    EXP4Policy,
    FixedPolicy,
    FTLPolicy,
    HedgePolicy,
    UCB1Batch,
    UCB1Policy,
    doubling_schedule,
    hedge_eta,
)
from boundslab.pac_bayes import (
    LossTable,
    PacBayesQuery,
    alternating_minimize,
    geometric_split,
    gibbs_posterior,
    pb_kl_bound,
    pb_lambda_bound,
    recursive_pb,
)

MODULES = (divergences, concentration, pac_bayes, online_policies,
           environments)

PI = ProbVec([0.5, 0.5])
QUERY = PacBayesQuery(PI, PI, 100, 0.05)
TABLE = LossTable([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
SAMPLE = Sample.unit([0.0, 0.5, 1.0, 0.25])
LOG = synthesize_uniform_log([0.5, 0.5], 5, 0)
ADVICE = lambda t: np.full((2, 2), 0.5)  # EXP4's advice in every round


def matrix_env():
    return MatrixEnv(np.full((4, 2), 0.5))


def row(param, call, good, *bad, in_domain=()):
    """One scalar parameter: ``call(x)`` passes x for it, ``good`` is in
    its domain and ``bad`` are the finite values outside it; NaN, +inf
    and -inf are bad too unless listed in ``in_domain``."""
    bad += tuple(x for x in (math.nan, math.inf, -math.inf)
                 if x not in in_domain)
    return param, call, good, bad


# the floats next to the closed ends of [0, 1], outside it
BELOW_ZERO = -math.ulp(0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
# the finite values outside [0, 1], and outside (0, 1) and (0, inf)
UNIT = (-0.5, BELOW_ZERO, ABOVE_ONE, 1.5)
OPEN_UNIT = (0.0, 1.0)
POSITIVE = (-1.0, -0.0, 0.0)


ROWS = {
    # divergences
    "binary_kl": [row("p", lambda x: binary_kl(x, 0.5), 0.3, *UNIT),
                  row("q", lambda x: binary_kl(0.5, x), 0.3, *UNIT)],
    "kl_inverse": [
        row("p_hat", lambda x: kl_inverse(x, 0.1), 0.3, *UNIT),
        row("eps", lambda x: kl_inverse(0.3, x), 0.1, -1.0, BELOW_ZERO,
            in_domain=(math.inf,))],
    "pinsker_relaxations": [
        row("p_hat", lambda x: pinsker_relaxations(x, 0.1), 0.3,
            *UNIT),
        row("eps", lambda x: pinsker_relaxations(0.3, x), 0.1, -1.0,
            BELOW_ZERO,
            in_domain=(math.inf,))],
    # concentration
    "lambda_grid": [
        row("n", lambda x: lambda_grid(x, 0.05), 100, 0, 2.5),
        row("delta", lambda x: lambda_grid(100, x), 0.05, *OPEN_UNIT)],
    "hoeffding_radius": [
        row("n", lambda x: hoeffding_radius(x, 0.05), 100, 0, 2.5),
        row("delta", lambda x: hoeffding_radius(100, x), 0.05, *OPEN_UNIT)],
    "hoeffding_mean_bound": [
        row("p_hat", lambda x: hoeffding_mean_bound(x, 100, 0.05), 0.3,
            *UNIT),
        row("n", lambda x: hoeffding_mean_bound(0.3, x, 0.05), 100, 0, 2.5),
        row("delta", lambda x: hoeffding_mean_bound(0.3, 100, x), 0.05,
            *OPEN_UNIT)],
    "kl_mean_bound": [
        row("p_hat", lambda x: kl_mean_bound(x, 100, 0.05), 0.3, *UNIT),
        row("n", lambda x: kl_mean_bound(0.3, x, 0.05), 100, 0, 2.5),
        row("delta", lambda x: kl_mean_bound(0.3, 100, x), 0.05,
            *OPEN_UNIT)],
    "split_kl_mean_bound": [row("delta", lambda x: split_kl_mean_bound(
        SAMPLE, SplitGrid([0.0, 0.5, 1.0]), x), 0.05, *OPEN_UNIT)],
    "empirical_bernstein_mean_bound": [row(
        "delta", lambda x: empirical_bernstein_mean_bound(SAMPLE, x),
        0.05, *OPEN_UNIT)],
    "psi": [row("u", psi, 0.5, -1.0, math.nextafter(-1.0, -2.0))],
    "unexpected_bernstein_mean_bound": [row(
        "delta", lambda x: unexpected_bernstein_mean_bound(SAMPLE, x),
        0.05, *OPEN_UNIT)],
    # pac_bayes
    "PacBayesQuery": [
        row("n", lambda x: PacBayesQuery(PI, PI, x, 0.05), 100, 0, 2.5),
        row("delta", lambda x: PacBayesQuery(PI, PI, 100, x), 0.05,
            *OPEN_UNIT)],
    "pb_kl_bound": [row("emp_loss", lambda x: pb_kl_bound(QUERY, x),
                        0.3, *UNIT)],
    "pb_lambda_bound": [
        row("emp_loss", lambda x: pb_lambda_bound(QUERY, x, lam=1.0),
            0.3, *UNIT),
        row("lam", lambda x: pb_lambda_bound(QUERY, 0.3, lam=x), 1.0,
            0.0, 2.0)],
    "gibbs_posterior": [row("scale", lambda x: gibbs_posterior(
        PI, [0.2, 0.4], x), 1.0, -1.0, BELOW_ZERO)],
    "alternating_minimize": [row("delta", lambda x: alternating_minimize(
        PI, TABLE, x), 0.05, *OPEN_UNIT)],
    "geometric_split": [
        row("n", lambda x: geometric_split(x, 3), 8, 3, 2.5, 10.5),
        row("T", lambda x: geometric_split(8, x), 3, 0, 2.5)],
    "recursive_pb": [
        row("delta", lambda x: recursive_pb(TABLE, x, 2), 0.05,
            *OPEN_UNIT),
        row("T", lambda x: recursive_pb(TABLE, 0.05, x), 2, 0, 2.5),
        row("seed", lambda x: recursive_pb(TABLE, 0.05, 2, seed=x), 3, -1,
            2.5)],
    # online_policies
    "hedge_eta": [
        row("K", lambda x: hedge_eta(x, T=10), 2, 0, 1, 2.5),
        row("T", lambda x: hedge_eta(2, T=x), 10, 0, 2.5),
        row("t", lambda x: hedge_eta(2, t=x, variant="anytime_tight"), 1,
            0, 2.5)],
    "doubling_schedule": [
        row("t", lambda x: doubling_schedule(x, 2), 4, 0, 2.5),
        row("K", lambda x: doubling_schedule(4, x), 2, 0, 1, 2.5)],
    "HedgePolicy": [
        row("K", HedgePolicy, 2, 0, 1, 2.5),
        # the default anytime rate does not read T; a given T is checked
        row("T", lambda x: HedgePolicy(2, T=x), 10, 0, 2.5)],
    "FTLPolicy": [row("K", FTLPolicy, 2, 0, 2.5)],
    "EXP3Policy": [
        row("K", EXP3Policy, 2, 0, 1, 2.5),
        row("R", lambda x: EXP3Policy(2, R=x), 2, 0, 2.5)],
    "EXP4Policy": [
        # ln 1 = 0: one expert would derive the rate 0
        row("n_experts", lambda x: EXP4Policy(x, 2, ADVICE, T=10), 2, 0, 1,
            2.5),
        row("K", lambda x: EXP4Policy(2, x, ADVICE, T=10), 2, 0, 1, 2.5),
        row("T", lambda x: EXP4Policy(2, 2, ADVICE, T=x), 10, 0, 2.5),
        row("R", lambda x: EXP4Policy(2, 2, ADVICE, T=10, R=x), 2, 0, 2.5)],
    "UCB1Policy": [
        row("K", lambda x: UCB1Policy(x, parametrization="original"),
            2, 0, 2.5),
        row("reward_range", lambda x: UCB1Policy(
            2, parametrization="original", reward_range=x), 2.0, *POSITIVE)],
    "UCB1Batch": [
        row("K", lambda x: UCB1Batch(x, parametrization="original"), 2, 0,
            2.5),
        row("R", lambda x: UCB1Batch(2, parametrization="original", R=x), 2,
            0, 2.5)],
    "FixedPolicy": [
        row("K", lambda x: FixedPolicy(x, arm=0), 2, 0, 2.5),
        row("arm", lambda x: FixedPolicy(2, arm=x), 1, 2, -1, 2.5, 0.5)],
    # environments
    "BernoulliEnv": [row("seed", lambda x: BernoulliEnv([0.5], x), 3, -1,
                         2.5)],
    "make_ftl_breaker": [row("T", make_ftl_breaker, 4, 1, 2.5)],
    "make_ucb_breaker": [
        row("T", make_ucb_breaker, 4, 3, 2.5, 4.5)],
    "write_log": [row("K", lambda x: write_log(os.devnull, x, LOG), 2, 0,
                      2.5)],
    "synthesize_uniform_log": [
        row("means", lambda x: synthesize_uniform_log([x], 5, 0), 0.5,
            *UNIT),
        row("T", lambda x: synthesize_uniform_log([0.5], x, 0), 5, -1, 2.5),
        row("seed", lambda x: synthesize_uniform_log([0.5], 5, x), 0, -1,
            2.5)],
    "play_full_information": [row("T", lambda x: play_full_information(
        FTLPolicy(2), matrix_env(), x), 3, -1, 2.5)],
    "play_bandit": [row("T", lambda x: play_bandit(
        UCB1Batch(2, parametrization="original"), [matrix_env()], x), 3, -1,
        2.5)],
    "replay_importance_weighted": [row("K", lambda x: (
        replay_importance_weighted(FixedPolicy(2, arm=0), LOG, x)), 2, 0,
        2.5)],
    "replay_rejection_sampling": [row("K", lambda x: (
        replay_rejection_sampling(FixedPolicy(2, arm=0), LOG, x)), 2, 0,
        2.5)],
}

NO_ROW = {
    "ProbVec": "weights: a sequence, checked as a whole",
    "categorical_kl": "rho and pi: sequences, checked entry by entry",
    "BoundResult": "a record of a bound already computed",
    "Sample": "values: a sequence, checked as a whole, message by message "
              "in TestSampleErrorContract",
    "Sample.unit": "values: a sequence",
    "SplitGrid": "points: a sequence, checked as a whole",
    "sample_variance": "sample: a Sample",
    "LossTable": "a loss matrix, checked as a whole",
    "MinimizationResult": "a record of a minimization already run",
    "RecursiveStage": "a record of a stage already computed",
    "ftl_choice": "cum_losses: a sequence",
    "sample_arm": "per-round code",
    "sample_arms": "per-round code",
    "BanditLog": "arrays",
    "GameTranscript": "arrays and a payoff kind",
    "BernoulliEnv.blocks": "per-block code of the game loops",
    "MatrixEnv": "a loss matrix, checked as a whole",
    "MatrixEnv.blocks": "per-block code of the game loops",
    "parse_log": "lines of a log, checked record by record",
    "hindsight_regret": "a loss matrix and arms",
    "pseudo_regret": "arms and means: sequences",
}


def public_callables():
    """The public functions and classes each module defines, and the
    public class and static methods of its classes."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or obj.__module__ != module.__name__):
                continue
            yield name
            for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
                if (not attr.startswith("_")
                        and isinstance(member, (classmethod, staticmethod))):
                    yield f"{name}.{attr}"


def test_every_public_callable_has_a_row():
    names = list(public_callables())
    assert len(names) == len(set(names))
    assert not ROWS.keys() & NO_ROW.keys()
    assert set(names) == ROWS.keys() | NO_ROW.keys()


CASES = [(name, param, call, good, bad) for name, rows in ROWS.items()
         for param, call, good, bads in rows for bad in bads]


@pytest.mark.parametrize(
    "name, param, call, good, bad", CASES,
    ids=[f"{name}-{param}-{bad}" for name, param, _, _, bad in CASES])
def test_a_bad_scalar_raises_a_value_error_naming_it(name, param, call, good,
                                                     bad):
    call(good)
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{param} must "), str(info.value)

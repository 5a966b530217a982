"""Seeded experiment runner.

Each repetition r of an experiment derives an independent stream from the
master seed via ``SeedSequence(master, spawn_key=(r,))``; repetitions are
aggregated (mean, population std) in repetition-index order, so the output
is a pure function of the configuration.  A bandit series is one policy of
R rows, whose repetitions ``play_bandit`` plays together; everything else
runs one repetition after another.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from boundslab.concentration import (
    Sample,
    SplitGrid,
    empirical_bernstein_mean_bound,
    hoeffding_mean_bound,
    kl_mean_bound,
    split_kl_mean_bound,
    unexpected_bernstein_mean_bound,
)
from boundslab.divergences import ProbVec, pinsker_relaxations
from boundslab.environments import (
    LOG_FIELDS,
    ROW_BLOCK,
    BernoulliEnv,
    MatrixEnv,
    hindsight_regret,
    make_ftl_breaker,
    make_ucb_breaker,
    play_bandit,
    play_full_information,
    pseudo_regret,
    replay_importance_weighted,
    replay_rejection_sampling,
    synthesize_uniform_log,
)
from boundslab.lab.config import ConfigError, ExperimentConfig, Section, at_least
from boundslab.lab.csvio import AggregateTrace, aggregate
from boundslab.online_policies import (
    EXP3_VARIANTS,
    HEDGE_ETA_VARIANTS,
    UCB1_PARAMETRIZATIONS,
    EXP3Policy,
    EpsilonFirstPolicy,
    FTLPolicy,
    FixedPolicy,
    HedgePolicy,
    UCB1Batch,
    UCB1Policy,
)


def repetition_seeds(master: int, r: int):
    """Derive (environment seed, policy rng) for repetition r."""
    children = np.random.SeedSequence(master, spawn_key=(r,)).spawn(2)
    env_seed = int(children[0].generate_state(1)[0])
    return env_seed, np.random.default_rng(children[1])


# policy kind: (the feedback it plays, fewest arms, most arms or None)
_PLAYS = {
    "hedge": ("full", 2, None),
    "ftl": ("full", 1, None),
    "exp3": ("bandit", 2, None),
    "ucb1": ("bandit", 1, None),
    "epsilon_first": ("bandit", 2, 2),
}
_POSITIVE = (lambda x: 0.0 < x < math.inf, "positive and finite")
_UNIT = (lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_UNITS = (lambda xs: all(0.0 <= x <= 1.0 for x in xs), "in [0, 1]")
_ARMS = (lambda means: len(means) >= 2, "at least 2 values, one mean per arm")

# The most floats one sample, bound grid, loss table, block of loss cells
# or series may hold: 2**27, 1 GiB as float64.  Each size field that sets
# one of them is capped so that it fits.
MAX_CELLS = 2 ** 27
SERIES = "the experiment.R x experiment.T series"


def _cap(holder: str, per: int = 1, per_text: str = "", many=None) -> tuple:
    """The rule that a size field's value, or the ``many`` (``max`` or
    ``sum``) of its values, times ``per`` (``per_text``) is at most
    MAX_CELLS, the floats ``holder`` may hold."""
    most = MAX_CELLS // per
    bound = f"2**27 // {per_text} = {most}" if per_text else "2**27"
    what = {None: "", max: "integers ", sum: "integers with a sum "}[many]
    return (lambda v: (many(v) if many else v) <= most,
            f"{what}<= {bound}, as {holder} holds at most 2**27 floats "
            f"(1 GiB as float64)")


def _read_policy(label: str, raw: dict, T: int, R: int):
    """(kind, K -> a fresh policy) of one [policy] section: a bandit policy
    holds the R repetitions as rows, a full-information one plays one game."""
    f = Section(f"policy {label}", raw)
    kind = f.read("kind", tuple(_PLAYS), required="for every policy")
    if kind == "hedge":
        variant = f.read("variant", HEDGE_ETA_VARIANTS, "anytime_tight")
        eta = f.read("eta", float, None, _POSITIVE)
        doubling = f.read("doubling", bool, "false")
        if doubling and eta is not None:
            raise f.error("eta", f"must be unset when doubling is on, got "
                                 f"{raw['eta']!r}")
        make = partial(HedgePolicy, variant=variant, eta=eta, T=T,
                       doubling=doubling)
    elif kind == "exp3":
        variant = f.read("variant", EXP3_VARIANTS, "losses")
        eta = (f.read("eta", float, None, (lambda eta: 0.0 < eta < 1.0,
                      "in (0, 1)"), required="for variant rewards")
               if variant == "rewards" else f.read("eta", float, None, _POSITIVE))
        horizon = T if f.read("fixed_horizon", bool, "false") else None
        make = partial(EXP3Policy, variant=variant, eta=eta, T=horizon, R=R)
    elif kind == "ucb1":
        make = partial(UCB1Batch, R=R, parametrization=f.read(
            "parametrization", UCB1_PARAMETRIZATIONS, "original"))
    elif kind == "epsilon_first":
        gap = f.read("gap", float, None, (lambda gap: 0.0 < gap <= 1.0,
                     "in (0, 1]"), required="for epsilon_first")
        make = lambda K: EpsilonFirstPolicy(T, gap, R)
    else:
        make = FTLPolicy
    f.close()
    return kind, make


def _stochastic(means):
    m = np.asarray(means)
    return (lambda seed: BernoulliEnv(means, seed),
            lambda trans: pseudo_regret(trans.arms, m))


def _oblivious(losses):
    return (lambda seed: MatrixEnv(losses),
            lambda trans: hindsight_regret(losses, trans.arms))


def _read_environment(config: ExperimentConfig):
    """(feedback or None, [(suffix, K, build)]) of the [environment]
    section; ``build()`` gives the (env factory, regret fn) pair, and is
    called only once every section has been checked.  The caps on T, then R,
    and a breaker's floor on T are checked on the text each was read from."""
    f = Section("environment", config.environment)
    T = config.T
    experiment = Section("experiment", config.texts)
    experiment.read("T", int, None, _cap("a game of experiment.T rounds"))
    experiment.read("R", int, None, _cap(SERIES, T, "experiment.T"))
    kind = f.read("kind", ("bernoulli", "bernoulli_gap", "ftl_breaker",
                           "ucb_breaker"), required="for game experiments")
    feedback = f.read("feedback", ("bandit", "full"))
    if kind == "bernoulli":
        means = tuple(f.read("means", [float], None, _UNITS, _ARMS,
                             required="for bernoulli"))
        envs = [("", len(means), partial(_stochastic, means))]
    elif kind == "bernoulli_gap":
        # a single K may be given as "k"; errors name the key the file used
        key = "k_grid" if "k_grid" in f.raw else "k"
        # the largest block of cells is one round of the R repetitions (a
        # bandit block of more rounds stays under BLOCK_CELLS) or ROW_BLOCK
        # rounds of one full-information env
        rows = f"max(experiment.R, {ROW_BLOCK})"
        k_grid = f.read(key, [int], "2", (
            lambda ks: min(ks) >= 2 and len(set(ks)) == len(ks),
            "distinct integers >= 2"), _cap(f"a block of {rows} rows of k loss "
            "cells", max(config.R, ROW_BLOCK), rows, many=max))
        base = f.read("base", float, "0.5", _UNIT)
        gap = f.read("gap", float, "0.25", (lambda gap: 0 <= base - gap <= 1,
                                            f"in [{base - 1:g}, {base:g}]"))
        envs = [(f"[K={k}]" if len(k_grid) > 1 else "", k, partial(
            _stochastic, tuple([base - gap] + [base] * (k - 1))))
            for k in k_grid]
    elif kind == "ftl_breaker":
        experiment.read("T", int, None, (lambda T: T >= 2, ">= 2 for ftl_breaker"))
        envs = [("", 2, lambda: _oblivious(make_ftl_breaker(T)))]
    else:
        k = f.read("k", int, "2", at_least(1), _cap(
            "the experiment.T x environment.k reward matrix", T, "experiment.T"))
        parametrization = f.read("parametrization", UCB1_PARAMETRIZATIONS,
                                 "improved")
        experiment.read("T", int, None, (lambda T: T >= 2 * k, f">= 2 * "
                        f"environment.k = {2 * k} for ucb_breaker"))
        envs = [("", k, lambda: _oblivious(1.0 - make_ucb_breaker(
            T, k, parametrization=parametrization)[0]))]
    f.close()
    return feedback, envs


def _run_game(config: ExperimentConfig) -> list[AggregateTrace]:
    feedback, envs = _read_environment(config)
    policies = []
    for label, raw in config.policies:
        kind, make = _read_policy(label, raw, config.T, config.R)
        mode, fewest, most = _PLAYS[kind]
        if feedback not in (None, mode):
            raise ConfigError(f"environment.feedback: must be {mode} for "
                              f"policy {label} ({kind}), got {feedback!r}",
                              "environment.feedback")
        for _, K, _ in envs:
            if not fewest <= K <= (most or K):
                arms = fewest if most else f">= {fewest}"
                raise ConfigError(f"policy {label}.kind: must be a kind for "
                                  f"K = {K} ({kind} takes {arms} arms), got "
                                  f"{raw['kind']!r}", f"policy {label}.kind")
        policies.append((label, mode, make))

    traces = []
    for suffix, K, build in envs:
        env_factory, regret_fn = build()
        for label, mode, make in policies:
            env_seeds, rngs = zip(*[repetition_seeds(config.seed, r)
                                    for r in range(config.R)])
            # made one at a time, so a full-information series holds one
            # env's row block at a time
            games = map(env_factory, env_seeds)
            if mode == "bandit":
                runs = [regret_fn(game) for game
                        in play_bandit(make(K), list(games), config.T, rngs)]
            else:  # a fresh policy per repetition
                runs = [regret_fn(play_full_information(
                            make(K), env, config.T, rng))
                        for env, rng in zip(games, rngs)]
            traces.append(aggregate(label + suffix, runs))
    return traces


def _run_bounds(config: ExperimentConfig) -> list[AggregateTrace]:
    f = Section("params", config.params)
    family = f.read("family", ("four_bounds", "split_kl",
                               "unexpected_bernstein"), "four_bounds")
    # four_bounds allocates nothing by n, so it takes any n
    sample = [_cap("a sample of params.n values")] if family != "four_bounds" else []
    n = f.read("n", int, "1000", at_least(2), *sample)
    grid = f.read("grid", int, "101", at_least(2),
                  _cap("the grid of params.grid points"))
    f.close()
    delta = config.delta
    t = np.arange(grid)
    xs = t / (grid - 1)

    def flat(name, values):
        return AggregateTrace(name, t, np.asarray(values), np.zeros(grid))

    if family == "four_bounds":
        names = ("hoeffding", "pinsker", "refined_pinsker", "kl")

        def point(p_hat):
            hoeff = hoeffding_mean_bound(p_hat, n, delta).value
            kl = kl_mean_bound(p_hat, n, delta)
            plain, refined, _ = pinsker_relaxations(p_hat, kl.detail["eps"])
            return hoeff, plain, refined, kl.value
    elif family == "split_kl":
        # ternary sample on {0, 1/2, 1}: x is the fraction of 1/2-values,
        # the remainder split as evenly as possible between 0 and 1
        names = ("split_kl", "kl")
        split_grid = SplitGrid([0.0, 0.5, 1.0])

        def point(frac):
            n_half = round(frac * n)
            n_one = (n - n_half) // 2
            sample = Sample.unit([0.0] * (n - n_half - n_one) + [0.5] * n_half
                                 + [1.0] * n_one)
            return (split_kl_mean_bound(sample, split_grid, delta).value,
                    kl_mean_bound(sample.mean, n, delta).value)
    else:
        names = ("kl", "empirical_bernstein", "unexpected_bernstein", "hoeffding")

        def point(p_hat):
            k = round(p_hat * n)
            sample = Sample.unit([1.0] * k + [0.0] * (n - k))
            return (kl_mean_bound(sample.mean, n, delta).value,
                    empirical_bernstein_mean_bound(sample, delta).value,
                    unexpected_bernstein_mean_bound(sample, delta).value,
                    hoeffding_mean_bound(sample.mean, n, delta).value)
    return list(map(flat, names, zip(*map(point, xs))))


def _read_reps(config: ExperimentConfig, cells: int, cells_text: str) -> None:
    """Cap experiment.R by the ``cells`` loss cells one repetition draws."""
    Section("experiment", config.texts).read("R", int, None, _cap(
        "the experiment.R repetitions' draw of loss cells", cells,
        f"({cells_text})"))


def _synthetic_table(rng, m: int, n: int):
    from boundslab.pac_bayes import LossTable

    true_means = rng.uniform(0.2, 0.8, size=m)
    losses = (rng.random((m, n)) < true_means[:, None]).astype(float)
    return LossTable(losses)


def _run_pacbayes(config: ExperimentConfig) -> list[AggregateTrace]:
    from boundslab.pac_bayes import (
        PacBayesQuery,
        alternating_minimize,
        pb_kl_bound,
    )

    f = Section("params", config.params)
    m = f.read("m", int, "20", at_least(1), _cap("the params.m x n loss table"))
    n_grid = f.read("n_grid", [int], "100, 200, 400, 800",
                    (lambda ns: min(ns) >= 1, "integers >= 1"),
                    _cap("a repetition's draw of params.m x sum(params.n_grid) "
                         "loss cells", m, "params.m", many=sum))
    f.close()
    _read_reps(config, m * sum(n_grid), "params.m x sum(params.n_grid)")
    pi = ProbVec([1.0 / m] * m)

    def at_n(rng, n):
        table = _synthetic_table(rng, m, n)
        return (alternating_minimize(pi, table, config.delta).bound,
                pb_kl_bound(PacBayesQuery(pi, pi, n, config.delta),
                            float(table.emp_losses().mean())).value)

    def one_rep(r):
        # one stream per repetition draws its tables in n_grid order
        env_seed, _ = repetition_seeds(config.seed, r)
        return zip(*map(partial(at_n, np.random.default_rng(env_seed)), n_grid))

    minimized, at_prior = zip(*map(one_rep, range(config.R)))
    return [aggregate("pb_lambda_minimized", minimized, t=n_grid),
            aggregate("pb_kl_at_prior", at_prior, t=n_grid)]


def _run_recursive(config: ExperimentConfig) -> list[AggregateTrace]:
    from boundslab.pac_bayes import alternating_minimize, recursive_pb

    f = Section("params", config.params)
    table = "the params.m x params.n loss table"
    m = f.read("m", int, "20", at_least(1), _cap(table))
    # 8 * 2**(t_max - 1) bytes, one table row, stays below 2**63 to t_max = 60
    t_max = f.read("t_max", int, "4", at_least(1), (
        lambda t: t <= 60, "<= 60, as a table row of n >= 2**(params.t_max "
        "- 1) float64 losses passes numpy's 2**63-byte array limit above it"))
    n = f.read("n", int, "1000", (lambda n: n >= 2 ** (t_max - 1), f">= 2**("
               f"params.t_max - 1) = {2 ** (t_max - 1)} for params.t_max = "
               f"{t_max}"), _cap(table, m, "params.m"))
    f.close()
    _read_reps(config, m * n, "params.m x params.n")
    pi = ProbVec([1.0 / m] * m)
    stages = list(range(1, t_max + 1))

    def one_rep(r):
        env_seed, _ = repetition_seeds(config.seed, r)
        table = _synthetic_table(np.random.default_rng(env_seed), m, n)
        recursive = [recursive_pb(table, config.delta, T, seed=env_seed)[-1].value
                     for T in stages]
        baseline = alternating_minimize(pi, table, config.delta).bound
        return recursive, [baseline] * t_max

    recursive, baseline = zip(*map(one_rep, range(config.R)))
    return [aggregate("recursive_pb", recursive, t=stages),
            aggregate("pb_lambda_full_sample", baseline, t=stages)]


def _run_replay(config: ExperimentConfig) -> list[AggregateTrace]:
    experiment = Section("experiment", config.texts)
    experiment.read("T", int, None, _cap(f"a log of experiment.T records of "
                    f"{LOG_FIELDS} values", LOG_FIELDS, str(LOG_FIELDS)))
    experiment.read("R", int, None, _cap(SERIES, config.T, "experiment.T"))
    f = Section("params", config.params)
    means = f.read("means", [float], "0.3, 0.7", _UNITS, _ARMS)
    K = len(means)
    fixed_arm = f.read("fixed_arm", int, "0", (lambda arm: 0 <= arm < K,
                                               f"in [0, {K})"))
    f.close()

    def one_rep(r):
        env_seed, rng = repetition_seeds(config.seed, r)
        log = synthesize_uniform_log(means, config.T, env_seed)
        iw = replay_importance_weighted(
            FixedPolicy(K, arm=fixed_arm), log, K, rng)
        running = np.cumsum(iw.payoffs) / np.arange(1, config.T + 1)
        rs = replay_rejection_sampling(
            UCB1Policy(K, parametrization="improved"), log, K, rng)
        rs_running = (np.cumsum(rs.payoffs) / np.arange(1, len(rs) + 1)
                      if len(rs) else np.zeros(0))
        return running, rs_running

    iw_runs, rs_runs = zip(*map(one_rep, range(config.R)))
    horizons = list(map(len, rs_runs))
    horizon = min(horizons)
    rs = aggregate("rs_mean_reward", [run[:horizon] for run in rs_runs])
    if horizon < max(horizons):
        rs.note = (f"rs_mean_reward: every repetition cut to {horizon} "
                   f"rounds, the shortest rejection-sampling horizon "
                   f"(repetition {horizons.index(horizon)})")
    return [aggregate("iw_value_estimate", iw_runs), rs]


_RUNNERS = {
    "game": _run_game,
    "bounds": _run_bounds,
    "pacbayes": _run_pacbayes,
    "recursive": _run_recursive,
    "replay": _run_replay,
}


def run_experiment(config: ExperimentConfig) -> list[AggregateTrace]:
    """Run the experiment and return its aggregated traces (series order is
    deterministic).  Each kind reads and checks every field it uses before
    it computes anything; a field error names its source line or option."""
    try:
        return _RUNNERS[config.kind](config)
    except ConfigError as exc:
        exc.name_source(config.sources)
        raise

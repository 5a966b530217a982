"""Seeded experiment runner.

Each repetition r of an experiment derives an independent stream from the
master seed via ``SeedSequence(master, spawn_key=(r,))``; repetitions are
aggregated (mean, population std) in repetition-index order, so the output
is a pure function of the configuration.  A bandit series is one policy of
R rows, whose repetitions ``play_bandit`` plays together; everything else
runs one repetition after another.
"""
from __future__ import annotations

import copy
import math

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
from boundslab.lab.config import (
    ConfigError,
    ExperimentConfig,
    _convert,
    parse_float_list,
    parse_int_list,
)
from boundslab.lab.csvio import AggregateTrace, aggregate
from boundslab.online_policies import (
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


_POLICY_KEYS = {
    "hedge": {"variant", "eta", "doubling"},
    "ftl": set(),
    "exp3": {"variant", "eta", "fixed_horizon"},
    "ucb1": {"parametrization"},
    "epsilon_first": {"gap"},
}


def _build_policy(label: str, spec: dict, K: int, T: int, R: int):
    """(policy, feedback mode) of one config policy: a bandit policy holds
    the R repetitions as rows, a full-information one plays a single game."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _POLICY_KEYS:
        raise ConfigError(f"policy {label}: unknown kind {kind!r}",
                          f"policy {label}.kind")
    unknown = set(spec) - _POLICY_KEYS[kind]
    if unknown:
        raise ConfigError(f"policy {label}: unknown keys {sorted(unknown)}")

    def parse(key, to, default=None):
        raw = spec.get(key, default)
        return None if raw is None else _convert(raw, to, f"policy {label}.{key}")

    try:
        if kind == "hedge":
            return HedgePolicy(
                K,
                variant=spec.get("variant", "anytime_tight"),
                eta=parse("eta", float),
                T=T,
                doubling=parse("doubling", bool, "false"),
            ), "full"
        if kind == "ftl":
            return FTLPolicy(K), "full"
        if kind == "exp3":
            return EXP3Policy(
                K,
                variant=spec.get("variant", "losses"),
                eta=parse("eta", float),
                T=T if parse("fixed_horizon", bool, "false") else None,
                R=R,
            ), "bandit"
        if kind == "ucb1":
            return UCB1Batch(
                K, parametrization=spec.get("parametrization", "original"), R=R
            ), "bandit"
        if "gap" not in spec:
            raise ConfigError(f"policy {label}: epsilon_first needs 'gap'")
        return EpsilonFirstPolicy(T, parse("gap", float), R), "bandit"
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"policy {label}: {exc}") from exc


def _game_envs(config: ExperimentConfig):
    """Expand the environment spec into (suffix, K, env factory, regret fn)
    tuples; the factory maps an environment seed to a playable env."""
    env = dict(config.environment)
    kind = env.pop("kind", None)
    T = config.T
    out = []
    if kind == "bernoulli":
        means = parse_float_list(env.pop("means", ""), "environment.means")
        if not means:
            raise ConfigError("environment.means: required for bernoulli",
                              "environment.means")
        out.append(("", len(means),
                    lambda seed, m=tuple(means): BernoulliEnv(m, seed),
                    lambda trans, m=np.asarray(means): pseudo_regret(trans.arms, m)))
    elif kind == "bernoulli_gap":
        # a single K may be given as "k"; errors name the key the file used
        path = "environment.k_grid" if "k_grid" in env else "environment.k"
        k_grid = parse_int_list(env.pop("k_grid", env.pop("k", "2")), path)
        gap = _convert(env.pop("gap", "0.25"), float, "environment.gap")
        base = _convert(env.pop("base", "0.5"), float, "environment.base")
        for k in k_grid:
            if k < 2:
                raise ConfigError(f"{path}: each K must be >= 2", path)
            means = tuple([base - gap] + [base] * (k - 1))
            suffix = f"[K={k}]" if len(k_grid) > 1 else ""
            out.append((suffix, k,
                        lambda seed, m=means: BernoulliEnv(m, seed),
                        lambda trans, m=np.asarray(means): pseudo_regret(trans.arms, m)))
    elif kind == "ftl_breaker":
        matrix = make_ftl_breaker(T)
        out.append(("", 2, lambda seed, m=matrix: MatrixEnv(m),
                    lambda trans, m=matrix: hindsight_regret(m, trans.arms)))
    elif kind == "ucb_breaker":
        rewards, _ = make_ucb_breaker(
            T, _convert(env.pop("k", "2"), int, "environment.k"),
            parametrization=env.pop("parametrization", "improved"))
        losses = 1.0 - rewards
        out.append(("", losses.shape[1], lambda seed, m=losses: MatrixEnv(m),
                    lambda trans, m=losses: hindsight_regret(m, trans.arms)))
    else:
        raise ConfigError(f"environment.kind: unknown kind {kind!r}",
                          "environment.kind")
    env.pop("feedback", None)  # informative only; the policy fixes the mode
    if env:
        raise ConfigError(f"environment: unknown keys {sorted(env)}")
    return out


def _run_game(config: ExperimentConfig) -> list[AggregateTrace]:
    traces = []
    for suffix, K, env_factory, regret_fn in _game_envs(config):
        for label, spec in config.policies:
            env_seeds, rngs = zip(*[repetition_seeds(config.seed, r)
                                    for r in range(config.R)])
            envs = [env_factory(env_seed) for env_seed in env_seeds]
            policy, mode = _build_policy(label, spec, K, config.T, config.R)
            if mode == "bandit":
                runs = [regret_fn(game) for game
                        in play_bandit(policy, envs, config.T, rngs)]
            else:  # a fresh copy of the policy per repetition
                runs = [regret_fn(play_full_information(
                            copy.deepcopy(policy), env, config.T, rng))
                        for env, rng in zip(envs, rngs)]
            traces.append(aggregate(label + suffix, runs))
    return traces


def _bounds_params(config: ExperimentConfig):
    params = dict(config.params)
    family = params.pop("family", "four_bounds")
    n = _convert(params.pop("n", "1000"), int, "params.n")
    grid = _convert(params.pop("grid", "101"), int, "params.grid")
    if params:
        raise ConfigError(f"params: unknown keys {sorted(params)}")
    if n < 2 or grid < 2:
        raise ConfigError("params: need n >= 2 and grid >= 2")
    return family, n, grid


def _run_bounds(config: ExperimentConfig) -> list[AggregateTrace]:
    family, n, grid = _bounds_params(config)
    delta = config.delta
    t = np.arange(grid)
    xs = t / (grid - 1)

    def flat(name, values):
        return AggregateTrace(name, t, np.asarray(values), np.zeros(grid))

    if family == "four_bounds":
        eps = math.log(1.0 / delta) / n
        hoeff, plain, refined, kl = [], [], [], []
        for p_hat in xs:
            hoeff.append(hoeffding_mean_bound(p_hat, n, delta).value)
            pl, ru, _ = pinsker_relaxations(p_hat, eps)
            plain.append(pl)
            refined.append(ru)
            kl.append(kl_mean_bound(p_hat, n, delta).value)
        return [flat("hoeffding", hoeff), flat("pinsker", plain),
                flat("refined_pinsker", refined), flat("kl", kl)]

    if family == "split_kl":
        # ternary sample on {0, 1/2, 1}: x is the fraction of 1/2-values,
        # the remainder split as evenly as possible between 0 and 1
        split_grid = SplitGrid([0.0, 0.5, 1.0])
        split_vals, kl_vals = [], []
        for frac in xs:
            n_half = round(frac * n)
            n_one = (n - n_half) // 2
            n_zero = n - n_half - n_one
            values = [0.0] * n_zero + [0.5] * n_half + [1.0] * n_one
            sample = Sample.unit(values)
            split_vals.append(split_kl_mean_bound(sample, split_grid, delta).value)
            kl_vals.append(kl_mean_bound(sample.mean, n, delta).value)
        return [flat("split_kl", split_vals), flat("kl", kl_vals)]

    if family == "unexpected_bernstein":
        kl_vals, emp, unexpected, hoeff = [], [], [], []
        for p_hat in xs:
            k = round(p_hat * n)
            sample = Sample.unit([1.0] * k + [0.0] * (n - k))
            kl_vals.append(kl_mean_bound(sample.mean, n, delta).value)
            emp.append(empirical_bernstein_mean_bound(sample, delta).value)
            unexpected.append(unexpected_bernstein_mean_bound(sample, delta).value)
            hoeff.append(hoeffding_mean_bound(sample.mean, n, delta).value)
        return [flat("kl", kl_vals), flat("empirical_bernstein", emp),
                flat("unexpected_bernstein", unexpected),
                flat("hoeffding", hoeff)]

    raise ConfigError(f"params.family: unknown family {family!r}",
                      "params.family")


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

    params = dict(config.params)
    m = _convert(params.pop("m", "20"), int, "params.m", minimum=1)
    n_grid = parse_int_list(params.pop("n_grid", "100,200,400,800"),
                            "params.n_grid")
    if not n_grid or min(n_grid) < 1:
        raise ConfigError(f"params.n_grid: need sample sizes >= 1, got {n_grid}",
                          "params.n_grid")
    if params:
        raise ConfigError(f"params: unknown keys {sorted(params)}")
    pi = ProbVec([1.0 / m] * m)

    def one_rep(r):
        env_seed, _ = repetition_seeds(config.seed, r)
        rng = np.random.default_rng(env_seed)
        minimized, at_prior = [], []
        for n in n_grid:
            table = _synthetic_table(rng, m, n)
            fit = alternating_minimize(pi, table, config.delta)
            minimized.append(fit.bound)
            q = PacBayesQuery(pi, pi, n, config.delta)
            at_prior.append(pb_kl_bound(q, float(table.emp_losses().mean())).value)
        return minimized, at_prior

    results = [one_rep(r) for r in range(config.R)]
    return [
        aggregate("pb_lambda_minimized", [r[0] for r in results], t=n_grid),
        aggregate("pb_kl_at_prior", [r[1] for r in results], t=n_grid),
    ]


def _run_recursive(config: ExperimentConfig) -> list[AggregateTrace]:
    from boundslab.pac_bayes import alternating_minimize, recursive_pb

    params = dict(config.params)
    m = _convert(params.pop("m", "20"), int, "params.m", minimum=1)
    n = _convert(params.pop("n", "1000"), int, "params.n")
    t_max = _convert(params.pop("t_max", "4"), int, "params.t_max",
                     minimum=1)
    if n < 2 ** (t_max - 1):
        raise ConfigError(f"params.n: must be >= 2**(params.t_max - 1) = "
                          f"{2 ** (t_max - 1)} for params.t_max = {t_max}, "
                          f"got {n}", "params.n")
    if params:
        raise ConfigError(f"params: unknown keys {sorted(params)}")
    pi = ProbVec([1.0 / m] * m)
    stages = list(range(1, t_max + 1))

    def one_rep(r):
        env_seed, _ = repetition_seeds(config.seed, r)
        rng = np.random.default_rng(env_seed)
        table = _synthetic_table(rng, m, n)
        recursive = [recursive_pb(table, config.delta, T, seed=env_seed)[-1].value
                     for T in stages]
        baseline = alternating_minimize(pi, table, config.delta).bound
        return recursive, [baseline] * t_max

    results = [one_rep(r) for r in range(config.R)]
    return [
        aggregate("recursive_pb", [r[0] for r in results], t=stages),
        aggregate("pb_lambda_full_sample", [r[1] for r in results], t=stages),
    ]


def _run_replay(config: ExperimentConfig) -> list[AggregateTrace]:
    params = dict(config.params)
    means = parse_float_list(params.pop("means", "0.3,0.7"), "params.means")
    fixed_arm = _convert(params.pop("fixed_arm", "0"), int, "params.fixed_arm")
    if params:
        raise ConfigError(f"params: unknown keys {sorted(params)}")
    K = len(means)
    if not 0 <= fixed_arm < K:
        raise ConfigError("params.fixed_arm: outside the action range",
                          "params.fixed_arm")

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

    results = [one_rep(r) for r in range(config.R)]
    horizon = min(len(r[1]) for r in results)
    return [
        aggregate("iw_value_estimate", [r[0] for r in results]),
        aggregate("rs_mean_reward", [r[1][:horizon] for r in results]),
    ]


_RUNNERS = {
    "game": _run_game,
    "bounds": _run_bounds,
    "pacbayes": _run_pacbayes,
    "recursive": _run_recursive,
    "replay": _run_replay,
}


def run_experiment(config: ExperimentConfig) -> list[AggregateTrace]:
    """Run the experiment and return its aggregated traces (series order is
    deterministic).  A field error names the field's source line."""
    try:
        return _RUNNERS[config.kind](config)
    except ConfigError as exc:
        exc.name_line(config.lines)
        raise

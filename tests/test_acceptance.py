"""End-to-end acceptance suite.

One test per reproducibility criterion; each prints a single PASS/FAIL line
(run pytest with -s to see them all) and enforces the stated numeric
tolerance and runtime budget.
"""
import math
import time

import numpy as np

from boundslab.concentration import (
    Sample,
    SplitGrid,
    hoeffding_radius,
    kl_mean_bound,
    kl_mgf_exact,
    split_kl_mean_bound,
)
from boundslab.divergences import ProbVec, kl_inverse, pinsker_relaxations
from boundslab.environments import (
    BernoulliEnv,
    MatrixEnv,
    hindsight_regret,
    make_ftl_breaker,
    play_bandit,
    play_full_information,
    pseudo_regret,
    replay_importance_weighted,
    replay_rejection_sampling,
    synthesize_uniform_log,
)
from boundslab.online_policies import (
    EXP3Policy,
    EXP4Policy,
    FTLPolicy,
    FixedPolicy,
    HedgePolicy,
    UCB1Batch,
    UCB1Policy,
)
from boundslab.pac_bayes import (
    LossTable,
    PacBayesQuery,
    alternating_minimize,
    mv_bound,
    pb_kl_bound,
)

from _coverage import coverage_threshold, draw_matrix, pb_validity_rates, violation_rates


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_bound_curves():
    start = time.perf_counter()
    n, delta = 1000, 0.01
    eps = math.log(1.0 / delta) / n
    radius = hoeffding_radius(n, delta, "one")
    hoeff_at_zero = radius
    kl_at_zero = kl_inverse(0.0, eps, "upper")
    values_ok = (abs(hoeff_at_zero - 0.047985) <= 1e-6
                 and abs(kl_at_zero - 0.0045946) <= 1e-6)
    # the exact inversion is at least as tight as every relaxation at all
    # 1001 grid points; the full strict chain holds at p_hat = 0
    ordering_ok = True
    for i in range(1001):
        p_hat = i / 1000
        kl = kl_inverse(p_hat, eps, "upper")
        plain, refined, _ = pinsker_relaxations(p_hat, eps)
        clipped_hoeffding = min(1.0, p_hat + radius)
        if not (kl <= refined + 1e-12 and kl <= plain + 1e-12
                and kl <= clipped_hoeffding + 1e-12):
            ordering_ok = False
            break
    _, refined_zero, _ = pinsker_relaxations(0.0, eps)
    chain_at_zero = kl_at_zero < refined_zero < min(
        pinsker_relaxations(0.0, eps)[0], hoeff_at_zero) + 1e-15
    elapsed = time.perf_counter() - start
    _report(1, "bound-curve reproduction",
            values_ok and ordering_ok and chain_at_zero and elapsed < 2.0,
            f"hoeffding(0)={hoeff_at_zero:.6f} kl(0)={kl_at_zero:.7f} "
            f"{elapsed:.2f}s")


def test_criterion_02_kl_mgf_sandwich():
    start = time.perf_counter()
    ok = True
    for n in range(1, 201):
        root = math.sqrt(n)
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            value = kl_mgf_exact(n, p)
            if not root <= value <= 2.0 * root:
                ok = False
    elapsed = time.perf_counter() - start
    _report(2, "kl-lemma sandwich sqrt(n) <= E[e^{n kl}] <= 2 sqrt(n)",
            ok and elapsed < 5.0, f"n in [1,200], {elapsed:.2f}s")


def test_criterion_03_split_kl_dominance():
    start = time.perf_counter()
    n, delta = 100, 0.05
    sample = Sample.unit([0.5] * n)
    split = split_kl_mean_bound(sample, SplitGrid([0.0, 0.5, 1.0]), delta)
    split_excess = split.value - 0.5
    kl_excess = kl_mean_bound(0.5, n, delta).value - 0.5
    ok = (abs(split_excess - 0.01811) <= 1e-4
          and abs(kl_excess - 0.121) <= 5e-3
          and split.value < kl_mean_bound(0.5, n, delta).value)
    elapsed = time.perf_counter() - start
    _report(3, "split-kl beats kl at zero empirical variance",
            ok and elapsed < 1.0,
            f"split={split_excess:.5f} kl={kl_excess:.4f} {elapsed:.2f}s")


def test_criterion_04_hedge_regret_bounds():
    start = time.perf_counter()
    T = 2000
    breaker = MatrixEnv(make_ftl_breaker(T))
    hedge_regrets, ftl_ok = [], True
    for rep in range(10):
        rng = np.random.default_rng(rep)
        trans = play_full_information(HedgePolicy(2), breaker, T, rng)
        hedge_regrets.append(trans.detail["final_regret"])
        ftl = play_full_information(FTLPolicy(2), breaker, T)
        ftl_ok = ftl_ok and ftl.detail["final_regret"] >= 900
    hedge_ok = float(np.mean(hedge_regrets)) <= math.sqrt(T * math.log(2))

    tight_eta = math.sqrt(8 * math.log(2) / T)
    tight_regrets = []
    for rep in range(100):
        env = BernoulliEnv([0.5, 0.5], seed=1000 + rep)
        rng = np.random.default_rng(2000 + rep)
        policy = HedgePolicy(2, variant="tight", T=T, eta=tight_eta)
        trans = play_full_information(policy, env, T, rng)
        tight_regrets.append(trans.detail["final_regret"])
    tight_regrets = np.asarray(tight_regrets)
    tight_bound = math.sqrt(0.5 * T * math.log(2)) \
        + 3 * tight_regrets.std() / 10.0
    tight_ok = tight_regrets.mean() <= tight_bound
    elapsed = time.perf_counter() - start
    _report(4, "Hedge within theorem bounds, FTL broken",
            hedge_ok and ftl_ok and tight_ok and elapsed < 5.0,
            f"hedge={np.mean(hedge_regrets):.1f}<=37.2 "
            f"tight={tight_regrets.mean():.1f}<={tight_bound:.1f} "
            f"{elapsed:.2f}s")


def test_criterion_05_ucb1_theorem_bounds():
    start = time.perf_counter()
    T, gap = 100000, 0.25
    means = [0.25, 0.5]  # losses; gap 0.25
    log_t = math.log(T)
    budgets = {
        "original": 6 * log_t / gap + (1 + math.pi ** 2 / 3) * gap,
        "improved": 4 * log_t / gap + (2 * log_t + 3) * gap,
    }
    assert abs(budgets["improved"] - 190.7) < 0.1
    results = {}
    for param in ("original", "improved"):
        games = play_bandit(
            UCB1Batch(2, parametrization=param, R=20),
            [BernoulliEnv(means, seed=rep) for rep in range(20)], T)
        regrets = [pseudo_regret(trans.arms, means)[-1] for trans in games]
        results[param] = float(np.mean(regrets))
    ok = (results["original"] <= budgets["original"]
          and results["improved"] <= budgets["improved"]
          and results["improved"] <= results["original"])
    elapsed = time.perf_counter() - start
    _report(5, "UCB1 pseudo-regret within theorem bounds",
            ok and elapsed < 30.0,
            f"orig={results['original']:.1f}<={budgets['original']:.1f} "
            f"impr={results['improved']:.1f}<={budgets['improved']:.1f} "
            f"{elapsed:.1f}s")


def test_criterion_06_exp3_theorem_bound():
    start = time.perf_counter()
    T, gap = 10000, 0.125
    ok = True
    details = []
    for K in (2, 4):
        means = [0.5 - gap] + [0.5] * (K - 1)
        games = play_bandit(
            EXP3Policy(K, R=20),
            [BernoulliEnv(means, seed=100 * K + rep) for rep in range(20)], T,
            [np.random.default_rng(7000 + 100 * K + rep) for rep in range(20)])
        regrets = [pseudo_regret(trans.arms, means)[-1] for trans in games]
        bound = math.sqrt(2 * K * T * math.log(K))
        details.append(f"K={K}:{np.mean(regrets):.0f}<={bound:.0f}")
        ok = ok and float(np.mean(regrets)) <= bound
    elapsed = time.perf_counter() - start
    _report(6, "EXP3 pseudo-regret within theorem bound",
            ok and elapsed < 20.0, " ".join(details) + f" {elapsed:.1f}s")


def test_criterion_07_exp4_theorem_bound():
    start = time.perf_counter()
    T, K, N = 10000, 2, 4
    means = np.array([0.375, 0.5])
    advice_static = [
        (1.0, 0.0),  # constant-optimal expert
        (0.0, 1.0),
        (0.5, 0.5),
    ]
    regrets = []
    for rep in range(20):
        env = BernoulliEnv(means, seed=300 + rep)
        rng = np.random.default_rng(900 + rep)
        policy = EXP4Policy(N, K, T=T)
        incurred = 0.0
        expert_totals = np.zeros(N)
        for t in range(T):
            alternating = (1.0, 0.0) if t % 2 == 0 else (0.0, 1.0)
            advice = [*advice_static, alternating]
            arm = policy.act(advice, rng)
            row = env.row(t)
            incurred += row[arm]
            policy.update(arm, row[arm])
            for h in range(N):
                expert_totals[h] += advice[h][0] * row[0] + advice[h][1] * row[1]
        regrets.append(incurred - expert_totals.min())
    bound = math.sqrt(2 * K * T * math.log(N))
    mean_regret = float(np.mean(regrets))
    elapsed = time.perf_counter() - start
    _report(7, "EXP4 regret vs best expert within theorem bound",
            mean_regret <= bound and elapsed < 20.0,
            f"{mean_regret:.0f}<={bound:.0f} {elapsed:.1f}s")


def test_criterion_08_pac_bayes_minimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    m, n, delta = 50, 500, 0.05
    pi = ProbVec([1.0 / m] * m)
    ln_term = math.log(2.0 * math.sqrt(n) / delta)
    ok = True
    for _ in range(200):
        table = LossTable((rng.random((m, n)) < rng.uniform(0.1, 0.9, (m, 1))
                           ).astype(float))
        fit = alternating_minimize(pi, table, delta)
        trace = np.asarray(fit.trace)
        if np.any(np.diff(trace) > 1e-12):
            ok = False
        if not 0.0 < fit.lam <= 1.0:
            ok = False
        q0 = PacBayesQuery(pi, pi, n, delta)
        at_prior = pb_kl_bound(q0, float(table.emp_losses().mean())).value
        if fit.bound > at_prior + 1e-12:
            ok = False
        # closed-form updates beat random perturbations of (rho, lambda)
        emp = table.emp_losses()

        def objective(weights, lam):
            w = np.asarray(weights)
            gibbs = float(w @ emp)
            kl = float(np.sum(w[w > 0] * np.log(w[w > 0] * m)))
            return gibbs / (1 - lam / 2) \
                + (kl + ln_term) / (lam * (1 - lam / 2) * n)

        base = objective(fit.rho.weights, fit.lam)
        for _ in range(100):
            w = 0.9 * np.asarray(fit.rho.weights) + 0.1 * rng.dirichlet(np.ones(m))
            lam = min(1.0, max(1e-4, fit.lam + rng.uniform(-0.05, 0.05)))
            if objective(w / w.sum(), lam) < base - 1e-9:
                ok = False
    elapsed = time.perf_counter() - start
    _report(8, "alternating minimization is a descent to a local optimum",
            ok and elapsed < 10.0, f"200 tables, {elapsed:.1f}s")


def test_criterion_09_bound_validity_monte_carlo():
    start = time.perf_counter()
    delta, M, n = 0.05, 10000, 100
    threshold = coverage_threshold(delta, M)
    ok = True
    details = []
    rng = np.random.default_rng(777)
    data, true_mean = draw_matrix(rng, "bernoulli03", M, n)
    for name, rate in violation_rates(data, true_mean, delta).items():
        details.append(f"{name}={rate:.4f}")
        ok = ok and rate <= threshold
    pb_rates = pb_validity_rates(trials=500, delta=delta, seed=31)
    pb_threshold = coverage_threshold(delta, 500)
    for name, rate in pb_rates.items():
        details.append(f"{name}={rate:.4f}")
        ok = ok and rate <= pb_threshold
    elapsed = time.perf_counter() - start
    _report(9, "Monte-Carlo coverage of all bounds",
            ok and elapsed < 60.0,
            f"thresholds {threshold:.4f}/{pb_threshold:.4f}; "
            + " ".join(details) + f" {elapsed:.1f}s")


def test_criterion_10_offline_replay_fidelity():
    start = time.perf_counter()
    K, T = 16, 100000
    means = [0.1 + 0.05 * a for a in range(K)]

    records = synthesize_uniform_log(means, T, seed=404)
    iw = replay_importance_weighted(FixedPolicy(K, arm=7), records, K)
    se = float(np.std(iw.payoffs)) / math.sqrt(T)
    iw_ok = abs(iw.detail["estimated_value"] - means[7]) <= 3 * se

    horizon_expected = T / K
    horizon_se = math.sqrt(T * (1 / K) * (1 - 1 / K))
    replayed, live, horizons = [], [], []
    for rep in range(20):
        log = synthesize_uniform_log(means, T // 10, seed=600 + rep)
        trans = replay_rejection_sampling(
            UCB1Policy(K, parametrization="improved"), log, K)
        replayed.append(trans.payoffs.mean())
        horizons.append(trans.detail["effective_horizon"])
        rng = np.random.default_rng(800 + rep)
        policy = UCB1Policy(K, parametrization="improved")
        rewards = []
        for t in range(trans.detail["effective_horizon"]):
            arm = policy.act()
            reward = float(rng.random() < means[arm])
            policy.update_reward(arm, reward)
            rewards.append(reward)
        live.append(np.mean(rewards))
    # the horizon check runs on the full-length log
    full = replay_rejection_sampling(
        UCB1Policy(K, parametrization="improved"), records, K)
    horizon_ok = abs(full.detail["effective_horizon"] - horizon_expected) \
        <= 3 * horizon_se
    replayed, live = np.asarray(replayed), np.asarray(live)
    pair_se = math.sqrt(replayed.var() / 20 + live.var() / 20)
    rs_ok = abs(replayed.mean() - live.mean()) <= 3 * pair_se
    elapsed = time.perf_counter() - start
    _report(10, "offline replay fidelity (IW value, RS vs live, horizon)",
            iw_ok and rs_ok and horizon_ok and elapsed < 20.0,
            f"iw_err={abs(iw.detail['estimated_value'] - means[7]):.4f} "
            f"rs_gap={abs(replayed.mean() - live.mean()):.4f} "
            f"horizon={full.detail['effective_horizon']} {elapsed:.1f}s")


def test_criterion_11_tandem_identity_and_disjoint_errors():
    start = time.perf_counter()
    # four hypotheses erring on four disjoint quarters of the sample
    m, n = 4, 64
    losses = np.zeros((m, n))
    for h in range(m):
        losses[h, h * (n // m):(h + 1) * (n // m)] = 1.0
    labels = np.ones(n)
    predictions = np.where(losses == 1.0, -labels, labels)
    table = LossTable(losses, predictions=predictions)
    rho = ProbVec([0.25] * 4)
    q = PacBayesQuery(rho, ProbVec([0.25] * 4), n, 0.05)
    first_order = 2.0 * float(np.asarray(rho.weights) @ table.emp_losses())
    tandem = table.tandem_losses()
    w = np.asarray(rho.weights)
    second_order = 4.0 * float(w @ tandem @ w)
    oracle_ok = first_order == 0.5 and second_order == 0.25

    # loss-disagreement identity on random binary tables:
    # E_{rho^2}[tandem] = E_rho[L] - (1/2) E_{rho^2}[disagreement]
    rng = np.random.default_rng(55)
    identity_ok = True
    for _ in range(1000):
        m_r, n_r = 5, 20
        labels = rng.choice([-1.0, 1.0], size=n_r)
        preds = rng.choice([-1.0, 1.0], size=(m_r, n_r))
        errs = (preds != labels).astype(float)
        t_r = LossTable(errs, predictions=preds)
        w_r = rng.dirichlet(np.ones(m_r))
        lhs = w_r @ t_r.tandem_losses() @ w_r
        rhs = w_r @ t_r.emp_losses() - 0.5 * (w_r @ t_r.disagreements() @ w_r)
        if abs(lhs - rhs) > 1e-12:
            identity_ok = False
    elapsed = time.perf_counter() - start
    _report(11, "tandem decomposition identity and disjoint-error oracles",
            oracle_ok and identity_ok,
            f"first={first_order} second={second_order} {elapsed:.1f}s")


def test_criterion_12_documented_exclusions():
    # external real-data experiments (license-gated datasets) are excluded
    # and replaced by the synthetic analogues exercised in criteria 8-10;
    # asymptotic lower-bound limits are theory with nothing to execute
    synthetic_analogues = (
        test_criterion_08_pac_bayes_minimizer,
        test_criterion_09_bound_validity_monte_carlo,
        test_criterion_10_offline_replay_fidelity,
    )
    _report(12, "excluded external-data experiments have synthetic analogues",
            all(callable(fn) for fn in synthetic_analogues),
            "real-data benchmarks out of scope by design")

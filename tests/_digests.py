"""The full-precision values behind the pinned digests of the numeric core,
computed from the library alone.

The digest tests of ``test_divergences.py``, ``test_concentration.py`` and
``test_pac_bayes.py`` assert ``PINNED`` in the test process; the
cross-dispatch gate (``test_dispatch.py``) recomputes the same values in
child processes that import only numpy and the library, under other SIMD
and BLAS settings, with ``dispatch_digests``.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from boundslab.concentration import (
    Sample,
    SplitGrid,
    split_kl_mean_bound,
    unexpected_bernstein_mean_bound,
)
from boundslab.divergences import binary_kl, categorical_kl, kl_inverse
from boundslab.pac_bayes import LossTable, recursive_pb


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


def numeric_core_values() -> list[float]:
    """kl_inverse on the p_hat x eps grid, binary_kl on the p x q grid with
    its edges, and categorical_kl."""
    values = [kl_inverse(p, eps) for p in DIGEST_P for eps in DIGEST_EPS]
    values += [binary_kl(p, q) for p in DIGEST_P for q in DIGEST_P]
    values += [categorical_kl(rho, pi) for rho, pi in categorical_cases()]
    return values


def unexpected_bernstein_values() -> list[float]:
    """Value, chosen lambda and grid size on fractional and {0, 1} samples
    over a grid of n and delta, down to the smallest delta."""
    rng = np.random.default_rng(36)
    values = []
    for n in (2, 5, 30, 100, 1000, 10000):
        draws = rng.random(n)
        for sample in (Sample(draws), Sample(draws < 0.3)):
            for delta in (0.5, 0.05, 1e-3, 1e-12, 1e-300, 5e-324):
                res = unexpected_bernstein_mean_bound(sample, delta)
                values += [res.value, res.detail["lambda"],
                           float(res.detail["k"])]
    return values


def split_kl_values() -> list[float]:
    """Sample.mean/mean_sq and split_kl_mean_bound's value, budget and
    segment means at K = 2, 8, 32, 64."""
    values = []
    for sample in digest_samples():
        values += [sample.mean, sample.mean_sq]
        for K in (2, 8, 32, 64):
            grid = SplitGrid([j / K for j in range(K + 1)])
            res = split_kl_mean_bound(sample, grid, 0.05)
            values += [res.value, res.detail["eps"],
                       *res.detail["segment_means"]]
    return values


def stage_values() -> list[float]:
    """Every ``recursive_pb`` stage's value and every later stage's excess
    bound, on {0, 1} and fractional tables, m = 1, 3, 8 and T = 1..4."""
    rng = np.random.default_rng(35)
    values = []
    for fractional, m in itertools.product((False, True), (1, 3, 8)):
        losses = rng.random((m, 48))
        table = LossTable(losses if fractional else
                          (losses < 0.4).astype(float))
        for T in (1, 2, 3, 4):
            for res in recursive_pb(table, 0.05, T, seed=7):
                stage = res.detail["stage"]
                values.append(res.value)
                if stage.t > 1:
                    values.append(stage.excess_bound)
    return values


def table_values() -> list[float]:
    """``tandem_losses`` and ``disagreements`` of a seeded 0/1 table of
    m = 6 hypotheses on 300 examples, each hypothesis wrong with
    probability 0.4, row by row."""
    rng = np.random.default_rng(11)
    labels = rng.choice([-1, 1], 300)
    predictions = np.where(rng.random((6, 300)) < 0.4, -labels, labels)
    table = LossTable((predictions != labels).astype(float), predictions)
    return [*table.tandem_losses().ravel().tolist(),
            *table.disagreements().ravel().tolist()]


# The SHA-256 of each value list, as the default build computes them.
PINNED = {
    # pinned before the bisection stopped going through the checked
    # binary_kl, with a lower inverse after each upper one, and re-pinned
    # without those lower values by the code that still computed both
    "numeric_core": "d597486c321e1b16cc8d934f7be6fba4"
                    "bd04d9eb37ddef838acc13daedb8231a",
    # pinned while the lambda grid was a class and a caller could pass its
    # own
    "unexpected_bernstein": "d8c9b127fd1189d069a44594b9fa0e2d"
                            "6a6f263758fc32f27bff8e943077aa7e",
    # pinned before the segment columns and the sample passes moved to
    # numpy and map
    "split_kl": "b5e75e1cf08ca84b810cad3d9ab92d9c"
                "9706b027ae29a16bbb83118597ac75af",
    # re-pinned when the rho-weighted means left ``np.dot`` for
    # ``math.fsum``, so the value no longer depends on the BLAS kernel
    "stages": "b6f577542e384e8f1ca9a52fa0194a6c"
              "7e0f080c99616732f51421bf367aa9c5",
}

VALUES = {
    "numeric_core": numeric_core_values,
    "unexpected_bernstein": unexpected_bernstein_values,
    "split_kl": split_kl_values,
    "stages": stage_values,
    "tables": table_values,
}


def preset_csv_digest(name: str) -> str:
    """SHA-256 of the CSV that ``lab run <name>`` writes."""
    from boundslab.lab.config import parse_config_lines
    from boundslab.lab.csvio import emit_csv
    from boundslab.lab.runner import run_experiment

    preset = resources.files("boundslab.lab.presets") / f"{name}.cfg"
    config = parse_config_lines(preset.read_text(encoding="utf-8").splitlines())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.csv"
        emit_csv(run_experiment(config), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def dispatch_digests() -> dict[str, str]:
    """Every digest the cross-dispatch gate compares: each value list's, and
    the ``hedge_vs_ftl`` CSV's as ``hedge_vs_ftl.csv``."""
    digests = {name: hex_digest(values()) for name, values in VALUES.items()}
    digests["hedge_vs_ftl.csv"] = preset_csv_digest("hedge_vs_ftl")
    return digests

"""``lab`` command-line interface.

Subcommands: ``run`` (execute a config file or shipped preset), ``bounds-
compare`` (the ``bounds_compare`` preset, with options for its n, delta and
grid), ``replay`` (offline log replay) and ``selftest``.  Exit codes: 0
success, 2 configuration error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

from boundslab.lab.config import (
    SEED,
    ConfigError,
    ExperimentConfig,
    _convert,
    parse_config,
    parse_config_lines,
)
from boundslab.lab.csvio import emit_csv
from boundslab.lab.runner import run_experiment
from boundslab.lab.svgplot import render_plot

PRESET_PACKAGE = "boundslab.lab.presets"


def preset_names() -> list[str]:
    files = resources.files(PRESET_PACKAGE)
    return sorted(p.name[:-4] for p in files.iterdir() if p.name.endswith(".cfg"))


def resolve_config(spec: str) -> Path:
    """A config argument is a file path or the name of a shipped preset."""
    path = Path(spec)
    if path.exists():
        return path
    candidate = resources.files(PRESET_PACKAGE) / f"{spec}.cfg"
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(
        f"no config file {spec!r}; shipped presets: {', '.join(preset_names())}")


def _make_out_dir(config: ExperimentConfig) -> Path:
    """Make ``experiment.out``, or use the working directory, before the
    experiment runs: a path that cannot be a directory is a config error
    naming the field's line or ``--out``."""
    out = config.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        error = ConfigError(f"experiment.out: must be a directory that can be "
                            f"made ({exc.strerror or exc}), got {out!r}",
                            "experiment.out")
        error.name_source(config.sources)
        raise error from exc
    return Path(out)


def _write_outputs(config: ExperimentConfig, traces, out_dir: Path,
                   plot: bool) -> list[Path]:
    """Write ``<name>.csv``, and with ``plot`` ``<name>.svg``, to
    ``out_dir``; return their paths."""
    paths = [out_dir / f"{config.name}.csv"]
    emit_csv(traces, paths[0])
    if plot:
        paths.append(out_dir / f"{config.name}.svg")
        render_plot(traces, paths[1], title=config.name)
    return paths


def pin_mismatches(out_dir: Path, preset: str) -> list[str]:
    """The artifacts (``csv``, ``svg``) of a shipped preset, written to
    ``out_dir`` as ``lab run <preset> --plot`` writes them, whose SHA-256
    differs from the preset's entry in the shipped ``pins.json``."""
    pins = json.loads((resources.files(PRESET_PACKAGE) / "pins.json")
                      .read_text(encoding="utf-8"))
    return [artifact for artifact, digest in pins[preset].items()
            if hashlib.sha256((out_dir / f"{preset}.{artifact}").read_bytes())
            .hexdigest() != digest]


def _cmd_run(args) -> int:
    # a config that cannot be read is bad input, as a ``--log`` file is; a
    # ConfigError is a ValueError, so only these two are caught
    try:
        config = parse_config(resolve_config(args.config), {
            "experiment.seed": (args.seed, "--seed"),
            "experiment.R": (args.reps, "--reps"),
            "experiment.out": (args.out, "--out")})
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {args.config!r}: {exc}") from exc
    out_dir = _make_out_dir(config)
    traces = run_experiment(config)
    for trace in traces:
        if trace.note:
            print(f"note: {trace.note}", file=sys.stderr)
    for path in _write_outputs(config, traces, out_dir, args.plot):
        print(f"wrote {path}")
    return 0


def _cmd_bounds_compare(args) -> int:
    preset = resources.files(PRESET_PACKAGE) / "bounds_compare.cfg"
    config = parse_config_lines(
        preset.read_text(encoding="utf-8").splitlines(),
        {"experiment.delta": (args.delta, "--delta"),
         "params.n": (args.n, "--n"), "params.grid": (args.grid, "--grid"),
         "experiment.out": (args.out, "--out")})
    out_dir = _make_out_dir(config)
    traces = run_experiment(config)
    for path in _write_outputs(config, traces, out_dir, plot=True):
        print(f"wrote {path}")
    return 0


def _read_option(raw: str, kind, path: str, option: str, *rules):
    """An option's value, read and checked as the config field ``path``."""
    try:
        return _convert(raw, kind, path, *rules)
    except ConfigError as exc:
        exc.name_source({path: option})
        raise


def _replay_policy(spec: str, K: int, mode: str):
    """The ``--policy`` choice (ucb1 | exp3 | fixed:<arm>), read as the field
    ``replay.policy``, as a fresh policy; the arm is the field
    ``replay.arm``.  Under importance weighting a payoff can reach K, so UCB1
    widens its radius to that range."""
    from boundslab.online_policies import EXP3Policy, FixedPolicy, UCB1Policy

    if spec.startswith("fixed:"):
        return FixedPolicy(K, arm=_read_option(
            spec[len("fixed:"):], int, "replay.arm", "--policy",
            (lambda arm: 0 <= arm < K, f"in [0, {K})")))
    exp3_arms = (lambda kind: kind != "exp3" or K >= 2, f"ucb1 or fixed:<arm> "
                 f"for a log of K = {K} (exp3 takes >= 2 arms)")
    kind = _read_option(spec, ("ucb1", "exp3", "fixed:<arm>"),
                        "replay.policy", "--policy", exp3_arms)
    if kind == "ucb1":
        return UCB1Policy(K, parametrization="improved",
                          reward_range=K if mode == "iw" else 1.0)
    return EXP3Policy(K)


def _cmd_replay(args) -> int:
    from boundslab.environments import (
        parse_log,
        replay_importance_weighted,
        replay_rejection_sampling,
    )
    import numpy as np

    seed = _read_option(args.seed, int, "replay.seed", "--seed", SEED)
    # a log that cannot be read or parsed is bad input, named by its option
    try:
        with open(args.log, "r", encoding="ascii") as handle:
            K, log = parse_log(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--log: {exc}") from exc
    rng = np.random.default_rng(seed)
    policy = _replay_policy(args.policy, K, args.mode)
    if args.mode == "iw":
        trans = replay_importance_weighted(policy, log, K, rng)
        print(f"records={len(log)} K={K} "
              f"estimated_value={trans.detail['estimated_value']:.6g}")
    else:
        trans = replay_rejection_sampling(policy, log, K, rng)
        horizon = trans.detail["effective_horizon"]
        mean = float(trans.payoffs.mean()) if horizon else float("nan")
        print(f"records={len(log)} K={K} effective_horizon={horizon} "
              f"mean_reward={mean:.6g}")
    return 0


def _cmd_selftest(args) -> int:
    """Run every shipped preset from the package's own file, as ``lab run
    <preset> --plot`` runs it, and compare its CSV and SVG bytes with the
    shipped pins: one ``ok`` or ``FAIL`` line per preset."""
    import tempfile

    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in preset_names():
            preset = resources.files(PRESET_PACKAGE) / f"{name}.cfg"
            config = parse_config_lines(
                preset.read_text(encoding="utf-8").splitlines())
            _write_outputs(config, run_experiment(config), Path(tmp), True)
            differ = pin_mismatches(Path(tmp), name)
            if differ:
                failed.append(name)
            print(f"FAIL - {name}: {', '.join(differ)}" if differ
                  else f"ok - {name}")
    if failed:
        raise RuntimeError(f"selftest: bytes differ from the shipped pins "
                           f"for {', '.join(failed)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Seeded experiment harness for bounds and bandit games.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file or shipped preset")
    p_run.add_argument("config", help="config path or preset name "
                       f"({', '.join(preset_names()) or 'none shipped'})")
    p_run.add_argument("--out", default=None, help="sets experiment.out")
    p_run.add_argument("--seed", default=None, help="sets experiment.seed")
    p_run.add_argument("--reps", default=None, help="sets experiment.R")
    p_run.add_argument("--plot", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_bounds = sub.add_parser("bounds-compare",
                              help="emit the four mean-bound curves")
    p_bounds.add_argument("--n", default=None, help="sets params.n")
    p_bounds.add_argument("--delta", default=None, help="sets experiment.delta")
    p_bounds.add_argument("--grid", default=None, help="sets params.grid")
    p_bounds.add_argument("--out", default=".", help="sets experiment.out")
    p_bounds.set_defaults(fn=_cmd_bounds_compare)

    p_replay = sub.add_parser("replay", help="replay an offline bandit log")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--policy", required=True,
                          help="ucb1 | exp3 | fixed:<arm>")
    p_replay.add_argument("--mode", choices=("iw", "rs"), required=True)
    p_replay.add_argument("--seed", default="0", help="sets replay.seed")
    p_replay.set_defaults(fn=_cmd_replay)

    p_self = sub.add_parser(
        "selftest", help="check every preset's bytes against the shipped pins")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

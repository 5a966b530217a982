"""The benchmark's workloads: seeded inputs, one pass, and output checks.

A workload is a fixed list of operations.  An operation is one ``lab``
experiment (config text parsed by the library, run, then written as CSV and
SVG) or one direct library call (a split-kl sweep point, the offline-log round
trip behind ``lab replay``).  Every operation returns its outputs as
``{artifact: path or text}``; the pass hashes them after the clock stops.

Seeds: at ``DEFAULT_SEED`` every preset keeps the seed it ships with, so the
outputs are the bytes ``lab run <preset> --plot`` writes and can be checked
against ``pins.json``.  Any other seed replaces each preset's seed, the
split-kl sample and the replay log with values derived from it.
"""
from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from boundslab import concentration, environments, online_policies
from boundslab.lab import cli, config, csvio, runner, svgplot

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# The workloads and the presets each one runs, in pass order.
PRESETS = {
    "bandit": ["ucb_vs_exp3", "break_ucb"],
    "full_info": ["hedge_vs_ftl", "tight_hedge", "doubling", "break_ftl"],
    "bounds": ["bounds_compare", "split_kl_compare",
               "unexpected_bernstein_compare", "pacbayes_aggregate",
               "recursive_pb"],
    "replay": ["offline_replay"],
}
WORKLOADS = tuple(PRESETS)
ALL_PRESETS = tuple(p for names in PRESETS.values() for p in names)

SWEEP_N = 2000
SWEEP_KS = (2, 8, 32)
SWEEP_DELTA = 0.05
REPLAY_MEANS = (0.2, 0.5, 0.8, 0.35)
REPLAY_T = 20000


def derive_seed(seed: int, name: str) -> int:
    """A 64-bit seed for one named input, a pure function of (seed, name)."""
    digest = hashlib.sha256(f"boundslab-bench:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def config_lines(preset: str, seed: int) -> list[str]:
    """The preset's config text, with its seed replaced unless ``seed`` is the
    default.  Seed-free presets (the deterministic bound curves) get one;
    the runner ignores it for them."""
    path = cli.resolve_config(preset)
    lines = path.read_text(encoding="utf-8").splitlines()
    if seed == DEFAULT_SEED:
        return lines
    kept = [line for line in lines
            if line.partition("=")[0].strip() != "seed"]
    at = kept.index("[experiment]") + 1
    return kept[:at] + [f"seed = {derive_seed(seed, preset)}"] + kept[at:]


@dataclass
class Operation:
    name: str
    run: Callable[[Path], dict]


def _experiment(preset: str, lines: list[str]) -> Operation:
    def run(out_dir: Path) -> dict:
        cfg = config.parse_config_lines(lines)
        traces = runner.run_experiment(cfg)
        csv_path = out_dir / f"{cfg.name}.csv"
        svg_path = out_dir / f"{cfg.name}.svg"
        csvio.emit_csv(traces, csv_path)
        svgplot.render_plot(traces, svg_path, title=cfg.name)
        return {"csv": csv_path, "svg": svg_path}
    return Operation(preset, run)


def _sweep_point(K: int, values: list[float]) -> Operation:
    grid_points = [j / K for j in range(K + 1)]

    def run(out_dir: Path) -> dict:
        sample = concentration.Sample.unit(values)
        grid = concentration.SplitGrid(grid_points)
        bound = concentration.split_kl_mean_bound(sample, grid, SWEEP_DELTA)
        return {"value": bound.value.hex()}
    return Operation(f"split_kl_sweep[K={K}]", run)


def _replay_round_trip(log_seed: int, replay_seed: int) -> Operation:
    """synthesize -> write_log -> parse_log -> IW and RS replay with UCB1,
    the path ``lab replay --policy ucb1`` takes for each mode."""
    K = len(REPLAY_MEANS)

    def run(out_dir: Path) -> dict:
        log_path = out_dir / "replay_round_trip.log"
        records = environments.synthesize_uniform_log(REPLAY_MEANS, REPLAY_T,
                                                      log_seed)
        environments.write_log(log_path, K, records)
        with open(log_path, "r", encoding="ascii") as handle:
            K_read, parsed = environments.parse_log(handle)
        iw = environments.replay_importance_weighted(
            online_policies.UCB1Policy(K_read, parametrization="improved",
                                       reward_range=K_read),
            parsed, K_read, np.random.default_rng(replay_seed))
        rs = environments.replay_rejection_sampling(
            online_policies.UCB1Policy(K_read, parametrization="improved"),
            parsed, K_read, np.random.default_rng(replay_seed))
        summary = (f"iw={iw.detail['estimated_value'].hex()} "
                   f"rs_horizon={rs.detail['effective_horizon']} "
                   f"rs_sum={float(rs.payoffs.sum()).hex()}")
        return {"log": log_path, "values": summary}
    return Operation("replay_round_trip", run)


def sweep_sample(seed: int) -> list[float]:
    rng = np.random.default_rng(derive_seed(seed, "split_kl_sweep"))
    return [float(v) for v in rng.random(SWEEP_N)]


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass; all inputs are generated here, up front."""
    if workload not in PRESETS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    ops = [_experiment(p, config_lines(p, seed)) for p in PRESETS[workload]]
    if workload == "bounds":
        values = sweep_sample(seed)
        ops += [_sweep_point(K, values) for K in SWEEP_KS]
    if workload == "replay":
        ops.append(_replay_round_trip(derive_seed(seed, "replay_log"),
                                      derive_seed(seed, "replay_policy")))
    return ops


def parse_configs(workload: str, seed: int) -> list:
    """Parse the workload's configs, as the first step of a pass does."""
    return [config.parse_config_lines(config_lines(p, seed))
            for p in PRESETS[workload]]


def digest(outputs: dict) -> dict:
    """SHA-256 of every artifact: file bytes for paths, UTF-8 for text."""
    out = {}
    for key, item in outputs.items():
        data = item.read_bytes() if isinstance(item, Path) else item.encode()
        out[key] = hashlib.sha256(data).hexdigest()
    return out


def output_bytes(outputs: dict, suffix: str) -> int:
    return sum(item.stat().st_size for item in outputs.values()
               if isinstance(item, Path) and item.suffix == suffix)


def load_pins(workload: str) -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)[workload]


@dataclass
class PassResult:
    intervals: list     # (start, end) clock reading of each operation
    hashes: dict        # operation -> {artifact: sha256}
    failures: dict      # operation -> reason
    csv_bytes: int
    svg_bytes: int

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


def run_pass(ops: list[Operation], out_dir: Path, tracer=None) -> PassResult:
    """Run every operation once.  Only the operations are timed; hashing is
    done after the clock stops.  An operation that raises is recorded as a
    failure and the pass goes on."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, failures, intervals = {}, {}, []
    for op in ops:
        if tracer is not None:
            tracer.begin_operation(op.name)
        start = time.perf_counter()
        try:
            outputs[op.name] = op.run(out_dir)
        except Exception as exc:  # one failed operation must not stop the pass
            failures[op.name] = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc()
        intervals.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.end_operation()
    hashes = {name: digest(out) for name, out in outputs.items()}
    csv_bytes = sum(output_bytes(out, ".csv") for out in outputs.values())
    svg_bytes = sum(output_bytes(out, ".svg") for out in outputs.values())
    return PassResult(intervals, hashes, failures, csv_bytes, svg_bytes)


def check(result: PassResult, reference: dict) -> dict:
    """Operations whose outputs differ from the reference hashes, merged
    with the ones that raised: {operation: reason}."""
    failures = dict(result.failures)
    for name, expected in reference.items():
        if name in failures:
            continue
        got = result.hashes.get(name)
        if got is None:
            failures[name] = "no output"
        elif got != expected:
            changed = sorted(k for k in expected if got.get(k) != expected[k])
            failures[name] = f"hash mismatch: {', '.join(changed)}"
    return failures

"""Tests of the benchmark itself: byte pins, seeding, tracing and clean-up.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
They use the cheap operations of each workload, so they take seconds.
"""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracer as tracing
import workloads
from boundslab.lab import cli, csvio

BENCH = Path(__file__).resolve().parent.parent
CHEAP = ("hedge_vs_ftl", "break_ftl", "split_kl_compare",
         "split_kl_sweep[K=2]", "replay_round_trip")


def cheap_ops(seed):
    return [op for w in workloads.WORKLOADS for op in workloads.build(w, seed)
            if op.name in CHEAP]


def all_pins():
    return {op: h for w in workloads.WORKLOADS
            for op, h in workloads.load_pins(w).items()}


def test_pins_are_the_bytes_lab_run_writes(tmp_path):
    pins = all_pins()
    for preset in ("hedge_vs_ftl", "break_ftl", "split_kl_compare",
                   "bounds_compare", "recursive_pb"):
        assert cli.main(["run", preset, "--out", str(tmp_path), "--plot"]) == 0
        written = {"csv": tmp_path / f"{preset}.csv",
                   "svg": tmp_path / f"{preset}.svg"}
        assert workloads.digest(written) == pins[preset]


def test_default_seed_pass_matches_pins(tmp_path):
    result = workloads.run_pass(cheap_ops(0), tmp_path)
    pins = all_pins()
    assert workloads.check(result, {op: pins[op] for op in CHEAP}) == {}


def test_one_byte_change_makes_error_rate_positive(tmp_path, monkeypatch):
    original = csvio.emit_csv

    def emit_then_flip(traces, path):
        original(traces, path)
        data = bytearray(Path(path).read_bytes())
        data[-2] ^= 1  # the last digit of the last row
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(csvio, "emit_csv", emit_then_flip)
    details = run.measure("bounds", workloads.DEFAULT_SEED, 0.0, traced=False)
    presets = set(workloads.PRESETS["bounds"])
    assert {f["operation"] for f in details["failures"]} == presets
    assert all(f["reason"] == "hash mismatch: csv" for f in details["failures"])
    assert details["failed"] / details["attempted"] > 0


def test_raising_operation_is_counted_and_the_pass_goes_on(tmp_path):
    ops = cheap_ops(0)

    def boom(out_dir):
        raise RuntimeError("injected")

    ops.insert(0, workloads.Operation("boom", boom))
    result = workloads.run_pass(ops, tmp_path)
    pins = all_pins()
    failed = workloads.check(result, {"boom": {}, **{op: pins[op] for op in CHEAP}})
    assert failed == {"boom": "raised RuntimeError: injected"}


def test_other_seed_changes_inputs_and_repeats_bytes(tmp_path):
    first = workloads.run_pass(cheap_ops(7), tmp_path)
    second = workloads.run_pass(cheap_ops(7), tmp_path)
    assert not first.failures
    assert first.hashes == second.hashes
    pins = all_pins()
    for op in ("hedge_vs_ftl", "split_kl_sweep[K=2]", "replay_round_trip"):
        assert first.hashes[op] != pins[op]
    # the bound curves have no random input, so no seed can change them
    assert first.hashes["split_kl_compare"] == pins["split_kl_compare"]


def test_other_seed_run_compares_two_passes(tmp_path, monkeypatch):
    draws = iter(range(10))

    def unsteady(out_dir):
        return {"value": str(next(draws))}

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "build", lambda workload, seed: [
        workloads.Operation("unsteady", unsteady)])
    details = run.measure("bounds", 7, 0.0, traced=False)
    assert len(details["passes"]) == 2
    assert details["attempted"] == 2
    assert details["failures"] == [{"pass": 1, "operation": "unsteady",
                                    "reason": "hash mismatch: value"}]


def test_traced_pass_writes_the_same_bytes(tmp_path):
    ops = cheap_ops(0)
    plain = workloads.run_pass(ops, tmp_path)
    with tracing.Tracer() as tracer:
        traced = workloads.run_pass(ops, tmp_path, tracer=tracer)
    assert not plain.failures and not traced.failures
    assert traced.hashes == plain.hashes


def test_sampled_pass_writes_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(speed, "SAMPLE_INTERVAL_S", 0.01)
    with speed.SpeedSampler() as sampler:
        result = workloads.run_pass(cheap_ops(0), tmp_path)
    pins = all_pins()
    assert workloads.check(result, {op: pins[op] for op in CHEAP}) == {}
    assert len(sampler.samples) > len(CHEAP)
    work = sum(sampler.work_seconds(a, b) for a, b in result.intervals)
    assert 0.0 < work < result.wall_s


def test_scaling_between_samples():
    ref = speed.CALIBRATION_REF_S
    sampler = speed.SpeedSampler()
    # calibrations at [0, 1], [5, 6], [10, 11]; the middle one ran at half speed
    sampler.samples = [(0.0, 1.0, ref), (5.0, 6.0, 2 * ref), (10.0, 11.0, ref)]
    assert sampler.work_seconds(1.0, 10.0) == pytest.approx(8.0)
    # [1, 5] and [6, 10] are each bracketed by one full- and one half-speed sample
    assert sampler.scaled_seconds(1.0, 10.0) == pytest.approx(2 * 4.0 / 1.5)
    assert sampler.scaled_seconds(1.0, 5.0) == pytest.approx(4.0 / 1.5)
    assert speed.bracketed([3.0], [ref, ref]) == pytest.approx([3.0])


def test_traced_self_times_add_up_to_wall_time(tmp_path):
    with tracing.Tracer() as tracer:
        result = workloads.run_pass(cheap_ops(0), tmp_path, tracer=tracer)
    selfs = [rec[tracing.SELF_S] for rec in tracer.records.values()]
    assert min(selfs) >= 0.0
    unattributed = tracer.bench_self_s(result.wall_s)
    assert 0.0 <= unattributed < 0.02 * result.wall_s + 0.01
    assert sum(selfs) + unattributed == pytest.approx(result.wall_s, rel=1e-9)
    operations = tracer.operation_seconds("operation")
    assert set(operations) == set(CHEAP)
    assert sum(operations.values()) == pytest.approx(result.wall_s, rel=0.02)

    metrics = tracing.layer_metrics(tracer, workloads.ALL_PRESETS,
                                    workloads.SWEEP_KS)
    table = tracing.metric_table(workloads.ALL_PRESETS, workloads.SWEEP_KS)
    assert set(metrics) == {name for name, _, _ in table} - {
        "lab.csvio.bytes", "lab.svgplot.bytes", "trace.overhead"}
    # hedge_vs_ftl and break_ftl: 10 reps x 2000 rounds of Hedge and of FTL
    assert metrics["online_policies.hedge.rounds"] == 40000
    assert metrics["online_policies.ftl.rounds"] == 40000
    assert metrics["divergences.probvec.count"] >= 40000
    assert 0.2 < metrics["environments.replay.accept_ratio"] < 0.3


def test_game_workloads_make_no_kl_inverse_calls(tmp_path):
    ops = [op for op in workloads.build("full_info", 0)
           if op.name in ("hedge_vs_ftl", "break_ftl")]
    with tracing.Tracer() as tracer:
        workloads.run_pass(ops, tmp_path, tracer=tracer)
    metrics = tracing.layer_metrics(tracer, workloads.ALL_PRESETS,
                                    workloads.SWEEP_KS)
    assert metrics["divergences.kl_inverse.calls"] == 0
    # 2 presets x 2 policies x 10 reps x 2000 rounds x K = 2 cells per row
    assert metrics["environments.cells"] == 2 * 2 * 10 * 2000 * 2


def _bindings():
    """Every attribute of every boundslab module and of the traced classes."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("boundslab") and module is not None:
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type):
                    for cls_attr, member in vars(value).items():
                        snapshot[(name, attr, cls_attr)] = member
    return snapshot


def test_every_wrapper_is_restored():
    importlib.import_module("boundslab.pac_bayes")
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        from boundslab import concentration, environments, pac_bayes
        from boundslab.lab import runner
        assert runner.play_bandit is not before[("boundslab.environments",
                                                 "play_bandit")]
        assert runner.play_bandit is environments.play_bandit
        assert concentration.kl_inverse is pac_bayes.kl_inverse
        assert (environments.BernoulliEnv.loss.__wrapped__
                is before[("boundslab.environments", "BernoulliEnv", "loss")])
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    lines = done.stdout.strip().splitlines()
    assert not lines or "metrics" not in lines[-1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    table = tracing.metric_table(workloads.ALL_PRESETS, workloads.SWEEP_KS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(row) for row in table]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOAD_NAMES) == workloads.WORKLOADS

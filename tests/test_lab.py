import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from boundslab.lab.cli import main, preset_names, resolve_config
from boundslab.lab.config import (
    ConfigError,
    parse_config,
    parse_config_lines,
)
from boundslab.lab.csvio import AggregateTrace, aggregate, emit_csv, parse_csv
from boundslab.lab.runner import run_experiment
from boundslab.lab.svgplot import (
    MAX_POINTS,
    _downsample,
    _y_range,
    render_plot,
)

MINIMAL_GAME = [
    "[experiment]",
    "name = tiny",
    "T = 40",
    "R = 3",
    "seed = 11",
    "[environment]",
    "kind = bernoulli",
    "means = 0.25, 0.75",
    "[policy exp3]",
    "kind = exp3",
]


class TestConfigParsing:
    def test_defaults(self):
        config = parse_config_lines(MINIMAL_GAME)
        assert config.delta == 0.05
        assert config.kind == "game"
        config = parse_config_lines([
            "[experiment]", "name = d", "kind = bounds",
        ])
        assert config.R == 10
        assert config.delta == 0.05

    def test_comments_and_blank_lines(self):
        config = parse_config_lines(["# leading comment", "", *MINIMAL_GAME])
        assert config.name == "tiny"
        assert config.T == 40

    def test_duplicate_key_names_the_line(self):
        bad = MINIMAL_GAME[:3] + ["T = 41"] + MINIMAL_GAME[3:]
        with pytest.raises(ConfigError, match="line 4"):
            parse_config_lines(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config_lines(["[experiment]", "name = x", "horizon = 12"])

    def test_syntax_and_structure_errors(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_lines(["what is this"])
        with pytest.raises(ConfigError, match="outside any"):
            parse_config_lines(["key = value"])
        with pytest.raises(ConfigError, match="experiment.T"):
            parse_config_lines(["[experiment]", "name = x", "T = soon"])
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_lines(MINIMAL_GAME + ["[mystery]"])
        with pytest.raises(ConfigError, match="delta"):
            parse_config_lines(["[experiment]", "name = x", "kind = bounds",
                                "delta = 1.5"])

    def test_game_requires_policies_and_environment(self):
        with pytest.raises(ConfigError, match="policy"):
            parse_config_lines(MINIMAL_GAME[:8])

    def test_all_presets_parse_and_run_shapes(self):
        names = preset_names()
        assert len(names) == 12
        for name in names:
            config = parse_config(resolve_config(name))
            assert config.name == name

    def test_ucb_vs_exp3_preset_parameters(self):
        config = parse_config(resolve_config("ucb_vs_exp3"))
        assert config.T == 10000
        assert config.R == 20
        assert config.environment["k_grid"].replace(" ", "") == "2,4,8,16"
        kinds = {spec["kind"] for _, spec in config.policies}
        assert kinds == {"ucb1", "exp3"}


class TestRunner:
    def test_single_repetition_has_zero_std(self):
        config = parse_config_lines(MINIMAL_GAME)
        config.R = 1
        traces = run_experiment(config)
        assert len(traces) == 1
        assert np.all(traces[0].std == 0.0)

    def test_repeated_runs_are_bitwise_identical(self):
        config = parse_config_lines(MINIMAL_GAME)
        first = run_experiment(config)
        second = run_experiment(config)
        for a, b in zip(first, second):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.std, b.std)

    def test_aggregation_matches_two_pass_reference(self):
        rng = np.random.default_rng(3)
        runs = rng.random((7, 20))
        trace = aggregate("x", runs)
        ref_mean = np.array([runs[:, i].sum() / 7 for i in range(20)])
        ref_std = np.sqrt(np.array([
            ((runs[:, i] - ref_mean[i]) ** 2).sum() / 7 for i in range(20)
        ]))
        assert np.allclose(trace.mean, ref_mean, atol=1e-12)
        assert np.allclose(trace.std, ref_std, atol=1e-12)

    def test_hedge_vs_ftl_qualitative_ordering(self):
        config = parse_config(resolve_config("hedge_vs_ftl"))
        traces = {tr.name: tr for tr in run_experiment(config)}
        # FTL locks onto the gap-1/4 better arm: flat (sublinear) regret;
        # Hedge keeps exploring and pays more by the horizon
        assert traces["ftl"].mean[-1] < traces["hedge"].mean[-1]
        assert traces["ftl"].mean[-1] - traces["ftl"].mean[999] < 5.0

    def test_bounds_kind_orderings(self):
        config = parse_config_lines([
            "[experiment]", "name = b", "kind = bounds", "delta = 0.01",
            "[params]", "family = four_bounds", "n = 1000", "grid = 201",
        ])
        traces = {tr.name: tr for tr in run_experiment(config)}
        kl = traces["kl"].mean
        refined = traces["refined_pinsker"].mean
        assert np.all(kl <= refined + 1e-12)

    def test_unknown_param_keys_rejected(self):
        config = parse_config_lines([
            "[experiment]", "name = b", "kind = bounds",
            "[params]", "family = four_bounds", "bogus = 1",
        ])
        with pytest.raises(ConfigError, match="unknown keys"):
            run_experiment(config)

    def test_yes_turns_boolean_policy_keys_on(self):
        lines = MINIMAL_GAME[:5] + [
            "[environment]", "kind = bernoulli", "means = 0.25, 0.75",
            "[policy h]", "kind = hedge", "doubling = yes",
            "[policy e]", "kind = exp3", "fixed_horizon = yes"]
        got = run_experiment(parse_config_lines(lines))
        want = run_experiment(parse_config_lines(
            [line.replace("yes", "true") for line in lines]))
        assert [tr.mean.tolist() for tr in got] == [tr.mean.tolist() for tr in want]

    @pytest.mark.parametrize("lines, field", [
        (["kind = bounds", "[params]", "n = abc"], "params.n"),
        (["kind = bounds", "[params]", "grid = 1.5"], "params.grid"),
        (["kind = pacbayes", "[params]", "m = x"], "params.m"),
        (["kind = recursive", "[params]", "m = x"], "params.m"),
        (["kind = recursive", "[params]", "n = 1e3"], "params.n"),
        (["kind = recursive", "[params]", "t_max = four"], "params.t_max"),
        (["kind = replay", "[params]", "fixed_arm = one"], "params.fixed_arm"),
        (["[environment]", "kind = bernoulli_gap", "gap = x",
          "[policy u]", "kind = ucb1"], "environment.gap"),
        (["[environment]", "kind = bernoulli_gap", "base = x",
          "[policy u]", "kind = ucb1"], "environment.base"),
        (["[environment]", "kind = ucb_breaker", "k = 2.5",
          "[policy u]", "kind = ucb1"], "environment.k"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy e]", "kind = epsilon_first", "gap = wide"], "policy e.gap"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy e]", "kind = exp3", "eta = fast"], "policy e.eta"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy e]", "kind = exp3", "fixed_horizon = maybe"],
         "policy e.fixed_horizon"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy h]", "kind = hedge", "doubling = maybe"], "policy h.doubling"),
        (["kind = pacbayes", "[params]", "m = 0"], "params.m"),
        (["kind = recursive", "[params]", "m = 0"], "params.m"),
        (["kind = recursive", "[params]", "t_max = 0"], "params.t_max"),
    ])
    def test_bad_values_name_the_field(self, tmp_path, capsys, lines, field):
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(["[experiment]", "name = bad", "T = 20",
                                     "R = 1", *lines]) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert f"{field}: cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, fields", [
        (["kind = recursive", "[params]", "n = 3", "t_max = 3"],
         ("params.n", "params.t_max")),
        (["kind = recursive", "[params]", "n = 0", "t_max = 1"],
         ("params.n", "params.t_max")),
        (["kind = pacbayes", "[params]", "n_grid = 0, 10"], ("params.n_grid",)),
        (["kind = pacbayes", "[params]", "n_grid = 10, -1"], ("params.n_grid",)),
        (["kind = pacbayes", "[params]", "n_grid = ,"], ("params.n_grid",)),
    ])
    def test_sample_sizes_too_small_name_the_field(self, tmp_path, capsys,
                                                    lines, fields):
        config = tmp_path / "small.cfg"
        config.write_text("\n".join(["[experiment]", "name = small", "R = 1",
                                     *lines]) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert all(field in err for field in fields)

    def test_smallest_recursive_sample_runs(self):
        config = parse_config_lines([
            "[experiment]", "name = rec", "kind = recursive", "R = 1",
            "[params]", "n = 4", "t_max = 3", "m = 3"])
        assert [len(tr.t) for tr in run_experiment(config)] == [3, 3]

    def test_replay_kind_estimates_fixed_arm_value(self):
        config = parse_config_lines([
            "[experiment]", "name = rp", "kind = replay", "T = 8000",
            "R = 5", "seed = 3",
            "[params]", "means = 0.2, 0.7", "fixed_arm = 1",
        ])
        traces = {tr.name: tr for tr in run_experiment(config)}
        assert abs(traces["iw_value_estimate"].mean[-1] - 0.7) < 0.05
        assert traces["rs_mean_reward"].mean[-1] > 0.5


class TestCsv:
    def test_empty_traces_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_bytes() == b"t,series,mean,std\n"

    def test_line_count_and_lf_endings(self, tmp_path):
        trace = AggregateTrace("s", np.array([1, 2]),
                               np.array([0.5, 1.5]), np.array([0.0, 0.1]))
        path = tmp_path / "two.csv"
        emit_csv([trace], path)
        raw = path.read_bytes()
        assert raw.count(b"\n") == 3
        assert b"\r" not in raw

    def test_round_trip_to_twelve_significant_digits(self, tmp_path):
        rng = np.random.default_rng(4)
        traces = [
            AggregateTrace("alpha", np.arange(1, 51),
                           rng.random(50) * 100, rng.random(50)),
            AggregateTrace("beta", np.arange(1, 51),
                           rng.standard_normal(50), rng.random(50)),
        ]
        path = tmp_path / "rt.csv"
        emit_csv(traces, path)
        parsed = parse_csv(path)
        assert [tr.name for tr in parsed] == ["alpha", "beta"]
        for a, b in zip(traces, parsed):
            assert np.allclose(a.mean, b.mean, rtol=1e-11)
            assert np.allclose(a.std, b.std, rtol=1e-11)

    def test_series_major_row_order(self, tmp_path):
        traces = [
            AggregateTrace("b_series", [1, 2], [0.0, 0.0], [0.0, 0.0]),
            AggregateTrace("a_series", [1, 2], [0.0, 0.0], [0.0, 0.0]),
        ]
        path = tmp_path / "order.csv"
        emit_csv(traces, path)
        lines = path.read_text().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == [
            "b_series", "b_series", "a_series", "a_series"]

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            AggregateTrace("x", [1], [0.0], [-0.1])


class TestSvg:
    def test_constant_series_is_horizontal(self, tmp_path):
        trace = AggregateTrace("flat", np.arange(1, 11),
                               np.full(10, 2.5), np.zeros(10))
        path = tmp_path / "flat.svg"
        render_plot([trace], path)
        text = path.read_text()
        assert text.startswith('<?xml version="1.0"')
        polyline = text.split('polyline points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in polyline.split()}
        assert len(ys) == 1

    def test_two_series_two_legend_entries(self, tmp_path):
        traces = [
            AggregateTrace("first", [1, 2], [0.0, 1.0], [0.0, 0.0]),
            AggregateTrace("second", [1, 2], [1.0, 0.0], [0.1, 0.1]),
        ]
        path = tmp_path / "two.svg"
        render_plot(traces, path)
        text = path.read_text()
        assert ">first</text>" in text
        assert ">second</text>" in text

    def test_byte_determinism(self, tmp_path):
        rng = np.random.default_rng(6)
        traces = [AggregateTrace("noisy", np.arange(1, 501),
                                 rng.random(500), rng.random(500) * 0.1)]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_plot(traces, a)
        render_plot(traces, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("names", [
        ("zeros",), ("negative_zero_first",), ("zeros", "nan_first"),
        ("nan_first", "zeros"), ("negative_zero_first", "nan_first"),
    ])
    def test_y_range_is_min_max_of_all_values_in_order(self, names):
        nan = float("nan")
        traces = {
            "zeros": AggregateTrace("zeros", [1, 2, 3], [0.0, -0.0, 0.5],
                                    [0.0, 0.0, 0.25]),
            "negative_zero_first": AggregateTrace(
                "negative_zero_first", [1, 2, 3], [-0.0, 0.0, -0.0],
                [0.0, 0.0, 0.0]),
            "nan_first": AggregateTrace("nan_first", [1, 2, 3],
                                        [nan, -1.0, 3.0], [0.0, 0.5, 0.5]),
        }
        chosen = [traces[name] for name in names]
        values = []
        for tr in chosen:
            values += tr.mean.tolist() + (tr.mean + tr.std).tolist()
        assert list(map(repr, _y_range(chosen))) == [repr(min(values)),
                                                     repr(max(values))]

    def test_downsampling_cap(self):
        xs = np.arange(10000)
        ys = np.arange(10000.0)
        dx, dy = _downsample(xs, ys)
        assert len(dx) <= MAX_POINTS + 1
        assert dx[-1] == 9999  # final point kept


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        config = tmp_path / "tiny.cfg"
        config.write_text("\n".join(MINIMAL_GAME) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tiny.csv").exists()
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nname = x\nT = never\n")
        assert main(["run", str(bad)]) == 2

    def test_run_plot_and_overrides(self, tmp_path):
        config = tmp_path / "tiny.cfg"
        config.write_text("\n".join(MINIMAL_GAME) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path),
                     "--reps", "2", "--seed", "99", "--plot"]) == 0
        assert (tmp_path / "tiny.svg").exists()

    @pytest.mark.parametrize("override, field", [
        (["--reps", "0"], "experiment.R"),
        (["--seed", "-1"], "experiment.seed"),
        (["--seed", str(2 ** 64)], "experiment.seed"),
    ])
    def test_bad_overrides_are_config_errors(self, tmp_path, capsys,
                                             override, field):
        config = tmp_path / "tiny.cfg"
        config.write_text("\n".join(MINIMAL_GAME) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path),
                     *override]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "tiny.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        (["T = 40", "# the horizon above", "delta = 1.5"],
         "experiment.delta: must be in (0, 1), got 1.5 (line 5)"),
        (["", "T = soon"], "experiment.T: cannot parse 'soon' as int (line 4)"),
        (["kind = bounds", "[params]", "family = four_bounds", "n = abc"],
         "params.n: cannot parse 'abc' as int (line 6)"),
        (["kind = replay", "T = 30", "R = 1", "[params]", "means = 0.2, 0.8",
          "fixed_arm = 2"],
         "params.fixed_arm: outside the action range (line 8)"),
        (["T = 20", "R = 1", "[environment]", "kind = bernoulli",
          "means = 0.2, 0.8", "", "# a slow learner", "[policy h]",
          "kind = hedge", "doubling = false", "", "[policy x]", "kind = exp3",
          "eta = abc"],
         "policy x.eta: cannot parse 'abc' as float (line 16)"),
        (["T = 20", "[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy  y]", "kind = greedy"],
         "policy y: unknown kind 'greedy' (line 8)"),
        (["[environment]", "kind = bernoulli_gap", "k = x", "[policy u]",
          "kind = ucb1"],
         "environment.k: expected comma-separated integers, got 'x' (line 5)"),
        (["[environment]", "kind = bernoulli_gap", "k_grid = 2, 1",
          "[policy u]", "kind = ucb1"],
         "environment.k_grid: each K must be >= 2 (line 5)"),
    ], ids=["experiment", "experiment_parse", "params", "params_range",
            "policy", "policy_kind", "environment_k", "environment_k_grid"])
    def test_field_errors_name_their_line(self, tmp_path, capsys, lines,
                                          message):
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(["[experiment]", "name = bad", *lines])
                          + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_section_and_override_errors_name_no_line(self, tmp_path, capsys):
        # a missing key has no line, and an override replaces the file's
        # value, so neither error may point at the file
        config = tmp_path / "tiny.cfg"
        config.write_text("\n".join(MINIMAL_GAME) + "\n")
        assert main(["run", str(config), "--reps", "0"]) == 2
        assert capsys.readouterr().err == (
            "config error: experiment.R: must be >= 1, got 0\n")
        config.write_text("\n".join(MINIMAL_GAME[:6] + ["kind = bernoulli"]
                                    + MINIMAL_GAME[8:]) + "\n")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == (
            "config error: environment.means: required for bernoulli\n")

    def test_bounds_compare_command(self, tmp_path):
        assert main(["bounds-compare", "--n", "200", "--delta", "0.05",
                     "--grid", "21", "--out", str(tmp_path)]) == 0
        parsed = parse_csv(tmp_path / "bounds_compare.csv")
        assert {tr.name for tr in parsed} == {
            "hoeffding", "pinsker", "refined_pinsker", "kl"}

    def test_replay_command(self, tmp_path, capsys):
        from boundslab.environments import synthesize_uniform_log, write_log

        log = tmp_path / "demo.log"
        write_log(log, 4, synthesize_uniform_log([0.2, 0.5, 0.8, 0.3],
                                                 3000, 12))
        assert main(["replay", "--log", str(log), "--policy", "fixed:2",
                     "--mode", "iw"]) == 0
        out = capsys.readouterr().out
        assert "estimated_value=" in out
        assert main(["replay", "--log", str(log), "--policy", "ucb1",
                     "--mode", "rs"]) == 0
        assert "effective_horizon=" in capsys.readouterr().out

    @pytest.mark.parametrize("policy, mode, expected", [
        ("ucb1", "iw", "estimated_value=0.681333"),
        ("ucb1", "rs", "effective_horizon=750 mean_reward=0.785333"),
        ("exp3", "iw", "estimated_value=0.630667"),
        ("exp3", "rs", "effective_horizon=747 mean_reward=0.759036"),
        ("fixed:2", "iw", "estimated_value=0.789333"),
        ("fixed:2", "rs", "effective_horizon=726 mean_reward=0.815427"),
    ])
    def test_replay_command_output_is_pinned(self, tmp_path, capsys, policy,
                                             mode, expected):
        from boundslab.environments import synthesize_uniform_log, write_log

        log = tmp_path / "demo.log"
        write_log(log, 4, synthesize_uniform_log([0.2, 0.5, 0.8, 0.3],
                                                 3000, 12))
        assert main(["replay", "--log", str(log), "--policy", policy,
                     "--mode", mode, "--seed", "5"]) == 0
        assert capsys.readouterr().out == f"records=3000 K=4 {expected}\n"

    @pytest.mark.parametrize("text, message", [
        ("K=4\n0 2 0 0 0 0 0 0 0 0 0 0\n",
         "--log: line 2: reward must be 0 or 1, got 2"),
        ("K=4\n# comment\n0 1 0 0\n", "--log: line 3: expected 12 fields"),
        ("0 1 0 0 0 0 0 0 0 0 0 0\n", "--log: line 1: expected 'K=<int>' header"),
        (None, "--log: [Errno 2] No such file or directory"),
    ], ids=["bad_reward", "field_count", "no_header", "missing_file"])
    def test_replay_bad_log_is_config_error(self, tmp_path, capsys, text,
                                            message):
        log = tmp_path / "bad.log"
        if text is not None:
            log.write_text(text)
        for mode in ("iw", "rs"):
            assert main(["replay", "--log", str(log), "--policy", "ucb1",
                         "--mode", mode]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["fixed:x", "fixed:4", "fixed:-1",
                                        "fixed:", "greedy"])
    def test_replay_bad_policy_is_config_error(self, tmp_path, capsys, policy):
        from boundslab.environments import synthesize_uniform_log, write_log

        log = tmp_path / "demo.log"
        write_log(log, 4, synthesize_uniform_log([0.2, 0.5, 0.8, 0.3], 50, 12))
        for mode in ("iw", "rs"):
            assert main(["replay", "--log", str(log), "--policy", policy,
                         "--mode", mode]) == 2
            assert "--policy" in capsys.readouterr().err

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"


def _preset_pins():
    """{preset: {"csv": sha256, "svg": sha256}} for every pinned preset."""
    pins = json.loads(PINS.read_text())
    return {name: hashes for workload in pins.values()
            for name, hashes in workload.items() if "csv" in hashes}


@pytest.mark.parametrize("preset", sorted(_preset_pins()))
def test_preset_bytes_match_pins(preset, tmp_path):
    """``lab run <preset> --plot`` writes the pinned CSV and SVG bytes, so a
    change that moves any output digit fails here."""
    assert main(["run", preset, "--out", str(tmp_path), "--plot"]) == 0
    for artifact, digest in _preset_pins()[preset].items():
        written = (tmp_path / f"{preset}.{artifact}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, artifact


def _bench_module(stem: str):
    """``perfbench/<stem>.py``, imported from its file: perfbench is a
    directory of scripts, not an installed package."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PINS.parent / f"{stem}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _operation_pins():
    """{operation: (workload, hashes)} for the pinned benchmark operations
    that are direct library calls rather than presets."""
    pins = json.loads(PINS.read_text())
    return {name: (workload, hashes) for workload, ops in pins.items()
            for name, hashes in ops.items() if "csv" not in hashes}


@pytest.mark.parametrize("operation", sorted(_operation_pins()))
def test_bench_operation_matches_pins(operation, tmp_path):
    """The split-kl sweep points and the replay log round trip, run as the
    benchmark runs them, give the pinned digests: a change to one split-kl
    digit or one replayed reward fails here."""
    workloads = _bench_module("workloads")
    workload, expected = _operation_pins()[operation]
    op, = [op for op in workloads.build(workload, 0) if op.name == operation]
    assert workloads.digest(op.run(tmp_path)) == expected


def test_tracer_finds_every_target():
    """The benchmark's tracer wraps library functions and policy methods by
    name; one that is renamed or deleted would read 0 in every per-layer
    metric it feeds, and shows up here in ``missing``."""
    with _bench_module("tracer").Tracer() as tracer:
        assert tracer.missing == []

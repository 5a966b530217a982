import fnmatch
import functools
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tomllib
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from boundslab.lab.cli import (
    PRESET_PACKAGE,
    main,
    pin_mismatches,
    preset_names,
    resolve_config,
)
from boundslab.lab.config import (
    ConfigError,
    parse_config,
    parse_config_lines,
)
from boundslab.lab.csvio import (
    CHUNK_ROWS,
    AggregateTrace,
    aggregate,
    emit_csv,
)
from boundslab.lab import cli, runner
from boundslab.lab.runner import run_experiment
from boundslab.lab.svgplot import (
    MAX_POINTS,
    _POINT,
    _downsample,
    _fmt,
    _scale,
    _y_range,
    render_plot,
)

# A range or type error has one shape; every other field error is one of
# the kinds OTHER_ERROR names, and no message is both.
RANGE_ERROR = re.compile(
    r"^config error: \S[^:]*: (must be .+, got '.*'|cannot parse '.*' as "
    r"(int|float|bool)|expected comma-separated (integers|numbers), got '.*')"
    r"( \((line \d+|--[a-z]+)\))?\n$")
OTHER_ERROR = re.compile(r": (unknown |required |section not used )")

# A size field's value past every cap, and the end of a cap's message.
HUGE = "99999999999999999999"
AT_MOST_CELLS = "at most 2**27 floats (1 GiB as float64)"


def assert_config_error(err: str, message: str) -> None:
    assert err == f"config error: {message}\n"
    assert bool(RANGE_ERROR.match(err)) != bool(OTHER_ERROR.search(err)), err


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


# The [experiment] keys each kind reads besides name, kind, seed and out,
# in read order.
EXPERIMENT_READS = {"game": ("T", "R"), "bounds": ("delta",),
                    "pacbayes": ("R", "delta"), "recursive": ("R", "delta"),
                    "replay": ("T", "R")}

# Floats at the edges of the formats: NaN, infinities, signed zeros,
# subnormals and integers past 2**53.
EDGE_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e16,
     -1e16, 123456789012.5, 0.005, 0.015, 2.675])
# Doubles whose sums overflow, cancel or turn NaN, as a repetition's value
SERIES_FLOATS = EDGE_FLOATS | st.sampled_from(
    [1e308, -1e308, 9e307, sys.float_info.max, -sys.float_info.max])
# Series names as a label may be: any text but ",", line breaks and lone
# surrogates, with "%" often.
NAMES = st.text(st.characters(blacklist_characters=",\r\n",
                              blacklist_categories=("Cs",)), max_size=8) | (
    st.sampled_from(["h%d", "%", "%%s", "100%[K=2]"]))


class TestConfigParsing:
    def test_defaults(self):
        # a key the kind does not read is None
        config = parse_config_lines(["[experiment]", "name = d",
                                     *MINIMAL_GAME[5:]])
        assert (config.kind, config.T, config.R, config.seed, config.delta,
                config.out) == ("game", 1000, 10, 0, None, None)
        config = parse_config_lines([
            "[experiment]", "name = d", "kind = bounds",
        ])
        assert (config.T, config.R, config.delta) == (None, None, 0.05)
        config = parse_config_lines([
            "[experiment]", "name = d", "kind = recursive",
        ])
        assert (config.T, config.R, config.delta) == (None, 10, 0.05)

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

    @pytest.mark.parametrize("kind", EXPERIMENT_READS)
    @pytest.mark.parametrize("key, text, value", [
        ("T", "64", 64), ("R", "2", 2), ("delta", "0.1", 0.1)])
    def test_each_kind_takes_only_the_experiment_keys_it_reads(
            self, tmp_path, capsys, kind, key, text, value):
        # seed and out are taken by every kind; a key the kind does not
        # read is an unknown key, named by its line
        lines = ["[experiment]", "name = k", f"kind = {kind}",
                 f"{key} = {text}",
                 *(MINIMAL_GAME[5:] if kind == "game" else [])]
        reads = EXPERIMENT_READS[kind]
        if key in reads:
            assert getattr(parse_config_lines(lines), key) == value
            return
        path = tmp_path / "k.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        takes = ", ".join(k for k in ("name", "kind", "T", "R", "seed",
                                      "delta", "out")
                          if k in reads or k not in ("T", "R", "delta"))
        assert_config_error(capsys.readouterr().err,
                            f"experiment.{key}: unknown keys ['{key}']; "
                            f"[experiment] takes {takes} (line 4)")

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
    def test_ucb1_plays_the_config_default_parametrization(self):
        # the config owns the default; UCB1Batch has none of its own
        game = [*MINIMAL_GAME[:-2], "[policy u]", "kind = ucb1"]
        means = [run_experiment(parse_config_lines(lines))[0].mean.tobytes()
                 for lines in (game, [*game, "parametrization = original"],
                               [*game, "parametrization = improved"])]
        assert means[0] == means[1] != means[2]

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
        trace = aggregate("x", runs, t=np.arange(1, 21))
        ref_mean = np.array([runs[:, i].sum() / 7 for i in range(20)])
        ref_std = np.sqrt(np.array([
            ((runs[:, i] - ref_mean[i]) ** 2).sum() / 7 for i in range(20)
        ]))
        assert np.allclose(trace.mean, ref_mean, atol=1e-12)
        assert np.allclose(trace.std, ref_std, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(0, 6).flatmap(lambda T: st.lists(
        st.lists(SERIES_FLOATS, min_size=T, max_size=T),
        min_size=1, max_size=5)))
    @example(rows=[[0.5, -0.0, math.inf]])
    @example(rows=[[], [], []])
    @example(rows=[[1e308, -0.0], [1e308, 0.0], [-math.inf, math.nan]])
    def test_aggregate_is_bitwise_numpy_and_leaves_runs_alone(self, rows):
        # R = 1 and T = 0 included; the caller's runs, as a list of rows or
        # as an (R, T) float64 array, are left as they were
        kept = [list(row) for row in rows]
        for runs in (rows, np.array(rows, dtype=float)):
            before = np.array(runs, dtype=float).tobytes()
            with np.errstate(all="ignore"):
                trace = aggregate("x", runs, t=np.arange(len(rows[0])))
                want = np.array(runs, dtype=float)
                mean, std = want.mean(axis=0), want.std(axis=0)
            assert trace.mean.tobytes() == mean.tobytes()
            assert trace.std.tobytes() == std.tobytes()
            assert np.array(runs, dtype=float).tobytes() == before
        assert len(rows) == len(kept) and all(
            list(map(float.hex, row)) == list(map(float.hex, old))
            for row, old in zip(rows, kept))

    @pytest.mark.parametrize("env", [["kind = bernoulli", "means = 0.25, 0.75"],
                                     ["kind = ucb_breaker"]],
                             ids=["bernoulli", "ucb_breaker"])
    def test_a_bandit_run_holds_under_three_series_of_memory(self, env):
        # tracemalloc's peak over a run of two UCB1 series, in units of one
        # R x T float64 series: a series is its R x T int arms, then the
        # regrets scored from them, then those and aggregate's one copy; no
        # game keeps its incurred losses
        def config(R, T):
            return parse_config_lines([
                "[experiment]", "name = memory", f"T = {T}", f"R = {R}",
                "seed = 1", "[environment]", *env, "[policy a]",
                "kind = ucb1", "[policy b]", "kind = ucb1"])

        # a small run first, so that what a first run imports and caches
        # (half a series here) is not counted
        run_experiment(config(2, 10))
        R, T = 32, 2000
        tracemalloc.start()
        try:
            run_experiment(config(R, T))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (R * T * 8) < 3.0

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

    def test_a_bad_last_policy_fails_before_any_game(self, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("a game ran before every field was checked")

        monkeypatch.setattr("boundslab.lab.runner.play_bandit", no_game)
        monkeypatch.setattr("boundslab.lab.runner.play_full_information",
                            no_game)
        config = parse_config_lines(MINIMAL_GAME + [
            "[policy h]", "kind = hedge", "[policy last]", "kind = ucb1",
            "parametrization = bogus"])
        with pytest.raises(ConfigError, match=r"^policy last\.parametrization"):
            run_experiment(config)

    def test_yes_turns_boolean_policy_keys_on(self):
        lines = MINIMAL_GAME[:5] + [
            "[environment]", "kind = bernoulli", "means = 0.25, 0.75",
            "[policy h]", "kind = hedge", "doubling = yes"]
        got = run_experiment(parse_config_lines(lines))
        want = run_experiment(parse_config_lines(
            [line.replace("yes", "true") for line in lines]))
        assert [tr.mean.tolist() for tr in got] == [tr.mean.tolist() for tr in want]

    @pytest.mark.parametrize("lines, field", [
        (["kind = bounds", "[params]", "n = abc"], "params.n"),
        (["kind = bounds", "[params]", "grid = 1.5"], "params.grid"),
        (["kind = pacbayes", "[params]", "m = x"], "params.m"),
        (["kind = replay", "[params]", "fixed_arm = one"], "params.fixed_arm"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy h]", "kind = hedge", "doubling = maybe"], "policy h.doubling"),
        (["seed = 1.5", "kind = bounds"], "experiment.seed"),
        (["delta = tiny", "kind = recursive"], "experiment.delta"),
    ])
    def test_bad_values_name_the_field(self, tmp_path, capsys, lines, field):
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(["[experiment]", "name = bad", *lines])
                          + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert f"{field}: cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, fields", [
        (["kind = pacbayes", "[params]", "n_grid = 0, 10"], ("params.n_grid",)),
        (["kind = pacbayes", "[params]", "n_grid = 10, -1"], ("params.n_grid",)),
        (["kind = pacbayes", "[params]", "n_grid = ,"], ("params.n_grid",)),
        (["kind = pacbayes", "[params]", "m = 0"], ("params.m",)),
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
        # one repetition bounds its 20 x 1000 table at each of the 4 stages
        config = parse_config_lines([
            "[experiment]", "name = rec", "kind = recursive", "R = 1"])
        traces = run_experiment(config)
        assert [tr.name for tr in traces] == ["recursive_pb",
                                              "pb_lambda_full_sample"]
        assert [tr.t.tolist() for tr in traces] == [[1, 2, 3, 4]] * 2

    @pytest.mark.parametrize("breaker", ["ftl_breaker", "ucb_breaker"])
    def test_breakers_run_at_the_fewest_rounds_their_rule_allows(self,
                                                                 breaker):
        config = parse_config_lines([
            "[experiment]", "name = b", "T = 4", "R = 1", "[environment]",
            f"kind = {breaker}", "[policy e]", "kind = exp3"])
        [trace] = run_experiment(config)
        assert trace.t.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("breaker", ["ftl_breaker", "ucb_breaker"])
    def test_breakers_accept_the_largest_matrix_their_cap_allows(self,
                                                                 breaker):
        # T = 2**26 fills the T x 2 matrix to 2**27 floats; reading the
        # section checks the rule without building the matrix
        config = parse_config_lines([
            "[experiment]", "name = b", "T = 67108864", "R = 1",
            "[environment]", f"kind = {breaker}", "[policy e]", "kind = exp3"])
        feedback, [(suffix, K, build)] = runner._read_environment(config)
        assert (feedback, suffix, K) == (None, "", 2)

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

    @pytest.mark.parametrize("rows", [
        0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
    def test_series_across_chunk_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        traces = [AggregateTrace(name, np.arange(1, rows + 1),
                                 rng.standard_normal(rows) * 1e3,
                                 rng.random(rows)) for name in ("a", "b%")]
        path = tmp_path / "chunks.csv"
        emit_csv(traces, path)
        header, *lines, end = path.read_text(encoding="utf-8").split("\n")
        assert (header, end, len(lines)) == ("t,series,mean,std", "", 2 * rows)
        assert lines == ["%d,%s,%.12g,%.12g" % row for trace in traces
                         for row in zip(trace.t.tolist(), [trace.name] * rows,
                                        trace.mean.tolist(),
                                        trace.std.tolist())]

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
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["alpha"] * 50 + ["beta"] * 50
        for column, field in ((2, "mean"), (3, "std")):
            written = np.concatenate([getattr(tr, field) for tr in traces])
            read = np.array([float(row[column]) for row in rows])
            assert np.allclose(read, written, rtol=1e-11)

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

    @settings(max_examples=60, deadline=None)
    @given(name=NAMES, rows=st.lists(st.tuples(
        st.integers(-2 ** 63, 2 ** 63 - 1), EDGE_FLOATS,
        EDGE_FLOATS.map(abs) | st.just(-0.0)), max_size=20))
    def test_rows_are_the_contract_f_strings(self, tmp_path_factory, name,
                                             rows):
        t, mean, std = (list(col) for col in zip(*rows)) if rows else ([],) * 3
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        emit_csv([AggregateTrace(name, np.array(t, dtype=np.int64), mean, std),
                  AggregateTrace("tail", [3], [0.5], [0.0])], path)
        want = "".join(f"{t},{series},{m:.12g},{s:.12g}\n" for series, t, m, s
                       in [*((name, *row) for row in rows), ("tail", 3, 0.5, 0.0)])
        assert path.read_bytes() == ("t,series,mean,std\n" + want).encode()

    def test_game_series_named_with_percent(self, tmp_path):
        traces = run_experiment(parse_config_lines(MINIMAL_GAME[:-2] + [
            "[policy h%d]", "kind = hedge", "[policy 5%s]", "kind = ftl"]))
        path = tmp_path / "percent.csv"
        emit_csv(traces, path)
        want = "".join(f"{t},{tr.name},{m:.12g},{s:.12g}\n" for tr in traces
                       for t, m, s in zip(tr.t.tolist(), tr.mean.tolist(),
                                          tr.std.tolist()))
        assert [tr.name for tr in traces] == ["h%d", "5%s"]
        assert path.read_text() == "t,series,mean,std\n" + want

    def test_float_axis_is_written_as_int(self, tmp_path):
        path = tmp_path / "axis.csv"
        emit_csv([AggregateTrace("x", [2.7, -0.5, 1e16], [0.0] * 3,
                                 [0.0] * 3)], path)
        assert path.read_text().splitlines()[1:] == [
            f"{int(t)},x,0,0" for t in (2.7, -0.5, 1e16)]


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

    @pytest.mark.parametrize("means, stds", [
        ([[math.nan, 1.0, -2.0]], [[0.0, 0.0, 0.0]]),  # NaN first
        ([[1.0, math.nan, -2.0]], [[0.0, 0.0, 0.0]]),  # in the middle
        ([[1.0, -2.0, math.nan]], [[0.0, 0.0, 0.0]]),  # last
        ([[1.0, -2.0], [math.nan, 3.0]], [[0.5, 0.5], [0.0, 0.0]]),
        ([[1.0, -2.0]], [[math.nan, 0.0]]),  # only in mean + std
        ([[0.0, -0.0], [-0.0, 0.0]], [[0.0, 0.0], [0.0, -0.0]]),
        ([[-0.0, 0.0, 0.0]], [[-0.0, 0.0, 0.0]]),
        ([[0.5, -0.0, 0.0]], [[0.0, 0.0, 0.0]]),
        ([[-0.5, 0.0, -0.0]], [[0.5, 0.0, 0.0]]),
        ([[math.inf, -math.inf, 0.0]], [[0.0, 0.0, 0.0]]),
        ([[-math.inf, 2.0], [1.0, math.inf]], [[math.inf, 0.0], [0.0, 0.0]]),
        ([[-0.0], [math.inf]], [[0.0], [math.inf]]),
    ])
    def test_y_range_equals_the_builtin_walk(self, means, stds):
        traces = [AggregateTrace(f"s{i}", range(len(m)), m, s)
                  for i, (m, s) in enumerate(zip(means, stds))]
        self.assert_builtin_range(traces)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0])
        | st.floats(-4.0, 4.0),
        st.sampled_from([0.0, -0.0, 0.5, math.inf, math.nan])),
        min_size=1, max_size=6), min_size=1, max_size=3))
    def test_y_range_equals_the_builtin_walk_on_edge_values(self, series):
        traces = [AggregateTrace(f"s{i}", range(len(cells)), *zip(*cells))
                  for i, cells in enumerate(series)]
        self.assert_builtin_range(traces)

    @staticmethod
    def assert_builtin_range(traces):
        values = []
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN
            for tr in traces:
                values += tr.mean.tolist() + (tr.mean + tr.std).tolist()
            got = _y_range(traces)
        assert list(map(repr, got)) == [repr(min(values)), repr(max(values))]
        assert all(type(v) is float for v in got)

    def test_trace_without_points_keeps_only_its_legend_entry(self, tmp_path):
        first = AggregateTrace("first", [1, 2, 3], [0.0, 1.0, 0.5],
                               [0.1, 0.0, 0.2])
        empty = AggregateTrace("empty", [], [], [])
        third = AggregateTrace("third", [2, 4], [2.0, -1.0], [0.0, 0.5])
        drawn, mixed = tmp_path / "drawn.svg", tmp_path / "mixed.svg"
        render_plot([first, third], drawn)
        render_plot([first, empty, third], mixed)

        def axes(path):  # everything drawn before the first series
            text = path.read_text()
            return text[:text.index("<polyline")]
        assert axes(mixed) == axes(drawn)
        lines = mixed.read_text().splitlines()
        polylines = [ln for ln in lines if "<polyline" in ln]
        assert len(polylines) == 4
        assert [ln.count(color) for ln in polylines
                for color in ("#1b6ca8", "#c0392b", "#27ae60")] == [
            1, 0, 0] * 2 + [0, 0, 1] * 2
        # the empty trace keeps its palette slot and legend entry
        assert sum("<line" in ln and "#c0392b" in ln for ln in lines) == 1
        assert ">empty</text>" in mixed.read_text()

    def test_needs_a_trace_with_a_point(self, tmp_path):
        empty = AggregateTrace("empty", [], [], [])
        for traces in ([], [empty], [empty, empty]):
            with pytest.raises(ValueError, match="with a point"):
                render_plot(traces, tmp_path / "none.svg")
            assert not (tmp_path / "none.svg").exists()

    @settings(max_examples=200, deadline=None)
    @given(EDGE_FLOATS, EDGE_FLOATS)
    def test_point_template_is_the_contract_format(self, x, y):
        assert _POINT % (x, y) == f"{_fmt(x)},{_fmt(y)}" == f"{x:.2f},{y:.2f}"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(EDGE_FLOATS, min_size=1, max_size=8), EDGE_FLOATS,
           EDGE_FLOATS, st.sampled_from([(75, 565), (385, -330)]))
    def test_scale_on_an_array_rounds_as_on_floats(self, values, low, high,
                                                   axis):
        assume(high != low)  # render_plot widens an empty range
        with np.errstate(all="ignore"):
            got = _scale(np.array(values), low, high, *axis).tolist()
        want = [_scale(v, low, high, *axis) for v in values]
        assert list(map(_fmt, got)) == list(map(_fmt, want))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(EDGE_FLOATS, min_size=1, max_size=12))
    def test_points_at_the_float_edges_warn_nothing(self, tmp_path_factory,
                                                    means):
        trace = AggregateTrace("s", np.arange(1, len(means) + 1), means,
                               [0.0] * len(means))
        path = tmp_path_factory.mktemp("svg") / "edges.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_plot([trace], path)
        polylines = ET.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}polyline")
        for line in polylines:
            points = line.get("points").split(" ")
            assert len(points) == len(means)
            assert all(re.fullmatch(r"(-?\d+\.\d\d|nan|-?inf),"
                                    r"(-?\d+\.\d\d|nan|-?inf)", p)
                       for p in points), points

    @pytest.mark.parametrize("value", [1e16, -2.0 ** 60, 1.7e308])
    def test_constant_series_past_2_53_is_drawn(self, tmp_path, value):
        # y +- 1.0 rounds back to y there, which divided by a zero range
        trace = AggregateTrace("big", [1, 2, 3], [value] * 3, [0.0] * 3)
        render_plot([trace], tmp_path / "big.svg")
        points = ET.parse(tmp_path / "big.svg").getroot().find(
            "{http://www.w3.org/2000/svg}polyline").get("points")
        assert len({p.split(",")[1] for p in points.split(" ")}) == 1

    def test_text_is_escaped(self, tmp_path):
        config = tmp_path / "esc.cfg"
        config.write_text("\n".join([
            "[experiment]", "name = x&y<z>", "T = 20", "R = 2",
            "[environment]", "kind = bernoulli", "means = 0.2, 0.8",
            "[policy a<b&c]", "kind = exp3", "[policy plain]", "kind = ucb1",
        ]) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path), "--plot"]) == 0
        root = ET.parse(tmp_path / "x&y<z>.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "x&y<z>"  # the title
        assert texts[-2:] == ["a<b&c", "plain"]  # the legend
        first_row = (tmp_path / "x&y<z>.csv").read_text().splitlines()[1]
        assert first_row.split(",")[1] == "a<b&c"

    def test_downsampling_cap(self):
        xs = np.arange(10000)
        ys = np.arange(10000.0)
        dx, dy = _downsample(xs, ys)
        assert len(dx) <= MAX_POINTS + 1
        assert dx[-1] == 9999  # final point kept


# The configs of test_retired_options_exit_2_naming_their_field, past their
# "[experiment]" and "name = bad" lines.
GAME = ["T = 20", "R = 1", "[environment]"]
TWO_MEANS = [*GAME, "kind = bernoulli", "means = 0.2, 0.8"]
UCB1 = ["[policy u]", "kind = ucb1"]
GAP_TAKES = "[environment] takes kind, feedback, k_grid (line 7)"
BREAKER_TAKES = "[environment] takes kind, feedback (line 7)"
RECURSIVE = ["kind = recursive", "[params]"]
NO_PARAMS = "params: section not used by recursive experiments (line 4)"


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

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.00 GiB for an array with shape "
                     "(16384, 16384) and data type float64"),
         "Unable to allocate 2.00 GiB for an array with shape (16384, 16384) "
         "and data type float64"),
        (MemoryError(), "MemoryError")], ids=["numpy", "bare"])
    def test_running_out_of_memory_is_a_runtime_error(
            self, monkeypatch, capsys, error, message):
        # a config inside every size cap can still ask for more memory than
        # the machine has; a stubbed subcommand raises what numpy raises
        def run(args):
            raise error
        monkeypatch.setattr(cli, "_cmd_run", run)
        assert main(["run", "tiny.cfg"]) == 3
        assert capsys.readouterr() == ("", f"runtime error: {message}\n")

    @pytest.mark.parametrize("make, message", [
        (lambda path: path.mkdir(), "[Errno 21] Is a directory"),
        (lambda path: path.write_bytes(b"[experiment]\nname = x\xff\n"),
         "'utf-8' codec can't decode byte 0xff"),
    ], ids=["directory", "not_utf8"])
    def test_an_unreadable_config_is_a_config_error(self, tmp_path, capsys,
                                                    make, message):
        # as an unreadable --log is: exit 2, naming the argument
        config = tmp_path / "bad.cfg"
        make(config)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config {str(config)!r}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, out_line, message", [
        (["run", "tiny.cfg", "--out", "afile"], None,
         "(File exists), got 'afile' (--out)"),
        (["run", "tiny.cfg", "--out", "afile/sub"], None,
         "(Not a directory), got 'afile/sub' (--out)"),
        (["run", "tiny.cfg"], "out = afile",
         "(File exists), got 'afile' (line 3)"),
        (["bounds-compare", "--out", "afile"], None,
         "(File exists), got 'afile' (--out)"),
    ], ids=["run_out", "run_out_under_a_file", "experiment_out",
            "bounds_compare_out"])
    def test_an_unusable_out_directory_exits_2_before_the_run(
            self, tmp_path, monkeypatch, capsys, argv, out_line, message):
        def no_run(config):
            raise AssertionError("the experiment ran before --out was checked")

        monkeypatch.setattr("boundslab.lab.cli.run_experiment", no_run)
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("")
        lines = MINIMAL_GAME[:2] + ([out_line] if out_line else [])
        Path("tiny.cfg").write_text("\n".join(lines + MINIMAL_GAME[2:]) + "\n")
        assert main(argv) == 2
        assert_config_error(capsys.readouterr().err, "experiment.out: must be "
                            f"a directory that can be made {message}")
        assert sorted(os.listdir()) == ["afile", "tiny.cfg"]

    def test_run_plot_and_overrides(self, tmp_path):
        config = tmp_path / "tiny.cfg"
        config.write_text("\n".join(MINIMAL_GAME) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path),
                     "--reps", "2", "--seed", "99", "--plot"]) == 0
        assert (tmp_path / "tiny.svg").exists()

    def test_replay_plot_with_an_empty_rs_series(self, tmp_path, capsys):
        # with T = 5 some repetition's rejection sampler accepts no record,
        # so every repetition of rs_mean_reward is cut to zero points, and
        # the run says so on stderr
        config = tmp_path / "tiny_replay.cfg"
        config.write_text("\n".join([
            "[experiment]", "name = tiny_replay", "kind = replay", "T = 5",
            "R = 3", "seed = 0", "[params]", "means = 0.2, 0.5, 0.8, 0.35",
            "fixed_arm = 2"]) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path),
                     "--plot"]) == 0
        assert capsys.readouterr().err == (
            "note: rs_mean_reward: every repetition cut to 0 rounds, the "
            "shortest rejection-sampling horizon (repetition 2)\n")
        rows = (tmp_path / "tiny_replay.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"iw_value_estimate"}
        svg = (tmp_path / "tiny_replay.svg").read_text()
        assert svg.count("<polyline") == 2
        assert ">iw_value_estimate</text>" in svg
        assert ">rs_mean_reward</text>" in svg

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
        (["kind = bounds", "# the level below", "delta = 1.5"],
         "experiment.delta: must be in (0, 1), got '1.5' (line 5)"),
        (["", "T = soon"], "experiment.T: cannot parse 'soon' as int (line 4)"),
        (["kind = bounds", "[params]", "family = four_bounds", "n = abc"],
         "params.n: cannot parse 'abc' as int (line 6)"),
        (["kind = replay", "T = 30", "R = 1", "[params]", "means = 0.2, 0.8",
          "fixed_arm = 2"],
         "params.fixed_arm: must be in [0, 2), got '2' (line 8)"),
        (["T = 20", "R = 1", "[environment]", "kind = bernoulli",
          "means = 0.2, 0.8", "", "# a slow learner", "[policy h]",
          "kind = hedge", "doubling = false", "", "[policy x]", "kind = hedge",
          "doubling = abc"],
         "policy x.doubling: cannot parse 'abc' as bool (line 16)"),
        (["T = 20", "[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy  y]", "kind = greedy"],
         "policy y.kind: unknown kind 'greedy', expected one of hedge, ftl, "
         "exp3, ucb1 (line 8)"),
        (["[environment]", "kind = bernoulli_gap", "k_grid = x", "[policy u]",
          "kind = ucb1"],
         "environment.k_grid: expected comma-separated integers, got 'x' "
         "(line 5)"),
        (["[environment]", "kind = bernoulli_gap", "k_grid = 2, 1",
          "[policy u]", "kind = ucb1"],
         "environment.k_grid: must be distinct integers >= 2, got '2, 1' "
         "(line 5)"),
        (["[environment]", "kind = bernoulli_gap", "k_grid = 2, 2",
          "[policy u]", "kind = ucb1"],
         "environment.k_grid: must be distinct integers >= 2, got '2, 2' "
         "(line 5)"),
        (["[environment]", "kind = bernoulli", "means = 0.5, 1.5",
          "[policy u]", "kind = ucb1"],
         "environment.means: must be in [0, 1], got '0.5, 1.5' (line 5)"),
        (["kind = replay", "[params]", "means = 0.2, -0.1"],
         "params.means: must be in [0, 1], got '0.2, -0.1' (line 5)"),
        (["T = 3", "[environment]", "kind = ucb_breaker", "[policy u]",
          "kind = ucb1"],
         "experiment.T: must be >= 4 for ftl_breaker and ucb_breaker, got "
         "'3' (line 3)"),
        (["T = 1", "[environment]", "kind = ftl_breaker", "[policy f]",
          "kind = ftl"],
         "experiment.T: must be >= 4 for ftl_breaker and ucb_breaker, got "
         "'1' (line 3)"),
        (["T = 01", "[environment]", "kind = ftl_breaker", "[policy f]",
          "kind = ftl"],
         "experiment.T: must be >= 4 for ftl_breaker and ucb_breaker, got "
         "'01' (line 3)"),
        (["T = 03", "[environment]", "kind = ucb_breaker", "[policy u]",
          "kind = ucb1"],
         "experiment.T: must be >= 4 for ftl_breaker and ucb_breaker, got "
         "'03' (line 3)"),
        (["T = 3", "[environment]", "kind = ftl_breaker", "[policy f]",
          "kind = ftl"],
         "experiment.T: must be >= 4 for ftl_breaker and ucb_breaker, got "
         "'3' (line 3)"),
        *[(["T = 67108865", "R = 1", "[environment]", f"kind = {breaker}",
            "[policy e]", "kind = exp3"],
           "experiment.T: must be <= 2**27 // 2 = 67108864, as the "
           f"experiment.T x 2 breaker matrix holds {AT_MOST_CELLS}, got "
           "'67108865' (line 3)")
          for breaker in ("ftl_breaker", "ucb_breaker")],
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy e]", "kind = epsilon_first", "gap = 0.3"],
         "policy e.kind: unknown kind 'epsilon_first', expected one of hedge, "
         "ftl, exp3, ucb1 (line 7)"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy u]", "kind = ucb1", "bogus = 1"],
         "policy u.bogus: unknown keys ['bogus']; [policy u] takes kind, "
         "parametrization (line 8)"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8", "bogus = 1",
          "[policy u]", "kind = ucb1"],
         "environment.bogus: unknown keys ['bogus']; [environment] takes kind, "
         "feedback, means (line 6)"),
        (["kind = bounds", "[params]", "n = 20", "bogus = 1"],
         "params.bogus: unknown keys ['bogus']; [params] takes family, n, "
         "grid (line 6)"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy u]", "kind = ucb1", "parametrization = bogus"],
         "policy u.parametrization: unknown parametrization 'bogus', "
         "expected one of original, improved (line 8)"),
        (["kind = bounds", "[params]", "n = 1"],
         "params.n: must be >= 2, got '1' (line 5)"),
        (["T = 0"], "experiment.T: must be >= 1, got '0' (line 3)"),
        (["kind = pacbayes", "[params]", "m = 0"],
         "params.m: must be >= 1, got '0' (line 5)"),
        (["kind = pacbayes", "[params]", "n_grid = 0, 10"],
         "params.n_grid: must be integers >= 1, got '0, 10' (line 5)"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "feedback = bandit", "[policy h]", "kind = hedge"],
         "environment.feedback: must be full for policy h (hedge), got "
         "'bandit' (line 6)"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy u]", "kind = ucb1", "[params]", "n = 3"],
         "params: section not used by game experiments (line 8)"),
        (["kind = bounds", "[environment]", "kind = bernoulli"],
         "environment: section not used by bounds experiments (line 4)"),
        (["kind = bounds", "[policy u]", "kind = ucb1"],
         "policy u: section not used by bounds experiments (line 4)"),
        (["name = sub/x"],
         "experiment.name: must be a file name, got 'sub/x' (line 2)"),
        (["name ="], "experiment.name: must be a file name, got '' (line 2)"),
        (["[environment]", "kind = bernoulli", "means = 0.2, 0.8",
          "[policy h,x]", "kind = hedge"],
         "policy h,x: must be a label without ',', got 'h,x' (line 6)"),
        *[(["kind = bounds", "[params]", f"family = {family}", f"n = {HUGE}"],
           "params.n: must be <= 2**27, as a sample of params.n values holds "
           f"{AT_MOST_CELLS}, got '{HUGE}' (line 6)")
          for family in ("split_kl", "unexpected_bernstein")],
        (["kind = bounds", "[params]", f"grid = {HUGE}"],
         "params.grid: must be <= 2**27, as the grid of params.grid points "
         f"holds {AT_MOST_CELLS}, got '{HUGE}' (line 5)"),
        (["kind = pacbayes", "[params]", f"m = {HUGE}"],
         "params.m: must be <= 2**27, as the params.m x n loss table holds "
         f"{AT_MOST_CELLS}, got '{HUGE}' (line 5)"),
        (["kind = pacbayes", "[params]", "m = 2", f"n_grid = 10, {HUGE}"],
         "params.n_grid: must be integers with a sum <= 2**27 // params.m = "
         "67108864, as a repetition's draw of params.m x sum(params.n_grid) "
         f"loss cells holds {AT_MOST_CELLS}, got '10, {HUGE}' (line 6)"),
        (["kind = pacbayes", "R = 1", "[params]", "m = 2",
          "n_grid = 67108864, 67108864"],
         "params.n_grid: must be integers with a sum <= 2**27 // params.m = "
         "67108864, as a repetition's draw of params.m x sum(params.n_grid) "
         f"loss cells holds {AT_MOST_CELLS}, got '67108864, 67108864' "
         "(line 7)"),
        (["R = 1", "[environment]", "kind = bernoulli_gap",
          f"k_grid = 2, {HUGE}", "[policy u]", "kind = ucb1"],
         "environment.k_grid: must be integers <= 2**27 // max(experiment.R, "
         "256) = 524288, as a block of max(experiment.R, 256) rows of k loss "
         f"cells holds {AT_MOST_CELLS}, got '2, {HUGE}' (line 6)"),
        ([f"T = {HUGE}", "[environment]", "kind = bernoulli",
          "means = 0.2, 0.8", "[policy u]", "kind = ucb1"],
         "experiment.T: must be <= 2**27, as a game of experiment.T rounds "
         f"holds {AT_MOST_CELLS}, got '{HUGE}' (line 3)"),
        (["kind = replay", f"T = {HUGE}"],
         "experiment.T: must be <= 2**27 // 12 = 11184810, as a log of "
         f"experiment.T records of 12 values holds {AT_MOST_CELLS}, got "
         f"'{HUGE}' (line 4)"),
        (["T = 40", f"R = {HUGE}", "[environment]", "kind = bernoulli",
          "means = 0.2, 0.8", "[policy u]", "kind = ucb1"],
         "experiment.R: must be <= 2**27 // experiment.T = 3355443, as the "
         f"experiment.R x experiment.T series holds {AT_MOST_CELLS}, got "
         f"'{HUGE}' (line 4)"),
        (["kind = replay", "T = 100", f"R = {HUGE}"],
         "experiment.R: must be <= 2**27 // experiment.T = 1342177, as the "
         f"experiment.R x experiment.T series holds {AT_MOST_CELLS}, got "
         f"'{HUGE}' (line 5)"),
        (["[environment]", "kind = bernoulli", "means = 0.5", "[policy e]",
          "kind = exp3"],
         "environment.means: must be at least 2 values, one mean per arm, "
         "got '0.5' (line 5)"),
        (["kind = replay", "[params]", "means = 0.5", "fixed_arm = 1"],
         "params.means: must be at least 2 values, one mean per arm, "
         "got '0.5' (line 5)"),
    ], ids=["experiment", "experiment_parse", "params", "params_range",
            "policy", "policy_kind", "environment_k", "environment_k_grid",
            "environment_k_grid_repeated", "environment_means", "params_means",
            "breaker_T", "ftl_T",
            "ftl_T_raw", "breaker_T_raw", "ftl_T_3", "ftl_T_past_cap",
            "breaker_T_past_cap",
            "epsilon_first_kind", "policy_unknown_key", "environment_unknown_key",
            "params_unknown_key", "ucb1_parametrization",
            "params_n", "experiment_T", "pacbayes_m", "pacbayes_n_grid",
            "feedback",
            "params_in_game", "environment_in_bounds", "policy_in_bounds",
            "name_path", "name_empty", "policy_label_comma",
            "split_kl_n_huge", "unexpected_bernstein_n_huge", "grid_huge",
            "pacbayes_m_huge", "pacbayes_n_grid_huge",
            "pacbayes_n_grid_sum_huge", "k_grid_huge", "game_T_huge",
            "replay_T_huge", "game_R_huge", "replay_R_huge",
            "environment_means_one", "params_means_one"])
    def test_field_errors_name_their_line(self, tmp_path, capsys, lines,
                                          message):
        # a row that sets the name replaces the default "name = bad"
        name = [] if lines[0].startswith("name") else ["name = bad"]
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(["[experiment]", *name, *lines]) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert_config_error(capsys.readouterr().err, message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    @pytest.mark.parametrize("header", ["[policy]", "[policy ]", "[ policy ]"])
    def test_a_policy_without_a_label_names_its_line(self, tmp_path, capsys,
                                                     header):
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join([*MINIMAL_GAME, header, "kind = ftl"]))
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        line = len(MINIMAL_GAME) + 1
        assert capsys.readouterr().err == (
            f"config error: line {line}: empty policy label\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    @pytest.mark.parametrize("lines, per", [
        (["kind = pacbayes", f"R = {HUGE}", "[params]", "m = 2",
          "n_grid = 10, 20"], "(params.m x sum(params.n_grid)) = 2236962"),
        (["kind = recursive", f"R = {HUGE}"], "(20 x 1000) = 6710"),
        (["kind = pacbayes", "R = 4474"], "(params.m x sum(params.n_grid)) "
         "= 4473"),
        (["kind = recursive", "R = 6711"], "(20 x 1000) = 6710"),
    ], ids=["pacbayes_R_huge", "recursive_R_huge", "pacbayes_R_past_cap",
            "recursive_R_past_cap"])
    def test_repetitions_are_capped_by_the_cells_they_draw(
            self, tmp_path, capsys, monkeypatch, lines, per):
        # a run past the cap stops at experiment.R before it draws a table,
        # which a run of that many repetitions would go on doing
        def no_table(*args):
            raise AssertionError("a repetition drew a loss table")

        monkeypatch.setattr(runner, "_synthetic_table", no_table)
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(["[experiment]", "name = bad", *lines])
                          + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        raw = lines[1].partition("= ")[2]
        assert_config_error(capsys.readouterr().err, (
            f"experiment.R: must be <= 2**27 // {per}, as the experiment.R "
            f"repetitions' draw of loss cells holds {AT_MOST_CELLS}, got "
            f"'{raw}' (line 4)"))

    def test_mid_sized_size_fields_exit_2_under_a_memory_limit(self, tmp_path):
        # 10**9 floats are 8 GB: past the caps, so each run stops at its
        # field; the child runs under RLIMIT_AS, so a cap that stops holding
        # fails here at its first allocation instead of filling the host
        rows = [
            ("params.n", ["kind = bounds", "[params]", "family = split_kl",
                          "n = 1000000000"]),
            ("params.grid", ["kind = bounds", "[params]", "grid = 1000000000"]),
            ("params.n_grid", ["kind = pacbayes", "[params]", "m = 1",
                               "n_grid = 1000000000"]),
            ("experiment.R", ["kind = recursive", "R = 1000000000"]),
            ("environment.k_grid", ["R = 1", "[environment]",
                                    "kind = bernoulli_gap",
                                    "k_grid = 1000000000", "[policy u]",
                                    "kind = ucb1"]),
            ("experiment.T", ["T = 1000000000", "[environment]",
                              "kind = bernoulli", "means = 0.2, 0.8",
                              "[policy u]", "kind = ucb1"]),
            ("experiment.T", ["kind = replay", "T = 1000000000"]),
            ("experiment.R", ["T = 40", "R = 1000000000", "[environment]",
                              "kind = bernoulli", "means = 0.2, 0.8",
                              "[policy u]", "kind = ucb1"]),
            *[("experiment.T", ["T = 134217728", "R = 1", "[environment]",
                                f"kind = {breaker}", "[policy e]",
                                "kind = exp3"])
              for breaker in ("ftl_breaker", "ucb_breaker")],
        ]
        configs = []
        for i, (_, lines) in enumerate(rows):
            configs.append(tmp_path / f"mid{i}.cfg")
            configs[-1].write_text("\n".join(["[experiment]", "name = mid",
                                              *lines]) + "\n")
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from boundslab.lab.cli import main\n"
                  "print([main(['run', p, '--out', sys.argv[1]])"
                  " for p in sys.argv[2:]])")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                               *map(str, configs)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == f"{[2] * len(rows)}\n", done.stderr
        errors = done.stderr.splitlines()
        assert [error.split(":")[1].strip() for error in errors] == [
            field for field, _ in rows]

    # EXP3 has one form and one rate, so an exp3 section takes no variant
    EXP3_VARIANT = ("policy p.variant: unknown keys ['variant']; [policy p] "
                    "takes kind (line 10)")
    HEDGE_VARIANTS = "expected one of simple, tight, anytime_tight"

    @pytest.mark.parametrize("policy, message", [
        (["kind = hedge", "variant = bogus", "eta = 0.1"],
         f"policy p.variant: unknown variant 'bogus', {HEDGE_VARIANTS} "
         "(line 10)"),
        (["kind = hedge", "doubling = true", "variant = bogus"],
         f"policy p.variant: unknown variant 'bogus', {HEDGE_VARIANTS} "
         "(line 11)"),
        (["kind = exp3", "variant = rewards", "eta = 0.5"],
         "policy p.variant: unknown keys ['variant', 'eta']; [policy p] "
         "takes kind (line 10)"),
        (["kind = exp3", "variant = gains"], EXP3_VARIANT),
        (["kind = exp3", "variant = losses"], EXP3_VARIANT),
        # a Hedge section takes no rate, so doubling has none to refuse
        (["kind = hedge", "doubling = true", "eta = 0.1"],
         "policy p.eta: unknown keys ['eta']; [policy p] takes kind, "
         "variant, doubling (line 11)"),
    ], ids=["variant_with_eta", "variant_with_doubling",
            "exp3_rewards", "exp3_variant", "exp3_losses",
            "doubling_with_eta"])
    def test_bad_rates_and_variants_name_their_line(self, tmp_path, capsys,
                                                     policy, message):
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join([
            "[experiment]", "name = bad", "T = 20", "R = 1", "[environment]",
            "kind = bernoulli", "means = 0.2, 0.8", "[policy p]", *policy])
            + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert_config_error(capsys.readouterr().err, message)
        assert not (tmp_path / "bad.csv").exists()

    # options that no run sets off their default, and that the runner no
    # longer reads: each exits 2 naming its field, or the [params] section
    # that holds it in a recursive config, which reads none
    @pytest.mark.parametrize("lines, message", [
        ([*TWO_MEANS, "[policy h]", "kind = hedge", "eta = 0.1"],
         "policy h.eta: unknown keys ['eta']; [policy h] takes kind, "
         "variant, doubling (line 10)"),
        ([*TWO_MEANS, "[policy h]", "kind = hedge", "variant = anytime_simple"],
         "policy h.variant: unknown variant 'anytime_simple', expected one "
         "of simple, tight, anytime_tight (line 10)"),
        ([*TWO_MEANS, "[policy e]", "kind = exp3", "eta = 0.1"],
         "policy e.eta: unknown keys ['eta']; [policy e] takes kind "
         "(line 10)"),
        ([*TWO_MEANS, "[policy e]", "kind = exp3", "fixed_horizon = true"],
         "policy e.fixed_horizon: unknown keys ['fixed_horizon']; "
         "[policy e] takes kind (line 10)"),
        ([*TWO_MEANS, "[policy e]", "kind = exp3", "fixed_horizon = true",
          "eta = 0.1"],
         "policy e.fixed_horizon: unknown keys ['fixed_horizon', 'eta']; "
         "[policy e] takes kind (line 10)"),
        ([*GAME, "kind = bernoulli_gap", "k = 3", *UCB1],
         f"environment.k: unknown keys ['k']; {GAP_TAKES}"),
        *[([*GAME, "kind = ucb_breaker", f"parametrization = {value}", *UCB1],
           "environment.parametrization: unknown keys ['parametrization']; "
           f"{BREAKER_TAKES}")
          for value in ("improved", "original")],
        *[([*GAME, "kind = bernoulli_gap", f"{key} = {value}", *UCB1],
           f"environment.{key}: unknown keys ['{key}']; {GAP_TAKES}")
          for key, value in (("base", "0.5"), ("gap", "0.25"))],
        *[([*GAME, "kind = ucb_breaker", f"k = {k}", *UCB1],
           f"environment.k: unknown keys ['k']; {BREAKER_TAKES}")
          for k in ("2", "3")],
        *[([*RECURSIVE, line], NO_PARAMS)
          for line in ("m = 20", "n = 1000", "t_max = 4")],
        (RECURSIVE, NO_PARAMS),
    ], ids=["hedge_eta", "hedge_anytime_simple", "exp3_eta",
            "exp3_fixed_horizon", "exp3_both", "bernoulli_gap_k",
            "ucb_breaker_improved", "ucb_breaker_original",
            "bernoulli_gap_base", "bernoulli_gap_gap", "ucb_breaker_k",
            "ucb_breaker_k_3", "recursive_m", "recursive_n", "recursive_t_max",
            "recursive_params"])
    def test_retired_options_exit_2_naming_their_field(
            self, tmp_path, capsys, lines, message):
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(["[experiment]", "name = bad", *lines])
                          + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert_config_error(capsys.readouterr().err, message)
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        (MINIMAL_GAME[:6] + ["kind = bernoulli"] + MINIMAL_GAME[8:],
         "environment.means: required for bernoulli"),
        (["[experiment]", "name = big", "T = 16777216", "[environment]",
          "kind = bernoulli", "means = 0.2, 0.8", "[policy e]", "kind = exp3"],
         "experiment.R: must be <= 2**27 // experiment.T = 8, as the "
         f"experiment.R x experiment.T series holds {AT_MOST_CELLS}, got "
         "'10'"),
    ], ids=["missing_key", "default_value"])
    def test_fields_not_in_the_file_name_no_line(self, tmp_path, capsys, lines,
                                                 message):
        # a missing key and a default have no line, so the error may not
        # point at the file; a default passes the same check as a line
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(lines) + "\n")
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        assert_config_error(capsys.readouterr().err, message)

    @pytest.mark.parametrize("argv, message", [
        (["run", "tiny.cfg", "--reps", "0"],
         "experiment.R: must be >= 1, got '0' (--reps)"),
        (["run", "tiny.cfg", "--reps", "abc"],
         "experiment.R: cannot parse 'abc' as int (--reps)"),
        (["run", "tiny.cfg", "--reps", HUGE],
         "experiment.R: must be <= 2**27 // experiment.T = 3355443, as the "
         f"experiment.R x experiment.T series holds {AT_MOST_CELLS}, got "
         f"'{HUGE}' (--reps)"),
        (["run", "bounds_compare", "--reps", "3"],
         "experiment.R: unknown keys ['R']; [experiment] takes name, kind, "
         "seed, delta, out (--reps)"),
        (["run", "tiny.cfg", "--seed", "-1"],
         "experiment.seed: must be in [0, 2**64), got '-1' (--seed)"),
        (["run", "tiny.cfg", "--seed", str(2 ** 64)],
         f"experiment.seed: must be in [0, 2**64), got '{2 ** 64}' (--seed)"),
        (["bounds-compare", "--n", "1"],
         "params.n: must be >= 2, got '1' (--n)"),
        (["bounds-compare", "--grid", "1"],
         "params.grid: must be >= 2, got '1' (--grid)"),
        (["bounds-compare", "--delta", "1.5"],
         "experiment.delta: must be in (0, 1), got '1.5' (--delta)"),
        (["bounds-compare", "--delta", "abc"],
         "experiment.delta: cannot parse 'abc' as float (--delta)"),
        (["replay", "--log", "missing.log", "--policy", "ucb1", "--mode", "iw",
          "--seed", "-1"],
         "replay.seed: must be in [0, 2**64), got '-1' (--seed)"),
        (["replay", "--log", "demo.log", "--policy", "fixed:9", "--mode", "iw"],
         "replay.arm: must be in [0, 4), got '9' (--policy)"),
        (["replay", "--log", "demo.log", "--policy", "fixed:x", "--mode", "rs"],
         "replay.arm: cannot parse 'x' as int (--policy)"),
        (["replay", "--log", "demo.log", "--policy", "greedy", "--mode", "iw"],
         "replay.policy: unknown policy 'greedy', expected one of ucb1, exp3, "
         "fixed:<arm> (--policy)"),
        (["replay", "--log", "one.log", "--policy", "exp3", "--mode", "iw"],
         "replay.policy: must be ucb1 or fixed:<arm> for a log of K = 1 (exp3 "
         "takes >= 2 arms), got 'exp3' (--policy)"),
    ], ids=["run_reps", "run_reps_parse", "run_reps_huge", "run_reps_unread",
            "run_seed", "run_seed_64_bits",
            "bounds_n", "bounds_grid", "bounds_delta", "bounds_delta_parse",
            "replay_seed", "replay_arm", "replay_arm_parse", "replay_policy",
            "replay_exp3_one_arm"])
    def test_option_errors_name_the_option(self, tmp_path, monkeypatch, capsys,
                                           argv, message):
        # an option replaces the file's line, so its error names the option;
        # every command writes to the working directory unless told otherwise
        from boundslab.environments import synthesize_uniform_log, write_log

        monkeypatch.chdir(tmp_path)
        Path("tiny.cfg").write_text("\n".join(MINIMAL_GAME) + "\n")
        write_log("demo.log", 4, synthesize_uniform_log([0.2, 0.5, 0.8, 0.3],
                                                        50, 12))
        write_log("one.log", 1, synthesize_uniform_log([0.5], 50, 12))
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert_config_error(capsys.readouterr().err, message)
        assert sorted(tmp_path.iterdir()) == before

    def test_bounds_compare_command(self, tmp_path):
        assert main(["bounds-compare", "--n", "200", "--delta", "0.05",
                     "--grid", "21", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "bounds_compare.csv").read_text().splitlines()
        assert {row.split(",")[1] for row in rows[1:]} == {
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
        (IsADirectoryError, "--log: [Errno 21] Is a directory"),
        ("K=4\n0 1 0 0 0 0 0 0 0 0 0 \u00e9\n",
         "--log: 'ascii' codec can't decode byte 0xc3"),
        (f"K={2 ** 27 + 1}\n0 1 0 0 0 0 0 0 0 0 0 0\n",
         "--log: line 1: K must be at most 2**27"),
        (f"# c\nK={10 ** 20}\n0 1 0 0 0 0 0 0 0 0 0 0\n",
         "--log: line 2: K must be at most 2**27"),
    ], ids=["bad_reward", "field_count", "no_header", "missing_file",
            "directory", "not_ascii", "K_past_the_cap",
            "K_past_the_index_range"])
    def test_replay_bad_log_is_config_error(self, tmp_path, capsys, text,
                                            message):
        # a directory and a byte the reader cannot decode are the faults
        # that ``lab run`` also turns into config errors
        log = tmp_path / "bad.log"
        if text is IsADirectoryError:
            log.mkdir()
        elif text is not None:
            log.write_text(text, encoding="utf-8")
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

    def test_selftest_checks_each_preset_against_its_pins(
            self, tmp_path, capsys, monkeypatch):
        # two cheap presets: every preset's bytes are checked once already,
        # by test_preset_bytes_match_pins.  A config of a preset's name in
        # the working directory is not the preset.
        monkeypatch.setattr(cli, "preset_names", lambda: [
            "split_kl_compare", "unexpected_bernstein_compare"])
        monkeypatch.chdir(tmp_path)
        Path("split_kl_compare.cfg").write_text("\n".join(MINIMAL_GAME))
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == (
            "ok - split_kl_compare\nok - unexpected_bernstein_compare\n")

        def emit_and_flip(traces, path):
            emit_csv(traces, path)
            if Path(path).name == "split_kl_compare.csv":
                data = bytearray(Path(path).read_bytes())
                data[-2] ^= 1
                Path(path).write_bytes(bytes(data))

        monkeypatch.setattr(cli, "emit_csv", emit_and_flip)
        assert main(["selftest"]) == 3
        out, err = capsys.readouterr()
        assert out == ("FAIL - split_kl_compare: csv\n"
                       "ok - unexpected_bernstein_compare\n")
        assert err == ("runtime error: selftest: bytes differ from the "
                       "shipped pins for split_kl_compare\n")


PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"


# The fuzz gate: every shipped preset, with T and R shrunk, gets each bad
# token in each of its fields in turn.
FUZZ_TOKENS = ("", "0", "-1", "1, -1", "0.5", "nan", "inf", "x", HUGE,
               "1000000000")
# A row runs to the end with a token below every floor or past every cap.
FUZZ_TO_THE_END = ("-1", "1, -1", HUGE)
# The child runs each row until its kind's first library or numpy call, the
# point where every field has been read, unless the row is marked to run to
# the end; it prints [exit code, stderr] per row, and 1 with the traceback
# for any exception main lets through.
FUZZ_CHILD = """\
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from boundslab.lab import cli, runner

class Stop(Exception):
    pass

def stop(*args, **kwargs):
    raise Stop

class StopNumpy:
    __getattr__ = stop

real = dict(vars(runner))
stubs = {name: StopNumpy() if obj is np else stop
         for name, obj in real.items() if obj is np or callable(obj)
         and getattr(obj, "__module__", "").startswith("boundslab.")
         and not obj.__module__.startswith("boundslab.lab")}
parser = cli.build_parser()
cli.build_parser = lambda: parser
results = []
for path, full in json.loads(sys.stdin.read()):
    vars(runner).update(real if full else stubs)
    err, quiet = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(quiet):
            code = cli.main(["run", path, "--out", sys.argv[1]])
    except Stop:
        code = 0
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _shrunk_preset(preset):
    """The preset's lines with T and R, where it sets them, shrunk to 64
    and 2 (no preset sets a key of that name outside [experiment])."""
    shrunk = {"T": "T = 64", "R": "R = 2"}
    return [shrunk.get(line.partition("=")[0].strip(), line)
            for line in resolve_config(preset).read_text().splitlines()]


def _fields(lines):
    """(section, line index, key) for each key line of ``lines``, and
    (section, line index, None) for each section header."""
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
            yield section, i, None
        elif "=" in line and not line.startswith("#"):
            yield section, i, line.partition("=")[0].strip()


@functools.cache
def _probes():
    """The configs of the probes that read every key the runner reads, each
    with its ``fields`` record.  Every preset with T and R shrunk is run as
    it is, so its record holds every re-read of [experiment]; then it is run
    with an unknown key in one other section at a time, so that the run
    stops where that section closes; each environment and policy section is
    also run with each kind its ``kind`` field offers."""
    def probe(lines, i=None):
        if i is None:
            config = parse_config_lines(lines)
            run_experiment(config)
            return config
        config = parse_config_lines([*lines[:i + 1], "unread = 1",
                                     *lines[i + 1:]])
        with pytest.raises(ConfigError):
            run_experiment(config)
        return config

    # (lines, section, header line, its kind line or None) of every section
    sections, configs = [], []
    for lines in map(_shrunk_preset, preset_names()):
        fields = list(_fields(lines))
        sections += [(lines, section, i, next(
            (j for s, j, k in fields if s == section and k == "kind"), None))
            for section, i, key in fields if key is None]
        configs.append(probe(lines))
    configs += [probe(lines, i) for lines, section, i, _ in sections
                if section != "experiment"]
    kinds = {f.section.partition(" ")[0]: f.kind for config in configs
             for f in config.fields if f.key == "kind"
             and f.section != "experiment"}
    for lines, section, i, at in sections:
        for kind in kinds.get(section.partition(" ")[0], ()):
            configs.append(probe(
                [*lines[:at], f"kind = {kind}", *lines[at + 1:]], i))
    return configs


def _runner_keys():
    """{section: keys} of every key the runner reads in an ``experiment``,
    ``environment``, ``policy`` (any label) or ``params`` section, in the
    order the probes' records first hold them."""
    keys = {}
    for config in _probes():
        for f in config.fields:
            keys.setdefault(f.section.partition(" ")[0], {})[f.key] = None
    return {section: list(found) for section, found in keys.items()}


def _fuzz_rows(runner_keys):
    """(field, token, lines, full) for each bad token in each key the runner
    reads in each section of each preset: in place where the preset sets
    the key, and after the section's header where it does not.  A row runs
    to the end (``full``) when its token is in FUZZ_TO_THE_END, except in
    experiment.name, which sizes nothing."""
    for preset in preset_names():
        lines = _shrunk_preset(preset)
        fields = list(_fields(lines))
        set_here = {(section, key) for section, _, key in fields}
        for section, i, key in fields:
            edits = ([(key, i, i + 1)] if key is not None else
                     [(k, i + 1, i + 1)
                      for k in runner_keys[section.partition(" ")[0]]
                      if (section, k) not in set_here])
            for key, start, stop in edits:
                field = f"{section}.{key}"
                for token in FUZZ_TOKENS:
                    full = token in FUZZ_TO_THE_END and field != "experiment.name"
                    yield (field, token, [*lines[:start], f"{key} = {token}",
                                          *lines[stop:]], full)


def test_fuzz_gate_every_bad_token_exits_0_or_2_naming_its_field(tmp_path):
    rows = list(_fuzz_rows(_runner_keys()))
    jobs = []
    for i, (_, _, lines, full) in enumerate(rows):
        path = tmp_path / f"row{i}.cfg"
        path.write_text("\n".join(lines) + "\n")
        jobs.append((str(path), full))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", FUZZ_CHILD, str(tmp_path)],
                          input=json.dumps(jobs), env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    bad = []
    for (field, token, _, full), (code, err) in zip(
            rows, json.loads(done.stdout)):
        named = err.removeprefix("config error: ").partition(": ")[0]
        one_shape = RANGE_ERROR.match(err) or OTHER_ERROR.search(err)
        if code != 0 and not (code == 2 and one_shape and named == field):
            bad.append((field, token, full, code, err))
    assert not bad


@pytest.mark.parametrize("preset", preset_names())
def test_a_second_run_leaves_the_record_of_the_first(preset):
    # a run appends its reads to the parser's: one of each key it reads,
    # and its re-reads of the parser's T and R text, which it checks again
    config = parse_config_lines(_shrunk_preset(preset))
    parsed = list(config.fields)
    run_experiment(config)
    first = list(config.fields)
    assert first[:len(parsed)] == parsed
    again = [(f.section, f.key) for f in first[len(parsed):]]
    assert {key for section, key in again if section == "experiment"} <= {
        "T", "R"}
    read = [field for field in again if field[0] != "experiment"]
    assert len(set(read)) == len(read)
    run_experiment(config)
    assert config.fields == first


README = Path(__file__).resolve().parent.parent / "README.md"
TYPE_NAMES = {str: "text", int: "int", float: "float", bool: "bool"}


def _type_name(kind) -> str:
    """README's type of a read's kind: text, int, float, bool, choice (a
    tuple of words) or ``<type> list``."""
    if isinstance(kind, tuple):
        return "choice"
    if isinstance(kind, list):
        return f"{TYPE_NAMES[kind[0]]} list"
    return TYPE_NAMES[kind]


def _reads_by_kind():
    """({(section, kind): {key: (its first Field, the wants of all its
    reads)}}, {section: the choices of its kind field}) of the probes'
    records.  [environment] and [policy] go by their own kind field, which
    is not among their keys; [params] and [experiment] by the experiment's
    kind, whose field is among [experiment]'s keys, so an [experiment]
    key's wants gather its kind's re-reads."""
    reads, choices = {}, {}
    for config in _probes():
        kinds = {f.section: f.text for f in config.fields if f.key == "kind"}
        for f in config.fields:
            section = f.section.partition(" ")[0]
            by_experiment = section in ("experiment", "params")
            kind = config.kind if by_experiment else kinds.get(f.section)
            keys = reads.setdefault((section, kind), {})
            if f.key == "kind":
                choices[section] = f.kind
            if f.key != "kind" or section == "experiment":
                keys.setdefault(f.key, (f, []))[1].extend(f.wants)
    return reads, choices


def _readme_tables():
    """{section: rows} of README's config tables, each row a {column: cell}
    dict: each table that follows a paragraph opening with ``[<section>``.
    A blank kind cell repeats the kinds above it."""
    blocks = README.read_text(encoding="utf-8").split("\n\n")
    tables = {}
    for intro, block in zip(blocks, blocks[1:]):
        if intro.startswith("`[") and block.startswith("|"):
            header, _, *lines = [list(map(str.strip, row.split("|")[1:-1]))
                                 for row in block.splitlines()]
            rows = [dict(zip(header, cells)) for cells in lines]
            for above, row in zip(rows, rows[1:]):
                if row.get("kind") == "":
                    row["kind"] = above["kind"]
            tables[intro[2:].partition("]")[0].split()[0]] = rows
    return tables


# How README writes a cap's bound: ``2^27 / T`` for ``2**27 // experiment.T``
README_CAP_SPELLING = (("**", "^"), ("//", "/"), ("experiment.", ""),
                       ("params.", ""), ("environment.", ""))


def test_readme_config_tables_list_what_the_runner_reads():
    """For each kind of each section, README's table lists exactly the keys
    the probes read, with the type, default (``required``, or ``none`` for
    an unset optional field) and choices their first read records.  The
    environment and policy tables' kind columns hold exactly their kind
    field's choices, in order; ``all`` stands for every kind.  An
    [experiment] row's kind cell lists the experiment kinds that read its
    key, and the record must hold a read of it by exactly those.  Where a
    read's rules, or a kind's re-read of an [experiment] field
    (``config.section``), hold an ``at_least(n)`` floor (a ``want`` of
    ``>= n``), its "allowed" cell names that floor, as ``>= n`` or
    ``in [n, ...``.  Where they hold a cap (a ``_cap`` want), the cell holds
    the cap's bound, the text between ``<= `` and the first `` = `` or
    ``, as``, written with ``^`` for ``**``, ``/`` for ``//`` and no
    ``experiment.``, ``params.`` or ``environment.`` prefix:
    ``2**27 // max(experiment.R, 256)`` is ``2^27 / max(R, 256)``.  The
    other rule texts are left out: ties such as ``params.fixed_arm``'s
    range, which README states in its own words."""
    reads, choices = _reads_by_kind()
    listed = {}
    for section, rows in _readme_tables().items():
        kinds = list(dict.fromkeys(
            row["kind"].strip("`") for row in rows if "kind" in row))
        if section in ("environment", "policy"):
            assert [kind for kind in kinds if kind != "all"] == list(
                choices[section]), section
        for row in rows:
            named = re.findall(r"`(\w+)`", row.get("kind", "")) or [None]
            for each in (choices[section] if row.get("kind") == "all"
                         else named):
                keys = listed.setdefault((section, each), {})
                for key in re.findall(r"`(\w+)`", row["key"]):
                    assert key not in keys, (section, each, key)
                    keys[key] = row
    assert sorted(listed, key=str) == sorted(reads, key=str)
    for group, fields in reads.items():
        assert listed[group].keys() == fields.keys(), group
        for key, (f, wants) in fields.items():
            row = listed[group][key]
            default = "required" if f.required else f.default or "none"
            assert (row["type"], row["default"].replace("`", "")) == (
                _type_name(f.kind), default), (group, key)
            if isinstance(f.kind, tuple):
                assert re.findall(r"`(\w+)`", row["allowed"]) == list(
                    f.kind), (group, key)
            for want in wants:
                floor = re.fullmatch(r">= (\d+)", want)
                if floor:
                    assert re.search(rf"(>= |in \[){floor[1]}\b",
                                     row["allowed"]), (group, key, want)
                if want.endswith(AT_MOST_CELLS):
                    bound = re.search(r"<= (.+?)(?: = |, as )", want)[1]
                    for text, readme in README_CAP_SPELLING:
                        bound = bound.replace(text, readme)
                    assert bound in row["allowed"], (group, key, bound)


def _preset_pins():
    """{preset: {"csv": sha256, "svg": sha256}} for every preset that
    ``perfbench/pins.json`` pins."""
    pins = json.loads(PINS.read_text())
    return {name: hashes for workload in pins.values()
            for name, hashes in workload.items() if "csv" in hashes}


def test_shipped_pins_are_the_benchmark_preset_pins():
    """The package ships the preset entries of ``perfbench/pins.json``, one
    per shipped preset, so ``lab selftest`` checks the bytes the benchmark
    checks."""
    shipped = json.loads((resources.files(PRESET_PACKAGE) / "pins.json")
                         .read_text(encoding="utf-8"))
    assert shipped == _preset_pins()
    assert sorted(shipped) == preset_names()


def test_package_data_ships_every_preset_file():
    """Each ``.cfg`` and ``pins.json`` in the presets package matches a
    package-data glob of ``pyproject.toml``, so an installed ``lab
    selftest`` finds them."""
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent
                               / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"][PRESET_PACKAGE]
    names = [f"{name}.cfg" for name in preset_names()] + ["pins.json"]
    assert all(any(fnmatch.fnmatch(name, glob) for glob in globs)
               for name in names)


@pytest.fixture(scope="module")
def split_kl_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("split_kl")
    assert main(["run", "split_kl_compare", "--out", str(out), "--plot"]) == 0
    return out


@pytest.mark.parametrize("flipped", [(), ("csv",), ("svg",), ("csv", "svg")],
                         ids=["none", "csv", "svg", "both"])
def test_pin_mismatches_names_each_changed_artifact(split_kl_outputs,
                                                    tmp_path, flipped):
    for artifact in ("csv", "svg"):
        name = f"split_kl_compare.{artifact}"
        data = bytearray((split_kl_outputs / name).read_bytes())
        if artifact in flipped:
            data[len(data) // 2] ^= 1
        (tmp_path / name).write_bytes(bytes(data))
    assert pin_mismatches(tmp_path, "split_kl_compare") == list(flipped)


@pytest.mark.parametrize("preset", preset_names())
def test_preset_bytes_match_pins(preset, tmp_path):
    """``lab run <preset> --plot`` writes the pinned CSV and SVG bytes, so a
    change that moves any output digit fails here."""
    assert main(["run", preset, "--out", str(tmp_path), "--plot"]) == 0
    assert pin_mismatches(tmp_path, preset) == []


@pytest.mark.parametrize("argv, preset", [
    (["bounds-compare"], "bounds_compare"),
    (["run", "hedge_vs_ftl", "--seed", "1", "--reps", "10", "--plot"],
     "hedge_vs_ftl"),
], ids=["bounds_compare_defaults", "hedge_vs_ftl_overrides"])
def test_options_read_as_their_lines(argv, preset, tmp_path):
    """Options that give a preset's own values write the preset's pinned
    bytes: ``bounds-compare``'s defaults are ``bounds_compare.cfg``'s lines,
    and ``--seed 1 --reps 10`` are ``hedge_vs_ftl.cfg``'s, so an option and
    a file line are read the same way."""
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert pin_mismatches(tmp_path, preset) == []


def test_bound_presets_match_pins_under_baseline_cpu_dispatch(tmp_path):
    """The bound presets reach their bytes through numpy's CPU-dispatched
    and BLAS kernels.  Their pin check is rerun in one subprocess with the
    AVX2/AVX-512 dispatch and the OpenBLAS core narrowed to the baseline, so
    bytes that hold only on a wide-SIMD CPU fail here."""
    presets = sorted(name for name, hashes in
                     json.loads(PINS.read_text())["bounds"].items()
                     if "csv" in hashes)
    src = str(PINS.parent.parent / "src")
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
               OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import sys\nfrom boundslab.lab.cli import main\n"
              "sys.exit(max(main(['run', p, '--out', sys.argv[1], '--plot'])"
              " for p in sys.argv[2:]))")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                           *presets], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert len(presets) == 5
    for preset in presets:
        assert pin_mismatches(tmp_path, preset) == [], preset


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


# Policy methods the tracer still names but the library retired: every
# replay policy takes its rounds through ``act`` and ``update_reward``,
# which the tracer wraps and counts in the same per-layer records.
RETIRED_TRACER_TARGETS = [
    f"boundslab.online_policies.{cls}.{method}"
    for cls in ("EXP3Policy", "UCB1Policy", "FixedPolicy")
    for method in ("update", "replay_update")]


def test_tracer_finds_every_target():
    """The benchmark's tracer wraps library functions and policy methods by
    name; one that is renamed or deleted would read 0 in every per-layer
    metric it feeds, and shows up here in ``missing``.  Only the retired
    policy methods may be missing."""
    with _bench_module("tracer").Tracer() as tracer:
        assert tracer.missing == RETIRED_TRACER_TARGETS

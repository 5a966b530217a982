"""Per-layer tracing of the library from outside, by wrapping its functions.

``Tracer.install`` replaces each target function or method where it is
defined, and every other ``boundslab`` module's binding of the same object
(``runner.play_bandit``, ``concentration.kl_inverse``, ...); ``uninstall``
puts every original back.  No library file is changed.

Cost model.  Per-call layers (policy ``act``/``update``, environment cells,
``ProbVec``, ``kl_inverse``) only add to a counter record: calls, self time,
a unit count and inclusive time.  Spans (name, start, end, parent) are kept
only at coarse boundaries: the benchmark's operations, ``run_experiment``,
game loops, replays, breakers and minimiser calls.  Spans of one operation
share its name as their id.  Everything stays in memory until the run ends.

Self time.  A call's self time is its duration minus the time of the wrapped
calls it made.  A call re-entering the same record (``UCB1Policy.update``
calling ``update_reward``) is passed through uncounted.  So the self times of
all records plus the benchmark's own time add up to the pass's wall time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

CALLS, SELF_S, UNITS, INCL_S, EXTRA = range(5)


def _count_row(rec, args, result):
    rec[UNITS] += len(result)


def _count_iters(rec, args, result):
    rec[UNITS] += len(result.trace) - 1


def _count_replay(rec, args, result):
    # every record of the log is scrolled; the transcript holds the rounds
    # the policy actually played (all of them for IW, the accepted for RS)
    rec[UNITS] += len(args[1])
    rec[EXTRA] += len(result)


_POLICIES = {
    "hedge": ("HedgePolicy", ("act",), ("observe",)),
    "ftl": ("FTLPolicy", ("act",), ("observe",)),
    "exp3": ("EXP3Policy", ("act",),
             ("update", "update_reward", "replay_update")),
    "ucb1": ("UCB1Policy", ("act",),
             ("update", "update_reward", "replay_update")),
    "fixed": ("FixedPolicy", ("act",),
              ("update", "update_reward", "replay_update")),
}
POLICY_KINDS = tuple(_POLICIES)


def _targets():
    """(module, qualified name, record, is a span, unit hook) for every
    wrapped function.  Unit hooks run after a counted call; without one a
    call adds one unit."""
    env, div = "boundslab.environments", "boundslab.divergences"
    conc, pb = "boundslab.concentration", "boundslab.pac_bayes"
    out = [
        ("boundslab.lab.config", "parse_config_lines", "lab.config", False, None),
        ("boundslab.lab.runner", "run_experiment", "lab.runner", True, None),
        ("boundslab.lab.csvio", "emit_csv", "lab.csvio", False, None),
        ("boundslab.lab.svgplot", "render_plot", "lab.svgplot", False, None),
        (env, "BernoulliEnv.loss", "environments.cell", False, None),
        (env, "BernoulliEnv.row", "environments.cell", False, _count_row),
        (env, "MatrixEnv.loss", "environments.cell", False, None),
        (env, "MatrixEnv.row", "environments.cell", False, _count_row),
        (env, "play_full_information", "environments.game_loop", True, None),
        (env, "play_bandit", "environments.game_loop", True, None),
        (env, "make_ftl_breaker", "environments.breaker", True, None),
        (env, "make_ucb_breaker", "environments.breaker", True, None),
        (env, "synthesize_uniform_log", "environments.log", True, None),
        (env, "write_log", "environments.log", True, None),
        (env, "parse_log", "environments.log", True, None),
        (env, "replay_importance_weighted", "environments.replay_iw", True,
         _count_replay),
        (env, "replay_rejection_sampling", "environments.replay_rs", True,
         _count_replay),
        (div, "ProbVec.__init__", "divergences.probvec", False, None),
        (div, "kl_inverse", "divergences.kl_inverse", False, None),
        (div, "binary_kl", "divergences.binary_kl", False, None),
        (div, "categorical_kl", "divergences.categorical_kl", False, None),
        (div, "pinsker_relaxations", "divergences.pinsker", False, None),
        (conc, "Sample.__init__", "concentration.sample", False, None),
        (conc, "hoeffding_radius", "concentration.hoeffding", False, None),
        (conc, "kl_mean_bound", "concentration.kl", False, None),
        (conc, "split_kl_mean_bound", "concentration.split_kl", False, None),
        (conc, "empirical_bernstein_mean_bound", "concentration.bernstein",
         False, None),
        (conc, "unexpected_bernstein_mean_bound", "concentration.bernstein",
         False, None),
        (pb, "LossTable.__init__", "pac_bayes.table", False, None),
        (pb, "pb_kl_bound", "pac_bayes.pb_kl", False, None),
        (pb, "alternating_minimize", "pac_bayes.alt_min", True, _count_iters),
        (pb, "_alternating_minimize_core", "pac_bayes.alt_min", True,
         _count_iters),
        (pb, "recursive_pb", "pac_bayes.recursive", True, None),
    ]
    for kind, (cls, acts, updates) in _POLICIES.items():
        for method in acts:
            out.append(("boundslab.online_policies", f"{cls}.{method}",
                        f"online_policies.{kind}.act", False, None))
        for method in updates:
            out.append(("boundslab.online_policies", f"{cls}.{method}",
                        f"online_policies.{kind}.update", False, None))
    return out


class Tracer:
    """Counter records and spans for one traced pass at a time."""

    def __init__(self):
        self.records: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.operation = None
        self._root = self._record("bench")
        self._stack = [[self._root, 0.0]]
        self._operation_start = 0.0
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _record(self, name: str) -> list:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = [0, 0.0, 0, 0.0, 0, name]
        return rec

    def reset(self) -> None:
        """Zero every record and drop the spans, keeping the wrappers."""
        for rec in self.records.values():
            rec[:5] = [0, 0.0, 0, 0.0, 0]
        self.spans.clear()
        self._stack[:] = [[self._root, 0.0]]

    def _wrap(self, fn, rec, is_span, hook):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is rec:
                return fn(*args, **kwargs)
            frame = [rec, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec[CALLS] += 1
                rec[SELF_S] += elapsed - frame[1]
                rec[INCL_S] += elapsed
                parent[1] += elapsed
            if hook is None:
                rec[UNITS] += 1
            else:
                hook(rec, args, result)
            if is_span:
                spans.append((tracer.operation, rec[5], start, start + elapsed,
                              parent[0][5]))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every target.  A target the library no longer has is listed
        in ``missing`` and its metrics read 0."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        try:
            for module_name, qualname, rec_name, is_span, hook in _targets():
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(original, self._record(rec_name), is_span,
                                     hook)
                self._patch(owner, attr, original, wrapper)
                if not owner_name:
                    self._patch_bindings(module, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch_bindings(self, module, original, wrapper) -> None:
        """Also wrap other boundslab modules' imports of ``original``."""
        for name, other in list(sys.modules.items()):
            if (other is None or other is module
                    or not name.startswith("boundslab")):
                continue
            for binding, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, binding, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def begin_operation(self, name: str) -> None:
        self.operation = name
        self._operation_start = time.perf_counter()

    def end_operation(self) -> None:
        self.spans.append((self.operation, "operation", self._operation_start,
                           time.perf_counter(), None))
        self.operation = None

    def bench_self_s(self, wall_s: float) -> float:
        """The part of a pass's wall time spent outside wrapped calls."""
        return wall_s - self._stack[0][1]

    def operation_seconds(self, layer: str) -> dict:
        """Summed span durations of one layer, per operation."""
        out: dict = {}
        for operation, name, start, end, _ in self.spans:
            if name == layer:
                out[operation] = out.get(operation, 0.0) + end - start
        return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, presets, sweep_ks) -> dict:
    """The per-layer metrics of one traced pass, by metric name."""
    rec = tracer.records

    def get(name, field):
        return rec[name][field] if name in rec else 0

    def module_self(prefix):
        return sum(r[SELF_S] for name, r in rec.items()
                   if name.startswith(prefix + "."))

    m = {}
    rounds = 0
    for kind in POLICY_KINDS:
        act, update = f"online_policies.{kind}.act", f"online_policies.{kind}.update"
        m[f"{act}_us"] = _ratio(get(act, SELF_S), get(act, CALLS), 1e6)
        m[f"{update}_us"] = _ratio(get(update, SELF_S), get(update, CALLS), 1e6)
        m[f"online_policies.{kind}.rounds"] = get(act, CALLS)
        rounds += get(act, CALLS)
    m["online_policies.self_s"] = module_self("online_policies")

    m["divergences.probvec.count"] = get("divergences.probvec", CALLS)
    m["divergences.probvec.per_round"] = _ratio(
        get("divergences.probvec", CALLS), rounds)
    m["divergences.kl_inverse.calls"] = get("divergences.kl_inverse", CALLS)
    m["divergences.kl_inverse.us"] = _ratio(
        get("divergences.kl_inverse", SELF_S), get("divergences.kl_inverse", CALLS),
        1e6)
    m["divergences.binary_kl.per_kl_inverse"] = _ratio(
        get("divergences.binary_kl", CALLS), get("divergences.kl_inverse", CALLS))
    m["divergences.self_s"] = module_self("divergences")

    sweep = tracer.operation_seconds("operation")
    for K in sweep_ks:
        m[f"concentration.split_kl.K{K}_s"] = sweep.get(f"split_kl_sweep[K={K}]", 0.0)
    m["concentration.calls"] = sum(r[CALLS] for name, r in rec.items()
                                   if name.startswith("concentration."))
    m["concentration.self_s"] = module_self("concentration")

    iters = get("pac_bayes.alt_min", UNITS)
    m["pac_bayes.alt_min.calls"] = get("pac_bayes.alt_min", CALLS)
    m["pac_bayes.alt_min.iters"] = iters
    m["pac_bayes.alt_min.us_per_iter"] = _ratio(
        get("pac_bayes.alt_min", INCL_S), iters, 1e6)
    m["pac_bayes.recursive.self_s"] = get("pac_bayes.recursive", SELF_S)
    m["pac_bayes.self_s"] = module_self("pac_bayes")

    cells = get("environments.cell", UNITS)
    m["environments.cells"] = cells
    m["environments.cell_us"] = _ratio(get("environments.cell", SELF_S), cells, 1e6)
    m["environments.game_loop.self_s"] = get("environments.game_loop", SELF_S)
    m["environments.breaker_s"] = get("environments.breaker", SELF_S)
    m["environments.log_s"] = get("environments.log", SELF_S)
    m["environments.replay.self_s"] = (get("environments.replay_iw", SELF_S)
                                       + get("environments.replay_rs", SELF_S))
    m["environments.replay.records"] = (get("environments.replay_iw", UNITS)
                                        + get("environments.replay_rs", UNITS))
    m["environments.replay.accept_ratio"] = _ratio(
        get("environments.replay_rs", EXTRA), get("environments.replay_rs", UNITS))

    m["lab.config.parse_s"] = get("lab.config", SELF_S)
    m["lab.runner.self_s"] = get("lab.runner", SELF_S)
    per_experiment = tracer.operation_seconds("lab.runner")
    for preset in presets:
        m[f"lab.runner.{preset}.s"] = per_experiment.get(preset, 0.0)
    m["lab.csvio.emit_s"] = get("lab.csvio", SELF_S)
    m["lab.svgplot.render_s"] = get("lab.svgplot", SELF_S)
    return m


def metric_table(presets, sweep_ks) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.
    ``*_s`` layer times are self times, except the inclusive
    ``lab.runner.<experiment>.s`` and ``concentration.split_kl.K<K>_s``."""
    rows = []
    for kind in POLICY_KINDS:
        rows += [(f"online_policies.{kind}.act_us", "us", "lower"),
                 (f"online_policies.{kind}.update_us", "us", "lower"),
                 (f"online_policies.{kind}.rounds", "count", "lower")]
    rows += [
        ("online_policies.self_s", "s", "lower"),
        ("divergences.probvec.count", "count", "lower"),
        ("divergences.probvec.per_round", "ratio", "lower"),
        ("divergences.kl_inverse.calls", "count", "lower"),
        ("divergences.kl_inverse.us", "us", "lower"),
        ("divergences.binary_kl.per_kl_inverse", "ratio", "lower"),
        ("divergences.self_s", "s", "lower"),
    ]
    rows += [(f"concentration.split_kl.K{K}_s", "s", "lower") for K in sweep_ks]
    rows += [
        ("concentration.calls", "count", "lower"),
        ("concentration.self_s", "s", "lower"),
        ("pac_bayes.alt_min.calls", "count", "lower"),
        ("pac_bayes.alt_min.iters", "count", "lower"),
        ("pac_bayes.alt_min.us_per_iter", "us", "lower"),
        ("pac_bayes.recursive.self_s", "s", "lower"),
        ("pac_bayes.self_s", "s", "lower"),
        ("environments.cells", "count", "lower"),
        ("environments.cell_us", "us", "lower"),
        ("environments.game_loop.self_s", "s", "lower"),
        ("environments.breaker_s", "s", "lower"),
        ("environments.log_s", "s", "lower"),
        ("environments.replay.self_s", "s", "lower"),
        ("environments.replay.records", "count", "lower"),
        ("environments.replay.accept_ratio", "ratio", "higher"),
        ("lab.config.parse_s", "s", "lower"),
        ("lab.runner.self_s", "s", "lower"),
    ]
    rows += [(f"lab.runner.{preset}.s", "s", "lower") for preset in presets]
    rows += [
        ("lab.csvio.emit_s", "s", "lower"),
        ("lab.csvio.bytes", "bytes", "lower"),
        ("lab.svgplot.render_s", "s", "lower"),
        ("lab.svgplot.bytes", "bytes", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return rows

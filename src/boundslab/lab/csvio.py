"""CSV emission and ingestion for aggregated experiment traces.

Byte-level contract: UTF-8, LF line endings, header "t,series,mean,std",
'.' decimal separator, 12 significant digits, rows ordered series-major then
t-ascending.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER = "t,series,mean,std"


@dataclass
class AggregateTrace:
    """Mean and population standard deviation of one named series across
    repetitions, indexed by a time/grid axis ``t``.  ``note`` says what the
    runner did to the series that its rows do not show; it is not written."""

    name: str
    t: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    note: str = ""

    def __post_init__(self):
        self.t = np.asarray(self.t)
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if not len(self.t) == len(self.mean) == len(self.std):
            raise ValueError(f"trace {self.name!r}: axis length mismatch")
        if len(self.std) and self.std.min() < 0:
            raise ValueError(f"trace {self.name!r}: negative std")


def aggregate(name: str, runs, t=None) -> AggregateTrace:
    """Stack per-repetition series (rows) into a mean/std trace."""
    stacked = np.asarray(runs, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("runs must be a repetition x time array")
    if t is None:
        t = np.arange(1, stacked.shape[1] + 1)
    return AggregateTrace(name, t, stacked.mean(axis=0), stacked.std(axis=0))


def emit_csv(traces, path) -> None:
    """Write traces (iterable of AggregateTrace, order preserved) to a CSV
    file under the byte-level contract above, one series at a time so only
    that series' rows are held as text.  ``tolist`` gives Python numbers, and
    each row is one ``%`` template, the series name in it with ``%``
    doubled: ``%d`` and ``%.12g`` print what ``int`` and ``f"{x:.12g}"`` do."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(HEADER + "\n")
        for trace in traces:
            row = "%d," + trace.name.replace("%", "%%") + ",%.12g,%.12g\n"
            handle.write("".join(map(row.__mod__, zip(
                trace.t.tolist(), trace.mean.tolist(), trace.std.tolist()))))


def parse_csv(path) -> list[AggregateTrace]:
    """Read a trace CSV back; series keep file order."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != HEADER:
        raise ValueError(f"{path}: missing header {HEADER!r}")
    data: dict[str, list] = {}  # series in order of first appearance
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields")
        t, series, mean, std = parts
        data.setdefault(series, []).append((int(t), float(mean), float(std)))
    return [AggregateTrace(series, *map(np.array, zip(*rows)))
            for series, rows in data.items()]

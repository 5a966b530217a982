"""CSV emission of aggregated experiment traces.

Byte-level contract: UTF-8, LF line endings, header "t,series,mean,std",
'.' decimal separator, 12 significant digits, rows ordered series-major then
t-ascending.

Memory: ``aggregate`` reduces one float64 copy of a series in place, and
``emit_csv`` formats and writes ``CHUNK_ROWS`` rows at a time, so neither
holds more than one copy of a series, nor a whole series as text.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER = "t,series,mean,std"
CHUNK_ROWS = 4096  # rows formatted and written at a time


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


def aggregate(name: str, runs, t) -> AggregateTrace:
    """Reduce per-repetition series (rows) to a mean/std trace on the axis
    ``t``, one value a column.  ``runs`` is copied once, as float64, and
    never changed; the copy is reduced in place, by the operations
    ``ndarray.mean`` and ``std`` make in their order, so each double is the
    one ``mean(axis=0)`` and ``std(axis=0)`` give."""
    work = np.array(runs, dtype=float)
    if work.ndim != 2:
        raise ValueError("runs must be a repetition x time array")
    R = len(work)
    mean = np.add.reduce(work, axis=0) / R
    work -= mean
    work *= work
    std = np.sqrt(np.add.reduce(work, axis=0) / R)
    return AggregateTrace(name, t, mean, std)


def emit_csv(traces, path) -> None:
    """Write traces (iterable of AggregateTrace, order preserved) to a CSV
    file under the byte-level contract above, ``CHUNK_ROWS`` rows at a time,
    so only that many rows are held as numbers and text.  ``tolist`` gives
    Python numbers, and each row is one ``%`` template, the series name in
    it with ``%`` doubled: ``%d`` and ``%.12g`` print what ``int`` and
    ``f"{x:.12g}"`` do."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(HEADER + "\n")
        for trace in traces:
            row = "%d," + trace.name.replace("%", "%%") + ",%.12g,%.12g\n"
            for start in range(0, len(trace.t), CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                handle.write("".join(map(row.__mod__, zip(
                    trace.t[rows].tolist(), trace.mean[rows].tolist(),
                    trace.std[rows].tolist()))))


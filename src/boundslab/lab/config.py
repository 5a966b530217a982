"""Strict line-based experiment configuration.

Format: "[section]" headers, "key = value" pairs, blank lines and full-line
'#' comments.  Sections are "[experiment]", "[environment]", "[params]" and
any number of "[policy <label>]" blocks.  Unknown keys and duplicate keys
are errors; every error message carries the offending line or field path,
and an error on a field read from a line names that line too.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for any syntactic or semantic configuration problem.

    ``path`` is the field the error is about, such as ``params.n`` or
    ``policy hedge.eta``, or None.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path

    def name_line(self, lines: dict) -> None:
        """Append ``(line N)`` to the message when ``lines`` maps the
        error's field to the source line it was read from."""
        line = lines.get(self.path)
        if line is not None:
            self.args = (f"{self.args[0]} (line {line})",)


EXPERIMENT_KINDS = ("game", "bounds", "pacbayes", "recursive", "replay")
_EXPERIMENT_KEYS = {"name", "kind", "T", "R", "seed", "delta", "out"}


@dataclass
class ExperimentConfig:
    name: str
    kind: str = "game"
    T: int = 1000
    R: int = 10
    seed: int = 0
    delta: float = 0.05
    out: str | None = None
    environment: dict = field(default_factory=dict)
    policies: list = field(default_factory=list)  # (label, {key: value})
    params: dict = field(default_factory=dict)
    # source line of each field read from a file: {"params.n": 14, ...}
    lines: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment.kind: unknown kind {self.kind!r}",
                              "experiment.kind")
        if self.T < 1:
            raise ConfigError(f"experiment.T: must be >= 1, got {self.T}",
                              "experiment.T")
        if self.R < 1:
            raise ConfigError(f"experiment.R: must be >= 1, got {self.R}",
                              "experiment.R")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("experiment.seed: must be a 64-bit integer",
                              "experiment.seed")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(
                f"experiment.delta: must be in (0, 1), got {self.delta}",
                "experiment.delta")


def _parse_sections(lines):
    """Split raw lines into {section: {key: value}} preserving order, and
    map each key's field path (``params.n``, ``policy x.eta``) to its line."""
    sections: dict[str, dict] = {}
    key_lines: dict[str, int] = {}
    current: dict | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if not header:
                raise ConfigError(f"line {lineno}: empty section header")
            if header in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{header}]")
            sections[header] = {}
            current = sections[header]
            section = (f"policy {header[len('policy '):].strip()}"
                       if header.startswith("policy ") else header)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
        key_lines[f"{section}.{key}"] = lineno
    return sections, key_lines


def _convert(raw: str, kind: type, path: str, minimum=None):
    """``raw`` as a ``kind``, no smaller than ``minimum`` if one is given;
    anything else is a ConfigError naming ``path``."""
    want = kind.__name__ if minimum is None else f"{kind.__name__} >= {minimum}"
    try:
        if kind is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        value = kind(raw)
        if minimum is not None and value < minimum:
            raise ValueError(raw)
        return value
    except ValueError:
        raise ConfigError(f"{path}: cannot parse {raw!r} as {want}",
                          path) from None


def parse_float_list(raw: str, path: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{path}: expected comma-separated numbers, got {raw!r}",
                          path) from None


def parse_int_list(raw: str, path: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{path}: expected comma-separated integers, got {raw!r}",
                          path) from None


def parse_config_lines(lines) -> ExperimentConfig:
    sections, key_lines = _parse_sections(lines)
    try:
        config = _build_config(sections)
    except ConfigError as exc:
        exc.name_line(key_lines)
        raise
    config.lines = key_lines
    return config


def _build_config(sections: dict) -> ExperimentConfig:
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    exp = sections.pop("experiment")
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"experiment: unknown keys {sorted(unknown)}")
    if "name" not in exp:
        raise ConfigError("experiment.name: required")
    config = ExperimentConfig(
        name=exp["name"],
        kind=exp.get("kind", "game"),
        T=_convert(exp.get("T", "1000"), int, "experiment.T"),
        R=_convert(exp.get("R", "10"), int, "experiment.R"),
        seed=_convert(exp.get("seed", "0"), int, "experiment.seed"),
        delta=_convert(exp.get("delta", "0.05"), float, "experiment.delta"),
        out=exp.get("out"),
    )
    config.environment = sections.pop("environment", {})
    config.params = sections.pop("params", {})
    for header in list(sections):
        if header.startswith("policy "):
            label = header[len("policy "):].strip()
            if not label:
                raise ConfigError(f"[{header}]: policy label required")
            config.policies.append((label, sections.pop(header)))
        else:
            raise ConfigError(f"unknown section [{header}]")
    if config.kind == "game" and not config.policies:
        raise ConfigError("game experiments need at least one [policy] section")
    if config.kind == "game" and not config.environment:
        raise ConfigError("game experiments need an [environment] section")
    return config


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_lines(handle)

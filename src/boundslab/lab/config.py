"""Strict line-based experiment configuration.

Format: "[section]" headers, "key = value" pairs, blank lines and full-line
'#' comments.  Sections are "[experiment]", "[environment]", "[params]" and
any number of "[policy <label>]" blocks.  Every section is read field by
field through one reader, ``Section``; a key it never reads and a duplicate
key are errors.  Every error message carries the offending line or field
path, and an error on a field read from a line names that line too.
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

    def name_source(self, sources: dict) -> None:
        """Append ``(line N)``, or the option that set the field, when
        ``sources`` maps the error's field to where it was read from."""
        source = sources.get(self.path)
        if source is not None:
            self.args = (f"{self.args[0]} ({source})",)


EXPERIMENT_KINDS = ("game", "bounds", "pacbayes", "recursive", "replay")


@dataclass
class ExperimentConfig:
    name: str
    kind: str = "game"
    T: int = 1000
    R: int = 10
    seed: int = 0
    delta: float = 0.05
    out: str | None = None
    environment: dict = field(default_factory=dict)  # raw {key: value}
    policies: list = field(default_factory=list)  # (label, {key: value})
    params: dict = field(default_factory=dict)
    # where each field (and section) was read from: {"params.n": "line 14"}
    sources: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # the fields a command-line option can set; the reader checks the rest
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


class Section:
    """One section's raw ``key = value`` strings, read a field at a time:
    ``read`` converts a value (see ``_convert``), checks ``ok`` on it and
    marks the key as known; ``close`` rejects every key never read."""

    def __init__(self, name: str, raw: dict):
        self.name, self.raw, self.known = name, raw, []

    def error(self, key: str, text: str) -> ConfigError:
        return ConfigError(f"{self.name}.{key}: {text}", f"{self.name}.{key}")

    def read(self, key: str, kind=str, default=None, *, minimum=None,
             ok=None, want: str = "", required: str | None = None):
        self.known.append(key)
        if key not in self.raw:
            if required is not None:
                raise self.error(key, f"required {required}")
            return default
        value = _convert(self.raw[key], kind, f"{self.name}.{key}", minimum)
        if ok is not None and not ok(value):
            raise self.error(key, f"must be {want}, got {self.raw[key]!r}")
        return value

    def close(self) -> None:
        unread = [key for key in self.raw if key not in self.known]
        if unread:
            raise self.error(unread[0], f"unknown keys {unread}; [{self.name}] "
                                        f"takes {', '.join(self.known)}")


def _parse_sections(lines):
    """Split raw lines into {section: {key: value}} preserving order, and
    map each section (``params``, ``policy x``) and each key's field path
    (``params.n``, ``policy x.eta``) to its line."""
    sections: dict[str, dict] = {}
    sources: dict[str, str] = {}
    current: dict | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if not header:
                raise ConfigError(f"line {lineno}: empty section header")
            section = (f"policy {header[len('policy '):].strip()}"
                       if header.startswith("policy ") else header)
            if section in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{section}]")
            current = sections[section] = {}
            sources[section] = f"line {lineno}"
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
        sources[f"{section}.{key}"] = f"line {lineno}"
    return sections, sources


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(raw: str, kind, path: str, minimum=None):
    """``raw`` as a ``kind``: ``str``, ``bool``, ``int``, ``float``, one of a
    tuple of strings, or ``[int]`` / ``[float]`` for a comma-separated list
    of at least one value.  An int's ``minimum`` is part of its kind.
    Anything else is a ConfigError naming ``path``."""
    if kind is str:
        return raw
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"{path}: unknown {path.rpartition('.')[2]} "
                              f"{raw!r}, expected one of {', '.join(kind)}", path)
        return raw
    many = isinstance(kind, list)
    each = kind[0] if many else kind

    def error(floor=""):
        if many:
            noun = "integers" if each is int else "numbers"
            return ConfigError(f"{path}: expected comma-separated {noun}{floor}, "
                               f"got {raw!r}", path)
        return ConfigError(f"{path}: cannot parse {raw!r} as "
                           f"{each.__name__}{floor}", path)

    try:
        values = ([each(tok) for tok in raw.split(",") if tok.strip()] if many
                  else [_BOOLS[raw.lower()] if each is bool else each(raw)])
    except (KeyError, ValueError):
        raise error() from None
    if not values:
        raise error()
    if minimum is not None and min(values) < minimum:
        raise error(f" >= {minimum}")
    return values if many else values[0]


def parse_config_lines(lines) -> ExperimentConfig:
    sections, sources = _parse_sections(lines)
    try:
        if "experiment" not in sections:
            raise ConfigError("missing [experiment] section")
        exp = Section("experiment", sections.pop("experiment"))
        config = ExperimentConfig(
            name=exp.read("name", required="for every experiment"),
            kind=exp.read("kind", EXPERIMENT_KINDS, "game"),
            T=exp.read("T", int, 1000, minimum=1),
            R=exp.read("R", int, 10),
            seed=exp.read("seed", int, 0),
            delta=exp.read("delta", float, 0.05),
            out=exp.read("out"),
            environment=sections.get("environment", {}),
            params=sections.get("params", {}),
            sources=sources,
        )
        exp.close()
        uses = ("environment", "policy") if config.kind == "game" else ("params",)
        for name, raw in sections.items():
            section = "policy" if name.startswith("policy ") else name
            if section not in ("environment", "params", "policy"):
                raise ConfigError(f"unknown section [{name}]")
            if section not in uses:
                raise ConfigError(f"{name}: section not used by {config.kind} "
                                  f"experiments", name)
            if section == "policy":
                config.policies.append((name[len("policy "):], raw))
        if config.kind == "game" and not config.policies:
            raise ConfigError("game experiments need at least one [policy] section")
    except ConfigError as exc:
        exc.name_source(sources)
        raise
    return config


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_lines(handle)

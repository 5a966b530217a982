"""Strict line-based experiment configuration.

Format: "[section]" headers, "key = value" pairs, blank lines and full-line
'#' comments.  Sections are "[experiment]", "[environment]", "[params]" and
any number of "[policy <label>]" blocks.  One reader, ``Section``, reads every
field and records it in ``fields``; a key it never reads and a duplicate key
are errors.  A line, a command-line option and a default all enter as raw text
and pass one converter, ``_convert``, with the field's rules: one ordered list
of ``(ok, want)`` pairs (its floor, its cap, its ties to other fields).  The
first that fails reads ``<path>: must be <want>, got '<raw>'``; a type error
reads ``<path>: cannot parse '<raw>' as <type>``.  Either ends with
``(line N)`` or ``(--option)`` when the field has one.
"""
from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for any syntactic or semantic configuration problem.

    ``path`` is the field the error is about, such as ``params.n`` or
    ``policy hedge.doubling``, or None.
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


def at_least(floor: int) -> tuple:
    """The rule of an int field's floor."""
    return lambda x: x >= floor, f">= {floor}"


SEED = (lambda seed: 0 <= seed < 2 ** 64, "in [0, 2**64)")

# The outputs are written as ``<name>.csv`` and ``<name>.svg`` in one
# directory, so a name is one non-empty path component.
FILE_NAME = (lambda name: (name != "" and "\0" not in name
                           and os.path.basename(name) == name), "a file name")

# The [experiment] keys each kind reads besides name, kind, seed and out; any
# other is an unknown key.  Every kind takes seed, as ``lab run --seed`` sets
# it on any config.
READS = {"game": ("T", "R"), "bounds": ("delta",), "pacbayes": ("R", "delta"),
         "recursive": ("R", "delta"), "replay": ("T", "R")}

# One read of a field, as ``Section.read`` records it in a config's ``fields``
Field = namedtuple("Field", "section key kind default wants required text")


@dataclass
class ExperimentConfig:
    """A config as ``parse_config_lines`` reads it; sections stay raw, and
    ``fields`` holds a ``Field`` per ``Section.read`` of it, in read order."""
    name: str
    kind: str
    T: int | None  # None where the kind does not read it (see READS)
    R: int | None
    seed: int
    delta: float | None
    out: str | None
    environment: dict  # raw {key: value}
    params: dict
    # where each field (and section) was read from: {"params.n": "line 14"}
    sources: dict = field(repr=False, compare=False)
    fields: list = field(repr=False, compare=False)
    policies: list = field(default_factory=list)  # (label, {key: value})

    def section(self, name: str) -> Section:
        """``name`` over the text each of its fields was read from, to check
        that text again; its reads are recorded in ``fields`` too."""
        return Section(name, {f.key: f.text for f in self.fields
                              if f.section == name}, self.fields)


class Section:
    """One section's raw ``key = value`` strings, read a field at a time:
    ``read`` records the text it reads (the default's when the key is unset,
    else None) as a ``Field`` in ``fields`` and converts it (see
    ``_convert``); ``close`` rejects a key ``fields`` holds no read of."""

    def __init__(self, name: str, raw: dict, fields: list):
        self.name, self.raw, self.fields = name, raw, fields

    def error(self, key: str, text: str) -> ConfigError:
        return ConfigError(f"{self.name}.{key}: {text}", f"{self.name}.{key}")

    def read(self, key: str, kind=str, default: str | None = None, *rules,
             required: str | None = None):
        """``key``'s value, checked against ``rules`` in order; else
        ``default``, written as a line would be so it passes the same
        rules; else None, or ``required``'s error."""
        raw = self.raw.get(key, default)
        self.fields.append(Field(self.name, key, kind, default,
                                 [want for _, want in rules], required, raw))
        if raw is None:
            if required is not None:
                raise self.error(key, f"required {required}")
            return None
        return _convert(raw, kind, f"{self.name}.{key}", *rules)

    def close(self) -> None:
        known = [f.key for f in self.fields if f.section == self.name]
        unread = [key for key in self.raw if key not in known]
        if unread:
            raise self.error(unread[0], f"unknown keys {unread}; [{self.name}] "
                                        f"takes {', '.join(known)}")


def _parse_sections(lines):
    """Split raw lines into {section: {key: value}} preserving order, and
    map each section (``params``, ``policy x``) and each key's field path
    (``params.n``, ``policy x.doubling``) to its line."""
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
            if header == "policy":
                raise ConfigError(f"line {lineno}: empty policy label")
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


def _convert(raw: str, kind, path: str, *rules):
    """``raw`` as a ``kind``: ``str``, ``bool``, ``int``, ``float``, one of a
    tuple of strings, or ``[int]`` / ``[float]`` for a comma-separated list
    of at least one value; each rule's ``ok`` must hold on it, in order
    (its ``want`` says what it asks).  Anything else is a ConfigError
    naming ``path``."""
    if isinstance(kind, tuple) and raw not in kind:
        raise ConfigError(f"{path}: unknown {path.rpartition('.')[2]} "
                          f"{raw!r}, expected one of {', '.join(kind)}", path)
    value = (raw if kind is str or isinstance(kind, tuple)
             else _number(raw, kind, path))
    for ok, want in rules:
        if not ok(value):
            raise ConfigError(f"{path}: must be {want}, got {raw!r}", path)
    return value


def _number(raw: str, kind, path: str):
    many = isinstance(kind, list)
    each = kind[0] if many else kind
    try:
        values = ([each(tok) for tok in raw.split(",") if tok.strip()] if many
                  else [_BOOLS[raw.lower()] if each is bool else each(raw)])
    except (KeyError, ValueError):
        values = []
    if values:
        return values if many else values[0]
    if many:
        noun = "integers" if each is int else "numbers"
        raise ConfigError(f"{path}: expected comma-separated {noun}, "
                          f"got {raw!r}", path)
    raise ConfigError(f"{path}: cannot parse {raw!r} as {each.__name__}", path)


def parse_config_lines(lines, options=None) -> ExperimentConfig:
    """Read a config from its lines.  ``options`` maps a field path such as
    ``experiment.seed`` to the (raw value, option) that overrides its line,
    so the option is read as the line would be; a None value is no option."""
    sections, sources = _parse_sections(lines)
    try:
        if "experiment" not in sections:
            raise ConfigError("missing [experiment] section")
        for path, (raw, option) in (options or {}).items():
            section, _, key = path.partition(".")
            if raw is not None:
                sections[section][key], sources[path] = raw, option
        exp = Section("experiment", sections.pop("experiment"), [])
        name = exp.read("name", str, None, FILE_NAME,
                        required="for every experiment")
        kind = exp.read("kind", tuple(READS), "game")

        def read(key, *args):
            return exp.read(key, *args) if key in READS[kind] else None

        config = ExperimentConfig(
            name=name,
            kind=kind,
            T=read("T", int, "1000", at_least(1)),
            R=read("R", int, "10", at_least(1)),
            seed=exp.read("seed", int, "0", SEED),
            delta=read("delta", float, "0.05",
                       (lambda delta: 0.0 < delta < 1.0, "in (0, 1)")),
            out=exp.read("out"),
            environment=sections.get("environment", {}),
            params=sections.get("params", {}),
            sources=sources,
            fields=exp.fields,
        )
        exp.close()
        uses = {"game": ("environment", "policy"), "recursive": ()}.get(
            config.kind, ("params",))
        for name, raw in sections.items():
            section = "policy" if name.startswith("policy ") else name
            if section not in ("environment", "params", "policy"):
                raise ConfigError(f"unknown section [{name}]")
            if section not in uses:
                raise ConfigError(f"{name}: section not used by {config.kind} "
                                  f"experiments", name)
            if section == "policy":
                # a label is a series name, and a CSV row splits at ","
                label = name[len("policy "):]
                if "," in label:
                    raise ConfigError(f"{name}: must be a label without ',', "
                                      f"got {label!r}", name)
                config.policies.append((label, raw))
        if config.kind == "game" and not config.policies:
            raise ConfigError("game experiments need at least one [policy] section")
    except ConfigError as exc:
        exc.name_source(sources)
        raise
    return config


def parse_config(path, options=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_lines(handle, options)

"""Pipeline configuration: one INI-style file, overridable per key.

Sections: [data] (column mapping, lookback, split, normalization mode),
[sources] (feature name -> "path:column"), [train], [hpo], [output],
[architectures] (the roster) and one optional [arch.<label>] per entry
carrying that architecture's units/learning rate/batch size.

Architecture labels encode their stack: `lstm3` is three LSTM layers,
`gru-lstm2` is the GRU->LSTM hybrid block repeated twice (four layers).
`units` lists one value per layer, in order.

Each section is one dataclass holding its defaults: [train] a
train.TrainConfig, [hpo] an hpo.TpeConfig, [data] and [output] fields of
PipelineConfig, [arch.<label>] an ArchDef.  An [arch.<label>]'s learning
rate and batch size are resolved against [train] at load, so TrainConfig's
checks cover them too.  An unknown key or section or a value its dataclass
rejects is a ConfigError that names the section; so is a file that
configparser cannot read (a duplicate section or key, a key before the
first header, a line with no `=`), naming the file and line.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, fields, replace

from .hpo import TpeConfig
from .train import TrainConfig

ARCH_PATTERN = re.compile(r"^(lstm-gru|gru-lstm|lstm|gru)(\d+)$")


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


def parse_arch_label(label: str) -> tuple[str, ...]:
    """Cell kinds for a roster label, e.g. 'gru-lstm2' -> (gru, lstm, gru, lstm)."""
    m = ARCH_PATTERN.match(label)
    if not m:
        raise ConfigError(
            f"architecture label {label!r} must match (lstm|gru|gru-lstm|lstm-gru)<depth>")
    pattern, depth = m.group(1), int(m.group(2))
    if depth < 1:
        raise ConfigError(f"architecture {label!r}: depth must be >= 1")
    block = tuple(pattern.split("-"))
    return block * depth


@dataclass
class ArchDef:
    """[arch.<label>]: a roster entry; its rate and batch fall back to [train]'s."""

    label: str
    cell_kinds: tuple
    learning_rate: float
    batch_size: int
    units: tuple | None = None


@dataclass
class PipelineConfig:
    sources: dict                   # name -> (path, column)
    target: str
    date_column: str = "Date"
    indicators: tuple = ("MACD", "RSI")
    lookback: int = 10
    split: float = 0.80
    fit_on: str = "train_only"
    train: TrainConfig = field(default_factory=TrainConfig)
    hpo: TpeConfig = field(default_factory=TpeConfig)
    output_dir: str = "out"
    architectures: dict = field(default_factory=dict)   # label -> ArchDef

    def __post_init__(self):
        if not 0 < self.split < 1:
            raise ValueError("split must be a number in (0, 1)")

    def arch(self, label: str) -> ArchDef:
        if label not in self.architectures:
            raise ConfigError(
                f"unknown architecture {label!r}; roster: {sorted(self.architectures)}")
        return self.architectures[label]


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(delimiters=("=",), interpolation=None,
                                     inline_comment_prefixes=("#",))


def apply_overrides(cp: configparser.ConfigParser, overrides: list[str]) -> None:
    """Apply repeated `section.key=value` strings on top of the file.

    `arch.lstm1.units=8` sets `units` in [arch.lstm1]: labels hold no dot.
    """
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override {item!r}: key must be section.key")
        split = target.rsplit if target.startswith("arch.") else target.split
        section, key = (name.strip() for name in split(".", 1))
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value.strip())


def _names(raw: str) -> tuple:
    """A comma list; empty means none."""
    return tuple(s.strip() for s in raw.split(",") if s.strip())


_TYPE_PARSERS = {"int": int, "float": float, "str": str}


def _field_parsers(cls) -> dict:
    return {f.name: _TYPE_PARSERS[f.type] for f in fields(cls)}


DATA_KEYS = {"date_column": str, "target": str, "indicators": _names,
             "lookback": int, "split": float, "fit_on": str}
ARCH_KEYS = {"units": lambda raw: tuple(int(u) for u in _names(raw)),
             "learning_rate": float, "batch_size": int}
SECTIONS = {"data": DATA_KEYS, "train": _field_parsers(TrainConfig),
            "hpo": _field_parsers(TpeConfig), "output": {"dir": str},
            "architectures": {"roster": _names}}


def _read(cp, section: str, parsers: dict) -> dict:
    """Parsed values of the keys present in `section`; unknown keys raise.

    An empty scalar is left out, so its dataclass default applies; an
    empty comma list means none.
    """
    out = {}
    for key in cp.options(section) if cp.has_section(section) else ():
        if key not in parsers:
            raise ConfigError(f"[{section}] unknown key {key!r}; "
                              f"expected one of {sorted(parsers)}")
        parse = parsers[key]
        raw = cp.get(section, key).strip()
        if raw == "" and parse is not _names:
            continue
        try:
            out[key] = parse(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    return out


def _checked(section: str, make, *args, **values):
    """make(*args, **values); a ValueError its checks raise is a ConfigError naming `section`."""
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def load_config(path, overrides: list[str] | None = None) -> PipelineConfig:
    cp = _parser()
    cp.optionxform = str
    try:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        apply_overrides(cp, overrides or [])
    except configparser.Error as exc:     # its message can span lines; an error is one line
        raise ConfigError(" ".join(str(exc).split())) from None
    for section in cp.sections():
        if section not in SECTIONS and section != "sources" and not section.startswith("arch."):
            raise ConfigError(f"unknown section [{section}]; expected one of "
                              f"{sorted([*SECTIONS, 'sources'])} or arch.<label>")

    if not cp.has_section("sources"):
        raise ConfigError("config needs a [sources] section")
    sources = {}
    for name, value in cp.items("sources"):
        if ":" not in value:
            raise ConfigError(f"[sources] {name}: expected 'path:column', got {value!r}")
        p, col = value.rsplit(":", 1)
        sources[name] = (p.strip(), col.strip())

    data = _read(cp, "data", DATA_KEYS)
    if "target" not in data:
        raise ConfigError("[data] target is required")

    train = _checked("train", TrainConfig, **_read(cp, "train", SECTIONS["train"]))
    hpo = _checked("hpo", TpeConfig, **_read(cp, "hpo", SECTIONS["hpo"]))
    labels = _read(cp, "architectures", SECTIONS["architectures"]).get("roster", ())
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate architecture labels in roster: {list(labels)}")
    architectures = {}
    for label in labels:
        kinds = parse_arch_label(label)
        section = f"arch.{label}"
        values = _read(cp, section, ARCH_KEYS)
        units = values.pop("units", None)
        if units is not None and len(units) != len(kinds):
            raise ConfigError(f"[{section}] units: {len(units)} values for {len(kinds)} layers")
        if units is not None and min(units) < 1:
            raise ConfigError(f"[{section}] units must be >= 1, got {list(units)}")
        run = _checked(section, replace, train, **values)
        architectures[label] = ArchDef(label, kinds, run.learning_rate, run.batch_size, units)

    output = {f"output_{k}": v for k, v in _read(cp, "output", SECTIONS["output"]).items()}
    return _checked("data", PipelineConfig, sources=sources, train=train, hpo=hpo,
                    architectures=architectures, **data, **output)

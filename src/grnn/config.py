"""Pipeline configuration: one INI-style file, overridable per key.

Sections: [data] (column mapping, lookback, split, normalization mode),
[sources] (feature name -> "path:column"), [train], [hpo], [output],
[architectures] (the roster) and one optional [arch.<label>] per entry
carrying that architecture's units/learning rate/batch size.

Architecture labels encode their stack: `lstm3` is three LSTM layers,
`gru-lstm2` is the GRU->LSTM hybrid block repeated twice (four layers).
`units` lists one value per layer, in order.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

from .hpo import TpeConfig

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
    label: str
    cell_kinds: tuple
    units: tuple | None = None
    learning_rate: float | None = None
    batch_size: int | None = None


@dataclass
class TrainDefaults:
    optimizer: str = "nadam"
    activation: str = "tanh"
    max_epochs: int = 200
    patience: int = 5
    learning_rate: float = 0.001
    batch_size: int = 32
    shuffle: bool = True
    clip_norm: float | None = None
    repeats: int = 48
    seed: int = 0
    r2_bar: float = 0.90


@dataclass
class HpoSettings:
    tpe: TpeConfig = field(default_factory=TpeConfig)
    max_epochs: int = 40
    train_seed: int = 0
    units_low: int = 32
    units_high: int = 512
    lr_low: float = 1e-4
    lr_high: float = 1e-2
    batch_low: int = 16
    batch_high: int = 128


@dataclass
class PipelineConfig:
    sources: dict                   # name -> (path, column)
    target: str
    date_column: str = "Date"
    indicators: tuple = ("MACD", "RSI")
    lookback: int = 10
    split: float = 0.80
    fit_on: str = "train_only"
    train: TrainDefaults = field(default_factory=TrainDefaults)
    hpo: HpoSettings = field(default_factory=HpoSettings)
    output_dir: str = "out"
    architectures: dict = field(default_factory=dict)   # label -> ArchDef

    def arch(self, label: str) -> ArchDef:
        if label not in self.architectures:
            raise ConfigError(
                f"unknown architecture {label!r}; roster: {sorted(self.architectures)}")
        return self.architectures[label]


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(delimiters=("=",), interpolation=None,
                                     inline_comment_prefixes=("#",))


def apply_overrides(cp: configparser.ConfigParser, overrides: list[str]) -> None:
    """Apply repeated `section.key=value` strings on top of the file."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override {item!r}: key must be section.key")
        section, key = target.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), key.strip(), value.strip())


def _get(cp, section, key, conv, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    if raw == "":
        return default
    try:
        return conv(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _get_bool(cp, section, key, default):
    return _get(cp, section, key,
                lambda s: {"true": True, "false": False, "1": True, "0": False}[s.lower()],
                default)


def load_config(path, overrides: list[str] | None = None) -> PipelineConfig:
    cp = _parser()
    cp.optionxform = str
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    apply_overrides(cp, overrides or [])

    if not cp.has_section("sources"):
        raise ConfigError("config needs a [sources] section")
    sources = {}
    for name, value in cp.items("sources"):
        if ":" not in value:
            raise ConfigError(f"[sources] {name}: expected 'path:column', got {value!r}")
        p, col = value.rsplit(":", 1)
        sources[name] = (p.strip(), col.strip())

    target = _get(cp, "data", "target", str, None)
    if target is None:
        raise ConfigError("[data] target is required")
    # "indicators =" (present but empty) means none; absent means the default
    if cp.has_option("data", "indicators"):
        raw_indicators = cp.get("data", "indicators")
    else:
        raw_indicators = "MACD,RSI"
    indicators = tuple(s.strip() for s in raw_indicators.split(",") if s.strip())

    train = TrainDefaults(
        optimizer=_get(cp, "train", "optimizer", str, "nadam"),
        activation=_get(cp, "train", "activation", str, "tanh"),
        max_epochs=_get(cp, "train", "max_epochs", int, 200),
        patience=_get(cp, "train", "patience", int, 5),
        learning_rate=_get(cp, "train", "learning_rate", float, 0.001),
        batch_size=_get(cp, "train", "batch_size", int, 32),
        shuffle=_get_bool(cp, "train", "shuffle", True),
        clip_norm=_get(cp, "train", "clip_norm", float, None),
        repeats=_get(cp, "train", "repeats", int, 48),
        seed=_get(cp, "train", "seed", int, 0),
        r2_bar=_get(cp, "train", "r2_bar", float, 0.90),
    )
    hpo = HpoSettings(
        tpe=TpeConfig(
            n_trials=_get(cp, "hpo", "n_trials", int, 60),
            n_startup_random=_get(cp, "hpo", "n_startup", int, 20),
            gamma=_get(cp, "hpo", "gamma", float, 0.25),
            n_ei_candidates=_get(cp, "hpo", "n_ei_candidates", int, 24),
            bandwidth_floor=_get(cp, "hpo", "bandwidth_floor", float, 0.01),
            seed=_get(cp, "hpo", "seed", int, 0),
        ),
        max_epochs=_get(cp, "hpo", "max_epochs", int, 40),
        train_seed=_get(cp, "hpo", "train_seed", int, 0),
        units_low=_get(cp, "hpo", "units_low", int, 32),
        units_high=_get(cp, "hpo", "units_high", int, 512),
        lr_low=_get(cp, "hpo", "lr_low", float, 1e-4),
        lr_high=_get(cp, "hpo", "lr_high", float, 1e-2),
        batch_low=_get(cp, "hpo", "batch_low", int, 16),
        batch_high=_get(cp, "hpo", "batch_high", int, 128),
    )

    roster = _get(cp, "architectures", "roster", str, "")
    labels = [s.strip() for s in roster.split(",") if s.strip()]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate architecture labels in roster: {labels}")
    architectures = {}
    for label in labels:
        kinds = parse_arch_label(label)
        section = f"arch.{label}"
        units = lr = batch = None
        if cp.has_section(section):
            raw_units = _get(cp, section, "units", str, None)
            if raw_units is not None:
                units = tuple(int(u.strip()) for u in raw_units.split(","))
                if len(units) != len(kinds):
                    raise ConfigError(
                        f"[{section}] units: {len(units)} values for {len(kinds)} layers")
            lr = _get(cp, section, "learning_rate", float, None)
            batch = _get(cp, section, "batch_size", int, None)
        architectures[label] = ArchDef(label=label, cell_kinds=kinds, units=units,
                                       learning_rate=lr, batch_size=batch)

    return PipelineConfig(
        sources=sources,
        target=target,
        date_column=_get(cp, "data", "date_column", str, "Date"),
        indicators=indicators,
        lookback=_get(cp, "data", "lookback", int, 10),
        split=_get(cp, "data", "split", float, 0.80),
        fit_on=_get(cp, "data", "fit_on", str, "train_only"),
        train=train,
        hpo=hpo,
        output_dir=_get(cp, "output", "dir", str, "out"),
        architectures=architectures,
    )

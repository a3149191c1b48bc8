"""Experiment configuration: a flat file of ``key=value`` lines.

The fields of :class:`ExperimentConfig` are the file's one schema: its keys,
their canonical order and, by each default's type, how a value parses.  The
config hash is the SHA-256 of the canonical text, one line per field in field
order, so identical configs hash identically on any platform.

Values no run varies are class constants, not keys: the class count of the
toy label set and both batch sizes.  A config file, constructor call or
``dataclasses.replace`` cannot set them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import ClassVar

from .toydata import NUM_CLASSES


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


def domain_name(domain: str) -> str:
    """The name a target domain's artifacts and record keys carry: a builtin
    name as is, a dataset directory by its last path component."""
    return Path(domain).name


@dataclass
class ExperimentConfig:
    num_classes: ClassVar[int] = NUM_CLASSES
    mtdt_batch: ClassVar[int] = 2  # source images per MTDT step, and images per target
    task_batch: ClassVar[int] = 4  # restyled and target images per adapt step
    # experiment
    seed: int = 7
    image_size: int = 32
    out_dir: str = "runs/default"
    # data: builtin domain names or dataset directories
    source: str = "source"
    targets: tuple[str, ...] = ("dusk", "night")
    train_scenes: int = 256
    eval_scenes: int = 64
    mtdt_iterations: int = 1200  # transfer-network training steps
    adapt_iterations: int = 900  # task-network self-training steps
    # region selection
    bars_m: int = 300
    bars_source: bool = True
    bars_target: bool = True

    def validate(self) -> "ExperimentConfig":
        # every value must have its default's type, which config.txt carries back
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise ConfigError(f"{f.name} must be of type {type(f.default).__name__}, "
                                  f"got {value!r}")
        if not all(type(t) is str for t in self.targets):
            raise ConfigError(f"targets must be strings, got {self.targets!r}")
        # SplitMix64 keeps a seed's low 64 bits, so any other seed aliases one of these
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ["mtdt_iterations", "adapt_iterations", "bars_m"]:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.image_size < 16 or self.image_size % 4:
            raise ConfigError(f"image_size must be >= 16 and divisible by 4, got {self.image_size}")
        if not self.targets:
            raise ConfigError("at least one target domain is required")
        # every string value must come back unchanged from its config.txt line
        for name in ["out_dir", "source"]:
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        for name, value in [("out_dir", self.out_dir), ("source", self.source),
                            *(("targets", t) for t in self.targets)]:
            if "".join(value.splitlines()) != value:
                raise ConfigError(f"{name} must not contain a line break, got {value!r}")
            if value != value.strip():
                raise ConfigError(f"{name} must not start or end with whitespace, got {value!r}")
        commas = [t for t in self.targets if "," in t]
        if commas:
            raise ConfigError(f"targets must not contain a comma, got {commas}")
        names = [domain_name(t) for t in self.targets]
        if {"", ".."} & set(names) or len(set(names)) < len(names):
            raise ConfigError(f"target domains need distinct names (the last path "
                              f"component of a dataset dir), got {names}")
        if "source" in names:
            raise ConfigError(f"no target domain may be named 'source', got {names}: "
                              f"transfer_grid/source_XX.ppm holds the source previews")
        if self.train_scenes < 2 or self.eval_scenes < 1:
            raise ConfigError("need at least 2 train and 1 eval scenes")
        return self


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(v)
    return str(v)


def _parse_value(name: str, raw: str):
    kind = type(_DEFAULTS[name])
    try:
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError("expected true/false")
            return raw == "true"
        if kind is int:
            return int(raw)
        if kind is tuple:
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {name}: {raw!r} ({e})") from None


def canonical_text(cfg: ExperimentConfig) -> str:
    return "".join(f"{key}={_format_value(getattr(cfg, key))}\n" for key in _DEFAULTS)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(canonical_text(cfg), encoding="utf-8")


def check_out_dir(cfg: ExperimentConfig) -> None:
    """Refuse an output directory whose ``config.txt`` holds another config,
    so that one directory never mixes the artifacts of two configs.  The
    stored ``out_dir`` is not compared: it names this directory under one
    spelling, and ``runs/x/``, ``./runs/x`` or the absolute path name it too.
    A ``config.txt`` that does not parse or is not a file is refused, and a
    directory without one is accepted.  So is a path that does not exist
    yet, unless the nearest existing part of it is not a directory: no run
    could write there."""
    out = Path(cfg.out_dir)
    for part in (out, *out.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"output path {out}: {part} exists and is not a directory")
            break
    path = out / "config.txt"
    if not path.exists():
        return
    if not path.is_file():
        raise ConfigError(f"output path {out}: {path} exists and is not a file")
    try:
        stored = parse_config(path.read_text(encoding="utf-8", errors="replace"))
    except ConfigError as e:
        raise ConfigError(f"{path} holds a config that does not parse ({e}); refusing "
                          f"to mix the artifacts of two configs in one output directory")
    if canonical_text(replace(stored, out_dir=cfg.out_dir)) != canonical_text(cfg):
        raise ConfigError(f"{path} holds another config; refusing to mix the "
                          f"artifacts of two configs in one output directory")


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return ExperimentConfig(**values).validate()


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: byte {e.start} is not UTF-8") from None
    return parse_config(text)

"""Experiment configuration: a flat key=value file with bracketed sections.

The on-disk format is dependency-free and canonicalizable: sections and keys
always serialize in the fixed order below, floats print via repr (which
round-trips exactly), and the config hash is the SHA-256 of that canonical
text, so identical configs hash identically on any platform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .toydata import BUILTIN_DOMAINS, CLASS_NAMES


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    # experiment
    seed: int = 7
    image_size: int = 32
    num_classes: int = 4
    out_dir: str = "runs/default"
    # data: builtin domain names or dataset directories
    source: str = "source"
    targets: tuple[str, ...] = ("dusk", "night")
    train_scenes: int = 256
    eval_scenes: int = 64
    # statistics phase; 0 means one full pass over each target training set
    stats_updates: int = 0
    # transfer-network training
    mtdt_lr: float = 1e-3
    mtdt_beta1: float = 0.9
    mtdt_beta2: float = 0.999
    mtdt_weight_decay: float = 1e-5
    mtdt_iterations: int = 1200
    mtdt_batch: int = 2
    # task-network training
    task_lr: float = 2.5e-4
    task_momentum: float = 0.9
    task_weight_decay: float = 5e-4
    adapt_iterations: int = 900
    task_batch: int = 4
    # region selection
    bars_m: int = 300
    bars_source: bool = True
    bars_target: bool = True
    dump_images: bool = False

    def validate(self) -> "ExperimentConfig":
        positive = ["mtdt_lr", "mtdt_beta1", "mtdt_beta2", "task_lr", "task_momentum"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        nonneg = ["mtdt_weight_decay", "task_weight_decay", "mtdt_iterations",
                  "adapt_iterations", "stats_updates", "bars_m"]
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.image_size < 16 or self.image_size % 4:
            raise ConfigError(f"image_size must be >= 16 and divisible by 4, got {self.image_size}")
        if not self.targets:
            raise ConfigError("at least one target domain is required")
        if self.train_scenes < 2 or self.eval_scenes < 1:
            raise ConfigError("need at least 2 train and 1 eval scenes")
        if self.mtdt_batch < 1 or self.task_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        if (all(name in BUILTIN_DOMAINS for name in (self.source, *self.targets))
                and self.num_classes != len(CLASS_NAMES)):
            raise ConfigError(
                f"num_classes must be {len(CLASS_NAMES)} for the builtin domains "
                f"({', '.join(CLASS_NAMES)}), got {self.num_classes}"
            )
        return self


_SECTIONS: list[tuple[str, list[str]]] = [
    ("experiment", ["seed", "image_size", "num_classes", "out_dir"]),
    ("data", ["source", "targets", "train_scenes", "eval_scenes"]),
    ("stats", ["stats_updates"]),
    ("mtdt", ["mtdt_lr", "mtdt_beta1", "mtdt_beta2", "mtdt_weight_decay",
              "mtdt_iterations", "mtdt_batch"]),
    ("task", ["task_lr", "task_momentum", "task_weight_decay",
              "adapt_iterations", "task_batch"]),
    ("bars", ["bars_m", "bars_source", "bars_target"]),
    ("output", ["dump_images"]),
]

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(v)
    return repr(v) if isinstance(v, float) else str(v)


def _parse_value(name: str, raw: str):
    t = _FIELD_TYPES[name]
    try:
        if t == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true/false")
            return raw == "true"
        if t == "int":
            return int(raw)
        if t == "float":
            return float(raw)
        if t.startswith("tuple"):
            parts = tuple(p.strip() for p in raw.split(",") if p.strip())
            return parts
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {name}: {raw!r} ({e})") from None


def canonical_text(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in _SECTIONS:
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key}={_format_value(getattr(cfg, key))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(canonical_text(cfg), encoding="utf-8")


def parse_config(text: str) -> ExperimentConfig:
    known = {key for _, keys in _SECTIONS for key in keys}
    sections = {name for name, _ in _SECTIONS}
    values: dict[str, object] = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if current is None:
            raise ConfigError(f"line {lineno}: key {key!r} before any section header")
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return ExperimentConfig(**values).validate()


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))

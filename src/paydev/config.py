"""Experiment configuration: defaults, flat key=value files, flag overrides."""

from __future__ import annotations

import math
from typing import NamedTuple

from paydev.errors import SchemaError


class Config(NamedTuple):
    """The settings; each one's type is its default's type."""

    seed: int = 1
    min_commits: int = 100
    feature_mode: str = "all"  # all | no_volume
    folds: int = 10
    repeats: int = 10
    coverage: float = 0.5
    email_domains: tuple[str, ...] = ("mozilla.com",)
    products: tuple[str, ...] = ()
    logit_l2: float = 1e-8
    logit_max_iter: int = 100
    logit_tol: float = 1e-8
    tree_minsplit: int = 20
    tree_cp: float = 0.01
    tree_maxdepth: int = 30
    forest_trees: int = 500
    forest_mtry: int = 0  # 0 means floor(sqrt(p))

    def echo(self) -> str:
        parts = []
        for name, value in zip(self._fields, self):
            if isinstance(value, tuple):
                value = ",".join(value)
            parts.append(f"{name}={value}")
        return " ".join(parts)

    def as_dict(self) -> dict:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in zip(self._fields, self)}


_POSITIVE_FIELDS = {
    "seed",
    "min_commits",
    "folds",
    "repeats",
    "coverage",
    "logit_l2",
    "logit_max_iter",
    "logit_tol",
    "tree_minsplit",
    "tree_maxdepth",
    "forest_trees",
}

# the counts the compiled forest takes, as int64
_INT64_FIELDS = ("tree_minsplit", "tree_maxdepth", "forest_trees", "forest_mtry")


def _coerce(name: str, raw: str, line=None):
    kind = type(Config._field_defaults[name])
    try:
        if kind is tuple:
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        return kind(raw)
    except ValueError:
        raise SchemaError(f"bad value for {name}: {raw!r}", line=line) from None


def validate(cfg: Config) -> Config:
    for name, value in zip(cfg._fields, cfg):
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(f"config field {name} must be finite, got {value}")
    for name in _POSITIVE_FIELDS:
        if getattr(cfg, name) <= 0:
            raise SchemaError(f"config field {name} must be positive")
    if cfg.folds < 2:
        raise SchemaError("config field folds must be at least 2")
    if cfg.feature_mode not in ("all", "no_volume"):
        raise SchemaError(f"feature_mode must be all or no_volume, got {cfg.feature_mode!r}")
    if cfg.tree_cp < 0 or cfg.forest_mtry < 0:
        raise SchemaError("tree_cp and forest_mtry must be >= 0")
    for name in _INT64_FIELDS:
        if getattr(cfg, name) >= 2**63:
            raise SchemaError(f"config field {name} must be below 2**63")
    if not 0 < cfg.coverage <= 1:
        raise SchemaError("coverage must be in (0, 1]")
    return cfg


def load_config(fileobj) -> Config:
    """Apply `key=value` lines (# comments allowed) on top of the defaults."""
    cfg = Config()
    for lineno, line in enumerate(fileobj, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, raw = text.partition("=")
        key = key.strip()
        if not sep:
            raise SchemaError("expected key=value", line=lineno)
        if key not in Config._fields:
            raise SchemaError(f"unknown config key {key!r}", line=lineno)
        cfg = cfg._replace(**{key: _coerce(key, raw.strip(), line=lineno)})
    return cfg


def apply_overrides(cfg: Config, **overrides) -> Config:
    """Non-None keyword overrides win over the config file."""
    updates = {key: value for key, value in overrides.items() if value is not None}
    return cfg._replace(**updates) if updates else cfg

"""Experiment configuration: defaults, flat key=value files, flag overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from paydev.errors import SchemaError


@dataclass(frozen=True)
class Config:
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(value)
            parts.append(f"{f.name}={value}")
        return " ".join(parts)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


_TUPLE_FIELDS = {"email_domains", "products"}
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
    kind = Config.__dataclass_fields__[name].type
    try:
        if name in _TUPLE_FIELDS:
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise SchemaError(f"bad value for {name}: {raw!r}", line=line) from None


def validate(cfg: Config) -> Config:
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(f"config field {f.name} must be finite, got {value}")
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
    known = {f.name for f in fields(Config)}
    for lineno, line in enumerate(fileobj, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, raw = text.partition("=")
        key = key.strip()
        if not sep:
            raise SchemaError("expected key=value", line=lineno)
        if key not in known:
            raise SchemaError(f"unknown config key {key!r}", line=lineno)
        cfg = replace(cfg, **{key: _coerce(key, raw.strip(), line=lineno)})
    return cfg


def apply_overrides(cfg: Config, **overrides) -> Config:
    """Non-None keyword overrides win over the config file."""
    updates = {key: value for key, value in overrides.items() if value is not None}
    return replace(cfg, **updates) if updates else cfg

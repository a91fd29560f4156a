"""Run configuration: line-oriented `key = value` files with sections.

Format: `#` starts a comment, `[section]` opens a section, and each
setting is one `key = value` line.  Keys resolve to `section.key`.
Unknown keys are rejected so typos fail loudly, and every run serializes
its fully resolved config next to its outputs.  The ATTNPOOL_SEED
environment variable overrides all seed keys; command-line overrides
(`--set section.key=value`) are applied last.

The keys are the fields of the two run dataclasses: `task.<field>` of
`synth.PlantedTaskConfig` (except that `task.classes` sets its K) and
`train.<field>` of `train.TrainConfig`.  Each key's default is its
field's default, and its type is that default's type.
"""

from __future__ import annotations

import dataclasses
import os

from .synth import PlantedTaskConfig, read_text
from .train import TrainConfig


class ConfigError(ValueError):
    """Unknown key, bad syntax, or unparsable value."""


_KEY_NAMES = {"task.K": "task.classes"}

# key -> (dataclass, field)
_FIELDS = {_KEY_NAMES.get(f"{section}.{fld.name}", f"{section}.{fld.name}"): (cls, fld)
           for section, cls in (("task", PlantedTaskConfig), ("train", TrainConfig))
           for fld in dataclasses.fields(cls)}
KNOWN_KEYS = {key: type(fld.default) for key, (_, fld) in _FIELDS.items()}
DEFAULTS = {key: fld.default for key, (_, fld) in _FIELDS.items()}


def parse_value(key: str, raw: str):
    """The value of `key = raw`, coerced to the key's type."""
    if key not in KNOWN_KEYS:
        raise ConfigError(f"unknown key {key!r}")
    typ = KNOWN_KEYS[key]
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from exc


def build(cls, cfg: dict):
    """The `cls` dataclass from a dict of `section.key` values; keys it
    lacks keep their field defaults."""
    return cls(**{fld.name: cfg[key] for key, (owner, fld) in _FIELDS.items()
                  if owner is cls and key in cfg})


def keys_of(obj) -> dict:
    """The `section.key` values of a run dataclass: the inverse of build."""
    return {key: getattr(obj, fld.name) for key, (owner, fld) in _FIELDS.items()
            if owner is type(obj)}


def parse_config_text(text: str) -> dict:
    out = {}
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        full = f"{section}.{key.strip()}" if section else key.strip()
        try:
            out[full] = parse_value(full, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return out


def resolve(path=None, overrides=(), env=None) -> dict:
    """defaults < config file < ATTNPOOL_SEED < --set overrides.  An
    error in the config file names it."""
    env = os.environ if env is None else env
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            cfg.update(parse_config_text(read_text(path)))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if "ATTNPOOL_SEED" in env:
        try:
            seed = int(env["ATTNPOOL_SEED"])
        except ValueError as exc:
            raise ConfigError(f"ATTNPOOL_SEED is not an integer: {env['ATTNPOOL_SEED']!r}") from exc
        cfg["task.seed"] = cfg["train.seed"] = seed
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        cfg[key.strip()] = parse_value(key.strip(), raw)
    return cfg


def serialize(cfg: dict) -> str:
    """Stable `key = value` rendering of a resolved config."""
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))

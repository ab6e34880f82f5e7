"""Flat ``key = value`` config files whose keys are the fields of the objects they fill.

A config holds only the keys its file gives, so an omitted key keeps its
object's default; unknown keys are rejected by name. Lines starting with ``#``
and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .audio import AugmentConfig
from .errors import ConfigError
from .model import ATTENTION_KINDS, BackboneConfig
from .train import TrainConfig, Triangular2Schedule

__all__ = ["SCHEMA", "load_config", "parse_config_text"]


def _parse_int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(p) for p in v.replace(" ", "").split(",") if p)


def _parse_attention(v: str) -> str:
    if v not in ATTENTION_KINDS:
        raise ValueError(f"must be one of {ATTENTION_KINDS}")
    return v


# the objects a config fills, each with the fields no config key sets
_FILLED = {BackboneConfig: ("strides",), TrainConfig: ("augment",), AugmentConfig: (),
           Triangular2Schedule: ()}

# key -> parser: a field parses as the type of its default; the other keys are the
# manifest path and the AAMHead's scale and margin
SCHEMA: dict = {f.name: _parse_int_tuple if isinstance(f.default, tuple) else type(f.default)
                for cls, skip in _FILLED.items() for f in fields(cls) if f.name not in skip}
SCHEMA.update(manifest=str, scale=float, margin=float, attention=_parse_attention)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    cfg, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key '{key}'")
        if key in lines:
            raise ConfigError(f"{source}:{lineno}: config key '{key}' repeats line {lines[key]}")
        lines[key] = lineno
        try:
            cfg[key] = SCHEMA[key](value)
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {e}") from e
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, source=str(path))

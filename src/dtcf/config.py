"""Flat ``key = value`` config files with exhaustive schema validation.

Every training and model knob is addressable; unknown keys are rejected by
name. Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

__all__ = ["SCHEMA", "default_config", "load_config", "parse_config_text"]


def _parse_int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(p) for p in v.replace(" ", "").split(",") if p)


def _parse_choice(*options):
    def parse(v: str) -> str:
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return parse


# key -> (parser, default, help)
SCHEMA: dict[str, tuple] = {
    "manifest":         (str, "", "training manifest CSV path"),
    "attention":        (_parse_choice("none", "se", "dtcf"), "dtcf", "per-block attention kind"),
    "reduction":        (int, 8, "attention bottleneck reduction factor r"),
    "widths":           (_parse_int_tuple, (32, 64, 128, 256), "stage channel widths"),
    "blocks":           (_parse_int_tuple, (3, 4, 6, 3), "residual blocks per stage"),
    "emb_dim":          (int, 512, "embedding dimensionality"),
    "asp_hidden":       (int, 128, "pooling attention hidden width"),
    "n_mels":           (int, 80, "mel filterbank size"),
    "batch_size":       (int, 32, "utterance crops per step"),
    "steps":            (int, 2000, "optimizer steps"),
    "crop":             (int, 200, "training crop length in frames"),
    "weight_decay":     (float, 2e-5, "decoupled weight decay"),
    "base_lr":          (float, 1e-8, "cyclical LR floor"),
    "max_lr":           (float, 1e-3, "cyclical LR peak"),
    "step_size":        (int, 500, "iterations per LR half-cycle"),
    "scale":            (float, 30.0, "margin-softmax scale s"),
    "margin":           (float, 0.2, "margin-softmax additive angle m"),
    "seed":             (int, None, "global seed (unset: DTCF_SEED, then 0)"),
    "checkpoint_every": (int, 500, "steps between checkpoints"),
    "time_mask_max":    (int, 10, "max feature time-mask width (frames)"),
    "freq_mask_max":    (int, 8, "max feature freq-mask width (bins)"),
    "n_time_masks":     (int, 1, "time masks per crop"),
    "n_freq_masks":     (int, 1, "freq masks per crop"),
}


def default_config() -> dict:
    return {key: default for key, (_, default, _) in SCHEMA.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key '{key}'")
        parser = SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {e}") from e
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, source=str(path))

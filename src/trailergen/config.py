"""Model architecture configuration, named presets, and the checked
``from_dict`` that every config class shares."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict, fields, replace

from .autodiff import ConfigurationError

EOS_RULES = ("margin", "threshold")
CONDITION_MODES = ("none", "encoded")

# Keys that were removed, with the value a config saved before their removal
# holds when it used the behaviour the code still has (layer norm's epsilon
# is fixed at 1e-5; every residual block is post-norm; condition rows are
# model-wide, with no projection).
RETIRED_MODEL_KEYS = {"position_mode": "sinusoidal", "score_fusion": "broadcast",
                      "stop_score_gradient": False, "layer_norm_eps": 1e-5,
                      "pre_norm": False, "condition_dim": 0}

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", tuple: "a list"}


def _checked(label: str, key: str, value, default):
    """``value`` as the type of the field's ``default``: an integer stands
    for a float and a list for a tuple; a bool is never a number."""
    kind = type(default)
    if kind is tuple and isinstance(value, (list, tuple)):
        return tuple(_checked(label, key, v, default[0]) for v in value)
    if kind in (bool, str, tuple):
        ok = isinstance(value, kind)
    else:
        number = numbers.Integral if kind is int else numbers.Real
        ok = isinstance(value, number) and not isinstance(value, bool) and math.isfinite(value)
    if not ok:
        raise ConfigurationError(
            f"{label} config key {key!r} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def config_from_dict(cls, values: dict, label: str, retired: dict | None = None):
    """Build the config dataclass ``cls`` from plain values, unvalidated.

    Unknown keys and values of the wrong type raise ``ConfigurationError``;
    the ``from_dict`` of each class also runs its ``validate``.
    A ``retired`` key is dropped when it holds its old value and rejected
    otherwise, so a saved config that relied on a removed switch fails
    loudly instead of loading as something else.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    retired = retired or {}
    unknown = sorted(set(values) - set(defaults) - set(retired))
    if unknown:
        raise ConfigurationError(f"unknown {label} config keys: {unknown}")
    for key in set(values) & set(retired):
        if type(values[key]) is not type(retired[key]) or values[key] != retired[key]:
            raise ConfigurationError(f"{label} config key {key!r} was removed; a saved "
                                     f"config may hold only {retired[key]!r}, got {values[key]!r}")
    return cls(**{key: _checked(label, key, value, defaults[key])
                  for key, value in values.items() if key in defaults})


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64            # embedding width shared by data and all layers
    num_heads: int = 4
    ff_dim: int = 128
    trailerness_layers: int = 1  # self-attention depth of the score encoder
    context_layers: int = 4
    decoder_layers: int = 5
    max_len: int = 512           # longest unframed sequence the position table covers
    use_trailerness_encoder: bool = True   # ablation switch, no other code path change
    use_context_encoder: bool = True       # ablation switch
    eos_rule: str = "margin"     # "margin": EOS beats every movie shot; "threshold": fixed cutoff
    eos_threshold: float = 0.9   # only used by the threshold rule
    feedback: str = "predicted"  # "retrieved": feed back the matched movie shot instead
    no_repeat: bool = False      # forbid selecting the same movie shot twice
    condition_mode: str = "none"  # "encoded": condition rows join the memory

    def validate(self) -> "ModelConfig":
        if self.d_model <= 0 or self.d_model % 2 != 0:
            raise ConfigurationError(f"d_model must be positive and even, got {self.d_model}")
        if self.num_heads < 1:
            raise ConfigurationError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.d_model % self.num_heads != 0:
            raise ConfigurationError(
                f"d_model={self.d_model} not divisible by num_heads={self.num_heads}")
        if self.ff_dim < 1:
            raise ConfigurationError(f"ff_dim must be >= 1, got {self.ff_dim}")
        if min(self.trailerness_layers, self.context_layers, self.decoder_layers) < 1:
            raise ConfigurationError("all layer counts must be >= 1")
        if self.eos_rule not in EOS_RULES:
            raise ConfigurationError(f"eos_rule must be one of {EOS_RULES}")
        if self.condition_mode not in CONDITION_MODES:
            raise ConfigurationError(f"condition_mode must be one of {CONDITION_MODES}, "
                                     f"got {self.condition_mode!r}")
        if self.feedback not in ("predicted", "retrieved"):
            raise ConfigurationError("feedback must be 'predicted' or 'retrieved'")
        if self.max_len < 1:
            raise ConfigurationError("max_len must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        return config_from_dict(cls, values, "model", RETIRED_MODEL_KEYS).validate()


# "desk" keeps training minutes-fast; "paper" mirrors the published scale.
PRESETS = {
    "desk": ModelConfig(),
    "paper": ModelConfig(d_model=1024, num_heads=8, ff_dim=2048),
}


def preset(name: str) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def with_overrides(cfg: ModelConfig, **overrides) -> ModelConfig:
    return replace(cfg, **overrides).validate()

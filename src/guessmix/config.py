"""Experiment configuration: a flat key-value text format with defaults.

Files hold `section.key = value` lines; `#` starts a comment anywhere on a
line. No text value, from a file or a flag, holds `#`, a line break or
surrounding whitespace, so the echo of a configuration reads back as it.
Every key has a default, unknown keys are rejected, and the same dotted
keys double as command line overrides (`--model.epochs 5`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import MixSpec
from .model import ModelConfig


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


# The model.* keys are the fields of ModelConfig: key -> field. A key is
# its field's name unless renamed here.
_KEY_OF_FIELD = {"decode_mode": "decode"}
_FIELDS = {f"model.{_KEY_OF_FIELD.get(f.name, f.name)}": f for f in fields(ModelConfig)}

# key -> (parser, default, help)
SCHEMA: dict[str, tuple] = {
    "experiment.seed": (int, 0, "master seed; everything else derives from it"),
    "experiment.replicate_seeds": (int, 1, "number of full replicate runs"),
    "experiment.n_train_scenes": (int, 2000, "scenes used for training corpora"),
    "experiment.n_test_scenes": (int, 500, "scenes used for evaluation"),
    "experiment.n_val_scenes": (int, 0, "held-out scenes for best_val checkpoint selection"),
    "experiment.output_dir": (str, "runs/exp", "artifact directory"),
    "experiment.mix_specs": (
        str,
        "100:-,75:fixed,75:variable,50:fixed,50:variable",
        "comma list of pct_human:length_mode; 0:fixed and 0:variable are the "
        "generated-only ablation",
    ),
    "selfplay.noise": (float, 0.1, "machine-oracle answer noise (self-play and evaluation)"),
    "selfplay.checkpoint": (str, "last", "which checkpoint plays: last or best_val"),
    **{key: (type(f.default), f.default, f.metadata["help"]) for key, f in _FIELDS.items()},
}

CHECKPOINT_CHOICES = ("last", "best_val")


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default, _) in SCHEMA.items()}
        merged.update(self.values)
        self.values = merged
        self.validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        for key in self.values:
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
        try:
            self.model_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (0.0 <= self["selfplay.noise"] <= 1.0):
            raise ConfigError("selfplay.noise must be in [0, 1]")
        for key in ("experiment.n_train_scenes", "experiment.n_test_scenes",
                    "experiment.replicate_seeds"):
            if self[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("experiment.seed", "experiment.n_val_scenes"):
            if self[key] < 0:
                raise ConfigError(f"{key} must be >= 0")
        if self["selfplay.checkpoint"] not in CHECKPOINT_CHOICES:
            raise ConfigError(f"selfplay.checkpoint must be one of {CHECKPOINT_CHOICES}")
        if self["experiment.n_val_scenes"] >= 1 and self["model.epochs"] < 1:
            raise ConfigError("experiment.n_val_scenes >= 1 needs model.epochs >= 1")
        if self["selfplay.checkpoint"] == "best_val" and self["experiment.n_val_scenes"] < 1:
            raise ConfigError("selfplay.checkpoint=best_val needs experiment.n_val_scenes >= 1")
        for key, text in ((k, self[k]) for k, (parser, _, _) in SCHEMA.items() if parser is str):
            if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
                raise ConfigError(f"{key} = {text!r}: no '#', line break or outer whitespace")
        self.mix_specs()

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: self[key] for key, f in _FIELDS.items()})

    def mix_specs(self) -> list[MixSpec]:
        """Parse experiment.mix_specs into MixSpecs with seed 0. A 100% spec's
        length mode is "-" whatever the text says (see MixSpec)."""
        out: list[MixSpec] = []
        for part in self["experiment.mix_specs"].split(","):
            part = part.strip()
            if not part:
                continue
            try:
                pct_text, mode = part.split(":")
                spec = MixSpec(int(pct_text), mode)
            except ValueError as exc:
                raise ConfigError(f"bad mix spec {part!r} (want pct:mode): {exc}") from exc
            if spec in out:
                raise ConfigError(f"duplicate mix spec {part!r}")
            out.append(spec)
        if not out:
            raise ConfigError("experiment.mix_specs is empty")
        return out

    def echo(self) -> str:
        """The fully resolved configuration, one key per line."""
        lines = [f"{key} = {self.values[key]}" for key in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"


def parse_value(key: str, text: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    parser = SCHEMA[key][0]
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    values: dict = {}
    line_of: dict[str, int] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.partition("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in line_of:
                raise ConfigError(f"{path}:{lineno}: {key} is already set on line {line_of[key]}")
            line_of[key] = lineno
            values[key] = parse_value(key, raw.strip())
    for key, raw in (overrides or {}).items():
        values[key] = parse_value(key, raw)
    return ExperimentConfig(values)

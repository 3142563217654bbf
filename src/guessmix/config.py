"""Experiment configuration: a flat key-value text format with defaults.

Files hold `section.key = value` lines; `#` starts a comment. Every key has
a default, unknown keys are rejected, and the same dotted keys double as
command line overrides (`--model.epochs 5`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import LENGTH_FIXED, LENGTH_NONE, LENGTH_VARIABLE
from .model import DECODE_SAMPLE, ModelConfig
from .scene import SceneConfig


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


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
        "comma list of pct_human:length_mode",
    ),
    "experiment.include_generated_only": (
        _parse_bool, False, "also build 0% human datasets (evaluation flagged as ablation)",
    ),
    "scene.min_objects": (int, 3, "minimum objects per scene"),
    "scene.max_objects": (int, 20, "maximum objects per scene"),
    "teacher.noise": (float, 0.0, "oracle answer noise while collecting the teacher corpus"),
    "teacher.max_turns": (int, 8, "teacher turn budget per game"),
    "corpus.min_count": (int, 3, "vocabulary frequency threshold"),
    "corpus.require_generated_success": (
        _parse_bool, False, "drop failed generated games before mixing",
    ),
    "selfplay.noise": (float, 0.1, "machine-oracle answer noise (self-play and evaluation)"),
    "selfplay.turns": (int, 5, "fixed-length turn budget for generated dialogues"),
    "selfplay.checkpoint": (str, "last", "which checkpoint plays: last or best_val"),
    "model.embed_dim": (int, 32, "token embedding size"),
    "model.hidden_dim": (int, 64, "dialogue state size"),
    "model.learning_rate": (float, 0.3, "SGD step size"),
    "model.grad_clip": (float, 5.0, "global gradient norm bound"),
    "model.modulo_n": (int, 3, "guesser joins the loss every n-th epoch"),
    "model.epochs": (int, 30, "training epochs"),
    "model.batch_size": (int, 32, "dialogues per batch"),
    "model.decode": (str, DECODE_SAMPLE, "question decoding: sample or greedy"),
    "model.max_question_len": (int, 10, "generation length cap"),
    "model.guesser_human_only": (
        _parse_bool, False, "restrict the guesser loss to human-sourced dialogues",
    ),
    "evaluate.turns": (int, 5, "questions per game in the test protocol"),
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
        self.scene_config().validate()
        try:
            self.model_config().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key in ("teacher.noise", "selfplay.noise"):
            if not (0.0 <= self[key] <= 1.0):
                raise ConfigError(f"{key} must be in [0, 1]")
        for key in ("experiment.n_train_scenes", "experiment.n_test_scenes",
                    "experiment.replicate_seeds", "teacher.max_turns", "selfplay.turns",
                    "evaluate.turns", "corpus.min_count"):
            if self[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self["experiment.n_val_scenes"] < 0:
            raise ConfigError("experiment.n_val_scenes must be >= 0")
        if self["selfplay.checkpoint"] not in CHECKPOINT_CHOICES:
            raise ConfigError(f"selfplay.checkpoint must be one of {CHECKPOINT_CHOICES}")
        if self["selfplay.checkpoint"] == "best_val" and self["experiment.n_val_scenes"] < 1:
            raise ConfigError("selfplay.checkpoint=best_val needs experiment.n_val_scenes >= 1")
        self.mix_specs()

    def scene_config(self) -> SceneConfig:
        return SceneConfig(
            min_objects=self["scene.min_objects"],
            max_objects=self["scene.max_objects"],
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            embed_dim=self["model.embed_dim"],
            hidden_dim=self["model.hidden_dim"],
            learning_rate=self["model.learning_rate"],
            grad_clip=self["model.grad_clip"],
            modulo_n=self["model.modulo_n"],
            epochs=self["model.epochs"],
            batch_size=self["model.batch_size"],
            decode_mode=self["model.decode"],
            max_question_len=self["model.max_question_len"],
            guesser_human_only=self["model.guesser_human_only"],
        )

    def mix_specs(self) -> list[tuple[int, str]]:
        """Parse experiment.mix_specs into (pct_human, length_mode) pairs."""
        out: list[tuple[int, str]] = []
        raw = self["experiment.mix_specs"]
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                pct_text, mode = part.split(":")
                pct = int(pct_text)
            except ValueError as exc:
                raise ConfigError(f"bad mix spec {part!r} (want pct:mode)") from exc
            if not (0 <= pct <= 100):
                raise ConfigError(f"mix spec pct_human out of range: {part!r}")
            if pct == 100:
                mode = LENGTH_NONE
            elif mode not in (LENGTH_FIXED, LENGTH_VARIABLE):
                raise ConfigError(f"mix spec length mode must be fixed|variable: {part!r}")
            if (pct, mode) in out:
                raise ConfigError(f"duplicate mix spec {part!r}")
            out.append((pct, mode))
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
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            values[key] = parse_value(key, raw.strip())
    for key, raw in (overrides or {}).items():
        values[key] = parse_value(key, raw) if isinstance(raw, str) else raw
    return ExperimentConfig(values)

import fcntl
import json
import os
import pickle
import platform
import re
import select
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from guessmix import cli, config, dialogue, metrics, parallel, scene, selfplay
from guessmix.config import ConfigError, ExperimentConfig, load_config
from guessmix.corpus import MixSpec
from guessmix.model import ModelConfig
from guessmix.scene import SceneConfig
from guessmix.seeding import derive_seed

DATA_DIR = Path(__file__).parent / "data"
SRC = Path(cli.__file__).resolve().parents[1]

TINY_MODEL_FLAGS = ("--model.embed_dim", "8", "--model.hidden_dim", "12", "--model.epochs", "2",
                    "--model.batch_size", "8", "--corpus.min_count", "1")

TINY_CONFIG = """
# tiny smoke experiment
experiment.seed = 1
experiment.replicate_seeds = 1
experiment.n_train_scenes = 60
experiment.n_test_scenes = 20
experiment.mix_specs = 100:-,50:fixed
model.embed_dim = 8
model.hidden_dim = 12
model.epochs = 2
model.batch_size = 8
"""


def _tiny_config(tmp_path, out=None):
    """TINY_CONFIG as the file tmp_path/exp.cfg, with output directory `out` if given."""
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG + (f"experiment.output_dir = {out}\n" if out else ""))
    return path


class TestConfig:
    def test_defaults_complete(self):
        cfg = ExperimentConfig()
        for key in config.SCHEMA:
            assert cfg[key] is not None

    def test_file_parsing_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model.epochs = 7\n# comment\n\nscene.min_objects=4\n")
        cfg = load_config(path, {"model.batch_size": "16"})
        assert cfg["model.epochs"] == 7
        assert cfg["scene.min_objects"] == 4
        assert cfg["model.batch_size"] == 16

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model.hugeness = 9\n")
        with pytest.raises(ConfigError, match="hugeness"):
            load_config(path)

    def test_grid_size_is_not_a_setting(self, tmp_path, capsys):
        # the grid is scene.GRID_SIZE; the oracle and the model assume it
        with pytest.raises(ConfigError, match="scene.grid_size"):
            load_config(None, {"scene.grid_size": "5"})
        assert cli.main(["gen-scenes", "--n", "1", "--scene.grid_size", "5",
                         "--out", str(tmp_path / "s.jsonl")]) == cli.EXIT_VALIDATION
        assert "--scene.grid_size" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model.epochs = banana\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_repeated_key_rejected_before_any_write(self, tmp_path, capsys):
        # the second value used to win silently; flags still override the file
        path = tmp_path / "exp.cfg"
        path.write_text("model.epochs = 3\n# comment\nmodel.epochs = 7\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: model.epochs "
                                              r"is already set on line 1$"):
            load_config(path, {"model.epochs": "5"})
        out = tmp_path / "run"
        path.write_text(TINY_CONFIG + f"experiment.output_dir = {out}\nexperiment.seed = 2\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert "experiment.seed is already set on line 3" in capsys.readouterr().err
        assert not out.exists()
        path.write_text("model.epochs = 3\n")
        assert load_config(path, {"model.epochs": "5"})["model.epochs"] == 5

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_mix_specs_parsing(self):
        cfg = ExperimentConfig({"experiment.mix_specs": "100:-,75:fixed,50:variable"})
        assert cfg.mix_specs() == [MixSpec(100, "-"), MixSpec(75, "fixed"),
                                   MixSpec(50, "variable")]

    def test_mix_specs_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"experiment.mix_specs": "50:never"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"experiment.mix_specs": "150:fixed"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"experiment.mix_specs": ""})

    def test_best_val_needs_val_scenes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"selfplay.checkpoint": "best_val"})
        ExperimentConfig({"selfplay.checkpoint": "best_val", "experiment.n_val_scenes": 50})

    def test_best_val_needs_a_training_epoch(self, tmp_path, capsys):
        # zero epochs select no best-val model, so self-play would have no player
        with pytest.raises(ConfigError, match="model.epochs"):
            ExperimentConfig({"selfplay.checkpoint": "best_val", "experiment.n_val_scenes": 5,
                              "model.epochs": 0})
        out = tmp_path / "run"
        rc = cli.main(["run", "--selfplay.checkpoint", "best_val",
                       "--experiment.n_val_scenes", "5", "--model.epochs", "0",
                       "--experiment.n_train_scenes", "40", "--experiment.n_test_scenes", "10",
                       "--experiment.output_dir", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert "model.epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_model_and_scene_keys_are_the_dataclass_fields(self):
        keys = {key for key in config.SCHEMA if key.startswith(("model.", "scene."))}
        assert keys == ({f"scene.{f.name}" for f in fields(SceneConfig)}
                        | {"model.decode" if f.name == "decode_mode" else f"model.{f.name}"
                           for f in fields(ModelConfig)})
        # a key's text is parsed by its default's type, so a bool field would
        # read "no" as bool("no") == True
        assert all(type(f.default) in (int, float, str)
                   for cls in (ModelConfig, SceneConfig) for f in fields(cls))
        assert ExperimentConfig().model_config() == ModelConfig()
        assert ExperimentConfig().scene_config() == SceneConfig()
        cfg = load_config(None, {"model.decode": "greedy", "model.learning_rate": "1",
                                 "scene.max_objects": "9"})
        assert cfg.model_config() == ModelConfig(decode_mode="greedy", learning_rate=1.0)
        assert cfg.scene_config() == SceneConfig(max_objects=9)

    @pytest.mark.parametrize("key", ["corpus.require_generated_success",
                                     "model.guesser_human_only"])
    def test_removed_switches_are_unknown_keys(self, tmp_path, capsys, key):
        # generated dialogues enter a mix whatever their outcome, and the
        # guesser trains on every dialogue, so neither switch is a setting
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + f"experiment.output_dir = {tmp_path / 'run'}\n"
                        f"{key} = no\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: "no"})
        # no command has the flag, so it is refused like any unknown option
        assert cli.main(["run", f"--{key}", "no"]) == cli.EXIT_VALIDATION
        assert f"--{key}" in capsys.readouterr().err

    def test_bad_command_line_is_validation_error(self, capsys):
        # exit 1, as for the same mistake in a config file; --help still exits 0
        assert cli.main(["run", "--model.nope", "3"]) == cli.EXIT_VALIDATION
        assert "unrecognized arguments: --model.nope" in capsys.readouterr().err
        assert cli.main(["train", "--model.epochs"]) == cli.EXIT_VALIDATION
        assert cli.main(["frobnicate"]) == cli.EXIT_VALIDATION
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "usage: guessmix" in capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "guessmix.cli", "run", "--model.nope", "3"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr

    def test_generated_only_ablation_is_a_mix_spec(self):
        cfg = ExperimentConfig({"experiment.mix_specs": "100:-,0:fixed,0:variable"})
        assert cfg.mix_specs() == [MixSpec(100, "-"), MixSpec(0, "fixed"),
                                   MixSpec(0, "variable")]
        with pytest.raises(ConfigError, match="include_generated_only"):
            load_config(None, {"experiment.include_generated_only": "true"})

    def test_readme_key_defaults_match_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("Key defaults")[1].split("\n\n")[1].splitlines()
        assert table[0].startswith("| key | default |")
        rows = [[cell.strip() for cell in line.split("|")[1:3]] for line in table[2:]]
        assert rows
        for key, default in rows:
            assert key in config.SCHEMA, key
            assert config.parse_value(key, default) == config.SCHEMA[key][1], key

    def test_echo_round_trips(self, tmp_path):
        cfg = ExperimentConfig({"model.epochs": 5})
        path = tmp_path / "echo.cfg"
        path.write_text(cfg.echo())
        again = load_config(path)
        assert again.values == cfg.values


GOOD_DIALOGUE = {"game_id": 0, "scene_id": 0, "source": "human",
                 "turns": [{"q": "is it red ?", "a": "yes"}], "guess": 0, "success": True}
GOOD_MANIFEST = {"length_mode": "fixed", "pct_human": 50, "replaced_game_ids": [0], "seed": 0}
GOOD_ROW = {"pct_human": 50, "pct_generated": 50.0, "length_mode": "fixed",
            "acc": 10.0, "grq": 0.0, "mo": 0.1, "nq": 1.0, "gr": 20.0}


def scene_record(x):
    """A valid three-object scene record whose first object sits at column `x`."""
    return {"scene_id": 0, "target": 0, "objects": [
        {"id": 0, "category": "cat", "color": "red", "size": "small", "x": x, "y": 0},
        {"id": 1, "category": "dog", "color": "red", "size": "small", "x": 2, "y": 0},
        {"id": 2, "category": "cup", "color": "blue", "size": "large", "x": 3, "y": 4}]}


# arguments each subcommand needs that are not settings
REQUIRED_ARGS = {
    "gen-scenes": ["--n", "1", "--out", "o"],
    "collect-human": ["--scenes", "s", "--out", "o"],
    "train": ["--dialogues", "d", "--scenes", "s", "--out", "o"],
    "selfplay": ["--model", "m", "--scenes", "s", "--human", "h", "--out", "o"],
    "mix": ["--human", "h", "--generated", "g", "--pct-human", "50", "--out", "o"],
    "stats": ["c"],
    "evaluate": ["--model", "m", "--scenes", "s", "--train-dialogues", "t"],
    "report": ["--rows", "r", "--out-csv", "o"],
    "run": [],
}


def other_value(key):
    """Flag text for a valid value of `key` other than its default."""
    for text in ("1", "2", "4", "greedy", "100:-"):
        try:
            if load_config(None, {key: text})[key] != config.SCHEMA[key][1]:
                return text
        except ValueError:
            pass
    raise AssertionError(f"no other valid value for {key}")


class TestSubcommands:
    def test_gen_scenes(self, tmp_path, capsys):
        out = tmp_path / "scenes.jsonl"
        rc = cli.main(["gen-scenes", "--n", "12", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert len(scene.read_scenes(out)) == 12

    def test_collect_and_stats(self, tmp_path, capsys):
        scenes_path = tmp_path / "scenes.jsonl"
        human_path = tmp_path / "human.jsonl"
        assert cli.main(["gen-scenes", "--n", "15", "--seed", "1", "--out", str(scenes_path)]) == 0
        assert cli.main(["collect-human", "--scenes", str(scenes_path),
                         "--out", str(human_path), "--seed", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["stats", str(human_path), "--corpus.min_count", "1"]) == 0
        line = capsys.readouterr().out.strip()
        parts = line.split(",")
        assert parts[0] == "100" and parts[1] == "0"

    def test_mix_writes_manifest(self, tmp_path):
        human = [  # two-game corpus written by hand
            dialogue.Dialogue(0, 0, "human", (dialogue.Turn(("is", "it", "red", "?"), "yes"),), 0, True),
            dialogue.Dialogue(1, 1, "human", (dialogue.Turn(("is", "it", "blue", "?"), "no"),), 0, True),
        ]
        gen = [
            dialogue.Dialogue(0, 0, "generated", (dialogue.Turn(("is", "it", "red", "?"), "yes"),), 0, True),
            dialogue.Dialogue(1, 1, "generated", (dialogue.Turn(("is", "it", "red", "?"), "no"),), 0, False),
        ]
        hp, gp, mp = tmp_path / "h.jsonl", tmp_path / "g.jsonl", tmp_path / "m.jsonl"
        dialogue.write_dialogues(hp, human)
        dialogue.write_dialogues(gp, gen)
        rc = cli.main(["mix", "--human", str(hp), "--generated", str(gp),
                       "--pct-human", "50", "--length", "fixed", "--out", str(mp)])
        assert rc == 0
        mixed = dialogue.read_dialogues(mp)
        assert len(mixed) == 2
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["pct_human"] == 50
        assert len(manifest["replaced_game_ids"]) == 1

    @pytest.mark.parametrize("argv, record", [
        (["stats", "{bad}"], dict(GOOD_DIALOGUE, turns=[{"q": 5, "a": "yes"}])),
        (["stats", "{bad}"], dict(GOOD_DIALOGUE, success="no")),
        (["stats", "{bad}"], dict(GOOD_DIALOGUE, guess="0")),
        (["collect-human", "--scenes", "{bad}", "--out", "{dir}/human.jsonl"],
         scene_record(x="1")),
        (["collect-human", "--scenes", "{bad}", "--out", "{dir}/human.jsonl"],
         scene_record(x=1.5)),
        (["report", "--rows", "{bad}", "--out-csv", "{dir}/report.csv"],
         {"pct_human": 50, "pct_generated": 50, "length_mode": "fixed"}),
        (["report", "--rows", "{bad}", "--out-csv", "{dir}/report.csv"],
         dict(GOOD_ROW, acc="x")),
    ], ids=["dialogue-q-not-text", "dialogue-success-not-bool", "dialogue-guess-not-int",
            "scene-x-not-int", "scene-x-fractional", "report-row-missing-fields",
            "report-row-acc-not-number"])
    def test_malformed_record_is_validation_error(self, tmp_path, capsys, argv, record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        rc = cli.main([a.format(bad=bad, dir=tmp_path) for a in argv])
        assert rc == cli.EXIT_VALIDATION
        assert f"{bad}:1: malformed" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        rc = cli.main(["stats", str(tmp_path / "nope.jsonl")])
        assert rc == cli.EXIT_VALIDATION

    def test_full_subcommand_chain(self, tmp_path, capsys):
        d = tmp_path
        run = lambda *args: cli.main(list(args))
        assert run("gen-scenes", "--n", "30", "--seed", "2", "--out", f"{d}/train.jsonl") == 0
        assert run("gen-scenes", "--n", "40", "--seed", "2", "--out", f"{d}/all.jsonl") == 0
        # test scenes: the tail of a larger set, ids disjoint from training
        test_scenes = scene.read_scenes(f"{d}/all.jsonl")[30:]
        scene.write_scenes(f"{d}/test.jsonl", test_scenes)
        assert run("collect-human", "--scenes", f"{d}/train.jsonl",
                   "--out", f"{d}/human.jsonl") == 0
        assert run("train", "--dialogues", f"{d}/human.jsonl", "--scenes", f"{d}/train.jsonl",
                   *TINY_MODEL_FLAGS, "--out", f"{d}/base.ckpt") == 0
        human = dialogue.read_dialogues(f"{d}/human.jsonl")
        dialogue.write_dialogues(f"{d}/human_head.jsonl", human[:5])
        # self-play replays the games of the teacher corpus it is given
        assert run("selfplay", "--model", f"{d}/base.ckpt", "--scenes", f"{d}/train.jsonl",
                   "--length", "variable", "--human", f"{d}/human_head.jsonl",
                   "--out", f"{d}/gen.jsonl") == 0
        head = dialogue.read_dialogues(f"{d}/gen.jsonl")
        assert [g.game_id for g in head] == [h.game_id for h in human[:5]]
        assert [len(g.turns) for g in head] == [len(h.turns) for h in human[:5]]
        assert run("selfplay", "--model", f"{d}/base.ckpt", "--scenes", f"{d}/test.jsonl",
                   "--human", f"{d}/human.jsonl",
                   "--out", f"{d}/gen.jsonl") == 1  # no scene for the teacher's games
        assert run("selfplay", "--model", f"{d}/base.ckpt", "--scenes", f"{d}/train.jsonl",
                   "--length", "variable", "--human", f"{d}/human.jsonl",
                   "--out", f"{d}/gen.jsonl") == 0
        assert run("mix", "--human", f"{d}/human.jsonl", "--generated", f"{d}/gen.jsonl",
                   "--pct-human", "50", "--length", "variable",
                   "--out", f"{d}/mixed.jsonl") == 0
        assert run("train", "--dialogues", f"{d}/mixed.jsonl", "--scenes", f"{d}/train.jsonl",
                   *TINY_MODEL_FLAGS, "--out", f"{d}/mixed.ckpt") == 0
        capsys.readouterr()
        assert run("evaluate", "--model", f"{d}/mixed.ckpt", "--scenes", f"{d}/test.jsonl",
                   "--train-dialogues", f"{d}/mixed.jsonl", "--evaluate.turns", "5",
                   "--out", f"{d}/row.json") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        parts = line.split(",")
        acc, grq, mo, nq, gr = map(float, parts[3:])
        assert 0 <= acc <= 100 and 0 <= grq <= 100 and 0 <= gr <= 100
        assert 0.0 <= mo <= 1.0 and 0.0 <= nq <= 5.0
        assert run("report", "--rows", f"{d}/row.json",
                   "--out-csv", f"{d}/report.csv", "--out-md", f"{d}/report.md") == 0
        assert (d / "report.csv").read_text().splitlines()[0] == metrics.REPORT_HEADER
        assert "ACC ↑" in (d / "report.md").read_text()

    def test_stage_outputs_reproduce_byte_exactly(self, tmp_path):
        # re-running a stage with the same inputs and seed rewrites the same bytes
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert cli.main(["gen-scenes", "--n", "30", "--seed", "5",
                             "--out", str(d / "scenes.jsonl")]) == 0
            assert cli.main(["collect-human", "--scenes", str(d / "scenes.jsonl"),
                             "--seed", "6", "--out", str(d / "human.jsonl")]) == 0
        assert (a / "scenes.jsonl").read_bytes() == (b / "scenes.jsonl").read_bytes()
        assert (a / "human.jsonl").read_bytes() == (b / "human.jsonl").read_bytes()

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("nonsense.key = 1\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == cli.EXIT_VALIDATION

    def test_bad_model_flag_rejected_before_writing(self, tmp_path, capsys):
        scenes_path = tmp_path / "scenes.jsonl"
        human_path = tmp_path / "human.jsonl"
        assert cli.main(["gen-scenes", "--n", "10", "--out", str(scenes_path)]) == 0
        assert cli.main(["collect-human", "--scenes", str(scenes_path),
                         "--out", str(human_path)]) == 0
        out = tmp_path / "model.ckpt"
        rc = cli.main(["train", "--dialogues", str(human_path), "--scenes", str(scenes_path),
                       "--model.batch_size", "0", "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_repeated_scene_id_is_validation_error(self, tmp_path, capsys):
        # two scenes with one id would pair every dialogue of that id with the last
        first, second = scene.generate_scene_set(2, seed=0)
        path = tmp_path / "scenes.jsonl"
        scene.write_scenes(path, [first, replace(second, scene_id=first.scene_id)])
        out = tmp_path / "human.jsonl"
        assert cli.main(["collect-human", "--scenes", str(path),
                         "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(path) in err and f"scene id {first.scene_id}" in err
        assert not out.exists()

    def test_report_title_names_the_protocol_length(self, tmp_path):
        rows = tmp_path / "row.json"
        rows.write_text(json.dumps({"pct_human": 100, "pct_generated": 0, "length_mode": "-",
                                    "acc": 50.0, "grq": 10.0, "mo": 0.1, "nq": 1.0,
                                    "gr": 90.0}) + "\n")
        for turns in ("3", None):
            md = tmp_path / f"report_{turns}.md"
            argv = ["report", "--rows", str(rows), "--out-csv", str(tmp_path / "r.csv"),
                    "--out-md", str(md)]
            assert cli.main(argv + (["--evaluate.turns", turns] if turns else [])) == 0
            want = f"## Test set, {turns or 5}-question protocol\n"
            assert md.read_text(encoding="utf-8").startswith(want)

    def test_flag_defaults_follow_schema(self, monkeypatch):
        # every subcommand gets its settings from load_config: no key flags
        # give the defaults, and one key flag sets exactly its own key
        received = []
        for name in dir(cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, lambda args, cfg: received.append(cfg))
        [commands] = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
        assert set(commands) == set(REQUIRED_ARGS)
        defaults = ExperimentConfig().values
        for name, sub in commands.items():
            assert cli.main([name, *REQUIRED_ARGS[name]]) == 0
            assert received.pop().values == defaults, name
            keys = [a.dest for a in sub._actions if a.dest in config.SCHEMA]
            if name == "run":
                assert set(keys) == set(config.SCHEMA)
            for key in keys:
                # best_val is valid only with validation scenes
                value, partner = (("best_val", {"experiment.n_val_scenes": "1"})
                                  if key == "selfplay.checkpoint" else (other_value(key), {}))
                argv = [name, *REQUIRED_ARGS[name], f"--{key}", value]
                for other, text in partner.items():
                    argv += [f"--{other}", text]
                assert cli.main(argv) == 0, argv
                got = received.pop().values
                assert got[key] == config.parse_value(key, value) != defaults[key], key
                assert {k for k in defaults if got[k] != defaults[k]} == {key, *partner}, key

    def test_bad_setting_fails_before_inputs_are_read(self, tmp_path, capsys):
        rc = cli.main(["selfplay", "--selfplay.turns", "0", "--model", str(tmp_path / "no.ckpt"),
                       "--scenes", str(tmp_path / "no.jsonl"), "--human", str(tmp_path / "no"),
                       "--out", str(tmp_path / "gen.jsonl")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "selfplay.turns" in err and "no.ckpt" not in err

    def test_bad_choice_is_validation_error(self, tmp_path, capsys):
        # a setting's value is checked by the config, not by argparse (exit 2)
        rc = cli.main(["train", "--model.decode", "argmax", "--dialogues", str(tmp_path / "d"),
                       "--scenes", str(tmp_path / "s"), "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_VALIDATION
        assert "argmax" in capsys.readouterr().err

    def test_negative_seed_is_refused_by_every_command(self, tmp_path, capsys, monkeypatch):
        # numpy's generators take no negative seed: refused before a file is
        # read or written, naming the flag or the key
        monkeypatch.chdir(tmp_path)  # where the relative paths of REQUIRED_ARGS point
        [commands] = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
        seeded = [name for name, sub in commands.items() if "--seed" in sub._option_string_actions]
        assert set(seeded) == set(REQUIRED_ARGS) - {"stats", "report", "run"}
        for name in seeded:
            argv = [name, *REQUIRED_ARGS[name]]
            assert cli.main([*argv, "--seed", "-5"]) == cli.EXIT_VALIDATION, name
            assert "argument --seed: want an integer >= 0, got '-5'" in capsys.readouterr().err
            assert cli.main([*argv, "--seed", "x"]) == cli.EXIT_VALIDATION, name
            assert "got 'x'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ConfigError, match="experiment.seed must be >= 0"):
            ExperimentConfig({"experiment.seed": -1})
        out = tmp_path / "run"
        assert cli.main(["run", "--experiment.seed", "-1",
                         "--experiment.output_dir", str(out)]) == cli.EXIT_VALIDATION
        assert "experiment.seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("model.learning_rate", "nan"),
                                            ("model.learning_rate", "inf"),
                                            ("model.grad_clip", "nan"),
                                            ("model.grad_clip", "inf")])
    def test_non_finite_step_or_clip_is_refused(self, tmp_path, capsys, monkeypatch, key,
                                                value):
        # a nan clip would switch clipping off (norm > nan is never true) and
        # a non-finite step would fail in training after the first stages wrote
        # their files: both are validation errors before any write
        monkeypatch.chdir(tmp_path)
        for argv in (["run", "--experiment.output_dir", "run"],
                     ["train", *REQUIRED_ARGS["train"]]):
            assert cli.main([*argv, f"--{key}", value]) == cli.EXIT_VALIDATION, argv
            assert f"{key.split('.')[1]} must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_step_by_step_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Step-by-step pipeline")[1].split("```sh\n")[1].split("```")[0]
        lines = block.replace("\\\n", " ").splitlines()
        parser = cli.build_parser()
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "guessmix", line
            parser.parse_args(argv[1:])
            for flag in re.findall(r"--(\w+\.\w+)", line):
                assert flag in config.SCHEMA, line
        # every step subcommand is shown
        assert {shlex.split(line)[1] for line in lines} == set(REQUIRED_ARGS) - {"run"}

    def test_readme_reproduction_table_flags_exist(self):
        # each flag of a command in the table that reproduces a run's files
        # is an option of that command's subcommand
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        [commands] = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
        table = readme.split("| file | command |")[1].split("\n\n")[0]
        rows = [line.strip("|").split("|") for line in table.splitlines()[2:]]
        assert len(rows) >= 8
        for _, cell in rows:
            shown = re.findall(r"`([^`]+)`", cell)
            assert shown, cell
            for command in shown:
                name = command.split()[0]
                assert name in commands, command
                for flag in re.findall(r"(?<![\w-])--[\w.-]+", command):
                    assert flag in commands[name]._option_string_actions, command


@pytest.fixture(scope="module")
def mixed_chain(tmp_path_factory):
    """A teacher corpus, a model trained on it, that model's variable-length
    self-play corpus and their 50/50 mix, each made by its subcommand."""
    d = tmp_path_factory.mktemp("mixed_chain")
    run = lambda *args: cli.main([str(a) for a in args])
    assert run("gen-scenes", "--n", 25, "--seed", 4, "--out", d / "scenes.jsonl") == 0
    assert run("collect-human", "--scenes", d / "scenes.jsonl", "--out", d / "human.jsonl") == 0
    assert run("train", "--dialogues", d / "human.jsonl", "--scenes", d / "scenes.jsonl",
               *TINY_MODEL_FLAGS, "--out", d / "base.ckpt") == 0
    assert run("selfplay", "--model", d / "base.ckpt", "--scenes", d / "scenes.jsonl",
               "--human", d / "human.jsonl", "--length", "variable",
               "--out", d / "generated.jsonl") == 0
    assert run("mix", "--human", d / "human.jsonl", "--generated", d / "generated.jsonl",
               "--pct-human", 50, "--length", "variable", "--out", d / "mixed.jsonl") == 0
    return d


class TestDerivedInputs:
    """`stats` and `evaluate` label rows from a corpus's mix manifest, and
    `train` names its best-validation checkpoint after `--out`."""

    @pytest.mark.parametrize("length", ["fixed", "variable"])
    def test_selfplay_needs_each_game_id_to_be_its_scene_id(self, mixed_chain, tmp_path, capsys,
                                                            length):
        # a replayed game takes its scene's id, so other game ids would give
        # a corpus that `mix` cannot match with the teacher's
        human = dialogue.read_dialogues(mixed_chain / "human.jsonl")
        first, path, out = human[0], tmp_path / "human.jsonl", tmp_path / "generated.jsonl"
        for corpus, error in (
                ([replace(d, game_id=d.game_id + 1000) for d in human],
                 f"human game id {first.game_id + 1000} is not its scene id {first.scene_id}"),
                (human + [first], f"human game id {first.game_id} repeats")):
            dialogue.write_dialogues(path, corpus)
            assert cli.main(["selfplay", "--model", str(mixed_chain / "base.ckpt"),
                             "--scenes", str(mixed_chain / "scenes.jsonl"), "--human", str(path),
                             "--length", length, "--out", str(out)]) == cli.EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {error}\n"
            assert not out.exists()

    @staticmethod
    def rows(capsys, d, corpus):
        """The stats and evaluate rows of `corpus`, printed without label flags."""
        capsys.readouterr()
        assert cli.main(["stats", str(d / corpus)]) == 0
        stats = capsys.readouterr().out.strip()
        assert cli.main(["evaluate", "--model", str(d / "base.ckpt"),
                         "--scenes", str(d / "scenes.jsonl"),
                         "--train-dialogues", str(d / corpus)]) == 0
        return stats, capsys.readouterr().out.strip()

    def test_rows_are_labelled_from_the_manifest(self, mixed_chain, capsys):
        stats, report = self.rows(capsys, mixed_chain, "mixed.jsonl")
        assert report.startswith("50,50,variable,")
        # the stats row measures its shares and takes the mode from the manifest
        mixed = dialogue.read_dialogues(mixed_chain / "mixed.jsonl")
        share = 100 * sum(d.source == "human" for d in mixed) / len(mixed)
        assert stats.startswith(f"{share:g},{100 - share:g},variable,")

    def test_full_human_mix_has_no_length_mode(self, mixed_chain, tmp_path, capsys):
        # labelled like the run's 100% row, whatever --length says
        d, out = mixed_chain, tmp_path / "full.jsonl"
        assert cli.main(["mix", "--human", str(d / "human.jsonl"),
                         "--generated", str(d / "generated.jsonl"), "--pct-human", "100",
                         "--length", "fixed", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["stats", str(out)]) == 0
        assert capsys.readouterr().out.startswith("100,0,-,")

    @pytest.mark.parametrize("corpus, label", [("human.jsonl", "100,0,-,"),
                                               ("generated.jsonl", "0,100,-,")])
    def test_corpus_without_manifest_is_labelled_by_its_share(self, mixed_chain, capsys,
                                                              corpus, label):
        assert not (mixed_chain / corpus).with_suffix(".manifest.json").exists()
        stats, report = self.rows(capsys, mixed_chain, corpus)
        assert stats.startswith(label) and report.startswith(label)

    @pytest.mark.parametrize("text", [
        "{bad\n",
        "",
        json.dumps(GOOD_MANIFEST) + "\n" + json.dumps(GOOD_MANIFEST) + "\n",
        json.dumps(dict(GOOD_MANIFEST, pct_human=150)) + "\n",
        json.dumps(dict(GOOD_MANIFEST, pct_human=50.0)) + "\n",
        json.dumps(dict(GOOD_MANIFEST, length_mode="banana")) + "\n",
        json.dumps({k: v for k, v in GOOD_MANIFEST.items() if k != "seed"}) + "\n",
    ], ids=["not-json", "empty", "two-records", "pct-out-of-range", "pct-not-int",
            "mode-unknown", "seed-missing"])
    def test_malformed_manifest_is_validation_error(self, tmp_path, capsys, text):
        corpus, manifest = tmp_path / "mixed.jsonl", tmp_path / "mixed.manifest.json"
        corpus.write_text(json.dumps(GOOD_DIALOGUE) + "\n")
        manifest.write_text(text)
        assert cli.main(["stats", str(corpus)]) == cli.EXIT_VALIDATION
        assert str(manifest) in capsys.readouterr().err

    def test_train_with_validation_data_writes_best_val(self, mixed_chain, tmp_path, capsys):
        d, out = mixed_chain, tmp_path / "m.ckpt"
        capsys.readouterr()
        assert cli.main(["train", "--dialogues", str(d / "human.jsonl"),
                         "--scenes", str(d / "scenes.jsonl"), *TINY_MODEL_FLAGS,
                         "--val-dialogues", str(d / "human.jsonl"),
                         "--val-scenes", str(d / "scenes.jsonl"), "--out", str(out)]) == 0
        assert f"best-validation checkpoint to {tmp_path / 'm_best_val.ckpt'}" in (
            capsys.readouterr().out)
        assert (tmp_path / "m_best_val.ckpt").exists()
        # without validation data there is none
        assert cli.main(["train", "--dialogues", str(d / "human.jsonl"),
                         "--scenes", str(d / "scenes.jsonl"), *TINY_MODEL_FLAGS,
                         "--out", str(tmp_path / "n.ckpt")]) == 0
        assert (tmp_path / "n.ckpt").exists()
        assert not (tmp_path / "n_best_val.ckpt").exists()

    def test_validation_data_needs_a_training_epoch(self, mixed_chain, tmp_path, capsys):
        # zero epochs select no best-val model, so the promised file cannot be written
        d, out = mixed_chain, tmp_path / "m.ckpt"
        assert cli.main(["train", "--dialogues", str(d / "human.jsonl"),
                         "--scenes", str(d / "scenes.jsonl"), *TINY_MODEL_FLAGS,
                         "--model.epochs", "0", "--val-dialogues", str(d / "human.jsonl"),
                         "--val-scenes", str(d / "scenes.jsonl"),
                         "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "model.epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, corpus", [("--val-scenes", "scenes.jsonl"),
                                              ("--val-dialogues", "human.jsonl")])
    def test_validation_flags_go_together(self, mixed_chain, tmp_path, capsys, flag, corpus):
        d, out = mixed_chain, tmp_path / "m.ckpt"
        assert cli.main(["train", "--dialogues", str(d / "human.jsonl"),
                         "--scenes", str(d / "scenes.jsonl"), *TINY_MODEL_FLAGS,
                         flag, str(d / corpus), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "--val-dialogues and --val-scenes" in capsys.readouterr().err
        assert not out.exists()


def _one_model_config(out):
    """A run into `out` that trains only the 100% model, for one epoch."""
    return load_config(None, {
        "experiment.output_dir": str(out), "experiment.n_train_scenes": "20",
        "experiment.n_test_scenes": "5", "experiment.mix_specs": "100:-",
        "model.embed_dim": "8", "model.hidden_dim": "12", "model.epochs": "1",
        "model.batch_size": "8"})


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny_run")
    cfg_path = base / "exp.cfg"
    out_dir = base / "out"
    cfg_path.write_text(TINY_CONFIG + f"experiment.output_dir = {out_dir}\n")
    rc = cli.main(["run", "--config", str(cfg_path)])
    assert rc == 0
    return out_dir


class TestRunExperiment:
    def test_artifacts_exist(self, tiny_run):
        seed_dir = tiny_run / "seed_0"
        for name in (
            "scenes_train.jsonl", "scenes_test.jsonl", "human.jsonl",
            "generated_fixed.jsonl", "generated_variable.jsonl",
            "mixed_50_fixed.jsonl", "mixed_50_fixed.manifest.json",
            "model_100.ckpt", "model_50_fixed.ckpt", "stats.csv", "report.csv",
        ):
            assert (seed_dir / name).exists(), name
        for name in ("report_mean.csv", "stats_mean.csv", "report.md",
                     "manifest.json", "config.txt"):
            assert (tiny_run / name).exists(), name
        # the run leaves .lock in place, empty and free for the next run
        assert (tiny_run / ".lock").read_bytes() == b""
        os.close(cli._acquire_lock(tiny_run / ".lock"))

    def test_report_shape(self, tiny_run):
        lines = (tiny_run / "report_mean.csv").read_text().splitlines()
        assert lines[0] == metrics.REPORT_HEADER
        assert len(lines) == 3  # header + 100:- + 50:fixed
        assert lines[1].startswith("100,0,-,")
        assert lines[2].startswith("50,50,fixed,")

    def test_manifest_digests_cover_files(self, tiny_run):
        manifest = json.loads((tiny_run / "manifest.json").read_text())
        assert "seed_0/report.csv" in manifest["files"]
        import hashlib

        digest = hashlib.sha256((tiny_run / "seed_0" / "report.csv").read_bytes()).hexdigest()
        assert manifest["files"]["seed_0/report.csv"] == digest

    def test_manifest_records_numeric_environment(self, tiny_run):
        manifest = json.loads((tiny_run / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,  # set on the OpenBLAS of numpy's wheels, whatever the environment
            "cpu_count": os.cpu_count(),
            # one process per cell of TINY_CONFIG's two, as far as there are usable CPUs
            "cell_processes": min(2, len(os.sched_getaffinity(0))),
        }

    def test_reports_match_committed_pin(self, tiny_run):
        # tests/data holds the mean reports TINY_CONFIG gives as committed. A
        # change that moves any of their bytes regenerates them (copy the two
        # files from a `guessmix run` of TINY_CONFIG) and says why in CHANGES.md
        for name in ("report_mean.csv", "stats_mean.csv"):
            assert (tiny_run / name).read_bytes() == (DATA_DIR / name).read_bytes(), name

    def test_scene_ranges_disjoint(self, tiny_run):
        train = scene.read_scenes(tiny_run / "seed_0" / "scenes_train.jsonl")
        test = scene.read_scenes(tiny_run / "seed_0" / "scenes_test.jsonl")
        assert {s.scene_id for s in train} & {s.scene_id for s in test} == set()

    def test_lock_blocks_concurrent_runs(self, tiny_run, tmp_path):
        lock = tiny_run / ".lock"
        fd = os.open(lock, os.O_RDWR | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        try:
            cfg = load_config(None, {
                "experiment.output_dir": str(tiny_run),
                "experiment.n_train_scenes": "10",
                "experiment.n_test_scenes": "5",
            })
            with pytest.raises(ConfigError, match="lock"):
                cli.run_experiment(cfg)
        finally:
            lock.unlink()
            os.close(fd)

    def test_lock_of_dead_process_does_not_block(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", ""])
        proc.wait()  # reaped: its pid no longer names a process
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text(str(proc.pid))
        cfg = _one_model_config(out)
        cli.run_experiment(cfg)
        assert (out / "report_mean.csv").exists()
        # the .lock stays, and the next run proceeds on it
        assert (out / ".lock").read_text() == str(proc.pid)
        (out / "report_mean.csv").unlink()
        cli.run_experiment(cfg)
        assert (out / "report_mean.csv").exists()

    def test_lock_file_is_empty_while_held(self, tmp_path, monkeypatch):
        # the flock is the lock: a run writes nothing into .lock
        out = tmp_path / "held"
        run_seed = cli._run_seed
        seen = []

        def spy(*args):
            seen.append((out / ".lock").read_bytes())
            return run_seed(*args)

        monkeypatch.setattr(cli, "_run_seed", spy)
        cli.run_experiment(_one_model_config(out))
        assert seen == [b""]
        assert (out / ".lock").read_bytes() == b""

    def test_lock_of_live_process_blocks(self, tmp_path, capsys):
        out = tmp_path / "live"
        out.mkdir()
        # another process holds the flock the way a run does, and writes its
        # pid so that the file shows the refused run left it alone; it exits
        # when the with block closes its stdin
        with subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, os, sys\n"
             "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
             "fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
             "os.write(fd, str(os.getpid()).encode())\n"
             "print('held', flush=True)\n"
             "sys.stdin.read()\n",
             str(out / ".lock")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as holder:
            assert holder.stdout.readline() == "held\n"
            assert cli.main(["run", "--experiment.output_dir", str(out),
                             "--experiment.n_train_scenes", "10",
                             "--experiment.n_test_scenes", "5"]) == cli.EXIT_VALIDATION
            assert "locked by another run" in capsys.readouterr().err
            assert (out / ".lock").read_text() == str(holder.pid)
        assert not (out / "config.txt").exists()

    def test_leftover_lock_naming_live_process_does_not_block(self, tmp_path):
        # a .lock nobody holds the flock on blocks nothing, even when the pid
        # in it names a live process that is not a run
        out = tmp_path / "leftover"
        out.mkdir()
        with subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                              stdin=subprocess.PIPE) as bystander:
            (out / ".lock").write_text(str(bystander.pid))
            cfg = _one_model_config(out)
            cli.run_experiment(cfg)
            assert bystander.poll() is None
        assert (out / "report_mean.csv").exists()
        # the .lock stays, and the next run proceeds on it
        assert (out / ".lock").read_text() == str(bystander.pid)
        (out / "report_mean.csv").unlink()
        cli.run_experiment(cfg)
        assert (out / "report_mean.csv").exists()

    def test_run_of_another_config_is_refused(self, tmp_path, capsys):
        # the second run's manifest used to list every file of the first
        # that it did not overwrite: seed_1/, the ablation reports and more
        out = tmp_path / "run"
        path = _tiny_config(tmp_path, out)
        assert cli.main(["run", "--config", str(path), "--experiment.replicate_seeds", "2",
                         "--experiment.mix_specs", "100:-,50:fixed,0:fixed"]) == cli.EXIT_OK
        first = {name: (out / name).read_bytes() for name in ("config.txt", "manifest.json")}
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_VALIDATION
        assert (f"error: output directory {out} holds a run of another configuration "
                "(its config.txt differs); choose a new one\n") in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in first} == first

    def test_subcommands_reproduce_run_files(self, tiny_run, tmp_path, capsys):
        seed_dir = tiny_run / "seed_0"
        rep_seed = derive_seed(1, 0)  # experiment.seed = 1, replicate 0
        run = lambda *args: cli.main([str(a) for a in args])
        assert run("gen-scenes", "--n", 60, "--seed", derive_seed(rep_seed, 1),
                   "--out", tmp_path / "scenes_train.jsonl") == 0
        assert run("collect-human", "--scenes", seed_dir / "scenes_train.jsonl",
                   "--seed", derive_seed(rep_seed, 2), "--out", tmp_path / "human.jsonl") == 0
        assert run("mix", "--human", seed_dir / "human.jsonl",
                   "--generated", seed_dir / "generated_fixed.jsonl",
                   "--pct-human", 50, "--length", "fixed", "--seed", derive_seed(rep_seed, 8),
                   "--out", tmp_path / "mixed.jsonl") == 0
        for mode, stream in (("fixed", 6), ("variable", 7)):
            assert run("selfplay", "--model", seed_dir / "model_100.ckpt",
                       "--scenes", seed_dir / "scenes_train.jsonl", "--length", mode,
                       "--human", seed_dir / "human.jsonl",
                       "--seed", derive_seed(rep_seed, stream),
                       "--out", tmp_path / f"generated_{mode}.jsonl") == 0
        for name, ours in (("scenes_train.jsonl", "scenes_train.jsonl"),
                           ("human.jsonl", "human.jsonl"),
                           ("generated_fixed.jsonl", "generated_fixed.jsonl"),
                           ("generated_variable.jsonl", "generated_variable.jsonl"),
                           ("mixed_50_fixed.jsonl", "mixed.jsonl"),
                           ("mixed_50_fixed.manifest.json", "mixed.manifest.json")):
            assert (tmp_path / ours).read_bytes() == (seed_dir / name).read_bytes(), name

        stats_lines = (seed_dir / "stats.csv").read_text().splitlines()
        report_lines = (seed_dir / "report.csv").read_text().splitlines()
        # mix j of TINY_CONFIG: (corpus, checkpoint); the labels come from
        # the corpus's manifest, or for human.jsonl, which has none, from its share.
        # Every model of the replicate trains on seed R and plays on stream 90;
        # the base model's vocabulary is saved beside it
        mixes = [("human.jsonl", "model_100.ckpt", "vocab_100.jsonl"),
                 ("mixed_50_fixed.jsonl", "model_50_fixed.ckpt", None)]
        for j, (corpus, ckpt, vocab) in enumerate(mixes):
            assert run("train", "--dialogues", seed_dir / corpus,
                       "--scenes", seed_dir / "scenes_train.jsonl", "--seed", rep_seed,
                       "--model.embed_dim", 8, "--model.hidden_dim", 12, "--model.epochs", 2,
                       "--model.batch_size", 8, "--out", tmp_path / ckpt,
                       *(("--vocab-out", tmp_path / vocab) if vocab else ())) == 0
            for name in filter(None, (ckpt, vocab)):
                assert (tmp_path / name).read_bytes() == (seed_dir / name).read_bytes(), name
            capsys.readouterr()
            assert run("stats", seed_dir / corpus) == 0
            assert capsys.readouterr().out.strip() == stats_lines[1 + j]
            assert run("evaluate", "--model", seed_dir / ckpt,
                       "--scenes", seed_dir / "scenes_test.jsonl",
                       "--train-dialogues", seed_dir / corpus,
                       "--seed", derive_seed(rep_seed, 90)) == 0
            assert capsys.readouterr().out.strip() == report_lines[1 + j]

    def test_replicate_means(self, tmp_path):
        out = cli.run_experiment(load_config(None, {
            "experiment.output_dir": str(tmp_path / "two"),
            "experiment.replicate_seeds": "2",
            "experiment.n_train_scenes": "40",
            "experiment.n_test_scenes": "10",
            "experiment.mix_specs": "100:-,75:fixed",
            "model.embed_dim": "8",
            "model.hidden_dim": "12",
            "model.epochs": "2",
            "model.batch_size": "8",
        }))

        def rows(path):
            return [line.split(",") for line in path.read_text().splitlines()[1:]]

        # decimals of each column: "text" for length_mode, 0 for voc_size.
        # The shares print six significant digits, so four decimals below 100
        for name, decimals in (("stats", (4, 4, "text", 0, 4, 2)),
                               ("report", (4, 4, "text", 2, 2, 4, 2, 2))):
            seeds = [rows(out / f"seed_{r}" / f"{name}.csv") for r in range(2)]
            mean = rows(out / f"{name}_mean.csv")
            assert len(mean) == len(seeds[0]) == len(seeds[1]) == 2
            for got, a, b in zip(mean, *seeds):
                for col, d in enumerate(decimals):
                    if d == "text":  # the same in every replicate
                        assert got[col] == a[col] == b[col]
                    elif d == 0:  # the rounded mean of two integers
                        assert int(got[col]) == round((int(a[col]) + int(b[col])) / 2)
                    else:  # each printed value is off by at most half a unit
                        want = (float(a[col]) + float(b[col])) / 2
                        assert abs(float(got[col]) - want) <= 10 ** -d + 1e-12
        # the stats rows measure the shares, which the 75:fixed replicates
        # do not share: their teacher corpora differ in size
        shares = [rows(out / f"seed_{r}" / "stats.csv")[1][0] for r in range(2)]
        assert shares[0] != shares[1]

    def test_generated_only_rows_are_ablation(self, tmp_path):
        cfg = load_config(None, {
            "experiment.output_dir": str(tmp_path / "ablation"),
            "experiment.n_train_scenes": "50",
            "experiment.n_test_scenes": "15",
            "experiment.mix_specs": "100:-,50:fixed,0:fixed,0:variable",
            "model.embed_dim": "8",
            "model.hidden_dim": "12",
            "model.epochs": "2",
            "model.batch_size": "8",
        })
        out = cli.run_experiment(cfg)
        stats = (out / "stats_mean.csv").read_text().splitlines()
        assert len(stats) == 1 + 4  # 100, 50/fixed, 0/fixed, 0/variable
        assert any(line.startswith("0,100,") for line in stats[1:])
        report = (out / "report_mean.csv").read_text().splitlines()
        assert len(report) == 1 + 2  # ablation rows kept out of the main report
        ablation = (out / "report_ablation_mean.csv").read_text().splitlines()
        assert len(ablation) == 1 + 2
        assert "ablation" in (out / "report.md").read_text()

    def test_corrupt_checkpoint_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(b"not a checkpoint")
        scenes_path = tmp_path / "scenes.jsonl"
        cli.main(["gen-scenes", "--n", "5", "--seed", "0", "--out", str(scenes_path)])
        rc = cli.main(["evaluate", "--model", str(bad), "--scenes", str(scenes_path),
                       "--train-dialogues", str(scenes_path)])
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("damage, named", [
        (lambda meta, arrays: meta["config"].update(decode_mode="argmax"), "'argmax'"),
        (lambda meta, arrays: arrays.update(w_out=arrays["w_out"][:10]), "w_out"),
        (lambda meta, arrays: meta["config"].update(beam_width=3), "beam_width"),
        (lambda meta, arrays: arrays.pop("w_obj"), "w_obj"),
        # a format-1 checkpoint, whose settings include model.guesser_human_only
        (lambda meta, arrays: meta.update(
            format=1, config=dict(meta["config"], guesser_human_only=False)), "format 1"),
    ], ids=("bad_decode_mode", "short_w_out", "unknown_setting", "missing_array", "format_1"))
    def test_damaged_checkpoint_is_validation_error(self, tiny_run, tmp_path, capsys,
                                                    damage, named):
        # a checkpoint that save_checkpoint would not write is refused before
        # play, and the message names the file and what is wrong in it
        seed_dir = tiny_run / "seed_0"
        with np.load(seed_dir / "model_100.ckpt", allow_pickle=False) as z:
            meta = json.loads(z["meta"].item())
            arrays = {k: z[k] for k in z.files if k != "meta"}
        damage(meta, arrays)
        bad = tmp_path / "model.ckpt"
        with open(bad, "wb") as f:
            np.savez(f, meta=np.array(json.dumps(meta)), **arrays)
        rc = cli.main(["evaluate", "--model", str(bad),
                       "--scenes", str(seed_dir / "scenes_test.jsonl"),
                       "--train-dialogues", str(seed_dir / "human.jsonl")])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(bad) in err and named in err

    def test_best_val_checkpoint_pipeline(self, tmp_path):
        cfg = load_config(None, {
            "experiment.output_dir": str(tmp_path / "bv"),
            "experiment.n_train_scenes": "40",
            "experiment.n_test_scenes": "10",
            "experiment.n_val_scenes": "15",
            "experiment.mix_specs": "100:-,50:fixed",
            "selfplay.checkpoint": "best_val",
            "model.embed_dim": "8",
            "model.hidden_dim": "12",
            "model.epochs": "3",
            "model.batch_size": "8",
        })
        out = cli.run_experiment(cfg)
        seed_dir = out / "seed_0"
        assert (seed_dir / "scenes_val.jsonl").exists()
        assert (seed_dir / "val.jsonl").exists()
        assert (out / "report_mean.csv").exists()
        # the self-play player is saved, so the subcommand reproduces its corpus
        assert cli.main(["selfplay", "--model", str(seed_dir / "model_100_best_val.ckpt"),
                         "--scenes", str(seed_dir / "scenes_train.jsonl"),
                         "--human", str(seed_dir / "human.jsonl"),
                         "--seed", str(derive_seed(derive_seed(0, 0), 6)),
                         "--out", str(tmp_path / "generated_fixed.jsonl")]) == 0
        assert ((tmp_path / "generated_fixed.jsonl").read_bytes()
                == (seed_dir / "generated_fixed.jsonl").read_bytes())
        # and `train` with the validation data reproduces both base checkpoints
        assert cli.main(["train", "--dialogues", str(seed_dir / "human.jsonl"),
                         "--scenes", str(seed_dir / "scenes_train.jsonl"),
                         "--seed", str(derive_seed(0, 0)),
                         "--val-dialogues", str(seed_dir / "val.jsonl"),
                         "--val-scenes", str(seed_dir / "scenes_val.jsonl"),
                         "--model.embed_dim", "8", "--model.hidden_dim", "12",
                         "--model.epochs", "3", "--model.batch_size", "8",
                         "--out", str(tmp_path / "model_100.ckpt")]) == 0
        for name in ("model_100.ckpt", "model_100_best_val.ckpt"):
            assert (tmp_path / name).read_bytes() == (seed_dir / name).read_bytes(), name

    def test_unwritable_output_dir_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "outdir"
        blocker.write_text("a file where the directory should go")
        rc = cli.main(["run", "--experiment.output_dir", str(blocker),
                       "--experiment.n_train_scenes", "10",
                       "--experiment.n_test_scenes", "5"])
        assert rc == cli.EXIT_RUNTIME

    def test_report_rebuilds_the_run_report_md(self, tmp_path, capsys):
        # `report` moves the 0%-human rows to the ablation table and CSV, as
        # `run` does, so the evaluated rows of a run rebuild its report.md,
        # report.csv and report_ablation.csv
        specs = ["100:-", "50:fixed", "0:fixed"]
        path = _tiny_config(tmp_path, tmp_path / "run")
        assert cli.main(["run", "--config", str(path),
                         "--experiment.mix_specs", ",".join(specs)]) == cli.EXIT_OK
        seed_dir = tmp_path / "run" / "seed_0"
        rows = []
        for j, spec in enumerate(specs):
            tag = spec.replace(":", "_").removesuffix("_-")
            corpus = "human.jsonl" if j == 0 else f"mixed_{tag}.jsonl"
            rows.append(tmp_path / f"row_{j}.jsonl")
            assert cli.main(["evaluate", "--model", str(seed_dir / f"model_{tag}.ckpt"),
                             "--scenes", str(seed_dir / "scenes_test.jsonl"),
                             "--train-dialogues", str(seed_dir / corpus),
                             "--seed", str(derive_seed(derive_seed(1, 0), 90)),
                             "--out", str(rows[-1])]) == cli.EXIT_OK
        assert cli.main(["report", "--rows", *map(str, rows), "--out-csv",
                         str(tmp_path / "report.csv"), "--out-md",
                         str(tmp_path / "report.md")]) == cli.EXIT_OK
        want = (tmp_path / "run" / "report.md").read_bytes()
        assert b"Generated-only training (ablation)" in want
        assert (tmp_path / "report.md").read_bytes() == want
        for name in ("report.csv", "report_ablation.csv"):
            assert (tmp_path / name).read_bytes() == (seed_dir / name).read_bytes(), name
        assert (f"wrote 2 rows to {tmp_path / 'report.csv'} and 1 to "
                f"{tmp_path / 'report_ablation.csv'}") in capsys.readouterr().out

    def test_module_run_logs_as_guessmix_cli(self, tmp_path):
        path = _tiny_config(tmp_path, tmp_path / "run")
        proc = subprocess.run([sys.executable, "-m", "guessmix.cli", "-v", "run", "--config",
                               str(path)], capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert "INFO guessmix.cli: === replicate 1 of 1 ===" in proc.stderr
        assert "__main__" not in proc.stderr


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# three retrain cells: with two processes a worker runs 50_variable
CELL_SPECS = "100:-,50:fixed,50:variable,0:fixed"
# start of a `python -c` program whose runs use two processes, for the
# cells and for self-play, however many CPUs this host has
TWO_CELL_PROCESSES = ("import sys; from guessmix import cli, parallel; "
                      "parallel.processes = lambda tasks: 2; ")


class Odd(Exception):
    """Pickles, but cannot be rebuilt: its pickle calls Odd('1/2')."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _children(pid: int) -> set[int]:
    """The processes whose parent is `pid`, zombies included."""
    kids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.add(int(stat.parent.name))
    return kids


def _gone(pid: int) -> bool:
    """No such process, or a zombie that has stopped running."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


class TestCellWorkers:
    def test_process_count_rule(self, monkeypatch):
        rule = parallel.processes
        assert rule(4, cpus=2) == 2
        # never more than the tasks, and at least the calling process
        assert rule(3, cpus=16) == 3
        assert rule(1, cpus=16) == 1
        assert rule(0, cpus=16) == 1
        # by default the usable CPUs of this process
        assert rule(4) == min(4, len(os.sched_getaffinity(0)))
        assert parallel.BLAS_THREADS == 1  # numpy's wheels bundle OpenBLAS, which has a setter
        # numpy's BLAS without a known thread setter could spread each
        # process's products over every core: the work stays in this process
        monkeypatch.setattr(parallel, "_BLAS_SETTERS", ("no_such_setter",))
        assert parallel._one_blas_thread() is None
        monkeypatch.setattr(parallel, "BLAS_THREADS", None)
        assert rule(4, cpus=2) == 1
        assert rule(4) == 1

    def test_blas_variables_move_no_byte(self, tmp_path):
        # guessmix sets one BLAS thread itself, so a run with the variables
        # unset writes every byte, checkpoints included, as one with them
        # pinned to 1, and shares its cells over every usable CPU
        unset = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        # numpy's own OpenBLAS, a thread per CPU by default, runs one once
        # guessmix is imported
        getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
        code = ("import ctypes; from numpy.linalg import _umath_linalg\n"
                "lib = ctypes.CDLL(_umath_linalg.__file__)\n"
                f"get = next(getattr(lib, name) for name in {getters} if hasattr(lib, name))\n"
                "before = get()\nimport guessmix\nprint(before, get())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**unset, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(len(os.sched_getaffinity(0))), "1"]
        path = _tiny_config(tmp_path, tmp_path / "run")
        manifests = []
        for env in (unset, {**unset, **dict.fromkeys(BLAS_VARIABLES, "1")}):
            proc = subprocess.run([sys.executable, "-m", "guessmix.cli", "run", "--config",
                                   str(path), "--experiment.mix_specs", CELL_SPECS],
                                  capture_output=True, text=True, timeout=300,
                                  env={**env, "PYTHONPATH": str(SRC)})
            assert proc.returncode == 0, proc.stderr
            manifests.append(json.loads((tmp_path / "run" / "manifest.json").read_text()))
        assert manifests[0]["files"] == manifests[1]["files"]
        assert "seed_0/model_50_fixed.ckpt" in manifests[0]["files"]
        for manifest in manifests:
            assert manifest["environment"]["blas_threads"] == 1
            assert manifest["environment"]["cell_processes"] == min(
                4, len(os.sched_getaffinity(0)))

    @staticmethod
    def _run_on_one_and_two_cpus(tmp_path, specs, *flags):
        """Fresh interpreters, run with `-v` on one usable CPU (one cell
        process) and on two (a forked child besides the calling process);
        returns each run's stderr, after checking that the run left no child
        process and that every digest but config.txt's is the same on both."""
        path = _tiny_config(tmp_path)
        usable = sorted(os.sched_getaffinity(0))
        logs, manifests = [], []
        for cpus in ({usable[0]}, set(usable[:2])):
            out = tmp_path / f"cpus_{len(cpus)}"
            code = (f"import os, sys\nos.sched_setaffinity(0, {cpus})\n"
                    "from guessmix import cli\nrc = cli.main(sys.argv[1:])\n"
                    "try:\n    os.waitpid(-1, os.WNOHANG)\n    print('a child is left')\n"
                    "except ChildProcessError:\n    sys.exit(rc)\n")
            proc = subprocess.run(
                [sys.executable, "-c", code, "-v", "run", "--config", str(path),
                 "--experiment.output_dir", str(out), "--experiment.mix_specs", specs, *flags],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(SRC)})
            assert proc.returncode == 0, proc.stderr
            assert "a child is left" not in proc.stdout
            logs.append(proc.stderr)
            manifests.append(json.loads((out / "manifest.json").read_text()))
            assert manifests[-1]["environment"]["cell_processes"] == len(cpus)
        one, two = (m["files"] for m in manifests)
        assert one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == ["config.txt"]
        return logs

    @staticmethod
    def _worker_cells(log, replicate=0):
        return re.findall(rf"cell (\S+) of replicate {replicate}: [\d.]+ s in worker \d+", log)

    @staticmethod
    def _self_play(log, replicate=0):
        """(length mode, processes) of each self-play corpus played, in order."""
        return re.findall(rf"self-play (\w+) corpus of replicate {replicate}: [\d.]+ s "
                          r"on (\d+) processes", log)

    def test_same_outputs_on_one_and_two_cpus(self, tmp_path):
        # each replicate plays both corpora over every process, then forks
        # its own child for the cells, which gets every other cell from the
        # first, the 100% one included
        serial, pooled = self._run_on_one_and_two_cpus(tmp_path, CELL_SPECS,
                                                       "--experiment.replicate_seeds", "2")
        for replicate in (0, 1):
            assert self._worker_cells(serial, replicate) == []
            assert self._worker_cells(pooled, replicate) == ["100", "50_variable"], pooled
            assert self._self_play(serial, replicate) == [("fixed", "1"), ("variable", "1")]
            assert self._self_play(pooled, replicate) == [("fixed", "2"), ("variable", "2")]
        assert len(set(re.findall(r"in worker (\d+)", pooled))) == 2, pooled

    def test_corpus_no_cell_uses_is_played_by_the_calling_process(self, tmp_path):
        # both processes retrain on the variable corpus, and no cell uses the
        # fixed one: the calling process still plays each corpus once, with
        # the child's help, and writes it before the cells are dealt
        serial, pooled = self._run_on_one_and_two_cpus(tmp_path, "100:-,75:variable,50:variable")
        assert self._worker_cells(pooled) == ["100", "50_variable"], pooled
        assert self._self_play(serial) == [("fixed", "1"), ("variable", "1")]
        assert self._self_play(pooled) == [("fixed", "2"), ("variable", "2")], pooled

    def test_a_mix_does_not_depend_on_where_its_spec_sits(self, tmp_path):
        # every model trains and plays on the base model's streams, so a mix
        # gets the same corpus, checkpoint and report row wherever it is
        # listed and whichever process runs it
        orders = {"fixed_first": "100:-,50:fixed,50:variable",
                  "variable_first": "100:-,50:variable,50:fixed"}
        seen = {}
        for name, specs in orders.items():
            (tmp_path / name).mkdir()
            seen[name] = self._worker_cells(self._run_on_one_and_two_cpus(tmp_path / name,
                                                                          specs)[1])
        # the deal differs: the child gets whichever mix is listed second
        assert seen == {"fixed_first": ["100", "50_variable"],
                        "variable_first": ["100", "50_fixed"]}
        labels = {"100": "100,0,-,", "50_fixed": "50,50,fixed,",
                  "50_variable": "50,50,variable,"}
        outputs = {tag: set() for tag in labels}
        for name in orders:
            for cpus in ("cpus_1", "cpus_2"):
                out = tmp_path / name / cpus
                digests = json.loads((out / "manifest.json").read_text())["files"]
                rows = (out / "seed_0" / "report.csv").read_text().splitlines()
                for tag, label in labels.items():
                    [row] = [r for r in rows if r.startswith(label)]
                    files = [f"model_{tag}.ckpt"] + ([] if tag == "100" else [
                        f"mixed_{tag}.jsonl", f"mixed_{tag}.manifest.json"])
                    outputs[tag].add((row, *(digests[f"seed_0/{f}"] for f in files)))
        assert all(len(runs) == 1 for runs in outputs.values()), outputs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_deal_returns_results_in_item_order(self, monkeypatch, n):
        monkeypatch.setattr(parallel, "processes", lambda tasks: n)
        before = _children(os.getpid())
        for items in ([], ["a"], list("abcdefghij"), range(7)):
            assert parallel.deal(lambda x: x * 2, items) == [x * 2 for x in items], (n, items)
        assert _children(os.getpid()) <= before

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_deal_works_the_last_share_in_the_calling_process(self, monkeypatch, n):
        # item k goes to share k mod n: the last share is worked here, each
        # other in a child of its own
        monkeypatch.setattr(parallel, "processes", lambda tasks: n)
        pids = parallel.deal(lambda x: os.getpid(), range(3 * n + 1))
        assert [pid == os.getpid() for pid in pids] == [k % n == n - 1 for k in range(len(pids))]
        assert all(pid == pids[k % n] for k, pid in enumerate(pids))
        assert len(set(pids)) == n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_deal_raises_a_childs_exception_with_its_type(self, monkeypatch, n):
        monkeypatch.setattr(parallel, "processes", lambda tasks: n)
        caller = os.getpid()
        before = _children(caller)

        def work(x):
            if os.getpid() != caller and x == n - 2:  # the last child's first item
                raise OSError(28, "No space left on device")
            return x

        with pytest.raises(OSError) as raised:
            parallel.deal(work, range(2 * n))
        assert type(raised.value) is OSError and raised.value.errno == 28
        assert _children(caller) <= before

    @pytest.mark.parametrize("reply", ["result", "exception"])
    def test_deal_names_a_childs_reply_that_cannot_be_pickled(self, monkeypatch, reply):
        # the child used to exit with status 2 and the caller raise a bare
        # ChildError('exited with 2')
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        caller = os.getpid()
        before = _children(caller)

        def work(x):
            if reply == "exception" and os.getpid() != caller:
                raise ValueError(lambda: x)
            return lambda: x

        with pytest.raises(pickle.PicklingError,
                           match=rf"cannot send a child's {reply}\b.*: .*lambda") as raised:
            parallel.deal(work, [1, 2])
        assert type(raised.value) is pickle.PicklingError
        assert _children(caller) <= before

    def test_deal_names_a_childs_exception_that_cannot_be_rebuilt(self, monkeypatch):
        # an exception that pickles but cannot be rebuilt reaches the caller
        # by its type and message, not as the TypeError its rebuilding raises
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        caller = os.getpid()
        before = _children(caller)

        def work(x):
            if os.getpid() != caller:
                raise Odd(1, 2)
            return x

        with pytest.raises(pickle.PicklingError,
                           match=r"^cannot send a child's exception Odd\('1/2'\): TypeError: "
                                 r".*missing 1 required positional argument: 'b'$"):
            parallel.deal(work, [1, 2])
        assert _children(caller) <= before

    def test_deal_names_a_child_killed_while_its_reply_is_in_the_pipe(self, monkeypatch, started):
        # the caller used to raise the UnpicklingError of the torn reply,
        # which names neither the child nor how it ended
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        caller = os.getpid()
        before = _children(caller)

        def work(x):
            if os.getpid() != caller:
                return bytes(4 << 20)  # far past the pipe's buffer: the child blocks writing it
            [(child, read)] = started
            assert select.select([read], [], [], 60)[0]  # its reply has begun
            os.kill(child, signal.SIGKILL)
            return x

        with pytest.raises(parallel.ChildError) as raised:
            parallel.deal(work, [0, 1])
        assert str(raised.value) == f"child {started[0][0]} killed by signal 9"
        assert _children(caller) <= before

    # each stage label of a run, and the function `cli` calls in that stage
    # with a test of its arguments for the call to fail
    STAGE_FAILURES = {
        "scenes": ("stage_scenes", lambda *args: True),
        "teacher": ("stage_collect", lambda *args: True),
        "base-train": ("stage_train", lambda *args: Path(args[4]).name == "model_100.ckpt"),
        "selfplay": ("stage_selfplay", lambda *args: True),
        "mix-50_fixed": ("stage_mix", lambda *args: Path(args[3]).name == "mixed_50_fixed.jsonl"),
        "train-50_fixed": ("stage_train",
                           lambda *args: Path(args[4]).name == "model_50_fixed.ckpt"),
        "evaluate-100": ("stage_evaluate", lambda *args: args[4].pct_human == 100),
        "evaluate-50_fixed": ("stage_evaluate", lambda *args: args[4] == MixSpec(50, "fixed")),
        "cells": ("_run_cell", lambda *args: True),
        "report": ("stage_report", lambda *args: True),
    }

    @pytest.mark.parametrize("label", STAGE_FAILURES)
    def test_every_stage_names_itself(self, tmp_path, monkeypatch, capsys, label):
        # a failure in the calling process or in a cell's child is reported
        # by the stage it happened in, under the one message format
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        name, fails = self.STAGE_FAILURES[label]
        stage = getattr(cli, name)

        def failing(*args, **kwargs):  # patched before the fork, so a child runs it too
            if fails(*args):
                raise RuntimeError("out of disk")
            return stage(*args, **kwargs)

        monkeypatch.setattr(cli, name, failing)
        before = _children(os.getpid())
        out = tmp_path / "run"
        path = _tiny_config(tmp_path, out)
        rc = cli.main(["run", "--config", str(path), "--experiment.mix_specs", CELL_SPECS])
        assert rc == cli.EXIT_RUNTIME
        assert (capsys.readouterr().err
                == f"error: stage '{label}' failed for replicate 0: out of disk\n")
        assert not (out / "manifest.json").exists()
        assert _children(os.getpid()) <= before

    def test_failure_in_a_worker_names_its_stage(self, tmp_path, monkeypatch, capsys, started):
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        out = tmp_path / "run"
        # a directory where the child's cell saves its checkpoint
        (out / "seed_0" / "model_50_variable.ckpt").mkdir(parents=True)
        path = _tiny_config(tmp_path, out)
        before = _children(os.getpid())
        rc = cli.main(["run", "--config", str(path), "--experiment.mix_specs", CELL_SPECS])
        assert rc == cli.EXIT_RUNTIME
        assert "stage 'train-50_variable' failed for replicate 0" in capsys.readouterr().err
        assert len(started) == 3  # one per self-play corpus, then the cells' child
        for child, _ in started:
            with pytest.raises(ChildProcessError):  # reaped
                os.waitpid(child, os.WNOHANG)
        assert _children(os.getpid()) <= before
        assert not (out / "manifest.json").exists()
        os.close(cli._acquire_lock(out / ".lock"))

    def test_worker_gone_before_its_job_is_a_stage_error(self, tmp_path, monkeypatch, started):
        # a child that ends without replying fails the run with its wait
        # status, and the run closes its pipe, reaps it, writes no manifest
        # and leaves the output directory unlocked and no child behind
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        run_cell, test_pid = cli._run_cell, os.getpid()
        before = _children(test_pid)
        path = _tiny_config(tmp_path)
        for end, status in ((lambda: os._exit(3), "exited with 3"),
                            (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9")):
            def cell(*args, end=end):  # patched before the fork, so the child runs it too
                if os.getpid() != test_pid:
                    end()
                return run_cell(*args)

            monkeypatch.setattr(cli, "_run_cell", cell)
            out = tmp_path / status.replace(" ", "_")
            with pytest.raises(cli.StageError) as raised:
                cli.run_experiment(load_config(path, {"experiment.mix_specs": CELL_SPECS,
                                                      "experiment.output_dir": str(out)}))
            assert len(started) == 3  # one per self-play corpus, then the cells' child
            assert str(raised.value) == (f"stage 'cells' failed for replicate 0: "
                                         f"child {started[2][0]} {status}")
            for child, read in started:
                with pytest.raises(OSError):  # its pipe is closed
                    os.fstat(read)
                with pytest.raises(ChildProcessError):  # reaped
                    os.waitpid(child, os.WNOHANG)
            started.clear()
            assert _children(test_pid) <= before
            assert not (out / "manifest.json").exists()
            os.close(cli._acquire_lock(out / ".lock"))

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(3), "exited with 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=("exit_3", "sigkill"))
    def test_self_play_child_gone_is_a_stage_error(self, tmp_path, monkeypatch, capsys,
                                                   end, status):
        # a self-play child that ends without its games fails the run in the
        # selfplay stage, before any corpus is written or any cell dealt
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        play_game, test_pid = selfplay.play_game, os.getpid()

        def dies_in_a_child(*args):  # patched before the fork, so the child runs it too
            if os.getpid() != test_pid:
                end()
            return play_game(*args)

        monkeypatch.setattr(selfplay, "play_game", dies_in_a_child)
        before = _children(test_pid)
        out = tmp_path / "run"
        path = _tiny_config(tmp_path, out)
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_RUNTIME
        assert re.fullmatch(rf"error: stage 'selfplay' failed for replicate 0: "
                            rf"child \d+ {status}\n", capsys.readouterr().err)
        assert (out / "seed_0" / "model_100.ckpt").exists()
        assert not list(out.rglob("generated_*.jsonl"))
        assert not (out / "manifest.json").exists()
        assert _children(test_pid) <= before
        os.close(cli._acquire_lock(out / ".lock"))

    def test_child_never_returns_into_the_caller(self, tmp_path, monkeypatch):
        # a child whose share raises past StageError still ends in
        # `parallel._fork`, so the rest of this test runs once, in this process
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        run_cell, test_pid = cli._run_cell, os.getpid()
        path = _tiny_config(tmp_path)
        after_run = tmp_path / "after_run.txt"
        for exc in (KeyboardInterrupt, SystemExit):
            def cell(*args, exc=exc):
                if os.getpid() != test_pid:
                    raise exc()
                return run_cell(*args)

            monkeypatch.setattr(cli, "_run_cell", cell)
            outcome = None
            try:
                cli.run_experiment(load_config(path, {
                    "experiment.mix_specs": CELL_SPECS,
                    "experiment.output_dir": str(tmp_path / exc.__name__)}))
            except BaseException as caught:  # noqa: BLE001 - a child would catch its own here
                outcome = caught
            with after_run.open("a") as f:
                f.write(f"{os.getpid()}\n")
            if os.getpid() != test_pid:
                os._exit(0)  # a child got here: keep it out of the rest of the suite
            assert isinstance(outcome, cli.StageError), outcome
            assert re.fullmatch(rf"stage 'cells' failed for replicate 0: "
                                rf"child \d+ exited with {cli.EXIT_RUNTIME}", str(outcome))
        assert after_run.read_text() == f"{test_pid}\n" * 2

    def test_worker_exits_when_its_parent_is_killed(self, tmp_path):
        path = _tiny_config(tmp_path)
        out = tmp_path / "run"
        # enough epochs that the worker's cell trains for seconds
        parent = subprocess.Popen(
            [sys.executable, "-c", TWO_CELL_PROCESSES + "sys.exit(cli.main(sys.argv[1:]))",
             "run", "--config", str(path), "--experiment.output_dir", str(out),
             "--experiment.mix_specs", CELL_SPECS, "--model.epochs", "1000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        try:
            deadline = time.monotonic() + 120
            while not (out / "seed_0" / "mixed_50_variable.jsonl").exists():
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            [worker] = _children(parent.pid)
        finally:
            parent.kill()
            parent.wait()
        assert not (out / "seed_0" / "model_50_variable.ckpt").exists()  # mid-cell
        deadline = time.monotonic() + 2.0
        while not _gone(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _gone(worker)

    def test_script_without_main_guard(self, tmp_path):
        # a worker does not re-run the script that started the run
        out = tmp_path / "run"
        path = _tiny_config(tmp_path, out)
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import logging\n" + TWO_CELL_PROCESSES + "from guessmix import config\n"
            "logging.basicConfig(level=logging.INFO)\n"
            f"cli.run_experiment(config.load_config({str(path)!r}, "
            f"{{'experiment.mix_specs': {CELL_SPECS!r}}}))\n"
            "print('done')\n")
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "done\n"
        assert "cell 50_variable of replicate 0" in proc.stderr
        assert re.search(r"in worker \d+", proc.stderr)
        assert json.loads((out / "manifest.json").read_text())["environment"][
            "cell_processes"] == 2

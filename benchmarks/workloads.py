"""The workloads: set-up, one timed round, and the round's output check.

A workload is a `setup(seed, scale, out_dir)` returning the round's inputs,
a `round(inputs)` returning a `Round`, and a `check(round, reference)`
returning the list of problems found (empty when the output is correct).
Every set-up of one invocation makes the same inputs from the seed, so
every round's outputs must match the first round's bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from guessmix import cli, config, corpus, lang, metrics, model, scene, selfplay, teacher
from guessmix.oracle import OracleConfig
from guessmix.seeding import derive_seed


@dataclass(frozen=True)
class Scale:
    """Input sizes. `FULL` is what the benchmark measures; tests use `TINY`."""

    base_dialogues: int = 1000
    base_epochs: int = 30
    base_batch: int = 16
    play_scenes: int = 1000
    test_scenes: int = 300
    pipeline_train_scenes: int = 300
    pipeline_test_scenes: int = 50
    pipeline_epochs: int = 11
    setup_imports: int = 5
    probe_scenes: int = 2000
    probe_games: int = 500
    probe_corpus: int = 2000
    probe_val_dialogues: int = 128
    probe_reps: int = 7


FULL = Scale()
TINY = Scale(base_dialogues=24, base_epochs=1, play_scenes=24, test_scenes=12,
             pipeline_train_scenes=40, pipeline_test_scenes=10, pipeline_epochs=3,
             setup_imports=1, probe_scenes=40, probe_games=10, probe_corpus=40,
             probe_val_dialogues=16, probe_reps=1)

FIXED_TURNS = 5
MACHINE_ORACLE = OracleConfig(0.1)


@dataclass
class Round:
    seconds: float                  # wall time of the workload's timed call(s)
    items: int                      # work units done: dialogue-epochs or games
    digest: str                     # sha256 of the outputs that must repeat
    problems: list[str] = field(default_factory=list)  # found while running
    detail: dict = field(default_factory=dict)


def sha256_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _teacher_dialogues(n_wanted: int, seed: int):
    """Scenes and the first n_wanted kept teacher games on them.

    Scenes are drawn in growing sets until enough games survive the
    teacher's success filter, so the corpus size does not depend on the seed.
    """
    n_scenes = max(8, math.ceil(n_wanted * 1.1))
    while True:
        scenes = scene.generate_scene_set(n_scenes, seed)
        human = teacher.collect_teacher_corpus(
            scenes, OracleConfig(0.0), seed=derive_seed(seed, 1))
        if len(human) >= n_wanted:
            return scenes, human[:n_wanted]
        n_scenes *= 2


def pairs(dialogues, scenes):
    by_id = {s.scene_id: s for s in scenes}
    return [(d, by_id[d.scene_id]) for d in dialogues]


def base_questioner(human, scenes, scale: Scale, seed: int) -> model.Questioner:
    """A Questioner trained on teacher games until few of its questions fail to parse.

    Batches of 16 instead of the program's 32 give twice the SGD steps per
    epoch, which is what brings the malformed-question ratio down; at FULL
    scale it lands near the ratio of the program's own base model.
    """
    cfg = model.ModelConfig(epochs=scale.base_epochs, batch_size=scale.base_batch)
    vocab = lang.build_vocabulary(human)
    params = model.init_params(cfg, vocab, derive_seed(seed, 2))
    result = model.train(params, vocab, pairs(human[:scale.base_dialogues], scenes),
                         cfg, derive_seed(seed, 3))
    return model.Questioner(result.params, vocab, cfg)


def _dialogue_lines(dialogues) -> bytes:
    return "".join(
        json.dumps([d.game_id, d.source, [[list(t.question), t.answer] for t in d.turns],
                    d.guess, d.success]) + "\n"
        for d in dialogues
    ).encode()


# ---------------------------------------------------------------------------
# play: a fixed checkpoint plays every scene under both length policies


def setup_play(seed: int, scale: Scale, out_dir: Path) -> dict:
    scenes, human = _teacher_dialogues(scale.play_scenes, seed)
    test_scenes = scene.generate_scene_set(scale.test_scenes, derive_seed(seed, 9))
    ckpt = out_dir / "play.ckpt"
    model.save_checkpoint(ckpt, base_questioner(human, scenes, scale, seed))
    played = {d.scene_id for d in human}
    return {
        "questioner": model.load_checkpoint(ckpt),
        "scenes": [s for s in scenes if s.scene_id in played],
        "turns_by_game": {d.game_id: len(d.turns) for d in human},
        "test_scenes": test_scenes,
        "train_questions": corpus.question_set(human),
        "seed": seed,
    }


def round_play(inp: dict) -> Round:
    q, seed = inp["questioner"], inp["seed"]
    policies = (("fixed", selfplay.FixedLength(FIXED_TURNS), 10),
                ("variable", selfplay.MatchHuman(inp["turns_by_game"]), 11))
    start = time.perf_counter()
    played = [(name, policy, selfplay.generate_selfplay_corpus(
                   q, inp["scenes"], MACHINE_ORACLE, policy, derive_seed(seed, stream)))
              for name, policy, stream in policies]
    row = metrics.evaluate(q, inp["test_scenes"], MACHINE_ORACLE, inp["train_questions"],
                           turns=FIXED_TURNS, seed=derive_seed(seed, 12))
    seconds = time.perf_counter() - start
    problems: list[str] = []
    dialogues = []
    for name, policy, corpus_ in played:
        for d in corpus_:
            want = (policy.turns if isinstance(policy, selfplay.FixedLength)
                    else policy.turns_by_game[d.scene_id])
            if len(d.turns) != want:
                problems.append(f"{name} game {d.scene_id} has {len(d.turns)} turns, "
                                f"want {want}")
        dialogues.extend(corpus_)
    row_text = metrics.format_report_row(row)
    return Round(seconds=seconds, items=len(dialogues) + len(inp["test_scenes"]),
                 digest=sha256_bytes(_dialogue_lines(dialogues), row_text.encode()),
                 problems=problems, detail={"row": row})


def check_play(r: Round, ref: Round | None) -> list[str]:
    problems = list(r.problems)
    row = r.detail["row"]
    for name in ("acc", "grq", "gr"):
        if not 0.0 <= getattr(row, name) <= 100.0:
            problems.append(f"{name} = {getattr(row, name)} is outside [0, 100]")
    if not 0.0 <= row.mo <= 1.0:
        problems.append(f"mo = {row.mo} is outside [0, 1]")
    if not 0.0 <= row.nq <= FIXED_TURNS:
        problems.append(f"nq = {row.nq} is outside [0, {FIXED_TURNS}]")
    if ref is not None and r.digest != ref.digest:
        problems.append("dialogues or evaluation row differ from the first round")
    return problems


# ---------------------------------------------------------------------------
# pipeline: cli.run_experiment, one replicate over the five default mixes


def setup_pipeline(seed: int, scale: Scale, out_dir: Path) -> dict:
    """Write the reduced config, then time `guessmix run`'s start-up cost.

    Set-up here is what a fresh process pays before the first stage:
    interpreter start, importing the package and parsing the config file.
    """
    cfg_path = out_dir / "pipeline.cfg"
    cfg_path.write_text(
        f"experiment.seed = {seed}\n"
        f"experiment.n_train_scenes = {scale.pipeline_train_scenes}\n"
        f"experiment.n_test_scenes = {scale.pipeline_test_scenes}\n"
        f"model.epochs = {scale.pipeline_epochs}\n",
        encoding="utf-8",
    )
    src = Path(cli.__file__).resolve().parents[1]
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); "
             f"from guessmix import cli, config; config.load_config({str(cfg_path)!r})")
    for _ in range(scale.setup_imports):
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)
    return {"cfg_path": cfg_path, "run_dir": out_dir / "pipeline_run"}


def round_pipeline(inp: dict) -> Round:
    run_dir = inp["run_dir"]
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = config.load_config(inp["cfg_path"], {"experiment.output_dir": str(run_dir)})
    t0 = time.perf_counter()
    cli.run_experiment(cfg)
    seconds = time.perf_counter() - t0
    n_human = len(cli.read_dialogues(run_dir / "seed_0" / "human.jsonl"))
    n_models = len(cfg.mix_specs())
    reports = [run_dir / "report_mean.csv", run_dir / "stats_mean.csv"]
    return Round(seconds=seconds, items=n_human * cfg["model.epochs"] * n_models,
                 digest=sha256_bytes(*(p.read_bytes() for p in reports)),
                 detail={"run_dir": run_dir})


def check_pipeline(r: Round, ref: Round | None) -> list[str]:
    problems = list(r.problems)
    run_dir = r.detail["run_dir"]
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    on_disk = {str(p.relative_to(run_dir)): sha256_bytes(p.read_bytes())
               for p in run_dir.rglob("*")
               if p.is_file() and p.name not in (".lock", "manifest.json")}
    if manifest["files"] != on_disk:
        problems.append("manifest.json does not list every output file with its digest")
    if ref is not None and r.digest != ref.digest:
        problems.append("report_mean.csv or stats_mean.csv differ from the first round")
    return problems


WORKLOADS = {
    "play": (setup_play, round_play, check_play),
    "pipeline": (setup_pipeline, round_pipeline, check_pipeline),
}

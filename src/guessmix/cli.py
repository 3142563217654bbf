"""Command line interface and the two-step experiment pipeline.

The `run` subcommand executes the whole recipe: collect a teacher corpus,
train a base model on it, let that model play every training game against
the noisy oracle under both length policies, build the configured mixed
datasets, retrain a fresh model per dataset, and evaluate everything on the
test scenes with the fixed-question protocol. Each step is one `stage_*`
function that writes its files and returns what it wrote; `run` calls them
in sequence, and each step subcommand reads its input files and calls one.
Once a replicate's base model is saved, `run` plays both self-play
corpora and writes them, then runs the mix cells (mix, retrain and
evaluate per mix spec). Games and cells are independent, and each is dealt
by `parallel.deal` between the calling process and a child it forks per
spare core; a child works on the inputs it inherits and pipes back its
dialogues or rows.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import logging
import os
import platform
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import lang, metrics, model, parallel, selfplay, teacher
from .config import SCHEMA, ConfigError, ExperimentConfig, load_config
from .corpus import LENGTH_FIXED, LENGTH_NONE, LENGTH_VARIABLE, MixSpec
from .dialogue import GameAlignmentError, read_dialogues, write_dialogues
from .jsonl import checked, read_jsonl, write_jsonl
from .oracle import OracleConfig
from .scene import generate_scene_set, read_scenes, write_scenes
from .seeding import derive_seed

log = logging.getLogger("guessmix.cli")  # also when run as __main__

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextlib.contextmanager
def _stage(name: str, replicate: int):
    """Raise any exception of the block as a StageError naming stage `name`
    of `replicate`; a StageError, such as one a cell's child sent back,
    passes unchanged."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"stage {name!r} failed for replicate {replicate}: {exc}") from exc


def _pair_with_scenes(dialogues, scenes):
    by_id = {s.scene_id: s for s in scenes}
    missing = [d.scene_id for d in dialogues if d.scene_id not in by_id]
    if missing:
        raise GameAlignmentError(f"no scene for scene ids {sorted(set(missing))[:10]}")
    return [(d, by_id[d.scene_id]) for d in dialogues]


# ---------------------------------------------------------------------------
# pipeline stages, shared by `run` and the subcommands


def stage_scenes(splits, cfg: ExperimentConfig, seed: int):
    """Generate one scene set and write consecutive slices of it.

    `splits` lists (path, count) pairs; scene ids run on across the slices,
    so they are disjoint. Returns the slices in order.
    """
    everything = generate_scene_set(sum(n for _, n in splits), seed, cfg.scene_config())
    parts, start = [], 0
    for path, n in splits:
        parts.append(everything[start:start + n])
        write_scenes(path, parts[-1])
        start += n
    return parts


def stage_collect(scenes, cfg: ExperimentConfig, seed: int, out):
    """Play the scripted teacher on every scene; returns the kept dialogues."""
    dialogues = teacher.collect_teacher_corpus(
        scenes, OracleConfig(cfg["teacher.noise"]), max_turns=cfg["teacher.max_turns"], seed=seed
    )
    write_dialogues(out, dialogues)
    return dialogues


def best_val_path(out) -> Path:
    """Where `stage_train` saves the best-validation model of checkpoint `out`."""
    return Path(out).with_name(f"{Path(out).stem}_best_val.ckpt")


def stage_train(dialogues, scenes, cfg: ExperimentConfig, seed: int, out, val_pairs=None,
                vocab_out=None):
    """Train a fresh Questioner on `dialogues` and save it to `out`; it
    initialises from `derive_seed(seed, 4)` and orders its batches from
    `derive_seed(seed, 5)`, so a run's models share both streams.

    Returns (questioner, best_val, train_log). With `val_pairs`, `best_val`
    holds the parameters of the epoch with the lowest validation NLL and is
    saved to `best_val_path(out)`; without, it is None.
    """
    model_cfg = cfg.model_config()
    vocab = lang.build_vocabulary(dialogues, cfg["corpus.min_count"])
    if vocab_out:
        lang.write_vocabulary(vocab_out, vocab)
    params = model.init_params(model_cfg, vocab, derive_seed(seed, 4))
    result = model.train(params, vocab, _pair_with_scenes(dialogues, scenes), model_cfg,
                         derive_seed(seed, 5), val_dataset=val_pairs)
    questioner = model.Questioner(result.params, vocab, model_cfg)
    model.save_checkpoint(out, questioner)
    best_val = None
    if result.best_val_params is not None:
        best_val = model.Questioner(result.best_val_params, vocab, model_cfg)
        model.save_checkpoint(best_val_path(out), best_val)
    return questioner, best_val, result.log


def stage_selfplay(questioner, scenes, cfg: ExperimentConfig, length_mode: str, human,
                   seed: int, out):
    """Let the questioner replay the game of every `human` dialogue on its
    scene, for selfplay.turns turns (fixed length) or as many as that
    dialogue (variable length); writes the dialogues to `out`.
    A replayed game takes its scene's id, so each human game id must be its
    scene id, once."""
    seen = set()
    for d in human:
        if d.game_id != d.scene_id:
            raise GameAlignmentError(f"human game id {d.game_id} is not its scene id "
                                     f"{d.scene_id}")
        if d.game_id in seen:
            raise GameAlignmentError(f"human game id {d.game_id} repeats")
        seen.add(d.game_id)
    if length_mode == LENGTH_FIXED:
        policy: selfplay.LengthPolicy = selfplay.FixedLength(cfg["selfplay.turns"])
    else:
        policy = selfplay.MatchHuman({d.game_id: len(d.turns) for d in human})
    dialogues = selfplay.generate_selfplay_corpus(
        questioner, [s for _, s in _pair_with_scenes(human, scenes)],
        OracleConfig(cfg["selfplay.noise"]), policy, seed=seed,
    )
    write_dialogues(out, dialogues)
    return dialogues


def stage_mix(human, generated, spec: MixSpec, out):
    """Write the mixed corpus to `out` and its manifest beside it."""
    mixed = corpus_mod.mix_corpora(human, generated, spec)
    write_dialogues(out, mixed)
    corpus_mod.write_manifest(out, spec, mixed)
    return mixed


def stage_stats(corpus, cfg: ExperimentConfig, mix: MixSpec | None):
    """The statistics row of a training corpus made with `mix` (None if
    unknown, labelled `-`); its percentages are measured."""
    return corpus_mod.corpus_stats(corpus, cfg["corpus.min_count"],
                                   mix.length_mode if mix else LENGTH_NONE)


def stage_evaluate(questioner, training, test_scenes, cfg: ExperimentConfig,
                   mix: MixSpec | None, seed: int):
    """Play the test protocol with a questioner trained on `training`;
    returns the report row, labelled with `mix` or, if that is None, with
    the measured human share of `training` and `-`."""
    pct_human, length_mode = ((mix.pct_human, mix.length_mode) if mix
                              else (corpus_mod.human_pct(training), LENGTH_NONE))
    return metrics.evaluate(
        questioner, test_scenes, OracleConfig(cfg["selfplay.noise"]),
        corpus_mod.question_set(training), turns=cfg["evaluate.turns"], seed=seed,
        pct_human=pct_human, length_mode=length_mode,
    )


def stage_report(rows, cfg: ExperimentConfig, csv_path, ablation_path, md_path=None) -> int:
    """Write the report rows to `csv_path`, the generated-only ablation's,
    which have 0% human data, to `ablation_path` if there are any, and with
    `md_path` the markdown report: the test-protocol table, then the
    ablation's. Returns how many ablation rows there are."""
    ablation = [r for r in rows if r.pct_human == 0]
    rows = [r for r in rows if r.pct_human != 0]
    metrics.write_report_csv(csv_path, rows)
    if ablation:
        metrics.write_report_csv(ablation_path, ablation)
    if md_path:
        md = metrics.report_markdown(rows, f"Test set, {cfg['evaluate.turns']}-question protocol")
        if ablation:
            md += "\n" + metrics.report_markdown(ablation, "Generated-only training (ablation)")
        Path(md_path).write_text(md, encoding="utf-8")
    return len(ablation)


# ---------------------------------------------------------------------------
# full experiment


def _mean_rows(rows_by_seed: list[list]) -> list:
    """Mean of each row position over the replicates: every numeric column
    is averaged, integer ones rounded; a text column must read the same in
    every replicate."""
    out = []
    for group in zip(*rows_by_seed):
        values = {}
        for f in fields(group[0]):
            column = [getattr(r, f.name) for r in group]
            if isinstance(column[0], str):
                if len(set(column)) > 1:
                    raise RuntimeError(f"replicates disagree on {f.name}: {column}")
                values[f.name] = column[0]
            else:
                mean = sum(column) / len(column)
                values[f.name] = round(mean) if f.type in (int, "int") else mean
        out.append(replace(group[0], **values))
    return out


def _run_cell(cfg: ExperimentConfig, replicate: int, seed_dir: Path, spec: MixSpec, inputs,
              caller: int):
    """The cell of `spec` in a replicate: its corpus and model (the base
    model for 100%, else mixed and retrained), then its (stats_row, report_row).
    Every model of a replicate trains and plays on the base model's streams,
    so cells differ only by their training data, and retraining the 100%
    corpus would give the base model again. `inputs` is (human, generated by
    length mode, train scenes, test scenes, base). The log names process
    `caller`, which deals the cells, `main` and each other `worker <pid>`."""
    start = time.perf_counter()
    pct, mode = spec.pct_human, spec.length_mode
    tag = f"{pct}" if pct == 100 else f"{pct}_{mode}"
    rep_seed = derive_seed(cfg["experiment.seed"], replicate)
    human, generated, train_scenes, test_scenes, base = inputs
    if pct == 100:
        mixed, questioner = human, base
    else:
        with _stage(f"mix-{tag}", replicate):
            mixed = stage_mix(human, generated[mode], replace(spec, seed=derive_seed(rep_seed, 8)),
                              seed_dir / f"mixed_{tag}.jsonl")
        with _stage(f"train-{tag}", replicate):
            questioner, _, _ = stage_train(mixed, train_scenes, cfg, rep_seed,
                                           seed_dir / f"model_{tag}.ckpt")
    with _stage(f"evaluate-{tag}", replicate):
        rows = (stage_stats(mixed, cfg, spec),
                stage_evaluate(questioner, mixed, test_scenes, cfg, spec,
                               derive_seed(rep_seed, 90)))
    log.info("cell %s of replicate %d: %.2f s in %s", tag, replicate,
             time.perf_counter() - start,
             "main" if os.getpid() == caller else f"worker {os.getpid()}")
    return rows


# the replicate-seed stream of each length mode's self-play corpus
_SELFPLAY_STREAMS = ((6, LENGTH_FIXED), (7, LENGTH_VARIABLE))


def _run_seed(cfg: ExperimentConfig, replicate: int, seed_dir: Path):
    """One full pipeline pass, its games and cells dealt over processes;
    returns its (stats_rows, report_rows) in spec order."""
    log.info("=== replicate %d of %d ===", replicate + 1, cfg["experiment.replicate_seeds"])
    seed_dir.mkdir(parents=True, exist_ok=True)
    rep_seed = derive_seed(cfg["experiment.seed"], replicate)
    n_val = cfg["experiment.n_val_scenes"]
    with _stage("scenes", replicate):
        splits = [(seed_dir / "scenes_train.jsonl", cfg["experiment.n_train_scenes"]),
                  (seed_dir / "scenes_test.jsonl", cfg["experiment.n_test_scenes"])]
        if n_val:
            splits.append((seed_dir / "scenes_val.jsonl", n_val))
        train_scenes, test_scenes, *val_split = stage_scenes(splits, cfg,
                                                             derive_seed(rep_seed, 1))

    with _stage("teacher", replicate):
        human = stage_collect(train_scenes, cfg, derive_seed(rep_seed, 2), seed_dir / "human.jsonl")
        val_pairs = None
        if n_val:
            [val_scenes] = val_split
            val = stage_collect(val_scenes, cfg, derive_seed(rep_seed, 3), seed_dir / "val.jsonl")
            val_pairs = _pair_with_scenes(val, val_scenes)

    with _stage("base-train", replicate):
        base, best_val, _ = stage_train(human, train_scenes, cfg, rep_seed,
                                        seed_dir / "model_100.ckpt", val_pairs=val_pairs,
                                        vocab_out=seed_dir / "vocab_100.jsonl")
        player = best_val if cfg["selfplay.checkpoint"] == "best_val" else base

    with _stage("selfplay", replicate):
        generated = {}
        for stream, mode in _SELFPLAY_STREAMS:
            start = time.perf_counter()
            generated[mode] = stage_selfplay(player, train_scenes, cfg, mode, human,
                                             derive_seed(rep_seed, stream),
                                             seed_dir / f"generated_{mode}.jsonl")
            log.info("self-play %s corpus of replicate %d: %.2f s on %d processes", mode,
                     replicate, time.perf_counter() - start, parallel.processes(len(human)))

    # the corpora are written: deal the cells to this process and a child per spare core
    with _stage("cells", replicate):
        caller = os.getpid()
        inputs = (human, generated, train_scenes, test_scenes, base)
        stats_rows, report_rows = zip(*parallel.deal(
            lambda spec: _run_cell(cfg, replicate, seed_dir, spec, inputs, caller),
            cfg.mix_specs()))

    with _stage("report", replicate):
        corpus_mod.write_stats_csv(seed_dir / "stats.csv", stats_rows)
        stage_report(report_rows, cfg, seed_dir / "report.csv", seed_dir / "report_ablation.csv")
    return stats_rows, report_rows


def _acquire_lock(lock: Path) -> int:
    """Hold an exclusive flock on `lock`; returns the open descriptor, which
    holds it until closed.

    The flock is the lock, and `lock` is never removed or replaced, so every
    run into a directory contends for the same file. The kernel drops the
    flock when its holder exits, however it exits, so a `lock` file left
    behind blocks nothing.
    """
    fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise ConfigError(f"output directory {lock.parent} is locked by another run") from None
    return fd


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Execute every replicate and write aggregate reports; returns the
    output directory. Re-running with the same configuration reproduces all
    report files byte for byte, however many processes run the cells. A
    directory that holds a run of another configuration is refused before
    anything is written, so that no file of that run enters this manifest."""
    out = Path(cfg["experiment.output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    lock_fd = _acquire_lock(out / ".lock")
    try:
        echo = out / "config.txt"
        if echo.exists() and echo.read_text(encoding="utf-8") != cfg.echo():
            raise ConfigError(f"output directory {out} holds a run of another "
                              "configuration (its config.txt differs); choose a new one")
        echo.write_text(cfg.echo(), encoding="utf-8")
        n_rep = cfg["experiment.replicate_seeds"]
        per_seed = [_run_seed(cfg, r, out / f"seed_{r}") for r in range(n_rep)]
        stats, reports = (_mean_rows(rows) for rows in zip(*per_seed))
        corpus_mod.write_stats_csv(out / "stats_mean.csv", stats)
        stage_report(reports, cfg, out / "report_mean.csv", out / "report_ablation_mean.csv",
                     out / "report.md")
        manifest = {
            "config": cfg.values,
            # the Python and numpy versions and the BLAS thread count set (None
            # if none could be), which checkpoint bits depend on
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "blas_threads": parallel.BLAS_THREADS, "cpu_count": os.cpu_count(),
                            "cell_processes": parallel.processes(len(cfg.mix_specs()))},
            "replicate_seeds": [derive_seed(cfg["experiment.seed"], r) for r in range(n_rep)],
            "files": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.rglob("*"))
                      if p.is_file() and p.name not in (".lock", "manifest.json")},
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    finally:
        os.close(lock_fd)
    log.info("experiment complete: %s", out)
    return out


# ---------------------------------------------------------------------------
# subcommands: each gets its parsed arguments and the settings built from them


def _report_row_from_record(rec: dict) -> metrics.ReportRow:
    return metrics.ReportRow(**{
        key: checked(value, str) if key == "length_mode" else checked(value, int, float)
        for key, value in rec.items()
    })


def _cmd_gen_scenes(args, cfg: ExperimentConfig) -> None:
    [scenes] = stage_scenes([(args.out, args.n)], cfg, args.seed)
    print(f"wrote {len(scenes)} scenes to {args.out}")


def _cmd_collect_human(args, cfg: ExperimentConfig) -> None:
    scenes = read_scenes(args.scenes)
    dialogues = stage_collect(scenes, cfg, args.seed, args.out)
    print(f"wrote {len(dialogues)} teacher dialogues to {args.out}")


def _cmd_train(args, cfg: ExperimentConfig) -> None:
    if bool(args.val_dialogues) != bool(args.val_scenes):
        raise ConfigError("--val-dialogues and --val-scenes go together")
    if args.val_dialogues and cfg["model.epochs"] < 1:
        raise ConfigError("--val-dialogues needs model.epochs >= 1 to pick a best-val checkpoint")
    dialogues = read_dialogues(args.dialogues)
    scenes = read_scenes(args.scenes)
    val_pairs = None
    if args.val_dialogues:
        val_pairs = _pair_with_scenes(read_dialogues(args.val_dialogues),
                                      read_scenes(args.val_scenes))
    _, best_val, train_log = stage_train(dialogues, scenes, cfg, args.seed, args.out,
                                         val_pairs=val_pairs, vocab_out=args.vocab_out)
    if train_log.epochs:
        print(f"trained {len(train_log.epochs)} epochs, "
              f"final question NLL {train_log.final_qgen_nll:.4f}")
    print(f"wrote checkpoint to {args.out}")
    if args.vocab_out:
        print(f"wrote vocabulary to {args.vocab_out}")
    if best_val is not None:
        print(f"wrote best-validation checkpoint to {best_val_path(args.out)}")


def _cmd_selfplay(args, cfg: ExperimentConfig) -> None:
    questioner = model.load_checkpoint(args.model)
    scenes = read_scenes(args.scenes)
    human = read_dialogues(args.human)
    dialogues = stage_selfplay(questioner, scenes, cfg, args.length, human, args.seed, args.out)
    print(f"wrote {len(dialogues)} generated dialogues to {args.out}")


def _cmd_mix(args, cfg: ExperimentConfig) -> None:
    human = read_dialogues(args.human)
    generated = read_dialogues(args.generated)
    mixed = stage_mix(human, generated, MixSpec(args.pct_human, args.length, seed=args.seed),
                      args.out)
    print(f"wrote {len(mixed)} dialogues to {args.out} and its .manifest.json")


def _cmd_stats(args, cfg: ExperimentConfig) -> None:
    dialogues = read_dialogues(args.corpus)
    stats = stage_stats(dialogues, cfg, corpus_mod.mix_of(args.corpus))
    print(corpus_mod.format_stats_row(stats))


def _cmd_evaluate(args, cfg: ExperimentConfig) -> None:
    questioner = model.load_checkpoint(args.model)
    scenes = read_scenes(args.scenes)
    training = read_dialogues(args.train_dialogues)
    mix = corpus_mod.mix_of(args.train_dialogues)
    row = stage_evaluate(questioner, training, scenes, cfg, mix, args.seed)
    print(metrics.format_report_row(row))
    if args.out:
        write_jsonl(args.out, [asdict(row)])


def _cmd_report(args, cfg: ExperimentConfig) -> None:
    rows = [row for path in args.rows
            for row in read_jsonl(path, _report_row_from_record, "report row")]
    out_csv = Path(args.out_csv)
    ablation_csv = out_csv.with_name(f"{out_csv.stem}_ablation.csv")
    n_ablation = stage_report(rows, cfg, out_csv, ablation_csv, args.out_md)
    print(f"wrote {len(rows) - n_ablation} rows to {out_csv}"
          + (f" and {n_ablation} to {ablation_csv}" if n_ablation else ""))


def _cmd_run(args, cfg: ExperimentConfig) -> None:
    out = run_experiment(cfg)
    print(f"experiment artifacts in {out}")
    print(f"report: {out / 'report_mean.csv'}")


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take no negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guessmix",
        description="Train a guessing-game questioner on mixed human/self-play dialogue corpora.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, keys=(), seed="seed of this step's random draws"):
        """A subcommand with one `--<key> V` flag per config key its stage
        reads; a flag left out keeps the key's default."""
        p = sub.add_parser(name, help=help_text)
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help=seed)
        for key in keys:
            p.add_argument(f"--{key}", dest=key, metavar="V", help=SCHEMA[key][2])
        p.set_defaults(func=func, config=None)
        return p

    p = command("gen-scenes", _cmd_gen_scenes, "generate a scene file",
                ("scene.min_objects", "scene.max_objects"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = command("collect-human", _cmd_collect_human, "play the scripted teacher on a scene file",
                ("teacher.noise", "teacher.max_turns"))
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)

    p = command("train", _cmd_train, "train a questioner on a dialogue corpus",
                ("corpus.min_count", *(key for key in SCHEMA if key.startswith("model."))), seed=(
        "R: initialise with derive_seed(R, 4) and train with derive_seed(R, 5), as a run "
        "does for every model of the replicate with seed R"))
    p.add_argument("--dialogues", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--val-dialogues")
    p.add_argument("--val-scenes")
    p.add_argument("--out", required=True,
                   help="checkpoint; with validation data, also <stem>_best_val.ckpt")
    p.add_argument("--vocab-out", help="also write the vocabulary the model was built on")

    p = command("selfplay", _cmd_selfplay,
                "let a trained model replay the games of a teacher corpus against the oracle",
                ("selfplay.noise", "selfplay.turns"))
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--human", required=True,
                   help="teacher corpus whose games to replay (and, at variable length, "
                        "whose turn counts to copy)")
    p.add_argument("--length", choices=(LENGTH_FIXED, LENGTH_VARIABLE), default=LENGTH_FIXED)
    p.add_argument("--out", required=True)

    p = command("mix", _cmd_mix, "replace part of a human corpus with generated dialogues")
    p.add_argument("--human", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--pct-human", type=int, required=True)
    p.add_argument("--length", choices=(LENGTH_FIXED, LENGTH_VARIABLE, LENGTH_NONE),
                   default=LENGTH_FIXED)
    p.add_argument("--out", required=True)

    p = command("stats", _cmd_stats, "print the statistics row of a corpus",
                ("corpus.min_count",), seed=None)
    p.add_argument("corpus", help="labelled from the mix manifest beside it, if any")

    p = command("evaluate", _cmd_evaluate, "play the test protocol and print a report row",
                ("selfplay.noise", "evaluate.turns"))
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--train-dialogues", required=True,
                   help="corpus the model was trained on: defines NQ, and its manifest the label")
    p.add_argument("--out", help="also write the row as JSON")

    p = command("report", _cmd_report, "assemble evaluation rows into CSV/markdown",
                ("evaluate.turns",), seed=None)
    p.add_argument("--rows", nargs="+", required=True)
    p.add_argument("--out-csv", required=True,
                   help="rows with 0%% human data go to <stem>_ablation.csv beside it")
    p.add_argument("--out-md")

    p = command("run", _cmd_run, "run the full two-step experiment from a config file", SCHEMA,
                seed=None)
    p.add_argument("--config", help="key-value config file; defaults apply when omitted")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad command line, a validation error here
        return EXIT_VALIDATION if exc.code else EXIT_OK
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        flags = {key: value for key, value in vars(args).items()
                 if key in SCHEMA and value is not None}
        args.func(args, load_config(args.config, flags))
        return EXIT_OK
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - map anything else to a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

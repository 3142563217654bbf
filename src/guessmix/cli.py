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
dialogues, or its rows and the paths it wrote.
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
from .jsonl import read_jsonl, write_jsonl
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


def stage_scenes(splits, seed: int):
    """Write consecutive slices of one scene set from stream 1 of replicate seed `seed`.

    `splits` lists (path, count) pairs; scene ids run on across the slices,
    so they are disjoint. Returns the slices in order.
    """
    scenes = generate_scene_set(sum(n for _, n in splits), derive_seed(seed, 1))
    parts, start = [], 0
    for path, n in splits:
        parts.append(scenes[start:start + n])
        write_scenes(path, parts[-1])
        start += n
    return parts


def stage_collect(scenes, seed: int, out):
    """Play the scripted teacher on every scene, against an oracle that never
    errs, on stream 2 of replicate seed `seed`, which validation games share:
    each game seeds itself from (stream, scene id), and their scene ids are
    disjoint. Returns the kept dialogues."""
    dialogues = teacher.collect_teacher_corpus(scenes, OracleConfig(), seed=derive_seed(seed, 2))
    write_dialogues(out, dialogues)
    return dialogues


def best_val_path(out) -> Path:
    """Where `stage_train` saves the best-validation model of checkpoint `out`."""
    return Path(out).with_name(f"{Path(out).stem}_best_val.ckpt")


def stage_train(dialogues, scenes, cfg: ExperimentConfig, seed: int, out, val=None):
    """Train a fresh Questioner on `dialogues` and save it to `out`; it
    initialises from stream 4 of replicate seed `seed` and orders its
    batches from stream 5, so a run's models share both streams. The
    checkpoint holds the model's vocabulary.

    Returns (questioner, best_val, train_log). With `val`, a (dialogues,
    scenes) pair, `best_val` holds the parameters of the epoch with the
    lowest validation NLL and is saved to `best_val_path(out)`; without, it
    is None. An empty validation corpus has no best epoch, so it is refused
    before anything is written.
    """
    val_pairs = None if val is None else _pair_with_scenes(*val)
    if val_pairs is not None and not val_pairs:
        raise ValueError("the validation set is empty: no dialogue to pick a best-val model by")
    model_cfg = cfg.model_config()
    vocab = lang.build_vocabulary(dialogues)
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
    scene for selfplay.FIXED_TURNS turns (fixed length, stream 6 of
    replicate seed `seed`) or as many as that dialogue (variable length,
    stream 7); writes the dialogues to `out`. A replayed game takes its
    scene's id, so each human game id must be its scene id, once."""
    for d in human:
        if d.game_id != d.scene_id:
            raise GameAlignmentError(f"human game id {d.game_id} is not its scene id "
                                     f"{d.scene_id}")
    corpus_mod.check_unique_games(human, "human")
    if length_mode == LENGTH_FIXED:
        stream, policy = 6, selfplay.FixedLength(selfplay.FIXED_TURNS)
    else:
        stream, policy = 7, selfplay.MatchHuman({d.game_id: len(d.turns) for d in human})
    dialogues = selfplay.generate_selfplay_corpus(
        questioner, [s for _, s in _pair_with_scenes(human, scenes)],
        OracleConfig(cfg["selfplay.noise"]), policy, seed=derive_seed(seed, stream),
    )
    write_dialogues(out, dialogues)
    return dialogues


def stage_mix(human, generated, spec: MixSpec, seed: int, out):
    """Write the mixed corpus to `out` and its manifest beside it; the
    replaced games are ranked on stream 8 of replicate seed `seed`."""
    spec = replace(spec, seed=derive_seed(seed, 8))
    mixed = corpus_mod.mix_corpora(human, generated, spec)
    write_dialogues(out, mixed)
    corpus_mod.write_manifest(out, spec, mixed)
    return mixed


def stage_stats(corpus, mix: MixSpec | None):
    """The statistics row of a training corpus made with `mix` (None if
    unknown, labelled `-`); its percentages are measured."""
    return corpus_mod.corpus_stats(corpus, length_mode=mix.length_mode if mix else LENGTH_NONE)


def stage_evaluate(questioner, training, test_scenes, cfg: ExperimentConfig,
                   mix: MixSpec | None, seed: int):
    """Play the test protocol on stream 90 of replicate seed `seed` with a
    questioner trained on `training`; returns the report row, labelled with
    `mix` or, if that is None, with `training`'s measured human share and `-`."""
    pct_human, length_mode = ((mix.pct_human, mix.length_mode) if mix
                              else (corpus_mod.human_pct(training), LENGTH_NONE))
    return metrics.evaluate(
        questioner, test_scenes, OracleConfig(cfg["selfplay.noise"]),
        corpus_mod.question_set(training), seed=derive_seed(seed, 90),
        pct_human=pct_human, length_mode=length_mode,
    )


def stage_report(rows, csv_path, md_path=None) -> None:
    """Write the report rows to `csv_path` and, with `md_path`, the markdown
    report: one test-protocol table."""
    metrics.write_report_csv(csv_path, rows)
    if md_path:
        Path(md_path).write_text(
            metrics.report_markdown(rows, f"Test set, {metrics.TEST_TURNS}-question protocol"),
            encoding="utf-8")


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


def _run_seed(cfg: ExperimentConfig, replicate: int, rep_seed: int, seed_dir: Path):
    """One pipeline pass on replicate seed `rep_seed`, games and cells dealt
    over processes; returns its (stats_rows, report_rows) in spec order and
    the paths of the files it wrote."""
    log.info("=== replicate %d of %d ===", replicate + 1, cfg["experiment.replicate_seeds"])
    seed_dir.mkdir(parents=True, exist_ok=True)
    n_val = cfg["experiment.n_val_scenes"]
    with _stage("scenes", replicate):
        splits = [(seed_dir / "scenes_train.jsonl", cfg["experiment.n_train_scenes"]),
                  (seed_dir / "scenes_test.jsonl", cfg["experiment.n_test_scenes"])]
        if n_val:
            splits.append((seed_dir / "scenes_val.jsonl", n_val))
        train_scenes, test_scenes, *val_split = stage_scenes(splits, rep_seed)
        written = [path for path, _ in splits]

    with _stage("teacher", replicate):
        human = stage_collect(train_scenes, rep_seed, seed_dir / "human.jsonl")
        written.append(seed_dir / "human.jsonl")
        val = None
        if n_val:
            [val_scenes] = val_split
            val = (stage_collect(val_scenes, rep_seed, seed_dir / "val.jsonl"), val_scenes)
            written.append(seed_dir / "val.jsonl")

    with _stage("base-train", replicate):
        base, best_val, _ = stage_train(human, train_scenes, cfg, rep_seed,
                                        seed_dir / "model_100.ckpt", val=val)
        written.append(seed_dir / "model_100.ckpt")
        if best_val is not None:
            written.append(best_val_path(seed_dir / "model_100.ckpt"))
        player = best_val if cfg["selfplay.checkpoint"] == "best_val" else base

    with _stage("selfplay", replicate):
        generated = {}
        for mode in (LENGTH_FIXED, LENGTH_VARIABLE):
            start = time.perf_counter()
            generated[mode] = stage_selfplay(player, train_scenes, cfg, mode, human, rep_seed,
                                             seed_dir / f"generated_{mode}.jsonl")
            written.append(seed_dir / f"generated_{mode}.jsonl")
            log.info("self-play %s corpus of replicate %d: %.2f s on %d processes", mode,
                     replicate, time.perf_counter() - start, parallel.processes(len(human)))

    caller = os.getpid()

    def cell(spec: MixSpec):
        """The cell of `spec`: its corpus and model (the base model for 100%,
        else mixed and retrained), then its (stats_row, report_row, paths of
        the files it wrote). Every model of a replicate trains and plays on
        the base model's streams, so cells differ only by their training
        data, and retraining the 100% corpus would give the base model again.
        The log names the process that deals the cells `main`, and each
        other `worker <pid>`."""
        start = time.perf_counter()
        pct, mode = spec.pct_human, spec.length_mode
        tag = f"{pct}" if pct == 100 else f"{pct}_{mode}"
        if pct == 100:
            mixed, questioner, paths = human, base, []
        else:
            corpus, ckpt = seed_dir / f"mixed_{tag}.jsonl", seed_dir / f"model_{tag}.ckpt"
            with _stage(f"mix-{tag}", replicate):
                mixed = stage_mix(human, generated[mode], spec, rep_seed, corpus)
            with _stage(f"train-{tag}", replicate):
                questioner, _, _ = stage_train(mixed, train_scenes, cfg, rep_seed, ckpt)
            paths = [corpus, corpus.with_suffix(corpus_mod.MANIFEST_SUFFIX), ckpt]
        with _stage(f"evaluate-{tag}", replicate):
            stats_row = stage_stats(mixed, spec)
            report_row = stage_evaluate(questioner, mixed, test_scenes, cfg, spec, rep_seed)
        log.info("cell %s of replicate %d: %.2f s in %s", tag, replicate,
                 time.perf_counter() - start,
                 "main" if os.getpid() == caller else f"worker {os.getpid()}")
        return stats_row, report_row, paths

    # the corpora are written: deal the cells to this process and a child per spare core
    with _stage("cells", replicate):
        stats_rows, report_rows, cell_paths = zip(*parallel.deal(cell, cfg.mix_specs()))
        written += [path for paths in cell_paths for path in paths]

    with _stage("report", replicate):
        corpus_mod.write_stats_csv(seed_dir / "stats.csv", stats_rows)
        stage_report(report_rows, seed_dir / "report.csv")
        written += [seed_dir / "stats.csv", seed_dir / "report.csv"]
    return stats_rows, report_rows, written


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
    report files byte for byte, however many processes run the cells.
    `manifest.json` hashes the files the run wrote and no others. A
    directory that holds a run of another configuration, or files but no
    run, is refused before anything is written, so that a run never
    overwrites files that are not its own."""
    out = Path(cfg["experiment.output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    lock_fd = _acquire_lock(out / ".lock")
    try:
        echo = out / "config.txt"
        if echo.exists() and echo.read_text(encoding="utf-8") != cfg.echo():
            raise ConfigError(f"output directory {out} holds a run of another "
                              "configuration (its config.txt differs); choose a new one")
        if not echo.exists() and any(p.name != ".lock" for p in out.iterdir()):
            raise ConfigError(f"output directory {out} holds files but no config.txt; choose a new one")
        echo.write_text(cfg.echo(), encoding="utf-8")
        rep_seeds = [derive_seed(cfg["experiment.seed"], r)
                     for r in range(cfg["experiment.replicate_seeds"])]
        stats, reports, paths = zip(*(_run_seed(cfg, r, seed, out / f"seed_{r}")
                                      for r, seed in enumerate(rep_seeds)))
        stats, reports = _mean_rows(stats), _mean_rows(reports)
        corpus_mod.write_stats_csv(out / "stats_mean.csv", stats)
        written = [echo, out / "stats_mean.csv", out / "report_mean.csv", out / "report.md",
                   *(path for seed_paths in paths for path in seed_paths)]
        stage_report(reports, out / "report_mean.csv", out / "report.md")
        manifest = {
            "config": cfg.values,
            # the Python and numpy versions and the BLAS thread count set (None
            # if none could be), which checkpoint bits depend on
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "blas_threads": parallel.BLAS_THREADS, "cpu_count": os.cpu_count(),
                            "cell_processes": parallel.processes(len(cfg.mix_specs()))},
            "replicate_seeds": rep_seeds,
            "files": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in written},
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


def _cmd_gen_scenes(args, cfg: ExperimentConfig) -> None:
    [scenes] = stage_scenes([(args.out, args.n)], args.seed)
    print(f"wrote {len(scenes)} scenes to {args.out}")


def _cmd_collect_human(args, cfg: ExperimentConfig) -> None:
    scenes = read_scenes(args.scenes)
    dialogues = stage_collect(scenes, args.seed, args.out)
    print(f"wrote {len(dialogues)} teacher dialogues to {args.out}")


def _cmd_train(args, cfg: ExperimentConfig) -> None:
    if bool(args.val_dialogues) != bool(args.val_scenes):
        raise ConfigError("--val-dialogues and --val-scenes go together")
    if args.val_dialogues and cfg["model.epochs"] < 1:
        raise ConfigError("--val-dialogues needs model.epochs >= 1 to pick a best-val checkpoint")
    dialogues = read_dialogues(args.dialogues)
    scenes = read_scenes(args.scenes)
    val = None
    if args.val_dialogues:
        val = (read_dialogues(args.val_dialogues), read_scenes(args.val_scenes))
    _, best_val, train_log = stage_train(dialogues, scenes, cfg, args.seed, args.out, val=val)
    if train_log:
        print(f"trained {len(train_log)} epochs, final question NLL {train_log[-1].qgen_nll:.4f}")
    print(f"wrote checkpoint to {args.out}")
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
    mixed = stage_mix(human, generated, MixSpec(args.pct_human, args.length), args.seed, args.out)
    print(f"wrote {len(mixed)} dialogues to {args.out} and its .manifest.json")


def _cmd_stats(args, cfg: ExperimentConfig) -> None:
    dialogues = read_dialogues(args.corpus)
    stats = stage_stats(dialogues, corpus_mod.mix_of(args.corpus))
    print(metrics.format_row(stats))


def _cmd_evaluate(args, cfg: ExperimentConfig) -> None:
    questioner = model.load_checkpoint(args.model)
    scenes = read_scenes(args.scenes)
    training = read_dialogues(args.train_dialogues)
    mix = corpus_mod.mix_of(args.train_dialogues)
    row = stage_evaluate(questioner, training, scenes, cfg, mix, args.seed)
    print(metrics.format_row(row))
    if args.out:
        write_jsonl(args.out, [asdict(row)])


def _cmd_report(args, cfg: ExperimentConfig) -> None:
    rows = [row for path in args.rows
            for row in read_jsonl(path, metrics.checked_report_row, "report row")]
    stage_report(rows, args.out_csv, args.out_md)
    print(f"wrote {len(rows)} rows to {args.out_csv}")


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

    def command(name, func, help_text, keys=(), seed=True):
        """A subcommand with `--seed R` if `seed` and one `--<key> V` flag per
        config key its stage reads; a flag left out keeps the key's default."""
        p = sub.add_parser(name, help=help_text)
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="replicate seed R of a run")
        for key in keys:
            p.add_argument(f"--{key}", dest=key, metavar="V", help=SCHEMA[key][2])
        p.set_defaults(func=func, config=None)
        return p

    p = command("gen-scenes", _cmd_gen_scenes, "generate a scene file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = command("collect-human", _cmd_collect_human, "play the scripted teacher on a scene file")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)

    p = command("train", _cmd_train, "train a questioner on a dialogue corpus",
                [key for key in SCHEMA if key.startswith("model.")])
    p.add_argument("--dialogues", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--val-dialogues")
    p.add_argument("--val-scenes")
    p.add_argument("--out", required=True,
                   help="checkpoint; with validation data, also <stem>_best_val.ckpt")

    p = command("selfplay", _cmd_selfplay,
                "let a trained model replay the games of a teacher corpus against the oracle",
                ("selfplay.noise",))
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
    p.add_argument("--length", choices=corpus_mod.LENGTH_MODES, default=LENGTH_FIXED)
    p.add_argument("--out", required=True)

    p = command("stats", _cmd_stats, "print the statistics row of a corpus", seed=False)
    p.add_argument("corpus", help="labelled from the mix manifest beside it, if any")

    p = command("evaluate", _cmd_evaluate, "play the test protocol and print a report row",
                ("selfplay.noise",))
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--train-dialogues", required=True,
                   help="corpus the model was trained on: defines NQ, and its manifest the label")
    p.add_argument("--out", help="also write the row as JSON")

    p = command("report", _cmd_report, "assemble evaluation rows into CSV/markdown", seed=False)
    p.add_argument("--rows", nargs="+", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-md")

    p = command("run", _cmd_run, "run the full two-step experiment from a config file", SCHEMA,
                seed=False)
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
    except ValueError as exc:  # a ConfigError too: bad settings or input files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - map anything else to a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded from outside the program, around calls into its layers.

`Tracer.install` replaces public functions with wrappers at the module
attribute each call site looks up, so the program's own code is untouched.
A span is (name, start, end, parent, run): `parent` is the index of the span
that was open when this one started (-1 at top level) and `run` is the id
of the benchmark round that caused it. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)

# (module, attribute, span name). A module that imported a function by name
# (`from .scene import generate_scene_set`) holds its own reference, so that
# module's attribute is wrapped too, under the defining layer's span name.
TRACED = (
    ("scene", "generate_scene_set", "scene.generate_scene_set"),
    ("cli", "generate_scene_set", "scene.generate_scene_set"),
    ("cli", "write_scenes", "scene.write_scenes"),
    ("cli", "read_scenes", "scene.read_scenes"),
    ("teacher", "collect_teacher_corpus", "teacher.collect_teacher_corpus"),
    ("oracle", "answer", "oracle.answer"),
    ("lang", "parse_question", "lang.parse_question"),
    ("lang", "build_vocabulary", "lang.build_vocabulary"),
    ("corpus", "build_vocabulary", "lang.build_vocabulary"),
    ("lang", "write_vocabulary", "lang.write_vocabulary"),
    ("model", "init_params", "model.init_params"),
    ("model", "train", "model.train"),
    ("model", "loss_and_grads", "model.loss_and_grads"),
    ("model", "validation_nll", "model.validation_nll"),
    ("model", "initial_state", "model.initial_state"),
    ("model", "decode_question", "model.decode_question"),
    ("model", "encode_turn", "model.encode_turn"),
    ("model", "guess_object", "model.guess_object"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("corpus", "make_batches", "corpus.make_batches"),
    ("corpus", "mix_corpora", "corpus.mix_corpora"),
    ("corpus", "corpus_stats", "corpus.corpus_stats"),
    ("corpus", "question_set", "corpus.question_set"),
    ("corpus", "write_stats_csv", "corpus.write_stats_csv"),
    ("selfplay", "play_game", "selfplay.play_game"),
    ("selfplay", "play_games", "selfplay.play_games"),
    ("selfplay", "generate_selfplay_corpus", "selfplay.generate_selfplay_corpus"),
    ("metrics", "bleu4", "metrics.bleu4"),
    ("metrics", "corpus_mo", "metrics.corpus_mo"),
    ("metrics", "grq", "metrics.grq"),
    ("metrics", "novel_questions", "metrics.novel_questions"),
    ("metrics", "global_recall", "metrics.global_recall"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "write_report_csv", "metrics.write_report_csv"),
    ("metrics", "report_markdown", "metrics.report_markdown"),
    ("cli", "write_dialogues", "dialogue.write_dialogues"),
    ("cli", "read_dialogues", "dialogue.read_dialogues"),
    ("cli", "run_experiment", "cli.run_experiment"),
)

LAYERS = ("scene", "teacher", "oracle", "lang", "model", "corpus",
          "selfplay", "metrics", "dialogue", "cli")

# Direct children of `cli.run_experiment` that make up each `_run_seed`
# stage. With one replicate the first `model.train` is the base model and
# the later ones are the per-mix retrains; every other direct child (file
# reads and writes, checkpoints, vocabularies) counts as the `io` stage.
CLI_STAGES = {
    "scene.generate_scene_set": "scenes",
    "teacher.collect_teacher_corpus": "teacher",
    "selfplay.generate_selfplay_corpus": "selfplay",
    "corpus.mix_corpora": "mix",
    "corpus.corpus_stats": "evaluate",
    "metrics.evaluate": "evaluate",
}
CLI_STAGE_NAMES = ("scenes", "teacher", "base_train", "selfplay", "mix",
                   "retrain", "evaluate", "io")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def install(self) -> None:
        for mod, attr, name in TRACED:
            self.wrap(importlib.import_module(f"guessmix.{mod}"), attr, name)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def split_runs(spans: list[list]) -> list[list[list]]:
    """The spans of each run id, with parent indices local to the run's list."""
    runs: dict[int, list[list]] = defaultdict(list)
    index: dict[int, int] = {}
    for i, s in enumerate(spans):
        local = runs[s[RUN]]
        index[i] = len(local)
        parent = index[s[PARENT]] if s[PARENT] >= 0 else -1
        local.append([s[NAME], s[START], s[END], parent, s[RUN]])
    return [runs[r] for r in sorted(runs)]


def round_profile(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one round's spans, parent indices local to the list.

    spans[0] is the round's root span. Times are given as shares of the
    root's duration, `trace.round_s`, so a layer the round bypasses reads 0
    and the shares stay comparable across runs on a host whose speed drifts.
    """
    own = self_times(spans)
    secs = {f"{layer}.self": 0.0 for layer in LAYERS}
    secs.update({f"cli.stage.{st}": 0.0 for st in CLI_STAGE_NAMES})
    secs.update({"model.loss_and_grads.busy": 0.0, "model.train.self": 0.0,
                 "metrics.evaluate": 0.0})
    calls = defaultdict(int)
    model_trains = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] += 1
        layer_self = name.split(".", 1)[0] + ".self"
        if layer_self in secs:
            secs[layer_self] += own[i]
        if name == "model.loss_and_grads":
            secs["model.loss_and_grads.busy"] += dur
        elif name == "model.train":
            secs["model.train.self"] += own[i]
        elif name == "metrics.evaluate":
            secs["metrics.evaluate"] += dur
        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME] == "cli.run_experiment":
            if name == "model.train":
                stage = "base_train" if model_trains == 0 else "retrain"
                model_trains += 1
            else:
                stage = CLI_STAGES.get(name, "io")
            secs[f"cli.stage.{stage}"] += dur
    round_s = spans[0][END] - spans[0][START]
    out = {f"{key}_frac": value / round_s for key, value in secs.items()}
    out.update({
        "model.loss_and_grads.calls": calls["model.loss_and_grads"],
        "model.decode_question.calls": calls["model.decode_question"],
        "metrics.bleu4.calls": calls["metrics.bleu4"],
        "trace.spans": len(spans),
        "trace.round_s": round_s,
    })
    return out

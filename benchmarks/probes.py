"""Layer probes: each public layer function timed alone on fixed inputs.

The inputs derive from the workload seed only, so every workload's traced
run reports the same probe figures for the same code. Per-call figures are
medians over many calls; whole-corpus figures are medians of a few.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from guessmix import corpus, dialogue, lang, metrics, model, oracle, scene, selfplay, teacher
from guessmix.oracle import OracleConfig
from guessmix.seeding import derive_seed

from workloads import FIXED_TURNS, MACHINE_ORACLE, Scale, base_questioner, pairs


def _timed(fn, reps: int) -> tuple[float, object]:
    """Median seconds of `reps` calls, and the last call's result."""
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run_probes(seed: int, scale: Scale, out_dir: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    n_scenes = scale.probe_scenes
    reps = scale.probe_reps

    m["scene.generate_scene_set_s"], scenes = _timed(
        lambda: scene.generate_scene_set(n_scenes, derive_seed(seed, 20)), 1)
    m["teacher.collect_s"], human = _timed(
        lambda: teacher.collect_teacher_corpus(scenes, OracleConfig(0.0),
                                               seed=derive_seed(seed, 21)), 1)
    m["teacher.kept_ratio"] = len(human) / len(scenes)
    q = base_questioner(human, scenes, scale, seed)
    params, vocab = q.params, q.vocab

    ckpt = out_dir / "probe.ckpt"
    t, _ = _timed(lambda: model.save_checkpoint(ckpt, q), reps)
    m["model.save_checkpoint_ms"] = t * 1e3
    t, _ = _timed(lambda: model.load_checkpoint(ckpt), reps)
    m["model.load_checkpoint_ms"] = t * 1e3

    play_scenes = scenes[:scale.probe_games]
    t, games = _timed(lambda: selfplay.play_games(
        q, play_scenes, MACHINE_ORACLE, FIXED_TURNS, derive_seed(seed, 22)), 1)
    m["selfplay.play_games_s"] = t
    m["selfplay.play_game_ms"] = t / len(games) * 1e3
    m["selfplay.success_ratio"] = sum(g.success for g in games) / len(games)
    questions = [turn.question for g in games for turn in g.dialogue.turns]
    m["oracle.malformed_ratio"] = (
        sum(lang.parse_question(x) is None for x in questions) / len(questions))

    # per-call figures along the batch-of-one inference path
    rng = np.random.default_rng(derive_seed(seed, 23))
    calls = {"decode": [], "answer": [], "parse": [], "encode": [], "guess": []}
    for sc in play_scenes:
        state = model.initial_state(params, sc)
        for _ in range(FIXED_TURNS):
            t0 = time.perf_counter()
            question = model.decode_question(params, vocab, state, mode=q.config.decode_mode,
                                             max_len=q.config.max_question_len, rng=rng)
            t1 = time.perf_counter()
            answer = oracle.answer(sc, question, MACHINE_ORACLE, rng)
            t2 = time.perf_counter()
            lang.parse_question(question)
            t3 = time.perf_counter()
            state = model.encode_turn(params, vocab, state, question, answer)
            t4 = time.perf_counter()
            calls["decode"].append(t1 - t0)
            calls["answer"].append(t2 - t1)
            calls["parse"].append(t3 - t2)
            calls["encode"].append(t4 - t3)
        t0 = time.perf_counter()
        model.guess_object(params, state, sc)
        calls["guess"].append(time.perf_counter() - t0)
    m["model.decode_question_us"] = statistics.median(calls["decode"]) * 1e6
    m["oracle.answer_us"] = statistics.median(calls["answer"]) * 1e6
    m["lang.parse_question_us"] = statistics.median(calls["parse"]) * 1e6
    m["model.encode_turn_us"] = statistics.median(calls["encode"]) * 1e6
    m["model.guess_object_us"] = statistics.median(calls["guess"]) * 1e6

    # a corpus of both sources: every generated game plus teacher games
    generated = [g.dialogue for g in games]
    corpus_2k = (generated + human)[:scale.probe_corpus]
    data = pairs(corpus_2k, scenes)
    batch = data[:16] + data[len(generated):len(generated) + 16]
    t, _ = _timed(lambda: model.loss_and_grads(params, vocab, batch, model.PHASE_QGEN), reps)
    m["model.loss_and_grads.qgen_ms"] = t * 1e3
    t, _ = _timed(lambda: model.loss_and_grads(params, vocab, batch, model.PHASE_JOINT), reps)
    m["model.loss_and_grads.joint_ms"] = t * 1e3
    val = data[len(generated):len(generated) + scale.probe_val_dialogues]
    t, _ = _timed(lambda: model.validation_nll(params, vocab, val), reps)
    m["model.validation_nll_ms"] = t * 1e3

    bleu = []
    for d in corpus_2k[:scale.probe_games]:
        qs = d.questions()
        for i, cand in enumerate(qs):
            refs = qs[:i] + qs[i + 1:]
            if refs:
                t0 = time.perf_counter()
                metrics.bleu4(cand, refs)
                bleu.append(time.perf_counter() - t0)
    m["metrics.bleu4_us"] = statistics.median(bleu) * 1e6
    t, _ = _timed(lambda: metrics.corpus_mo(corpus_2k), 3)
    m["metrics.corpus_mo_ms"] = t * 1e3
    t, _ = _timed(lambda: corpus.corpus_stats(corpus_2k), 3)
    m["corpus.corpus_stats_ms"] = t * 1e3
    t, _ = _timed(lambda: corpus.make_batches(data, 32, seed=derive_seed(seed, 24)), reps)
    m["corpus.make_batches_ms"] = t * 1e3
    t, _ = _timed(lambda: lang.build_vocabulary(corpus_2k), reps)
    m["lang.build_vocabulary_ms"] = t * 1e3

    played = {g.scene_id for g in games}
    human_played = [d for d in human if d.scene_id in played]
    spec = corpus.MixSpec(50, corpus.LENGTH_FIXED, derive_seed(seed, 25))
    t, _ = _timed(lambda: corpus.mix_corpora(human_played, generated, spec), reps)
    m["corpus.mix_corpora_ms"] = t * 1e3

    path = out_dir / "probe_dialogues.jsonl"
    t, _ = _timed(lambda: dialogue.write_dialogues(path, corpus_2k), reps)
    m["dialogue.write_dialogues_ms"] = t * 1e3
    t, _ = _timed(lambda: dialogue.read_dialogues(path), reps)
    m["dialogue.read_dialogues_ms"] = t * 1e3
    return m

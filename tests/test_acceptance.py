"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to watch them live)."""

import time

import numpy as np
import pytest

from bleu_reference import reference_bleu4
from conftest import make_dialogue
from model_reference import gradient_check
from guessmix import cli, corpus, lang, metrics, model, oracle, scene, teacher
from guessmix.config import load_config
from guessmix.lang import SPECIAL_TOKENS, Vocabulary


def _report(n, detail):
    print(f"\n[PASS] criterion {n}: {detail}")


def test_criterion_1_bleu_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    alphabet = [f"t{i}" for i in range(10)]
    worst = 0.0
    for _ in range(10_000):
        cand = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
        ref = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
        got = metrics.bleu4(cand, [ref])
        want = reference_bleu4(cand, [ref])
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-9
    hand = metrics.bleu4(["is", "it", "the", "red", "car", "?"],
                         [["is", "it", "the", "red", "cat", "?"]])
    assert abs(hand - (1.0 / 12.0) ** 0.25) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"bleu4 matches brute force on 10^4 pairs (max dev {worst:.2e}), "
               f"hand case {hand:.6f}, {elapsed:.1f}s")


def test_criterion_2_count_metric_exactness(small_scenes, small_teacher_corpus):
    repeats = [make_dialogue(["is it red ?", "is it red ?"], game_id=i) for i in range(3)]
    clean = [make_dialogue(["is it red ?", "is it blue ?"], game_id=3 + i) for i in range(7)]
    assert metrics.grq(repeats + clean) == 30.0

    words = [f"w{i:03d}" for i in range(200)]
    vocab = Vocabulary(words=list(SPECIAL_TOKENS) + words,
                       counts={w: 3 for w in words}, min_count=3)
    using42 = make_dialogue([" ".join(words[:42])])
    assert metrics.global_recall([using42], vocab) == 21.0

    training = {("seen", "?")}
    nq_corpus = [make_dialogue(["seen ?", "new a ?", "new b ?"]),
                 make_dialogue(["seen ?"])]
    assert metrics.novel_questions(nq_corpus, training) == 1.0

    from guessmix.selfplay import PlayedGame

    games = [PlayedGame(make_dialogue(["q ?"], success=i < 463), 0, i < 463, i)
             for i in range(1000)]
    assert metrics.accuracy(games) == 46.3

    assert metrics.grq(small_teacher_corpus) == 0.0
    noisy = teacher.collect_teacher_corpus(small_scenes, oracle.OracleConfig(0.2),
                                           max_turns=8, seed=5)
    assert metrics.grq(noisy) == 0.0
    _report(2, "GRQ 30.0, GR 21.0, NQ 1.0, ACC 46.3 exact; teacher corpora GRQ = 0")


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    err = gradient_check(
        model.ModelConfig(embed_dim=4, hidden_dim=6, batch_size=4), seed=0, delta=1e-5
    )
    elapsed = time.perf_counter() - t0
    assert err < 1e-4
    assert elapsed < 30.0
    _report(3, f"max relative gradient error {err:.2e} (< 1e-4), {elapsed:.1f}s")


def test_criterion_4_overfit_single_dialogue():
    t0 = time.perf_counter()
    scenes = scene.generate_scene_set(3, seed=1)
    human = teacher.collect_teacher_corpus(scenes, oracle.OracleConfig(0.0), seed=0)
    d = human[0]
    sc = next(s for s in scenes if s.scene_id == d.scene_id)
    vocab = lang.build_vocabulary(human, min_count=1)
    cfg = model.ModelConfig(embed_dim=32, hidden_dim=64, learning_rate=0.3,
                            modulo_n=10**6, epochs=500, batch_size=1)
    params = model.init_params(cfg, vocab, seed=0)
    result = model.train(params, vocab, [(d, sc)], cfg, seed=0)
    nll = result.log.final_qgen_nll
    assert nll < 0.05
    decoded = model.decode_question(
        result.params, vocab, model.initial_state(result.params, sc),
        mode="greedy", max_len=10,
    )
    assert tuple(decoded) == d.turns[0].question
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"single-dialogue NLL {nll:.4f} (< 0.05 nats), greedy decode "
               f"reproduces the first question, {elapsed:.1f}s")


def test_criterion_5_mixture_invariants():
    t0 = time.perf_counter()
    n = 100
    # human games: repeat-free, each carrying one rare word exactly 3 times,
    # so replacement starves those words below the vocabulary threshold
    human = [
        make_dialogue(
            [f"is it rare{g} ?", f"is the rare{g} red ?", f"does rare{g} look big ?"],
            game_id=g, scene_id=g,
        )
        for g in range(n)
    ]
    # generated games: tiny vocabulary, every fourth game repeats verbatim
    generated = []
    for g in range(n):
        if g % 4 == 0:
            qs = ["is it red ?"] * 3
        else:
            qs = ["is it blue ?", "is it green ?", "is it black ?"]
        generated.append(make_dialogue(qs, game_id=g, scene_id=g, source="generated"))

    replaced = {}
    for pct in (75, 50):
        mixed = corpus.mix_corpora(human, generated, corpus.MixSpec(pct, "fixed", seed=3))
        assert len(mixed) == len(human)
        n_replaced = sum(d.source == "generated" for d in mixed)
        assert n_replaced == (100 - pct) * n // 100
        replaced_ids = replaced[pct] = {d.game_id for d in mixed if d.source == "generated"}
        restricted = [d for d in generated if d.game_id in replaced_ids]
        assert metrics.grq(mixed) == (100 - pct) / 100 * metrics.grq(restricted)
    assert replaced[75] < replaced[50]

    mixed50 = corpus.mix_corpora(human, generated, corpus.MixSpec(50, "fixed", seed=3))
    v_human = corpus.corpus_stats(human, 3).voc_size
    v_mixed = corpus.corpus_stats(mixed50, 3, "fixed").voc_size
    v_gen = corpus.corpus_stats(generated, 3, "fixed").voc_size
    assert v_gen < v_mixed < v_human
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"sizes, floor counts, exact GRQ scaling, nested replacement, "
               f"vocabulary ordering {v_gen} < {v_mixed} < {v_human}, {elapsed:.1f}s")


def test_criterion_6_batch_mixing_property():
    rng = np.random.default_rng(999)
    checked = 0
    for trial in range(1000):
        bs = int(rng.integers(2, 17))
        k = int(rng.integers(1, 8))          # full batches
        n = bs * k + int(rng.integers(0, bs))
        # feasible datasets: each source can reach every full batch
        n_gen = int(rng.integers(k, n - k + 1))
        dialogues = [
            make_dialogue([f"q {g} ?"], game_id=g, scene_id=g,
                          source="generated" if g < n_gen else "human")
            for g in range(n)
        ]
        batches = corpus.make_batches(dialogues, bs, seed=trial)
        for b in batches[:k]:
            assert {d.source for d in b} == {"human", "generated"}, (trial, bs, k, n_gen)
        checked += 1
    assert checked == 1000
    _report(6, "every full batch carries both sources across 10^3 random "
               "feasible datasets and seeds")


@pytest.mark.slow
def test_criterion_7_directional_replication(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(None, {
        "experiment.output_dir": str(tmp_path / "grid"),
        "experiment.replicate_seeds": "3",
    })
    assert cfg["experiment.n_train_scenes"] == 2000
    assert cfg["experiment.n_test_scenes"] == 500
    assert cfg["evaluate.turns"] == 5
    out = cli.run_experiment(cfg)
    elapsed = time.perf_counter() - t0

    def rows(path):  # {(pct_human, length_mode): {metric: value}} of a report CSV
        lines = path.read_text().splitlines()
        assert lines[0] == metrics.REPORT_HEADER
        return {(p[0], p[2]): {"acc": float(p[3]), "grq": float(p[4]), "mo": float(p[5])}
                for p in (line.split(",") for line in lines[1:])}

    means = rows(out / "report_mean.csv")
    base = means[("100", "-")]
    mixed = means[("50", "fixed")]
    assert mixed["grq"] < base["grq"], (mixed, base)
    assert mixed["mo"] < base["mo"], (mixed, base)
    assert mixed["acc"] >= base["acc"] - 2.0, (mixed, base)
    assert elapsed < 900.0
    # the spread behind the means: each replicate's 50:fixed - 100% differences
    diffs = []
    for r in range(3):
        seed = rows(out / f"seed_{r}" / "report.csv")
        b, m = seed[("100", "-")], seed[("50", "fixed")]
        diffs.append(f"{m['acc'] - b['acc']:+.2f}/{m['grq'] - b['grq']:+.2f}/"
                     f"{m['mo'] - b['mo']:+.4f}")
    _report(7, f"GRQ {base['grq']:.1f} -> {mixed['grq']:.1f}, "
               f"MO {base['mo']:.3f} -> {mixed['mo']:.3f}, "
               f"ACC {base['acc']:.1f} -> {mixed['acc']:.1f} "
               f"(3-seed means), grid in {elapsed:.0f}s; per replicate "
               f"50:fixed - 100% ACC/GRQ/MO {', '.join(diffs)}")


def test_criterion_8_deterministic_reports(tmp_path):
    overrides = {
        "experiment.n_train_scenes": "80",
        "experiment.n_test_scenes": "25",
        "experiment.mix_specs": "100:-,50:fixed",
        "model.embed_dim": "8",
        "model.hidden_dim": "12",
        "model.epochs": "2",
        "model.batch_size": "8",
    }
    outputs = []
    for name in ("a", "b"):
        cfg = load_config(None, dict(overrides, **{
            "experiment.output_dir": str(tmp_path / name)
        }))
        out = cli.run_experiment(cfg)
        outputs.append({
            "report": (out / "report_mean.csv").read_bytes(),
            "stats": (out / "stats_mean.csv").read_bytes(),
            "seed_report": (out / "seed_0" / "report.csv").read_bytes(),
            "seed_stats": (out / "seed_0" / "stats.csv").read_bytes(),
        })
    assert outputs[0] == outputs[1]
    _report(8, "independent re-runs produce byte-identical report and stats CSVs")

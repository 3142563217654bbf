import logging

import numpy as np
import pytest

from guessmix import lang, metrics, model, oracle, selfplay
from guessmix.dialogue import GameAlignmentError


@pytest.fixture(scope="module")
def questioner(small_scenes, small_teacher_corpus):
    vocab = lang.build_vocabulary(small_teacher_corpus, min_count=1)
    cfg = model.ModelConfig(embed_dim=8, hidden_dim=16, epochs=4, batch_size=8,
                            decode_mode="greedy")
    params = model.init_params(cfg, vocab, seed=0)
    by_id = {s.scene_id: s for s in small_scenes}
    dataset = [(d, by_id[d.scene_id]) for d in small_teacher_corpus]
    result = model.train(params, vocab, dataset, cfg, seed=0)
    return model.Questioner(result.params, vocab, cfg)


class TestPlayGame:
    def test_exact_turn_budget(self, questioner, small_scenes):
        for turns in (1, 3, 5):
            g = selfplay.play_game(questioner, small_scenes[0], oracle.OracleConfig(0.0),
                                   turns, np.random.default_rng(0))
            assert len(g.dialogue.turns) == turns

    def test_greedy_noise_free_replay_identical(self, questioner, small_scenes):
        a = selfplay.play_game(questioner, small_scenes[1], oracle.OracleConfig(0.0),
                               5, np.random.default_rng(0))
        b = selfplay.play_game(questioner, small_scenes[1], oracle.OracleConfig(0.0),
                               5, np.random.default_rng(99))
        assert a == b  # greedy decoding plus truthful oracle uses no randomness

    def test_success_flag_consistency(self, questioner, small_scenes):
        for sc in small_scenes[:10]:
            g = selfplay.play_game(questioner, sc, oracle.OracleConfig(0.2),
                                   5, np.random.default_rng(sc.scene_id))
            assert g.success == (g.guess == sc.target_index)
            assert g.dialogue.success == g.success
            assert g.dialogue.source == "generated"

    def test_turn_budget_validated(self, questioner, small_scenes):
        with pytest.raises(ValueError):
            selfplay.play_game(questioner, small_scenes[0], oracle.OracleConfig(0.0),
                               0, np.random.default_rng(0))

    def test_untrained_model_hits_chance_rate(self):
        from guessmix import scene as scene_mod

        scenes = scene_mod.generate_scene_set(1000, seed=21)
        words = [f"w{i}" for i in range(10)]
        vocab = lang.Vocabulary(words=list(lang.SPECIAL_TOKENS) + words,
                                counts={w: 3 for w in words}, min_count=1)
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=16, decode_mode="greedy")
        q = model.Questioner(model.init_params(cfg, vocab, seed=13), vocab, cfg)
        games = selfplay.play_games(q, scenes, oracle.OracleConfig(0.0), 5, seed=0)
        got = sum(g.success for g in games) / len(games)
        expected = float(np.mean([1.0 / len(s.objects) for s in scenes]))
        sigma = float(np.sqrt(expected * (1 - expected) / len(games)))
        assert abs(got - expected) < 3.5 * sigma


class TestGenerateCorpus:
    def test_fixed_policy(self, questioner, small_scenes):
        corpus = selfplay.generate_selfplay_corpus(
            questioner, small_scenes, oracle.OracleConfig(0.1),
            selfplay.FixedLength(5), seed=3,
        )
        assert len(corpus) == len(small_scenes)
        assert all(len(d.turns) == 5 for d in corpus)
        assert all(d.source == "generated" for d in corpus)

    def test_match_human_policy(self, questioner, small_scenes, small_teacher_corpus):
        turn_map = {d.game_id: len(d.turns) for d in small_teacher_corpus}
        replayable = [s for s in small_scenes if s.scene_id in turn_map]
        corpus = selfplay.generate_selfplay_corpus(
            questioner, replayable, oracle.OracleConfig(0.1),
            selfplay.MatchHuman(turn_map), seed=3,
        )
        for d in corpus:
            assert len(d.turns) == turn_map[d.game_id]

    def test_missing_map_entry_names_game(self, questioner, small_scenes):
        policy = selfplay.MatchHuman({small_scenes[0].scene_id: 3})
        with pytest.raises(GameAlignmentError, match=str(small_scenes[1].scene_id)):
            selfplay.generate_selfplay_corpus(
                questioner, small_scenes[:2], oracle.OracleConfig(0.0), policy, seed=0
            )

    def test_sampled_decoding_deterministic_per_seed(self, small_scenes, small_teacher_corpus):
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=1)
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=16, decode_mode="sample")
        q = model.Questioner(model.init_params(cfg, vocab, seed=5), vocab, cfg)
        a = selfplay.generate_selfplay_corpus(q, small_scenes, oracle.OracleConfig(0.1),
                                              selfplay.FixedLength(4), seed=8)
        b = selfplay.generate_selfplay_corpus(q, small_scenes, oracle.OracleConfig(0.1),
                                              selfplay.FixedLength(4), seed=8)
        assert a == b

    def test_early_model_repeats_but_teacher_does_not(
        self, questioner, small_scenes, small_teacher_corpus
    ):
        generated = selfplay.generate_selfplay_corpus(
            questioner, small_scenes, oracle.OracleConfig(0.1),
            selfplay.FixedLength(5), seed=3,
        )
        assert metrics.grq(generated) > 0.0
        assert metrics.grq(small_teacher_corpus) == 0.0
        assert metrics.corpus_mo(small_teacher_corpus) < metrics.corpus_mo(generated)

    def test_log_reports_malformed_rate(self, questioner, small_scenes, small_teacher_corpus,
                                        caplog, monkeypatch):
        # every third question the decoder emits fails to parse
        good = small_teacher_corpus[0].turns[0].question
        asked = []

        def decode(*args, **kwargs):
            asked.append(None)
            return ["is", "it"] if len(asked) % 3 == 0 else list(good)

        monkeypatch.setattr(model, "decode_question", decode)
        caplog.set_level(logging.INFO, logger="guessmix.selfplay")
        selfplay.generate_selfplay_corpus(questioner, small_scenes[:10],
                                          oracle.OracleConfig(0.0),
                                          selfplay.FixedLength(3), seed=2)
        assert "33.3% of 30 questions malformed" in caplog.text

    def test_fixed_length_validated(self):
        with pytest.raises(ValueError):
            selfplay.FixedLength(0)

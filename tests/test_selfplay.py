import logging
import os
import pickle
import signal
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_dialogue
from guessmix import lang, metrics, model, oracle, parallel, selfplay
from guessmix.dialogue import GameAlignmentError, write_dialogues


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
        with pytest.raises(ValueError):
            selfplay.play_games(questioner, small_scenes, oracle.OracleConfig(0.0), 0, seed=0)

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


class TestPlayGames:
    @pytest.mark.parametrize("decode", ["greedy", "sample"])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_lockstep_equals_one_play_game_per_scene(self, questioner, small_scenes,
                                                     decode, noise):
        q = model.Questioner(questioner.params, questioner.vocab,
                             replace(questioner.config, decode_mode=decode))
        cfg = oracle.OracleConfig(noise)
        assert len({len(s.objects) for s in small_scenes}) > 1
        for scenes in (small_scenes, small_scenes[3:4]):  # every scene, and a single game
            games = selfplay.play_games(q, scenes, cfg, 5, seed=17)
            assert games == [selfplay.play_game(q, sc, cfg, 5,
                                                np.random.default_rng([17, sc.scene_id]))
                             for sc in scenes]
            if len(scenes) > 1:  # questions of different lengths end at different steps
                assert len({len(t.question) for g in games for t in g.dialogue.turns}) > 1


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

    @pytest.mark.parametrize("policy", ["fixed", "match_human"])
    def test_same_corpus_on_any_number_of_processes(self, questioner, small_scenes,
                                                    small_teacher_corpus, policy, tmp_path,
                                                    monkeypatch, started):
        # game k goes to share k mod n, every game on its own stream, and the
        # dialogues come back in scene order: the same corpus, to the byte,
        # as one play_game per scene, however many processes play it
        turn_map = {d.game_id: len(d.turns) for d in small_teacher_corpus}
        assert len(set(turn_map.values())) > 1
        length = selfplay.FixedLength(5) if policy == "fixed" else selfplay.MatchHuman(turn_map)
        scenes = [s for s in small_scenes if s.scene_id in turn_map]
        cfg = oracle.OracleConfig(0.1)
        for games in (scenes, scenes[:2]):  # every scene, and fewer games than processes
            want = [selfplay.play_game(questioner, sc, cfg,
                                       5 if policy == "fixed" else turn_map[sc.scene_id],
                                       np.random.default_rng([3, sc.scene_id])).dialogue
                    for sc in games]
            write_dialogues(tmp_path / "want.jsonl", want)
            for n in (1, 2, 3):
                monkeypatch.setattr(parallel, "processes", lambda tasks: n)
                started.clear()
                got = selfplay.generate_selfplay_corpus(questioner, games, cfg, length, seed=3)
                assert len(started) == n - 1
                assert got == want, (len(games), n)
                write_dialogues(tmp_path / "got.jsonl", got)
                assert ((tmp_path / "got.jsonl").read_bytes()
                        == (tmp_path / "want.jsonl").read_bytes())

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(3), "exited with 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=("exit_3", "sigkill"))
    def test_child_without_reply_raises_its_wait_status(self, questioner, small_scenes,
                                                        monkeypatch, started, end, status):
        # the call raises with the status of the child that sent no corpus,
        # and closes the pipe of, and reaps, every child it forked
        monkeypatch.setattr(parallel, "processes", lambda tasks: 3)
        play_game, caller = selfplay.play_game, os.getpid()

        def dies_in_a_child(*args):  # patched before the fork, so the children run it too
            if os.getpid() != caller:
                end()
            return play_game(*args)

        monkeypatch.setattr(selfplay, "play_game", dies_in_a_child)
        with pytest.raises(parallel.ChildError) as raised:
            selfplay.generate_selfplay_corpus(questioner, small_scenes, oracle.OracleConfig(0.1),
                                              selfplay.FixedLength(2), seed=1)
        assert len(started) == 2
        # the first child's reply is read first
        assert str(raised.value) == f"child {started[0][0]} {status}"
        for child, read in started:
            with pytest.raises(OSError):  # its pipe is closed
                os.fstat(read)
            with pytest.raises(ChildProcessError):  # reaped
                os.waitpid(child, os.WNOHANG)

    def test_exception_in_a_child_is_raised_by_the_call(self, questioner, small_scenes,
                                                        monkeypatch):
        monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
        play_game, caller = selfplay.play_game, os.getpid()

        def fails_in_the_child(*args):
            if os.getpid() != caller:
                raise OSError(28, "No space left on device")
            return play_game(*args)

        monkeypatch.setattr(selfplay, "play_game", fails_in_the_child)
        with pytest.raises(OSError, match="No space left on device"):
            selfplay.generate_selfplay_corpus(questioner, small_scenes, oracle.OracleConfig(0.1),
                                              selfplay.FixedLength(2), seed=1)

    def test_fixed_length_validated(self):
        with pytest.raises(ValueError):
            selfplay.FixedLength(0)


@pytest.mark.parametrize("kind", ["SceneObject", "Scene", "Turn", "Dialogue", "PlayedGame"])
def test_records_are_slotted_and_cross_processes(small_scenes, monkeypatch, kind):
    # a run holds these by the thousand in every process, so they carry no
    # per-instance __dict__; and a forked child still sends them back whole
    sc = small_scenes[0]
    dialogue = make_dialogue(["is it red", "is it a cat"], game_id=sc.scene_id,
                             scene_id=sc.scene_id, source="generated", answers=["yes", "no"],
                             guess=1, success=sc.target_index == 1)
    record = {"SceneObject": sc.objects[0], "Scene": sc, "Turn": dialogue.turns[1],
              "Dialogue": dialogue,
              "PlayedGame": selfplay.PlayedGame(dialogue, dialogue.guess, dialogue.success,
                                                sc.scene_id)}[kind]
    assert type(record).__name__ == kind
    assert not hasattr(record, "__dict__")
    # a frozen slotted class raises TypeError here (Python 3.10-3.12): its
    # generated __setattr__ calls super() with the class slots=True replaced
    with pytest.raises((AttributeError, TypeError)):
        record.note = "unknown"
    assert pickle.loads(pickle.dumps(record)) == record
    monkeypatch.setattr(parallel, "processes", lambda tasks: 2)
    got = parallel.deal(lambda x: x, [record, record])  # the first comes from a child
    assert got == [record, record] and got[0] is not record

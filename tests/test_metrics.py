import math

import numpy as np
import pytest

from bleu_reference import reference_bleu4
from conftest import make_dialogue
from guessmix import lang, metrics, model, oracle, selfplay
from guessmix.lang import Vocabulary
from guessmix.selfplay import PlayedGame


class TestBleu4:
    def test_identical_is_one(self):
        for q in (["is"], ["is", "it"], ["is", "it", "a", "cat", "?"]):
            assert metrics.bleu4(q, [q]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert metrics.bleu4(["a", "b"], [["c", "d"]]) == 0.0

    def test_hand_counted_case(self):
        cand = ["is", "it", "the", "red", "car", "?"]
        ref = ["is", "it", "the", "red", "cat", "?"]
        expected = (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
        assert metrics.bleu4(cand, [ref]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5372849659, abs=1e-9)

    def test_brevity_penalty_short_candidate(self):
        # four shared unigrams/bigrams/trigrams/quadrigrams, shorter candidate
        cand = ["a", "b", "c", "d"]
        ref = ["a", "b", "c", "d", "e", "f"]
        p = (4 / 4) * (3 / 3) * (2 / 2) * (1 / 1)
        assert metrics.bleu4(cand, [ref]) == pytest.approx(math.exp(1 - 6 / 4) * p)

    def test_tie_breaks_to_shorter_reference(self):
        cand = ["a", "b", "c"]
        refs = [["a", "b"], ["a", "b", "c", "d"]]  # lengths 2 and 4, both dist 1
        got = metrics.bleu4(cand, refs)
        assert got == pytest.approx(reference_bleu4(cand, refs), abs=1e-12)
        # r=2 implies no brevity penalty (candidate longer than chosen ref)
        assert got > 0

    def test_orders_capped_by_candidate_length(self):
        # single-token candidate: only unigram precision, then brevity penalty
        assert metrics.bleu4(["a"], [["a", "b", "c"]]) == pytest.approx(math.exp(1 - 3 / 1))
        assert metrics.bleu4(["a"], [["a"]]) == pytest.approx(1.0)
        assert metrics.bleu4(["b", "c"], [["a", "b", "c"]]) == pytest.approx(math.exp(1 - 3 / 2))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            metrics.bleu4([], [["a"]])
        with pytest.raises(ValueError):
            metrics.bleu4(["a"], [])

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        alphabet = [f"t{i}" for i in range(10)]
        for _ in range(2000):
            cand = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
            ref = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
            assert metrics.bleu4(cand, [ref]) == pytest.approx(
                reference_bleu4(cand, [ref]), abs=1e-9
            )

    def test_matches_brute_force_multi_reference(self):
        rng = np.random.default_rng(1)
        alphabet = [f"t{i}" for i in range(10)]
        for _ in range(500):
            cand = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
            refs = [
                [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
                for _ in range(rng.integers(1, 5))
            ]
            assert metrics.bleu4(cand, refs) == pytest.approx(
                reference_bleu4(cand, refs), abs=1e-9
            )

    def test_invariant_under_token_renaming(self):
        rng = np.random.default_rng(2)
        alphabet = [f"t{i}" for i in range(10)]
        renamed = {f"t{i}": f"u{(i * 7) % 10}" for i in range(10)}  # bijection
        for _ in range(300):
            cand = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
            ref = [alphabet[i] for i in rng.integers(10, size=rng.integers(1, 8))]
            assert metrics.bleu4(cand, [ref]) == pytest.approx(
                metrics.bleu4([renamed[t] for t in cand], [[renamed[t] for t in ref]]),
                abs=1e-12,
            )

    def test_range(self):
        rng = np.random.default_rng(3)
        alphabet = [f"t{i}" for i in range(4)]
        for _ in range(500):
            cand = [alphabet[i] for i in rng.integers(4, size=rng.integers(1, 7))]
            ref = [alphabet[i] for i in rng.integers(4, size=rng.integers(1, 7))]
            assert 0.0 <= metrics.bleu4(cand, [ref]) <= 1.0 + 1e-12


class TestMutualOverlap:
    def test_two_identical_questions(self):
        d = make_dialogue(["is it red ?", "is it red ?"])
        assert metrics.corpus_mo([d]) == pytest.approx(1.0)

    def test_single_question_is_zero(self):
        assert metrics.corpus_mo([make_dialogue(["is it red ?"])]) == 0.0

    def test_two_thirds_case(self):
        d = make_dialogue(["is it red ?", "is it red ?", "does that thing fly"])
        assert metrics.corpus_mo([d]) == pytest.approx(2.0 / 3.0)

    def test_question_order_invariance(self):
        questions = ["is it red ?", "is it a cat ?", "is it red ?", "is it small ?"]
        base = metrics.corpus_mo([make_dialogue(questions)])
        rng = np.random.default_rng(4)
        for _ in range(10):
            perm = list(rng.permutation(questions))
            assert metrics.corpus_mo([make_dialogue(perm)]) == pytest.approx(base)

    def test_corpus_mean(self):
        corpus = [
            make_dialogue(["is it red ?", "is it red ?"]),
            make_dialogue(["is it red ?", "does that thing fly"]),
        ]
        assert metrics.corpus_mo(corpus) == pytest.approx((1.0 + 0.0) / 2)


class TestMutualOverlapExact:
    """The count-based mutual overlap equals averaging `bleu4` of each
    question against the others, bit for bit."""

    @staticmethod
    def per_candidate(d):
        qs = d.questions()
        if len(qs) < 2:
            return 0.0
        scores = [metrics.bleu4(q, qs[:i] + qs[i + 1:]) for i, q in enumerate(qs)]
        return sum(scores) / len(scores)

    def assert_bitwise(self, dialogues):
        for d in dialogues:
            assert metrics.corpus_mo([d]).hex() == self.per_candidate(d).hex()
        # corpus_mo reuses a question's counts across the dialogues that repeat it
        mean = sum(self.per_candidate(d) for d in dialogues) / len(dialogues)
        assert metrics.corpus_mo(dialogues).hex() == mean.hex()

    def test_teacher_dialogues(self, small_teacher_corpus):
        self.assert_bitwise(small_teacher_corpus)

    def test_generated_dialogues(self, small_scenes, small_teacher_corpus):
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=1)
        generated = []
        for mode in ("sample", "greedy"):
            cfg = model.ModelConfig(embed_dim=8, hidden_dim=16, decode_mode=mode)
            q = model.Questioner(model.init_params(cfg, vocab, seed=3), vocab, cfg)
            generated += selfplay.generate_selfplay_corpus(
                q, small_scenes, oracle.OracleConfig(0.0), selfplay.FixedLength(6), seed=1)
        assert metrics.grq(generated) > 0  # repeated questions occur
        self.assert_bitwise(generated)

    def test_random_dialogues(self):
        # a 3-word alphabet makes repeated questions, shared grams and equal
        # counts common; lengths 1..6 make 1-token questions and ties
        # between reference lengths common
        rng = np.random.default_rng(5)
        alphabet = ["a", "b", "c"]
        dialogues = []
        for _ in range(1500):
            questions = [
                " ".join(alphabet[i] for i in rng.integers(3, size=rng.integers(1, 7)))
                for _ in range(rng.integers(1, 9))
            ]
            dialogues.append(make_dialogue(questions))
        self.assert_bitwise(dialogues)

    def test_hand_picked_cases(self):
        self.assert_bitwise([
            make_dialogue(["a b", "a b", "a b"]),            # every question repeated
            make_dialogue(["a", "a", "b"]),                  # 1-token questions
            make_dialogue(["a", "b c d", "a b"]),
            make_dialogue(["a b c", "a b", "a b c d"]),      # lengths 2 and 4 tie for 3
            make_dialogue(["a a b", "a a", "a b a a", "b"]),  # gram counts above 1
            make_dialogue(["x y z", "p q"]),                 # nothing shared
        ])

    def test_empty_question_rejected_like_bleu4(self):
        with pytest.raises(ValueError):
            metrics.corpus_mo([make_dialogue(["a b", ""])])
        with pytest.raises(ValueError):
            metrics.corpus_mo([make_dialogue(["a b", "a b"]), make_dialogue(["a b", ""])])


class TestGrq:
    def test_counting(self):
        corpus = [make_dialogue(["q a ?", "q a ?"], game_id=i) for i in range(3)]
        corpus += [make_dialogue(["q a ?", "q b ?"], game_id=3 + i) for i in range(7)]
        assert metrics.grq(corpus) == pytest.approx(30.0)

    def test_cross_game_repeats_do_not_count(self):
        corpus = [
            make_dialogue(["is it red ?", "is it a cat ?"], game_id=0),
            make_dialogue(["is it red ?", "is it small ?"], game_id=1),
        ]
        assert metrics.grq(corpus) == 0.0

    def test_order_invariance(self):
        corpus = [make_dialogue(["a ?", "a ?"], game_id=0),
                  make_dialogue(["a ?", "b ?"], game_id=1)]
        assert metrics.grq(corpus) == metrics.grq(corpus[::-1])


class TestNovelQuestions:
    def test_all_seen(self):
        training = {("is", "it", "red", "?")}
        corpus = [make_dialogue(["is it red ?", "is it red ?"])]
        assert metrics.novel_questions(corpus, training) == 0.0

    def test_two_unseen_in_five(self):
        training = {("q", str(i), "?") for i in range(3)}
        d = make_dialogue(["q 0 ?", "q 1 ?", "q 2 ?", "q 9 ?", "q 8 ?"])
        assert metrics.novel_questions([d], training) == pytest.approx(2.0)

    def test_duplicates_count_per_occurrence(self):
        d = make_dialogue(["new one ?", "new one ?"])
        assert metrics.novel_questions([d], set()) == pytest.approx(2.0)

    def test_bounded_by_turn_count(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            d = make_dialogue([f"q {rng.integers(10)} ?" for _ in range(n)])
            assert 0.0 <= metrics.novel_questions([d], set()) <= n

    def test_training_corpus_against_itself_is_zero(self, small_teacher_corpus):
        from guessmix.corpus import question_set

        qs = question_set(small_teacher_corpus)
        assert metrics.novel_questions(small_teacher_corpus, qs) == 0.0


class TestGlobalRecall:
    def _vocab(self, n):
        words = [f"w{i:03d}" for i in range(n)]
        return Vocabulary(counts={w: 3 for w in words}, min_count=3)

    def test_fraction(self):
        vocab = self._vocab(200)
        d = make_dialogue([" ".join(f"w{i:03d}" for i in range(42))])
        assert metrics.global_recall([d], vocab) == pytest.approx(21.0)

    def test_out_of_vocab_words_ignored(self):
        vocab = self._vocab(10)
        d = make_dialogue(["nope never seen"])
        assert metrics.global_recall([d], vocab) == 0.0

    def test_specials_excluded_from_denominator(self):
        vocab = self._vocab(10)
        d = make_dialogue(["w000 <soq> <yes>"])
        assert metrics.global_recall([d], vocab) == pytest.approx(10.0)

    def test_order_invariance(self):
        vocab = self._vocab(10)
        corpus = [make_dialogue(["w000 w001"]), make_dialogue(["w002"])]
        assert metrics.global_recall(corpus, vocab) == metrics.global_recall(corpus[::-1], vocab)


class TestAccuracy:
    def _games(self, outcomes):
        return [
            PlayedGame(dialogue=make_dialogue(["q ?"], success=s), guess=0, success=s, scene_id=i)
            for i, s in enumerate(outcomes)
        ]

    def test_all_success(self):
        assert metrics.accuracy(self._games([True] * 5)) == 100.0

    def test_paper_scale_fraction(self):
        games = self._games([True] * 463 + [False] * 537)
        assert metrics.accuracy(games) == pytest.approx(46.3)

    def test_order_invariance(self):
        games = self._games([True, False, True])
        assert metrics.accuracy(games) == metrics.accuracy(games[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.accuracy([])


class TestReportIO:
    def test_csv_shape(self, tmp_path):
        rows = [metrics.ReportRow(100, 0, "-", 46.3, 36.8, 0.27, 0.53, 20.6)]
        path = tmp_path / "report.csv"
        metrics.write_report_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "pct_human,pct_generated,length_mode,acc,grq,mo,nq,gr"
        assert lines[1].startswith("100,0,-,46.30,36.80,0.2700,")

    def test_markdown_contains_direction_markers(self):
        rows = [metrics.ReportRow(50, 50, "fixed", 48.1, 22.5, 0.18, 0.37, 21.2)]
        md = metrics.report_markdown(rows, "Test set")
        assert md.startswith("## Test set\n")
        assert "ACC ↑" in md and "GRQ ↓" in md and "MO ↓" in md
        assert "48.1" in md and "fixed" in md

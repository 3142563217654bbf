import json

import numpy as np
import pytest

from conftest import make_dialogue
from guessmix import lang


def _realizations():
    """Every surface the grammar realizes, mapped to its semantics."""
    return {
        tuple(lang.realize(sem, i)): sem
        for sem in lang.ALL_SEMANTICS
        for i in range(len(lang.TEMPLATES[sem.kind]))
    }


class TestGrammar:
    def test_realize_color(self):
        sem = lang.QuestionSemantics(lang.KIND_COLOR, "red")
        assert lang.realize(sem, 0) == ["is", "it", "red", "?"]

    def test_realize_category(self):
        sem = lang.QuestionSemantics(lang.KIND_CATEGORY, "cat")
        assert lang.realize(sem, 1) == ["is", "the", "object", "a", "cat", "?"]

    def test_parse_color(self):
        assert lang.parse_question(["is", "it", "red", "?"]) == \
            lang.QuestionSemantics(lang.KIND_COLOR, "red")

    def test_parse_category(self):
        assert lang.parse_question(["is", "it", "a", "cat", "?"]) == \
            lang.QuestionSemantics(lang.KIND_CATEGORY, "cat")

    def test_parse_garbage(self):
        assert lang.parse_question(["cat", "cat", "cat", "?"]) is None
        assert lang.parse_question([]) is None
        assert lang.parse_question(["is", "it", "blorp", "?"]) is None

    def test_round_trip_full_cross_product(self):
        for sem in lang.ALL_SEMANTICS:
            for template_id in range(len(lang.TEMPLATES[sem.kind])):
                tokens = lang.realize(sem, template_id)
                assert lang.parse_question(tokens) == sem, (sem, template_id)

    def test_every_kind_has_enough_templates(self):
        for kind, patterns in lang.TEMPLATES.items():
            assert len(patterns) >= 3
            for pattern in patterns:
                assert pattern[-1] == "?"
                assert sum(1 for t in pattern if t == lang.SLOT) == 1

    def test_one_surface_per_semantics_and_template(self):
        expected = sum(len(lang.TEMPLATES[k]) * len(lang.SLOT_VALUES[k]) for k in lang.KINDS)
        assert expected == 84
        assert len(_realizations()) == expected

    def test_one_token_substitutions_parse_only_as_realizations(self):
        realizations = _realizations()
        words = {tok for surface in realizations for tok in surface} | {lang.UNK}
        for surface in realizations:
            for pos in range(len(surface)):
                for word in words - {surface[pos]}:
                    tokens = surface[:pos] + (word,) + surface[pos + 1:]
                    assert lang.parse_question(tokens) == realizations.get(tokens), tokens

    def test_all_semantics_order(self):
        # the teacher breaks ties by drawing an index into this sequence, so
        # its order is part of every teacher corpus
        semantics = lang.ALL_SEMANTICS
        assert semantics == tuple(
            lang.QuestionSemantics(kind, v) for kind in lang.KINDS for v in lang.SLOT_VALUES[kind]
        )
        assert [semantics[i].value for i in (0, 11, 12, 19, 20, 22, 23, 27)] == \
            ["cat", "lamp", "red", "purple", "small", "large", "left", "center"]

    def test_unknown_template_id(self):
        sem = lang.QuestionSemantics(lang.KIND_SIZE, "small")
        with pytest.raises(ValueError):
            lang.realize(sem, 99)

    def test_invalid_semantics_rejected(self):
        with pytest.raises(ValueError):
            lang.QuestionSemantics(lang.KIND_COLOR, "cat")
        with pytest.raises(ValueError):
            lang.QuestionSemantics("shape", "round")


class TestVocabulary:
    def test_threshold(self):
        corpus = [make_dialogue(["cat cat", "cat dog"], game_id=0),
                  make_dialogue(["dog bird"], game_id=1)]
        vocab = lang.build_vocabulary(corpus, min_count=3)
        assert "cat" in vocab.words
        assert "dog" not in vocab.words
        assert "bird" not in vocab.words

    def test_min_count_one_keeps_everything(self):
        corpus = [make_dialogue(["ball tree phone", "cup"])]
        vocab = lang.build_vocabulary(corpus, min_count=1)
        assert set(vocab.learnable_words) == {"ball", "tree", "phone", "cup"}

    def test_empty_corpus_specials_only(self):
        vocab = lang.build_vocabulary([], min_count=3)
        assert vocab.words == list(lang.SPECIAL_TOKENS)
        assert vocab.voc_size == 0

    def test_shuffle_invariance(self, small_teacher_corpus):
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=3)
        shuffled = list(small_teacher_corpus)
        np.random.default_rng(1).shuffle(shuffled)
        assert lang.build_vocabulary(shuffled, min_count=3) == vocab

    def test_counts_meet_threshold_and_ordering(self, small_teacher_corpus):
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=3)
        counts = [vocab.counts[w] for w in vocab.learnable_words]
        assert all(c >= 3 for c in counts)
        assert counts == sorted(counts, reverse=True)

    def test_voc_size_matches_brute_force(self, small_teacher_corpus):
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=3)
        # independent recount, no Counter
        freqs: dict[str, int] = {}
        for d in small_teacher_corpus:
            for t in d.turns:
                for tok in t.question:
                    freqs[tok] = freqs.get(tok, 0) + 1
        expected = sorted(w for w, c in freqs.items() if c >= 3)
        assert sorted(vocab.learnable_words) == expected

    def test_ids_dense_and_specials_first(self, small_teacher_corpus):
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=3)
        assert [vocab.token_id(w) for w in vocab.words] == list(range(vocab.n_words))
        assert vocab.words[:5] == list(lang.SPECIAL_TOKENS)
        assert vocab.token_id("never-seen-word") == vocab.token_id(lang.UNK)

    def test_answers_do_not_count(self):
        corpus = [make_dialogue(["cat cat cat"], answers=["yes"])]
        vocab = lang.build_vocabulary(corpus, min_count=1)
        assert vocab.learnable_words == ["cat"]

    def test_jsonl_round_trip(self, small_teacher_corpus, tmp_path):
        # the file README documents: one {"word", "count", "id"} object per
        # line, ids dense, specials first with count 0
        vocab = lang.build_vocabulary(small_teacher_corpus, min_count=3)
        path = tmp_path / "vocab.jsonl"
        lang.write_vocabulary(path, vocab)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert all(set(r) == {"word", "count", "id"} for r in records)
        assert [r["id"] for r in records] == list(range(vocab.n_words))
        assert [r["word"] for r in records] == vocab.words
        assert [r["count"] for r in records[:5]] == [0] * 5
        assert {r["word"]: r["count"] for r in records[5:]} == vocab.counts

    def test_bad_min_count_rejected(self):
        with pytest.raises(ValueError):
            lang.build_vocabulary([], min_count=0)

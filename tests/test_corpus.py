import numpy as np
import pytest

from conftest import make_dialogue
from guessmix import corpus, metrics
from guessmix.dialogue import GameAlignmentError


def human_corpus(n, turns=2):
    return [
        make_dialogue([f"is it q{i} g{g} ?" for i in range(turns)], game_id=g, scene_id=g)
        for g in range(n)
    ]


def generated_corpus(n, turns=2, repeat_every=None):
    """Generated twin corpus; games where g % repeat_every == 0 contain a repeat."""
    out = []
    for g in range(n):
        if repeat_every and g % repeat_every == 0:
            questions = ["is it red ?"] * turns
        else:
            questions = [f"gen q{i} g{g} ?" for i in range(turns)]
        out.append(make_dialogue(questions, game_id=g, scene_id=g, source="generated"))
    return out


class TestMix:
    def test_fifty_fifty_counts(self):
        human = human_corpus(100)
        gen = generated_corpus(100)
        mixed = corpus.mix_corpora(human, gen, corpus.MixSpec(50, "fixed", seed=1))
        assert len(mixed) == 100
        assert sum(d.source == "generated" for d in mixed) == 50
        assert sum(d.source == "human" for d in mixed) == 50

    def test_pct_100_identity(self):
        human = human_corpus(30)
        mixed = corpus.mix_corpora(human, [], corpus.MixSpec(100, "-", seed=1))
        assert mixed == human

    def test_floor_arithmetic(self):
        for n, replaced in ((108_000, 27_000), (107, 26)):
            mixed = corpus.mix_corpora(human_corpus(n, turns=1), generated_corpus(n, turns=1),
                                       corpus.MixSpec(75, "fixed", seed=0))
            assert sum(d.source == "generated" for d in mixed) == replaced

    def test_game_id_multiset_and_order_preserved(self):
        human = human_corpus(40)
        gen = generated_corpus(40)
        mixed = corpus.mix_corpora(human, gen, corpus.MixSpec(75, "fixed", seed=2))
        assert [d.game_id for d in mixed] == [d.game_id for d in human]

    def test_nested_replacement_sets(self):
        human, gen = human_corpus(200), generated_corpus(200)

        def replaced(pct, seed):
            mixed = corpus.mix_corpora(human, gen, corpus.MixSpec(pct, "fixed", seed=seed))
            return {d.game_id for d in mixed if d.source == "generated"}

        for seed in range(10):
            r75, r50, r0 = (replaced(pct, seed) for pct in (75, 50, 0))
            assert r75 < r50 < r0
            assert len(r75) == 50 and len(r50) == 100 and len(r0) == 200

    def test_alignment_gap_names_games(self):
        human = human_corpus(10)
        gen = generated_corpus(10)[:5]  # missing games 5..9
        with pytest.raises(GameAlignmentError):
            corpus.mix_corpora(human, gen, corpus.MixSpec(0, "fixed", seed=0))

    def test_variable_length_mismatch_detected(self):
        human = human_corpus(10, turns=3)
        gen = generated_corpus(10, turns=2)
        with pytest.raises(corpus.LengthPolicyMismatchError):
            corpus.mix_corpora(human, gen, corpus.MixSpec(50, "variable", seed=0))

    def test_fixed_length_mismatch_detected(self):
        human = human_corpus(10)
        gen = generated_corpus(10)
        bad = gen[3]
        gen[3] = make_dialogue(["one ?"], game_id=bad.game_id,
                               scene_id=bad.scene_id, source="generated")
        with pytest.raises(corpus.LengthPolicyMismatchError):
            corpus.mix_corpora(human, gen, corpus.MixSpec(0, "fixed", seed=0))

    def test_grq_linearity_exact(self):
        human = human_corpus(100)
        gen = generated_corpus(100, repeat_every=4)  # 25 games with repeats
        for pct in (75, 50):
            spec = corpus.MixSpec(pct, "fixed", seed=7)
            mixed = corpus.mix_corpora(human, gen, spec)
            replaced_ids = {d.game_id for d in mixed if d.source == "generated"}
            restricted = [d for d in gen if d.game_id in replaced_ids]
            expected = (100 - pct) / 100 * metrics.grq(restricted)
            assert metrics.grq(mixed) == expected

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            corpus.MixSpec(101, "fixed")
        with pytest.raises(ValueError):
            corpus.MixSpec(50, "sometimes")
        with pytest.raises(ValueError):
            corpus.MixSpec(50, "-")


class TestBatches:
    def _mixed_dataset(self, n_human, n_gen, rng):
        items = human_corpus(n_human) + generated_corpus(n_gen)
        for d in items[n_human:]:
            d.game_id += 10_000
        rng.shuffle(items)
        return items

    def test_partition_is_exact(self):
        items = human_corpus(37)
        batches = corpus.make_batches(items, 8, seed=0)
        assert sorted(d.game_id for b in batches for d in b) == sorted(
            d.game_id for d in items
        )
        assert [len(b) for b in batches] == [8, 8, 8, 8, 5]

    def test_full_batches_are_mixed(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            bs = int(rng.integers(2, 17))
            k = int(rng.integers(1, 9))
            n = bs * k + int(rng.integers(0, bs))
            n_gen = int(rng.integers(k, n - k + 1))
            items = self._mixed_dataset(n - n_gen, n_gen, rng)
            batches = corpus.make_batches(items, bs, seed=trial)
            for b in batches[:k]:
                sources = {d.source for d in b}
                assert sources == {"human", "generated"}, (trial, bs, k)

    def test_single_source_left_alone(self):
        items = human_corpus(20)
        batches = corpus.make_batches(items, 4, seed=1)
        assert all(len(b) == 4 for b in batches)

    def test_deterministic(self):
        items = human_corpus(25) + generated_corpus(12)
        a = corpus.make_batches(list(items), 6, seed=3)
        b = corpus.make_batches(list(items), 6, seed=3)
        assert a == b

    def test_pairs_supported(self, small_scenes, small_teacher_corpus):
        by_id = {s.scene_id: s for s in small_scenes}
        pairs = [(d, by_id[d.scene_id]) for d in small_teacher_corpus]
        batches = corpus.make_batches(pairs, 8, seed=0)
        assert sum(len(b) for b in batches) == len(pairs)
        assert all(isinstance(item, tuple) for b in batches for item in b)


class TestStats:
    def test_teacher_corpus_row(self, small_teacher_corpus):
        row = corpus.corpus_stats(small_teacher_corpus, min_count=3)
        assert row.pct_human == 100.0
        assert row.pct_generated == 0.0
        assert row.grq == 0.0

    def test_grq_scales_with_mix(self):
        human = human_corpus(100)
        gen = generated_corpus(100, repeat_every=1)  # every generated game repeats
        mixed = corpus.mix_corpora(human, gen, corpus.MixSpec(50, "fixed", seed=5))
        row = corpus.corpus_stats(mixed, min_count=1, length_mode="fixed")
        assert row.grq == pytest.approx(50.0)
        assert row.pct_human == pytest.approx(50.0)

    def test_voc_size_ordering_on_heavy_tailed_corpus(self):
        # human games carry three rare words each; generated games reuse a
        # tiny vocabulary, so replacement starves rare words below the
        # threshold: voc(generated) < voc(mixed) < voc(human)
        human = [
            make_dialogue(
                [f"is it rare{g}a rare{g}b rare{g}c ?"] * 3, game_id=g, scene_id=g
            )
            for g in range(40)
        ]
        gen = [
            make_dialogue(["is it red ?"] * 3, game_id=g, scene_id=g, source="generated")
            for g in range(40)
        ]
        mixed = corpus.mix_corpora(human, gen, corpus.MixSpec(50, "fixed", seed=6))
        v_h = corpus.corpus_stats(human, 3).voc_size
        v_m = corpus.corpus_stats(mixed, 3, "fixed").voc_size
        v_g = corpus.corpus_stats(gen, 3, "fixed").voc_size
        assert v_g < v_m < v_h

    def test_voc_size_monotone_across_nested_mixes(self):
        human = [
            make_dialogue(
                [f"is it rare{g} ?", f"is the rare{g} red ?", f"does rare{g} look big ?"],
                game_id=g, scene_id=g,
            )
            for g in range(60)
        ]
        gen = [make_dialogue(["is it blue ?"] * 3, game_id=g, scene_id=g, source="generated")
               for g in range(60)]
        sizes = []
        for pct in (75, 50, 25):
            mixed = corpus.mix_corpora(human, gen, corpus.MixSpec(pct, "fixed", seed=9))
            sizes.append(corpus.corpus_stats(mixed, 3, "fixed").voc_size)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_question_set(self):
        c = [make_dialogue(["a b ?", "a b ?"]), make_dialogue(["c ?"])]
        assert corpus.question_set(c) == {("a", "b", "?"), ("c", "?")}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus.corpus_stats([], 3)

import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from model_reference import gradient_check, softmax, tiny_vocab
from guessmix import lang, model, oracle, scene, teacher
from guessmix.dialogue import Dialogue, Turn
from guessmix.scene import SceneObject, make_scene


@pytest.fixture(scope="module")
def world():
    scenes = scene.generate_scene_set(12, seed=5)
    corpus = teacher.collect_teacher_corpus(scenes, oracle.OracleConfig(0.0), seed=2)
    vocab = lang.build_vocabulary(corpus, min_count=1)
    by_id = {s.scene_id: s for s in scenes}
    dataset = [(d, by_id[d.scene_id]) for d in corpus]
    return scenes, corpus, vocab, dataset


class TestInit:
    def test_deterministic(self):
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=16)
        vocab = tiny_vocab()
        a = model.init_params(cfg, vocab, seed=3)
        b = model.init_params(cfg, vocab, seed=3)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bounds(self):
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=16)
        params = model.init_params(cfg, tiny_vocab(), seed=0)
        s = 1.0 / math.sqrt(16)
        for name in model.PARAM_FIELDS:
            arr = getattr(params, name)
            assert np.all(np.abs(arr) <= s)

    def test_shapes(self):
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=16)
        vocab = tiny_vocab(45)  # 45 + 5 specials = 50
        params = model.init_params(cfg, vocab, seed=0)
        assert params.embeddings.shape == (50, 8)
        assert params.w_scene.shape == (16, model.FEATURE_DIM)
        assert params.w_in.shape == (16, 8)
        assert params.w_h.shape == (16, 16)
        assert params.b_h.shape == (16,)
        assert params.w_out.shape == (50, 16)
        assert params.w_obj.shape == (16, model.FEATURE_DIM)


class TestFeatures:
    def test_one_hot_layout(self):
        o = SceneObject(id=0, category=scene.CATEGORIES[0], color=scene.COLORS[0],
                        size=scene.SIZES[0], cell_x=0, cell_y=0)
        f = model.object_feature_matrix(make_scene(0, [o], 0))[0]
        assert f[0] == 1.0
        assert np.all(f[1:12] == 0.0)
        assert f[12] == 1.0 and np.all(f[13:20] == 0.0)
        assert f[20] == 1.0 and np.all(f[21:23] == 0.0)
        assert f[23] == 0.0 and f[24] == 0.0

    def test_coordinates_normalized(self):
        o = SceneObject(id=0, category="cat", color="red", size="small", cell_x=4, cell_y=2)
        f = model.object_feature_matrix(make_scene(0, [o], 0))[0]
        assert f[23] == pytest.approx(1.0)
        assert f[24] == pytest.approx(0.5)

    def test_feature_dim(self):
        assert model.FEATURE_DIM == 25

    def test_scene_feature_of_identical_objects(self):
        objs = tuple(
            SceneObject(id=i, category="cat", color="red", size="small", cell_x=i, cell_y=0)
            for i in range(3)
        )
        sc = make_scene(0, objs, 0)
        f = model.object_feature_matrix(sc).mean(axis=0)
        # identical except x: mean equals shared one-hots, averaged coordinate
        per = model.object_feature_matrix(sc)
        assert np.allclose(f, np.mean(per, axis=0))

    def test_matrix_matches_per_object_construction(self):
        def one_object(o):  # the per-object construction the matrix replaced
            f = np.zeros(model.FEATURE_DIM)
            f[scene.CATEGORIES.index(o.category)] = 1.0
            f[len(scene.CATEGORIES) + scene.COLORS.index(o.color)] = 1.0
            f[len(scene.CATEGORIES) + len(scene.COLORS) + scene.SIZES.index(o.size)] = 1.0
            f[model.FEATURE_DIM - 2] = o.cell_x / float(scene.GRID_SIZE - 1)
            f[model.FEATURE_DIM - 1] = o.cell_y / float(scene.GRID_SIZE - 1)
            return f

        for sc in scene.generate_scene_set(50, seed=11):
            old = np.stack([one_object(o) for o in sc.objects])
            assert model.object_feature_matrix(sc).tobytes() == old.tobytes()
            old_mean = np.mean([one_object(o) for o in sc.objects], axis=0)
            assert model.object_feature_matrix(sc).mean(axis=0).tobytes() == old_mean.tobytes()


class TestEncodeTurn:
    def test_zero_weights_zero_state(self):
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=0)
        for name in model.PARAM_FIELDS:
            getattr(params, name)[...] = 0.0
        state = np.ones(6)
        out = model.encode_turn(params, vocab, state, ("w00", "w01"), "yes")
        assert np.all(out == 0.0)

    def test_purity(self):
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=1)
        state = np.full(6, 0.3)
        a = model.encode_turn(params, vocab, state, ("w02",), "no")
        b = model.encode_turn(params, vocab, state, ("w02",), "no")
        assert np.array_equal(a, b)
        assert np.all(state == 0.3)

    def test_hand_computed_two_dim(self):
        # H=2, E=1, one-token question then the answer token
        vocab = tiny_vocab(1)
        cfg = model.ModelConfig(embed_dim=1, hidden_dim=2)
        params = model.init_params(cfg, vocab, seed=0)
        params.embeddings[...] = 0.0
        params.embeddings[vocab.token_id("w00"), 0] = 0.3
        params.embeddings[vocab.answer_id("yes"), 0] = -0.4
        params.w_in[...] = [[0.5], [-0.25]]
        params.w_h[...] = [[0.1, 0.0], [0.0, 0.2]]
        params.b_h[...] = [0.01, -0.02]
        h = np.array([0.5, -0.5])
        # token step, scalar arithmetic
        a1 = 0.5 * 0.3 + 0.1 * 0.5 + 0.01
        a2 = -0.25 * 0.3 + 0.2 * (-0.5) - 0.02
        h1 = (math.tanh(a1), math.tanh(a2))
        b1 = 0.5 * (-0.4) + 0.1 * h1[0] + 0.01
        b2 = -0.25 * (-0.4) + 0.2 * h1[1] - 0.02
        expected = (math.tanh(b1), math.tanh(b2))
        got = model.encode_turn(params, vocab, h, ("w00",), "yes")
        assert got == pytest.approx(expected, abs=1e-15)


class TestDecode:
    def test_greedy_deterministic(self):
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=4)
        state = np.linspace(-0.5, 0.5, 12)
        a = model.decode_question(params, vocab, state, mode="greedy", max_len=10)
        b = model.decode_question(params, vocab, state, mode="greedy", max_len=10)
        assert a == b

    def test_length_cap_and_nonempty(self):
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=4)
        rng = np.random.default_rng(0)
        for seed in range(30):
            state = np.random.default_rng(seed).uniform(-1, 1, 12)
            for mode in ("greedy", "sample"):
                out = model.decode_question(params, vocab, state, mode=mode,
                                            max_len=6, rng=rng)
                assert 1 <= len(out) <= 6

    def test_sample_needs_rng(self):
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=0)
        with pytest.raises(ValueError):
            model.decode_question(params, vocab, np.zeros(6), mode="sample", max_len=10)

    def test_logit_shift_invariance(self):
        # adding a constant to all output logits never changes the argmax
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=4)
        state = np.linspace(-0.4, 0.4, 12)
        base = model.decode_question(params, vocab, state, mode="greedy", max_len=8)
        shifted = params.copy()
        shifted.w_out[...] = params.w_out  # same weights, shift enters via softmax
        logits = params.w_out @ np.tanh(
            params.w_in @ params.embeddings[vocab.soq_id] + params.w_h @ state + params.b_h
        )
        p = softmax(logits)
        p_shift = softmax(logits + 7.3)
        assert np.allclose(p, p_shift)
        assert base == model.decode_question(shifted, vocab, state, mode="greedy", max_len=8)


class _ScriptedRng:
    """Stands in for a Generator: returns the scripted uniform draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def _reference_cell(params, token_id, h):
    # the per-step cell as written before the input projection was hoisted
    return np.tanh(params.w_in @ params.embeddings[token_id] + params.w_h @ h + params.b_h)


def _reference_decode(params, vocab, state, mode, max_len, rng=None):
    # the decoder as written before: one cell call and one output matvec per
    # step, sampled tokens drawn with Generator.choice
    h = np.asarray(state, dtype=float)
    out = []
    prev = vocab.soq_id
    for step in range(max_len):
        h = _reference_cell(params, prev, h)
        logits = params.w_out @ h
        if step == 0:
            logits = logits.copy()
            logits[vocab.eoq_id] = -np.inf
        if mode == "greedy":
            nxt = int(np.argmax(logits))
        else:
            p = softmax(logits)
            nxt = int(rng.choice(len(p), p=p / p.sum()))
        if nxt == vocab.eoq_id:
            break
        out.append(nxt)
        prev = nxt
    return [vocab.words[i] for i in out]


class TestDecodeContract:
    def _model(self, seed, n_learnable=15, hidden=12):
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=hidden)
        vocab = tiny_vocab(n_learnable)
        return model.init_params(cfg, vocab, seed=seed), vocab

    def test_one_uniform_draw_per_sampled_token(self):
        params, vocab = self._model(4)
        for seed in range(40):
            state = np.random.default_rng(seed).uniform(-1, 1, 12)
            rng = np.random.default_rng([seed, 1])
            out = model.decode_question(params, vocab, state, mode="sample", max_len=6, rng=rng)
            steps = len(out) + 1 if len(out) < 6 else 6  # the <eoq> draw is a step too
            fresh = np.random.default_rng([seed, 1])
            for _ in range(steps):
                fresh.random()
            assert rng.bit_generator.state == fresh.bit_generator.state

    def test_minus_inf_token_never_drawn_and_index_in_range(self):
        # V - 1 = 16, so each draw u lands at the cumulative mass u * 16
        params, vocab = self._model(0, n_learnable=12)
        v = vocab.n_words
        assert v == 17
        params.w_out[...] = 0.0  # uniform over every token but <eoq> at step 0
        state = np.zeros(12)
        edges = [0.0, 1.0 / 16, 2.0 / 16, np.nextafter(1.0, 0.0)]
        for u in edges:
            out = model.decode_question(params, vocab, state, mode="sample", max_len=1,
                                        rng=_ScriptedRng([u]))
            assert out and out[0] != lang.EOQ
        # u = 1/16 sits exactly on the end of token 0's mass: the zero-mass
        # <eoq> (id 1) is skipped and id 2 is drawn
        out = model.decode_question(params, vocab, state, mode="sample", max_len=1,
                                    rng=_ScriptedRng([1.0 / 16]))
        assert vocab.token_id(out[0]) == 2
        out = model.decode_question(params, vocab, state, mode="sample", max_len=1,
                                    rng=_ScriptedRng([np.nextafter(1.0, 0.0)]))
        assert vocab.token_id(out[0]) == v - 1
        # <eoq> dominating every other token is still never drawn at step 0
        params.w_out[vocab.eoq_id] = 50.0 * np.sign(_reference_cell(params, vocab.soq_id, state))
        rng = np.random.default_rng(0)
        for _ in range(500):
            out = model.decode_question(params, vocab, state, mode="sample", max_len=1, rng=rng)
            assert len(out) == 1 and out[0] != lang.EOQ

    def test_non_finite_logits_rejected_when_sampling(self):
        params, vocab = self._model(0)
        params.w_out[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.decode_question(params, vocab, np.zeros(12), mode="sample", max_len=3,
                                  rng=np.random.default_rng(0))

    def test_sampled_frequencies_match_softmax(self):
        params, vocab = self._model(7)
        params.w_out[...] *= 6.0  # a peaked distribution with some rare tokens
        state = np.linspace(-0.6, 0.6, 12)
        logits = params.w_out @ _reference_cell(params, vocab.soq_id, state)
        logits[vocab.eoq_id] = -np.inf
        p = softmax(logits)
        n = 20000
        rng = np.random.default_rng(11)
        counts = np.zeros(vocab.n_words)
        for _ in range(n):
            out = model.decode_question(params, vocab, state, mode="sample", max_len=1, rng=rng)
            counts[vocab.token_id(out[0])] += 1
        sigma = np.sqrt(n * p * (1 - p))
        assert counts[vocab.eoq_id] == 0
        assert np.all(np.abs(counts - n * p) <= 4 * sigma + 1e-9)

    def test_matches_reference_formulas(self, world):
        _, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=6, batch_size=4)
        trained = model.train(model.init_params(cfg, vocab, seed=2), vocab, dataset, cfg,
                              seed=0).params
        for params in (model.init_params(cfg, vocab, seed=5), trained):
            for seed in range(30):
                state = np.random.default_rng(seed).uniform(-1, 1, 12)
                greedy = model.decode_question(params, vocab, state, mode="greedy", max_len=10)
                assert greedy == _reference_decode(params, vocab, state, "greedy", 10)
                sampled = model.decode_question(params, vocab, state, mode="sample", max_len=10,
                                                rng=np.random.default_rng(seed))
                assert sampled == _reference_decode(params, vocab, state, "sample", 10,
                                                    np.random.default_rng(seed))
                for turn in corpus[seed % len(corpus)].turns:
                    got = model.encode_turn(params, vocab, state, turn.question, turn.answer)
                    h = state
                    for tok in turn.question:
                        h = _reference_cell(params, vocab.token_id(tok), h)
                    h = _reference_cell(params, vocab.answer_id(turn.answer), h)
                    assert np.max(np.abs(got - h)) <= 1e-12
                    state = got


class TestGuesser:
    def _scene(self):
        objs = (
            SceneObject(id=0, category="cat", color="red", size="small", cell_x=0, cell_y=0),
            SceneObject(id=1, category="dog", color="blue", size="large", cell_x=4, cell_y=4),
            SceneObject(id=2, category="cup", color="green", size="medium", cell_x=2, cell_y=2),
        )
        return make_scene(0, objs, 1)

    def test_orthonormal_embeddings_pick_matching_object(self):
        sc = self._scene()
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=0)
        feats = model.object_feature_matrix(sc)
        # craft a featurizer mapping object i to coordinate axis i
        params.w_obj[...] = 0.0
        q, _ = np.linalg.qr(feats.T)  # (25, 3) orthonormal columns
        params.w_obj[:3, :] = q.T
        g = feats @ params.w_obj.T
        state = g[2] / np.linalg.norm(g[2]) ** 2
        scores = model.guesser_scores(params, state, sc)
        assert int(np.argmax(scores)) == 2

    def test_scores_match_hand_computation(self):
        sc = self._scene()
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=2)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=0)
        params.w_obj[...] = 0.0
        params.w_obj[0, 0] = 1.0    # picks category-is-cat indicator
        params.w_obj[1, 23] = 2.0   # picks normalized x
        state = np.array([1.0, 2.0])
        scores = model.guesser_scores(params, state, sc)
        expected = []
        for f in model.object_feature_matrix(sc):
            g = (f[0] * 1.0, f[23] * 2.0)
            expected.append(1.0 * g[0] + 2.0 * g[1])
        assert scores == pytest.approx(expected, abs=1e-12)

    def test_constant_shift_of_embeddings(self):
        sc = self._scene()
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        vocab = tiny_vocab()
        params = model.init_params(cfg, vocab, seed=2)
        state = np.random.default_rng(0).uniform(-1, 1, 6)
        scores = model.guesser_scores(params, state, sc)
        const = np.random.default_rng(1).uniform(-1, 1, 6)
        feats = model.object_feature_matrix(sc)
        shifted = feats @ params.w_obj.T + const
        shifted_scores = shifted @ state
        assert shifted_scores == pytest.approx(scores + state @ const, abs=1e-12)
        assert int(np.argmax(shifted_scores)) == int(np.argmax(scores))


class TestSoftmax:
    def test_normalized_within_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(scale=rng.uniform(0.1, 50.0), size=rng.integers(2, 80))
            p = softmax(x)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 4.0, 0.0])
        assert np.allclose(softmax(x), softmax(x + 123.4), atol=1e-15)


class TestLoss:
    def test_uniform_nll_with_zero_output_weights(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        params = model.init_params(cfg, vocab, seed=0)
        params.w_out[...] = 0.0
        loss, _, aux = model.loss_and_grads(params, vocab, dataset[:4], model.PHASE_QGEN)
        assert loss == pytest.approx(math.log(vocab.n_words), abs=1e-12)

    def test_batch_duplication_invariance(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        params = model.init_params(cfg, vocab, seed=1)
        batch = dataset[:3]
        l1, _, _ = model.loss_and_grads(params, vocab, batch, model.PHASE_JOINT)
        l2, _, _ = model.loss_and_grads(params, vocab, batch + batch, model.PHASE_JOINT)
        assert l2 == pytest.approx(l1, rel=1e-12)

    def test_batch_permutation_invariance(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        params = model.init_params(cfg, vocab, seed=1)
        batch = dataset[:5]
        l1, _, _ = model.loss_and_grads(params, vocab, batch, model.PHASE_JOINT)
        l2, _, _ = model.loss_and_grads(params, vocab, batch[::-1], model.PHASE_JOINT)
        assert l2 == pytest.approx(l1, rel=1e-12)

    def test_matches_stepwise_reference(self, world):
        # batch-of-one loss equals a plain per-token forward pass
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        params = model.init_params(cfg, vocab, seed=3)
        d, sc = dataset[0]
        loss, _, aux = model.loss_and_grads(params, vocab, [(d, sc)], model.PHASE_QGEN)
        h = model.initial_state(params, sc)
        nll = []
        for turn in d.turns:
            ids = [vocab.token_id(t) for t in turn.question]
            targets = ids + [vocab.eoq_id]
            inputs = [vocab.soq_id] + ids
            hd = h
            for x, y in zip(inputs, targets):
                hd = np.tanh(params.w_in @ params.embeddings[x] + params.w_h @ hd + params.b_h)
                logits = params.w_out @ hd
                logp = logits - (np.max(logits) + np.log(np.exp(logits - np.max(logits)).sum()))
                nll.append(-logp[y])
            h = model.encode_turn(params, vocab, h, turn.question, turn.answer)
        assert loss == pytest.approx(sum(nll) / len(nll), rel=1e-12)
        assert aux["n_tokens"] == len(nll)

    def test_guesser_ce_is_the_mean_over_dialogues(self, world):
        # every dialogue of a mixed-source batch counts once, whatever its source
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        params = model.init_params(cfg, vocab, seed=1)
        mixed = [(replace(d, source="generated") if i % 2 else d, sc)
                 for i, (d, sc) in enumerate(dataset[:5])]
        assert {d.source for d, _ in mixed} == {"human", "generated"}
        batch = model.loss_and_grads(params, vocab, mixed, model.PHASE_JOINT)[2]["guesser_ce"]
        single = [model.loss_and_grads(params, vocab, [pair], model.PHASE_JOINT)[2]["guesser_ce"]
                  for pair in mixed]
        assert all(ce > 0 for ce in single)
        assert batch == pytest.approx(sum(single) / len(single), rel=1e-12)

    def test_empty_batch_rejected(self, world):
        _, _, vocab, _ = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12)
        params = model.init_params(cfg, vocab, seed=0)
        with pytest.raises(ValueError):
            model.loss_and_grads(params, vocab, [], model.PHASE_QGEN)


class TestGradients:
    def test_gradient_check_small(self):
        err = gradient_check(seed=1)
        assert err < 1e-4

    def test_gradient_check_deterministic(self):
        assert gradient_check(seed=2) == gradient_check(seed=2)

    def test_gradient_check_question_only_phase(self):
        # two of every three epochs at modulo_n = 3 train without the guesser
        for seed in range(4):
            assert gradient_check(seed=seed, phase=model.PHASE_QGEN) < 1e-4

    def test_padding_leaks_nothing(self):
        # 1- and 5-turn dialogues with 1- and 10-token questions in one batch:
        # the question-loss gradient is the token-weighted mean of the
        # batch-of-one gradients, the guesser's is their plain mean
        vocab = tiny_vocab()
        cfg = model.ModelConfig(embed_dim=6, hidden_dim=8)
        params = model.init_params(cfg, vocab, seed=4)
        scenes = scene.generate_scene_set(4, seed=3)
        rng = np.random.default_rng(0)
        shapes = [(1, 10), (5, 1), (1, 1), (5, 10)]  # (turns, first question length)
        batch = []
        for i, ((n_turns, q_len), sc) in enumerate(zip(shapes, scenes)):
            turns = tuple(
                Turn(question=tuple(f"w{int(rng.integers(15)):02d}"
                                    for _ in range(q_len if t % 2 == 0 else 11 - q_len)),
                     answer=("yes", "no", "n/a")[int(rng.integers(3))])
                for t in range(n_turns)
            )
            batch.append((Dialogue(game_id=i, scene_id=sc.scene_id, source="human",
                                   turns=turns, guess=0, success=True), sc))

        def grads_of(pairs, phase):
            _, g, aux = model.loss_and_grads(params, vocab, pairs, phase)
            return {name: getattr(g, name) for name in model.PARAM_FIELDS}, aux["n_tokens"]

        singles = [(grads_of([p], model.PHASE_QGEN), grads_of([p], model.PHASE_JOINT)[0])
                   for p in batch]
        n_total = sum(n for (_, n), _ in singles)
        for phase in (model.PHASE_QGEN, model.PHASE_JOINT):
            got, _ = grads_of(batch, phase)
            for name in model.PARAM_FIELDS:
                want = sum(n * q[name] for (q, n), _ in singles) / n_total
                if phase == model.PHASE_JOINT:
                    want = want + sum(j[name] - q[name] for (q, _), j in singles) / len(batch)
                err = np.abs(got[name] - want).max()
                assert err <= 1e-10 * np.abs(want).max(), (phase, name, err)


def _varied_pairs(n, seed):
    """n (Dialogue, Scene) pairs of 1 to 5 turns with 1- to 6-token questions,
    human and generated in turn, some tokens outside the vocabulary."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i, sc in enumerate(scene.generate_scene_set(n, seed=seed)):
        turns = tuple(
            Turn(question=tuple(f"w{int(rng.integers(17)):02d}"
                                for _ in range(1 + int(rng.integers(6)))),
                 answer=("yes", "no")[int(rng.integers(2))])
            for _ in range(1 + i % 5)
        )
        source = "human" if i % 2 == 0 else "generated"
        pairs.append((Dialogue(game_id=i, scene_id=sc.scene_id, source=source,
                               turns=turns, guess=0, success=True), sc))
    return pairs


class TestEncodedExamples:
    def test_layout(self):
        vocab = tiny_vocab()
        for d, sc in _varied_pairs(10, seed=1):
            ex = model.encode_example(vocab, d, sc)
            assert ex.source == d.source and ex.target == sc.target_index
            assert np.array_equal(model._features(ex.objects),
                                  model.object_feature_matrix(sc))
            # the example holds the scene's own codes, not a copy of them
            assert np.shares_memory(ex.objects, np.frombuffer(sc.codes, dtype=np.int8))
            assert ex.stream.tolist() == [
                i for turn in d.turns for i in
                [vocab.token_id(tok) for tok in turn.question] + [vocab.answer_id(turn.answer)]]
            assert ex.q_len.tolist() == [len(q) for q in d.questions()]

    def test_a_token_id_outside_the_vocabulary_is_refused(self):
        # the step gathers the input projections unchecked, so it checks the ids first
        vocab = tiny_vocab()
        params = model.init_params(model.ModelConfig(embed_dim=6, hidden_dim=8), vocab, seed=2)
        (d, sc), = _varied_pairs(1, seed=1)
        for bad in (vocab.n_words, -1):
            ex = model.encode_example(vocab, d, sc)
            ex.stream[0] = bad
            with pytest.raises(IndexError, match="outside the"):
                model.loss_and_grads(params, vocab, [ex], model.PHASE_QGEN)

    def test_loss_and_grads_equal_raw_pairs_bit_for_bit(self):
        vocab = tiny_vocab()
        cfg = model.ModelConfig(embed_dim=6, hidden_dim=8)
        params = model.init_params(cfg, vocab, seed=2)
        pairs = _varied_pairs(11, seed=3)
        encoded = [model.encode_example(vocab, d, sc) for d, sc in pairs]
        mixed = [p if i % 2 else e for i, (p, e) in enumerate(zip(pairs, encoded))]
        for phase in (model.PHASE_QGEN, model.PHASE_JOINT):
            want = model.loss_and_grads(params, vocab, pairs, phase)
            for batch in (encoded, mixed):
                got = model.loss_and_grads(params, vocab, batch, phase)
                assert got[0] == want[0] and got[2] == want[2]
                for name in model.PARAM_FIELDS:
                    assert np.array_equal(getattr(got[1], name), getattr(want[1], name))
        assert (model.validation_nll(params, vocab, encoded, batch_size=4)
                == model.validation_nll(params, vocab, pairs, batch_size=4))

    def test_validation_nll_is_the_qgen_loss_of_one_batch(self):
        # both readers of `_forward` agree on a set that fits in one batch
        vocab = tiny_vocab()
        params = model.init_params(model.ModelConfig(embed_dim=6, hidden_dim=8), vocab, seed=4)
        pairs = _varied_pairs(11, seed=5)
        for batch in (pairs, [model.encode_example(vocab, d, sc) for d, sc in pairs]):
            _, _, aux = model.loss_and_grads(params, vocab, batch, model.PHASE_QGEN)
            assert model.validation_nll(params, vocab, batch) == pytest.approx(
                aux["qgen_nll"], rel=0, abs=1e-12)

    def test_a_step_frees_each_buffer_after_its_last_reader(self, small_scenes,
                                                           small_teacher_corpus):
        # the pre-activations and the encoder and decoder states live through
        # the whole step, so they bound its traced peak from below; freeing
        # every other large array after its last reader keeps the peak at
        # about 1.5 (qgen) and 1.8 (joint) times them, where keeping all of
        # them until the step returns reaches 2.2 and 2.5
        by_id = {s.scene_id: s for s in small_scenes}
        vocab = lang.build_vocabulary(small_teacher_corpus)
        batch = [model.encode_example(vocab, d, by_id[d.scene_id])
                 for d in small_teacher_corpus[:32]]
        cfg = model.ModelConfig()
        params = model.init_params(cfg, vocab, seed=0)
        b, z = len(batch), max(len(ex.stream) for ex in batch)
        r, l = sum(len(ex.q_len) for ex in batch), max(int(ex.q_len.max()) for ex in batch) + 1
        state_bytes = 8 * cfg.hidden_dim * ((z * b + l * r) + (z + 1) * b + (l + 1) * r)
        for phase in (model.PHASE_QGEN, model.PHASE_JOINT):
            model.loss_and_grads(params, vocab, batch, phase)
            tracemalloc.start()
            try:
                model.loss_and_grads(params, vocab, batch, phase)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 1.0 < peak / state_bytes < 2.0, (phase, peak / state_bytes)


class TestQuestionerTables:
    def _questioner(self, world):
        _, _, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=3, batch_size=4)
        trained = model.train(model.init_params(cfg, vocab, seed=1), vocab, dataset, cfg,
                              seed=0).params
        return model.Questioner(trained, vocab, cfg), dataset

    def test_cached_tables_equal_per_call_path(self, world):
        q, dataset = self._questioner(world)
        writeable = q.params.copy()
        assert q.params._tables is not None and writeable._tables is None
        for seed in range(40):
            state = np.random.default_rng(seed).uniform(-1, 1, 12)
            for mode in ("greedy", "sample"):
                a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                a = model.decode_question(q.params, q.vocab, state, mode, 10, a_rng)
                b = model.decode_question(writeable, q.vocab, state, mode, 10, b_rng)
                assert a == b and a_rng.bit_generator.state == b_rng.bit_generator.state
            for turn in dataset[seed % len(dataset)][0].turns:
                a = model.encode_turn(q.params, q.vocab, state, turn.question, turn.answer)
                b = model.encode_turn(writeable, q.vocab, state, turn.question, turn.answer)
                assert np.array_equal(a, b)
                state = a

    def test_params_are_read_only_and_train_copies_them(self, world):
        q, dataset = self._questioner(world)
        for name in model.PARAM_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(q.params, name)[...] = 0.0
        before = q.params.copy()
        result = model.train(q.params, q.vocab, dataset, q.config, seed=1)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(getattr(q.params, name), getattr(before, name))
        assert not np.array_equal(result.params.w_out, before.w_out)
        result.params.w_out[0, 0] = 0.0  # what train returns stays writeable

    def test_replacing_an_array_raises(self, world):
        # training updates the arrays in place and a Questioner makes its
        # tables once, so no array is ever replaced
        q, _ = self._questioner(world)
        tables = q.params._tables
        for params in (q.params, q.params.copy()):
            with pytest.raises(FrozenInstanceError):
                params.w_out = params.w_out * 3.0
        assert q.params._tables is tables


class TestTrain:
    def test_zero_learning_rate_keeps_params(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, learning_rate=0.0,
                                epochs=3, batch_size=4)
        params = model.init_params(cfg, vocab, seed=0)
        result = model.train(params, vocab, dataset, cfg, seed=0)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(getattr(result.params, name), getattr(params, name))

    def test_schedule_phases(self):
        assert model.training_phase(1, 3) == model.PHASE_QGEN
        assert model.training_phase(3, 3) == model.PHASE_JOINT
        assert model.training_phase(6, 3) == model.PHASE_JOINT
        assert all(model.training_phase(e, 1) == model.PHASE_JOINT for e in range(1, 9))
        # modulo larger than the epoch count: guesser never joins
        assert all(model.training_phase(e, 100) == model.PHASE_QGEN for e in range(1, 20))

    def test_schedule_recorded_in_log(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=6, batch_size=4, modulo_n=3)
        params = model.init_params(cfg, vocab, seed=0)
        result = model.train(params, vocab, dataset, cfg, seed=0)
        phases = [e.phase for e in result.log]
        assert phases == [model.PHASE_QGEN, model.PHASE_QGEN, model.PHASE_JOINT] * 2

    def test_bit_determinism(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=4, batch_size=4)
        params = model.init_params(cfg, vocab, seed=0)
        r1 = model.train(params, vocab, dataset, cfg, seed=9)
        r2 = model.train(params, vocab, dataset, cfg, seed=9)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(getattr(r1.params, name), getattr(r2.params, name))
        assert [e.qgen_nll for e in r1.log] == [e.qgen_nll for e in r2.log]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_aborts_with_log(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=2, batch_size=4)
        params = model.init_params(cfg, vocab, seed=0)
        params.w_out[0, 0] = np.inf
        with pytest.raises(model.TrainingDivergedError):
            model.train(params, vocab, dataset, cfg, seed=0)

    def test_best_val_tracking(self, world):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=3, batch_size=4)
        params = model.init_params(cfg, vocab, seed=0)
        result = model.train(params, vocab, dataset, cfg, seed=0, val_dataset=dataset[:3])
        assert result.best_val_params is not None
        assert all(e.val_nll is not None for e in result.log)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, world, tmp_path):
        scenes, corpus, vocab, dataset = world
        cfg = model.ModelConfig(embed_dim=8, hidden_dim=12, epochs=1, batch_size=4)
        params = model.init_params(cfg, vocab, seed=0)
        result = model.train(params, vocab, dataset, cfg, seed=0)
        q = model.Questioner(result.params, vocab, cfg)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, q)
        loaded = model.load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.vocab == vocab
        for name in model.PARAM_FIELDS:
            assert np.array_equal(getattr(loaded.params, name), getattr(q.params, name))

    def test_rejects_unknown_format(self, world, tmp_path):
        _, _, vocab, _ = world
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        q = model.Questioner(model.init_params(cfg, vocab, seed=0), vocab, cfg)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, q)
        import json

        data = np.load(path, allow_pickle=False)
        meta = json.loads(data["meta"].item())
        meta["format"] = 999
        arrays = {k: data[k] for k in data.files if k != "meta"}
        with open(path, "wb") as f:
            np.savez(f, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ValueError):
            model.load_checkpoint(path)


    @pytest.mark.parametrize("damage", [
        # a repeated word: n_words counts it twice, and the arrays are sized to match
        lambda meta, arrays: (meta["vocab"]["words"].append(meta["vocab"]["words"][-1]),
                              arrays.update({k: np.vstack([arrays[k], arrays[k][-1:]])
                                             for k in ("embeddings", "w_out")})),
        lambda meta, arrays: meta["vocab"]["counts"].update(
            {next(iter(meta["vocab"]["counts"])): 2.9}),
        lambda meta, arrays: meta["vocab"].update(min_count=1.5),
        # settings that would load with their defaults
        lambda meta, arrays: [meta["config"].pop(k) for k in ("max_question_len", "decode_mode")],
        lambda meta, arrays: meta["vocab"]["counts"].update(zebra=1),
        lambda meta, arrays: meta["vocab"].update(words=[
            {"?": "<soq>", "<soq>": "?"}.get(w, w) for w in meta["vocab"]["words"]]),
        # two learnable words of different counts in the wrong order
        lambda meta, arrays: meta["vocab"].update(words=(
            meta["vocab"]["words"][:5] + meta["vocab"]["words"][-1:]
            + meta["vocab"]["words"][6:-1] + meta["vocab"]["words"][5:6])),
        # what save_checkpoint never writes, though each used to load
        lambda meta, arrays: arrays.update(extra=np.zeros(3)),
        lambda meta, arrays: meta.update(note="mine"),
        lambda meta, arrays: meta["vocab"].update(note="mine"),
        lambda meta, arrays: meta.update(format=float(meta["format"])),
        # settings of the wrong type that pass validate, embed_dim even the shapes
        lambda meta, arrays: meta["config"].update(embed_dim=4.0),
        lambda meta, arrays: meta["config"].update(epochs=2.5),
        lambda meta, arrays: meta["config"].update(modulo_n=1.5),
        lambda meta, arrays: meta["config"].update(learning_rate=True),
    ], ids=("repeated_word", "fractional_count", "fractional_min_count", "missing_settings",
            "count_of_no_word", "special_out_of_place", "words_out_of_order", "extra_array",
            "extra_meta_key", "extra_vocab_key", "fractional_format", "float_embed_dim",
            "fractional_epochs", "fractional_modulo_n", "bool_learning_rate"))
    def test_rejects_a_vocabulary_save_checkpoint_never_writes(self, world, tmp_path, damage):
        import json

        _, _, vocab, _ = world
        cfg = model.ModelConfig(embed_dim=4, hidden_dim=6)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, model.Questioner(model.init_params(cfg, vocab, seed=0),
                                                     vocab, cfg))
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(z["meta"].item())
            arrays = {k: z[k] for k in z.files if k != "meta"}
        damage(meta, arrays)
        with open(path, "wb") as f:
            np.savez(f, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ValueError, match="malformed checkpoint"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["scenes", "npy"])
    def test_refuses_a_file_that_is_no_checkpoint_archive(self, tmp_path, kind):
        # np.load reads a .npy array, and takes other bytes for a pickle
        path = tmp_path / "s.jsonl"
        if kind == "scenes":
            scene.write_scenes(path, scene.generate_scene_set(3, seed=1))
        else:
            with open(path, "wb") as f:
                np.save(f, np.zeros(3))
        with pytest.raises(ValueError) as err:
            model.load_checkpoint(path)
        assert str(err.value) == f"{path}: malformed checkpoint: not a checkpoint (.npz) archive"


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            model.ModelConfig(embed_dim=0)
        with pytest.raises(ValueError):
            model.ModelConfig(learning_rate=-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                model.ModelConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="grad_clip must be finite"):
                model.ModelConfig(grad_clip=bad)
        with pytest.raises(ValueError):
            model.ModelConfig(modulo_n=0)
        with pytest.raises(ValueError):
            model.ModelConfig(decode_mode="beam")
        with pytest.raises(ValueError):
            model.ModelConfig(max_question_len=2)

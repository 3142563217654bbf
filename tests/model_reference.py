"""Reference code the model tests check `guessmix.model` against.

`softmax` is the plain distribution that sampled decoding must draw from,
and `gradient_check` compares the hand-derived backward pass with central
finite differences entry by entry. No run calls either, so they live here.
"""

import numpy as np

from conftest import make_dialogue
from guessmix.dialogue import NO, YES
from guessmix.lang import Vocabulary
from guessmix.model import PARAM_FIELDS, PHASE_JOINT, ModelConfig, init_params, loss_and_grads
from guessmix.scene import generate_scene_set


def tiny_vocab(n_learnable=15):
    words = [f"w{i:02d}" for i in range(n_learnable)]
    return Vocabulary(counts={w: 3 for w in words}, min_count=1)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def gradient_check(cfg: ModelConfig | None = None, seed: int = 0, delta: float = 1e-5,
                   phase: str = PHASE_JOINT) -> float:
    """Compare analytic gradients with central finite differences.

    Builds a tiny model and a small random batch of 1-, 2- and 3-turn
    dialogues with 1- to 4-token questions, perturbs every parameter entry
    by +-delta, computes the loss in `phase` and returns the maximum
    relative error |analytic - numeric| / max(|analytic| + |numeric|, 1e-8).
    """
    cfg = cfg or ModelConfig(embed_dim=4, hidden_dim=6, batch_size=4)
    rng = np.random.default_rng(seed)
    vocab = tiny_vocab()
    words = vocab.learnable_words
    scenes = generate_scene_set(3, seed)
    batch = []
    n_turns = 0
    for i, sc in enumerate(scenes):
        # 1, 2 and 3 turns with question lengths cycling 1..4, so that stream
        # padding, decoder padding and turn-start offsets all differ per row
        questions, answers = [], []
        for _ in range(i + 1):
            qlen = 1 + n_turns % 4
            n_turns += 1
            questions.append(" ".join(words[int(rng.integers(len(words)))] for _ in range(qlen)))
            answers.append(YES if rng.random() < 0.5 else NO)
        batch.append((make_dialogue(questions, game_id=i, scene_id=sc.scene_id,
                                    answers=answers), sc))
    params = init_params(cfg, vocab, seed)
    _, grads, _ = loss_and_grads(params, vocab, batch, phase)
    max_rel = 0.0
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        ga = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + delta
            lp, _, _ = loss_and_grads(params, vocab, batch, phase)
            arr[idx] = orig - delta
            lm, _, _ = loss_and_grads(params, vocab, batch, phase)
            arr[idx] = orig
            numeric = (lp - lm) / (2.0 * delta)
            analytic = float(ga[idx])
            rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel

"""The trainable Questioner: shared recurrent dialogue state, a question
decoder and a dot-product guesser, trained by plain SGD with exact
hand-derived gradients.

Architecture. Objects are featurized symbolically (one-hot category, color,
size plus normalized grid coordinates; 25 dims). The dialogue state is an
H-dimensional vector initialized from a projection of the mean object
feature and updated by an Elman cell

    h' = tanh(W_in e(x) + W_h h + b)

fed with the tokens of each question followed by the answer token. The
decoder runs the same cell from the current state over [<soq>, w1, ..]
and projects each step to vocabulary logits; the guesser scores object i
as the dot product of the state with a linear embedding of its features.

Training minimizes mean per-token negative log-likelihood of the questions
under teacher forcing, plus (in joint phase) the guesser cross-entropy on
the target index. `train` turns each (Dialogue, Scene) pair into an
`Example` of token ids and object codes once, and a batch concatenates
those. A batch runs as two recurrences. The encoder reads each
dialogue as one token stream (every turn's question tokens, then its
answer), suffix-padded to the longest stream; the guesser reads the state
at the end of each stream. Then every turn of every dialogue is one decoder
row, started from the encoder state at that turn's offset in the stream and
padded to the longest question. Each step is a row gather from the input
projection, computed once per batch for the whole vocabulary, plus one
(rows, H) @ (H, H) matmul. The backward pass mirrors the forward exactly:
its loops hold one matmul per step, and the weight gradients are formed
after them from the stacked step gradients. tests/model_reference.py
checks it against central finite differences entry by entry.

Play comes in two forms. `encode_turn` and `decode_question` advance one
game: they gather rows of the input projection W_in e(x) + b of the whole
vocabulary, so a step is a row gather, one matvec and one tanh. The decoder
stacks W_out over W_h, so that one matvec gives both a step's logits and
the next step's recurrent term. `encode_turns` and `decode_questions`
advance many games in lockstep: the same step over the games still asking
or encoding is one matrix product, and each game draws from its own
generator in the single-game order. Self-play runs the single-game form,
evaluation the lockstep one. A `Questioner` makes its parameter arrays
read-only and computes the two tables once, on its `ModelParams`.
Parameters outside a Questioner, which training and tests update in place,
get them computed afresh on every call.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import corpus
from .dialogue import Dialogue
from .lang import Vocabulary
from .scene import CATEGORIES, COLORS, GRID_SIZE, SIZES, Scene, SceneObject
from .seeding import derive_seed

FEATURE_DIM = len(CATEGORIES) + len(COLORS) + len(SIZES) + 2  # 25

PHASE_QGEN = "qgen_only"
PHASE_JOINT = "joint"

DECODE_GREEDY = "greedy"
DECODE_SAMPLE = "sample"

PARAM_FIELDS = ("embeddings", "w_scene", "w_in", "w_h", "b_h", "w_out", "w_obj")

_CAT_INDEX = {c: i for i, c in enumerate(CATEGORIES)}
_COLOR_INDEX = {c: i for i, c in enumerate(COLORS)}
_SIZE_INDEX = {s: i for i, s in enumerate(SIZES)}
_COLOR_OFFSET = len(CATEGORIES)
_SIZE_OFFSET = len(CATEGORIES) + len(COLORS)
_COORD_SCALE = float(GRID_SIZE - 1)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the log collected so far."""

    def __init__(self, message: str, log: "TrainLog" | None = None):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class ModelConfig:
    """The `model.*` settings, with their help in each field's metadata."""

    embed_dim: int = field(default=32, metadata={"help": "token embedding size"})
    hidden_dim: int = field(default=64, metadata={"help": "dialogue state size"})
    learning_rate: float = field(default=0.3, metadata={"help": "SGD step size"})
    grad_clip: float = field(default=5.0, metadata={"help": "global gradient norm bound"})
    modulo_n: int = field(default=3, metadata={"help": "guesser joins the loss every n-th epoch"})
    epochs: int = field(default=30, metadata={"help": "training epochs"})
    batch_size: int = field(default=32, metadata={"help": "dialogues per batch"})
    decode_mode: str = field(default=DECODE_SAMPLE,
                             metadata={"help": "question decoding: sample or greedy"})
    max_question_len: int = field(default=10, metadata={"help": "generation length cap"})

    def validate(self) -> None:
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embed_dim and hidden_dim must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ValueError(f"grad_clip must be finite and > 0, got {self.grad_clip}")
        if self.modulo_n < 1:
            raise ValueError("modulo_n must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.decode_mode not in (DECODE_GREEDY, DECODE_SAMPLE):
            raise ValueError(f"unknown decode mode {self.decode_mode!r}")
        if self.max_question_len < 3:
            raise ValueError("max_question_len must be >= 3")


@dataclass(frozen=True)
class ModelParams:
    embeddings: np.ndarray  # (V, E)
    w_scene: np.ndarray     # (H, FEATURE_DIM)
    w_in: np.ndarray        # (H, E)
    w_h: np.ndarray         # (H, H)
    b_h: np.ndarray         # (H,)
    w_out: np.ndarray       # (V, H)
    w_obj: np.ndarray       # (H, FEATURE_DIM)
    # a Questioner's (proj, out_rec) decode tables, set once its arrays are
    # read-only; None while the arrays may still change in place
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: getattr(self, name).copy() for name in PARAM_FIELDS})

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


def param_shapes(cfg: ModelConfig, n_words: int) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter array of a model over `n_words` words."""
    v, e, h = n_words, cfg.embed_dim, cfg.hidden_dim
    return {
        "embeddings": (v, e),
        "w_scene": (h, FEATURE_DIM),
        "w_in": (h, e),
        "w_h": (h, h),
        "b_h": (h,),
        "w_out": (v, h),
        "w_obj": (h, FEATURE_DIM),
    }


def init_params(cfg: ModelConfig, vocab: Vocabulary, seed: int) -> ModelParams:
    """All entries uniform in [-s, s] with s = 1/sqrt(hidden_dim)."""
    cfg.validate()
    if vocab.n_words == 0:
        raise ValueError("cannot initialize a model over an empty vocabulary")
    s = 1.0 / math.sqrt(cfg.hidden_dim)
    rng = np.random.default_rng(seed)
    return ModelParams(**{name: rng.uniform(-s, s, shape)
                          for name, shape in param_shapes(cfg, vocab.n_words).items()})


def _object_codes(objects: tuple[SceneObject, ...] | list[SceneObject]) -> np.ndarray:
    """(n, 5) ints: the category, color and size columns of each object's
    one-hots, then its cell x, y."""
    return np.array([(_CAT_INDEX[o.category], _COLOR_OFFSET + _COLOR_INDEX[o.color],
                      _SIZE_OFFSET + _SIZE_INDEX[o.size], o.cell_x, o.cell_y)
                     for o in objects], dtype=np.int8).reshape(-1, 5)


def _features(codes: np.ndarray) -> np.ndarray:
    """The feature rows of objects given by their `_object_codes`."""
    n = len(codes)
    f = np.zeros((n, FEATURE_DIM))
    f[np.arange(n)[:, None], codes[:, :3]] = 1.0
    f[:, FEATURE_DIM - 2:] = codes[:, 3:] / _COORD_SCALE
    return f


def object_feature_matrix(objects: tuple[SceneObject, ...] | list[SceneObject]) -> np.ndarray:
    """One FEATURE_DIM row per object: category, color and size one-hots, then x, y."""
    return _features(_object_codes(objects))


def scene_features(scene: Scene) -> np.ndarray:
    return object_feature_matrix(scene.objects).mean(axis=0)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))


def initial_state(params: ModelParams, scene: Scene) -> np.ndarray:
    return np.tanh(params.w_scene @ scene_features(scene))


def _input_projection(params: ModelParams) -> np.ndarray:
    """W_in e(x) + b for every vocabulary word x: (V, H)."""
    return params.embeddings @ params.w_in.T + params.b_h


def _decode_tables(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(proj, out_rec): the input projection of the whole vocabulary and the
    output weights stacked over the recurrent ones, (V + H, H). A
    Questioner's are made once; other parameters may change between calls,
    so theirs are computed for each call."""
    if params._tables is not None:
        return params._tables
    return _input_projection(params), np.concatenate((params.w_out, params.w_h))


def encode_turn(
    params: ModelParams,
    vocab: Vocabulary,
    state: np.ndarray,
    question_tokens: list[str] | tuple[str, ...],
    answer: str,
) -> np.ndarray:
    """Advance the dialogue state over the question tokens then the answer token:
    a row gather from the vocabulary's input projection, then one matvec and
    one tanh per token."""
    ids = [vocab.token_id(tok) for tok in question_tokens]
    ids.append(vocab.answer_id(answer))
    proj, _ = _decode_tables(params)
    w_h = params.w_h
    h = np.array(state, dtype=float)
    a = np.empty_like(h)
    for x in proj[ids]:
        np.dot(w_h, h, a)
        np.add(x, a, a)
        np.tanh(a, h)
    return h


def decode_question(
    params: ModelParams,
    vocab: Vocabulary,
    state: np.ndarray,
    mode: str = DECODE_GREEDY,
    max_len: int = 10,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Generate one question autoregressively from the dialogue state.

    Greedy takes the argmax at every step, sample draws from the softmax.
    Decoding stops at the end-of-question token or after max_len emitted
    tokens; the end token is suppressed at the first step so the result is
    never empty.

    The input projection of the whole vocabulary and the output weights
    stacked over the recurrent ones come from `_decode_tables`, so each step
    is a row gather, one matvec giving both this step's logits and the next
    step's recurrent term, and one tanh, into buffers made once per call. A
    sampled token is the first index whose cumulative unnormalized
    probability exceeds one uniform draw times the total: one `rng.random()`
    per token, as `Generator.choice` consumes.
    """
    if mode == DECODE_SAMPLE and rng is None:
        raise ValueError("sample decoding requires an rng")
    greedy = mode == DECODE_GREEDY
    proj, out_rec = _decode_tables(params)
    n_words = proj.shape[0]
    last, eoq, words = n_words - 1, vocab.eoq_id, vocab.words
    # positional `out` arguments: numpy parses keywords slower than a step's arithmetic
    add, tanh, dot, subtract, exp = np.add, np.tanh, np.dot, np.subtract, np.exp
    vmax, cumsum = np.maximum.reduce, np.add.accumulate
    out = np.empty(out_rec.shape[0])
    logits, rec = out[:n_words], out[n_words:]
    dot(params.w_h, np.asarray(state, dtype=float), rec)
    x = np.empty_like(rec)
    cdf = np.empty_like(logits)
    question: list[str] = []
    prev = vocab.soq_id
    for step in range(max_len):
        add(proj[prev], rec, x)
        tanh(x, x)
        dot(out_rec, x, out)
        if step == 0:
            logits[eoq] = -np.inf
        if greedy:
            nxt = int(logits.argmax())
        else:
            subtract(logits, vmax(logits), cdf)
            exp(cdf, cdf)
            cumsum(cdf, 0, None, cdf)
            total = cdf[last]
            if not math.isfinite(total):
                raise ValueError("cannot sample from non-finite logits")
            nxt = min(int(cdf.searchsorted(rng.random() * total, side="right")), last)
        if nxt == eoq:
            break
        question.append(words[nxt])
        prev = nxt
    return question


def encode_turns(
    params: ModelParams,
    vocab: Vocabulary,
    states: np.ndarray,
    questions: list[list[str]],
    answers: list[str],
) -> np.ndarray:
    """`encode_turn` for every row of the (G, H) `states` at once: one
    (rows, H) @ (H, H) product per token position over the rows whose turn
    (question tokens, then answer) is still that long."""
    ids = [[vocab.token_id(tok) for tok in q] + [vocab.answer_id(a)]
           for q, a in zip(questions, answers)]
    proj, _ = _decode_tables(params)
    w_h_t = params.w_h.T
    h = np.array(states, dtype=float)
    lengths = np.array([len(row) for row in ids])
    for pos in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > pos)
        h[rows] = np.tanh(proj[[ids[g][pos] for g in rows]] + h[rows] @ w_h_t)
    return h


def decode_questions(
    params: ModelParams,
    vocab: Vocabulary,
    states: np.ndarray,
    mode: str = DECODE_GREEDY,
    max_len: int = 10,
    rngs: list[np.random.Generator] | None = None,
) -> list[list[str]]:
    """`decode_question` for every row of the (G, H) `states` at once, row g
    drawing from `rngs[g]` as `decode_question` draws from its rng.

    Each step is one (rows, H) @ (H, V + H) product over the rows still
    asking, giving their logits and next recurrent terms. A sampled token is
    the count of cumulative masses at or below the draw times the total,
    which is where `searchsorted(side="right")` lands in `decode_question`.
    """
    if mode == DECODE_SAMPLE and rngs is None:
        raise ValueError("sample decoding requires an rng per row")
    greedy = mode == DECODE_GREEDY
    proj, out_rec = _decode_tables(params)
    n_words = proj.shape[0]
    last, eoq, words = n_words - 1, vocab.eoq_id, vocab.words
    out_rec_t = out_rec.T
    rec = np.asarray(states, dtype=float) @ params.w_h.T
    asking = np.arange(len(rec))
    prev = np.full(len(rec), vocab.soq_id)
    questions: list[list[str]] = [[] for _ in asking]
    for step in range(max_len):
        out = np.tanh(proj[prev] + rec) @ out_rec_t
        logits, rec = out[:, :n_words], out[:, n_words:]
        if step == 0:
            logits[:, eoq] = -np.inf
        if greedy:
            nxt = logits.argmax(axis=1)
        else:
            cdf = np.exp(logits - logits.max(axis=1, keepdims=True))
            np.cumsum(cdf, axis=1, out=cdf)
            total = cdf[:, last]
            if not np.isfinite(total).all():
                raise ValueError("cannot sample from non-finite logits")
            u = np.array([rngs[g].random() for g in asking.tolist()]) * total
            nxt = np.minimum((cdf <= u[:, None]).sum(axis=1), last)
        go_on = nxt != eoq
        for g, tok in zip(asking[go_on].tolist(), nxt[go_on].tolist()):
            questions[g].append(words[tok])
        asking, prev, rec = asking[go_on], nxt[go_on], rec[go_on]
        if not len(asking):
            break
    return questions


def guesser_scores(params: ModelParams, state: np.ndarray, scene: Scene) -> np.ndarray:
    """Dot product of the dialogue state with each object's linear embedding."""
    feats = object_feature_matrix(scene.objects)
    return (feats @ params.w_obj.T) @ np.asarray(state, dtype=float)


def guess_object(params: ModelParams, state: np.ndarray, scene: Scene) -> int:
    # np.argmax resolves ties toward the lowest index
    return int(np.argmax(guesser_scores(params, state, scene)))


# ---------------------------------------------------------------------------
# batched loss and exact gradients


@dataclass
class _Forward:
    """What the backward pass reads from one forward pass.

    State arrays are time-major: `enc[m]` holds the (B, H) encoder states
    after m stream tokens, `enc[0]` the initial states; `dec[j]` holds the
    (R, H) decoder states of all R turns after j inputs.
    """

    feats: np.ndarray          # (B, FEATURE_DIM) mean object features
    stream: np.ndarray         # (Z, B) encoder token ids, suffix-padded
    stream_len: np.ndarray     # (B,) unpadded stream lengths
    enc: np.ndarray            # (Z + 1, B, H)
    pre: np.ndarray            # (Z * B + L * R, H) step pre-activations, encoder first
    owner: np.ndarray          # (R,) dialogue of each turn
    start: np.ndarray          # (R,) stream offset at which each turn begins
    dec_in: np.ndarray         # (L, R) decoder inputs [<soq> w1 .. wk], padded
    dec: np.ndarray            # (L + 1, R, H)
    valid: np.ndarray          # (L, R) True where a target token is predicted
    hs: np.ndarray             # (n_tokens, H) decoder states at those positions
    logp: np.ndarray           # (n_tokens, V) predicted log-probabilities
    targets: np.ndarray        # (n_tokens,) target ids [w1 .. wk <eoq>]
    guesser: tuple | None      # joint phase: (objf, g, gp, targets)


@dataclass(slots=True)
class Example:
    """One training dialogue as the integers `_forward` reads, made once per
    `train` by `encode_example`: small arrays only, since a dataset holds one
    per dialogue."""

    source: str
    target: int          # the scene's target index
    objects: np.ndarray  # (objects, 5) int8: the scene's `_object_codes`
    stream: np.ndarray   # int32: every turn's question ids, then its answer id
    q_len: np.ndarray    # int32: the question length of each turn


def encode_example(vocab: Vocabulary, dialogue: Dialogue, scene: Scene) -> Example:
    """The `Example` of one (Dialogue, Scene) pair; `_forward` encodes raw pairs with it too."""
    stream: list[int] = []
    for turn in dialogue.turns:
        stream += [vocab.token_id(t) for t in turn.question]
        stream.append(vocab.answer_id(turn.answer))
    q_len = [len(turn.question) for turn in dialogue.turns]
    return Example(dialogue.source, scene.target_index, _object_codes(scene.objects),
                   np.array(stream, dtype=np.int32), np.array(q_len, dtype=np.int32))


def _forward(
    params: ModelParams,
    vocab: Vocabulary,
    batch: list[Example] | list[tuple[Dialogue, Scene]],
    phase: str,
) -> tuple[float, dict, _Forward]:
    """The forward half of `loss_and_grads`: (loss, aux, cache)."""
    if phase not in (PHASE_QGEN, PHASE_JOINT):
        raise ValueError(f"unknown phase {phase!r}")
    if not batch:
        raise ValueError("empty batch")
    batch = [encode_example(vocab, *ex) if isinstance(ex, tuple) else ex for ex in batch]
    B = len(batch)
    H = params.w_h.shape[0]

    # one token stream per dialogue: every turn's question tokens, then its answer
    stream_len = np.array([len(ex.stream) for ex in batch], dtype=np.intp)
    stream_ids = np.concatenate([ex.stream for ex in batch])
    Z = int(stream_len.max())
    stream = np.full((B, Z), vocab.soq_id, dtype=np.intp)
    stream[np.arange(Z) < stream_len[:, None]] = stream_ids
    stream = stream.T

    # one decoder row per turn: inputs [soq w1..wk], targets [w1..wk eoq]
    q_len = np.concatenate([ex.q_len for ex in batch])
    owner = np.repeat(np.arange(B), [len(ex.q_len) for ex in batch])
    R = len(owner)
    turn_end = np.cumsum(q_len + 1)   # just past each turn's answer in stream_ids
    is_question = np.ones(len(stream_ids), dtype=bool)
    is_question[turn_end - 1] = False
    q_ids = stream_ids[is_question]
    # the offset at which each turn begins in its own dialogue's stream
    start = turn_end - (q_len + 1) - (np.cumsum(stream_len) - stream_len)[owner]
    L = int(q_len.max()) + 1 if R else 1
    in_question = np.arange(L) < q_len[:, None]
    dec_in = np.full((R, L), vocab.soq_id, dtype=np.intp)
    dec_in[:, 1:][in_question[:, :-1]] = q_ids
    dec_tg = np.full((R, L), vocab.eoq_id, dtype=np.intp)
    dec_tg[in_question] = q_ids
    valid = (np.arange(L) <= q_len[:, None]).T
    dec_in = dec_in.T

    n_obj = np.array([len(ex.objects) for ex in batch], dtype=np.intp)
    objects = _features(np.concatenate([ex.objects for ex in batch]))
    feats = np.add.reduceat(objects, np.cumsum(n_obj) - n_obj, axis=0) / n_obj[:, None]

    # the input projection of every vocabulary word, once per call, so that
    # a step's input term is a row gather
    proj = _input_projection(params)   # (V, H)
    w_h_t = params.w_h.T
    pre = np.empty((Z * B + L * R, H))
    pre_enc = pre[:Z * B].reshape(Z, B, H)
    pre_dec = pre[Z * B:].reshape(L, R, H)
    enc = np.empty((Z + 1, B, H))
    enc[0] = np.tanh(feats @ params.w_scene.T)
    np.take(proj, stream, axis=0, out=pre_enc)
    for m in range(Z):
        pre_enc[m] += enc[m] @ w_h_t
        np.tanh(pre_enc[m], out=enc[m + 1])

    dec = np.empty((L + 1, R, H))
    dec[0] = enc[start, owner]
    np.take(proj, dec_in, axis=0, out=pre_dec)
    for j in range(L):
        pre_dec[j] += dec[j] @ w_h_t
        np.tanh(pre_dec[j], out=dec[j + 1])

    targets = dec_tg.T[valid]
    n_tokens = len(targets)
    hs = dec[1:][valid]
    logp = _log_softmax(hs @ params.w_out.T)
    qgen_loss = math.fsum(-logp[np.arange(n_tokens), targets]) / n_tokens if n_tokens else 0.0

    guesser_loss = 0.0
    guesser = None
    if phase == PHASE_JOINT:
        h = enc[stream_len, np.arange(B)]
        omask = np.arange(n_obj.max()) < n_obj[:, None]
        objf = np.zeros(omask.shape + (FEATURE_DIM,))
        objf[omask] = objects
        g_targets = np.array([ex.target for ex in batch])
        g = objf @ params.w_obj.T                   # (B, N, H)
        scores = (g * h[:, None, :]).sum(axis=-1)   # (B, N)
        glogp = _log_softmax(np.where(omask, scores, -1e30))
        guesser_loss = math.fsum(-glogp[np.arange(B), g_targets]) / B
        guesser = (objf, g, np.exp(glogp), g_targets)

    loss = qgen_loss + guesser_loss
    aux = {"qgen_nll": qgen_loss, "guesser_ce": guesser_loss, "n_tokens": n_tokens}
    cache = _Forward(feats=feats, stream=stream, stream_len=stream_len, enc=enc, pre=pre,
                     owner=owner, start=start, dec_in=dec_in, dec=dec, valid=valid,
                     hs=hs, logp=logp, targets=targets, guesser=guesser)
    return loss, aux, cache


def loss_and_grads(
    params: ModelParams,
    vocab: Vocabulary,
    batch: list[Example] | list[tuple[Dialogue, Scene]],
    phase: str,
) -> tuple[float, ModelParams, dict]:
    """Teacher-forced question NLL (+ guesser cross-entropy in joint phase).

    Returns (loss, grads, aux). The question loss is the mean negative
    log-likelihood per predicted token over the whole batch; the guesser
    loss is the mean cross-entropy per dialogue. Per-token terms are summed
    with math.fsum, so the loss is exactly invariant under batch order
    permutations.

    Each dialogue is one encoder stream and every turn of every dialogue one
    decoder row, both suffix-padded. Padded stream positions come after the
    state the guesser reads and padded decoder positions predict nothing,
    so they contribute exactly zero to the loss and the gradients.
    """
    loss, aux, f = _forward(params, vocab, batch, phase)
    enc, dec = f.enc, f.dec
    Z, B, H = enc.shape[0] - 1, enc.shape[1], enc.shape[2]
    L, R = dec.shape[0] - 1, dec.shape[1]
    w_h = params.w_h

    # gradient reaching each encoder state from outside the recurrence
    d_enc = np.zeros_like(enc)
    w_obj = np.zeros_like(params.w_obj)
    if f.guesser is not None:
        objf, g, gp, targets = f.guesser
        dscores = gp.copy()
        dscores[np.arange(B), targets] -= 1.0
        dscores *= 1.0 / B
        d_enc[f.stream_len, np.arange(B)] = (dscores[:, :, None] * g).sum(axis=1)
        h = enc[f.stream_len, np.arange(B)]
        w_obj += h.T @ (dscores[:, :, None] * objf).sum(axis=1)

    n_tokens = len(f.targets)
    dlog = np.exp(f.logp)
    dlog[np.arange(n_tokens), f.targets] -= 1.0
    dlog *= 1.0 / max(n_tokens, 1)
    d_dec = np.zeros((L, R, H))
    d_dec[f.valid] = dlog @ params.w_out

    # the pre-activation gradient of every step overwrites its pre-activation;
    # each slot starts out as the tanh derivative 1 - h^2 of its step
    da = f.pre
    da_enc = da[:Z * B].reshape(Z, B, H)
    da_dec = da[Z * B:].reshape(L, R, H)
    for d, h in ((da_enc, enc[1:]), (da_dec, dec[1:])):
        np.square(h, out=d)
        np.subtract(1.0, d, out=d)

    # all decoder rows back to their start states, then the encoder streams
    dh = np.zeros((R, H))
    for j in reversed(range(L)):
        dh += d_dec[j]
        da_dec[j] *= dh
        dh = da_dec[j] @ w_h
    d_enc[f.start, f.owner] += dh
    dh = d_enc[Z]
    for m in reversed(range(Z)):
        da_enc[m] *= dh
        dh = da_enc[m] @ w_h
        dh += d_enc[m]

    # proj = embeddings @ w_in.T + b_h: sum the step gradients per input word
    ids = np.concatenate([f.stream.ravel(), f.dec_in.ravel()])
    one_hot = np.zeros((params.embeddings.shape[0], len(ids)))
    one_hot[ids, np.arange(len(ids))] = 1.0
    d_proj = one_hot @ da
    h0 = enc[0]
    grads = ModelParams(
        embeddings=d_proj @ params.w_in,
        w_scene=(dh * (1.0 - h0 * h0)).T @ f.feats,
        w_in=d_proj.T @ params.embeddings,
        w_h=(da_enc.reshape(Z * B, H).T @ enc[:-1].reshape(Z * B, H)
             + da_dec.reshape(L * R, H).T @ dec[:-1].reshape(L * R, H)),
        b_h=d_proj.sum(axis=0),
        w_out=dlog.T @ f.hs,
        w_obj=w_obj,
    )
    return loss, grads, aux


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochLog:
    epoch: int
    phase: str
    qgen_nll: float
    guesser_ce: float | None = None
    val_nll: float | None = None


@dataclass
class TrainLog:
    epochs: list[EpochLog] = field(default_factory=list)

    @property
    def final_qgen_nll(self) -> float:
        return self.epochs[-1].qgen_nll if self.epochs else float("nan")


@dataclass
class TrainResult:
    params: ModelParams
    log: TrainLog
    best_val_params: ModelParams | None = None


def training_phase(epoch: int, modulo_n: int) -> str:
    """Epochs are numbered from 1; the guesser joins in whenever e % n == 0."""
    return PHASE_JOINT if epoch % modulo_n == 0 else PHASE_QGEN


def _apply_update(params: ModelParams, grads: ModelParams, cfg: ModelConfig) -> None:
    norm_sq = 0.0
    for name in PARAM_FIELDS:
        ga = getattr(grads, name)
        norm_sq += float((ga * ga).sum())
    norm = math.sqrt(norm_sq)
    scale = cfg.learning_rate
    if norm > cfg.grad_clip:
        scale *= cfg.grad_clip / norm
    for name in PARAM_FIELDS:
        getattr(params, name)[...] -= scale * getattr(grads, name)


def validation_nll(
    params: ModelParams,
    vocab: Vocabulary,
    dataset: list[Example] | list[tuple[Dialogue, Scene]],
    batch_size: int = 64,
) -> float:
    """Mean per-token question NLL over a held-out set (no gradient step)."""
    total = 0.0
    tokens = 0
    for start in range(0, len(dataset), batch_size):
        chunk = dataset[start:start + batch_size]
        _, aux, _ = _forward(params, vocab, chunk, PHASE_QGEN)
        total += aux["qgen_nll"] * aux["n_tokens"]
        tokens += aux["n_tokens"]
    return total / tokens if tokens else 0.0


def _keep_freed_memory() -> None:
    """Have malloc keep what a training batch frees for the next, not unmap or trim it
    and fault it in again (145k-410k minor faults a `pipeline` benchmark round)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc and musl have it
    if mallopt:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: only larger arrays get a map (glibc: 128 KiB)
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD: free heap top kept up to this


def train(
    params: ModelParams,
    vocab: Vocabulary,
    dataset: list[tuple[Dialogue, Scene]],
    cfg: ModelConfig,
    seed: int,
    val_dataset: list[tuple[Dialogue, Scene]] | None = None,
) -> TrainResult:
    """Plain SGD over shuffled mixed batches with the modulo-n schedule.

    Deterministic given (dataset order, seed, cfg). When a validation set is
    supplied, the parameters at the epoch with the lowest validation NLL are
    returned as best_val_params alongside the final ones.
    """
    cfg.validate()
    if not dataset:
        raise ValueError("empty training dataset")
    _keep_freed_memory()
    params = params.copy()
    examples = [encode_example(vocab, d, sc) for d, sc in dataset]
    val_examples = [encode_example(vocab, d, sc) for d, sc in val_dataset or ()]
    log = TrainLog()
    best_val = math.inf
    best_params: ModelParams | None = None
    for epoch in range(1, cfg.epochs + 1):
        phase = training_phase(epoch, cfg.modulo_n)
        batches = corpus.make_batches(examples, cfg.batch_size, seed=derive_seed(seed, epoch))
        qgen_sum = 0.0
        guess_sum = 0.0
        for bi, chunk in enumerate(batches):
            loss, grads, aux = loss_and_grads(params, vocab, chunk, phase)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bi}", log=log
                )
            _apply_update(params, grads, cfg)
            qgen_sum += aux["qgen_nll"]
            guess_sum += aux["guesser_ce"]
        entry = EpochLog(
            epoch=epoch,
            phase=phase,
            qgen_nll=qgen_sum / len(batches),
            guesser_ce=guess_sum / len(batches) if phase == PHASE_JOINT else None,
        )
        if val_examples:
            entry.val_nll = validation_nll(params, vocab, val_examples)
            if entry.val_nll < best_val:
                best_val = entry.val_nll
                best_params = params.copy()
        log.epochs.append(entry)
    return TrainResult(params=params, log=log, best_val_params=best_params)


# ---------------------------------------------------------------------------
# checkpointing


CHECKPOINT_VERSION = 2


@dataclass
class Questioner:
    """Everything needed to play: parameters, vocabulary and model settings."""

    params: ModelParams
    vocab: Vocabulary
    config: ModelConfig

    def __post_init__(self):
        # play reads the parameters, never writes them, so they are made
        # read-only and the decode tables derived from them are made once
        p = self.params
        tables = _decode_tables(p)
        for a in (*p.arrays().values(), *tables):
            a.flags.writeable = False
        object.__setattr__(p, "_tables", tables)


def save_checkpoint(path: str | Path, questioner: Questioner) -> None:
    meta = {
        "format": CHECKPOINT_VERSION,
        "config": asdict(questioner.config),
        "vocab": {
            "words": questioner.vocab.words,
            "counts": questioner.vocab.counts,
            "min_count": questioner.vocab.min_count,
        },
    }
    with open(path, "wb") as f:
        np.savez(f, meta=np.array(json.dumps(meta)), **questioner.params.arrays())


def load_checkpoint(path: str | Path) -> Questioner:
    """The Questioner saved at `path`. The file comes from outside the
    program, so anything in it that `save_checkpoint` would not write (an
    unknown format or setting, a missing or misshapen array) is a ValueError
    naming it."""
    with open(path, "rb") as f:
        try:
            with np.load(f, allow_pickle=False) as z:
                meta = json.loads(z["meta"].item())
                if meta["format"] != CHECKPOINT_VERSION:
                    raise ValueError(f"unsupported checkpoint format {meta['format']!r}")
                arrays = {name: z[name].copy() for name in PARAM_FIELDS}
            config = ModelConfig(**meta["config"])
            config.validate()
            vocab = Vocabulary(
                words=list(meta["vocab"]["words"]),
                counts={k: int(v) for k, v in meta["vocab"]["counts"].items()},
                min_count=int(meta["vocab"]["min_count"]),
            )
            for name, shape in param_shapes(config, vocab.n_words).items():
                a = arrays[name]
                if a.dtype != np.float64 or a.shape != shape:
                    raise ValueError(f"{name} is {a.dtype} of shape {a.shape}, "
                                     f"not float64 of shape {shape}")
        except Exception as exc:  # noqa: BLE001 - any failure is a malformed checkpoint
            raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
    return Questioner(params=ModelParams(**arrays), vocab=vocab, config=config)

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
the target index. A batch runs as two recurrences. The encoder reads each
dialogue as one token stream (every turn's question tokens, then its
answer), suffix-padded to the longest stream; the guesser reads the state
at the end of each stream. Then every turn of every dialogue is one decoder
row, started from the encoder state at that turn's offset in the stream and
padded to the longest question. Each step is a row gather from the input
projection, computed once per batch for the whole vocabulary, plus one
(rows, H) @ (H, H) matmul. The backward pass mirrors the forward exactly:
its loops hold one matmul per step, and the weight gradients are formed
after them from the stacked step gradients. `gradient_check` verifies it
against central finite differences entry by entry.

Play runs one game at a time. `encode_turn` and `decode_question` compute
the same input projection W_in e(x) + b once per call (for the turn's
tokens, or for the whole vocabulary), so a step is a row gather, one matvec
and one tanh. The decoder stacks W_out over W_h, so that one matvec gives
both a step's logits and the next step's recurrent term. Nothing is cached
across calls: training and tests update the parameter arrays in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import corpus
from .dialogue import SOURCE_HUMAN, Dialogue
from .lang import SPECIAL_TOKENS, Vocabulary
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
    embed_dim: int = 32
    hidden_dim: int = 64
    learning_rate: float = 0.3
    grad_clip: float = 5.0
    modulo_n: int = 3
    epochs: int = 30
    batch_size: int = 32
    decode_mode: str = DECODE_SAMPLE
    max_question_len: int = 10
    guesser_human_only: bool = False

    def validate(self) -> None:
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embed_dim and hidden_dim must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be > 0")
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


@dataclass
class ModelParams:
    embeddings: np.ndarray  # (V, E)
    w_scene: np.ndarray     # (H, FEATURE_DIM)
    w_in: np.ndarray        # (H, E)
    w_h: np.ndarray         # (H, H)
    b_h: np.ndarray         # (H,)
    w_out: np.ndarray       # (V, H)
    w_obj: np.ndarray       # (H, FEATURE_DIM)

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: getattr(self, name).copy() for name in PARAM_FIELDS})

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


def init_params(cfg: ModelConfig, vocab: Vocabulary, seed: int) -> ModelParams:
    """All entries uniform in [-s, s] with s = 1/sqrt(hidden_dim)."""
    cfg.validate()
    if vocab.n_words == 0:
        raise ValueError("cannot initialize a model over an empty vocabulary")
    v, e, h = vocab.n_words, cfg.embed_dim, cfg.hidden_dim
    s = 1.0 / math.sqrt(h)
    rng = np.random.default_rng(seed)
    shapes = {
        "embeddings": (v, e),
        "w_scene": (h, FEATURE_DIM),
        "w_in": (h, e),
        "w_h": (h, h),
        "b_h": (h,),
        "w_out": (v, h),
        "w_obj": (h, FEATURE_DIM),
    }
    return ModelParams(**{name: rng.uniform(-s, s, shapes[name]) for name in PARAM_FIELDS})


def object_feature_matrix(objects: tuple[SceneObject, ...] | list[SceneObject]) -> np.ndarray:
    """One FEATURE_DIM row per object: category, color and size one-hots, then x, y."""
    n = len(objects)
    f = np.zeros((n, FEATURE_DIM))
    hot = [(_CAT_INDEX[o.category], _COLOR_OFFSET + _COLOR_INDEX[o.color],
            _SIZE_OFFSET + _SIZE_INDEX[o.size]) for o in objects]
    f[np.arange(n)[:, None], hot] = 1.0
    f[:, FEATURE_DIM - 2:] = np.array([(o.cell_x, o.cell_y) for o in objects],
                                      dtype=float) / _COORD_SCALE
    return f


def scene_features(scene: Scene) -> np.ndarray:
    return object_feature_matrix(scene.objects).mean(axis=0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))


def initial_state(params: ModelParams, scene: Scene) -> np.ndarray:
    return np.tanh(params.w_scene @ scene_features(scene))


def _input_projection(params: ModelParams, token_ids=None) -> np.ndarray:
    """W_in e(x) + b for the given token ids, or for the whole vocabulary."""
    emb = params.embeddings if token_ids is None else params.embeddings[token_ids]
    return emb @ params.w_in.T + params.b_h


def encode_turn(
    params: ModelParams,
    vocab: Vocabulary,
    state: np.ndarray,
    question_tokens: list[str] | tuple[str, ...],
    answer: str,
) -> np.ndarray:
    """Advance the dialogue state over the question tokens then the answer token:
    one projection of those tokens, then one matvec and one tanh per token."""
    ids = [vocab.token_id(tok) for tok in question_tokens]
    ids.append(vocab.answer_id(answer))
    w_h = params.w_h
    h = np.asarray(state, dtype=float)
    for x in _input_projection(params, ids):
        h = np.tanh(x + w_h @ h)
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

    The input projection of the whole vocabulary is computed once per call,
    and the output and recurrent weights are stacked, so each step is a row
    gather, one matvec giving both this step's logits and the next step's
    recurrent term, and one tanh. A sampled token is the first index whose
    cumulative unnormalized probability exceeds one uniform draw times the
    total: one `rng.random()` per token, as `Generator.choice` consumes.
    """
    if mode == DECODE_SAMPLE and rng is None:
        raise ValueError("sample decoding requires an rng")
    proj = _input_projection(params)
    n_words = proj.shape[0]
    out_rec = np.concatenate((params.w_out, params.w_h))   # (V + H, H)
    rec = params.w_h @ np.asarray(state, dtype=float)
    token_ids: list[int] = []
    prev = vocab.soq_id
    for step in range(max_len):
        out = out_rec @ np.tanh(proj[prev] + rec)
        logits, rec = out[:n_words], out[n_words:]
        if step == 0:
            logits[vocab.eoq_id] = -np.inf
        if mode == DECODE_GREEDY:
            nxt = int(np.argmax(logits))
        else:
            cdf = np.exp(logits - logits.max()).cumsum()
            if not math.isfinite(cdf[-1]):
                raise ValueError("cannot sample from non-finite logits")
            nxt = min(int(cdf.searchsorted(rng.random() * cdf[-1], side="right")),
                      n_words - 1)
        if nxt == vocab.eoq_id:
            break
        token_ids.append(nxt)
        prev = nxt
    return [vocab.word(i) for i in token_ids]


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
    guesser: tuple | None      # joint phase: (objf, g, gp, targets, gw, wsum)


def _forward(
    params: ModelParams,
    vocab: Vocabulary,
    batch: list[tuple[Dialogue, Scene]],
    phase: str,
    guesser_human_only: bool = False,
) -> tuple[float, dict, _Forward]:
    """The forward half of `loss_and_grads`: (loss, aux, cache)."""
    if phase not in (PHASE_QGEN, PHASE_JOINT):
        raise ValueError(f"unknown phase {phase!r}")
    if not batch:
        raise ValueError("empty batch")
    B = len(batch)
    H = params.w_h.shape[0]

    # one token stream per dialogue: every turn's question tokens, then its answer
    stream_ids: list[int] = []
    stream_len: list[int] = []
    owner: list[int] = []
    start: list[int] = []
    q_len: list[int] = []
    q_ids: list[int] = []
    for i, (d, _) in enumerate(batch):
        begin = len(stream_ids)
        for turn in d.turns:
            q = [vocab.token_id(t) for t in turn.question]
            owner.append(i)
            start.append(len(stream_ids) - begin)
            q_len.append(len(q))
            q_ids.extend(q)
            stream_ids.extend(q)
            stream_ids.append(vocab.answer_id(turn.answer))
        stream_len.append(len(stream_ids) - begin)
    stream_len = np.array(stream_len, dtype=np.intp)
    Z = int(stream_len.max())
    stream = np.full((B, Z), vocab.soq_id, dtype=np.intp)
    stream[np.arange(Z) < stream_len[:, None]] = stream_ids
    stream = stream.T

    # one decoder row per turn: inputs [soq w1..wk], targets [w1..wk eoq]
    R = len(owner)
    q_len = np.array(q_len, dtype=np.intp)
    L = int(q_len.max()) + 1 if R else 1
    in_question = np.arange(L) < q_len[:, None]
    dec_in = np.full((R, L), vocab.soq_id, dtype=np.intp)
    dec_in[:, 1:][in_question[:, :-1]] = q_ids
    dec_tg = np.full((R, L), vocab.eoq_id, dtype=np.intp)
    dec_tg[in_question] = q_ids
    valid = (np.arange(L) <= q_len[:, None]).T
    dec_in = dec_in.T

    scenes = [s for _, s in batch]
    n_obj = np.array([len(s.objects) for s in scenes], dtype=np.intp)
    objects = object_feature_matrix([o for s in scenes for o in s.objects])
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

    owner = np.array(owner, dtype=np.intp)
    start = np.array(start, dtype=np.intp)
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
        g_targets = np.array([s.target_index for s in scenes])
        g = objf @ params.w_obj.T                   # (B, N, H)
        scores = (g * h[:, None, :]).sum(axis=-1)   # (B, N)
        glogp = _log_softmax(np.where(omask, scores, -1e30))
        if guesser_human_only:
            gw = np.array([1.0 if d.source == SOURCE_HUMAN else 0.0 for d, _ in batch])
        else:
            gw = np.ones(B)
        wsum = gw.sum()
        if wsum > 0:
            guesser_loss = math.fsum(-glogp[np.arange(B), g_targets] * gw) / wsum
        guesser = (objf, g, np.exp(glogp), g_targets, gw, wsum)

    loss = qgen_loss + guesser_loss
    aux = {"qgen_nll": qgen_loss, "guesser_ce": guesser_loss, "n_tokens": n_tokens}
    cache = _Forward(feats=feats, stream=stream, stream_len=stream_len, enc=enc, pre=pre,
                     owner=owner, start=start, dec_in=dec_in, dec=dec, valid=valid,
                     hs=hs, logp=logp, targets=targets, guesser=guesser)
    return loss, aux, cache


def loss_and_grads(
    params: ModelParams,
    vocab: Vocabulary,
    batch: list[tuple[Dialogue, Scene]],
    phase: str,
    guesser_human_only: bool = False,
) -> tuple[float, ModelParams, dict]:
    """Teacher-forced question NLL (+ guesser cross-entropy in joint phase).

    Returns (loss, grads, aux). The question loss is the mean negative
    log-likelihood per predicted token over the whole batch; the guesser
    loss is the mean cross-entropy per dialogue (restricted to human-sourced
    dialogues when guesser_human_only is set). Per-token terms are summed
    with math.fsum, so the loss is exactly invariant under batch order
    permutations.

    Each dialogue is one encoder stream and every turn of every dialogue one
    decoder row, both suffix-padded. Padded stream positions come after the
    state the guesser reads and padded decoder positions predict nothing,
    so they contribute exactly zero to the loss and the gradients.
    """
    loss, aux, f = _forward(params, vocab, batch, phase, guesser_human_only)
    enc, dec = f.enc, f.dec
    Z, B, H = enc.shape[0] - 1, enc.shape[1], enc.shape[2]
    L, R = dec.shape[0] - 1, dec.shape[1]
    w_h = params.w_h

    # gradient reaching each encoder state from outside the recurrence
    d_enc = np.zeros_like(enc)
    w_obj = np.zeros_like(params.w_obj)
    if f.guesser is not None:
        objf, g, gp, targets, gw, wsum = f.guesser
        if wsum > 0:
            dscores = gp.copy()
            dscores[np.arange(B), targets] -= 1.0
            dscores *= (gw / wsum)[:, None]
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
    dataset: list[tuple[Dialogue, Scene]],
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
    params = params.copy()
    log = TrainLog()
    best_val = math.inf
    best_params: ModelParams | None = None
    for epoch in range(1, cfg.epochs + 1):
        phase = training_phase(epoch, cfg.modulo_n)
        batches = corpus.make_batches(dataset, cfg.batch_size, seed=derive_seed(seed, epoch))
        qgen_sum = 0.0
        guess_sum = 0.0
        for bi, chunk in enumerate(batches):
            loss, grads, aux = loss_and_grads(
                params, vocab, chunk, phase, guesser_human_only=cfg.guesser_human_only
            )
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
        if val_dataset:
            entry.val_nll = validation_nll(params, vocab, val_dataset)
            if entry.val_nll < best_val:
                best_val = entry.val_nll
                best_params = params.copy()
        log.epochs.append(entry)
    return TrainResult(params=params, log=log, best_val_params=best_params)


# ---------------------------------------------------------------------------
# verification harness


def gradient_check(
    cfg: ModelConfig | None = None, seed: int = 0, delta: float = 1e-5
) -> float:
    """Compare analytic gradients with central finite differences.

    Builds a tiny model and a small random joint-phase batch of 1-, 2- and
    3-turn dialogues with 1- to 4-token questions, perturbs every
    parameter entry by +-delta and returns the maximum relative error
    |analytic - numeric| / max(|analytic| + |numeric|, 1e-8).
    """
    from .dialogue import NO, SOURCE_GENERATED, Turn, YES
    from .scene import SceneConfig, generate_scene_set

    cfg = cfg or ModelConfig(embed_dim=4, hidden_dim=6, batch_size=4)
    rng = np.random.default_rng(seed)
    n_learnable = 20 - len(SPECIAL_TOKENS)
    words = [f"w{i:02d}" for i in range(n_learnable)]
    vocab = Vocabulary(
        words=list(SPECIAL_TOKENS) + words,
        counts={w: 3 for w in words},
        min_count=1,
    )
    scenes = generate_scene_set(3, seed, SceneConfig(3, 6))
    batch = []
    n_turns = 0
    for i, sc in enumerate(scenes):
        # 1, 2 and 3 turns with question lengths cycling 1..4, so that stream
        # padding, decoder padding and turn-start offsets all differ per row
        turns = []
        for _ in range(i + 1):
            qlen = 1 + n_turns % 4
            n_turns += 1
            q = tuple(words[int(rng.integers(len(words)))] for _ in range(qlen))
            turns.append(Turn(question=q, answer=YES if rng.random() < 0.5 else NO))
        source = SOURCE_HUMAN if i % 2 == 0 else SOURCE_GENERATED
        batch.append((
            Dialogue(game_id=i, scene_id=sc.scene_id, source=source,
                     turns=tuple(turns), guess=0, success=True),
            sc,
        ))
    params = init_params(cfg, vocab, seed)
    _, grads, _ = loss_and_grads(params, vocab, batch, PHASE_JOINT)
    max_rel = 0.0
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        ga = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + delta
            lp, _, _ = loss_and_grads(params, vocab, batch, PHASE_JOINT)
            arr[idx] = orig - delta
            lm, _, _ = loss_and_grads(params, vocab, batch, PHASE_JOINT)
            arr[idx] = orig
            numeric = (lp - lm) / (2.0 * delta)
            analytic = float(ga[idx])
            rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# checkpointing


CHECKPOINT_VERSION = 1


@dataclass
class Questioner:
    """Everything needed to play: parameters, vocabulary and model settings."""

    params: ModelParams
    vocab: Vocabulary
    config: ModelConfig


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
    with open(path, "rb") as f:
        with np.load(f, allow_pickle=False) as z:
            meta = json.loads(z["meta"].item())
            if meta.get("format") != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
            params = ModelParams(**{name: z[name].copy() for name in PARAM_FIELDS})
    vocab = Vocabulary(
        words=list(meta["vocab"]["words"]),
        counts={k: int(v) for k, v in meta["vocab"]["counts"].items()},
        min_count=int(meta["vocab"]["min_count"]),
    )
    return Questioner(params=params, vocab=vocab, config=ModelConfig(**meta["config"]))

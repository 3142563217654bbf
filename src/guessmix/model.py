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
the target index. Batches are processed as padded, masked tensors; the
backward pass mirrors the forward exactly, which `gradient_check` verifies
against central finite differences entry by entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

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

    @classmethod
    def zeros_like(cls, other: "ModelParams") -> "ModelParams":
        return cls(**{name: np.zeros_like(getattr(other, name)) for name in PARAM_FIELDS})


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


def object_features(obj: SceneObject) -> np.ndarray:
    f = np.zeros(FEATURE_DIM)
    f[_CAT_INDEX[obj.category]] = 1.0
    f[len(CATEGORIES) + _COLOR_INDEX[obj.color]] = 1.0
    f[len(CATEGORIES) + len(COLORS) + _SIZE_INDEX[obj.size]] = 1.0
    f[FEATURE_DIM - 2] = obj.cell_x / _COORD_SCALE
    f[FEATURE_DIM - 1] = obj.cell_y / _COORD_SCALE
    return f


def scene_features(scene: Scene) -> np.ndarray:
    return np.mean([object_features(o) for o in scene.objects], axis=0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))


def initial_state(params: ModelParams, scene: Scene) -> np.ndarray:
    return np.tanh(params.w_scene @ scene_features(scene))


def _cell(params: ModelParams, token_id: int, h: np.ndarray) -> np.ndarray:
    e = params.embeddings[token_id]
    return np.tanh(params.w_in @ e + params.w_h @ h + params.b_h)


def encode_turn(
    params: ModelParams,
    vocab: Vocabulary,
    state: np.ndarray,
    question_tokens: list[str] | tuple[str, ...],
    answer: str,
) -> np.ndarray:
    """Advance the dialogue state over the question tokens then the answer token."""
    h = np.asarray(state, dtype=float)
    for tok in question_tokens:
        h = _cell(params, vocab.token_id(tok), h)
    return _cell(params, vocab.answer_id(answer), h)


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
    """
    if mode == DECODE_SAMPLE and rng is None:
        raise ValueError("sample decoding requires an rng")
    h = np.asarray(state, dtype=float)
    token_ids: list[int] = []
    prev = vocab.soq_id
    for step in range(max_len):
        h = _cell(params, prev, h)
        logits = params.w_out @ h
        if step == 0:
            logits = logits.copy()
            logits[vocab.eoq_id] = -np.inf
        if mode == DECODE_GREEDY:
            nxt = int(np.argmax(logits))
        else:
            p = softmax(logits)
            nxt = int(rng.choice(len(p), p=p / p.sum()))
        if nxt == vocab.eoq_id:
            break
        token_ids.append(nxt)
        prev = nxt
    return [vocab.word(i) for i in token_ids]


def guesser_scores(params: ModelParams, state: np.ndarray, scene: Scene) -> np.ndarray:
    """Dot product of the dialogue state with each object's linear embedding."""
    feats = np.stack([object_features(o) for o in scene.objects])
    return (feats @ params.w_obj.T) @ np.asarray(state, dtype=float)


def guess_object(params: ModelParams, state: np.ndarray, scene: Scene) -> int:
    # np.argmax resolves ties toward the lowest index
    return int(np.argmax(guesser_scores(params, state, scene)))


# ---------------------------------------------------------------------------
# batched loss and exact gradients


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

    Variable turn counts, question lengths and object counts are handled by
    suffix padding plus masks; padded positions contribute nothing to the
    loss or the gradients.
    """
    if phase not in (PHASE_QGEN, PHASE_JOINT):
        raise ValueError(f"unknown phase {phase!r}")
    if not batch:
        raise ValueError("empty batch")
    B = len(batch)
    H = params.w_h.shape[0]

    # token ids per dialogue turn
    encoded: list[list[tuple[list[int], int]]] = []
    for d, _ in batch:
        encoded.append(
            [([vocab.token_id(t) for t in turn.question], vocab.answer_id(turn.answer))
             for turn in d.turns]
        )
    t_max = max(len(turns) for turns in encoded)

    feats = np.stack([scene_features(s) for _, s in batch])
    h0 = np.tanh(feats @ params.w_scene.T)
    h = h0

    n_tokens = 0
    nll_parts: list[np.ndarray] = []
    caches = []
    for t in range(t_max):
        # ---- decoder, teacher forcing: inputs [soq w1..wk], targets [w1..wk eoq]
        qs = [encoded[i][t][0] if t < len(encoded[i]) else None for i in range(B)]
        L = max(len(q) for q in qs if q is not None) + 1
        din = np.full((B, L), vocab.soq_id, dtype=np.intp)
        dtg = np.full((B, L), vocab.eoq_id, dtype=np.intp)
        dmask = np.zeros((B, L))
        for i, q in enumerate(qs):
            if q is None:
                continue
            din[i, 1:1 + len(q)] = q
            dtg[i, :len(q)] = q
            dmask[i, :len(q) + 1] = 1.0
        e_dec = params.embeddings[din]  # (B, L, E)
        dstates = [h]
        for j in range(L):
            a = e_dec[:, j] @ params.w_in.T + dstates[-1] @ params.w_h.T + params.b_h
            dstates.append(np.tanh(a))
        hs = np.stack(dstates[1:], axis=1)          # (B, L, H)
        logits = hs @ params.w_out.T                # (B, L, V)
        logp = _log_softmax(logits)
        tok_logp = np.take_along_axis(logp, dtg[:, :, None], axis=-1)[:, :, 0]
        nll = -(tok_logp * dmask)
        nll_parts.append(nll[dmask > 0])
        n_tokens += int(dmask.sum())
        p = np.exp(logp)

        # ---- encoder: question tokens then the answer token, row-masked
        zs = [encoded[i][t][0] + [encoded[i][t][1]] if t < len(encoded[i]) else []
              for i in range(B)]
        M = max(len(z) for z in zs)
        ein = np.full((B, M), vocab.soq_id, dtype=np.intp)
        emask = np.zeros((B, M))
        for i, z in enumerate(zs):
            ein[i, :len(z)] = z
            emask[i, :len(z)] = 1.0
        e_enc = params.embeddings[ein]
        estates = [h]
        tanh_vals = []
        cur = h
        for m in range(M):
            a = e_enc[:, m] @ params.w_in.T + cur @ params.w_h.T + params.b_h
            tm = np.tanh(a)
            msk = emask[:, m:m + 1]
            cur = msk * tm + (1.0 - msk) * cur
            tanh_vals.append(tm)
            estates.append(cur)
        h = cur
        caches.append((din, dtg, dmask, e_dec, dstates, hs, p,
                       ein, emask, e_enc, estates, tanh_vals))

    qgen_loss = math.fsum(np.concatenate(nll_parts)) / n_tokens if n_tokens else 0.0

    guesser_loss = 0.0
    guesser_cache = None
    if phase == PHASE_JOINT:
        n_max = max(len(s.objects) for _, s in batch)
        objf = np.zeros((B, n_max, FEATURE_DIM))
        omask = np.zeros((B, n_max))
        targets = np.array([s.target_index for _, s in batch])
        for i, (_, s) in enumerate(batch):
            for k, o in enumerate(s.objects):
                objf[i, k] = object_features(o)
            omask[i, :len(s.objects)] = 1.0
        g = objf @ params.w_obj.T                   # (B, N, H)
        scores = (g * h[:, None, :]).sum(axis=-1)   # (B, N)
        masked = np.where(omask > 0, scores, -1e30)
        glogp = _log_softmax(masked)
        gp = np.exp(glogp)
        if guesser_human_only:
            gw = np.array([1.0 if d.source == SOURCE_HUMAN else 0.0 for d, _ in batch])
        else:
            gw = np.ones(B)
        wsum = gw.sum()
        ce_rows = -glogp[np.arange(B), targets]
        if wsum > 0:
            guesser_loss = math.fsum(ce_rows * gw) / wsum
        guesser_cache = (objf, g, gp, targets, gw, wsum)

    loss = qgen_loss + guesser_loss
    aux = {"qgen_nll": qgen_loss, "guesser_ce": guesser_loss, "n_tokens": n_tokens}

    # ------------------------------------------------------------------ backward
    grads = ModelParams.zeros_like(params)
    emb_ids: list[np.ndarray] = []
    emb_rows: list[np.ndarray] = []
    dh = np.zeros((B, H))

    if phase == PHASE_JOINT and guesser_cache is not None:
        objf, g, gp, targets, gw, wsum = guesser_cache
        if wsum > 0:
            dscores = gp.copy()
            dscores[np.arange(B), targets] -= 1.0
            dscores *= (gw / wsum)[:, None]
            dh += (dscores[:, :, None] * g).sum(axis=1)
            grads.w_obj += h.T @ (dscores[:, :, None] * objf).sum(axis=1)

    tt = max(n_tokens, 1)
    for t in reversed(range(t_max)):
        (din, dtg, dmask, e_dec, dstates, hs, p,
         ein, emask, e_enc, estates, tanh_vals) = caches[t]

        # encoder backward
        dcur = dh
        M = ein.shape[1]
        for m in reversed(range(M)):
            msk = emask[:, m:m + 1]
            tm = tanh_vals[m]
            da = (dcur * msk) * (1.0 - tm * tm)
            grads.w_in += da.T @ e_enc[:, m]
            emb_ids.append(ein[:, m])
            emb_rows.append(da @ params.w_in)
            grads.w_h += da.T @ estates[m]
            grads.b_h += da.sum(axis=0)
            dcur = da @ params.w_h + dcur * (1.0 - msk)
        dh_prev = dcur

        # decoder backward
        B_, L, V = p.shape
        dlog = p.copy()
        dlog[np.arange(B_)[:, None], np.arange(L)[None, :], dtg] -= 1.0
        dlog *= (dmask / tt)[:, :, None]
        grads.w_out += dlog.reshape(B_ * L, V).T @ hs.reshape(B_ * L, H)
        dh_steps = (dlog.reshape(B_ * L, V) @ params.w_out).reshape(B_, L, H)
        dhd = np.zeros((B_, H))
        for j in reversed(range(L)):
            dhd = dhd + dh_steps[:, j]
            s_after = dstates[j + 1]
            da = dhd * (1.0 - s_after * s_after)
            grads.w_in += da.T @ e_dec[:, j]
            emb_ids.append(din[:, j])
            emb_rows.append(da @ params.w_in)
            grads.w_h += da.T @ dstates[j]
            grads.b_h += da.sum(axis=0)
            dhd = da @ params.w_h
        dh = dh_prev + dhd

    da0 = dh * (1.0 - h0 * h0)
    grads.w_scene += da0.T @ feats
    if emb_ids:
        np.add.at(grads.embeddings, np.concatenate(emb_ids), np.vstack(emb_rows))

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
        _, _, aux = loss_and_grads(params, vocab, chunk, PHASE_QGEN)
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
    from .corpus import make_batches  # local import: corpus depends on metrics

    cfg.validate()
    if not dataset:
        raise ValueError("empty training dataset")
    params = params.copy()
    log = TrainLog()
    best_val = math.inf
    best_params: ModelParams | None = None
    for epoch in range(1, cfg.epochs + 1):
        phase = training_phase(epoch, cfg.modulo_n)
        batches = make_batches(dataset, cfg.batch_size, seed=derive_seed(seed, epoch))
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

    Builds a tiny model and a small random joint-phase batch, perturbs every
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
    for i, sc in enumerate(scenes):
        turns = []
        for _ in range(2):
            qlen = int(rng.integers(2, 5))
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

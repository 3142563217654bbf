"""Mixed training sets: game-aligned replacement, mixed batches, statistics.

Mixing replaces a seeded fraction of the teacher dialogues with the
generated dialogue for the same game. Replacement sets are nested across
proportions: game ids are ranked once per seed and prefixes of that ranking
are replaced, so a 50/50 set differs from the 75/25 set only by additional
replacements and ablations stay comparable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import metrics
from .dialogue import Dialogue, GameAlignmentError, SOURCE_HUMAN
from .lang import build_vocabulary

log = logging.getLogger(__name__)

LENGTH_FIXED = "fixed"
LENGTH_VARIABLE = "variable"
LENGTH_NONE = "-"


class LengthPolicyMismatchError(ValueError):
    """Generated corpus turn counts contradict the declared length mode."""


@dataclass(frozen=True)
class MixSpec:
    pct_human: int
    length_mode: str
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.pct_human <= 100):
            raise ValueError(f"pct_human must be in [0, 100], got {self.pct_human}")
        valid = (LENGTH_FIXED, LENGTH_VARIABLE, LENGTH_NONE)
        if self.length_mode not in valid:
            raise ValueError(f"length_mode must be one of {valid}, got {self.length_mode!r}")
        if self.pct_human < 100 and self.length_mode == LENGTH_NONE:
            raise ValueError("a length mode is required when generated dialogues are mixed in")


@dataclass
class StatsRow:
    pct_human: float
    pct_generated: float
    length_mode: str
    voc_size: int
    mo: float
    grq: float


def replacement_ids(game_ids: list[int], spec: MixSpec) -> list[int]:
    """The game ids whose dialogues get replaced, floor(fraction * N) of them.

    Ranks the ids with a seeded shuffle and takes a prefix, so lower
    pct_human extends the replaced set rather than resampling it.
    """
    n_replace = (100 - spec.pct_human) * len(game_ids) // 100
    rng = np.random.default_rng(spec.seed)
    ranked = list(rng.permutation(np.array(sorted(game_ids), dtype=np.int64)))
    return [int(g) for g in ranked[:n_replace]]


def mix_corpora(
    human: list[Dialogue],
    generated: list[Dialogue],
    spec: MixSpec,
    require_generated_success: bool = False,
) -> list[Dialogue]:
    """Replace a seeded subset of human dialogues with their generated twins.

    The output has the same size and game ids as the human corpus, in the
    same order; source tags distinguish the substituted dialogues. With
    require_generated_success, failed generated games are skipped in ranking
    order and later ids are replaced instead.
    """
    if spec.pct_human == 100:
        return list(human)
    by_game = {d.game_id: d for d in generated}
    if require_generated_success:
        by_game = {gid: d for gid, d in by_game.items() if d.success}
    human_ids = [d.game_id for d in human]
    n_replace = (100 - spec.pct_human) * len(human) // 100
    ranked = replacement_ids(human_ids, MixSpec(0, spec.length_mode, spec.seed))
    chosen: list[int] = []
    missing: list[int] = []
    for gid in ranked:
        if len(chosen) == n_replace:
            break
        if gid in by_game:
            chosen.append(gid)
        else:
            missing.append(gid)
    if len(chosen) < n_replace:
        raise GameAlignmentError(
            f"generated corpus covers only {len(chosen)} of {n_replace} games to replace; "
            f"missing game ids start with {missing[:10]}"
        )
    if missing and not require_generated_success:
        raise GameAlignmentError(
            f"generated corpus is missing game ids {missing[:10]}"
            + ("..." if len(missing) > 10 else "")
        )
    replaced = set(chosen)
    human_by_game = {d.game_id: d for d in human}
    _check_length_mode(spec, replaced, by_game, human_by_game)
    return [by_game[d.game_id] if d.game_id in replaced else d for d in human]


def _check_length_mode(spec, replaced, generated_by_game, human_by_game):
    if spec.length_mode == LENGTH_FIXED:
        lengths = {len(generated_by_game[g].turns) for g in replaced}
        if len(lengths) > 1:
            raise LengthPolicyMismatchError(
                f"fixed-length mix but generated turn counts vary: {sorted(lengths)}"
            )
    elif spec.length_mode == LENGTH_VARIABLE:
        for g in sorted(replaced):
            got = len(generated_by_game[g].turns)
            want = len(human_by_game[g].turns)
            if got != want:
                raise LengthPolicyMismatchError(
                    f"variable-length mix but game {g} has {got} generated turns "
                    f"vs {want} human turns"
                )


def make_batches(items: list, batch_size: int, seed: int) -> list[list]:
    """Seeded shuffle then sequential slicing, with mixed-source repair.

    When the dataset contains both human and generated dialogues, every full
    batch must contain both sources. Single-source full batches are repaired
    by swapping one element with the nearest element of the other source,
    choosing donors that stay mixed themselves (full batches only donate a
    duplicated source; the exempt partial batch donates anything). Repair is
    guaranteed to succeed when each source has at least as many elements as
    there are full batches.

    `items` may be Dialogue objects or (Dialogue, Scene) pairs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    order = [items[i] for i in rng.permutation(len(items))]
    sources = [(it[0] if isinstance(it, tuple) else it).source for it in order]
    distinct = set(sources)
    n_full = len(order) // batch_size
    if len(distinct) > 1 and batch_size >= 2 and n_full > 0:
        _repair_single_source_batches(order, sources, batch_size, n_full)
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


def _repair_single_source_batches(order, sources, batch_size, n_full):
    def batch_slice(b):
        return range(b * batch_size, (b + 1) * batch_size)

    def needs(b):
        vals = {sources[i] for i in batch_slice(b)}
        return None if len(vals) > 1 else next(iter(vals))

    for b in range(n_full):
        have = needs(b)
        if have is None:
            continue
        start, end = b * batch_size, (b + 1) * batch_size
        best = None
        for i, src in enumerate(sources):
            if start <= i < end or src == have:
                continue
            donor_batch = i // batch_size
            if donor_batch < n_full:
                donor_count = sum(
                    1 for j in batch_slice(donor_batch) if sources[j] == src
                )
                if donor_count < 2:
                    continue  # taking it would leave the donor single-source
            dist = start - i if i < start else i - end + 1
            if best is None or dist < best[0] or (dist == best[0] and i < best[1]):
                best = (dist, i)
        if best is None:
            log.warning("cannot mix batch %d: the other source is exhausted", b)
            continue
        i = best[1]
        j = start if i < start else end - 1  # recipient slot nearest the donor
        order[i], order[j] = order[j], order[i]
        sources[i], sources[j] = sources[j], sources[i]


def question_set(corpus: list[Dialogue]) -> set[tuple[str, ...]]:
    """All distinct question token sequences of a corpus."""
    out: set[tuple[str, ...]] = set()
    for d in corpus:
        out.update(d.questions())
    return out


def corpus_stats(corpus: list[Dialogue], min_count: int = 3, length_mode: str = LENGTH_NONE) -> StatsRow:
    """Training-set statistics: vocabulary size, mutual overlap, repeat rate."""
    if not corpus:
        raise ValueError("empty corpus")
    n_human = sum(1 for d in corpus if d.source == SOURCE_HUMAN)
    pct_human = 100.0 * n_human / len(corpus)
    vocab = build_vocabulary(corpus, min_count)
    return StatsRow(
        pct_human=pct_human,
        pct_generated=100.0 - pct_human,
        length_mode=length_mode,
        voc_size=vocab.voc_size,
        mo=metrics.corpus_mo(corpus),
        grq=metrics.grq(corpus),
    )


STATS_HEADER = "pct_human,pct_generated,length_mode,voc_size,mo,grq"


def format_stats_row(row: StatsRow) -> str:
    return (
        f"{row.pct_human:g},{row.pct_generated:g},{row.length_mode},"
        f"{row.voc_size},{row.mo:.4f},{row.grq:.2f}"
    )


def write_stats_csv(path, rows: list[StatsRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(STATS_HEADER + "\n")
        for row in rows:
            f.write(format_stats_row(row) + "\n")

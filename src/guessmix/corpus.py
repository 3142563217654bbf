"""Mixed training sets: game-aligned replacement, mixed batches, statistics.

Mixing replaces a seeded fraction of the teacher dialogues with the
generated dialogue for the same game. Replacement sets are nested across
proportions: game ids are ranked once per seed and prefixes of that ranking
are replaced, so a 50/50 set differs from the 75/25 set only by additional
replacements and ablations stay comparable.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .dialogue import Dialogue, GameAlignmentError, SOURCE_HUMAN
from .jsonl import checked, read_jsonl, write_jsonl
from .lang import MIN_COUNT, build_vocabulary

log = logging.getLogger(__name__)

LENGTH_FIXED = "fixed"
LENGTH_VARIABLE = "variable"
LENGTH_NONE = "-"
LENGTH_MODES = (LENGTH_FIXED, LENGTH_VARIABLE, LENGTH_NONE)
MANIFEST_SUFFIX = ".manifest.json"


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
        if self.pct_human == 100:  # nothing is mixed in, so no length mode applies
            object.__setattr__(self, "length_mode", LENGTH_NONE)
        if self.length_mode not in LENGTH_MODES:
            raise ValueError(f"length_mode must be one of {LENGTH_MODES}, got {self.length_mode!r}")
        if self.pct_human < 100 and self.length_mode == LENGTH_NONE:
            raise ValueError("a length mode is required when generated dialogues are mixed in")


def write_manifest(corpus_path, spec: MixSpec, mixed: list[Dialogue]) -> None:
    """Record the mix that made the corpus at `corpus_path` beside it, as
    `X.jsonl` -> `X.manifest.json`: one record, keys sorted."""
    write_jsonl(Path(corpus_path).with_suffix(MANIFEST_SUFFIX), [{
        "length_mode": spec.length_mode,
        "pct_human": spec.pct_human,
        "replaced_game_ids": sorted(d.game_id for d in mixed if d.source != SOURCE_HUMAN),
        "seed": spec.seed,
    }])


def mix_of(corpus_path) -> MixSpec | None:
    """The mix recorded beside a corpus file by `write_manifest`, or None
    without a manifest. One that is not exactly one valid record is a
    ValueError naming it."""
    path = Path(corpus_path).with_suffix(MANIFEST_SUFFIX)
    if not path.exists():
        return None
    specs = read_jsonl(path, lambda rec: MixSpec(
        checked(rec["pct_human"], int), checked(rec["length_mode"], str),
        checked(rec["seed"], int)), "mix manifest")
    if len(specs) != 1:
        raise ValueError(f"{path}: a mix manifest holds one record, not {len(specs)}")
    return specs[0]


@dataclass
class StatsRow:
    pct_human: float = metrics.column("g")
    pct_generated: float = metrics.column("g")
    length_mode: str = metrics.column("")
    voc_size: int = metrics.column("d")
    mo: float = metrics.column(".4f")
    grq: float = metrics.column(".2f")


def check_unique_games(corpus: list[Dialogue], name: str) -> None:
    """Raise GameAlignmentError naming corpus `name` if a game id repeats in it."""
    if repeats := [g for g, n in Counter(d.game_id for d in corpus).items() if n > 1]:
        raise GameAlignmentError(f"{name} game id {repeats[0]} repeats")


def mix_corpora(human: list[Dialogue], generated: list[Dialogue], spec: MixSpec) -> list[Dialogue]:
    """Replace a seeded subset of human dialogues with their generated twins.

    The replaced games are the first floor(fraction * N) of a seeded ranking
    of all N game ids, so lower pct_human extends the replaced set rather
    than resampling it. The output has the same size and game ids as the
    human corpus, in the same order; source tags distinguish the substituted
    dialogues.
    """
    check_unique_games(human, "human")
    check_unique_games(generated, "generated")
    by_game = {d.game_id: d for d in generated}
    n_replace = (100 - spec.pct_human) * len(human) // 100
    ranking = np.random.default_rng(spec.seed).permutation(
        np.array(sorted(d.game_id for d in human), dtype=np.int64))
    replaced = [int(g) for g in ranking[:n_replace]]
    missing = [gid for gid in replaced if gid not in by_game]
    if missing:
        raise GameAlignmentError(
            f"generated corpus covers only {n_replace - len(missing)} of {n_replace} "
            f"games to replace; missing ids start with {missing[:10]}"
        )
    lengths = {len(by_game[g].turns) for g in replaced}
    if spec.length_mode == LENGTH_FIXED and len(lengths) > 1:
        raise LengthPolicyMismatchError(
            f"fixed-length mix but generated turn counts vary: {sorted(lengths)}"
        )
    if spec.length_mode == LENGTH_VARIABLE:
        human_turns = {d.game_id: len(d.turns) for d in human}
        for g in sorted(replaced):
            if len(by_game[g].turns) != human_turns[g]:
                raise LengthPolicyMismatchError(
                    f"variable-length mix but game {g} has {len(by_game[g].turns)} generated "
                    f"turns vs {human_turns[g]} human turns"
                )
    swapped = set(replaced)
    return [by_game[d.game_id] if d.game_id in swapped else d for d in human]


def make_batches(items: list, batch_size: int, seed: int) -> list[list]:
    """Seeded shuffle then sequential slicing, with mixed-source repair.

    When the dataset contains both human and generated dialogues, every full
    batch must contain both sources. Single-source full batches are repaired
    by swapping one element with the nearest element of the other source,
    choosing donors that stay mixed themselves (full batches only donate a
    duplicated source; the exempt partial batch donates anything). Repair is
    guaranteed to succeed when each source has at least as many elements as
    there are full batches.

    `items` may be (Dialogue, Scene) pairs or anything with a `source`:
    Dialogue objects, or the encoded examples `model.train` batches.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    order = [items[i] for i in rng.permutation(len(items))]
    sources = [(it[0] if isinstance(it, tuple) else it).source for it in order]
    n_full = len(order) // batch_size
    if len(set(sources)) > 1 and batch_size >= 2 and n_full > 0:
        _repair_single_source_batches(order, sources, batch_size, n_full)
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


def _repair_single_source_batches(order, sources, batch_size, n_full):
    def count(b, src):
        return sources[b * batch_size:(b + 1) * batch_size].count(src)

    for b in range(n_full):
        start, end = b * batch_size, (b + 1) * batch_size
        have = sources[start]
        if count(b, have) < batch_size:
            continue
        # (distance, index) of each element of the other source that can go:
        # taking it must not leave its own full batch single-source
        donors = [(start - i if i < start else i - end + 1, i)
                  for i, src in enumerate(sources) if src != have
                  and (i // batch_size >= n_full or count(i // batch_size, src) >= 2)]
        if not donors:
            log.warning("cannot mix batch %d: the other source is exhausted", b)
            continue
        _, i = min(donors)  # the nearest, ties to the lower index
        j = start if i < start else end - 1  # recipient slot nearest the donor
        order[i], order[j] = order[j], order[i]
        sources[i], sources[j] = sources[j], sources[i]


def question_set(corpus: list[Dialogue]) -> set[tuple[str, ...]]:
    """All distinct question token sequences of a corpus."""
    return {q for d in corpus for q in d.questions()}


def human_pct(corpus: list[Dialogue]) -> float:
    """The percentage of a corpus's dialogues that are human ones."""
    if not corpus:
        raise ValueError("empty corpus")
    return 100.0 * sum(1 for d in corpus if d.source == SOURCE_HUMAN) / len(corpus)


def corpus_stats(corpus: list[Dialogue], min_count: int = MIN_COUNT,
                 length_mode: str = LENGTH_NONE) -> StatsRow:
    """Training-set statistics: vocabulary size, mutual overlap, repeat rate."""
    pct_human = human_pct(corpus)
    vocab = build_vocabulary(corpus, min_count)
    return StatsRow(
        pct_human=pct_human,
        pct_generated=100.0 - pct_human,
        length_mode=length_mode,
        voc_size=vocab.voc_size,
        mo=metrics.corpus_mo(corpus),
        grq=metrics.grq(corpus),
    )


def write_stats_csv(path, rows: list[StatsRow]) -> None:
    metrics.write_rows_csv(path, StatsRow, rows)

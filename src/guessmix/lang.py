"""Question language: a closed template grammar and the vocabulary.

Questions are realized from a small semantic space (category / color / size /
grid region checks) through several surface templates per kind, which gives
the teacher corpus lexical variety. Parsing inverts realization and is the
only path by which the Oracle understands a question: token sequences that
match no template are malformed by definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import scene
from .jsonl import write_jsonl

if TYPE_CHECKING:  # dialogue builds its shared turns from SURFACES
    from .dialogue import Dialogue

REGIONS = ("left", "right", "top", "bottom", "center")

KIND_CATEGORY = "category"
KIND_COLOR = "color"
KIND_SIZE = "size"
KIND_REGION = "region"
KINDS = (KIND_CATEGORY, KIND_COLOR, KIND_SIZE, KIND_REGION)

SLOT_VALUES: dict[str, tuple[str, ...]] = {
    KIND_CATEGORY: scene.CATEGORIES,
    KIND_COLOR: scene.COLORS,
    KIND_SIZE: scene.SIZES,
    KIND_REGION: REGIONS,
}

SOQ = "<soq>"
EOQ = "<eoq>"
YES_TOKEN = "<yes>"
NO_TOKEN = "<no>"
UNK = "<unk>"
SPECIAL_TOKENS = (SOQ, EOQ, YES_TOKEN, NO_TOKEN, UNK)
# a vocabulary keeps the words seen at least this often: a model's, so GR's, and Voc size's
MIN_COUNT = 3

SLOT = "<slot>"


@dataclass(frozen=True)
class QuestionSemantics:
    """One binary predicate about the target object."""

    kind: str
    value: str

    def __post_init__(self):
        if self.kind not in SLOT_VALUES:
            raise ValueError(f"unknown question kind {self.kind!r}")
        if self.value not in SLOT_VALUES[self.kind]:
            raise ValueError(f"{self.value!r} is not a valid {self.kind} argument")


TEMPLATES: dict[str, tuple[tuple[str, ...], ...]] = {
    # each pattern holds exactly one SLOT and ends with "?"
    KIND_CATEGORY: (
        ("is", "it", "a", SLOT, "?"),
        ("is", "the", "object", "a", SLOT, "?"),
        ("could", "it", "be", "a", SLOT, "?"),
    ),
    KIND_COLOR: (
        ("is", "it", SLOT, "?"),
        ("is", "the", "object", SLOT, "?"),
        ("is", "it", "colored", SLOT, "?"),
    ),
    KIND_SIZE: (
        ("is", "it", SLOT, "?"),
        ("is", "the", "object", SLOT, "?"),
        ("is", "it", "a", SLOT, "one", "?"),
    ),
    KIND_REGION: (
        ("is", "it", "on", "the", SLOT, "?"),
        ("is", "it", "in", "the", SLOT, "part", "?"),
        ("is", "it", "near", "the", SLOT, "?"),
    ),
}

# the full question space; its order is the teacher's tie-break order
ALL_SEMANTICS = tuple(
    QuestionSemantics(kind, v) for kind in KINDS for v in SLOT_VALUES[kind]
)


def realize(semantics: QuestionSemantics, template_id: int) -> list[str]:
    """Fill the template slot with the semantics argument."""
    templates = TEMPLATES[semantics.kind]
    if not (0 <= template_id < len(templates)):
        raise ValueError(f"unknown template id {template_id} for kind {semantics.kind!r}")
    return [semantics.value if tok == SLOT else tok for tok in templates[template_id]]


# every surface of the grammar; no two (semantics, template) pairs share one
SURFACES: dict[tuple[str, ...], QuestionSemantics] = {
    tuple(realize(sem, i)): sem
    for sem in ALL_SEMANTICS
    for i in range(len(TEMPLATES[sem.kind]))
}


def parse_question(tokens: list[str] | tuple[str, ...]) -> QuestionSemantics | None:
    """Invert realize. Returns None for a sequence no template realizes
    (a malformed question)."""
    return SURFACES.get(tuple(tokens))


@dataclass
class Vocabulary:
    """The vocabulary of word `counts` at threshold `min_count`: `words`
    lists the special tokens (ids 0..4), then every non-special word counted
    at least `min_count` times by descending count, ties broken
    lexicographically; a word's id is its index. `counts` keeps only theirs.
    """

    counts: dict[str, int]
    min_count: int
    words: list[str] = field(init=False)
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        self.counts = {w: c for w, c in self.counts.items()
                       if c >= self.min_count and w not in SPECIAL_TOKENS}
        self.words = [*SPECIAL_TOKENS, *sorted(self.counts, key=lambda w: (-self.counts[w], w))]
        self._ids = {w: i for i, w in enumerate(self.words)}

    @property
    def n_words(self) -> int:
        """Total word count including specials (the model's softmax size)."""
        return len(self.words)

    @property
    def learnable_words(self) -> list[str]:
        return self.words[len(SPECIAL_TOKENS):]

    @property
    def voc_size(self) -> int:
        """Number of learnable (non-special) words; the reported "Voc size"."""
        return len(self.learnable_words)

    @property
    def soq_id(self) -> int:
        return self._ids[SOQ]

    @property
    def eoq_id(self) -> int:
        return self._ids[EOQ]

    def token_id(self, token: str) -> int:
        return self._ids.get(token, self._ids[UNK])

    def answer_id(self, answer: str) -> int:
        return self._ids[YES_TOKEN] if answer == "yes" else self._ids[NO_TOKEN]


def build_vocabulary(corpus: list[Dialogue], min_count: int = MIN_COUNT) -> Vocabulary:
    """Count question tokens across the corpus and keep those above threshold.

    Answers are encoded by the yes/no special tokens and do not contribute to
    the learnable word counts.
    """
    counter: Counter[str] = Counter()
    for d in corpus:
        for turn in d.turns:
            counter.update(turn.question)
    return Vocabulary(counter, min_count)


def write_vocabulary(path: str | Path, vocab: Vocabulary) -> None:
    """JSON-lines of {"word","count","id"}; specials first by construction."""
    write_jsonl(path, ({"word": w, "count": vocab.counts.get(w, 0), "id": i}
                       for i, w in enumerate(vocab.words)))

"""Dialogue records and their JSON-lines serialization.

The same format is shared by the teacher (human-proxy) corpus and the
self-play (generated) corpora; files differ only in the "source" field.
Dialogues and turns are slotted records: a run holds every dialogue of its
corpora in every process. A grammatical question is one of the grammar's
few surfaces, so every turn that asks one is a single shared `Turn` per
(surface, answer), made at import; only a malformed question's turn is its
own. Every turn is built, and unpickled, through `make_turn`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from . import lang
from .jsonl import checked, expect_keys, read_jsonl, write_jsonl

SOURCE_HUMAN = "human"
SOURCE_GENERATED = "generated"
SOURCES = (SOURCE_HUMAN, SOURCE_GENERATED)

YES = "yes"
NO = "no"


class GameAlignmentError(ValueError):
    """Two corpora that must be aligned by game id fail to cover each other."""


@dataclass(frozen=True, slots=True)
class Turn:
    question: tuple[str, ...]
    answer: str  # YES or NO

    def __reduce__(self):
        # rebuilt by make_turn, so a forked child's turns of the grammar
        # arrive as the receiver's shared ones
        return make_turn, (self.question, self.answer)


def make_turn(question: Iterable[str], answer: str) -> Turn:
    """The turn of `question` (its tokens) answered `answer`, yes or no: the
    shared one for a surface of the grammar, else a new one. A question has
    at least one token."""
    if answer not in (YES, NO):
        raise ValueError(f"unknown answer {answer!r}")
    question = tuple(question)
    turn = _SHARED_TURNS.get((question, answer))
    if turn is None and not question:
        raise ValueError("empty question")
    return turn or Turn(question, answer)


_SHARED_TURNS = {(q, a): Turn(q, a) for q in lang.SURFACES for a in (YES, NO)}


@dataclass(slots=True)
class Dialogue:
    game_id: int
    scene_id: int
    source: str
    turns: tuple[Turn, ...]
    guess: int
    success: bool

    def questions(self) -> list[tuple[str, ...]]:
        return [t.question for t in self.turns]


def _dialogue_record(d: Dialogue) -> dict:
    return {
        "game_id": d.game_id,
        "scene_id": d.scene_id,
        "source": d.source,
        "turns": [{"q": " ".join(t.question), "a": t.answer} for t in d.turns],
        "guess": d.guess,
        "success": d.success,
    }


_DIALOGUE_KEYS = ("game_id", "scene_id", "source", "turns", "guess", "success")
_TURN_KEYS = ("q", "a")


def _turn_from_record(rec: dict) -> Turn:
    expect_keys(rec, _TURN_KEYS)
    return make_turn(checked(rec["q"], str).split(), rec["a"])


def _dialogue_from_record(rec: dict) -> Dialogue:
    expect_keys(rec, _DIALOGUE_KEYS)
    d = Dialogue(
        game_id=checked(rec["game_id"], int),
        scene_id=checked(rec["scene_id"], int),
        source=rec["source"],
        turns=tuple(map(_turn_from_record, rec["turns"])),
        guess=checked(rec["guess"], int),
        success=checked(rec["success"], bool),
    )
    if d.source not in SOURCES:
        raise ValueError(f"unknown source {d.source!r}")
    return d


def write_dialogues(path: str | Path, dialogues: list[Dialogue]) -> None:
    write_jsonl(path, map(_dialogue_record, dialogues))


def read_dialogues(path: str | Path) -> list[Dialogue]:
    return read_jsonl(path, _dialogue_from_record, "dialogue")

"""Full games between the trained Questioner and the Oracle.

Each game alternates question generation, Oracle answering and dialogue
state updates for a commanded number of turns, then guesses. Everything the
model says is recorded verbatim, including repeated and malformed questions;
no success filter is applied to generated corpora.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import model as m
from . import lang, oracle
from .dialogue import Dialogue, GameAlignmentError, SOURCE_GENERATED, Turn
from .scene import Scene

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FixedLength:
    """Every generated dialogue takes exactly `turns` turns."""

    turns: int

    def __post_init__(self):
        if self.turns < 1:
            raise ValueError(f"fixed length must be >= 1 turns, got {self.turns}")


@dataclass(frozen=True)
class MatchHuman:
    """Each replayed game takes as many turns as the dialogue it replaces."""

    turns_by_game: dict[int, int]


LengthPolicy = FixedLength | MatchHuman


@dataclass
class PlayedGame:
    dialogue: Dialogue
    guess: int
    success: bool
    scene_id: int


def play_game(
    questioner: m.Questioner,
    scene: Scene,
    oracle_cfg: oracle.OracleConfig,
    turns: int,
    rng: np.random.Generator,
) -> PlayedGame:
    if turns < 1:
        raise ValueError(f"turn budget must be >= 1, got {turns}")
    params, vocab, cfg = questioner.params, questioner.vocab, questioner.config
    state = m.initial_state(params, scene)
    recorded: list[Turn] = []
    for _ in range(turns):
        question = m.decode_question(
            params, vocab, state, mode=cfg.decode_mode,
            max_len=cfg.max_question_len, rng=rng,
        )
        answer = oracle.answer(scene, question, oracle_cfg, rng)
        recorded.append(Turn(question=tuple(question), answer=answer))
        state = m.encode_turn(params, vocab, state, question, answer)
    guess = m.guess_object(params, state, scene)
    success = guess == scene.target_index
    dialogue = Dialogue(
        game_id=scene.scene_id,
        scene_id=scene.scene_id,
        source=SOURCE_GENERATED,
        turns=tuple(recorded),
        guess=guess,
        success=success,
    )
    return PlayedGame(dialogue=dialogue, guess=guess, success=success, scene_id=scene.scene_id)


def play_games(
    questioner: m.Questioner,
    scenes: list[Scene],
    oracle_cfg: oracle.OracleConfig,
    turns: int,
    seed: int,
) -> list[PlayedGame]:
    """One game per scene on independent (seed, scene_id) random streams."""
    return [
        play_game(questioner, sc, oracle_cfg, turns, np.random.default_rng([seed, sc.scene_id]))
        for sc in scenes
    ]


def generate_selfplay_corpus(
    questioner: m.Questioner,
    scenes: list[Scene],
    oracle_cfg: oracle.OracleConfig,
    policy: LengthPolicy,
    seed: int,
) -> list[Dialogue]:
    """Play every scene under the length policy; keep all dialogues."""
    if isinstance(policy, MatchHuman):
        missing = [sc.scene_id for sc in scenes if sc.scene_id not in policy.turns_by_game]
        if missing:
            raise GameAlignmentError(
                f"length policy has no turn count for game ids {missing[:10]}"
                + ("..." if len(missing) > 10 else "")
            )
    corpus = []
    for sc in scenes:
        turns = policy.turns if isinstance(policy, FixedLength) else policy.turns_by_game[sc.scene_id]
        game = play_game(questioner, sc, oracle_cfg, turns, np.random.default_rng([seed, sc.scene_id]))
        corpus.append(game.dialogue)
    if log.isEnabledFor(logging.INFO):
        n_success = sum(1 for d in corpus if d.success)
        questions = [q for d in corpus for q in d.questions()]
        n_malformed = sum(1 for q in questions if lang.parse_question(q) is None)
        log.info("self-play corpus: %d games, %.1f%% successful, %.1f%% of %d questions malformed",
                 len(corpus), 100.0 * n_success / len(corpus) if corpus else 0.0,
                 100.0 * n_malformed / len(questions) if questions else 0.0, len(questions))
    return corpus

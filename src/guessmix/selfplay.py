"""Full games between the trained Questioner and the Oracle.

Each game alternates question generation, Oracle answering and dialogue
state updates for a commanded number of turns, then guesses. Everything the
model says is recorded verbatim, including repeated and malformed questions;
no success filter is applied to generated corpora.

Every game draws from its own (seed, scene_id) random stream. `play_games`,
which evaluation calls, plays its games in lockstep: one batched decode and
one batched encode per turn over all of them. A self-play corpus deals its
games round-robin over `parallel.processes` processes, the calling one and
forked children, and each plays its games one at a time with `play_game`,
which is also the reference the lockstep games are tested against. The
games come back in scene order, so a corpus is the same on any number of
processes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import model as m
from . import lang, oracle, parallel
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


def _played(params: m.ModelParams, scene: Scene, recorded: list[Turn],
            state: np.ndarray) -> PlayedGame:
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


def play_game(
    questioner: m.Questioner,
    scene: Scene,
    oracle_cfg: oracle.OracleConfig,
    turns: int,
    rng: np.random.Generator,
) -> PlayedGame:
    """One game on its own: the path self-play takes, and the reference
    `play_games` is tested against."""
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
    return _played(params, scene, recorded, state)


def play_games(
    questioner: m.Questioner,
    scenes: list[Scene],
    oracle_cfg: oracle.OracleConfig,
    turns: int,
    seed: int,
) -> list[PlayedGame]:
    """One game per scene on independent (seed, scene_id) random streams,
    played in lockstep: each turn is one batched decode and one batched
    encode over all games, between which every game's oracle answers.

    Each game draws from its stream in `play_game`'s order (one draw per
    sampled token, then the oracle's noise draw), so the games equal
    `play_game`'s on the same streams, unless a last-bit difference in the
    states tips a draw or an argmax: a matrix product over the games
    replaces one matrix-vector product per game.
    """
    if turns < 1:
        raise ValueError(f"turn budget must be >= 1, got {turns}")
    if not scenes:
        return []
    params, vocab, cfg = questioner.params, questioner.vocab, questioner.config
    rngs = [np.random.default_rng([seed, sc.scene_id]) for sc in scenes]
    states = np.array([m.initial_state(params, sc) for sc in scenes])
    recorded: list[list[Turn]] = [[] for _ in scenes]
    for _ in range(turns):
        questions = m.decode_questions(params, vocab, states, cfg.decode_mode,
                                       cfg.max_question_len, rngs)
        answers = [oracle.answer(sc, q, oracle_cfg, rng)
                   for sc, q, rng in zip(scenes, questions, rngs)]
        for game, question, answer in zip(recorded, questions, answers):
            game.append(Turn(question=tuple(question), answer=answer))
        states = m.encode_turns(params, vocab, states, questions, answers)
    return [_played(params, sc, game, state) for sc, game, state in zip(scenes, recorded, states)]


def generate_selfplay_corpus(
    questioner: m.Questioner,
    scenes: list[Scene],
    oracle_cfg: oracle.OracleConfig,
    policy: LengthPolicy,
    seed: int,
) -> list[Dialogue]:
    """Play every scene under the length policy; keep all dialogues, in
    scene order. Game k goes to share k mod n of the n processes."""
    if isinstance(policy, MatchHuman):
        missing = [sc.scene_id for sc in scenes if sc.scene_id not in policy.turns_by_game]
        if missing:
            raise GameAlignmentError(
                f"length policy has no turn count for game ids {missing[:10]}"
                + ("..." if len(missing) > 10 else "")
            )

    def play(share: list[Scene]) -> list[Dialogue]:
        return [play_game(questioner, sc, oracle_cfg,
                          policy.turns if isinstance(policy, FixedLength)
                          else policy.turns_by_game[sc.scene_id],
                          np.random.default_rng([seed, sc.scene_id])).dialogue
                for sc in share]

    n = parallel.processes(len(scenes))
    corpus = [None] * len(scenes)
    for k, share in enumerate(parallel.run_shares(play, [scenes[k::n] for k in range(n)])):
        corpus[k::n] = share
    if log.isEnabledFor(logging.INFO):
        n_success = sum(1 for d in corpus if d.success)
        questions = [q for d in corpus for q in d.questions()]
        n_malformed = sum(1 for q in questions if lang.parse_question(q) is None)
        log.info("self-play corpus: %d games, %.1f%% successful, %.1f%% of %d questions malformed",
                 len(corpus), 100.0 * n_success / len(corpus) if corpus else 0.0,
                 100.0 * n_malformed / len(questions) if questions else 0.0, len(questions))
    return corpus

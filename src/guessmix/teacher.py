"""Scripted Questioner producing the human-proxy corpus.

The teacher keeps the set of objects still consistent with every answer so
far and greedily asks the unasked question that splits that set most evenly,
with a random template for surface variety. It never repeats a question and
stops as soon as a single candidate remains, so its dialogues look like the
clean, variable-length games a careful human would play.
"""

from __future__ import annotations

import logging

import numpy as np

from . import lang, oracle
from .dialogue import SOURCE_HUMAN, YES, Dialogue, Turn, make_turn
from .scene import Scene

log = logging.getLogger(__name__)

# the teacher asks at most this many questions per game
MAX_TURNS = 8


def next_teacher_question(
    scene: Scene,
    candidates: list[int],
    asked: set[lang.QuestionSemantics],
    rng: np.random.Generator,
) -> tuple[lang.QuestionSemantics, int] | None:
    """Pick the most balanced split of the `candidates` (object indices) by
    a question not in `asked`.

    Balance is |#yes - #no| over candidates; ties are broken uniformly at
    random. Questions whose answer is already determined (all candidates on
    one side) carry no information and are skipped; None means no
    informative unasked question remains.
    """
    if len(candidates) < 2:
        raise ValueError("teacher needs at least two candidates to ask about")
    objs = [scene.objects[i] for i in candidates]
    best_score = None
    best: list[lang.QuestionSemantics] = []
    for sem in lang.all_semantics():
        if sem in asked:
            continue
        n_yes = sum(1 for o in objs if oracle.eval_predicate(o, sem))
        if n_yes == 0 or n_yes == len(objs):
            continue  # zero-information question
        score = abs(2 * n_yes - len(objs))
        if best_score is None or score < best_score:
            best_score, best = score, [sem]
        elif score == best_score:
            best.append(sem)
    if not best:
        return None
    sem = best[int(rng.integers(len(best)))]
    template_id = int(rng.integers(len(lang.TEMPLATES[sem.kind])))
    return sem, template_id


def play_teacher_game(
    scene: Scene,
    oracle_cfg: oracle.OracleConfig,
    rng: np.random.Generator,
) -> Dialogue:
    """Play one full game of at most MAX_TURNS questions; the dialogue is
    returned unfiltered."""
    candidates = list(range(len(scene.objects)))
    asked: set[lang.QuestionSemantics] = set()
    turns: list[Turn] = []
    while len(candidates) > 1 and len(turns) < MAX_TURNS:
        picked = next_teacher_question(scene, candidates, asked, rng)
        if picked is None:
            break
        sem, template_id = picked
        question = tuple(lang.realize(sem, template_id))
        ans = oracle.answer(scene, question, oracle_cfg, rng)
        turns.append(make_turn(question, ans))
        asked.add(sem)
        keep = [
            i for i in candidates
            if oracle.eval_predicate(scene.objects[i], sem) == (ans == YES)
        ]
        # a noisy answer can contradict every candidate; ignore it rather
        # than ending up with nothing to guess
        if keep:
            candidates = keep
    if len(candidates) == 1:
        guess = candidates[0]
    else:
        guess = candidates[int(rng.integers(len(candidates)))]
    return Dialogue(
        game_id=scene.scene_id,
        scene_id=scene.scene_id,
        source=SOURCE_HUMAN,
        turns=tuple(turns),
        guess=guess,
        success=guess == scene.target_index,
    )


def collect_teacher_corpus(
    scenes: list[Scene],
    oracle_cfg: oracle.OracleConfig,
    seed: int = 0,
) -> list[Dialogue]:
    """Play every scene and keep the successful games, the human-data filter.

    Each game runs on its own random stream derived from (seed, scene_id),
    so the corpus is a pure function of its arguments.
    """
    played = (play_teacher_game(sc, oracle_cfg, np.random.default_rng([seed, sc.scene_id]))
              for sc in scenes)
    kept = [d for d in played if d.success]
    mean_turns = sum(len(d.turns) for d in kept) / len(kept) if kept else 0.0
    log.info(
        "teacher corpus: kept %d of %d games (dropped %d), mean turns %.2f",
        len(kept), len(scenes), len(scenes) - len(kept), mean_turns,
    )
    return kept

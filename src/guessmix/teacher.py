"""Scripted Questioner producing the human-proxy corpus.

The teacher keeps the set of objects still consistent with every answer so
far and greedily asks the unasked question that splits that set most evenly,
with a random template for surface variety. It never repeats a question and
stops as soon as a single candidate remains, so its dialogues look like the
clean, variable-length games a careful human would play.

A game takes two steps. `_truth_masks` reads its scene's attribute codes
once, into one bitmask per question of the objects it is true of; then, per
turn, `_next_question` picks the question from those masks and the
candidates, also a bitmask, so counting the candidates a question is true of
is one popcount.
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


def _truth_masks(scene: Scene) -> dict[lang.QuestionSemantics, int]:
    """Each question's `oracle.truth_mask`, in `lang.ALL_SEMANTICS` order."""
    return {sem: oracle.truth_mask(scene, sem) for sem in lang.ALL_SEMANTICS}


def _next_question(
    masks: dict[lang.QuestionSemantics, int],
    candidates: int,
    asked: set[lang.QuestionSemantics],
    rng: np.random.Generator,
) -> tuple[lang.QuestionSemantics, int] | None:
    """Pick the most balanced split of the `candidates` (bit i for object i)
    by a question not in `asked`, given the scene's `_truth_masks`.

    Balance is |#yes - #no| over candidates; ties are broken uniformly at
    random from `rng`. Questions whose answer is already determined (all
    candidates on one side) carry no information and are skipped; None means
    no informative unasked question remains.
    """
    n = candidates.bit_count()
    best_score = None
    best: list[lang.QuestionSemantics] = []
    for sem, mask in masks.items():
        if sem in asked:
            continue
        n_yes = (mask & candidates).bit_count()
        if n_yes == 0 or n_yes == n:
            continue  # zero-information question
        score = abs(2 * n_yes - n)
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
    masks = _truth_masks(scene)
    candidates = (1 << scene.n_objects) - 1
    asked: set[lang.QuestionSemantics] = set()
    turns: list[Turn] = []
    while candidates.bit_count() > 1 and len(turns) < MAX_TURNS:
        picked = _next_question(masks, candidates, asked, rng)
        if picked is None:
            break
        sem, template_id = picked
        question = tuple(lang.realize(sem, template_id))
        ans = oracle.answer(scene, question, oracle_cfg, rng)
        turns.append(make_turn(question, ans))
        asked.add(sem)
        keep = candidates & (masks[sem] if ans == YES else ~masks[sem])
        # a noisy answer can contradict every candidate; ignore it rather
        # than ending up with nothing to guess
        if keep:
            candidates = keep
    left = [i for i in range(scene.n_objects) if candidates >> i & 1]
    guess = left[0] if len(left) == 1 else left[int(rng.integers(len(left)))]
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

"""The per-object teacher that the bitmask teacher of `guessmix.teacher` is
tested against.

It plays a game as `teacher.play_teacher_game` did when a scene held one
`SceneObject` per object: it keeps the candidates as a list of indices,
tests every question on every candidate by its attribute names, and answers
through the same names. It draws from `rng` in the same order, so the two
teachers must play the same dialogues. No run calls it, so it lives here.
"""

import numpy as np

from guessmix import lang, oracle, teacher
from guessmix.dialogue import NO, SOURCE_HUMAN, YES, Dialogue, make_turn
from guessmix.scene import GRID_SIZE, Scene, SceneObject

_MID = GRID_SIZE // 2


def eval_predicate(obj: SceneObject, semantics: lang.QuestionSemantics) -> bool:
    if semantics.kind == lang.KIND_CATEGORY:
        return obj.category == semantics.value
    if semantics.kind == lang.KIND_COLOR:
        return obj.color == semantics.value
    if semantics.kind == lang.KIND_SIZE:
        return obj.size == semantics.value
    region = semantics.value
    if region == "left":
        return obj.cell_x < _MID
    if region == "right":
        return obj.cell_x > _MID
    if region == "top":
        return obj.cell_y < _MID
    if region == "bottom":
        return obj.cell_y > _MID
    return obj.cell_x == _MID and obj.cell_y == _MID  # center


def answer(target: SceneObject, question, cfg: oracle.OracleConfig, rng) -> str:
    semantics = lang.parse_question(question)
    if semantics is None:
        return NO
    truth = YES if eval_predicate(target, semantics) else NO
    if cfg.noise_rate > 0.0 and rng.random() < cfg.noise_rate:
        return NO if truth == YES else YES
    return truth


def next_question(objs: list[SceneObject], asked, rng):
    best_score = None
    best = []
    for sem in lang.ALL_SEMANTICS:
        if sem in asked:
            continue
        n_yes = sum(1 for o in objs if eval_predicate(o, sem))
        if n_yes == 0 or n_yes == len(objs):
            continue
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


def play_teacher_game(scene: Scene, oracle_cfg: oracle.OracleConfig,
                      rng: np.random.Generator) -> Dialogue:
    objects = scene.objects
    candidates = list(range(len(objects)))
    asked = set()
    turns = []
    while len(candidates) > 1 and len(turns) < teacher.MAX_TURNS:
        picked = next_question([objects[i] for i in candidates], asked, rng)
        if picked is None:
            break
        sem, template_id = picked
        question = tuple(lang.realize(sem, template_id))
        ans = answer(objects[scene.target_index], question, oracle_cfg, rng)
        turns.append(make_turn(question, ans))
        asked.add(sem)
        keep = [i for i in candidates if eval_predicate(objects[i], sem) == (ans == YES)]
        if keep:
            candidates = keep
    if len(candidates) == 1:
        guess = candidates[0]
    else:
        guess = candidates[int(rng.integers(len(candidates)))]
    return Dialogue(game_id=scene.scene_id, scene_id=scene.scene_id, source=SOURCE_HUMAN,
                    turns=tuple(turns), guess=guess, success=guess == scene.target_index)

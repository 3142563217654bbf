"""Rule-based answerer with configurable answer noise.

The Oracle parses each question through the closed grammar and answers
truthfully about the secret target, flipping the answer with probability
`noise_rate`. Questions that fail to parse are answered "no" and are never
flipped, so self-play cannot deadlock on malformed output.

Every question is a range test on the attribute codes of a scene (see
`scene`): it holds of an object when each of its (column, lo, hi) ranges
holds of the object's code row. The oracle tests the target's row, and
`truth_mask` tests every object of a scene at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lang
from .dialogue import NO, YES
from .scene import (CATEGORIES, CODES_PER_OBJECT, COLOR_OFFSET, COLORS, GRID_SIZE, SIZE_OFFSET,
                    SIZES, Scene)


@dataclass(frozen=True)
class OracleConfig:
    noise_rate: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ValueError(f"noise_rate must be in [0, 1], got {self.noise_rate}")


# region thresholds on the 5x5 grid: a band of two cells on each side,
# single center cell
_MID = GRID_SIZE // 2
_REGION_RANGES = {
    "left": ((3, 0, _MID),),
    "right": ((3, _MID + 1, GRID_SIZE),),
    "top": ((4, 0, _MID),),
    "bottom": ((4, _MID + 1, GRID_SIZE),),
    "center": ((3, _MID, _MID + 1), (4, _MID, _MID + 1)),
}


def _ranges(semantics: lang.QuestionSemantics) -> tuple[tuple[int, int, int], ...]:
    """The (column, lo, hi) ranges, lo <= code < hi, of the code row of
    each object that `semantics` is true of."""
    if semantics.kind == lang.KIND_REGION:
        return _REGION_RANGES[semantics.value]
    names, column, offset = {lang.KIND_CATEGORY: (CATEGORIES, 0, 0),
                             lang.KIND_COLOR: (COLORS, 1, COLOR_OFFSET),
                             lang.KIND_SIZE: (SIZES, 2, SIZE_OFFSET)}[semantics.kind]
    code = offset + names.index(semantics.value)
    return ((column, code, code + 1),)


_RANGES = {sem: _ranges(sem) for sem in lang.ALL_SEMANTICS}


def eval_predicate(codes: bytes, semantics: lang.QuestionSemantics, i: int = 0) -> bool:
    """Whether `semantics` is true of object `i` of the code rows `codes`."""
    at = i * CODES_PER_OBJECT
    for column, lo, hi in _RANGES[semantics]:
        if not lo <= codes[at + column] < hi:
            return False
    return True


def truth_mask(scene: Scene, semantics: lang.QuestionSemantics) -> int:
    """The objects of `scene` that `semantics` is true of: bit i for object i."""
    mask = -1
    for column, lo, hi in _RANGES[semantics]:
        codes = scene.codes[column::CODES_PER_OBJECT]
        mask &= sum(1 << i for i, code in enumerate(codes) if lo <= code < hi)
    return mask


def answer(
    scene: Scene,
    question_tokens: list[str] | tuple[str, ...],
    cfg: OracleConfig,
    rng: np.random.Generator,
) -> str:
    semantics = lang.parse_question(question_tokens)
    if semantics is None:
        return NO
    truth = YES if eval_predicate(scene.codes, semantics, scene.target_index) else NO
    if cfg.noise_rate > 0.0 and rng.random() < cfg.noise_rate:
        return NO if truth == YES else YES
    return truth

"""Synthetic game worlds: small scenes of attributed objects.

A scene stands in for an annotated image: a handful of objects, each with
a category, a color, a size and a cell on a 5x5 grid, plus a secret target
index the Questioner has to identify. Attribute inventories are fixed so
the question grammar stays closed and parseable. Scenes and their objects
are slotted records: a run holds thousands of them in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonl import checked, read_jsonl, write_jsonl

CATEGORIES = (
    "cat", "dog", "bird", "car", "chair", "table",
    "ball", "book", "cup", "tree", "phone", "lamp",
)
COLORS = ("red", "blue", "green", "yellow", "black", "white", "orange", "purple")
SIZES = ("small", "medium", "large")
GRID_SIZE = 5

# every scene holds 3 to 20 objects, as GuessWhat?!'s kept images do
MIN_OBJECTS = 3
MAX_OBJECTS = 20

# resampling budget per object before giving up on a duplicate-free draw
_MAX_RESAMPLES = 100


class SceneGenerationError(RuntimeError):
    """Could not draw a duplicate-free object within the resampling budget."""


@dataclass(frozen=True, slots=True)
class SceneObject:
    id: int
    category: str
    color: str
    size: str
    cell_x: int
    cell_y: int

    def attribute_tuple(self) -> tuple:
        return (self.category, self.color, self.size, self.cell_x, self.cell_y)


@dataclass(frozen=True, slots=True)
class Scene:
    scene_id: int
    objects: tuple[SceneObject, ...]
    target_index: int

    @property
    def target(self) -> SceneObject:
        return self.objects[self.target_index]


def validate_scene(scene: Scene) -> None:
    """Raise ValueError if any structural invariant is broken."""
    n = len(scene.objects)
    if not (MIN_OBJECTS <= n <= MAX_OBJECTS):
        raise ValueError(f"scene {scene.scene_id}: object count {n} out of bounds")
    if not (0 <= scene.target_index < n):
        raise ValueError(f"scene {scene.scene_id}: target index {scene.target_index} invalid")
    seen = set()
    for i, obj in enumerate(scene.objects):
        if obj.id != i:
            raise ValueError(f"scene {scene.scene_id}: object id {obj.id} != position {i}")
        if obj.category not in CATEGORIES:
            raise ValueError(f"scene {scene.scene_id}: unknown category {obj.category!r}")
        if obj.color not in COLORS:
            raise ValueError(f"scene {scene.scene_id}: unknown color {obj.color!r}")
        if obj.size not in SIZES:
            raise ValueError(f"scene {scene.scene_id}: unknown size {obj.size!r}")
        if not (0 <= obj.cell_x < GRID_SIZE and 0 <= obj.cell_y < GRID_SIZE):
            raise ValueError(f"scene {scene.scene_id}: cell ({obj.cell_x},{obj.cell_y}) off grid")
        tup = obj.attribute_tuple()
        if tup in seen:
            raise ValueError(f"scene {scene.scene_id}: duplicate object tuple {tup}")
        seen.add(tup)


# Per-scene palette bounds. A photo-like scene shows a few recurring
# categories and a coherent set of colors rather than an unbiased sample of
# the full inventories; drawing attributes from a small palette recreates
# that, and it keeps every question kind informative for the teacher.
_PALETTE_CATEGORIES = (2, 4)
_PALETTE_COLORS = (2, 3)


def generate_scene(rng: np.random.Generator, scene_id: int = 0) -> Scene:
    """Draw one scene: uniform object count, uniform target, no duplicate objects.

    Each scene first draws a small category/color palette, then samples the
    objects from it, so scenes contain look-alike distractors the way real
    images do. Duplicate attribute tuples are resolved by resampling the
    object, bounded at _MAX_RESAMPLES attempts so an impossible draw fails
    loudly instead of spinning.
    """
    n = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
    n_cats = int(rng.integers(_PALETTE_CATEGORIES[0], _PALETTE_CATEGORIES[1] + 1))
    n_cols = int(rng.integers(_PALETTE_COLORS[0], _PALETTE_COLORS[1] + 1))
    cats = [CATEGORIES[i] for i in rng.choice(len(CATEGORIES), size=n_cats, replace=False)]
    cols = [COLORS[i] for i in rng.choice(len(COLORS), size=n_cols, replace=False)]
    objects: list[SceneObject] = []
    seen: set[tuple] = set()
    for i in range(n):
        for _ in range(_MAX_RESAMPLES):
            obj = SceneObject(
                id=i,
                category=cats[int(rng.integers(len(cats)))],
                color=cols[int(rng.integers(len(cols)))],
                size=SIZES[int(rng.integers(len(SIZES)))],
                cell_x=int(rng.integers(GRID_SIZE)),
                cell_y=int(rng.integers(GRID_SIZE)),
            )
            if obj.attribute_tuple() not in seen:
                break
        else:
            raise SceneGenerationError(
                f"scene {scene_id}: no duplicate-free object after {_MAX_RESAMPLES} draws"
            )
        seen.add(obj.attribute_tuple())
        objects.append(obj)
    target = int(rng.integers(n))
    return Scene(scene_id=scene_id, objects=tuple(objects), target_index=target)


def generate_scene_set(n: int, seed: int) -> list[Scene]:
    """Generate n scenes with ids 0..n-1.

    Each scene gets its own child random stream derived from (seed, scene_id),
    so growing the set never perturbs the scenes already generated.
    """
    if n < 1:
        raise ValueError(f"scene set size must be >= 1, got {n}")
    return [generate_scene(np.random.default_rng([seed, scene_id]), scene_id=scene_id)
            for scene_id in range(n)]


def _scene_record(s: Scene) -> dict:
    return {
        "scene_id": s.scene_id,
        "objects": [
            {
                "id": o.id,
                "category": o.category,
                "color": o.color,
                "size": o.size,
                "x": o.cell_x,
                "y": o.cell_y,
            }
            for o in s.objects
        ],
        "target": s.target_index,
    }


def _scene_from_record(rec: dict) -> Scene:
    objects = tuple(
        SceneObject(
            id=checked(o["id"], int),
            category=o["category"],
            color=o["color"],
            size=o["size"],
            cell_x=checked(o["x"], int),
            cell_y=checked(o["y"], int),
        )
        for o in rec["objects"]
    )
    scene = Scene(scene_id=checked(rec["scene_id"], int), objects=objects,
                  target_index=checked(rec["target"], int))
    validate_scene(scene)
    return scene


def write_scenes(path: str | Path, scenes: list[Scene]) -> None:
    """One scene per line: {"scene_id", "objects": [...], "target"}."""
    write_jsonl(path, map(_scene_record, scenes))


def read_scenes(path: str | Path) -> list[Scene]:
    """The scenes of a file; an id that appears twice is a ValueError naming it."""
    scenes = read_jsonl(path, _scene_from_record, "scene")
    seen: set[int] = set()
    for sc in scenes:
        if sc.scene_id in seen:
            raise ValueError(f"{path}: scene id {sc.scene_id} appears more than once")
        seen.add(sc.scene_id)
    return scenes

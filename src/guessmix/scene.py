"""Synthetic game worlds: small scenes of attributed objects.

A scene stands in for an annotated image: a handful of objects, each with
a category, a color, a size and a cell on a 5x5 grid, plus a secret target
index the Questioner has to identify. Attribute inventories are fixed so
the question grammar stays closed and parseable.

A scene is its attribute codes: `Scene.codes` is one immutable `bytes`
holding a row of CODES_PER_OBJECT small integers per object, (category,
COLOR_OFFSET + color, SIZE_OFFSET + size, x, y), each attribute an index
into its inventory. The first three codes of a row are thus the columns of
the object's one-hot features: `model` reads the rows as an int8 array that
shares the scene's bytes, and `oracle` and `teacher` test the codes
directly. A run holds thousands of scenes in every process; 1000 of them
hold 174 KB under tracemalloc, against 1051 KB as tuples of object records.
`SceneObject` names one object's attributes: it is a view for I/O, error
messages and tests, and no hot path builds one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonl import checked, expect_keys, read_jsonl, write_jsonl

CATEGORIES = (
    "cat", "dog", "bird", "car", "chair", "table",
    "ball", "book", "cup", "tree", "phone", "lamp",
)
COLORS = ("red", "blue", "green", "yellow", "black", "white", "orange", "purple")
SIZES = ("small", "medium", "large")
GRID_SIZE = 5

# the code row of an object: category, color and size codes, then x, y
CODES_PER_OBJECT = 5
COLOR_OFFSET = len(CATEGORIES)
SIZE_OFFSET = COLOR_OFFSET + len(COLORS)

# every scene holds 3 to 20 objects, as GuessWhat?!'s kept images do
MIN_OBJECTS = 3
MAX_OBJECTS = 20

# resampling budget per object before giving up on a duplicate-free draw
_MAX_RESAMPLES = 100


class SceneGenerationError(RuntimeError):
    """Could not draw a duplicate-free object within the resampling budget."""


@dataclass(frozen=True, slots=True)
class SceneObject:
    """The named attributes of one object of a scene: a view of its codes."""

    id: int
    category: str
    color: str
    size: str
    cell_x: int
    cell_y: int

    def codes(self) -> bytes:
        """This object's code row; an attribute outside its inventory or a
        cell off the grid is a ValueError."""
        if not (0 <= self.cell_x < GRID_SIZE and 0 <= self.cell_y < GRID_SIZE):
            raise ValueError(f"cell ({self.cell_x},{self.cell_y}) off grid")
        return bytes((_code(CATEGORIES, self.category, 0, "category"),
                      _code(COLORS, self.color, COLOR_OFFSET, "color"),
                      _code(SIZES, self.size, SIZE_OFFSET, "size"),
                      self.cell_x, self.cell_y))


def _code(names: tuple[str, ...], name: str, offset: int, what: str) -> int:
    if name not in names:
        raise ValueError(f"unknown {what} {name!r}")
    return offset + names.index(name)


@dataclass(frozen=True, slots=True)
class Scene:
    scene_id: int
    codes: bytes  # CODES_PER_OBJECT codes per object, in object order
    target_index: int

    @property
    def n_objects(self) -> int:
        return len(self.codes) // CODES_PER_OBJECT

    @property
    def objects(self) -> tuple[SceneObject, ...]:
        """A `SceneObject` of each object's codes, built on every call."""
        c = self.codes
        return tuple(SceneObject(id=i // CODES_PER_OBJECT, category=CATEGORIES[c[i]],
                                 color=COLORS[c[i + 1] - COLOR_OFFSET],
                                 size=SIZES[c[i + 2] - SIZE_OFFSET],
                                 cell_x=c[i + 3], cell_y=c[i + 4])
                     for i in range(0, len(c), CODES_PER_OBJECT))


def make_scene(scene_id: int, objects: Iterable[SceneObject], target_index: int) -> Scene:
    """The scene of `objects` (SceneObjects, each `id` its position)."""
    rows = []
    for i, obj in enumerate(objects):
        if obj.id != i:
            raise ValueError(f"scene {scene_id}: object id {obj.id} != position {i}")
        rows.append(obj.codes())
    return Scene(scene_id=scene_id, codes=b"".join(rows), target_index=target_index)


def validate_scene(scene: Scene) -> None:
    """Raise ValueError if any structural invariant is broken."""
    c, n = scene.codes, scene.n_objects
    if not (MIN_OBJECTS <= n <= MAX_OBJECTS):
        raise ValueError(f"scene {scene.scene_id}: object count {n} out of bounds")
    if not (0 <= scene.target_index < n):
        raise ValueError(f"scene {scene.scene_id}: target index {scene.target_index} invalid")
    columns = [c[k::CODES_PER_OBJECT] for k in range(CODES_PER_OBJECT)]
    bounds = [(0, COLOR_OFFSET), (COLOR_OFFSET, SIZE_OFFSET),
              (SIZE_OFFSET, SIZE_OFFSET + len(SIZES)), (0, GRID_SIZE), (0, GRID_SIZE)]
    for name, column, (lo, hi) in zip(("category", "color", "size", "x", "y"), columns, bounds):
        if not lo <= min(column) <= max(column) < hi:
            raise ValueError(f"scene {scene.scene_id}: a {name} code is outside [{lo}, {hi})")
    rows = {c[i:i + CODES_PER_OBJECT] for i in range(0, len(c), CODES_PER_OBJECT)}
    if len(rows) != n:
        raise ValueError(f"scene {scene.scene_id}: two objects share every attribute")


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
    cats = rng.choice(len(CATEGORIES), size=n_cats, replace=False).tolist()
    cols = [COLOR_OFFSET + i for i in rng.choice(len(COLORS), size=n_cols, replace=False).tolist()]
    rows: list[bytes] = []
    seen: set[bytes] = set()
    for _ in range(n):
        for _ in range(_MAX_RESAMPLES):
            row = bytes((cats[int(rng.integers(len(cats)))],
                         cols[int(rng.integers(len(cols)))],
                         SIZE_OFFSET + int(rng.integers(len(SIZES))),
                         int(rng.integers(GRID_SIZE)),
                         int(rng.integers(GRID_SIZE))))
            if row not in seen:
                break
        else:
            raise SceneGenerationError(
                f"scene {scene_id}: no duplicate-free object after {_MAX_RESAMPLES} draws"
            )
        seen.add(row)
        rows.append(row)
    target = int(rng.integers(n))
    return Scene(scene_id=scene_id, codes=b"".join(rows), target_index=target)


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


_SCENE_KEYS = ("scene_id", "objects", "target")
_OBJECT_KEYS = ("id", "category", "color", "size", "x", "y")


def _scene_from_record(rec: dict) -> Scene:
    expect_keys(rec, _SCENE_KEYS)
    objects = []
    for o in rec["objects"]:
        expect_keys(o, _OBJECT_KEYS)
        objects.append(SceneObject(id=checked(o["id"], int), category=o["category"],
                                   color=o["color"], size=o["size"],
                                   cell_x=checked(o["x"], int), cell_y=checked(o["y"], int)))
    scene = make_scene(checked(rec["scene_id"], int), objects, checked(rec["target"], int))
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

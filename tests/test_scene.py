import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from guessmix import scene


def test_object_count_within_bounds():
    s = scene.generate_scene(np.random.default_rng(7))
    assert 3 <= len(s.objects) <= 20


def test_same_seed_same_scene():
    a = scene.generate_scene(np.random.default_rng(42), scene_id=5)
    b = scene.generate_scene(np.random.default_rng(42), scene_id=5)
    assert a == b


def test_scene_set_ids_and_determinism():
    scenes = scene.generate_scene_set(5, seed=1)
    assert [s.scene_id for s in scenes] == [0, 1, 2, 3, 4]
    again = scene.generate_scene_set(5, seed=1)
    assert scenes == again


def test_scene_set_prefix_stable_under_growth():
    short = scene.generate_scene_set(5, seed=9)
    long = scene.generate_scene_set(8, seed=9)
    assert long[:5] == short


def test_empty_set_rejected():
    with pytest.raises(ValueError, match="scene set size must be >= 1"):
        scene.generate_scene_set(0, seed=1)


def test_object_count_distribution_spans_range():
    scenes = scene.generate_scene_set(2000, seed=3)
    counts = {len(s.objects) for s in scenes}
    assert counts == set(range(3, 21))


def test_invariants_over_many_seeds():
    for seed in range(10_000):
        s = scene.generate_scene(np.random.default_rng(seed), scene_id=seed)
        scene.validate_scene(s)


def test_target_choice_uniform(monkeypatch):
    k = 10
    monkeypatch.setattr(scene, "MIN_OBJECTS", k)
    monkeypatch.setattr(scene, "MAX_OBJECTS", k)
    n = 10_000
    hits = np.zeros(k)
    for seed in range(n):
        s = scene.generate_scene(np.random.default_rng([5, seed]))
        assert len(s.objects) == k
        hits[s.target_index] += 1
    p = 1.0 / k
    bound = 3.0 * np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(hits / n - p) < bound)


def test_jsonl_round_trip(tmp_path):
    scenes = scene.generate_scene_set(20, seed=4)
    path = tmp_path / "scenes.jsonl"
    scene.write_scenes(path, scenes)
    assert scene.read_scenes(path) == scenes
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"scene_id", "objects", "target"}
    assert set(first["objects"][0]) == {"id", "category", "color", "size", "x", "y"}


def test_read_scenes_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"scene_id": 0, "objects": [], "target": 0}\n')
    with pytest.raises(ValueError, match="bad.jsonl"):
        scene.read_scenes(path)


def test_resampling_budget_exhausted_raises(monkeypatch):
    # a 1x1 grid with a 2x2 palette offers 12 attribute tuples, so 20
    # duplicate-free objects are impossible and the resample budget trips
    monkeypatch.setattr(scene, "_PALETTE_CATEGORIES", (2, 2))
    monkeypatch.setattr(scene, "_PALETTE_COLORS", (2, 2))
    monkeypatch.setattr(scene, "GRID_SIZE", 1)
    monkeypatch.setattr(scene, "MIN_OBJECTS", 20)
    with pytest.raises(scene.SceneGenerationError):
        scene.generate_scene(np.random.default_rng(0))


@pytest.mark.parametrize("n, seed, digest", [
    (200, 0, "c94b80f43bee33c994ebe956393d489e41536e4cde69167b5f200f2f515224e3"),
    (300, 7, "24327c76e52a6c5cb7f707595d5b8d922ecf34609d22b3dcf4c814063ddddbec"),
    (150, 12345, "43800308f3dc02d06fa462ed4f214bccbd364a18875a05e08e45eaf8ef11b54d"),
])
def test_scene_files_keep_their_bytes(tmp_path, n, seed, digest):
    # the digests of the files the program wrote when a scene held one
    # record per object: the codes draw and write the same scenes
    path, again = tmp_path / "scenes.jsonl", tmp_path / "again.jsonl"
    scene.write_scenes(path, scene.generate_scene_set(n, seed))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    scene.write_scenes(again, scene.read_scenes(path))
    assert again.read_bytes() == path.read_bytes()


def test_a_thousand_scenes_hold_under_400_kb():
    # one bytes of codes per scene; a tuple of object records took 1 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenes = scene.generate_scene_set(1000, seed=3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(scenes) == 1000
    assert held < 400 * 1024

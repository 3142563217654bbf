import numpy as np
import pytest

from guessmix import lang, oracle
from guessmix.scene import Scene, SceneObject, make_scene


def obj(category="cat", color="red", size="small", x=0, y=0, oid=0):
    return SceneObject(id=oid, category=category, color=color, size=size, cell_x=x, cell_y=y)


def row(**attributes):
    """The code row of `obj(**attributes)`."""
    return obj(**attributes).codes()


def one_object_scene(target: SceneObject) -> Scene:
    # padding objects so the scene is structurally valid
    extra1 = SceneObject(id=1, category="dog", color="blue", size="large", cell_x=4, cell_y=4)
    extra2 = SceneObject(id=2, category="bird", color="green", size="medium", cell_x=3, cell_y=3)
    return make_scene(0, (target, extra1, extra2), 0)


class TestEvalPredicate:
    def test_color_match(self):
        assert oracle.eval_predicate(row(color="red"), lang.QuestionSemantics("color", "red"))
        assert not oracle.eval_predicate(row(color="blue"), lang.QuestionSemantics("color", "red"))

    def test_category_and_size(self):
        assert oracle.eval_predicate(row(category="cat"), lang.QuestionSemantics("category", "cat"))
        assert oracle.eval_predicate(row(size="small"), lang.QuestionSemantics("size", "small"))

    def test_region_right_excludes_left_column(self):
        assert not oracle.eval_predicate(row(x=0), lang.QuestionSemantics("region", "right"))

    def test_region_center(self):
        assert oracle.eval_predicate(row(x=2, y=2), lang.QuestionSemantics("region", "center"))
        assert not oracle.eval_predicate(row(x=2, y=1), lang.QuestionSemantics("region", "center"))

    def test_region_bands(self):
        for x in range(5):
            assert oracle.eval_predicate(row(x=x), lang.QuestionSemantics("region", "left")) == (x <= 1)
            assert oracle.eval_predicate(row(x=x), lang.QuestionSemantics("region", "right")) == (x >= 3)
        for y in range(5):
            assert oracle.eval_predicate(row(y=y), lang.QuestionSemantics("region", "top")) == (y <= 1)
            assert oracle.eval_predicate(row(y=y), lang.QuestionSemantics("region", "bottom")) == (y >= 3)

    def test_every_cell_lies_in_some_region(self):
        for x in range(5):
            for y in range(5):
                hit = any(
                    oracle.eval_predicate(row(x=x, y=y), lang.QuestionSemantics("region", r))
                    for r in lang.REGIONS
                )
                assert hit, (x, y)


class TestAnswer:
    def test_truthful_when_noise_free(self):
        scene = one_object_scene(obj(color="red"))
        cfg = oracle.OracleConfig(0.0)
        rng = np.random.default_rng(0)
        assert oracle.answer(scene, ["is", "it", "red", "?"], cfg, rng) == "yes"
        assert oracle.answer(scene, ["is", "it", "blue", "?"], cfg, rng) == "no"

    def test_noise_one_always_flips(self):
        scene = one_object_scene(obj(color="red"))
        cfg = oracle.OracleConfig(1.0)
        rng = np.random.default_rng(0)
        assert oracle.answer(scene, ["is", "it", "red", "?"], cfg, rng) == "no"
        assert oracle.answer(scene, ["is", "it", "blue", "?"], cfg, rng) == "yes"

    def test_flip_rate_concentrates(self):
        scene = one_object_scene(obj(color="red"))
        cfg = oracle.OracleConfig(0.1)
        rng = np.random.default_rng(123)
        n = 100_000
        flips = sum(
            oracle.answer(scene, ["is", "it", "red", "?"], cfg, rng) == "no"
            for _ in range(n)
        )
        assert abs(flips / n - 0.1) < 0.01

    def test_noise_free_oracle_is_pure(self):
        scene = one_object_scene(obj(category="cat"))
        cfg = oracle.OracleConfig(0.0)
        q = ["is", "it", "a", "cat", "?"]
        answers = {
            oracle.answer(scene, q, cfg, np.random.default_rng(seed)) for seed in range(50)
        }
        assert answers == {"yes"}

    def test_unparseable_always_no(self):
        scene = one_object_scene(obj())
        for noise in (0.0, 0.5, 1.0):
            cfg = oracle.OracleConfig(noise)
            for seed in range(20):
                rng = np.random.default_rng(seed)
                assert oracle.answer(scene, ["cat", "cat", "cat", "?"], cfg, rng) == "no"

    def test_bad_noise_rate_rejected(self):
        with pytest.raises(ValueError):
            oracle.OracleConfig(-0.1)
        with pytest.raises(ValueError):
            oracle.OracleConfig(1.5)

import numpy as np
import pytest

import teacher_reference
from guessmix import lang, metrics, oracle, scene, teacher
from guessmix.scene import SceneObject, make_scene


def build_scene(specs, target=0, scene_id=0):
    """specs: list of (category, color, size, x, y)."""
    objects = tuple(
        SceneObject(id=i, category=c, color=col, size=s, cell_x=x, cell_y=y)
        for i, (c, col, s, x, y) in enumerate(specs)
    )
    return make_scene(scene_id, objects, target)


def next_question(scene, candidates, asked, rng):
    """The teacher's pick for the `candidates` (object indices) of `scene`."""
    return teacher._next_question(teacher._truth_masks(scene), sum(1 << i for i in candidates),
                                  asked, rng)


class TestNextQuestion:
    def test_prefers_even_color_split(self):
        scene = build_scene([
            ("cat", "red", "small", 0, 0),
            ("cat", "red", "small", 1, 0),
            ("cat", "blue", "small", 0, 1),
            ("cat", "blue", "small", 1, 1),
        ])
        candidates = [0, 1, 2, 3]
        for seed in range(20):
            sem, _ = next_question(scene, candidates, set(), np.random.default_rng(seed))
            n_yes = sum(
                oracle.eval_predicate(scene.objects[i].codes(), sem) for i in candidates
            )
            assert abs(2 * n_yes - 4) == 0  # perfectly balanced
        assert any(
            next_question(scene, candidates, set(), np.random.default_rng(s))[0]
            in (lang.QuestionSemantics("color", "red"), lang.QuestionSemantics("color", "blue"))
            for s in range(20)
        )

    def test_never_asks_zero_information_question(self):
        # all candidates share the category; color splits them
        scene = build_scene([
            ("cat", "red", "small", 0, 0),
            ("cat", "blue", "small", 1, 0),
            ("cat", "red", "large", 0, 1),
        ])
        for seed in range(50):
            sem, _ = next_question(scene, [0, 1, 2], set(), np.random.default_rng(seed))
            assert sem.kind != lang.KIND_CATEGORY

    def test_exhausted_when_candidates_indistinguishable(self):
        # identical attributes, same region class, differing only in exact cell
        scene = build_scene([
            ("cat", "red", "small", 0, 0),
            ("cat", "red", "small", 1, 1),
            ("dog", "blue", "large", 4, 4),
        ])
        assert next_question(scene, [0, 1], set(), np.random.default_rng(0)) is None

    def test_binary_attributes_solved_in_log_turns(self):
        # 8 objects spanning 2 categories x 2 colors x 2 sizes
        specs = []
        for i, cat in enumerate(("cat", "dog")):
            for j, col in enumerate(("red", "blue")):
                for k, size in enumerate(("small", "large")):
                    specs.append((cat, col, size, i * 2 + j, k * 2))
        for target in range(8):
            scene = build_scene(specs, target=target)
            d = teacher.play_teacher_game(
                scene, oracle.OracleConfig(0.0), rng=np.random.default_rng(target)
            )
            assert d.success
            assert len(d.turns) <= 4  # ceil(log2 8) plus one question of slack


class TestCollect:
    def test_distinguishable_scenes_always_succeed(self):
        # every object in its own category: always solvable at noise 0
        cats = ("cat", "dog", "bird", "car", "chair", "table")
        scenes = [
            build_scene(
                [(c, "red", "small", i % 5, i // 5) for i, c in enumerate(cats)],
                target=t % len(cats), scene_id=t,
            )
            for t in range(30)
        ]
        corpus = teacher.collect_teacher_corpus(scenes, oracle.OracleConfig(0.0), seed=5)
        assert len(corpus) == len(scenes)
        assert all(d.success for d in corpus)
        assert metrics.grq(corpus) == 0.0

    def test_teacher_corpus_never_repeats(self, small_teacher_corpus):
        assert metrics.grq(small_teacher_corpus) == 0.0
        for d in small_teacher_corpus:
            assert d.source == "human"
            assert len(d.turns) <= teacher.MAX_TURNS

    def test_games_stop_at_the_question_budget(self, small_scenes, monkeypatch):
        monkeypatch.setattr(teacher, "MAX_TURNS", 2)
        rng = np.random.default_rng(0)
        lengths = [len(teacher.play_teacher_game(sc, oracle.OracleConfig(0.0), rng).turns)
                   for sc in small_scenes]
        assert max(lengths) == 2

    def test_noisy_collection_still_respects_filter(self, small_scenes):
        corpus = teacher.collect_teacher_corpus(small_scenes, oracle.OracleConfig(0.4), seed=9)
        assert len(corpus) < len(small_scenes)  # the filter dropped a failed game
        for d in corpus:
            assert d.success
            assert len(d.turns) <= teacher.MAX_TURNS

    def test_determinism(self, small_scenes):
        a = teacher.collect_teacher_corpus(small_scenes, oracle.OracleConfig(0.0), seed=3)
        b = teacher.collect_teacher_corpus(small_scenes, oracle.OracleConfig(0.0), seed=3)
        assert a == b

    def test_mean_turns_near_log_object_count(self, small_scenes, small_teacher_corpus):
        mean_objects = np.mean([len(s.objects) for s in small_scenes])
        mean_turns = np.mean([len(d.turns) for d in small_teacher_corpus])
        assert 1.0 <= mean_turns <= np.log2(mean_objects) + 2.0

    def test_questions_parse_back(self, small_teacher_corpus):
        for d in small_teacher_corpus:
            for t in d.turns:
                assert lang.parse_question(t.question) is not None


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_bitmask_teacher_plays_the_per_object_dialogues(noise):
    cfg = oracle.OracleConfig(noise)
    scenes = scene.generate_scene_set(250, seed=21)
    for sc in scenes:
        assert (teacher.play_teacher_game(sc, cfg, np.random.default_rng([4, sc.scene_id]))
                == teacher_reference.play_teacher_game(sc, cfg,
                                                       np.random.default_rng([4, sc.scene_id])))


def test_selector_matches_the_per_object_selector_on_any_candidates():
    # games reach only the candidate sets their answers leave; this draws others
    rng = np.random.default_rng(35)
    picks = []
    for sc in scene.generate_scene_set(300, 17):
        objects = sc.objects
        for _ in range(3):
            size = int(rng.integers(2, sc.n_objects + 1))
            candidates = rng.choice(sc.n_objects, size=size, replace=False).tolist()
            share = rng.random()  # of the questions already asked
            asked = {sem for sem in lang.ALL_SEMANTICS if rng.random() < share}
            seed = int(rng.integers(2**32))
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            pick = next_question(sc, candidates, asked, ours)
            assert pick == teacher_reference.next_question([objects[i] for i in candidates],
                                                           asked, ref)
            assert ours.random() == ref.random()  # both drew the same numbers
            picks.append(pick)
    assert None in picks
    assert any(p is not None for p in picks)

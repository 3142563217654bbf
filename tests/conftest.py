import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from guessmix import oracle, parallel, scene, teacher
from guessmix.dialogue import Dialogue, Turn


@pytest.fixture(scope="session")
def small_scenes():
    return scene.generate_scene_set(40, seed=7)


@pytest.fixture
def started(monkeypatch):
    """(pid, read end) of each child `parallel` forks during the test, in order."""
    started, fork = [], parallel._fork
    monkeypatch.setattr(parallel, "_fork",
                        lambda *args: started.append(fork(*args)) or started[-1])
    return started


@pytest.fixture(scope="session")
def small_teacher_corpus(small_scenes):
    return teacher.collect_teacher_corpus(
        small_scenes, oracle.OracleConfig(0.0), seed=3
    )


def make_dialogue(questions, game_id=0, scene_id=0, source="human",
                  answers=None, guess=0, success=True):
    """Build a dialogue from plain question strings."""
    answers = answers or ["yes"] * len(questions)
    turns = tuple(
        Turn(question=tuple(q.split()), answer=a) for q, a in zip(questions, answers)
    )
    return Dialogue(game_id=game_id, scene_id=scene_id, source=source,
                    turns=turns, guess=guess, success=success)

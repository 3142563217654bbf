import pickle

import pytest

from conftest import make_dialogue
from guessmix import dialogue


def test_round_trip(tmp_path):
    corpus = [
        make_dialogue(["is it red ?", "is it a cat ?"], game_id=3, scene_id=3,
                      answers=["yes", "no"], guess=2, success=False),
        make_dialogue(["is it small ?"], game_id=4, scene_id=4,
                      source="generated", guess=0, success=True),
    ]
    path = tmp_path / "dialogues.jsonl"
    dialogue.write_dialogues(path, corpus)
    assert dialogue.read_dialogues(path) == corpus


def test_special_tokens_survive_serialization(tmp_path):
    d = make_dialogue(["<yes> <unk> weird ?"], source="generated")
    path = tmp_path / "dialogues.jsonl"
    dialogue.write_dialogues(path, [d])
    assert dialogue.read_dialogues(path) == [d]


def test_bad_source_reported_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"game_id": 0, "scene_id": 0, "source": "alien", "turns": [], '
        '"guess": 0, "success": true}\n'
    )
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        dialogue.read_dialogues(path)


def test_bad_answer_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"game_id": 0, "scene_id": 0, "source": "human", '
        '"turns": [{"q": "is it red ?", "a": "maybe"}], "guess": 0, "success": true}\n'
    )
    with pytest.raises(ValueError, match="maybe"):
        dialogue.read_dialogues(path)


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        dialogue.read_dialogues(path)


def test_a_grammatical_turn_is_shared_and_a_malformed_one_is_its_own():
    shared = dialogue.make_turn(["is", "it", "red", "?"], "yes")
    assert shared is dialogue.make_turn(("is", "it", "red", "?"), "yes")
    assert shared is not dialogue.make_turn(["is", "it", "red", "?"], "no")
    assert pickle.loads(pickle.dumps(shared)) is shared
    for question in (["is", "it", "red"], ["<yes>", "<unk>", "?"]):
        own = dialogue.make_turn(question, "no")
        fresh = dialogue.Turn(tuple(question), "no")
        assert own is not dialogue.make_turn(question, "no")
        assert (type(own), own.question, own.answer) == (type(fresh), fresh.question,
                                                         fresh.answer)
        assert pickle.loads(pickle.dumps(own)) == fresh
    # a question has at least one token: the decoder never ends one at its
    # first step, so only a file can hold an empty one
    with pytest.raises(ValueError, match="empty question"):
        dialogue.make_turn([], "no")


@pytest.mark.parametrize("answer", ["maybe", "Yes", "", None, True])
def test_make_turn_refuses_a_bad_answer(answer):
    with pytest.raises(ValueError, match=f"unknown answer {answer!r}"):
        dialogue.make_turn(["is", "it", "red", "?"], answer)

"""Tests of the benchmark's own code: span arithmetic, smoke runs, checks."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from guessmix import metrics, selfplay  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(name, start, end, parent, run_id=1):
    return [name, start, end, parent, run_id]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("bench.round", 0.0, 10.0, -1),
        span("model.train", 1.0, 4.0, 0),
        span("model.loss_and_grads", 2.0, 3.0, 1),
        span("corpus.make_batches", 3.5, 6.0, 0),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])
    assert tracing.covered([(0, 2), (1, 3), (5, 9)], 1, 6) == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_functions():
    class Fake:
        pass

    mod = Fake()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "model.inner")
    tracer.wrap(mod, "outer", "model.outer")
    tracer.run = 7
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is original
    (outer, inner), = tracing.split_runs(tracer.spans)
    assert outer[tracing.NAME] == "model.outer" and outer[tracing.PARENT] == -1
    assert inner[tracing.PARENT] == 0 and inner[tracing.RUN] == 7
    assert outer[tracing.START] <= inner[tracing.START] <= inner[tracing.END] <= outer[tracing.END]


def test_split_runs_makes_parent_indices_local():
    spans = [span("bench.round", 0, 1, -1, 1), span("bench.round", 2, 5, -1, 2),
             span("model.train", 3, 4, 1, 2)]
    first, second = tracing.split_runs(spans)
    assert len(first) == 1
    assert second[1][tracing.PARENT] == 0


def test_round_profile_assigns_cli_stages():
    spans = [
        span("bench.round", 0.0, 20.0, -1),
        span("cli.run_experiment", 0.0, 20.0, 0),
        span("scene.generate_scene_set", 0.0, 1.0, 1),
        span("dialogue.read_dialogues", 1.0, 1.5, 1),
        span("model.train", 2.0, 6.0, 1),
        span("model.loss_and_grads", 2.0, 5.0, 4),
        span("model.train", 7.0, 10.0, 1),
        span("metrics.evaluate", 11.0, 12.0, 1),
    ]
    prof = tracing.round_profile(spans)
    assert prof["trace.round_s"] == pytest.approx(20.0)
    assert prof["cli.stage.scenes_frac"] == pytest.approx(1.0 / 20)
    assert prof["cli.stage.io_frac"] == pytest.approx(0.5 / 20)
    assert prof["cli.stage.base_train_frac"] == pytest.approx(4.0 / 20)
    assert prof["cli.stage.retrain_frac"] == pytest.approx(3.0 / 20)
    assert prof["cli.stage.evaluate_frac"] == pytest.approx(1.0 / 20)
    assert prof["cli.self_frac"] == pytest.approx((20.0 - 9.5) / 20)
    assert prof["model.train.self_frac"] == pytest.approx((1.0 + 3.0) / 20)
    assert prof["model.loss_and_grads.busy_frac"] == pytest.approx(3.0 / 20)
    assert prof["model.loss_and_grads.calls"] == 1
    assert prof["selfplay.self_frac"] == 0.0


@pytest.mark.parametrize("workload", ["play", "pipeline"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(workload, trace, tmp_path):
    metrics, record = run.measure(workload, 3, 0.0, trace, workloads.TINY, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 3
    assert len(record["outputs_sha256"]) == 64
    if not trace:
        assert all(v > 0 for v in metrics.values())
    elif workload == "play":
        assert metrics["model.decode_question.calls"] > 0
        assert metrics["model.loss_and_grads.calls"] == 0
    else:
        assert metrics["cli.stage.retrain_frac"] > 0


def test_same_seed_gives_same_outputs(tmp_path):
    inputs = workloads.setup_play(5, workloads.TINY, tmp_path)
    again = workloads.setup_play(5, workloads.TINY, tmp_path)
    assert workloads.round_play(inputs).digest == workloads.round_play(again).digest


def test_perturbed_output_counts_as_failed(tmp_path, monkeypatch):
    inputs = workloads.setup_play(4, workloads.TINY, tmp_path)
    calls = {"n": 0}
    real_evaluate = metrics.evaluate

    def perturbed_on_second_call(*args, **kwargs):
        row = real_evaluate(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 2:
            row.mo += 0.01
        return row

    monkeypatch.setattr(metrics, "evaluate", perturbed_on_second_call)
    rounds = run.run_rounds(workloads.round_play, workloads.check_play, inputs,
                            seconds=0.0, min_rounds=3)
    record = run._finish({}, rounds)
    assert (record["attempted"], record["failed"]) == (3, 1)
    assert record["failed_frac"] == pytest.approx(1 / 3)
    assert "round 2" in record["failures"][0]


def test_play_check_catches_wrong_turns_and_ranges(tmp_path, monkeypatch):
    inputs = workloads.setup_play(6, workloads.TINY, tmp_path)
    good = workloads.round_play(inputs)
    assert workloads.check_play(good, good) == []
    real_play_game = selfplay.play_game

    def drops_last_turn(*args, **kwargs):
        game = real_play_game(*args, **kwargs)
        game.dialogue.turns = game.dialogue.turns[:-1]
        return game

    monkeypatch.setattr(selfplay, "play_game", drops_last_turn)
    problems = workloads.check_play(workloads.round_play(inputs), good)
    assert any("turns, want" in p for p in problems)
    assert any("differ from the first round" in p for p in problems)
    wrong_row = dataclasses.replace(good, detail={"row": dataclasses.replace(
        good.detail["row"], mo=1.5)})
    assert any("mo" in p for p in workloads.check_play(wrong_row, good))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "play", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

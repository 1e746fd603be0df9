"""Tests of the benchmark itself: generator, tracer and output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import outputs
import planted
import run
import spans
from planted import World, WorldSpec

ROOT = Path(__file__).resolve().parent.parent

TINY = WorldSpec(
    library_steps=20, alternatives=1, preferred_share=1.0, optional_steps=1, optional_rate=0.2,
    labelled=16, narrated=10, typo_share=0.02,
)


def test_generator_is_deterministic(tmp_path):
    def files(seed, name):
        paths = planted.write_world(planted.generate_world("narrated", seed), tmp_path / name)
        return {key: path.read_bytes() for key, path in paths.items()}

    first = files(3, "a")
    assert files(3, "b") == first
    assert files(4, "c")["corpus"] != first["corpus"]
    world = planted.generate_world("narrated", 3)
    assert world.truth == planted.generate_world("narrated", 3).truth
    # The planted truth never reaches the program's inputs.
    assert b"truth" not in first["corpus"]


def _originals():
    found = {}
    for module_name, attribute, _ in spans.TARGETS:
        owner, leaf = spans._resolve(module_name, attribute)
        found[(module_name, attribute)] = owner.__dict__[leaf]
    return found


def test_traced_artifacts_match_untraced_and_wrappers_are_restored(tmp_path):
    from scriptweave.cli import run_command

    world = planted.generate_world("tiny", 5, TINY)
    inputs = planted.write_world(world, tmp_path / "inputs")
    before = _originals()
    tally = run.Tally()
    run.run_in_process(run_command, run.stage_argvs(inputs, tmp_path / "plain", 5), tally)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        assert _originals() != before
        run.run_in_process(
            run_command, run.stage_argvs(inputs, tmp_path / "traced", 5), tally, recorder
        )
    assert tally.failures == []
    assert outputs.digests(tmp_path / "plain") == outputs.digests(tmp_path / "traced")
    assert _originals() == before

    metrics = recorder.per_layer_metrics()
    names = {name for name, _, _ in spans.per_layer_names()}
    assert names - set(metrics) == {
        *(f"cli.{stage}.peak_rss_mb" for stage in spans.STAGES),
        "evalharness.next_acc1", "evalharness.completion_ned", "trace.overhead_share",
    }
    assert metrics["similarity.similarity.calls"] > 0
    assert metrics["grounding.ground_asr_sequence.calls"] > 0
    assert 0.0 < metrics["cli.ground.s"] and metrics["similarity.similarity.self_s"] > 0.0
    assert metrics["decoder.expansions"] <= metrics["pathmodel.next_step_distribution.calls"]


def test_ground_acc_and_repeat_pair_share_on_hand_built_world(tmp_path):
    from scriptweave.cli import run_command

    steps = ["sand the kavo", "glue the pirex", "paint the dulom"]
    narration = "okay so here we go with something else entirely today my friends"
    world = World(
        tasks=[{"task_id": "t1", "task_name": planted.TASK_NAME}],
        docs=[
            {"title": "How to Assemble Cedar Planter Box", "steps": steps},
            {"title": "quick pasta dinner recipe", "steps": ["boil the water"]},
        ],
        corpus=[
            {"video_id": "v0", "task_id": "t1", "kind": "labelled",
             "items": [{"text": steps[0]}, {"text": steps[1]}]},
            # Same items as v0, so all six of its pair scores repeat; planted with a
            # third step it never shows, so it grounds wrongly.
            {"video_id": "v1", "task_id": "t1", "kind": "labelled",
             "items": [{"text": steps[0]}, {"text": steps[1]}]},
            {"video_id": "v2", "task_id": "t1", "kind": "asr",
             "title": "quick pasta dinner recipe", "items": [{"text": narration}]},
        ],
        truth={"v0": (steps[:2], True), "v1": (steps, True), "v2": ([], False)},
        clean_share=1.0,
    )
    inputs = planted.write_world(world, tmp_path / "inputs")
    out = tmp_path / "out"
    recorder = spans.Recorder()
    tally = run.Tally()
    with spans.traced(recorder):
        run.run_in_process(run_command, run.stage_argvs(inputs, out, 1)[:2], tally, recorder)
    assert tally.failures == []

    # v0 exact, v1 misses its third step, v2 is off task and skipped.
    assert outputs.ground_acc(world, out) == 2 / 3
    metrics = recorder.per_layer_metrics()
    # library: one title score; ground: 2 items x 3 steps for v0 and v1, one title for v2.
    assert metrics["similarity.similarity.calls"] == 1 + 6 + 6 + 1
    assert metrics["similarity.repeat_pair_share"] == 6 / 14
    assert metrics["grounding.grounded_share"] == 2 / 3
    assert metrics["grounding.item_drop_share"] == 0.0


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(planted.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        spans.per_layer_names()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrated", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Checks on a pipeline's artifacts against the planted truth.

The benchmark compares what the program wrote with what the generator
planted: the grounded step sequences against each video's planted path,
and the model's evaluation scores against floors derived from the
world's shape. Every artifact's sha256 is the run's output fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from planted import SLOTS, World, WorldSpec


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in ``out_dir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def fingerprint(file_digests: dict[str, str]) -> str:
    """One digest over all artifacts."""
    lines = "".join(f"{name} {digest}\n" for name, digest in sorted(file_digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def ground_acc(world: World, out_dir: Path) -> float:
    """Share of videos grounded to exactly their planted step texts.

    An off-task video counts as correct when grounding skipped it; an
    on-task video counts as wrong when it was skipped.
    """
    library = json.loads((out_dir / "library.grounded.json").read_text(encoding="utf-8"))
    texts = {step["step_id"]: step["normalized_text"] for step in library["steps"]}
    grounded = {}
    for line in (out_dir / "grounded.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        grounded[row["video_id"]] = [texts[step_id] for step_id in row["step_ids"]]
    correct = 0
    for video_id, (path, on_task) in world.truth.items():
        if video_id in grounded:
            correct += on_task and grounded[video_id] == path
        else:
            correct += not on_task
    return correct / len(world.truth)


def model_scores(out_dir: Path) -> tuple[float, float]:
    """The path model's next-step Acc@1 and completion NormalizedEditDist."""
    model = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))["systems"]["model"]
    return model["next_step"]["Acc@1"], model["completion"]["NormalizedEditDist"]


def graph_size(out_dir: Path) -> tuple[int, int]:
    graph = json.loads((out_dir / "graph.json").read_text(encoding="utf-8"))
    return len(graph["nodes"]), len(graph["edges"])


def floors(spec: WorldSpec, world: World) -> dict[str, float]:
    """Lowest acceptable scores for a world.

    ground_acc: nine in ten videos without a misspelt step must ground
    exactly. next_acc1: the model must reach half the accuracy of a
    guess made uniformly among the alternatives of the next slot.
    """
    alternatives = spec.alternatives or spec.library_steps / SLOTS
    return {
        "ground_acc": 0.9 * world.clean_share,
        "next_acc1": 0.5 / alternatives,
    }

"""Benchmark of the scriptweave pipeline on seeded planted worlds.

Run from the repository root:

    python3 perfbench/run.py --workload narrated --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Workloads are defined in ``planted.py``; ``--workload all`` runs each in
turn, each in a fresh runner process. The generator builds the world from ``--seed``; the program only
sees the task, document and corpus files.

Untraced run (``--trace 0``): the eight CLI commands run the way a user
runs them, each a fresh ``python -m scriptweave.cli`` process, in order,
with default settings. The whole pipeline repeats while ``--seconds``
allow (at least once) and times are medians over repetitions. Every run
checks exit codes, that repetitions give identical artifact digests, and
that grounding accuracy, the model's next-step accuracy and (for a single
planted path) the graph clear floors set from the planted world.

Traced run (``--trace 1``): one process-per-command pipeline gives each
stage's peak RSS and the reference artifacts. Then pairs of in-process
pipelines run through ``run_command``: one plain, one with the
wrappers of ``spans.py`` installed. Per-layer times are medians over
pairs; the traced artifacts must equal the reference byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import outputs
import spans
from planted import WORKLOADS, generate_world, write_world

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
COMMAND_TIMEOUT = 150.0
SETUP_LAUNCHES = 9
REFIT = ("train", "losses", "decode", "graph", "eval")
END_TO_END = [
    ("pipeline_s", "s"),
    ("ground_s", "s"),
    ("refit_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ground_acc", "share"),
]


class Tally:
    """Operations attempted and failed: commands run and checks made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def stage_argvs(inputs: dict[str, Path], out_dir: Path, seed: int) -> list[tuple[str, list[str]]]:
    common = ["--seed", str(seed), "--out-dir", str(out_dir)]
    tasks = ["--tasks", str(inputs["tasks"])]
    first = {
        "library": tasks + ["--docs", str(inputs["docs"])],
        "ground": tasks + ["--corpus", str(inputs["corpus"])],
    }
    return [(stage, [stage, *first.get(stage, []), *common]) for stage in spans.STAGES]


def launch(argv: list[str], env: dict[str, str], log) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB)."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
    watchdog = threading.Timer(COMMAND_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def run_pipeline(argvs, env, log, tally: Tally) -> dict[str, tuple[int, float, float]]:
    """The eight commands as separate processes; every one counts as an operation."""
    results = {}
    for stage, argv in argvs:
        results[stage] = launch([sys.executable, "-m", "scriptweave.cli", *argv], env, log)
        tally.check(results[stage][0] == 0, f"{stage} exited with {results[stage][0]}")
    return results


def run_in_process(run_command, argvs, tally: Tally, recorder=None) -> float:
    """The eight commands through ``run_command`` in this process; wall seconds."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for stage, argv in argvs:
            if recorder is None:
                code = run_command(argv)
            else:
                code = recorder.run_stage(stage, run_command, argv)
            tally.check(code == 0, f"in-process {stage} exited with {code}")
    return time.perf_counter() - started


def check_outputs(workload: str, world, out_dir: Path, tally: Tally) -> dict[str, float]:
    """Quality checks on one pipeline's artifacts; returns the measured scores."""
    spec = WORKLOADS[workload]
    floor = outputs.floors(spec, world)
    try:
        acc = outputs.ground_acc(world, out_dir)
        next_acc1, completion_ned = outputs.model_scores(out_dir)
        nodes, edges = outputs.graph_size(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        tally.check(False, f"artifacts unreadable: {exc!r}")
        return {"ground_acc": 0.0, "next_acc1": 0.0, "completion_ned": 0.0, "nodes": 0, "edges": 0}
    tally.check(acc >= floor["ground_acc"], f"ground_acc {acc:.4f} < {floor['ground_acc']:.4f}")
    tally.check(next_acc1 >= floor["next_acc1"],
                f"next_acc1 {next_acc1:.4f} < {floor['next_acc1']:.4f}")
    if spec.alternatives == 1:  # a single planted path must decode to a graph
        tally.check(nodes > 0 and edges > 0, "graph is empty")
    return {"ground_acc": acc, "next_acc1": next_acc1, "completion_ned": completion_ned,
            "nodes": nodes, "edges": edges}


def report_fingerprint(workload: str, seed: int, file_digests: dict[str, str]) -> None:
    """Print the artifact digests and any change since the last run of this seed here."""
    print(f"fingerprint {workload} seed={seed} {outputs.fingerprint(file_digests)}")
    for name, digest in file_digests.items():
        print(f"  {digest}  {name}")
    store = WORK / "fingerprints" / f"{workload}-{seed}.json"
    if store.exists():
        previous = json.loads(store.read_text(encoding="utf-8"))
        changed = sorted(n for n in previous.keys() | file_digests.keys()
                         if previous.get(n) != file_digests.get(n))
        if changed:
            print(f"fingerprint changed since the last run here: {', '.join(changed)}")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(file_digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def untraced(workload: str, seed: int, seconds: float, rundir: Path, tally: Tally):
    world = generate_world(workload, seed)
    inputs = write_world(world, rundir / "inputs")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(rundir / "stderr.log", "wb") as log:
        deadline = time.perf_counter() + seconds
        setup = []
        for _ in range(SETUP_LAUNCHES):
            code, elapsed, _ = launch([sys.executable, "-c", "import scriptweave.cli"], env, log)
            tally.check(code == 0, f"import exited with {code}")
            setup.append(elapsed)
        reps = []
        reference = None
        while True:
            out_dir = rundir / f"out{len(reps)}"
            started = time.perf_counter()
            reps.append(run_pipeline(stage_argvs(inputs, out_dir, seed), env, log, tally))
            took = time.perf_counter() - started
            file_digests = outputs.digests(out_dir)
            if reference is None:
                reference = file_digests
                scores = check_outputs(workload, world, out_dir, tally)
            else:
                tally.check(file_digests == reference, "artifacts differ between repetitions")
                shutil.rmtree(out_dir)
            if time.perf_counter() + took > deadline:
                break

    def median_of(stages):
        return statistics.median(sum(rep[s][1] for s in stages) for rep in reps)

    metrics = {
        "pipeline_s": median_of(spans.STAGES),
        "ground_s": median_of(("ground",)),
        "refit_s": median_of(REFIT),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(r[2] for r in rep.values()) for rep in reps),
        "ground_acc": scores["ground_acc"],
    }
    print(f"workload {workload} seed={seed}: {len(reps)} pipelines, "
          f"{len(world.truth)} videos, {SETUP_LAUNCHES} import launches")
    for stage in spans.STAGES:
        print(f"  {stage:<8} {statistics.median(rep[stage][1] for rep in reps):9.4f} s"
              f"  {statistics.median(rep[stage][2] for rep in reps):7.1f} MB")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<15} {value:.4f} {units[name]}")
    print(f"  {'next_acc1':<15} {scores['next_acc1']:.4f} share")
    print(f"  {'completion_ned':<15} {scores['completion_ned']:.4f} share")
    print(f"  graph           {scores['nodes']} nodes, {scores['edges']} edges")
    report_fingerprint(workload, seed, reference)
    return {name: (metrics[name], unit) for name, unit in END_TO_END}


def traced_run(workload: str, seed: int, seconds: float, rundir: Path, tally: Tally):
    world = generate_world(workload, seed)
    inputs = write_world(world, rundir / "inputs")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    deadline = time.perf_counter() + seconds
    reference_dir = rundir / "reference"
    with open(rundir / "stderr.log", "wb") as log:
        stages = run_pipeline(stage_argvs(inputs, reference_dir, seed), env, log, tally)
    reference = outputs.digests(reference_dir)
    scores = check_outputs(workload, world, reference_dir, tally)

    sys.path.insert(0, str(SRC))
    from scriptweave.cli import run_command

    plain_times, traced_times, runs = [], [], []
    while True:
        plain_dir, traced_dir = rundir / "plain", rundir / "traced"
        recorder = spans.Recorder()
        # Alternate which of the pair runs first, so drift of the host hits both alike.
        for traced_turn in (False, True) if len(runs) % 2 == 0 else (True, False):
            if traced_turn:
                with spans.traced(recorder):
                    traced_times.append(run_in_process(
                        run_command, stage_argvs(inputs, traced_dir, seed), tally, recorder))
            else:
                plain_times.append(run_in_process(
                    run_command, stage_argvs(inputs, plain_dir, seed), tally))
        tally.check(outputs.digests(plain_dir) == reference, "in-process artifacts differ")
        tally.check(outputs.digests(traced_dir) == reference, "traced artifacts differ")
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)
        runs.append(recorder.per_layer_metrics())
        if time.perf_counter() + plain_times[-1] + traced_times[-1] > deadline:
            break
    counts = [name for name, unit, _ in spans.per_layer_names() if unit in ("count", "bytes")]
    tally.check(all(run[key] == runs[0][key] for run in runs for key in counts if key in run),
                "per-layer counts differ between traced pipelines")
    recorder.save(WORK / f"spans-{workload}.npz")

    metrics = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    for stage in spans.STAGES:
        metrics[f"cli.{stage}.peak_rss_mb"] = stages[stage][2]
    metrics["evalharness.next_acc1"] = scores["next_acc1"]
    metrics["evalharness.completion_ned"] = scores["completion_ned"]
    metrics["trace.overhead_share"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    )
    print(f"workload {workload} seed={seed}: {len(runs)} traced pipelines, "
          f"overhead {metrics['trace.overhead_share']:.3f}")
    self_times = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    for value, name in self_times[:6]:
        print(f"  {name:<45} {value:9.4f} s")
    return {name: (metrics[name], unit) for name, unit, _ in spans.per_layer_names()}


def run_workload(workload: str, args, tally: Tally) -> dict[str, tuple[float, str]]:
    rundir = WORK / f"run-{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else untraced
        return run(workload, args.seed, args.seconds, rundir, tally)
    finally:
        log = rundir / "stderr.log"
        if tally.failures and log.exists():
            print("stderr of the failed run (last 40 lines):")
            print("\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-40:]))
        shutil.rmtree(rundir, ignore_errors=True)


def run_each(args) -> dict:
    """Every workload in a fresh runner process.

    A child's peak RSS includes the memory its parent held when it
    started it, so no workload's processes start from a runner that
    already holds another workload's in-process state.
    """
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        one = json.loads(last)
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{workload}.{k}": v for k, v in one["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scriptweave" / "cli.py").is_file():
        print(f"no scriptweave sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_each(args)))
        return 0
    for key in [k for k in os.environ if k.startswith("SCRIPTWEAVE_")]:
        del os.environ[key]  # the benchmark runs the default settings

    tally = Tally()
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run_workload(args.workload, args, tally).items()}
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline driver.

Each subcommand reads its inputs and the artifacts of earlier stages
from a shared output directory and writes its own artifacts there:

    library   library.json
    ground    library.grounded.json, grounded.jsonl
    stats     stats.json
    train     pathmodel.json
    losses    losses.json
    decode    decoded.jsonl
    graph     graph.json, graph.dot
    eval      metrics.json, metrics.txt

Settings merge with increasing precedence: built-in defaults, then a
``key = value`` config file (full-line # comments allowed), then
SCRIPTWEAVE_* environment variables, then command-line flags; all three give
text that _parsed reads by one rule. A seed is required; given the same
inputs, settings, and seed every artifact is byte-identical across runs.

Each stage runs as its own process and computes with the standard
library only; the HTTP client is imported inside the embedding client, so
only a stage with embedding_url set loads it. main() ends that process
without tearing the interpreter down; run_command never ends one.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import random
import sys
from pathlib import Path

from . import corpus as corpuslib
from .contrastive import (
    curriculum_mixture,
    draw_negative_method,
    generate_negative,
    path_level_losses,
    sequence_representation,
    step_vectors,
)
from .corpus import corpus_statistics, is_finite, load_candidate_docs, load_raw_records, load_tasks
from .decoder import (
    build_prefix_trie,
    constrained_beam_search,
    decoded_to_rows,
    load_decoded,
)
from .errors import BadConfig, BadInput, DegenerateInput, EmptySequence, ScriptweaveError
from .evalharness import (
    baseline_complete,
    baseline_predict,
    build_eval_splits,
    completion_metrics,
    greedy_completion,
    metrics_table,
    model_complete,
    model_predict_next,
    next_step_metrics,
    unused_steps,
)
from .graphgen import classify_relations, export_graph, induce_graph, save_graph
from .grounding import (
    ground_asr_sequence,
    ground_labelled_sequence,
    load_grounded,
    match_task_documents,
    prune_unused_steps,
    save_grounded,
    video_passes_task_filter,
)
# read_jsonl stays bound here: perfbench/spans.py traces it under this name.
from .jsonio import read_jsonl, write_json, write_jsonl  # noqa: F401
from .pathmodel import load_model, save_model, sequence_nll, train_path_model
from .record import Record
from .similarity import HttpEmbeddingProvider, TfidfSimilarity

ENV_PREFIX = "SCRIPTWEAVE_"

LIBRARY_FILE = "library.json"
GROUNDED_LIBRARY_FILE = "library.grounded.json"
GROUNDED_FILE = "grounded.jsonl"
STATS_FILE = "stats.json"
MODEL_FILE = "pathmodel.json"
LOSSES_FILE = "losses.json"
DECODED_FILE = "decoded.jsonl"
GRAPH_JSON_FILE = "graph.json"
GRAPH_DOT_FILE = "graph.dot"
METRICS_JSON_FILE = "metrics.json"
METRICS_TEXT_FILE = "metrics.txt"


# Every setting: the type a config file, the environment or a flag must
# give it, and its default (None: unset).
SETTINGS = {
    "tasks_path": (str, None), "docs_path": (str, None), "corpus_path": (str, None),
    "out_dir": (str, "out"), "seed": (int, None), "task": (str, None),
    "embedding_url": (str, None), "embedding_timeout": (float, 10.0),
    # Document matching: a title must contain keyword_threshold of the
    # task-name keywords; when fewer than top_m_docs titles pass, the filter
    # is re-run at relaxed_keyword_threshold.
    "top_m_docs": (int, 10), "keyword_threshold": (float, 0.85),
    "relaxed_keyword_threshold": (float, 0.75),
    # Grounding: k1 gates annotation matches, k2 gates whole narrated videos
    # by title similarity, and k3 gates individual transcript pieces.
    "k1": (float, 0.35), "k2": (float, 0.75), "k3": (float, 0.40),
    "asr_min_words": (int, 10), "stop_words": (tuple, ("subscribe", "channel", "sponsor")),
    # corpus statistics: a successor is frequent when its pair occurs in more
    # than frequency_threshold videos
    "frequency_threshold": (int, 10),
    # path model
    "order": (int, 2), "smoothing_lambda": (float, 0.1),
    # losses
    "epoch": (int, 0), "num_negatives": (int, 3), "max_shuffle_attempts": (int, 100),
    "temperature": (float, 0.1), "alpha": (float, 1.0),
    # decode, losses, eval (max_steps unset: twice the library size) / graph
    "beam_width": (int, 40), "max_steps": (int, None), "prune_threshold": (float, 0.175),
    # evaluation: the share of sequences, split by video, that train the evaluated model
    "train_fraction": (float, 0.40),
}


class PipelineConfig(Record):
    """Every setting in SETTINGS, by keyword, each defaulting to its entry there.

    Every value given passes _checked here, so a CLI run and a library caller
    meet the same checks, and a bad value fails as BadConfig, not mid-stage.
    """

    _fields = tuple(SETTINGS)
    # (settings, the test each value must pass, the rule a failing value breaks)
    _RANGES = (
        (("keyword_threshold", "relaxed_keyword_threshold", "k1", "k2", "k3", "prune_threshold"),
         lambda v: 0.0 <= v <= 1.0, "must be in [0, 1], got {}"),
        (("top_m_docs", "asr_min_words", "order", "beam_width", "max_shuffle_attempts"),
         lambda v: v >= 1, "must be at least 1"),
        (("smoothing_lambda", "num_negatives", "alpha", "epoch", "frequency_threshold"),
         lambda v: v >= 0, "must be non-negative"),
        (("max_steps",), lambda v: v is None or v >= 0, "must be non-negative"),
        (("temperature", "embedding_timeout"), lambda v: v > 0, "must be positive"),
        (("train_fraction",), lambda v: 0.0 < v < 1.0, "must be strictly between 0 and 1"),
    )

    def __init__(self, **settings):
        unknown = sorted(settings.keys() - SETTINGS.keys())
        if unknown:
            raise TypeError(f"PipelineConfig got unknown settings {unknown}")
        for name, (_, default) in SETTINGS.items():
            setattr(self, name, _checked(name, settings[name]) if name in settings else default)


_EXPECTED = {int: "an integer", float: "a number", tuple: "a list of strings", str: "a string"}


def _checked(key: str, value):
    """value as setting key stores it (an int as a float where a number is due, a
    list of strings as a tuple); BadConfig for a bool, a wrong type, a non-finite
    number, a value out of range, or None where the default is not None."""
    kind, default = SETTINGS[key]
    if value is None and default is None:
        return None
    if kind is tuple:
        valid = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    else:
        valid = isinstance(value, (int, float) if kind is float else kind)
    if not valid or isinstance(value, bool):
        raise BadConfig(f"setting {key!r} must be {_EXPECTED[kind]}, got {value!r}")
    if kind is float and not is_finite(value):
        raise BadConfig(f"setting {key!r} must be a finite number, got {value!r}")
    value = kind(value) if kind in (float, tuple) else value
    for names, test, rule in PipelineConfig._RANGES:
        if key in names and not test(value):
            raise BadConfig(f"invalid setting: {key} {rule.format(value)}")
    return value


def _parsed(key: str, text: str):
    """Setting key's value from text, by one rule for flags, SCRIPTWEAVE_*
    variables and config lines: the stripped text as JSON, else as it is; a
    string setting keeps its text unless that is a JSON string or null.

    >>> _parsed("task", "23521"), _parsed("seed", "7"), _parsed("task", "null")
    ('23521', 7, None)
    """
    if key not in SETTINGS:
        raise BadConfig(f"unknown setting {key!r}")
    text = text.strip()
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deep
        return text
    if SETTINGS[key][0] is str and not (value is None or isinstance(value, str)):
        return text
    return value


def read_config_file(path: str | Path) -> dict:
    """The parsed values of a ``key = value`` settings file; PipelineConfig checks them."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise BadConfig(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise BadConfig(f"{path}: not UTF-8 text: {exc}") from None
    settings = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise BadConfig(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if not key:
            raise BadConfig(f"{path}:{lineno}: empty setting name")
        settings[key] = _parsed(key, raw)
    return settings


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults < config file < SCRIPTWEAVE_* variables < flags, each text read
    by _parsed; PipelineConfig checks the merged values."""
    merged = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in SETTINGS:
        for text in (os.environ.get(ENV_PREFIX + key.upper()), getattr(args, key, None)):
            if text is not None:
                merged[key] = _parsed(key, text)
    return PipelineConfig(**merged)


def _require(cfg: PipelineConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise BadConfig(f"setting {name!r} is required (flag, config file, or env)")


def _artifact(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.out_dir) / name


def _out_path(cfg: PipelineConfig, name: str) -> Path:
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    return _artifact(cfg, name)


def _library(cfg: PipelineConfig, name: str, task_id: str | None) -> corpuslib.StepLibrary:
    """The library artifact name; BadInput when task_id is set and names another task."""
    library = corpuslib.load_library(path := _artifact(cfg, name))
    if task_id is not None and library.task_id != task_id:
        raise BadInput(f"{path}: library of task {library.task_id!r}, not of task {task_id!r}")
    return library


def _select_task(cfg: PipelineConfig) -> corpuslib.TaskSpec:
    _require(cfg, "tasks_path")
    tasks = load_tasks(cfg.tasks_path)
    if not tasks:
        raise BadConfig(f"no tasks in {cfg.tasks_path}")
    if cfg.task is None:
        if len(tasks) == 1:
            return tasks[0]
        raise BadConfig("multiple tasks in the task file; pick one with --task")
    for task in tasks:
        if task.task_id == cfg.task:
            return task
    raise BadConfig(f"task {cfg.task!r} not found in {cfg.tasks_path}")


def _provider(cfg: PipelineConfig, corpus_texts):
    if cfg.embedding_url:
        return HttpEmbeddingProvider(cfg.embedding_url, timeout=cfg.embedding_timeout)
    return TfidfSimilarity(corpus_texts)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_library(cfg: PipelineConfig) -> int:
    _require(cfg, "docs_path")
    task = _select_task(cfg)
    docs = load_candidate_docs(cfg.docs_path)
    provider = _provider(cfg, [title for title, _ in docs] + [task.task_name])
    ranked = match_task_documents(task, docs, provider, cfg)
    library = corpuslib.build_step_library(task, ranked)
    path = _out_path(cfg, LIBRARY_FILE)
    corpuslib.save_library(library, path)
    print(f"wrote {path} ({len(library)} steps from {len(ranked)} documents)")
    return 0


def cmd_ground(cfg: PipelineConfig) -> int:
    _require(cfg, "corpus_path")
    task = _select_task(cfg)
    library = _library(cfg, LIBRARY_FILE, task.task_id)
    records = [r for r in load_raw_records(cfg.corpus_path) if r.task_id == task.task_id]

    corpus_texts = library.texts() + [task.task_name]
    for record in records:
        if record.title:
            corpus_texts.append(record.title)
        corpus_texts.extend(item.text for item in record.items)
    provider = _provider(cfg, corpus_texts)

    grounded = []
    skipped = 0
    for record in records:
        if record.kind == "asr" and record.title is not None:
            if not video_passes_task_filter(record.title, task, provider, cfg.k2):
                skipped += 1
                continue
        try:
            if record.kind == "labelled":
                grounded.append(ground_labelled_sequence(record, library, provider, cfg.k1))
            else:
                grounded.append(ground_asr_sequence(record, library, provider, cfg))
        except EmptySequence:
            skipped += 1

    library, grounded = prune_unused_steps(library, grounded)
    lib_path = _out_path(cfg, GROUNDED_LIBRARY_FILE)
    corpuslib.save_library(library, lib_path)
    seq_path = _out_path(cfg, GROUNDED_FILE)
    save_grounded(grounded, seq_path)
    print(f"wrote {lib_path} ({len(library)} steps)")
    print(f"wrote {seq_path} ({len(grounded)} sequences, {skipped} videos skipped)")
    return 0


def cmd_stats(cfg: PipelineConfig) -> int:
    if cfg.task is not None:
        _library(cfg, GROUNDED_LIBRARY_FILE, cfg.task)
    sequences = load_grounded(_artifact(cfg, GROUNDED_FILE))
    stats = corpus_statistics(sequences, frequency_threshold=cfg.frequency_threshold)
    path = _out_path(cfg, STATS_FILE)
    write_json(stats._asdict(), path)
    print(f"wrote {path}")
    return 0


def cmd_train(cfg: PipelineConfig) -> int:
    library = _library(cfg, GROUNDED_LIBRARY_FILE, cfg.task)
    sequences = load_grounded(_artifact(cfg, GROUNDED_FILE))
    model = train_path_model(sequences, library, cfg)
    path = _out_path(cfg, MODEL_FILE)
    save_model(model, path)
    print(f"wrote {path} ({len(model.counts)} contexts)")
    return 0


def cmd_losses(cfg: PipelineConfig) -> int:
    library = _library(cfg, GROUNDED_LIBRARY_FILE, cfg.task)
    sequences = load_grounded(_artifact(cfg, GROUNDED_FILE))
    model = load_model(_artifact(cfg, MODEL_FILE), library)
    vectors = step_vectors(library, _provider(cfg, library.texts()))
    mixture = curriculum_mixture(cfg.epoch)
    rng = random.Random(f"{cfg.seed}:losses")
    valid_set = {tuple(seq.step_ids) for seq in sequences}

    generated = greedy_completion(model, (), cfg.max_steps)
    z_generated = sequence_representation(generated, library, vectors) if generated else None
    rows = []
    for seq in sequences:
        nll = sequence_nll(model, seq.step_ids)
        z_p = sequence_representation(seq.step_ids, library, vectors)
        z_g = z_p if z_generated is None else z_generated
        methods = []
        z_negatives = []
        for _ in range(cfg.num_negatives):
            method = draw_negative_method(mixture, rng)
            try:
                negative = generate_negative(
                    seq.step_ids, method, library, valid_set, cfg.max_shuffle_attempts, rng
                )
            except DegenerateInput:
                continue
            methods.append(method)
            z_negatives.append(sequence_representation(negative, library, vectors))
        contrastive, total = path_level_losses(z_g, z_p, z_negatives, nll, cfg)
        rows.append(
            {
                "video_id": seq.video_id,
                "nll": nll,
                "contrastive": contrastive,
                "total": total,
                "methods": methods,
            }
        )

    n = len(rows)
    payload = {
        "epoch": cfg.epoch,
        "mixture": mixture._asdict(),
        "alpha": cfg.alpha,
        "temperature": cfg.temperature,
        "sequences": rows,
        **{f"mean_{key}": math.fsum(r[key] for r in rows) / n if n else 0.0
           for key in ("nll", "contrastive", "total")},
    }
    path = _out_path(cfg, LOSSES_FILE)
    write_json(payload, path)
    print(f"wrote {path} ({n} sequences, epoch {cfg.epoch})")
    return 0


def cmd_decode(cfg: PipelineConfig) -> int:
    library = _library(cfg, GROUNDED_LIBRARY_FILE, cfg.task)
    model = load_model(_artifact(cfg, MODEL_FILE), library)
    trie = build_prefix_trie(library)
    results = constrained_beam_search(model, trie, cfg)
    path = _out_path(cfg, DECODED_FILE)
    write_jsonl(decoded_to_rows(library.task_id, results), path)
    print(f"wrote {path} ({len(results)} paths)")
    return 0


def cmd_graph(cfg: PipelineConfig, extra_out: str | None) -> int:
    library = _library(cfg, GROUNDED_LIBRARY_FILE, cfg.task)
    paths = [steps for steps, _ in load_decoded(_artifact(cfg, DECODED_FILE))]
    graph = classify_relations(induce_graph(paths, cfg.prune_threshold, library))
    json_path = _out_path(cfg, GRAPH_JSON_FILE)
    save_graph(graph, json_path)
    dot = export_graph(graph)
    dot_path = _out_path(cfg, GRAPH_DOT_FILE)
    dot_path.write_text(dot, encoding="utf-8")
    if extra_out:
        Path(extra_out).write_text(dot, encoding="utf-8")
        print(f"wrote {extra_out}")
    print(f"wrote {json_path} and {dot_path} ({len(graph.nodes)} steps, {len(graph.edges)} edges)")
    return 0


def cmd_eval(cfg: PipelineConfig) -> int:
    library = _library(cfg, GROUNDED_LIBRARY_FILE, cfg.task)
    sequences = load_grounded(_artifact(cfg, GROUNDED_FILE))
    split = build_eval_splits(sequences, train_fraction=cfg.train_fraction, rng_seed=cfg.seed)
    model = train_path_model(split.train, library, cfg)

    systems = {
        "model": (model_predict_next(model, split), model_complete(model, split, cfg.max_steps)),
    }
    unused = unused_steps(split, library)
    for kind in ("linear", "random"):
        systems[kind] = (
            baseline_predict(kind, split, library, cfg.seed, unused),
            baseline_complete(kind, split, library, cfg.seed, unused),
        )
    results = {
        name: {
            "next_step": next_step_metrics(ranked, split),
            "completion": completion_metrics(completed, split),
        }
        for name, (ranked, completed) in systems.items()
    }
    payload = {
        "seed": cfg.seed,
        "train_fraction": cfg.train_fraction,
        "num_train": len(split.train),
        "num_test_examples": len(split.test_examples),
        "systems": results,
    }
    json_path = _out_path(cfg, METRICS_JSON_FILE)
    write_json(payload, json_path)
    text_path = _out_path(cfg, METRICS_TEXT_FILE)
    text_path.write_text(metrics_table(results), encoding="utf-8")
    print(f"wrote {json_path} and {text_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


_COMMON_FLAGS = (  # (flag, setting, help) of the flags every stage takes before its own
    ("--config", "config", "path to a 'key = value' settings file"),
    ("--out-dir", "out_dir", "artifact directory (default: out)"),
    ("--seed", "seed", "random seed (required)"),
    ("--task", "task", "task id when the task file has several"),
)
_TASKS_FLAG = ("--tasks", "tasks_path", "task definitions (jsonl)")
# Every stage: its function, its --help line and its own flags.
_STAGES = {
    "library": (cmd_library, "rank documents and build the step library",
                (_TASKS_FLAG, ("--docs", "docs_path", "candidate documents (jsonl)"))),
    "ground": (cmd_ground, "map video sequences onto library steps",
               (_TASKS_FLAG, ("--corpus", "corpus_path", "video sequence records (jsonl)"))),
    "stats": (cmd_stats, "ordering statistics over grounded sequences", ()),
    "train": (cmd_train, "fit the path model on grounded sequences", ()),
    "losses": (cmd_losses, "report path-level training losses for one epoch",
               (("--epoch", "epoch", "epoch for the negative-mixture curriculum"),)),
    "decode": (cmd_decode, "beam-search the most likely step paths", ()),
    "graph": (cmd_graph, "induce the step graph from decoded paths",
              (("--out", "extra_out", "also write the DOT export here"),)),
    "eval": (cmd_eval, "next-step and completion metrics with baselines",
             (("--split", "train_fraction",
               f"train fraction (default {SETTINGS['train_fraction'][1]:.2f})"),)),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scriptweave",
        description="Induce step graphs for procedural tasks from video step sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _STAGES.items():
        stage = sub.add_parser(name, help=help_text)
        for flag, dest, flag_help in _COMMON_FLAGS + flags:
            stage.add_argument(flag, dest=dest, help=flag_help)
    return parser


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        _require(cfg, "seed")
        if args.command == "graph":
            return cmd_graph(cfg, args.extra_out)
        return _STAGES[args.command][0](cfg)
    except (ScriptweaveError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2


def main() -> None:
    """Run the stage sys.argv names, then end the process with its exit code.

    Once run_command returns, the exit handlers run, stdout and stderr are
    flushed, and os._exit leaves without the interpreter's teardown of its
    modules and objects, which no stage can observe and which costs each
    stage several milliseconds. os._exit would not wait for a thread; no
    stage starts one. An exception that escapes run_command, or a stream
    that cannot be flushed (None, closed, or a broken pipe), ends through the
    interpreter as usual.
    """
    code = run_command(sys.argv[1:])
    atexit._run_exitfuncs()  # clears the handlers it runs, so none runs twice
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, ValueError, OSError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()

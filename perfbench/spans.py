"""Outside-in span and count recorder for the traced benchmark run.

Tracing lives here, not in the program: ``traced()`` replaces the public
functions of scriptweave's modules at the names their callers look up
(``scriptweave.cli.ground_labelled_sequence``, ``next_step_distribution``
in both ``decoder`` and ``evalharness``, methods on ``TfidfSimilarity``,
...) with wrappers that record one span per call, and puts every
original back on exit. Spans (name, start, end, parent) stay in compact
arrays in memory; ``per_layer_metrics`` turns them into inclusive and
self times, and ``save`` writes them out once the run is over.

None of the wrapped functions recurses, so a name's inclusive time is
the plain sum of its spans. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from array import array
from pathlib import Path

import numpy as np

STAGES = ("library", "ground", "stats", "train", "losses", "decode", "graph", "eval")

# (module, attribute, span name). A name listed under several modules is one
# function looked up from each of them.
TARGETS = [
    ("scriptweave.similarity", "TfidfSimilarity.similarity", "similarity.similarity"),
    ("scriptweave.similarity", "TfidfSimilarity.embed", "similarity.embed"),
    ("scriptweave.similarity", "TfidfSimilarity.__init__", "similarity.init"),
    ("scriptweave.cli", "ground_labelled_sequence", "grounding.ground_labelled_sequence"),
    ("scriptweave.cli", "ground_asr_sequence", "grounding.ground_asr_sequence"),
    ("scriptweave.cli", "video_passes_task_filter", "grounding.video_passes_task_filter"),
    ("scriptweave.cli", "match_task_documents", "grounding.match_task_documents"),
    ("scriptweave.cli", "prune_unused_steps", "grounding.prune_unused_steps"),
    ("scriptweave.cli", "load_grounded", "grounding.load_grounded"),
    ("scriptweave.cli", "save_grounded", "grounding.save_grounded"),
    ("scriptweave.corpus", "load_library", "corpus.load_library"),
    ("scriptweave.corpus", "build_step_library", "corpus.build_step_library"),
    ("scriptweave.cli", "load_raw_records", "corpus.load_raw_records"),
    ("scriptweave.cli", "corpus_statistics", "corpus.corpus_statistics"),
    ("scriptweave.corpus", "levenshtein", "corpus.levenshtein"),
    ("scriptweave.evalharness", "levenshtein", "corpus.levenshtein"),
    ("scriptweave.cli", "train_path_model", "pathmodel.train_path_model"),
    ("scriptweave.decoder", "next_step_distribution", "pathmodel.next_step_distribution"),
    ("scriptweave.evalharness", "next_step_distribution", "pathmodel.next_step_distribution"),
    ("scriptweave.cli", "sequence_nll", "pathmodel.sequence_nll"),
    ("scriptweave.cli", "load_model", "pathmodel.load_model"),
    ("scriptweave.cli", "build_prefix_trie", "decoder.build_prefix_trie"),
    ("scriptweave.cli", "constrained_beam_search", "decoder.constrained_beam_search"),
    ("scriptweave.cli", "induce_graph", "graphgen.induce_graph"),
    ("scriptweave.cli", "classify_relations", "graphgen.classify_relations"),
    ("scriptweave.cli", "export_graph", "graphgen.export_graph"),
    ("scriptweave.cli", "generate_negative", "contrastive.generate_negative"),
    ("scriptweave.cli", "sequence_representation", "contrastive.sequence_representation"),
    ("scriptweave.cli", "path_level_losses", "contrastive.path_level_losses"),
    ("scriptweave.cli", "build_eval_splits", "evalharness.build_eval_splits"),
    ("scriptweave.cli", "model_predict_next", "evalharness.model_predict_next"),
    ("scriptweave.cli", "model_complete", "evalharness.model_complete"),
    ("scriptweave.cli", "greedy_completion", "evalharness.greedy_completion"),
    ("scriptweave.evalharness", "greedy_completion", "evalharness.greedy_completion"),
    ("scriptweave.cli", "baseline_predict", "evalharness.baseline_predict"),
    ("scriptweave.cli", "baseline_complete", "evalharness.baseline_complete"),
    ("scriptweave.cli", "next_step_metrics", "evalharness.next_step_metrics"),
    ("scriptweave.cli", "completion_metrics", "evalharness.completion_metrics"),
]
TARGETS += [
    (f"scriptweave.{module}", attribute, "jsonio.read")
    for module, attribute in (
        ("corpus", "read_json"), ("corpus", "read_jsonl"), ("pathmodel", "read_json"),
        ("graphgen", "read_json"), ("grounding", "read_jsonl"), ("cli", "read_jsonl"),
    )
] + [
    (f"scriptweave.{module}", attribute, "jsonio.write")
    for module, attribute in (
        ("corpus", "write_json"), ("pathmodel", "write_json"), ("graphgen", "write_json"),
        ("grounding", "write_jsonl"), ("cli", "write_json"), ("cli", "write_jsonl"),
    )
]

# Names whose inclusive and self times are reported, besides the CLI stages.
TIMED = sorted({name for _, _, name in TARGETS})
# Names whose call counts are reported.
COUNTED = [
    "similarity.similarity", "similarity.embed",
    "grounding.ground_labelled_sequence", "grounding.ground_asr_sequence",
    "grounding.video_passes_task_filter",
    "corpus.load_library", "corpus.levenshtein",
    "pathmodel.next_step_distribution", "pathmodel.sequence_nll",
    "contrastive.generate_negative", "contrastive.sequence_representation",
    "evalharness.greedy_completion",
]
# Derived values: (name, unit).
DERIVED = [
    ("similarity.embed.texts", "count"),
    ("similarity.repeat_pair_share", "share"),
    ("grounding.video_ms.p50", "ms"),
    ("grounding.video_ms.p99", "ms"),
    ("grounding.grounded_share", "share"),
    ("grounding.item_drop_share", "share"),
    ("pathmodel.contexts", "count"),
    ("decoder.expansions", "count"),
    ("decoder.paths", "count"),
    ("graphgen.nodes", "count"),
    ("graphgen.edges", "count"),
    ("contrastive.negative_fail_share", "share"),
    ("evalharness.examples", "count"),
    ("jsonio.read.bytes", "bytes"),
    ("jsonio.write.bytes", "bytes"),
]


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    rows = []
    for stage in STAGES:
        rows.append((f"cli.{stage}.s", "s", "lower"))
        rows.append((f"cli.{stage}.peak_rss_mb", "MB", "lower"))
    for name in TIMED:
        rows.append((f"{name}.s", "s", "lower"))
        rows.append((f"{name}.self_s", "s", "lower"))
    rows.extend((f"{name}.calls", "count", "lower") for name in COUNTED)
    rows.extend((name, unit, "higher" if name.endswith("grounded_share") else "lower")
                for name, unit in DERIVED)
    rows.append(("evalharness.next_acc1", "share", "higher"))
    rows.append(("evalharness.completion_ned", "share", "lower"))
    rows.append(("trace.overhead_share", "share", "lower"))
    return rows


class Recorder:
    """Spans and counts of one traced pipeline."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[str, int] = {}
        self.stage: str | None = None
        self._open: list[int] = []
        self.pairs: set[tuple[str, str]] = set()
        self.repeat_pairs = 0
        self.embed_texts = 0
        self.rejected_titles = 0
        self.kept_items = 0
        self.dropped_items = 0
        self.contexts = 0
        self.paths = 0
        self.nodes = 0
        self.edges = 0
        self.examples = 0
        self.read_bytes = 0
        self.write_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(index)
        self.start[index] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            name = self.names[name_id]
            self.raised[name] = self.raised.get(name, 0) + 1
            raise
        finally:
            self.end[index] = time.perf_counter()
            self._open.pop()

    def run_stage(self, stage: str, fn, *args):
        """Call ``fn(*args)`` as the span of one CLI stage."""
        self.stage = stage
        try:
            return self.call(self._id(f"cli.{stage}"), fn, args, {})
        finally:
            self.stage = None

    # -- observers: values read off arguments and results ---------------

    def observe(self, name: str, args, result) -> None:
        if name == "similarity.similarity":
            pair = (args[1], args[2])
            if pair in self.pairs:
                self.repeat_pairs += 1
            else:
                self.pairs.add(pair)
        elif name == "similarity.embed":
            self.embed_texts += len(args[1])
        elif name in ("grounding.ground_labelled_sequence", "grounding.ground_asr_sequence"):
            self.kept_items += len(result.step_ids)
            self.dropped_items += result.dropped
        elif name == "grounding.video_passes_task_filter":
            self.rejected_titles += not result
        elif name == "pathmodel.train_path_model" and self.stage == "train":
            self.contexts = len(result.counts)
        elif name == "decoder.constrained_beam_search":
            self.paths = len(result)
        elif name == "graphgen.classify_relations":
            self.nodes, self.edges = len(result.nodes), len(result.edges)
        elif name == "evalharness.build_eval_splits":
            self.examples = len(result.test_examples)
        elif name == "jsonio.read":
            self.read_bytes += os.path.getsize(args[0])
        elif name == "jsonio.write":
            self.write_bytes += os.path.getsize(args[1])

    # -- reduction -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this recorder can give (not RSS or overhead)."""
        spans = self.arrays()
        ids, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        n_names = len(self.names)
        inclusive = np.bincount(ids, weights=duration, minlength=n_names)
        exclusive = np.bincount(ids, weights=self_time, minlength=n_names)
        calls = np.bincount(ids, minlength=n_names)

        def of(array_, name):
            return float(array_[self._ids[name]]) if name in self._ids else 0.0

        metrics: dict[str, float] = {}
        for stage in STAGES:
            metrics[f"cli.{stage}.s"] = of(inclusive, f"cli.{stage}")
        for name in TIMED:
            metrics[f"{name}.s"] = of(inclusive, name)
            metrics[f"{name}.self_s"] = of(exclusive, name)
        for name in COUNTED:
            metrics[f"{name}.calls"] = int(of(calls, name))

        grounding = [self._ids[n] for n in ("grounding.ground_labelled_sequence",
                                            "grounding.ground_asr_sequence") if n in self._ids]
        video_ms = duration[np.isin(ids, grounding)] * 1000.0
        metrics["grounding.video_ms.p50"] = float(np.percentile(video_ms, 50)) if len(video_ms) else 0.0
        metrics["grounding.video_ms.p99"] = float(np.percentile(video_ms, 99)) if len(video_ms) else 0.0
        attempted = len(video_ms) + self.rejected_titles
        failed = sum(self.raised.get(self.names[i], 0) for i in grounding)
        metrics["grounding.grounded_share"] = (len(video_ms) - failed) / attempted if attempted else 0.0
        decided = self.kept_items + self.dropped_items
        metrics["grounding.item_drop_share"] = self.dropped_items / decided if decided else 0.0

        similarity_calls = metrics["similarity.similarity.calls"]
        metrics["similarity.embed.texts"] = self.embed_texts
        metrics["similarity.repeat_pair_share"] = (
            self.repeat_pairs / similarity_calls if similarity_calls else 0.0
        )
        metrics["pathmodel.contexts"] = self.contexts
        beam = self._ids.get("decoder.constrained_beam_search", -1)
        expansions = (ids == self._ids.get("pathmodel.next_step_distribution", -2)) & has_parent
        metrics["decoder.expansions"] = int(np.count_nonzero(ids[parent[expansions]] == beam))
        metrics["decoder.paths"] = self.paths
        metrics["graphgen.nodes"] = self.nodes
        metrics["graphgen.edges"] = self.edges
        negatives = metrics["contrastive.generate_negative.calls"]
        metrics["contrastive.negative_fail_share"] = (
            self.raised.get("contrastive.generate_negative", 0) / negatives if negatives else 0.0
        )
        metrics["evalharness.examples"] = self.examples
        metrics["jsonio.read.bytes"] = self.read_bytes
        metrics["jsonio.write.bytes"] = self.write_bytes
        return metrics


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _wrapper(recorder: Recorder, name: str, fn):
    name_id = recorder._id(name)
    observe = recorder.observe

    def wrapped(*args, **kwargs):
        result = recorder.call(name_id, fn, args, kwargs)
        observe(name, args, result)
        return result

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", name)
    return wrapped


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install wrappers for every target; restore every original on exit."""
    originals = []
    try:
        for module_name, attribute, name in TARGETS:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            originals.append((owner, leaf, original))
            setattr(owner, leaf, _wrapper(recorder, name, original))
        yield recorder
    finally:
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)

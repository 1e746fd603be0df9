"""Release acceptance suite: one test per shipping criterion.

Every test here checks the library against an independent source of
truth — a planted world whose correct answer is known by construction, a
brute-force oracle, a hand-derived closed-form value, or byte equality
between repeated runs. The conftest hook prints a one-line PASS/FAIL
summary per criterion at the end of the run.
"""

import functools
import itertools
import json
import math
import random
import time

import numpy as np

from scriptweave.cli import (
    DECODED_FILE,
    GRAPH_DOT_FILE,
    GRAPH_JSON_FILE,
    GROUNDED_FILE,
    GROUNDED_LIBRARY_FILE,
    LIBRARY_FILE,
    LOSSES_FILE,
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
    MODEL_FILE,
    STATS_FILE,
    PipelineConfig,
    run_command,
)
from scriptweave.contrastive import (
    curriculum_mixture,
    draw_negative_method,
    generate_negative,
    path_level_losses,
)
from scriptweave.corpus import Step, StepLibrary, corpus_statistics, levenshtein, normalized_levenshtein
from scriptweave.decoder import build_prefix_trie, constrained_beam_search
from scriptweave.errors import EmptySequence
from scriptweave.evalharness import (
    EvalExample,
    EvalSplit,
    baseline_predict,
    build_eval_splits,
    model_predict_next,
    next_step_metrics,
)
from scriptweave.graphgen import classify_relations, induce_graph
from scriptweave.grounding import (
    GroundedSequence,
    ground_asr_sequence,
    ground_labelled_sequence,
)
from scriptweave.corpus import RawSequenceRecord, SequenceItem
from scriptweave.pathmodel import (
    END,
    START,
    next_step_distribution,
    sequence_nll,
    train_path_model,
)


def make_library(n_steps, task_id="t"):
    return StepLibrary(task_id, [Step(i, f"tok{i}", f"tok{i}") for i in range(n_steps)], [], [])


def grounded(video_id, step_ids, task_id="t"):
    return GroundedSequence(video_id, task_id, list(step_ids), [1.0] * len(step_ids), 0)


# ----------------------------------------------------------------------
# Criterion 1: a planted branching procedure — six steps, one optional
# step, one interchangeable pair — must be recovered exactly from its own
# valid paths: decode enumerates every valid path and the induced graph
# matches the planted edges and relation labels, within ten seconds.
# ----------------------------------------------------------------------


def test_criterion_01_planted_graph_recovered_exactly():
    started = time.perf_counter()

    texts = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    library = StepLibrary("plant", [Step(i, t, t) for i, t in enumerate(texts)], [], [])
    # step 1 is optional between 0 and 2; steps 3 and 4 are interchangeable
    valid_paths = [
        [0, 1, 2, 3, 4, 5],
        [0, 1, 2, 4, 3, 5],
        [0, 2, 3, 4, 5],
        [0, 2, 4, 3, 5],
    ]
    sequences = [grounded(f"g{i}", path, "plant") for i, path in enumerate(valid_paths)]

    model = train_path_model(sequences, library, PipelineConfig(order=2, smoothing_lambda=0.01))
    trie = build_prefix_trie(library)
    decoded = constrained_beam_search(model, trie, PipelineConfig(beam_width=40))

    decoded_paths = {tuple(steps) for steps, _ in decoded}
    for path in valid_paths:
        assert tuple(path) in decoded_paths

    graph = classify_relations(
        induce_graph(
            [steps for steps, _ in decoded],
            prune_threshold=0.175,
            library=library,
        )
    )

    assert sorted(graph.nodes) == [0, 1, 2, 3, 4, 5]
    expected_edges = {
        (START, 0),
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (2, 4),
        (3, 4),
        (4, 3),
        (3, 5),
        (4, 5),
        (5, END),
    }
    assert {(e.src, e.dst) for e in graph.edges} == expected_edges
    for node in graph.nodes:
        assert graph.labels[node] == texts[node]

    by_kind = {}
    for relation in graph.relations:
        by_kind.setdefault(relation.kind, []).append(tuple(relation.steps))
    assert by_kind["interchangeable"] == [(3, 4)]
    assert by_kind["optional"] == [(0, 1, 2)]
    assert by_kind["sequential"] == [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]

    assert time.perf_counter() - started < 10.0


# ----------------------------------------------------------------------
# Criterion 2: the contrastive loss must equal the direct softmax
# formula — computed here without any log-sum-exp stabilisation — within
# 1e-9 over a thousand random batches (2 to 16 dimensions, 0 to 5
# negatives) at temperature 0.1, plus one hand-derived closed form.
# ----------------------------------------------------------------------


def naive_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    return dot / (norm_a * norm_b)


def random_unit_free_vector(rng, dim):
    while True:
        vec = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        if math.sqrt(sum(x * x for x in vec)) > 1e-6:
            return vec


def test_criterion_02_contrastive_loss_matches_direct_formula():
    rng = random.Random(2)
    temperature = 0.1
    for _ in range(1000):
        dim = rng.randint(2, 16)
        n_negatives = rng.randint(0, 5)
        z_g = random_unit_free_vector(rng, dim)
        z_p = random_unit_free_vector(rng, dim)
        negatives = [random_unit_free_vector(rng, dim) for _ in range(n_negatives)]
        nll = rng.uniform(0.0, 5.0)
        alpha = rng.choice([0.5, 1.0, 2.0])

        contrastive, total = path_level_losses(
            np.array(z_g), np.array(z_p), [np.array(z) for z in negatives],
            nll, PipelineConfig(temperature=temperature, alpha=alpha),
        )

        sims = [naive_cosine(z_g, z_p)] + [naive_cosine(z_g, z_n) for z_n in negatives]
        exps = [math.exp(s / temperature) for s in sims]
        expected = -math.log(exps[0] / sum(exps))

        assert abs(contrastive - expected) <= 1e-9
        assert abs(total - (nll + alpha * contrastive)) <= 1e-9

    # aligned positive, orthogonal negative: loss is exactly log(1 + e^-10)
    contrastive, _ = path_level_losses(
        np.array([1.0, 0.0]), np.array([2.0, 0.0]), [np.array([0.0, 3.0])],
        0.0, PipelineConfig(temperature=0.1),
    )
    assert abs(contrastive - math.log(1.0 + math.exp(-10.0))) <= 1e-12


# ----------------------------------------------------------------------
# Criterion 3: sequence NLL must equal the hand-accumulated sum of
# -log(next-step probability) along the sequence (end token included)
# within 1e-9, and an unsmoothed model trained on a single sequence must
# give that sequence an NLL of exactly zero.
# ----------------------------------------------------------------------


def test_criterion_03_sequence_nll_equals_stepwise_accumulation():
    rng = random.Random(3)
    for _ in range(300):
        n_steps = rng.randint(2, 10)
        library = make_library(n_steps)
        paths = []
        for _ in range(rng.randint(1, 4)):
            length = rng.randint(1, min(n_steps, 6))
            paths.append(rng.sample(range(n_steps), length))
        config = PipelineConfig(
            order=rng.randint(1, 3),
            smoothing_lambda=rng.choice([0.01, 0.1, 1.0]),
        )
        model = train_path_model([grounded(f"v{i}", p) for i, p in enumerate(paths)], library, config)

        probes = list(paths)
        for _ in range(2):
            length = rng.randint(1, min(n_steps, 6))
            probes.append(rng.sample(range(n_steps), length))

        for probe in probes:
            accumulated = 0.0
            prefix = []
            for step in list(probe) + [END]:
                distribution = next_step_distribution(model, prefix)
                accumulated += -math.log(distribution[step])
                prefix.append(step)
            assert abs(sequence_nll(model, probe) - accumulated) <= 1e-9

    # unsmoothed single-sequence training: the training path costs nothing
    for order in (1, 2, 3):
        for path in ([0], [0, 1, 2], [2, 0, 3, 1]):
            library = make_library(4)
            model = train_path_model(
                [grounded("only", path)], library, PipelineConfig(order=order, smoothing_lambda=0.0)
            )
            assert sequence_nll(model, path) == 0.0


# ----------------------------------------------------------------------
# Criterion 4: ten thousand generated negatives must all fail the
# validity oracle; resampling preserves length while shuffle and cut-swap
# preserve the step multiset; and the method mixture must sum to one at
# every epoch 0..60 with its pinned values at epochs 0, 5, 25, and 30.
# ----------------------------------------------------------------------


def test_criterion_04_negatives_always_invalid_with_scheduled_methods():
    library = make_library(8)
    rng = random.Random(11)
    valid_set = set()
    while len(valid_set) < 20:
        length = rng.randint(3, 6)
        valid_set.add(tuple(rng.sample(range(8), length)))
    positives = sorted(valid_set)

    gen_rng = random.Random(99)
    method_counts = {"resample": 0, "shuffle": 0, "cutswap": 0}
    for i in range(10_000):
        positive = list(positives[i % len(positives)])
        mixture = curriculum_mixture(i % 61)
        method = draw_negative_method(mixture, gen_rng)
        negative = generate_negative(
            positive, method, library, valid_set, PipelineConfig().max_shuffle_attempts, gen_rng
        )
        method_counts[method] += 1

        assert tuple(negative) not in valid_set
        if method == "resample":
            assert len(negative) == len(positive)
        else:
            assert sorted(negative) == sorted(positive)

    assert all(count > 0 for count in method_counts.values())

    for epoch in range(61):
        weights = curriculum_mixture(epoch)
        assert sum(weights) == 1.0
        assert all(w >= 0.0 for w in weights)
    assert curriculum_mixture(0) == (1.0, 0.0, 0.0)
    assert curriculum_mixture(5) == (0.8, 0.2, 0.0)
    assert curriculum_mixture(25) == (0.0, 1.0, 0.0)
    assert curriculum_mixture(30) == (0.0, 0.8, 0.2)


# ----------------------------------------------------------------------
# Criterion 5: over a thousand random models and libraries of up to 12
# steps, every decoded path uses only library steps without repeats and
# its score equals the negated sequence NLL within 1e-9; with a beam at
# least as wide as the path count, the decoded set equals exhaustive
# enumeration of all repeat-free paths.
# ----------------------------------------------------------------------


def test_criterion_05_decoding_constrained_scored_and_exhaustive():
    rng = random.Random(5)

    def random_model(n_steps):
        library = make_library(n_steps)
        paths = []
        for _ in range(rng.randint(1, 4)):
            length = rng.randint(1, min(n_steps, 6))
            paths.append(rng.sample(range(n_steps), length))
        config = PipelineConfig(
            order=rng.randint(1, 3),
            smoothing_lambda=rng.choice([0.01, 0.1, 1.0]),
        )
        model = train_path_model(
            [grounded(f"v{i}", p) for i, p in enumerate(paths)], library, config
        )
        return model, build_prefix_trie(library)

    for _ in range(700):
        n_steps = rng.randint(2, 12)
        model, trie = random_model(n_steps)
        beam_width = rng.randint(1, 40)
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=beam_width))

        assert len(results) <= beam_width
        step_ids = set(range(n_steps))
        for steps, logprob in results:
            assert set(steps) <= step_ids
            assert len(set(steps)) == len(steps)
            assert abs(logprob - (-sequence_nll(model, steps))) <= 1e-9

    for _ in range(300):
        n_steps = rng.choice([2, 3])
        model, trie = random_model(n_steps)
        results = constrained_beam_search(model, trie, PipelineConfig(beam_width=64))

        universe = set()
        for length in range(n_steps + 1):
            universe.update(itertools.permutations(range(n_steps), length))
        assert {tuple(steps) for steps, _ in results} == universe
        assert len(results) == len(universe)
        for steps, logprob in results:
            assert abs(logprob - (-sequence_nll(model, steps))) <= 1e-9


# ----------------------------------------------------------------------
# Criterion 6: greedy score-ordered matching must agree with a
# brute-force search for the maximal matching of lexicographically best
# priority ranks on a thousand random score matrices up to 6x6, and
# raising either grounding threshold must only filter — never change or
# add — what a lower threshold produced.
# ----------------------------------------------------------------------


class MatrixProvider:
    """Similarity provider backed by an explicit score matrix."""

    def __init__(self, matrix, row_texts, column_texts):
        self.lookup = {}
        for i, row_text in enumerate(row_texts):
            for j, column_text in enumerate(column_texts):
                self.lookup[(row_text, column_text)] = matrix[i][j]

    def similarity(self, a, b):
        return self.lookup[(a, b)]


def labelled_world(matrix):
    n_rows, n_columns = len(matrix), len(matrix[0])
    row_texts = [f"annotation {i}" for i in range(n_rows)]
    column_texts = [f"candidate {j}" for j in range(n_columns)]
    library = StepLibrary("t", [Step(j, t, t) for j, t in enumerate(column_texts)], [], [])
    record = RawSequenceRecord(
        "v", "t", "labelled", [SequenceItem(t, None, None) for t in row_texts], None
    )
    provider = MatrixProvider(matrix, row_texts, column_texts)
    return record, library, provider


def greedy_pairs(matrix, k1):
    """(row, column) pairs chosen by the production grounding path."""
    record, library, provider = labelled_world(matrix)
    try:
        out = ground_labelled_sequence(record, library, provider, k1)
    except EmptySequence:
        return set()
    pairs = set()
    for column, score in zip(out.step_ids, out.scores):
        rows = [i for i in range(len(matrix)) if matrix[i][column] == score]
        assert len(rows) == 1  # random scores are distinct
        pairs.add((rows[0], column))
    return pairs


def oracle_pairs(matrix, k1):
    """Brute force: the maximal matching whose sorted priority ranks win.

    Pairs are prioritised by (-score, row, column); among matchings that
    cannot be extended with any still-eligible pair, the one whose sorted
    rank tuple is lexicographically smallest is what greedy selection
    produces.
    """
    n_rows = len(matrix)
    eligible = sorted(
        (-matrix[i][j], i, j)
        for i in range(n_rows)
        for j in range(len(matrix[0]))
        if matrix[i][j] >= k1
    )
    rank = {(i, j): position for position, (_, i, j) in enumerate(eligible)}
    columns_by_row = {}
    for _, i, j in eligible:
        columns_by_row.setdefault(i, []).append(j)

    best = None

    def recurse(row, used_columns, taken, skipped_rows):
        nonlocal best
        if row == n_rows:
            for skipped in skipped_rows:  # reject non-maximal matchings
                for column in columns_by_row.get(skipped, ()):
                    if column not in used_columns:
                        return
            key = tuple(sorted(rank[pair] for pair in taken))
            if best is None or key < best[0]:
                best = (key, set(taken))
            return
        recurse(row + 1, used_columns, taken, skipped_rows + [row])
        for column in columns_by_row.get(row, ()):
            if column not in used_columns:
                recurse(row + 1, used_columns | {column}, taken + [(row, column)], skipped_rows)

    recurse(0, frozenset(), [], [])
    return best[1] if best else set()


def test_criterion_06_greedy_matching_matches_bruteforce_and_thresholds_monotone():
    rng = random.Random(6)
    for _ in range(1000):
        n_rows = rng.randint(1, 6)
        n_columns = rng.randint(1, 6)
        matrix = [[rng.uniform(0.0, 1.0) for _ in range(n_columns)] for _ in range(n_rows)]
        k1 = rng.choice([0.2, 0.35, 0.5])
        assert greedy_pairs(matrix, k1) == oracle_pairs(matrix, k1)

    # raising k1 keeps exactly the surviving pairs of every lower threshold
    thresholds = [0.1, 0.3, 0.5, 0.7, 0.9]
    for _ in range(100):
        n_rows = rng.randint(2, 6)
        n_columns = rng.randint(2, 6)
        matrix = [[rng.uniform(0.0, 1.0) for _ in range(n_columns)] for _ in range(n_rows)]
        matched = {k1: greedy_pairs(matrix, k1) for k1 in thresholds}
        for low, high in itertools.combinations(thresholds, 2):
            expected = {(i, j) for i, j in matched[low] if matrix[i][j] >= high}
            assert matched[high] == expected

    # raising k3 only shrinks the kept step set and grows the drop count
    for _ in range(100):
        n_columns = rng.randint(2, 5)
        n_pieces = rng.randint(2, 6)
        piece_texts = [f"piece {i}" for i in range(n_pieces)]
        column_texts = [f"candidate {j}" for j in range(n_columns)]
        matrix = [[rng.uniform(0.0, 1.0) for _ in range(n_columns)] for _ in range(n_pieces)]
        library = StepLibrary("t", [Step(j, t, t) for j, t in enumerate(column_texts)], [], [])
        record = RawSequenceRecord(
            "v", "t", "asr", [SequenceItem(t, None, None) for t in piece_texts], title="anything"
        )
        provider = MatrixProvider(matrix, piece_texts, column_texts)

        previous_kept = None
        previous_dropped = None
        for k3 in thresholds:
            config = PipelineConfig(k3=k3, asr_min_words=1)
            try:
                out = ground_asr_sequence(record, library, provider, config)
                kept, dropped = set(out.step_ids), out.dropped
            except EmptySequence:
                kept, dropped = set(), n_pieces
            if previous_kept is not None:
                assert kept <= previous_kept
                assert dropped >= previous_dropped
            previous_kept, previous_dropped = kept, dropped


# ----------------------------------------------------------------------
# Criterion 7: the edit distance must agree with an independent
# memoised-recursion oracle on a thousand random pairs, the ranking F1
# must hit the hand-worked values 0.5 and 0.8 exactly, and the
# normalised distance must stay inside [0, 1].
# ----------------------------------------------------------------------


def oracle_distance(a, b):
    @functools.lru_cache(maxsize=None)
    def recurse(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        substitution = 0 if a[i - 1] == b[j - 1] else 1
        return min(
            recurse(i - 1, j) + 1,
            recurse(i, j - 1) + 1,
            recurse(i - 1, j - 1) + substitution,
        )

    return recurse(len(a), len(b))


def test_criterion_07_edit_distance_oracle_and_worked_f1():
    rng = random.Random(7)
    for _ in range(1000):
        a = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 8)))
        b = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 8)))
        assert levenshtein(list(a), list(b)) == oracle_distance(a, b)
        normalized = normalized_levenshtein(list(a), list(b))
        assert 0.0 <= normalized <= 1.0
        longest = max(len(a), len(b))
        expected = oracle_distance(a, b) / longest if longest else 0.0
        assert normalized == expected
    assert normalized_levenshtein([], []) == 0.0

    # one of three ranked steps is the single gold answer: F1 is exactly 0.5
    split = EvalSplit(train=[], test_examples=[EvalExample((0,), {5}, set())])
    assert next_step_metrics([[5, 8, 9]], split)["F1@3"] == 0.5
    # two of three ranked steps cover both gold answers: F1 is exactly 0.8
    split = EvalSplit(train=[], test_examples=[EvalExample((0,), {4, 5}, set())])
    assert next_step_metrics([[4, 5, 9]], split)["F1@3"] == 0.8


# ----------------------------------------------------------------------
# Criterion 8: on a corpus planted to have a 0.645 reversal rate and a
# mean of 2.56 frequent next steps (threshold 10), the measured
# statistics must land within 0.005 of those values in under 5 seconds.
# ----------------------------------------------------------------------


def test_criterion_08_planted_corpus_statistics():
    started = time.perf_counter()

    sequences = []
    next_id = 0

    def take(count):
        nonlocal next_id
        ids = list(range(next_id, next_id + count))
        next_id += count
        return ids

    # 129 step pairs seen once in each direction: reversed pairs
    for pair in range(129):
        first, second = take(2)
        sequences.append(grounded(f"bi{pair}a", [first, second]))
        sequences.append(grounded(f"bi{pair}b", [second, first]))
    # 25 hub steps whose successor pairs each occur in 11 distinct videos:
    # 14 hubs with 3 frequent successors and 11 hubs with 2 gives a mean
    # of (14*3 + 11*2) / 25 = 2.56 frequent next steps
    for hub_index in range(25):
        branch_count = 3 if hub_index < 14 else 2
        (hub,) = take(1)
        for successor in take(branch_count):
            for video in range(11):
                sequences.append(grounded(f"hub{hub_index}s{successor}v{video}", [hub, successor]))
    # 7 one-directional filler pairs: with 129 reversed out of
    # 129 + 64 + 7 = 200 unordered pairs the reversal rate is 0.645
    for filler in range(7):
        first, second = take(2)
        sequences.append(grounded(f"fill{filler}", [first, second]))

    stats = corpus_statistics(sequences, frequency_threshold=10)
    assert abs(stats.reversal_rate - 0.645) <= 0.005
    assert abs(stats.mean_frequent_next_steps - 2.56) <= 0.005
    assert stats.frequency_threshold == 10

    assert time.perf_counter() - started < 5.0


# ----------------------------------------------------------------------
# Criterion 9: on a branching world with a single linear source document,
# the trained model's next-step Acc@1 averaged over ten split seeds must
# beat the linear baseline, which must beat the random baseline, each by
# more than five absolute points.
# ----------------------------------------------------------------------


def test_criterion_09_model_beats_linear_beats_random():
    templates = [
        ([0, 1, 3, 5, 4, 6, 7], 0.45),
        ([0, 1, 3, 5, 6, 7], 0.20),
        ([0, 2, 3, 5, 4, 6, 7], 0.20),
        ([0, 1, 2, 3, 4, 5, 6, 7], 0.15),
    ]
    linear_doc = [0, 1, 2, 3, 4, 5, 6, 7]
    library = StepLibrary(
        "w", [Step(i, f"s{i}", f"s{i}") for i in range(8)], [], doc_sequences=[linear_doc]
    )

    def world(seed):
        rng = random.Random(1000 + seed)
        paths = rng.choices(
            [path for path, _ in templates],
            weights=[weight for _, weight in templates],
            k=60,
        )
        return [grounded(f"v{i}", path, "w") for i, path in enumerate(paths)]

    scores = {"model": [], "linear": [], "random": []}
    for seed in range(10):
        sequences = world(seed)
        split = build_eval_splits(sequences, train_fraction=0.40, rng_seed=seed)
        model = train_path_model(split.train, library, PipelineConfig(order=2, smoothing_lambda=0.1))

        predictions = {
            "model": model_predict_next(model, split),
            "linear": baseline_predict("linear", split, library, rng_seed=seed),
            "random": baseline_predict("random", split, library, rng_seed=seed),
        }
        for system, ranked in predictions.items():
            scores[system].append(next_step_metrics(ranked, split)["Acc@1"])

    means = {system: sum(values) / len(values) for system, values in scores.items()}
    assert means["model"] - means["linear"] > 0.05
    assert means["linear"] - means["random"] > 0.05


# ----------------------------------------------------------------------
# Criterion 10: running the full pipeline twice with the same corpus,
# configuration, and seed must produce byte-identical artifacts.
# ----------------------------------------------------------------------

TASKS = [{"task_id": "t1", "task_name": "make lemonade"}]

DOCS = [
    {
        "title": "How to Make Lemonade",
        "steps": ["Squeeze the lemons", "Add sugar", "Add water", "Stir well", "Serve chilled"],
    },
    {
        "title": "Make Lemonade at Home",
        "steps": ["squeeze lemons", "add the sugar!", "add cold water", "stir", "taste and adjust"],
    },
    {"title": "Fixing a bike tire", "steps": ["remove wheel", "patch tube"]},
]

VIDEOS = [
    {
        "video_id": "v1",
        "task_id": "t1",
        "kind": "labelled",
        "items": [
            {"text": "squeeze the lemons", "start": 1.0, "end": 3.0},
            {"text": "add sugar", "start": 4.0, "end": 6.0},
            {"text": "stir well", "start": 7.0, "end": 9.0},
        ],
    },
    {
        "video_id": "v2",
        "task_id": "t1",
        "kind": "labelled",
        "items": [
            {"text": "squeeze lemons", "start": 0.0},
            {"text": "add cold water", "start": 5.0},
            {"text": "add sugar", "start": 8.0},
            {"text": "serve chilled", "start": 12.0},
        ],
    },
    {
        "video_id": "v3",
        "task_id": "t1",
        "kind": "labelled",
        "items": [
            {"text": "squeeze the lemons"},
            {"text": "add sugar"},
            {"text": "add water"},
            {"text": "stir well"},
        ],
    },
    {
        "video_id": "v4",
        "task_id": "t1",
        "kind": "asr",
        "title": "making fresh lemonade at home",
        "items": [
            {"text": "today we are going to make some fresh lemonade from scratch so stay tuned"},
            {"text": "first squeeze all the lemons into the pitcher until you have a cup of juice"},
            {"text": "now add the sugar and the cold water and give it a good stir until dissolved"},
            {"text": "dont forget to subscribe to the channel for more recipes"},
            {"text": "serve it chilled over ice and enjoy your drink on a hot day my friends"},
        ],
    },
]

ARTIFACTS = [
    LIBRARY_FILE,
    GROUNDED_LIBRARY_FILE,
    GROUNDED_FILE,
    STATS_FILE,
    MODEL_FILE,
    LOSSES_FILE,
    DECODED_FILE,
    GRAPH_JSON_FILE,
    GRAPH_DOT_FILE,
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
]


def test_criterion_10_pipeline_runs_are_byte_identical(tmp_path):
    for name, rows in (("tasks", TASKS), ("docs", DOCS), ("corpus", VIDEOS)):
        (tmp_path / f"{name}.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
    config_path = tmp_path / "settings.cfg"
    config_path.write_text("seed = 7\nk2 = 0.2\n", encoding="utf-8")

    def run_all(out_dir):
        cfg = str(config_path)
        stages = [
            ["library", "--config", cfg, "--tasks", str(tmp_path / "tasks.jsonl"), "--docs", str(tmp_path / "docs.jsonl")],
            ["ground", "--config", cfg, "--tasks", str(tmp_path / "tasks.jsonl"), "--corpus", str(tmp_path / "corpus.jsonl")],
            ["stats", "--config", cfg],
            ["train", "--config", cfg],
            ["losses", "--config", cfg, "--epoch", "30"],
            ["decode", "--config", cfg],
            ["graph", "--config", cfg],
            ["eval", "--config", cfg, "--split", "0.5"],
        ]
        for argv in stages:
            code = run_command(argv + ["--out-dir", str(out_dir)])
            assert code == 0, f"{argv[0]} exited with {code}"

    first, second = tmp_path / "run1", tmp_path / "run2"
    run_all(first)
    run_all(second)

    for name in ARTIFACTS:
        first_bytes = (first / name).read_bytes()
        second_bytes = (second / name).read_bytes()
        assert first_bytes == second_bytes, f"{name} differs between identical runs"
        assert first_bytes, f"{name} is empty"

"""Seeded generator of planted graph-script worlds.

A world is one task, its candidate documents and a corpus of videos,
written as the three JSONL files the scriptweave CLI reads. The planted
truth (each video's step path as canonical step texts, and whether the
video is on task) stays here: the program only ever sees the files.

Step texts are "<verb> the <noun>" with a made-up noun per step, so
every step has one rare token that identifies it and nouns differ by at
least three edits (no two library steps are near-duplicates). Annotated
items use the canonical text or a paraphrase drawn from a fixed pool per
step; narrated items wrap the step in filler words, and are mixed with
chatter pieces (no step matches them, so grounding drops them under
``k3``) and stop-word pieces (removed before grounding). Every narrated
item has more than ``asr_min_words`` words, so each item becomes one
transcript piece.

The same (workload, seed) gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TASK_ID = "t1"
TASK_NAME = "assemble cedar planter box"

VERBS = (
    "sand trim fold clamp rinse measure mark drill glue press stir pour mix slice "
    "peel chop whisk knead roll cut sew pin wrap tie seal paint brush wipe dry heat "
    "cool load attach tighten loosen align level fill drain sort"
).split()
MODIFIERS = "now then gently firmly carefully quickly slowly fully again first next well".split()
FILLERS = (
    "okay so um uh we just right here like this you can see that is it and then "
    "basically really going to want make sure kind of pretty much all good there "
    "yeah alright folks see"
).split()
CHATTER = (
    "weather sunny morning coffee weekend neighbours garden birds music camera "
    "lighting battery holiday traffic friends family dinner puppy kitten "
    "comments sale discount stream follow"
).split()
STOP_PHRASES = (
    "dont forget to subscribe to my channel for more videos like this one folks",
    "this video is brought to you by our sponsor so check them out below today",
    "hit the like button and subscribe if you want to see more of this stuff",
)
TITLE_EXTRAS = "tutorial diy guide easy quick simple".split()
VIDEO_EXTRAS = ("tutorial", "guide")  # common enough to keep on-task titles above k2
OFF_TASK_TITLES = (
    "quick pasta dinner recipe",
    "morning yoga routine for beginners",
    "fixing a flat bike tire",
    "knitting a winter scarf",
    "changing car engine oil",
    "painting a sunset landscape",
)
ONSET = "b d f g k l m n p r s t v z br dr gr pl st tr".split()
VOWEL = "a e i o u".split()
CODA = "l n r s k x m".split()

SLOTS = 12  # core positions of the planted procedure
ON_DOCS = 10
OFF_DOCS = 20
SWAP_RATE = 0.12  # per adjacent pair of slots
CANONICAL_SHARE = 0.8  # annotated items that use the canonical step text
PARAPHRASES = 40  # pool of paraphrases per step for annotated items
OFFTASK_SHARE = 0.15  # narrated videos with an off-task title
STOPWORD_SHARE = 0.10  # narrated pieces that carry a stop word
CHATTER_SHARE = 0.10  # narrated pieces that match no step


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one workload's world."""

    library_steps: int  # distinct steps across the on-task documents
    alternatives: int  # steps per slot; 0 spreads every library step over the slots
    preferred_share: float  # videos taking a slot's first alternative, when it has several
    optional_steps: int  # extra steps inserted after a fixed slot, each with optional_rate
    optional_rate: float
    labelled: int  # annotated videos
    narrated: int  # narrated videos, including off-task ones
    typo_share: float  # items whose step noun is misspelt


# Sizes are scaled so a whole pipeline repeats many times within one
# benchmark run, keeping each workload's leading layer at its share.
_NARROW = dict(
    library_steps=60, alternatives=1, preferred_share=1.0, optional_steps=2, optional_rate=0.08,
    typo_share=0.015,
)
WORKLOADS = {
    # Grounding through the narrated path: per-piece argmax, title gate, k3 drops,
    # over unique transcript pieces.
    "narrated": WorldSpec(labelled=25, narrated=75, **_NARROW),
    # Grounding through greedy one-to-one matching, with heavy item-text reuse.
    "annotated": WorldSpec(labelled=400, narrated=20, **_NARROW),
    # A large library with a flat choice per slot: costs that grow with V^2 lead.
    # Annotations are clean; the few narrated videos sit near the k3 threshold.
    "wide": WorldSpec(
        library_steps=100, alternatives=0, preferred_share=0.4, optional_steps=0,
        optional_rate=0.0, labelled=60, narrated=6, typo_share=0.0,
    ),
}


@dataclass
class World:
    tasks: list[dict]
    docs: list[dict]
    corpus: list[dict]
    # video_id -> (planted canonical step texts, on task)
    truth: dict[str, tuple[list[str], bool]]
    clean_share: float  # videos none of whose steps is misspelt


def _edit_distance(a: str, b: str) -> int:
    # The generator's own copy: the inputs must not change when the program does.
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y)))
        previous = current
    return previous[-1]


def _nouns(rng: random.Random, count: int) -> list[str]:
    reserved = set(" ".join(VERBS + MODIFIERS + FILLERS + CHATTER + TITLE_EXTRAS).split())
    reserved |= set(TASK_NAME.split())
    nouns: list[str] = []
    while len(nouns) < count:
        word = (
            rng.choice(ONSET) + rng.choice(VOWEL) + rng.choice(ONSET) + rng.choice(VOWEL)
            + rng.choice(CODA)
        )
        if word in reserved or any(_edit_distance(word, n) < 3 for n in nouns):
            continue
        nouns.append(word)
    return nouns


def _raw_variant(text: str, rng: random.Random) -> str:
    """A document spelling of a step that normalizes back to ``text``."""
    choice = rng.randrange(4)
    if choice == 0:
        return text.capitalize() + "."
    if choice == 1:
        return text + " (" + rng.choice(MODIFIERS) + ")"
    if choice == 2:
        return text.upper() + "!"
    return text


def _paraphrase_pool(verb: str, noun: str, rng: random.Random, size: int) -> list[str]:
    pool: set[str] = set()
    while len(pool) < size:
        words = [verb]
        if rng.random() < 0.5:
            words.append("the")
        words.append(noun)
        if rng.random() < 0.6:
            words.insert(0, rng.choice(MODIFIERS))
        if rng.random() < 0.6:
            words.append(rng.choice(MODIFIERS))
        pool.add(" ".join(words))
    return sorted(pool)


def _misspell(text: str, rng: random.Random) -> str:
    """Swap two adjacent letters of the step's noun."""
    words = text.split()
    noun = words[-1]
    i = rng.randrange(len(noun) - 1)
    words[-1] = noun[:i] + noun[i + 1] + noun[i] + noun[i + 2 :]
    return " ".join(words)


def _narration(text: str, rng: random.Random) -> str:
    words = rng.sample(FILLERS, 8)
    return " ".join(words[:4] + text.split() + words[4:])


def _chatter(rng: random.Random) -> str:
    words = rng.sample(FILLERS, 5) + rng.sample(CHATTER, 7)
    rng.shuffle(words)
    return " ".join(words)


def _exactly(rng: random.Random, population: int, share: float) -> set[int]:
    """A random subset of exactly round(share * population) indices.

    Events are placed by count rather than drawn one by one, so the
    world's shape, and the metrics it yields, vary little between seeds.
    """
    return set(rng.sample(range(population), round(share * population)))


def _planted_paths(spec: WorldSpec, slots: list[list[str]], optional: list[tuple[int, str]],
                   count: int, rng: random.Random) -> list[list[str]]:
    columns = []
    for choices in slots:  # the first alternative takes preferred_share, the rest split evenly
        first = round(spec.preferred_share * count) if len(choices) > 1 else count
        column = [choices[0]] * first + [choices[1 + i % (len(choices) - 1)]
                                         for i in range(count - first)]
        rng.shuffle(column)
        columns.append(column)
    paths = [list(row) for row in zip(*columns)]
    swapped: list[set[int]] = [set() for _ in range(count)]
    # Adjacent slots swap, except the final one: the procedure always ends the same way.
    # A step moves at most once.
    for i in range(len(slots) - 2):
        for v in sorted(_exactly(rng, count, SWAP_RATE)):
            if i - 1 not in swapped[v]:
                paths[v][i], paths[v][i + 1] = paths[v][i + 1], paths[v][i]
                swapped[v].add(i)
    for after, text in sorted(optional, reverse=True):
        for v in _exactly(rng, count, spec.optional_rate):
            paths[v].insert(after + 1, text)
    return paths


def generate_world(workload: str, seed: int, spec: WorldSpec | None = None) -> World:
    """Build the world of ``workload`` (or of an explicit ``spec``) from ``seed``."""
    spec = spec or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    nouns = _nouns(rng, spec.library_steps)
    texts = [f"{rng.choice(VERBS)} the {noun}" for noun in nouns]

    # Planted steps first, then steps only the documents mention.
    if spec.alternatives:
        slots = [[texts[i * spec.alternatives + a] for a in range(spec.alternatives)]
                 for i in range(SLOTS)]
    else:  # spread every library step over the slots
        per_slot = [spec.library_steps // SLOTS + (i < spec.library_steps % SLOTS)
                    for i in range(SLOTS)]
        starts = [sum(per_slot[:i]) for i in range(SLOTS)]
        slots = [texts[s : s + n] for s, n in zip(starts, per_slot)]
    used = sum(len(choices) for choices in slots)
    optional = [(4 + 4 * k, texts[used + k]) for k in range(spec.optional_steps)]
    used += spec.optional_steps
    extras = texts[used:]

    docs = []
    extra_per_doc = [extras[d :: ON_DOCS] for d in range(ON_DOCS)]
    for d in range(ON_DOCS):
        steps = []
        for i, choices in enumerate(slots):
            # A doc lists its share of each slot's alternatives (all of them when there is one).
            steps.extend(choices[d % len(choices) :: ON_DOCS] or choices[:1])
            steps.extend(text for after, text in optional if after == i and d % 2 == 0)
            if i % 3 == 2 and extra_per_doc[d]:
                steps.append(extra_per_doc[d].pop(0))
        steps.extend(extra_per_doc[d])
        title = f"How to {TASK_NAME.title()} {rng.choice(TITLE_EXTRAS)} {d + 1}"
        docs.append({"title": title, "steps": [_raw_variant(t, rng) for t in steps]})
    for d in range(OFF_DOCS):
        title = f"{OFF_TASK_TITLES[d % len(OFF_TASK_TITLES)]} part {d + 1}"
        off_steps = [f"{rng.choice(VERBS)} the {rng.choice(CHATTER)}" for _ in range(5)]
        docs.append({"title": title, "steps": off_steps})
    rng.shuffle(docs)

    planted_texts = [text for choices in slots for text in choices] + [text for _, text in optional]
    paraphrases = {
        text: _paraphrase_pool(text.split()[0], text.split()[-1], rng, PARAPHRASES)
        for text in planted_texts
    }

    count = spec.labelled + spec.narrated
    paths = _planted_paths(spec, slots, optional, count, rng)
    kinds = ["labelled"] * spec.labelled + ["asr"] * spec.narrated
    rng.shuffle(kinds)
    narrated = [v for v, kind in enumerate(kinds) if kind == "asr"]
    off_task = {narrated[i] for i in _exactly(rng, len(narrated), OFFTASK_SHARE)}
    positions = [(v, j) for v, path in enumerate(paths) for j in range(len(path))]
    typos = {positions[i] for i in _exactly(rng, len(positions), spec.typo_share)}

    corpus: list[dict] = []
    truth: dict[str, tuple[list[str], bool]] = {}
    for v, (kind, path) in enumerate(zip(kinds, paths)):
        video_id = f"v{v:05d}"
        truth[video_id] = (path, v not in off_task)
        said = [_misspell(text, rng) if (v, j) in typos else text for j, text in enumerate(path)]
        if kind == "labelled":
            items, clock = [], 0.0
            for text, spoken in zip(path, said):
                if spoken == text and rng.random() >= CANONICAL_SHARE:
                    spoken = rng.choice(paraphrases[text])
                start = round(clock + rng.uniform(0.5, 2.0), 2)
                clock = round(start + rng.uniform(1.0, 6.0), 2)
                items.append({"text": spoken, "start": start, "end": clock})
            corpus.append({"video_id": video_id, "task_id": TASK_ID, "kind": kind, "items": items})
            continue
        if v in off_task:
            title = rng.choice(OFF_TASK_TITLES)
            pieces = [_chatter(rng) for _ in path]
        else:
            title = TASK_NAME if rng.random() < 0.6 else f"{TASK_NAME} {rng.choice(VIDEO_EXTRAS)}"
            pieces = []
            for spoken in said:
                while rng.random() < CHATTER_SHARE:
                    pieces.append(_chatter(rng))
                if rng.random() < STOPWORD_SHARE:
                    pieces.append(rng.choice(STOP_PHRASES))
                pieces.append(_narration(spoken, rng))
        corpus.append({
            "video_id": video_id, "task_id": TASK_ID, "kind": kind, "title": title,
            "items": [{"text": piece} for piece in pieces],
        })

    tasks = [{"task_id": TASK_ID, "task_name": TASK_NAME}]
    clean_share = 1.0 - len({v for v, _ in typos}) / count
    return World(tasks, docs, corpus, truth, clean_share)


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_world(world: World, directory: Path) -> dict[str, Path]:
    """Write the program's three input files; returns their paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rows in (("tasks", world.tasks), ("docs", world.docs), ("corpus", world.corpus)):
        path = directory / f"{name}.jsonl"
        path.write_text(_jsonl(rows), encoding="utf-8")
        paths[name] = path
    return paths

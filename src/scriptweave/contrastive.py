"""Path-level contrastive losses and negative sequence generation.

A generated path should score higher than corrupted variants of the
observed paths. Negatives come from three corruption methods mixed by a
training-epoch curriculum; the loss contrasts a generated-path embedding
against one positive and its negatives.
"""

from __future__ import annotations

import math
import operator
import random
from typing import NamedTuple, Sequence

from .corpus import StepLibrary
from .errors import DegenerateInput, EmptySequence
from .pathmodel import check_steps
from .record import Record
from .similarity import SimilarityProvider, cosine

NEGATIVE_METHODS = ("resample", "shuffle", "cutswap")


class NegativeGenConfig(Record):
    _fields = ("num_negatives", "max_shuffle_attempts", "rng_seed")

    def __init__(self, num_negatives: int = 3, max_shuffle_attempts: int = 100, rng_seed: int = 0):
        self.num_negatives, self.rng_seed = num_negatives, rng_seed
        self.max_shuffle_attempts = max_shuffle_attempts
        if num_negatives < 0:
            raise ValueError("num_negatives must be non-negative")
        if max_shuffle_attempts < 1:
            raise ValueError("max_shuffle_attempts must be at least 1")


class LossConfig(Record):
    _fields = ("temperature", "alpha")

    def __init__(self, temperature: float = 0.1, alpha: float = 1.0):
        self.temperature, self.alpha = temperature, alpha
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")


class ContrastiveBatch(Record):
    """Embeddings for one loss evaluation: generated, positive, negatives."""

    _fields = ("z_generated", "z_positive", "z_negatives")

    def __init__(self, z_generated: Sequence[float], z_positive: Sequence[float], z_negatives=None):
        self.z_generated, self.z_positive = z_generated, z_positive
        self.z_negatives = [] if z_negatives is None else z_negatives


class MixtureWeights(NamedTuple):
    resample: float
    shuffle: float
    cutswap: float


def curriculum_mixture(epoch: int) -> MixtureWeights:
    """Negative-method mixture for a training epoch.

    Weights shift in 5-epoch blocks: 20% moves from resample to shuffle
    per block until shuffle owns everything at epoch 25, then 20% per
    block from shuffle to cutswap, capped at pure cutswap.
    """
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    block = epoch // 5
    if block <= 0:
        return MixtureWeights(1.0, 0.0, 0.0)
    if block <= 5:
        return MixtureWeights((5 - block) / 5, block / 5, 0.0)
    if block <= 10:
        return MixtureWeights(0.0, (10 - block) / 5, (block - 5) / 5)
    return MixtureWeights(0.0, 0.0, 1.0)


def draw_negative_method(mixture: MixtureWeights, rng: random.Random) -> str:
    roll = rng.random()
    if roll < mixture.resample:
        return "resample"
    if roll < mixture.resample + mixture.shuffle:
        return "shuffle"
    return "cutswap"


def generate_negative(
    positive: Sequence[int],
    method: str,
    library: StepLibrary,
    valid_set: set,
    cfg: NegativeGenConfig | None = None,
    rng: random.Random | None = None,
) -> list[int]:
    """Corrupt a positive sequence into a guaranteed-invalid negative.

    resample draws a fresh same-length sequence from the library without
    replacement (wrong steps, wrong order). shuffle permutes the positive
    and cutswap rotates it at a random cut, so both keep the step set but
    break the order. Every method returns a sequence that differs from
    the positive and is not in valid_set, a set of step-id tuples.
    """
    cfg = cfg or NegativeGenConfig()
    rng = rng or random.Random(cfg.rng_seed)
    positive = list(positive)
    if not positive:
        raise DegenerateInput("cannot corrupt an empty sequence")
    target = tuple(positive)

    if method == "resample":
        ids = library.step_ids()
        if len(positive) > len(ids):
            raise DegenerateInput(
                f"cannot resample {len(positive)} steps from a library of {len(ids)}"
            )
        for _ in range(cfg.max_shuffle_attempts):
            candidate = rng.sample(ids, len(positive))
            if tuple(candidate) != target and tuple(candidate) not in valid_set:
                return candidate
        raise DegenerateInput("resampling kept producing valid sequences")

    if method == "shuffle":
        if len(positive) < 2:
            raise DegenerateInput("cannot shuffle a single-step sequence")
        for _ in range(cfg.max_shuffle_attempts):
            candidate = positive[:]
            rng.shuffle(candidate)
            if tuple(candidate) != target and tuple(candidate) not in valid_set:
                return candidate
        # deterministic last resort, still subject to the invalidity guarantee
        reversal = positive[::-1]
        if tuple(reversal) != target and tuple(reversal) not in valid_set:
            return reversal
        raise DegenerateInput("every permutation tried is a valid sequence")

    if method == "cutswap":
        if len(positive) < 2:
            raise DegenerateInput("cannot cut a single-step sequence")
        cuts = list(range(1, len(positive)))
        first = rng.choice(cuts)
        for cut in [first] + [c for c in cuts if c != first]:
            candidate = positive[cut:] + positive[:cut]
            if tuple(candidate) != target and tuple(candidate) not in valid_set:
                return candidate
        raise DegenerateInput("every rotation of the sequence is valid")

    raise ValueError(f"unknown negative method {method!r}")


def sequence_representation(
    step_ids: Sequence[int], library: StepLibrary, provider: SimilarityProvider
) -> tuple[float, ...]:
    """Mean of the step-text embeddings along a path: the vectors are added
    left to right to a zero vector, then every component is divided by the
    path length."""
    step_ids = list(step_ids)
    if not step_ids:
        raise EmptySequence("cannot embed an empty sequence")
    check_steps(step_ids, library)
    texts = [library.steps[step_id].normalized_text for step_id in step_ids]
    vectors = provider.embed(texts)
    if len({len(vec) for vec in vectors}) > 1:
        raise ValueError("step embeddings have different dimensions")
    total = (0.0,) * len(vectors[0])
    for vec in vectors:
        total = tuple(map(operator.add, total, vec))
    return tuple(x / len(vectors) for x in total)


def path_level_losses(
    batch: ContrastiveBatch, nll: float, cfg: LossConfig | None = None
) -> tuple[float, float, float]:
    """(contrastive, cross-entropy, total) losses for one batch.

    The contrastive part is temperature-scaled softmax over cosine
    similarities of the generated embedding with the positive versus the
    negatives; with no negatives it is exactly zero. The cross-entropy
    part is the supplied sequence NLL, and total = ce + alpha * contrastive.
    """
    cfg = cfg or LossConfig()
    z_g = batch.z_generated
    sims = [cosine(z_g, batch.z_positive)] + [cosine(z_g, z_n) for z_n in batch.z_negatives]
    scaled = [s / cfg.temperature for s in sims]
    # log-sum-exp with max shift for stability
    peak = max(scaled)
    logsum = peak + math.log(math.fsum(math.exp(s - peak) for s in scaled))
    contrastive = -(scaled[0] - logsum)
    total = nll + cfg.alpha * contrastive
    return contrastive, nll, total


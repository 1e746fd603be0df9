"""Path-level contrastive losses and negative sequence generation.

A generated path should score higher than corrupted variants of the
observed paths. Negatives come from three corruption methods mixed by a
training-epoch curriculum; the loss contrasts a generated-path embedding
against one positive and its negatives.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .corpus import StepLibrary
from .errors import DegenerateInput, EmptySequence
from .pathmodel import check_steps
from .similarity import SimilarityProvider, cosine

if TYPE_CHECKING:
    from .cli import PipelineConfig

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
    max_shuffle_attempts: int,
    rng: random.Random,
) -> list[int]:
    """Corrupt a positive sequence into a guaranteed-invalid negative.

    resample draws a fresh same-length sequence from the library without
    replacement (wrong steps, wrong order). shuffle permutes the positive
    and cutswap rotates it at a random cut, so both keep the step set but
    break the order. Every method returns a sequence that differs from
    the positive and is not in valid_set, a set of step-id tuples.
    resample and shuffle draw at most max_shuffle_attempts candidates.
    """
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
        candidates = (rng.sample(ids, len(positive)) for _ in range(max_shuffle_attempts))
    elif method == "shuffle":
        if len(positive) < 2:
            raise DegenerateInput("cannot shuffle a single-step sequence")
        candidates = _shuffles(positive, max_shuffle_attempts, rng)
    elif method == "cutswap":
        if len(positive) < 2:
            raise DegenerateInput("cannot cut a single-step sequence")
        first = rng.choice(range(1, len(positive)))
        cuts = [first] + [cut for cut in range(1, len(positive)) if cut != first]
        candidates = (positive[cut:] + positive[:cut] for cut in cuts)
    else:
        raise ValueError(f"unknown negative method {method!r}")
    # The candidates are drawn lazily, so the search stops drawing at the first valid one.
    for candidate in candidates:
        if tuple(candidate) != target and tuple(candidate) not in valid_set:
            return candidate
    raise DegenerateInput(f"every {method} candidate tried is a valid sequence")


def _shuffles(positive: list[int], attempts: int, rng: random.Random) -> Iterator[list[int]]:
    """attempts shuffled copies of positive, then its reversal as a deterministic last resort."""
    for _ in range(attempts):
        candidate = positive[:]
        rng.shuffle(candidate)
        yield candidate
    yield positive[::-1]


class StepVectors(NamedTuple):
    """Each library step's embedding as its nonzero (component, value) pairs, by step id."""
    dim: int
    nonzeros: list[list[tuple[int, float]]]


def step_vectors(library: StepLibrary, provider: SimilarityProvider) -> StepVectors:
    """Embed every step text once; embeddings of different dimensions are a ValueError."""
    vectors = provider.embed(library.texts())
    if len({len(vec) for vec in vectors}) > 1:
        raise ValueError("step embeddings have different dimensions")
    dim = len(vectors[0]) if vectors else 0
    return StepVectors(dim, [[(i, x) for i, x in enumerate(vec) if x] for vec in vectors])


def sequence_representation(
    step_ids: Sequence[int], library: StepLibrary, vectors: StepVectors
) -> tuple[float, ...]:
    """Mean of the step-text embeddings along a path: the vectors are added
    left to right to a zero vector, then every component is divided by the
    path length. Only nonzero components are added: adding 0.0 or -0.0 to a
    sum that starts at 0.0 never changes it."""
    step_ids = list(step_ids)
    if not step_ids:
        raise EmptySequence("cannot embed an empty sequence")
    check_steps(step_ids, library)
    total = [0.0] * vectors.dim
    for step_id in step_ids:
        for i, x in vectors.nonzeros[step_id]:
            total[i] += x
    return tuple(x / len(step_ids) for x in total)


def path_level_losses(
    z_generated: Sequence[float], z_positive: Sequence[float],
    z_negatives: Sequence[Sequence[float]], nll: float, cfg: PipelineConfig,
) -> tuple[float, float]:
    """(contrastive, total) losses of a generated path's embedding.

    The contrastive part is temperature-scaled softmax over cosine
    similarities of the generated embedding with the positive versus the
    negatives; with no negatives it is exactly zero. The cross-entropy
    part is the supplied sequence NLL, and total = nll + alpha * contrastive.
    """
    sims = [cosine(z_generated, z_positive)] + [cosine(z_generated, z_n) for z_n in z_negatives]
    scaled = [s / cfg.temperature for s in sims]
    # log-sum-exp with max shift for stability
    peak = max(scaled)
    logsum = peak + math.log(math.fsum(math.exp(s - peak) for s in scaled))
    contrastive = logsum - scaled[0]
    total = nll + cfg.alpha * contrastive
    return contrastive, total


"""Exception types raised across the package.

Everything inherits from ScriptweaveError so callers can catch one base
class at pipeline boundaries.
"""


class ScriptweaveError(Exception):
    """Base class for all package errors."""


class EmptyStep(ScriptweaveError):
    """Step text is empty after normalization."""


class NoDocuments(ScriptweaveError):
    """No candidate documents survive the keyword filters."""


class EmptyCorpus(ScriptweaveError):
    """An operation that needs at least one sequence received none."""


class EmptySequence(ScriptweaveError):
    """No item in a video could be grounded onto the step library."""


class UnknownStep(ScriptweaveError):
    """A step id does not exist in the library in scope."""


class DegenerateInput(ScriptweaveError):
    """Input too small or too constrained for the requested operation."""


class ZeroVector(ScriptweaveError):
    """A representation has zero norm, so cosine similarity is undefined."""


class EmptyLibrary(ScriptweaveError):
    """A step library with no steps was supplied."""


class NoCompletion(ScriptweaveError):
    """Beam search found no sequence reaching the end marker in budget."""


class EmptyInput(ScriptweaveError):
    """An empty path collection was passed to graph induction."""


class TooFewSequences(ScriptweaveError):
    """Not enough sequences to build a train/test split."""


class LengthMismatch(ScriptweaveError):
    """Predictions and evaluation examples are not aligned."""


class BadConfig(ScriptweaveError):
    """Configuration file, flag, or environment override is invalid."""


class BadInput(ScriptweaveError):
    """An input file holds a line that is not valid JSON or not a valid row."""


class MissingArtifact(ScriptweaveError):
    """A pipeline stage needs an artifact that has not been produced."""


class EmbeddingServiceError(ScriptweaveError):
    """The external embedding service failed, timed out, or misbehaved."""

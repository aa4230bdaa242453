"""Every exception class nsqt raises; the CLI's exit code follows the class.

* ``ContractError``: an argument, key or combination the user can fix; exit 1.
* ``CapacityError``: an input past a size bound (max_len, enumeration); exit 2.
* ``FormatError``: an unreadable or malformed corpus, vocabulary or report input; exit 2.
* ``EmptyCorpusError``: a ``FormatError`` for a corpus without sentence pairs; exit 2.
* ``CheckpointError``: a truncated, corrupt or unbuildable checkpoint; exit 2.
* ``TrainingError``: a non-finite loss or gradient, or no update; exit 2.
* ``GraphError``: autodiff misuse (backward on a non-scalar, cached step with grad); exit 2.
"""


class ContractError(ValueError):
    """Caller violated a documented precondition of a function or config."""


class CapacityError(RuntimeError):
    """Input exceeds a configured size bound (model max_len, enumeration limit)."""


class FormatError(ValueError):
    """Malformed, unreadable or missing corpus, vocabulary or report input."""


class EmptyCorpusError(FormatError):
    """A corpus without sentence pairs where sentences are needed."""


class CheckpointError(RuntimeError):
    """A checkpoint file that cannot be read back into a model."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss or gradient) or made no update."""


class GraphError(RuntimeError):
    """Backward invoked on something that is not a recorded scalar, or a
    graph-free operation called while gradients are recorded."""

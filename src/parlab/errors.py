"""Exception types shared across the package."""


class ParlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(ParlabError, ValueError):
    """A generator or config parameter violates its precondition."""


class InvalidSpecError(ParlabError, ValueError):
    """A task spec is internally inconsistent (e.g. ground-truth cardinality mismatch)."""


class EpisodeDoneError(ParlabError, RuntimeError):
    """An action was applied to an episode that has already terminated."""


class InvalidSubtaskError(ParlabError, ValueError):
    """A subtask descriptor references work units that do not exist in the parent task."""


class MissingBudgetError(ParlabError, KeyError):
    """A reward transform needed a per-task budget that was never estimated."""


class FrozenBudgetError(ParlabError, RuntimeError):
    """Attempted to modify a budget table after it was frozen."""


class ConfigError(ParlabError, ValueError):
    """An experiment configuration is invalid."""


class MissingSnapshotError(ParlabError, KeyError):
    """Replay required a parameter snapshot that is not available."""


class MissingTraceDataError(ParlabError, ValueError):
    """A trace record lacks the fields required for the requested operation."""


class CorruptFileError(ParlabError, ValueError):
    """A persisted trace or parameter file is not valid JSON (e.g. cut mid-record)."""

"""Exception hierarchy shared by every engine module.

Every error raised on purpose by this package derives from EngineError so
callers (and the CLI) can separate engine failures from programming bugs.
"""


class EngineError(Exception):
    """Base class for all engine-raised errors."""

    kind = "EngineError"


class ShapeError(EngineError, ValueError):
    """Operand shapes or dtypes are incompatible with the requested op."""

    kind = "ShapeError"


class GraphError(EngineError, RuntimeError):
    """Autograd misuse, e.g. backward on a non-scalar without a seed."""

    kind = "GraphError"


class ArchError(EngineError, ValueError):
    """Malformed architecture string. Carries the byte offset of the fault."""

    kind = "ArchError"

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class BuildError(EngineError, ValueError):
    """Architecture parsed fine but the network cannot be assembled."""

    kind = "BuildError"


class AuditError(EngineError, RuntimeError):
    """Strict-mode spike-drivenness violation during a forward pass."""

    kind = "AuditError"


class NumericError(EngineError, FloatingPointError):
    """Non-finite value reached a neuron input or a loss."""

    kind = "NumericError"


class DivergenceError(NumericError):
    """Training loss became NaN; carries epoch/batch diagnostics."""

    kind = "DivergenceError"

    def __init__(self, message: str, epoch: int | None = None,
                 batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class DataFormatError(EngineError, ValueError):
    """Base class for on-disk format problems (IDX, events, checkpoints)."""

    kind = "DataFormatError"


class BadMagic(DataFormatError):
    kind = "BadMagic"


class Truncated(DataFormatError):
    kind = "Truncated"


class CountMismatch(DataFormatError):
    kind = "CountMismatch"


class CheckpointError(DataFormatError):
    kind = "CheckpointError"


class VersionMismatch(CheckpointError):
    kind = "VersionMismatch"


class ArchMismatch(CheckpointError):
    kind = "ArchMismatch"


class CorruptPayload(CheckpointError):
    kind = "CorruptPayload"


class DatasetNotFound(EngineError, FileNotFoundError):
    kind = "DatasetNotFound"


class ConfigError(EngineError, ValueError):
    kind = "ConfigError"


class PruneRefused(EngineError, RuntimeError):
    """Pruning verification found spikes on a supposedly dead shortcut."""

    kind = "PruneRefused"

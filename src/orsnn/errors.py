"""Exception hierarchy shared by every engine module.

Every error raised on purpose by this package derives from EngineError so
callers (and the CLI) can separate engine failures from programming bugs.
"""


class EngineError(Exception):
    """Base class for all engine-raised errors."""

    @property
    def kind(self) -> str:
        """The class name, which the CLI prints before the message."""
        return type(self).__name__


class ShapeError(EngineError, ValueError):
    """Operand shapes or dtypes are incompatible with the requested op."""


class GraphError(EngineError, RuntimeError):
    """Autograd misuse: backward on a non-scalar without a seed, or a
    backward that reaches a graph an earlier backward consumed."""


class ArchError(EngineError, ValueError):
    """Malformed architecture string. Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class BuildError(EngineError, ValueError):
    """Architecture parsed fine but the network cannot be assembled."""


class NumericError(EngineError, FloatingPointError):
    """Non-finite value reached a neuron input or a loss."""


class DivergenceError(NumericError):
    """Training loss became NaN; carries epoch/batch diagnostics."""

    def __init__(self, message: str, epoch: int | None = None,
                 batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class DataFormatError(EngineError, ValueError):
    """Base class for on-disk format problems (IDX, events, checkpoints)."""


class BadMagic(DataFormatError):
    pass


class Truncated(DataFormatError):
    pass


class CountMismatch(DataFormatError):
    pass


class CheckpointError(DataFormatError):
    pass


class VersionMismatch(CheckpointError):
    pass


class ArchMismatch(CheckpointError):
    pass


class CorruptPayload(CheckpointError):
    pass


class DatasetNotFound(EngineError, FileNotFoundError):
    pass


class ConfigError(EngineError, ValueError):
    pass


class PruneRefused(EngineError, RuntimeError):
    """Pruning verification found spikes on a supposedly dead shortcut."""

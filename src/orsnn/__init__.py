"""orsnn: spiking residual networks joined by bitwise OR shortcuts, with
synergistic spike-gated attention, spike-drivenness auditing, MAC/AC
energy estimation, and natural shortcut pruning.
"""

from .attention import (AttentionGate, AttentionPlan, SpatialAttention,
                        make_attention)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ExperimentConfig, load_config, parse_config, render_config,
                     save_config)
from .data import (FramedEventSet, IdxDataset, Transform, augment, load_events,
                   load_idx, load_idx_dir, parse_transforms, read_csv,
                   save_events, save_idx_images, save_idx_labels, synth_events,
                   write_csv)
from .errors import (ArchError, ArchMismatch, BadMagic, BuildError,
                     CheckpointError, ConfigError, CorruptPayload,
                     CountMismatch, DataFormatError, DatasetNotFound,
                     DivergenceError, EngineError, GraphError, NumericError,
                     PruneRefused, ShapeError, Truncated, VersionMismatch)
from .metrics import (EnergyReport, FiringRateTrace, PruningReport,
                      apply_pruning, detect_natural_pruning, estimate_energy)
from .network import Network, build_network, frames_to_input
from .neuron import LIFConfig, lif_multistep
from .record import LayerLine, SpikeRecord, instrumented_pass, layer_table
from .residual import (AuditReport, JoinMode, ResidualBlock,
                       audit_spike_drivenness, build_block, join)
from .tensor import Tensor, backward, no_grad
from .training import (Adam, EpochStats, TABLE_DEFAULTS, TrainConfig,
                       TrainingLog, evaluate, train)

__version__ = "0.1.0"

"""orsnn: spiking residual networks joined by bitwise OR shortcuts, with
synergistic spike-gated attention, spike-drivenness auditing, MAC/AC
energy estimation, and natural shortcut pruning.
"""

from .attention import (AttentionGate, AttentionPlan, ChannelAttention,
                        SpatialAttention, TemporalAttention, apply_attention,
                        make_attention)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ExperimentConfig, experiment_defaults, load_config,
                     parse_config, render_config, save_config)
from .data import (FramedEventSet, IdxDataset, Transform, augment, load_events,
                   load_idx, load_idx_dir, parse_transforms, read_csv,
                   save_events, save_idx_images, save_idx_labels, synth_events,
                   write_csv)
from .errors import (ArchError, ArchMismatch, AuditError, BadMagic, BuildError,
                     CheckpointError, ConfigError, CorruptPayload,
                     CountMismatch, DataFormatError, DatasetNotFound,
                     DivergenceError, EngineError, GraphError, NumericError,
                     PruneRefused, ShapeError, Truncated, VersionMismatch)
from .metrics import (EnergyModel, EnergyReport, FiringRateTrace,
                      PruningReport, apply_pruning, conv_flops,
                      detect_natural_pruning, estimate_energy, fc_flops)
from .network import Network, build_network, encode_static, frames_to_input
from .neuron import (LIFConfig, LIFState, lif_multistep, lif_reference_trace,
                     lif_step, smooth_spike_fn, spike_fn, surrogate_grad)
from .record import SpikeRecord, instrumented_pass
from .residual import (AuditReport, BlockTopology, JoinMode, ResidualBlock,
                       audit_spike_drivenness, build_block, join)
from .tensor import Tensor, backward, no_grad
from .training import (Adam, EpochStats, TABLE_DEFAULTS, TrainConfig,
                       TrainingLog, default_config, evaluate, train)

__version__ = "0.1.0"

"""Prune-assisted domain adaptation toolkit.

Compute unstructured-magnitude pruning masks from pre-trained, fine-tuned or
cross-domain donor models, zero the selected weights while keeping them
trainable, drive fine-tuning under once / iterative / dynamic-iterative
pruning schedules, and analyze mask similarity with IOU and MMA.
"""

from .params import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    MASK_MAGIC,
    FormatError,
    ParameterSet,
    StructureMismatchError,
    Tensor,
    load_checkpoint,
    save_checkpoint,
    structural_mismatch,
)
from .pruning import (
    Mask,
    MaskEntry,
    apply_zeroing,
    compute_ump_mask,
    load_mask,
    prune_count,
    save_mask,
    sparsity,
)
from .metrics import SimilarityReport, iou, iou_counts, layerwise_report, mma, mma_counts
from .trainer import (
    LabeledBatch,
    ModelArch,
    TrainConfig,
    TrainingDivergedError,
    UnlabeledBatch,
    evaluate,
    finetune_supervised,
    init_model,
    loss_and_grads,
    pretrain_denoising,
    sgd_step,
)
from .data import DomainShiftSpec, DomainShiftTask, apply_shift, gen_domain_shift
from .strategies import cdtaw_mask, initial_model, tag_mask, taw_mask
from .schedule import (
    LARGE_RATE_PRESETS,
    PadaRunLog,
    PruneEvent,
    PruneSchedule,
    ScheduleError,
    run_dft,
    run_pada,
    validate,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config, parse_config

__version__ = "0.1.0"

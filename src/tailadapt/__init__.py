"""Two-phase contrastive training with a balanced residual adapter for
long-tailed recognition, small enough to verify end to end.

The pieces: a reverse-mode autodiff core over a closed op set, a dual
encoder into a shared normalized space, the contrastive loss and zero-shot
classification rule, a residual adapter, long-tailed data synthesis with
re-balancing samplers, the two-phase training pipeline, shot-split
evaluation, and binary persistence for datasets and checkpoints.
"""

from .autodiff import Graph, Tensor, grad_check
from .adapter import AdapterParams, adapt, adapted_text, adapted_visual
from .contrastive import (
    BatchPair,
    ClassBank,
    loss_l2v,
    loss_v2l,
    predict,
    predict_batch,
    zero_shot_probs,
)
from .data import (
    DatasetSpec,
    LongTailedDataset,
    SamplerState,
    draw,
    draw_batch,
    read_dataset,
    sampler_probs,
    shot_split,
    synth_exponential,
    synth_pareto,
    write_dataset,
)
from .encoders import (
    FrozenView,
    ModelConfig,
    ModelParams,
    encode_text,
    encode_visual,
    freeze,
)
from .evaluation import Metrics, evaluate, metrics_from_predictions, predict_test_split
from .experiments import ablation_grid, format_table, sweep_lambda
from .training import (
    RunConfig,
    RunResult,
    cosine_lr,
    load_checkpoint,
    load_config,
    run,
    save_checkpoint,
    save_run,
    sgd_momentum_step,
    train_phase_a,
    train_phase_b,
    warm_start,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

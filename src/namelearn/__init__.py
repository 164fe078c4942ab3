"""Few-shot name-embedding learning for dual-encoder models.

A frozen visual encoder that generalizes to new concepts, a frozen text
encoder that is blind to their names, and four cooperating agents that learn
name embeddings to repair the broken image-text alignment — all on a fully
synthetic, reproducible testbed.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, backward, grad_check
from .harness import (
    ExperimentConfig,
    emit_metrics,
    run_ablation,
    run_few_shot,
    run_zero_shot,
)
from .session import SessionSettings, TrainingSession
from .world import WorldConfig, build_world

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
    "ExperimentConfig",
    "emit_metrics",
    "run_ablation",
    "run_few_shot",
    "run_zero_shot",
    "SessionSettings",
    "TrainingSession",
    "WorldConfig",
    "build_world",
    "__version__",
]

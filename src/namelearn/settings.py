"""The one record of session settings, from config file to the agents.

``SessionSettings`` holds every knob a training session reads: the three
hyperparameters ``alpha``, ``difficulty_threshold`` and ``lambda_mix``, and
the eight ablation flags.  The image and text agents and the coordinator's
loss read it directly.  Its values are checked once, when the record is
built, so a bad config fails before any world exists.  ``harness.ExperimentConfig`` extends it with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """Bad experiment configuration or config file."""


@dataclass(frozen=True)
class SessionSettings:
    alpha: float = 0.1  # residual coefficient in the robust image encoding
    difficulty_threshold: float = 0.5  # robust at or above this score
    lambda_mix: float = 0.7  # weight of the plain text feature in the fusion
    disable_image_agent_robust: bool = False  # never route to the robust path
    disable_text_context: bool = False  # standard text encoding only
    disable_name_agent: bool = False
    disable_coordinator_dynamics: bool = False  # fixed tau and loss weights
    disable_context_exchange: bool = False
    simple_concat_fusion: bool = False  # one linear map instead of two layers
    disable_difficulty: bool = False  # neutral score 0.5, no estimation
    disable_dynamic_balancing: bool = False  # fixed loss weights only

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 < self.difficulty_threshold < 1.0:
            raise ConfigError(f"difficulty_threshold {self.difficulty_threshold} outside (0, 1)")
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ConfigError(f"lambda_mix {self.lambda_mix} outside [0, 1]")

"""The one record of session settings, from config file to the agents.

``SessionSettings`` is exactly the paper's eight ablation arms, one bool each;
``harness.ABLATION_FLAGS`` is read off its fields.  The agents, the session
and the coordinator's parameters read it directly, each flag in one function,
and an arm builds only the learnables it trains.  The fixed hyperparameters
are module constants of the agents that use them (``image_agent.ALPHA`` and
``DIFFICULTY_THRESHOLD``, ``text_agent.LAMBDA_MIX``).
``harness.ExperimentConfig`` extends it with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """Bad experiment configuration or config file."""


@dataclass(frozen=True)
class SessionSettings:
    disable_image_agent_robust: bool = False  # never route to the robust path
    disable_text_context: bool = False  # standard text encoding only
    disable_name_agent: bool = False
    disable_coordinator_dynamics: bool = False  # fixed tau and loss weights
    disable_context_exchange: bool = False
    simple_concat_fusion: bool = False  # one linear map instead of two layers
    disable_difficulty: bool = False  # neutral score 0.5, no estimation
    disable_dynamic_balancing: bool = False  # fixed loss weights only

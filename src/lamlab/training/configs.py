"""Training-phase configuration values, checked on construction (``ValueError``)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import check_ints, check_numbers

__all__ = ["SftConfig", "RmConfig", "PpoConfig", "BoostConfig", "PhaseConfigs"]


@dataclass(frozen=True)
class SftConfig:
    """Minibatch SGD with a linear warmup, then cosine decay. The defaults are
    the phase 2-3 imitation recipe sized for the linear heads; ``PhaseConfigs``
    sets phase 1's own. Each phase's loss fixes its own weighting: phase 1
    counts every plan target equally, phases 2-3 every trajectory."""

    learning_rate: float = 0.5
    warmup_steps: int = 2
    batch_size: int = 8
    epochs: int = 60

    def __post_init__(self) -> None:
        check_numbers(self, "learning_rate")
        check_ints(self, 1, "batch_size", "epochs")
        check_ints(self, 0, "warmup_steps")


@dataclass(frozen=True)
class RmConfig:
    """AdamW with a linearly decaying step size; the defaults are sized for the
    linear reward head."""

    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 16

    def __post_init__(self) -> None:
        check_numbers(self, "learning_rate")
        check_ints(self, 1, "batch_size", "epochs")


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 1.4e-5
    minibatch_size: int = 1
    ppo_epochs: int = 4
    kl_target: float = 0.1
    kl_coef_init: float = 0.2
    clip_epsilon: float = 0.2
    # Normalized rewards are scaled onto [-reward_high, reward_high].
    reward_high: float = 0.5

    def __post_init__(self) -> None:
        check_numbers(self, "learning_rate", "kl_target", "reward_high")
        check_numbers(self, "kl_coef_init", zero_ok=True)
        check_ints(self, 1, "minibatch_size", "ppo_epochs")
        if not 0 < self.clip_epsilon < 1:
            raise ValueError("clip_epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class BoostConfig:
    attempts_per_task: int = 3
    max_steps: int = 20

    def __post_init__(self) -> None:
        check_ints(self, 1, "attempts_per_task", "max_steps")


@dataclass(frozen=True)
class PhaseConfigs:
    sft: SftConfig = field(
        default_factory=lambda: SftConfig(learning_rate=0.8, batch_size=16, epochs=40)
    )
    imitation: SftConfig = field(default_factory=SftConfig)
    rm: RmConfig = field(default_factory=RmConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    boost: BoostConfig = field(default_factory=BoostConfig)

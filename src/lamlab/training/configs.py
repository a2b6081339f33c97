"""Training-phase configuration values."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SftConfig", "RmConfig", "PpoConfig", "BoostConfig", "PhaseConfigs"]


@dataclass(frozen=True)
class SftConfig:
    learning_rate: float = 2e-5
    schedule: str = "cosine"  # "cosine" | "constant"
    warmup_steps: int = 2
    batch_size: int = 16
    epochs: int = 3
    # Weighting of the double sum over trajectories and steps: per-trajectory
    # mean of per-step means (default) or one global mean over steps.
    step_mean: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"schedule must be 'cosine' or 'constant', got {self.schedule!r}")


@dataclass(frozen=True)
class RmConfig:
    learning_rate: float = 2e-5
    schedule: str = "linear"  # "linear" | "constant"
    optimizer: str = "adamw"  # "adamw" | "gd"
    epochs: int = 2
    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.schedule not in ("linear", "constant"):
            raise ValueError(f"schedule must be 'linear' or 'constant', got {self.schedule!r}")
        if self.optimizer not in ("adamw", "gd"):
            raise ValueError(f"optimizer must be 'adamw' or 'gd', got {self.optimizer!r}")


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 1.4e-5
    minibatch_size: int = 1
    ppo_epochs: int = 4
    kl_target: float = 0.1
    kl_coef_init: float = 0.2
    clip_epsilon: float = 0.2
    reward_low: float = -0.5
    reward_high: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.clip_epsilon < 1:
            raise ValueError("clip_epsilon must lie in (0, 1)")
        if self.reward_low != -self.reward_high:
            raise ValueError("reward range must be symmetric")


@dataclass(frozen=True)
class BoostConfig:
    attempts_per_task: int = 3
    max_steps: int = 20
    base_seed: int = 0


@dataclass(frozen=True)
class PhaseConfigs:
    sft: SftConfig = field(default_factory=SftConfig)
    imitation: SftConfig = field(default_factory=SftConfig)
    rm: RmConfig = field(default_factory=RmConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    boost: BoostConfig = field(default_factory=BoostConfig)

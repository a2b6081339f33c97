"""Four-phase training: plan SFT, imitation, self-boosting, RM + offline PPO."""

from .boost import self_boost
from .configs import BoostConfig, PhaseConfigs, PpoConfig, RmConfig, SftConfig
from .losses import (
    imitation_loss,
    learning_rate_at,
    prepare_imitation,
    prepare_plans,
    prepare_status,
    sft_plan_loss,
    status_loss,
    train_params,
)
from .phases import (
    checkpoint_dir,
    collect_failed_tasks,
    load_checkpoint,
    records_to_imitation,
    run_phase,
)
from .ppo import (
    PpoDiagnostics,
    clipped_term,
    compute_advantage,
    ppo_update,
    scale_reward,
)
from .reward import (
    RewardedStep,
    RewardModelParams,
    prepare_rewarded,
    rm_features,
    rm_mse_loss,
    train_reward_model,
)

__all__ = [
    "self_boost",
    "BoostConfig",
    "PhaseConfigs",
    "PpoConfig",
    "RmConfig",
    "SftConfig",
    "imitation_loss",
    "learning_rate_at",
    "prepare_imitation",
    "prepare_plans",
    "prepare_status",
    "sft_plan_loss",
    "status_loss",
    "train_params",
    "checkpoint_dir",
    "collect_failed_tasks",
    "load_checkpoint",
    "records_to_imitation",
    "run_phase",
    "PpoDiagnostics",
    "clipped_term",
    "compute_advantage",
    "ppo_update",
    "scale_reward",
    "RewardedStep",
    "RewardModelParams",
    "prepare_rewarded",
    "rm_features",
    "rm_mse_loss",
    "train_reward_model",
]

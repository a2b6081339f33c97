"""Plan generator and action policy: small featurized softmax models."""

from .candidates import CandidateAction, enumerate_candidates, extract_args, match_expert
from .features import (
    FEATURE_NAMES,
    FORMAT_KEYWORDS,
    STATUS_FEATURES,
    featurize,
    status_features,
)
from .model import (
    END_TOKEN,
    ActionDistribution,
    ModelParams,
    action_distribution,
    build_plan_vocab,
    generate_plan,
    select_action,
    softmax,
)
from .state import AgentState

__all__ = [
    "CandidateAction",
    "enumerate_candidates",
    "extract_args",
    "match_expert",
    "FEATURE_NAMES",
    "FORMAT_KEYWORDS",
    "STATUS_FEATURES",
    "featurize",
    "status_features",
    "END_TOKEN",
    "ActionDistribution",
    "ModelParams",
    "action_distribution",
    "build_plan_vocab",
    "generate_plan",
    "select_action",
    "softmax",
    "AgentState",
]

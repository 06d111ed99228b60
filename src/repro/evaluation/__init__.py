"""Evaluation: metrics, prequential protocol and complexity accounting."""

from repro.evaluation.metrics import (
    ConfusionMatrix,
    MatrixScores,
    accuracy_score,
    cohen_kappa_score,
    f1_score,
    kappa_m_score,
    kappa_temporal_score,
    precision_score,
    recall_score,
)
from repro.evaluation.prequential import (
    PrequentialEvaluator,
    PrequentialResult,
    PrequentialSession,
)
from repro.evaluation.holdout import HoldoutEvaluator, HoldoutResult
from repro.evaluation.complexity import sliding_window_aggregate, summarize_trace

__all__ = [
    "ConfusionMatrix",
    "MatrixScores",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "cohen_kappa_score",
    "kappa_m_score",
    "kappa_temporal_score",
    "PrequentialEvaluator",
    "PrequentialResult",
    "PrequentialSession",
    "HoldoutEvaluator",
    "HoldoutResult",
    "sliding_window_aggregate",
    "summarize_trace",
]

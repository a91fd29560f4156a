"""Attentional pooling as low-rank second-order pooling.

Scoring heads (average pooling, rank-1/rank-P/per-class attention,
pose-regularized attention, compact bilinear pooling), a tape autodiff
engine to train them, a planted-attention synthetic benchmark, and
FLOP/wall-clock cost accounting.

Training lives in the `attnpool.train` module
(`from attnpool.train import TrainConfig, train`).
"""

from .autograd import Tape, finite_diff_check
from .pooling import score_second_order
from .sketch import SketchParams, cbp_pool
from .synth import (Dataset, PlantedTaskConfig, gen_planted, gen_pose_targets,
                    metric_accuracy, metric_map)
from .train import TrainConfig, TrainReport, evaluate, sgd_step

__version__ = "0.1.0"

__all__ = [
    "Dataset", "PlantedTaskConfig",
    "SketchParams", "Tape", "TrainConfig", "TrainReport", "cbp_pool",
    "evaluate", "finite_diff_check", "gen_planted", "gen_pose_targets",
    "metric_accuracy", "metric_map", "score_second_order", "sgd_step",
]

"""Keypoint targets and channel layout of the pose-regularized head.

The pose_reg head (defined with the other heads in `train._batch_graph`)
is a two-layer MLP over the spatial features that predicts 17 channels
per location: channels 0..15 are keypoint heatmaps supervised with a
masked L2 loss, channel 16 is an unconstrained nonlinear bottom-up
attention map that replaces the linear h = X b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import ShapeError

NUM_POSE_CHANNELS = 16
NUM_HEAD_CHANNELS = 17  # 16 keypoints + 1 attention channel
ATTENTION_CHANNEL = 16


@dataclass(frozen=True)
class PoseTarget:
    heatmaps: np.ndarray  # (n, 16), entries in [0, 1]
    mask: np.ndarray      # (16,) visibility flags in {0, 1}

    def __post_init__(self):
        hm = np.asarray(self.heatmaps, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=np.float64)
        if hm.ndim != 2 or hm.shape[1] != NUM_POSE_CHANNELS:
            raise ShapeError(f"heatmaps must be (n, 16), got {hm.shape}")
        if mask.shape != (NUM_POSE_CHANNELS,):
            raise ShapeError(f"mask must be (16,), got {mask.shape}")
        if np.any(hm < 0) or np.any(hm > 1):
            raise ValueError("heatmap entries must lie in [0, 1]")
        if not set(np.unique(mask)) <= {0.0, 1.0}:
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "heatmaps", hm)
        object.__setattr__(self, "mask", mask)

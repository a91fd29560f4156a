"""Channel layout of the pose-regularized head.

The pose_reg head (defined with the other heads in `train._batch_graph`)
is a two-layer MLP over the spatial features that predicts 17 channels
per location: channels 0..15 are keypoint heatmaps supervised with a
masked L2 loss, channel 16 is an unconstrained nonlinear bottom-up
attention map that replaces the linear h = X b.  Its targets are (m, n, 16)
heatmaps in [0, 1] with (m, 16) visibility masks in {0, 1}
(`synth.gen_pose_targets`; `cli.load_split` checks them on load).
"""

NUM_POSE_CHANNELS = 16
NUM_HEAD_CHANNELS = 17  # 16 keypoints + 1 attention channel
ATTENTION_CHANNEL = 16

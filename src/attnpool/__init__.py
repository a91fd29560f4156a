"""Attentional pooling as low-rank second-order pooling.

Scoring heads (average pooling, rank-1/rank-P/per-class attention,
pose-regularized attention, compact bilinear pooling), a tape autodiff
engine to train them, a planted-attention synthetic benchmark, and
FLOP/wall-clock cost accounting.

Training lives in the `attnpool.train` module
(`from attnpool.train import TrainConfig, train`).

Importing the package pins BLAS to one thread (unless the environment
already sets the thread count), so runs are byte-identical on any core
count, provided `attnpool` is imported before numpy: BLAS reads the
setting once, when numpy loads it.  On glibc it also fixes malloc's
mmap and trim thresholds, so a training step's arrays are reused from
the heap rather than unmapped and faulted back in on every step.
"""

import ctypes
import os
import sys

NUMPY_LOADED_FIRST = "numpy" in sys.modules  # then BLAS has read its thread count already
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _pin_malloc_thresholds() -> None:
    """Set glibc's mmap and trim thresholds, which also turns off its
    adaptive mmap threshold.  Does nothing off glibc, or when the
    environment already sets either threshold or a glibc.malloc tunable."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if (not libc or not libc.startswith("glibc")
            or "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", "")):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, at most 32 MiB on 64-bit
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

from .autograd import Tape, finite_diff_check  # after the pins above
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

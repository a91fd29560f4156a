"""Attentional pooling as low-rank second-order pooling.

Scoring heads (average pooling, rank-1/rank-P/per-class attention,
pose-regularized attention, compact bilinear pooling), a tape autodiff
engine to train them, a planted-attention synthetic benchmark, and
FLOP/wall-clock cost accounting.

Training lives in the `attnpool.train` module
(`from attnpool.train import TrainConfig, train`).

Importing the package pins BLAS to one thread (unless the environment
already sets the thread count), so runs are byte-identical on any core
count: by the thread variables, which BLAS reads when numpy loads it,
or, when numpy was imported first, by numpy's scipy-openblas setter (a
warning names BLAS's own count where there is none).  On glibc it also
fixes malloc's mmap and trim thresholds, so a training step's arrays are
reused from the heap rather than unmapped and faulted back in per step.
"""

import ctypes
import glob
import os
import sys
import warnings

NUMPY_LOADED_FIRST = "numpy" in sys.modules  # then BLAS has read its thread count already
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREADS_SET = any(var in os.environ for var in _THREAD_VARS)
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")


def _openblas():
    """The scipy-openblas library of the loaded numpy, through ctypes, or None."""
    libs = os.path.join(os.path.dirname(sys.modules["numpy"].__path__[0]), "numpy.libs")
    return next(map(ctypes.CDLL, glob.glob(os.path.join(libs, "libscipy_openblas64_*"))), None)


if NUMPY_LOADED_FIRST and not _THREADS_SET:
    _set = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if _set is None:  # no scipy-openblas, or no setter in it
        warnings.warn("numpy was imported before attnpool and its BLAS has no known thread setter: "
                      f"BLAS keeps its own count (by default one per core: {os.cpu_count()})")
    else:
        _set.argtypes, _set.restype = (ctypes.c_int,), None
        _set(1)


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

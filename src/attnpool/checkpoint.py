"""Parameter checkpoints: a manifest plus one ATNP blob per tensor.

A checkpoint is a directory containing manifest.txt (key=value lines:
format_version, every `TrainConfig` field, and `tensor.<name>.dims =
d1xd2`) and <name>.atnp files.  Field values are parsed as the `train.`
keys of a config file; fields the manifest lacks take their defaults, and
a `loss=` line (a setting before the labels chose the loss) is ignored.
Loading checks the version, that the tensors are exactly the head's
parameters at the scored split's f and K, and every blob's dims and
values (finite); each rejection names the checkpoint's file.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .atnp import read_atnp, write_atnp
from .config import build, parse_value
from .synth import read_text
from .train import TrainConfig, head_shapes

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Version mismatch, dim mismatch, or missing/truncated file."""


def save_checkpoint(path, params: dict, config: TrainConfig) -> None:
    os.makedirs(path, exist_ok=True)
    lines = [f"format_version={FORMAT_VERSION}"]
    lines += [f"{fld.name}={getattr(config, fld.name)}" for fld in dataclasses.fields(config)]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        dims = "x".join(str(d) for d in arr.shape)
        lines.append(f"tensor.{name}.dims={dims}")
        write_atnp(os.path.join(path, f"{name}.atnp"), arr)
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path, f: int, K: int):
    """Returns (params, config) of a checkpoint scored at f features and
    K classes; raises CheckpointError."""
    manifest_path = os.path.join(path, "manifest.txt")
    lines = [line.strip().split("=", 1) for line in read_text(manifest_path).splitlines()
             if line.strip()]
    if any(len(kv) != 2 for kv in lines):
        raise CheckpointError(f"{manifest_path}: expected key=value lines")
    manifest = dict(lines)
    version = manifest.pop("format_version", None)
    if version != str(FORMAT_VERSION):
        raise CheckpointError(f"{manifest_path}: unsupported checkpoint version {version!r}")
    manifest.pop("loss", None)
    dims, values = {}, {}
    for key, val in manifest.items():
        if key.startswith("tensor.") and key.endswith(".dims"):
            dims[key[len("tensor."):-len(".dims")]] = val
        else:
            values[f"train.{key}"] = val
    try:
        config = build(TrainConfig, {key: parse_value(key, val) for key, val in values.items()})
        want = {name: tuple(int(d) for d in val.split("x")) for name, val in dims.items()}
    except ValueError as exc:  # ConfigError, or a TrainConfig check
        raise CheckpointError(f"{manifest_path}: {exc}") from exc
    expected = head_shapes(config, f, K)
    if want != expected:
        raise CheckpointError(
            f"checkpoint {path}: head {config.head!r} at f={f}, K={K} has tensors "
            f"{expected}, manifest lists {want}")
    params = {}
    for name, shape in want.items():
        blob = os.path.join(path, f"{name}.atnp")
        if not os.path.exists(blob):
            raise CheckpointError(f"{blob}: missing tensor blob")
        arr = read_atnp(blob)
        if arr.shape != shape:
            raise CheckpointError(f"{blob}: manifest says {shape}, file has {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{blob}: non-finite parameter value")
        params[name] = arr
    return params, config

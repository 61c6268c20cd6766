"""Model checkpoints: one tensor file per parameter plus a YAML manifest."""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .errors import InvalidInputError
from .model import ArchitectureConfig, ModelParams, SpeechPart
from .tensors import atomic_path, read_tensor, write_tensor


def save_checkpoint(out_dir: str | Path, params: ModelParams) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "architecture": asdict(params.config),
        "tensors": {},
    }
    for name, tensor in params.tensors.items():
        filename = f"{name}.ndmm"
        write_tensor(out_dir / filename, tensor, fs=0.0)
        manifest["tensors"][name] = filename
    path = out_dir / "checkpoint.yaml"
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    return path


def load_checkpoint(out_dir: str | Path) -> ModelParams:
    out_dir = Path(out_dir)
    path = out_dir / "checkpoint.yaml"
    if not path.exists():
        raise InvalidInputError(f"no checkpoint manifest at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = yaml.safe_load(fh)
    arch = dict(manifest["architecture"])
    arch["parts"] = tuple(SpeechPart(**p) for p in arch["parts"])
    config = ArchitectureConfig(**arch)
    tensors = {}
    for name, filename in manifest["tensors"].items():
        data, _ = read_tensor(out_dir / filename)
        tensors[name] = np.asarray(data, dtype=config.np_dtype)
    return ModelParams(config, tensors)

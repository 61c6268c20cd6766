"""Model checkpoints: one tensor file per parameter plus a YAML manifest."""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import yaml

from .errors import InvalidInputError, check_keys, read_yaml, refused_as
from .model import ArchitectureConfig, ModelParams, SpeechPart, param_shapes
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
    """The parameters in ``out_dir``; refused by name unless they fit their architecture."""
    out_dir = Path(out_dir)
    path = out_dir / "checkpoint.yaml"
    manifest = read_yaml(path, ("architecture", "tensors"), ())
    with refused_as(path):
        # every field, as save_checkpoint writes them: none may fall back to its default
        names = tuple(f.name for f in fields(ArchitectureConfig))
        arch = check_keys(manifest["architecture"], names, (), where="architecture")
        parts = tuple(SpeechPart(**p) for p in arch["parts"])
        config = ArchitectureConfig(**{**arch, "parts": parts})
        shapes = param_shapes(config)
        files = check_keys(manifest["tensors"], tuple(shapes), (), where="tensors")
        tensors = {}
        for name, filename in files.items():
            data, _ = read_tensor(out_dir / filename)
            if data.shape != shapes[name]:
                raise InvalidInputError(f"tensor {name!r} has shape {data.shape}, "
                                        f"but its architecture gives it {shapes[name]}")
            tensors[name] = np.asarray(data, dtype=config.np_dtype)
    return ModelParams(config, tensors)

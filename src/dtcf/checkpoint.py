"""Self-describing binary checkpoint container.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the raw tensor payload in header order. Writing the same
state twice produces byte-identical files (no timestamps, no compression),
which the round-trip tests rely on.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import CheckpointError

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]

MAGIC = b"DTCFCKP1"
FORMAT_VERSION = 1


def save_checkpoint(path, config: dict, tensors: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    names = sorted(tensors)
    manifest = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(tensors[name])
        manifest.append({"name": name, "dtype": arr.dtype.str,
                         "shape": list(arr.shape), "offset": offset,
                         "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = json.dumps({"version": FORMAT_VERSION, "config": config,
                         "extra": extra or {}, "tensors": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for name in names:
            f.write(np.ascontiguousarray(tensors[name]).tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Read a checkpoint; each tensor is read straight into its own writable array."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read(f, path, os.fstat(f.fileno()).st_size)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e


def _read(f, path: Path, size: int) -> tuple[dict, dict[str, np.ndarray], dict]:
    head = f.read(16)
    if head[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    hlen = int.from_bytes(head[8:16], "little")
    if len(head) < 16 or size < 16 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header.get('version')}")
    for key in ("config", "extra", "tensors"):
        if key not in header:
            raise CheckpointError(f"{path}: corrupt header: no '{key}' entry")
    base = 16 + hlen
    tensors = {}
    for spec in header["tensors"]:
        name, off, nbytes = spec["name"], spec["offset"], spec["nbytes"]
        shape, dtype = tuple(spec["shape"]), np.dtype(spec["dtype"])
        if base + off + nbytes > size:
            raise CheckpointError(f"{path}: truncated payload at tensor '{name}'")
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise CheckpointError(f"{path}: corrupt header: tensor '{name}' has "
                                  f"{nbytes} bytes for shape {shape}")
        arr = np.empty(shape, dtype=dtype)
        f.seek(base + off)
        if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise CheckpointError(f"{path}: truncated payload at tensor '{name}'")
        tensors[name] = arr
    return header["config"], tensors, header["extra"]

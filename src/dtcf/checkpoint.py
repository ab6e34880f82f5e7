"""Self-describing binary checkpoint container.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(sorted keys), then the raw tensor payload in header order. Writing the same
state twice produces byte-identical files (no timestamps, no compression),
which the round-trip tests rely on. A checkpoint is replaced atomically: it
is written and synced beside its path, then renamed over it, so a write that
fails leaves the previous file as it was.

A load checks the whole header before it reads any payload, then reads each
tensor it is asked for with ``readinto`` straight into the array that keeps
it (through a temporary only when the stored dtype differs) and seeks past
the rest, so it holds what it reads once.
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
    arrays = {name: np.ascontiguousarray(tensors[name]) for name in sorted(tensors)}
    manifest = []
    offset = 0
    for name, arr in arrays.items():
        manifest.append({"name": name, "dtype": arr.dtype.str,
                         "shape": list(arr.shape), "offset": offset,
                         "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = json.dumps({"version": FORMAT_VERSION, "config": config,
                         "extra": extra or {}, "tensors": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(len(header).to_bytes(8, "little"))
            f.write(header)
            for arr in arrays.values():
                f.write(arr)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, into=None) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Read a checkpoint: (config, tensors, extra).

    The whole header is checked first, every entry's extent against the file
    size included. Without ``into`` each tensor is read into a fresh array.
    Otherwise ``into(config, extra)`` runs before any payload is read and
    returns the arrays to fill by name; CheckpointError names one whose entry
    is missing, of another shape or of a dtype that does not cast to its own
    (same kind). The entries it does not name are skipped. A file that
    shrinks during the read raises CheckpointError naming the tensor, and
    may leave the arrays partly filled.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read(f, path, os.fstat(f.fileno()).st_size, into)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e


def _read(f, path: Path, size: int, into=None) -> tuple[dict, dict[str, np.ndarray], dict]:
    config, entries, extra = _header(f, path, size)
    if into is None:
        tensors = {name: np.empty(shape, dtype) for name, (_, _, shape, dtype) in entries.items()}
    else:
        tensors = into(config, extra)
        for name, dest in tensors.items():
            if name not in entries:
                raise CheckpointError(f"{path}: missing tensor '{name}'")
            _, _, shape, dtype = entries[name]
            if dest.shape != shape or not np.can_cast(dtype, dest.dtype, "same_kind"):
                raise CheckpointError(f"{path}: tensor '{name}' is {dtype} {shape}, "
                                      f"expected {dest.dtype} {dest.shape}")
    for name in sorted(tensors, key=lambda n: entries[n][0]):      # in file order
        start, nbytes, shape, dtype = entries[name]
        dest = tensors[name]
        direct = dest.dtype == dtype and dest.flags.c_contiguous
        buf = dest if direct else np.empty(shape, dtype)
        f.seek(start)
        if f.readinto(buf.reshape(-1).view(np.uint8)) != nbytes:
            raise CheckpointError(f"{path}: truncated payload at tensor '{name}'")
        if not direct:
            np.copyto(dest, buf)
    return config, tensors, extra


def _header(f, path: Path, size: int) -> tuple[dict, dict, dict]:
    """(config, entries, extra) of a header that is whole and whose entries all fit the file.

    ``entries`` maps each tensor's name to its (file offset, nbytes, shape, dtype).
    """
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
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header.get('version')}")
    for key, kind in (("config", dict), ("extra", dict), ("tensors", list)):
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path}: corrupt header: no '{key}' {kind.__name__} entry")
    base = 16 + hlen
    entries = {}
    for spec in header["tensors"]:
        entry = _entry(spec)
        if entry is None:
            raise CheckpointError(f"{path}: corrupt header: bad tensor entry {spec!r}")
        name, off, nbytes, shape, dtype = entry
        if name in entries:
            raise CheckpointError(f"{path}: corrupt header: tensor '{name}' listed twice")
        if base + off + nbytes > size:
            raise CheckpointError(f"{path}: truncated payload at tensor '{name}'")
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise CheckpointError(f"{path}: corrupt header: tensor '{name}' has "
                                  f"{nbytes} bytes for shape {shape}")
        entries[name] = (base + off, nbytes, shape, dtype)
    return header["config"], entries, header["extra"]


def _entry(spec):
    """(name, offset, nbytes, shape, dtype) of a well-formed header tensor entry, else None."""
    try:
        name, off, nbytes = spec["name"], spec["offset"], spec["nbytes"]
        shape, dtype = tuple(spec["shape"]), np.dtype(spec["dtype"])
    except (KeyError, TypeError, ValueError):
        return None
    if (not isinstance(name, str) or dtype.hasobject
            or not all(type(v) is int and v >= 0 for v in (off, nbytes, *shape))):
        return None
    return name, off, nbytes, shape, dtype

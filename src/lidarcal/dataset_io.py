"""LCD1 binary dataset format.

Layout (all integers little-endian):
  magic "LCD1" | version u16 | L u32 | param count u8 (= 8) | group count u32
  | reps u32 | base seed u64 | oracle config digest (32 bytes)
  | transmitted code, bit-packed ceil(L/8) bytes (MSB-first within a byte)
  then per group: 8 float32 params | reps * ceil(L/8) bit-packed code bytes.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .oracle import Dataset

MAGIC = b"LCD1"
VERSION = 1
N_PARAMS = 8
_HEADER = struct.Struct("<HIBIIQ")


class FormatError(ValueError):
    """Raised on malformed dataset/checkpoint files."""


def pack_bits(code: np.ndarray) -> bytes:
    """Bit-pack a 0/1 code, MSB-first within each byte."""
    bits = np.asarray(code).astype(np.uint8)
    return np.packbits(bits).tobytes()


def unpack_bits(blob: bytes, L: int) -> np.ndarray:
    arr = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=L)
    return arr.astype(np.float64)


def serialize_dataset(ds: Dataset) -> bytes:
    L = ds.L
    nbytes = (L + 7) // 8
    out = bytearray()
    out += MAGIC
    out += _HEADER.pack(VERSION, L, N_PARAMS, ds.n_groups, ds.reps,
                        ds.base_seed & ((1 << 64) - 1))
    if len(ds.oracle_digest) != 32:
        raise FormatError("oracle digest must be 32 bytes")
    out += ds.oracle_digest
    out += pack_bits(ds.alpha)
    for g in range(ds.n_groups):
        out += np.asarray(ds.params[g], dtype="<f4").tobytes()
        for rep in range(ds.reps):
            blob = pack_bits(ds.batches[g, rep])
            assert len(blob) == nbytes
            out += blob
    return bytes(out)


def deserialize_dataset(blob: bytes) -> Dataset:
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    off = len(MAGIC) + _HEADER.size
    if len(blob) < off:
        raise FormatError(f"truncated header: {len(blob)} bytes, need {off}")
    version, L, n_params, n_groups, reps, base_seed = _HEADER.unpack_from(blob, len(MAGIC))
    if version != VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if n_params != N_PARAMS:
        raise FormatError(f"param count {n_params} != {N_PARAMS}")
    nbytes = (L + 7) // 8
    # the whole declared length is checked before the digest, code or records are read
    expected = off + 32 + nbytes + n_groups * (4 * N_PARAMS + reps * nbytes)
    if len(blob) != expected:
        raise FormatError(f"payload length {len(blob)} != declared {expected}")
    digest = blob[off:off + 32]
    off += 32
    alpha = unpack_bits(blob[off:off + nbytes], L)
    off += nbytes
    params = np.empty((n_groups, N_PARAMS))
    batches = np.empty((n_groups, reps, L))
    for g in range(n_groups):
        params[g] = np.frombuffer(blob, dtype="<f4", count=N_PARAMS, offset=off).astype(np.float64)
        off += 4 * N_PARAMS
        for rep in range(reps):
            batches[g, rep] = unpack_bits(blob[off:off + nbytes], L)
            off += nbytes
    return Dataset(alpha=alpha, params=params, batches=batches,
                   base_seed=base_seed, oracle_digest=digest)


def dataset_digest(ds: Dataset) -> bytes:
    """SHA-256 over the canonical serialization (identity of the training data)."""
    return hashlib.sha256(serialize_dataset(ds)).digest()


def write_dataset(path, ds: Dataset) -> bytes:
    """Write the file and return its digest."""
    blob = serialize_dataset(ds)
    with open(path, "wb") as f:
        f.write(blob)
    return hashlib.sha256(blob).digest()


def read_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        return deserialize_dataset(f.read())

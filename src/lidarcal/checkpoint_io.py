"""LCK1 binary checkpoint format.

Layout (little-endian): magic "LCK1" | version u16 | JSON architecture
descriptor (u32 length prefix) | weight blocks in declaration order
(generator first, then critic, then Adam state), each block being a
length-prefixed name, u8 rank, u32 dims, float64 payload | JSON training
config echo (u32 length prefix) | dataset digest (32 bytes).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .dataset_io import FormatError
from .nets import critic_layout, generator_layout
from .train import Checkpoint, TrainConfig

MAGIC = b"LCK1"
VERSION = 1


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode()
    out = struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return out


def _unpack_array(blob: bytes, off: int) -> tuple[str, np.ndarray, int]:
    (nlen,) = struct.unpack_from("<H", blob, off)
    off += 2
    name = blob[off:off + nlen].decode()
    off += nlen
    (rank,) = struct.unpack_from("<B", blob, off)
    off += 1
    shape = struct.unpack_from(f"<{rank}I", blob, off)
    off += 4 * rank
    count = int(np.prod(shape)) if rank else 1
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
    off += 8 * count
    return name, arr, off


def _adam_names(prefix: str, names: list[str]) -> list[str]:
    """Block names of one Adam state: step count, then first and second moments."""
    return [f"{prefix}.t"] + [f"{prefix}.{kind}.{n}" for kind in ("m", "v") for n in names]


def _adam_blocks(prefix: str, names: list[str], state: dict) -> list[tuple[str, np.ndarray]]:
    arrays = [np.array(float(state["t"])).reshape(())] + list(state["m"]) + list(state["v"])
    return list(zip(_adam_names(prefix, names), arrays))


def _expected_blocks(L: int, z_dim: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every block the architecture declares, in file order."""
    g = [(n, s) for n, s, _ in generator_layout(L, z_dim)]
    d = [(n, s) for n, s, _ in critic_layout(L)]
    blocks = [(f"g.{n}", s) for n, s in g] + [(f"d.{n}", s) for n, s in d]
    for prefix, net in (("adam_g", g), ("adam_d", d)):
        shapes = [()] + [s for _, s in net] * 2
        blocks += list(zip(_adam_names(prefix, [n for n, _ in net]), shapes))
    return blocks


def serialize_checkpoint(ckpt: Checkpoint) -> bytes:
    arch = {"L": ckpt.L, "z_dim": ckpt.z_dim}
    blocks: list[tuple[str, np.ndarray]] = []
    blocks += [(f"g.{n}", a) for n, a in ckpt.g_weights.items()]
    blocks += [(f"d.{n}", a) for n, a in ckpt.d_weights.items()]
    blocks += _adam_blocks("adam_g", list(ckpt.g_weights), ckpt.adam_g)
    blocks += _adam_blocks("adam_d", list(ckpt.d_weights), ckpt.adam_d)

    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    arch_js = json.dumps(arch, sort_keys=True).encode()
    out += struct.pack("<I", len(arch_js)) + arch_js
    out += struct.pack("<I", len(blocks))
    for name, arr in blocks:
        out += _pack_array(name, np.asarray(arr, dtype=np.float64))
    cfg_js = json.dumps({"iteration": ckpt.iteration, "cfg": vars(ckpt.cfg)},
                        sort_keys=True).encode()
    out += struct.pack("<I", len(cfg_js)) + cfg_js
    if len(ckpt.dataset_digest) != 32:
        raise FormatError("dataset digest must be 32 bytes")
    out += ckpt.dataset_digest
    return bytes(out)


def deserialize_checkpoint(blob: bytes) -> Checkpoint:
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    off = 4
    (version,) = struct.unpack_from("<H", blob, off)
    off += 2
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (alen,) = struct.unpack_from("<I", blob, off)
    off += 4
    arch = json.loads(blob[off:off + alen])
    off += alen
    try:
        L, z_dim = int(arch["L"]), int(arch["z_dim"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad architecture descriptor {arch!r}") from e
    (nblocks,) = struct.unpack_from("<I", blob, off)
    off += 4
    arrays: dict[str, np.ndarray] = {}
    order: list[str] = []
    for _ in range(nblocks):
        name, arr, off = _unpack_array(blob, off)
        arrays[name] = arr
        order.append(name)
    got = [(n, arrays[n].shape) for n in order]
    expected = _expected_blocks(L, z_dim)
    if got != expected:
        missing = [n for n, s in expected if (n, s) not in got]
        extra = [n for n, s in got if (n, s) not in expected]
        raise FormatError(f"weight blocks do not match architecture L={L} z_dim={z_dim}: "
                          f"missing or misshapen {missing}, unexpected {extra}")
    (clen,) = struct.unpack_from("<I", blob, off)
    off += 4
    meta = json.loads(blob[off:off + clen])
    off += clen
    digest = blob[off:off + 32]
    if len(digest) != 32 or off + 32 != len(blob):
        raise FormatError("truncated or oversized checkpoint payload")

    g_weights = {n[2:]: arrays[n] for n in order if n.startswith("g.")}
    d_weights = {n[2:]: arrays[n] for n in order if n.startswith("d.")}

    def adam_state(prefix, names):
        return {"t": int(arrays[f"{prefix}.t"]),
                "m": [arrays[f"{prefix}.m.{n}"] for n in names],
                "v": [arrays[f"{prefix}.v.{n}"] for n in names]}

    return Checkpoint(
        L=L, z_dim=z_dim,
        g_weights=g_weights, d_weights=d_weights,
        adam_g=adam_state("adam_g", list(g_weights)),
        adam_d=adam_state("adam_d", list(d_weights)),
        cfg=TrainConfig(**meta["cfg"]), iteration=int(meta["iteration"]),
        dataset_digest=digest)


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    with open(path, "wb") as f:
        f.write(serialize_checkpoint(ckpt))


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        return deserialize_checkpoint(f.read())

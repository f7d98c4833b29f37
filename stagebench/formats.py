"""Readers for the program's artifacts, written apart from the program.

Each reader follows the layout documented in the program's module docstrings
(`dataset_io` for LCD1, `checkpoint_io` for LCK1, `render` for PGM, `cli` for
the params record and the CSVs), so the benchmark's output checks do not go
through the code they check.
"""

from __future__ import annotations

import json
import struct

import numpy as np

# magic "LCD1" | version u16 | L u32 | param count u8 | groups u32 | reps u32
# | base seed u64, then a 32-byte oracle digest
LCD1_HEADER = struct.Struct("<4sHIBIIQ")
LCD1_DIGEST_BYTES = 32
N_PARAMS = 8


def lcd1_size(L: int, groups: int, reps: int) -> int:
    """File length the LCD1 layout gives for these dimensions."""
    nb = (L + 7) // 8
    return LCD1_HEADER.size + LCD1_DIGEST_BYTES + nb + groups * (4 * N_PARAMS + reps * nb)


def read_lcd1(blob: bytes) -> dict:
    """Decode an LCD1 file with np.unpackbits (MSB-first bit order)."""
    magic, version, L, n_params, groups, reps, base_seed = LCD1_HEADER.unpack_from(blob)
    nb = (L + 7) // 8
    off = LCD1_HEADER.size + LCD1_DIGEST_BYTES
    alpha = np.unpackbits(np.frombuffer(blob, np.uint8, nb, off), count=L)
    off += nb
    record = 4 * n_params + reps * nb
    body = np.frombuffer(blob, np.uint8, groups * record, off).reshape(groups, record)
    params = body[:, :4 * n_params].copy().view("<f4")
    codes = np.unpackbits(body[:, 4 * n_params:].reshape(groups, reps, nb), axis=2, count=L)
    return {"magic": magic, "version": version, "L": L, "n_params": n_params,
            "groups": groups, "reps": reps, "base_seed": base_seed,
            "alpha": alpha, "params": params, "codes": codes}


def read_pgm(blob: bytes) -> np.ndarray:
    """Binary P5 raster with maxval 255 -> uint8 [rows, cols]."""
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"not an 8-bit P5 raster: {magic!r} {maxval!r}")
    cols, rows = (int(v) for v in dims.split())
    return np.frombuffer(pixels, np.uint8).reshape(rows, cols)


def read_lck1(blob: bytes) -> dict:
    """Split an LCK1 checkpoint into architecture, named blocks, config echo, digest."""
    if blob[:4] != b"LCK1":
        raise ValueError(f"bad checkpoint magic {blob[:4]!r}")
    off = 6  # magic + version u16
    (alen,) = struct.unpack_from("<I", blob, off)
    arch = json.loads(blob[off + 4:off + 4 + alen])
    off += 4 + alen
    (nblocks,) = struct.unpack_from("<I", blob, off)
    off += 4
    blocks = {}
    for _ in range(nblocks):
        (nlen,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + nlen].decode()
        off += 2 + nlen
        rank = blob[off]
        shape = struct.unpack_from(f"<{rank}I", blob, off + 1)
        off += 1 + 4 * rank
        count = int(np.prod(shape)) if rank else 1
        blocks[name] = np.frombuffer(blob, "<f8", count, off).reshape(shape)
        off += 8 * count
    (clen,) = struct.unpack_from("<I", blob, off)
    meta = json.loads(blob[off + 4:off + 4 + clen])
    off += 4 + clen
    return {"arch": arch, "blocks": blocks, "meta": meta, "digest": blob[off:]}


def write_lck1(arch: dict, blocks: dict, meta: dict, digest: bytes) -> bytes:
    """Inverse of read_lck1, used to build malformed checkpoints."""
    arch_js = json.dumps(arch, sort_keys=True).encode()
    out = bytearray(b"LCK1" + struct.pack("<H", 1))
    out += struct.pack("<I", len(arch_js)) + arch_js + struct.pack("<I", len(blocks))
    for name, arr in blocks.items():
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) + np.asarray(arr, "<f8").tobytes()
    meta_js = json.dumps(meta, sort_keys=True).encode()
    out += struct.pack("<I", len(meta_js)) + meta_js + digest
    return bytes(out)


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header plus float rows of a plain numeric CSV."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def read_params_record(text: str) -> dict:
    """`key = value` lines of an optimize params record."""
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def read_eval_report(text: str) -> dict:
    """Summary rows {label: (R, median, std)} and histogram counts {label: counts}."""
    summary, hists, section = {}, {}, None
    for line in text.splitlines():
        if line.startswith("# "):
            section = line[2:]
            continue
        if line.startswith(("label,", "bin_left_mm,")):
            continue
        cells = line.split(",")
        if section == "summary":
            summary[cells[0]] = tuple(float(v) for v in cells[1:])
        else:
            hists.setdefault(section.split()[-1], []).append(int(cells[1]))
    return {"summary": summary, "hist": {k: np.array(v) for k, v in hists.items()}}

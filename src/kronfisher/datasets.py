"""Dataset generation and IDX image file handling.

Synthetic curve images are random cubic Bezier strokes splatted onto a
square grid with bilinear antialiasing; they are the default desk-scale
autoencoder workload and are fully determined by (n, seed, side).  The
IDX reader/writer covers the big-endian unsigned-byte image layout
(magic 0x00000803): every dataset here is autoencoder images, so any
other magic, the label layout included, is refused.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

__all__ = [
    "gen_synthetic_curves",
    "gen_gaussian_blobs",
    "load_idx",
    "save_idx",
]

IDX_IMAGES_MAGIC = 0x00000803
# magic plus the three dimensions (n, rows, cols)
IDX_HEADER_BYTES = 16

# refuse headers whose payload could not be a sane dataset
MAX_IDX_BYTES = 1 << 31


def gen_synthetic_curves(n: int, seed: int, side: int = 28) -> np.ndarray:
    """Random cubic Bezier strokes on a side x side grid, flattened rows in [0, 1]."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 8 * side)
    # Bernstein basis of degree 3, fixed across samples
    basis = np.stack(
        [(1 - t) ** 3, 3 * t * (1 - t) ** 2, 3 * t ** 2 * (1 - t), t ** 3], axis=1
    )
    images = np.zeros((n, side, side))
    lo, hi = 0.1 * side, 0.9 * side
    for i in range(n):
        ctrl = rng.uniform(lo, hi, size=(4, 2))
        pts = basis @ ctrl
        _splat(images[i], pts)
    np.clip(images, 0.0, 1.0, out=images)
    return images.reshape(n, side * side)


def _splat(img: np.ndarray, pts: np.ndarray) -> None:
    side = img.shape[0]
    x = np.clip(pts[:, 0], 0.0, side - 1.001)
    y = np.clip(pts[:, 1], 0.0, side - 1.001)
    ix = x.astype(np.intp)
    iy = y.astype(np.intp)
    fx = x - ix
    fy = y - iy
    np.add.at(img, (iy, ix), (1 - fx) * (1 - fy))
    np.add.at(img, (iy, ix + 1), fx * (1 - fy))
    np.add.at(img, (iy + 1, ix), (1 - fx) * fy)
    np.add.at(img, (iy + 1, ix + 1), fx * fy)


def gen_gaussian_blobs(n: int, seed: int, side: int = 25) -> np.ndarray:
    """Sums of a few random Gaussian bumps; a stand-in for face-like images."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    images = np.zeros((n, side, side))
    for i in range(n):
        for _ in range(rng.integers(1, 4)):
            cx, cy = rng.uniform(0.2 * side, 0.8 * side, size=2)
            width = rng.uniform(side / 10.0, side / 4.0)
            amp = rng.uniform(0.5, 1.0)
            images[i] += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width ** 2))
    np.clip(images, 0.0, 1.0, out=images)
    return images.reshape(n, side * side)


def load_idx(path) -> np.ndarray:
    """Read an IDX image file as an m x pixels matrix scaled to [0, 1]."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(
            f"{path}: bad IDX magic {magic:#010x}; only images ({IDX_IMAGES_MAGIC:#010x}) are read"
        )
    if len(data) < IDX_HEADER_BYTES:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack(">III", data[4:IDX_HEADER_BYTES])
    n, rows, cols = dims
    count = n * rows * cols
    if count > MAX_IDX_BYTES:
        raise ValueError(f"{path}: IDX dimensions {dims} overflow the size guard")
    if len(data) != IDX_HEADER_BYTES + count:
        raise ValueError(
            f"{path}: payload has {len(data) - IDX_HEADER_BYTES} bytes, header promises {count}"
        )
    raw = np.frombuffer(data, dtype=np.uint8, offset=IDX_HEADER_BYTES)
    return raw.reshape(n, rows * cols).astype(np.float64) / 255.0


def save_idx(path, images: np.ndarray) -> None:
    """Write images (n, rows, cols) as unsigned bytes; float pixels are read as [0, 1]."""
    arr = np.asarray(images)
    if arr.ndim != 3:
        raise ValueError(f"IDX images need shape (n, rows, cols), got ndim {arr.ndim}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    header = struct.pack(">IIII", IDX_IMAGES_MAGIC, *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())

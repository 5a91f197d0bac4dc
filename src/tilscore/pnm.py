"""Minimal binary PPM (P6) / PGM (P5) reading and writing.

These are the only raster formats the pipeline touches: slides come in as
P6 with an mpp declared on the command line or in a `<image>.mpp` sidecar,
masks and heatmaps go out as P5 with values 0/255.  Masking reads a slide in
row strips of about STRIP_BYTES each, so the whole raster is never held.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np


# Bytes of raster that `read_ppm_strips` holds at once, in one reused buffer.
STRIP_BYTES = 16 << 20


class PnmError(ValueError):
    pass


def _read_header_tokens(fh, count: int) -> list[int]:
    """Parse `count` whitespace-separated header integers from a binary
    stream, skipping comments.  The single byte that ends the last token is
    consumed, so the stream is left at the first raster byte."""
    tokens: list[int] = []
    ch = fh.read(1)
    while True:
        if not ch:
            raise PnmError("truncated header")
        if ch == b"#":
            fh.readline()
            ch = fh.read(1)
        elif ch.isspace():
            ch = fh.read(1)
        else:
            token = b""
            while ch and not ch.isspace() and ch != b"#":
                token += ch
                ch = fh.read(1)
            if not token.isdigit():
                raise PnmError(f"bad header token {token!r}")
            tokens.append(int(token))
            if len(tokens) == count:
                return tokens


def _read_header(fh, path, magic: bytes, channels: int) -> tuple[int, int]:
    """(height, width) of the raster whose file `fh` is open at its start.
    The stream is left at the first raster byte, and the file size bounds
    the raster before anything is allocated for it."""
    head = fh.read(2)
    if head != magic:
        raise PnmError(f"{path}: expected {magic.decode()} file, got {head!r}")
    width, height, maxval = _read_header_tokens(fh, 3)
    if maxval != 255:
        raise PnmError(f"{path}: only maxval 255 supported, got {maxval}")
    need = width * height * channels
    got = os.fstat(fh.fileno()).st_size - fh.tell()
    if got < need:
        raise PnmError(f"{path}: raster truncated ({got} of {need} bytes)")
    return height, width


def _read_raster(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        height, width = _read_header(fh, path, magic, channels)
        arr = np.empty((height, width, channels) if channels > 1 else (height, width),
                       dtype=np.uint8)
        got = fh.readinto(arr)
    if got != arr.nbytes:
        raise PnmError(f"{path}: raster truncated ({got} of {arr.nbytes} bytes)")
    return arr


def ppm_shape(path) -> tuple[int, int]:
    """(height, width) of a P6 file whose header and size check out."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, b"P6", 3)


def strip_rows(row_bytes: int, multiple: int) -> int:
    """Rows per strip: the largest multiple of `multiple` whose rows of
    `row_bytes` each fit STRIP_BYTES, and never fewer than `multiple`."""
    return max(1, STRIP_BYTES // (row_bytes * multiple)) * multiple


def read_ppm_strips(path, multiple: int) -> Iterator[np.ndarray]:
    """A P6 raster as consecutive (rows, width, 3) uint8 strips, `rows` from
    `strip_rows` (the last strip may be shorter).  Every strip is a view of
    one buffer that the next strip overwrites."""
    with open(path, "rb") as fh:
        height, width = _read_header(fh, path, b"P6", 3)
        rows = strip_rows(width * 3, multiple)
        buf = np.empty((min(rows, height), width, 3), dtype=np.uint8)
        for r0 in range(0, height, rows):
            strip = buf[: min(rows, height - r0)]
            got = fh.readinto(strip)
            if got != strip.nbytes:  # the file shrank after its size was checked
                raise PnmError(f"{path}: raster truncated at row {r0}")
            yield strip


def read_ppm(path) -> np.ndarray:
    """P6 image as (height, width, 3) uint8."""
    return _read_raster(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """P5 image as (height, width) uint8."""
    return _read_raster(path, b"P5", 1)


def write_ppm(path, pixels: np.ndarray) -> None:
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise PnmError("PPM pixels must be (h, w, 3)")
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(memoryview(pixels))


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise PnmError("PGM pixels must be (h, w)")
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(memoryview(pixels))


def read_mpp_sidecar(image_path) -> float | None:
    """Resolution from `<image>.mpp` next to the file, if present."""
    sidecar = Path(str(image_path) + ".mpp")
    if not sidecar.exists():
        return None
    try:
        value = float(sidecar.read_text().strip())
    except ValueError as exc:
        raise PnmError(f"bad mpp sidecar {sidecar}") from exc
    if not (math.isfinite(value) and value > 0):
        raise PnmError(f"mpp sidecar {sidecar} must be a finite number above 0, got {value!r}")
    return value

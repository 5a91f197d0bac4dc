"""Minimal binary PPM (P6) / PGM (P5) reading and writing.

These are the only raster formats the pipeline touches: slides come in as
P6 with an mpp declared on the command line or in a `<image>.mpp` sidecar,
masks and heatmaps go out as P5 with values 0/255.  Masking reads a slide in
row strips of about STRIP_BYTES in all, so the whole raster is never held.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np


# Raster bytes the readers of one slide hold at once in all, each at least one block of rows.
STRIP_BYTES = 4 << 20


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


def ppm_shape(path) -> tuple[int, int]:
    """(height, width) of a P6 file whose header and size check out."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, b"P6", 3)


def read_ppm_strips(path, multiple: int, blocks=slice(None), parts=1) -> Iterator[np.ndarray]:
    """The rows of a P6 raster in `blocks`, a slice of its blocks of
    `multiple` rows, as consecutive (rows, width, 3) uint8 strips.  `rows` is
    the largest multiple of `multiple` whose rows fit STRIP_BYTES // parts,
    and never fewer than `multiple`; the last strip may be shorter.  Every
    strip is a view of one buffer that the next strip overwrites."""
    with open(path, "rb") as fh:
        height, width = _read_header(fh, path, b"P6", 3)
        start, stop = (min(b * multiple, height) for b in blocks.indices(height)[:2])
        rows = max(1, STRIP_BYTES // parts // (width * 3 * multiple)) * multiple
        buf = np.empty((min(rows, stop - start), width, 3), dtype=np.uint8)
        fh.seek(start * width * 3, os.SEEK_CUR)
        for r0 in range(start, stop, rows):
            strip = buf[: min(rows, stop - r0)]
            got = fh.readinto(strip)
            if got != strip.nbytes:  # the file shrank after its size was checked
                raise PnmError(f"{path}: raster truncated at row {r0}")
            yield strip


def read_pgm(path) -> np.ndarray:
    """P5 image as (height, width) uint8."""
    with open(path, "rb") as fh:
        arr = np.empty(_read_header(fh, path, b"P5", 1), dtype=np.uint8)
        got = fh.readinto(arr)
    if got != arr.nbytes:
        raise PnmError(f"{path}: raster truncated ({got} of {arr.nbytes} bytes)")
    return arr


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

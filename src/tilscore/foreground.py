"""Texture-based tissue masking and the 512 px tile grid.

The mask follows the structure-information recipe: downsample luminance,
take the absolute Laplacian of a lightly blurred copy as a structure map,
blur it broadly, threshold, clean up morphologically, and fill enclosed
background holes.  Thresholding is Ridler-Calvard isodata with a guard for
structurally uniform images (an all-texture slide maps to all-foreground,
a flat slide to all-background); a plain global-mean cut systematically
overshoots sharp tissue boundaries.

Memory: masking streams the slide in row strips of about
`pnm.STRIP_BYTES`, each a whole number of mask rows tall, and folds each
strip into per-channel block sums before the next is read.  Besides the
mask-scale arrays it holds one strip and that strip's row sums (2/f of its
bytes at downsample f <= 16, 4/f above).  No full-resolution array is
built, from a file or in floats.

Tiles are laid on an exact grid in target-resolution space (512 px at
0.5 mpp by default) and reported as source-pixel coordinates; a tile is
kept when its footprint holds at least one foreground mask pixel.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import pnm

TILE_SIZE_PX = 512
TARGET_MPP = 0.5


class ForegroundError(ValueError):
    pass


class GeometryMismatchError(ForegroundError):
    """Mask and tile grid disagree about the slide extent."""


@dataclass
class RasterSlide:
    """A flat RGB raster in memory with physical resolution."""

    slide_id: str
    pixels: np.ndarray  # (height, width, 3) uint8
    mpp: float

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ForegroundError("pixels must be (height, width, 3)")
        if self.pixels.size == 0:
            raise ForegroundError("empty slide")
        if not self.mpp > 0:
            raise ForegroundError("mpp must be positive")

    @property
    def width_px(self) -> int:
        return self.pixels.shape[1]

    @property
    def height_px(self) -> int:
        return self.pixels.shape[0]

    def strips(self, multiple: int) -> Iterator[np.ndarray]:
        """Row slices of the raster, sized as `pnm.read_ppm_strips` sizes them."""
        rows = pnm.strip_rows(self.width_px * 3, multiple)
        for r0 in range(0, self.height_px, rows):
            yield self.pixels[r0 : r0 + rows]


@dataclass
class PpmSlide:
    """An RGB raster left in its P6 file and read strip by strip; the header
    and the file size are checked on construction, the mpp by the caller."""

    slide_id: str
    path: Path
    mpp: float
    width_px: int = field(init=False)
    height_px: int = field(init=False)

    def __post_init__(self):
        self.height_px, self.width_px = pnm.ppm_shape(self.path)

    def strips(self, multiple: int) -> Iterator[np.ndarray]:
        return pnm.read_ppm_strips(self.path, multiple)


@dataclass
class FesiParams:
    downsample: int = 8
    pre_sigma: float = 2.0  # at mask scale, before the Laplacian
    smooth_sigma: float = 8.0  # broad blur of the structure map
    morph_size: int = 3
    fill_holes: bool = True
    uniform_rel_gap: float = 0.3  # below this class separation the map counts as uniform
    structure_floor: float = 1e-3  # luminance units; uniform maps above it are tissue
    isodata_iters: int = 64


@dataclass
class ForegroundMask:
    width: int
    height: int
    scale: float  # mask pixels per slide pixel, in (0, 1]
    bits: np.ndarray  # (height, width) bool

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.height, self.width):
            raise ForegroundError("mask bits do not match declared shape")
        if not 0.0 < self.scale <= 1.0:
            raise ForegroundError("scale must be in (0, 1]")

    def to_pgm(self, path) -> None:
        pnm.write_pgm(path, self.bits.astype(np.uint8) * 255)


def _block_sums(a: np.ndarray, f: int, axis: int, acc: np.dtype) -> np.ndarray:
    """Sums over consecutive groups of f entries along `axis`, exact in the
    unsigned type `acc`.  A last partial group is completed by repeating the
    final entry, as edge-replication padding would."""
    nq, rem = divmod(a.shape[axis], f)
    shape = list(a.shape)
    shape[axis] = nq + (rem > 0)
    out = np.zeros(shape, acc)
    # views with the groups along the first axis; `out` keeps the layout of
    # `a`, so each strided add walks both in memory order
    a, o = a.swapaxes(0, axis), out.swapaxes(0, axis)
    for i in range(f):
        o[:nq] += a[i : nq * f : f]
    if rem:
        o[nq] += a[nq * f :].sum(axis=0, dtype=acc) + a[-1].astype(acc) * (f - rem)
    return out


def _block_luminance(strips: Iterable[np.ndarray], f: int) -> np.ndarray:
    """Mean luminance of each f x f block of an (h, w, 3) uint8 raster given
    as consecutive row strips, each but the last a whole number of blocks
    tall; edge blocks are padded by replication.

    Each channel is summed per block exactly, rows first and then columns,
    in the smallest unsigned type that holds f*f*255 (uint16 up to f = 16,
    uint32 above), and only the block sums are weighted in float64.  So the
    result does not depend on where the strips are cut.
    """
    acc = np.min_scalar_type(f * f * 255)
    parts = []
    for strip in strips:
        sums = _block_sums(_block_sums(strip, f, 0, acc), f, 1, acc)
        parts.append((0.299 * sums[..., 0] + 0.587 * sums[..., 1] + 0.114 * sums[..., 2])
                     / (f * f))
    return np.concatenate(parts)


def _isodata_threshold(values: np.ndarray, iters: int) -> float:
    t = float(values.mean())
    for _ in range(iters):
        below = values[values <= t]
        above = values[values > t]
        if below.size == 0 or above.size == 0:
            break
        new_t = 0.5 * (float(below.mean()) + float(above.mean()))
        if new_t == t:
            break
        t = new_t
    return t


def compute_foreground(slide: RasterSlide | PpmSlide,
                       params: FesiParams | None = None) -> ForegroundMask:
    """Binary tissue mask at 1/downsample of slide resolution.

    Deterministic for fixed inputs; raises on images smaller than one mask
    cell.
    """
    from scipy import ndimage  # imported here: every other stage starts without it

    params = params or FesiParams()
    f = params.downsample
    if not isinstance(f, int) or f < 1:
        raise ForegroundError(f"downsample must be a positive integer, got {f!r}")
    if slide.width_px < f or slide.height_px < f:
        raise ForegroundError(
            f"slide {slide.width_px}x{slide.height_px} is smaller than one {f}px mask cell")
    with closing(slide.strips(f)) as strips:  # closes a PpmSlide's file on every path
        small = _block_luminance(strips, f)
    structure = np.abs(ndimage.laplace(ndimage.gaussian_filter(small, params.pre_sigma)))
    smooth = ndimage.gaussian_filter(structure, params.smooth_sigma)

    fg_level = float(smooth.max())
    if fg_level <= params.structure_floor:
        bits = np.zeros_like(smooth, dtype=bool)
    else:
        t = _isodata_threshold(smooth, params.isodata_iters)
        below = smooth[smooth <= t]
        above = smooth[smooth > t]
        lo = float(below.mean()) if below.size else 0.0
        hi = float(above.mean()) if above.size else fg_level
        if hi - lo < params.uniform_rel_gap * hi:
            # structurally uniform image: everything is tissue (or nothing,
            # handled by the floor above)
            bits = smooth > params.structure_floor
        else:
            bits = smooth > t
    if params.morph_size > 1 and bits.any():
        st = np.ones((params.morph_size, params.morph_size), dtype=bool)
        # erosion with border_value=1 keeps image-edge tissue intact
        bits = ndimage.binary_erosion(ndimage.binary_dilation(bits, st), st, border_value=1)
        bits = ndimage.binary_dilation(ndimage.binary_erosion(bits, st, border_value=1), st)
    if params.fill_holes and bits.any():
        bits = ndimage.binary_fill_holes(bits)
    h, w = bits.shape
    return ForegroundMask(width=w, height=h, scale=1.0 / f, bits=bits)


@dataclass
class TileGrid:
    """Non-overlapping tile positions on the target-resolution grid."""

    tile_size_px: int
    target_mpp: float
    rescale: float  # source pixels * rescale = target pixels
    slide_width_px: int
    slide_height_px: int
    tiles: np.ndarray  # (n, 2) source-pixel top-left (x, y)
    kept: np.ndarray  # (n,) bool

    @property
    def n_tiles(self) -> int:
        return self.tiles.shape[0]

    @property
    def source_span(self) -> float:
        """Tile edge length in source pixels."""
        return self.tile_size_px / self.rescale


def grid_tiles(slide_width_px: int, slide_height_px: int, mpp: float,
               tile_size_px: int = TILE_SIZE_PX, target_mpp: float = TARGET_MPP) -> TileGrid:
    """All fully-inside tile positions; an image smaller than one tile
    yields an empty grid."""
    if mpp <= 0 or target_mpp <= 0:
        raise ForegroundError("mpp values must be positive")
    rescale = mpp / target_mpp
    nx = int(np.floor(slide_width_px * rescale)) // tile_size_px
    ny = int(np.floor(slide_height_px * rescale)) // tile_size_px
    span = tile_size_px / rescale
    coords = [(int(round(ix * span)), int(round(iy * span)))
              for iy in range(ny) for ix in range(nx)]
    tiles = np.array(coords, dtype=np.int64).reshape(len(coords), 2)
    return TileGrid(tile_size_px=tile_size_px, target_mpp=target_mpp, rescale=rescale,
                    slide_width_px=slide_width_px, slide_height_px=slide_height_px,
                    tiles=tiles, kept=np.ones(len(coords), dtype=bool))


def filter_tiles(grid: TileGrid, mask: ForegroundMask) -> TileGrid:
    """Keep tiles whose footprint contains at least one foreground pixel."""
    exp_w = int(np.ceil(grid.slide_width_px * mask.scale))
    exp_h = int(np.ceil(grid.slide_height_px * mask.scale))
    if mask.width != exp_w or mask.height != exp_h:
        raise GeometryMismatchError(
            f"mask {mask.width}x{mask.height} does not cover slide "
            f"{grid.slide_width_px}x{grid.slide_height_px} at scale {mask.scale}")
    span = grid.source_span
    kept = np.zeros(grid.n_tiles, dtype=bool)
    for i, (x, y) in enumerate(grid.tiles):
        c0 = max(int(np.floor(x * mask.scale)), 0)
        r0 = max(int(np.floor(y * mask.scale)), 0)
        c1 = min(int(np.ceil((x + span) * mask.scale)), mask.width)
        r1 = min(int(np.ceil((y + span) * mask.scale)), mask.height)
        kept[i] = bool(mask.bits[r0:r1, c0:c1].any())
    return replace(grid, kept=kept)


def write_manifest(grid: TileGrid, path) -> None:
    """Tile list as text: two header lines then x<TAB>y<TAB>kept rows."""
    with open(path, "w") as fh:
        fh.write(f"tile_size\t{grid.tile_size_px}\n")
        fh.write(f"rescale\t{grid.rescale:.10g}\n")
        for (x, y), k in zip(grid.tiles, grid.kept):
            fh.write(f"{x}\t{y}\t{int(k)}\n")

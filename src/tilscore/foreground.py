"""Texture-based tissue masking and the 512 px tile grid.

The mask follows the structure-information recipe: downsample luminance,
take the absolute Laplacian of a lightly blurred copy as a structure map,
blur it broadly, threshold, clean up morphologically, and fill enclosed
background holes.  Thresholding is Ridler-Calvard isodata, each split of
the map computed once; the split that stops the loop also decides a guard
for structurally uniform images (an all-texture slide maps to
all-foreground, a flat slide to all-background).  A plain global-mean cut
systematically overshoots sharp tissue boundaries.  The threshold keeps
the rim where tissue meets glass, and hole filling the inside; so that
tissue the slide's edge cuts is filled too, the edge counts as tissue
beside each dark border cell (`_edge_ring`), judged by the border's
luminance, which is kept.
`FesiParams` holds the recipe's scales (Bug, Feuerhake & Merhof, BVM 2015);
the threshold's guards are module constants, and hole filling is always on.

The filters are numpy routines that reproduce `scipy.ndimage`'s arithmetic
bit for bit: the reflect-mode Gaussian and Laplacian sum in scipy's order,
and the square erosion and dilation and the hole filling give scipy's
masks.  So masks match those of the scipy calls they replace, and `tile`
imports no scipy module.

A slide is a `PpmSlide`: a P6 file left on disk, whose header and size
are checked when it is opened.  Masking streams it in row strips, each a
whole number of mask rows tall, folded into per-channel block sums and their
luminance written into its rows of the map before the next is read.  Every
later mask-scale step writes into one of two float64 arrays of the mask's
shape, and the separable filters run in bands of `_BAND_ROWS` rows.  Each
step's rows are shared between up to two workers, one per usable CPU, with
the same sums at any worker count.  So besides two mask-scale arrays it
holds a band per worker, or about `pnm.STRIP_BYTES` of strips and their row
sums (2/f of their bytes at downsample f <= 16, 4/f above), and the border's
luminance; no full-size array.

Tiles are laid on an exact grid in target-resolution space (512 px at
0.5 mpp by default) and reported as source-pixel coordinates; a tile is
kept when its footprint holds at least one foreground mask pixel.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import TilscoreError, check_rules, pnm
from .bagio import TARGET_MPP, TILE_SIZE_PX, write_table
from .concord import median

# Upper bound of `pre_sigma` and `smooth_sigma`, in mask pixels: a Gaussian's
# band holds `_BAND_ROWS` + 8 sigma rows of the mask
MAX_SIGMA = 256.0
UNIFORM_REL_GAP = 0.3  # below this class separation the map counts as uniform
STRUCTURE_FLOOR = 1e-3  # luminance units; uniform maps above it are tissue
ISODATA_ITERS = 64


@dataclass
class PpmSlide:
    """An RGB slide left in its P6 file, which masking reads strip by strip;
    the header and the file size are checked on construction."""

    path: Path
    width_px: int = field(init=False)
    height_px: int = field(init=False)

    def __post_init__(self):
        self.height_px, self.width_px = pnm.ppm_shape(self.path)


@dataclass
class FesiParams:
    downsample: int = 8
    pre_sigma: float = 2.0  # at mask scale, before the Laplacian
    smooth_sigma: float = 8.0  # broad blur of the structure map
    morph_size: int = 3

    def validate(self) -> None:
        """Raise TilscoreError naming the first field out of its range."""
        check_rules(self, [
            *((name, "an integer of at least 1",
               isinstance(getattr(self, name), int) and getattr(self, name) >= 1)
              for name in ("downsample", "morph_size")),
            *((name, f"in [0, {MAX_SIGMA:g}]", 0.0 <= getattr(self, name) <= MAX_SIGMA)
              for name in ("pre_sigma", "smooth_sigma"))])


@dataclass
class ForegroundMask:
    width: int
    height: int
    scale: float  # mask pixels per slide pixel, in (0, 1]
    bits: np.ndarray  # (height, width) bool

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.height, self.width):
            raise TilscoreError("mask bits do not match declared shape")
        if not 0.0 < self.scale <= 1.0:
            raise TilscoreError("scale must be in (0, 1]")


def _block_sums(a: np.ndarray, f: int, axis: int, acc: np.dtype) -> np.ndarray:
    """Sums over consecutive groups of f entries along `axis`, exact in the
    unsigned type `acc`.  A last partial group is completed by repeating the
    final entry, as edge-replication padding would."""
    nq, rem = divmod(a.shape[axis], f)
    out = np.zeros(a.shape[:axis] + (nq + (rem > 0),) + a.shape[axis + 1 :], acc)
    at = (slice(None),) * axis  # prefix of an index along `axis`
    for i in range(f):
        out[at + (slice(nq),)] += a[at + (slice(i, nq * f, f),)]
    if rem:
        out[at + (nq,)] += (a[at + (slice(nq * f, None),)].sum(axis=axis, dtype=acc)
                            + a[at + (-1,)].astype(acc) * (f - rem))
    return out


def _block_luminance(strips: Iterable[np.ndarray], f: int, out: np.ndarray) -> np.ndarray:
    """Mean luminance of each f x f block of an (h, w, 3) uint8 raster given
    as consecutive row strips, each but the last a whole number of blocks
    tall, into the float64 rows of `out`; edge blocks are padded by
    replication.

    Each channel is summed per block exactly, rows first and then columns
    (channel-planar), in the smallest unsigned type that holds f*f*255
    (uint16 up to f = 16, uint32 above), and only the block sums are
    weighted in float64, each strip straight into its rows of `out`.  So
    the result does not depend on where the strips are cut.
    """
    acc = np.min_scalar_type(f * f * 255)
    r0 = 0
    for strip in strips:
        sums = _block_sums(_block_sums(strip, f, 0, acc).transpose(2, 0, 1), f, 2, acc)
        r1 = r0 + sums.shape[1]
        np.divide(0.299 * sums[0] + 0.587 * sums[1] + 0.114 * sums[2], f * f, out=out[r0:r1])
        r0 = r1
    return out


def _split_means(values: np.ndarray, t: float) -> tuple[float | None, float | None]:
    """Means of the values at most t and of those above t, None for an empty
    side.  One comparison makes the mask, which is inverted in place for the
    other side; one side's gather is freed before the other's is taken."""
    side = values <= t
    below = values[side]
    lo = float(below.mean()) if below.size else None
    del below
    above = values[np.logical_not(side, out=side)]
    return lo, float(above.mean()) if above.size else None


def _threshold(smooth: np.ndarray) -> np.ndarray:
    """Isodata bits of the structure map, each split taken once: the split
    that stops the loop (at a repeated threshold, with an empty side, or at
    the `ISODATA_ITERS`th update) also decides the uniform-map guard."""
    fg_level = float(smooth.max())
    if fg_level <= STRUCTURE_FLOOR:
        return np.zeros_like(smooth, dtype=bool)
    t = float(smooth.mean())
    for i in range(ISODATA_ITERS + 1):
        lo, hi = _split_means(smooth, t)
        if lo is None or hi is None or i == ISODATA_ITERS or (new_t := 0.5 * (lo + hi)) == t:
            break
        t = new_t
    lo, hi = 0.0 if lo is None else lo, fg_level if hi is None else hi
    return smooth > (STRUCTURE_FLOOR if hi - lo < UNIFORM_REL_GAP * hi else t)


def _workers() -> int:
    """One per CPU this process may run on, at most 2: the most measured."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, 2)


def _in_shares(work: Callable[[slice, int], object], n: int, step: int) -> None:
    """Call `work(rows, parts)` on runs of at most `step` of rows 0..n, in one
    contiguous share per worker, share 0 on the calling thread and each other
    on its own; all are joined, then the lowest failing share's error raised."""
    parts = min(_workers(), n)
    errors: list[BaseException | None] = [None] * parts

    def run(part):
        stop = n * (part + 1) // parts
        try:
            for b in range(n * part // parts, stop, step):
                work(slice(b, min(b + step, stop)), parts)
        except BaseException as exc:
            errors[part] = exc

    threads = [threading.Thread(target=run, args=(part,)) for part in range(1, parts)]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in filter(threading.Thread.is_alive, threads):
            thread.join()
    for exc in filter(None, errors):
        raise exc


# rows per band of the filters below: the operands of a band stay in cache,
# and no share holds more than one band of an intermediate
_BAND_ROWS = 32


def _correlate(x: np.ndarray, w: np.ndarray, axis: int, rows: slice) -> np.ndarray:
    """Rows `rows` of `scipy.ndimage.correlate1d(x, w, axis, mode="reflect")`
    of a 2-d float64 array, for a symmetric kernel `w` of odd length, summed
    in the order of scipy's symmetric path: out = x[i]*w[r], then for j =
    r..1, out += (x[i-j] + x[i+j])*w[r-j].  Reflect mode mirrors the edge
    sample (d c b a | a b c d), repeatedly for kernels longer than the axis."""
    r, n = len(w) // 2, x.shape[axis]
    k = np.arange(-r, n + r) % (2 * n)
    k = np.minimum(k, 2 * n - 1 - k)  # index of each padded sample along `axis`
    # padded rows, column-major along axis 1; tap s starts s samples into the pad
    src = x[k[rows.start : rows.stop + 2 * r]] if axis == 0 else x[rows][:, k]
    m = src.shape[axis] - 2 * r
    taps = [src[(slice(None),) * axis + (slice(s, s + m),)] for s in range(2 * r + 1)]
    out = taps[r] * w[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(taps[r - j], taps[r + j], out=pair)
        pair *= w[r - j]
        out += pair
    return out


def _gaussian_filter(x: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """`scipy.ndimage.gaussian_filter(x, sigma)` of a 2-d float64 array:
    reflect mode, the kernel truncated at 4 sigma, axis 0 then axis 1.  Each
    band of the axis-0 pass is filtered along axis 1 at once, into `out`
    (new if None, never `x`)."""
    out = np.empty_like(x) if out is None else out
    if sigma <= 1e-15:
        out[...] = x
        return out
    r = int(4.0 * float(sigma) + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    _in_shares(lambda rows, _: np.copyto(
        out[rows], _correlate(_correlate(x, w, 0, rows), w, 1, slice(None))), len(out), _BAND_ROWS)
    return out


def _laplace(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`scipy.ndimage.laplace(x)` of a 2-d float64 array: the [1, -2, 1]
    second difference along axis 0 plus that along axis 1, reflect mode,
    band by band into `out` (new if None, never `x`)."""
    w = np.array([1.0, -2.0, 1.0])
    out = np.empty_like(x) if out is None else out
    _in_shares(lambda rows, _: np.add(_correlate(x, w, 0, rows), _correlate(x, w, 1, rows),
                                      out=out[rows]), len(out), _BAND_ROWS)
    return out


def _box_morphology(bits: np.ndarray, m: int, erode: bool) -> np.ndarray:
    """`scipy.ndimage.binary_erosion(bits, st, border_value=1)` or
    `binary_dilation(bits, st)` for `st` an m x m square: along each axis in
    turn, the AND or OR of m shifted copies.  Outside cells are the identity
    of the op, so shifts past the edge are skipped.  For even m, scipy puts
    the centre m//2 cells after an erosion window's start and m//2 cells
    before a dilation window's end."""
    op = np.logical_and if erode else np.logical_or
    first = -(m // 2) if erode else -(m - 1 - m // 2)  # offset of the window's first cell
    for axis in (0, 1):
        src, out = bits.swapaxes(0, axis), bits.copy().swapaxes(0, axis)
        n = src.shape[0]
        for d in range(max(first, 1 - n), min(first + m, n)):  # shifts that stay inside
            if d > 0:
                op(out[: n - d], src[d:], out=out[: n - d])
            elif d < 0:
                op(out[-d:], src[: n + d], out=out[-d:])
        bits = out.swapaxes(0, axis)
    return bits


def _fill_holes(bits: np.ndarray) -> np.ndarray:
    """`scipy.ndimage.binary_fill_holes(bits)`: background not 4-connected
    to the image border becomes foreground.  The background runs of each row
    are linked to the runs they overlap in the row above; each round hooks
    every root onto the smallest root it touches, then jumps pointers until
    every run points at its root."""
    h, w = bits.shape
    bg = np.zeros((h, w + 2), dtype=bool)
    bg[:, 1:-1] = ~bits
    rows, cols = np.nonzero(bg[:, 1:] != bg[:, :-1])  # run edges, start then end, row-major
    row, start, end = rows[::2], cols[::2], cols[1::2]
    # a run overlaps the runs of the row above whose end is after its start
    # and whose start is before its end: one contiguous range [lo, hi)
    stride = w + 1
    above = (row - 1) * stride
    lo = np.searchsorted(row * stride + end, above + start, side="right")
    hi = np.searchsorted(row * stride + start, above + end, side="left")
    count = np.maximum(hi - lo, 0)
    lower = np.repeat(np.arange(row.size), count)
    upper = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    label = np.arange(row.size)
    while True:
        a, b = label[upper], label[lower]
        if np.array_equal(a, b):
            break
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    open_ = np.zeros(row.size, dtype=bool)
    open_[label[(row == 0) | (row == h - 1) | (start == 0) | (end == w)]] = True
    hole = ~open_[label]
    # a hole run never touches the left or right border: mark its two edges
    # and let an XOR scan along the row switch the cells between them on
    edges = np.zeros((h, w), dtype=bool)
    edges[row[hole], start[hole]] = True
    edges[row[hole], end[hole]] = True
    return bits | np.logical_xor.accumulate(edges, axis=1)


# a border cell darker than EDGE_DARK times the median luminance of the
# border cells left out of the mask is tissue that the slide's edge cuts:
# below 220 on white glass at 255
EDGE_DARK = 0.86


def _edge_ring(bits: np.ndarray, border: list[np.ndarray]) -> np.ndarray:
    """`bits` in a one-cell ring, foreground beside each dark border cell;
    `border` is the luminance of the top, bottom, left and right border
    cells.  Background that meets the border only where tissue does is then
    a hole for `_fill_holes`; with no dark border cell nothing changes."""
    edges = [bits[0], bits[-1], bits[:, 0], bits[:, -1]]
    background = np.concatenate([lum[~edge] for lum, edge in zip(border, edges)])
    ring = np.zeros((bits.shape[0] + 2, bits.shape[1] + 2), dtype=bool)
    ring[1:-1, 1:-1] = bits
    if background.size:
        dark = EDGE_DARK * median(background)
        ring[0, 1:-1], ring[-1, 1:-1], ring[1:-1, 0], ring[1:-1, -1] = (
            lum < dark for lum in border)
    return ring


def compute_foreground(slide: PpmSlide, params: FesiParams | None = None) -> ForegroundMask:
    """Binary tissue mask at 1/downsample of slide resolution.

    Deterministic for fixed inputs; raises on images smaller than one mask
    cell.
    """
    params = params or FesiParams()
    params.validate()
    f = params.downsample
    if slide.width_px < f or slide.height_px < f:
        raise TilscoreError(
            f"{slide.path}: slide {slide.width_px}x{slide.height_px} is smaller than one "
            f"{f}px mask cell")
    a = np.empty((-(-slide.height_px // f), -(-slide.width_px // f)))

    def luminance(rows, parts):  # closing() closes the file on every path
        with closing(pnm.read_ppm_strips(slide.path, f, rows, parts)) as strips:
            _block_luminance(strips, f, a[rows])

    _in_shares(luminance, len(a), len(a))
    border = [a[0].copy(), a[-1].copy(), a[:, 0].copy(), a[:, -1].copy()]  # for _edge_ring
    # the mask-scale arrays set the stage's peak memory: every step writes
    # into `a` or `b`, and `a` goes before the threshold's gathers of `smooth`
    b = _gaussian_filter(a, params.pre_sigma, out=np.empty_like(a))
    np.abs(_laplace(b, out=a), out=a)
    smooth = _gaussian_filter(a, params.smooth_sigma, out=b)
    del a, b

    bits = _threshold(smooth)
    del smooth  # freed before the morphology, the edge ring and hole filling
    if params.morph_size > 1 and bits.any():
        m = params.morph_size
        # closing, then opening; erosion treats the outside as foreground,
        # which keeps image-edge tissue intact
        bits = _box_morphology(_box_morphology(bits, m, erode=False), m, erode=True)
        bits = _box_morphology(_box_morphology(bits, m, erode=True), m, erode=False)
    if bits.any():
        bits = _fill_holes(_edge_ring(bits, border))[1:-1, 1:-1]
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
        raise TilscoreError("mpp values must be positive")
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
        raise TilscoreError(
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
    """Tile list as a tab-separated table: two header lines then x, y, kept rows."""
    write_table(path, [["tile_size", grid.tile_size_px], ["rescale", f"{grid.rescale:.10g}"],
                       *([x, y, int(k)] for (x, y), k in zip(grid.tiles.tolist(), grid.kept))],
                delimiter="\t")

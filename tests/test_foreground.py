import io
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import mask_iou, noisy_disc, noisy_disc_slide, ppm_slide, read_manifest, read_pgm
from tilscore import TilscoreError, concord, foreground, pnm
from tilscore.foreground import (
    FesiParams,
    ForegroundMask,
    _split_means,
    compute_foreground,
    filter_tiles,
    grid_tiles,
    write_manifest,
)
from tilscore.pnm import ppm_shape, write_pgm, write_ppm, read_mpp_sidecar


def uniform_slide(directory, value=255, n=512):
    return ppm_slide(directory, np.full((n, n, 3), value, dtype=np.uint8), "uniform")


class TestComputeForeground:
    def test_white_slide_all_zero(self, tmp_path):
        mask = compute_foreground(uniform_slide(tmp_path, 255, 2048))
        assert not mask.bits.any()

    def test_fully_textured_all_one(self, tmp_path):
        assert compute_foreground(textured_slide(tmp_path)).bits.all()

    def test_noise_disc_iou(self, disc_slide):
        slide, truth_at = disc_slide
        mask = compute_foreground(slide)
        assert mask_iou(mask.bits, truth_at(8)) >= 0.95

    @pytest.mark.parametrize("cx", [150.0, 0.0, -100.0])
    def test_tissue_cut_by_the_edge_stays_in_the_mask(self, tmp_path, cx):
        # textured tissue on white: the threshold keeps the rim where texture
        # meets white, and hole filling the inside.  Where the left edge cuts
        # the disc there is no rim, so the inside reached the border and was
        # left out: 49 % of the disc was in the mask at cx = 150
        n, r, f = 1024, 300.0, 8
        yy, xx = np.ogrid[0:n, 0:n]
        disc = (xx - cx) ** 2 + (yy - n / 2) ** 2 <= r * r
        pixels = np.full((n, n, 3), 255, dtype=np.uint8)
        rng = np.random.default_rng(0)
        pixels[disc] = rng.integers(60, 230, size=(int(disc.sum()), 3), dtype=np.uint8)
        cells = (np.arange(n // f) + 0.5) * f
        dist = np.hypot(cells[None, :] - cx, cells[:, None] - n / 2)
        bits = compute_foreground(ppm_slide(tmp_path, pixels)).bits
        assert bits[dist <= r].all()
        assert not bits[dist > r + 16 * f].any()  # the mask grows about 12 cells past the rim

    def test_idempotent_bit_identical(self, disc_slide):
        slide, _ = disc_slide
        a = compute_foreground(slide)
        b = compute_foreground(slide)
        assert np.array_equal(a.bits, b.bits)
        assert (a.width, a.height, a.scale) == (b.width, b.height, b.scale)

    def test_tiny_image_rejected(self, tmp_path):
        with pytest.raises(TilscoreError, match=r"uniform\.ppm: slide 4x4 is smaller than one "
                                                 r"8px mask cell$"):
            compute_foreground(uniform_slide(tmp_path, 128, 4))

    def test_mask_geometry(self, tmp_path):
        mask = compute_foreground(uniform_slide(tmp_path, 255, 520))
        assert (mask.width, mask.height) == (65, 65)
        assert mask.scale == 1.0 / 8.0


def textured_slide(directory, n=1024):
    rng = np.random.default_rng(1)
    return ppm_slide(directory, rng.integers(0, 256, size=(n, n, 3)).astype(np.uint8))


def two_step_threshold(smooth):
    """The former threshold: isodata to a threshold, then one more split at
    it for the uniform guard; returns the bits and the number of updates."""
    fg_level = float(smooth.max())
    if fg_level <= foreground.STRUCTURE_FLOOR:
        return np.zeros_like(smooth, dtype=bool), 0
    t, updates = float(smooth.mean()), 0
    for _ in range(foreground.ISODATA_ITERS):
        lo, hi = _split_means(smooth, t)
        if lo is None or hi is None or 0.5 * (lo + hi) == t:
            break
        t, updates = 0.5 * (lo + hi), updates + 1
    lo, hi = _split_means(smooth, t)
    lo, hi = 0.0 if lo is None else lo, fg_level if hi is None else hi
    if hi - lo < foreground.UNIFORM_REL_GAP * hi:
        return smooth > foreground.STRUCTURE_FLOOR, updates
    return smooth > t, updates


class TestThreshold:
    @pytest.fixture
    def splits(self, monkeypatch):
        """The (structure map, threshold) of every `_split_means` call."""
        calls = []

        def counted(values, t):
            calls.append((values, t))
            return _split_means(values, t)

        monkeypatch.setattr(foreground, "_split_means", counted)
        return calls

    def test_one_split_per_iteration(self, disc_slide, splits):
        # a converged loop stops on the split that repeats its threshold, and
        # that split also decides the uniform guard; one more was once taken
        compute_foreground(disc_slide[0])
        smooth, ts = splits[0][0], [t for _, t in splits]
        want, updates = two_step_threshold(smooth)
        assert len(ts) == updates + 1 < foreground.ISODATA_ITERS
        assert len(set(ts)) == len(ts)
        assert np.array_equal(foreground._threshold(smooth), want)

    @pytest.mark.parametrize("iters", [0, 1, 2])
    @pytest.mark.parametrize("uniform", [True, False], ids=["textured", "disc"])
    def test_capped_loop_matches_the_two_step_threshold(self, tmp_path, splits, monkeypatch,
                                                        iters, uniform):
        # at the cap the last split is taken at the last updated threshold
        monkeypatch.setattr(foreground, "ISODATA_ITERS", iters)
        compute_foreground(textured_slide(tmp_path) if uniform else noisy_disc_slide(tmp_path)[0])
        assert len(splits) == iters + 1
        smooth = splits[0][0]
        want, updates = two_step_threshold(smooth)
        assert updates == iters  # every pass moved the threshold: the loop ran to its cap
        assert np.array_equal(foreground._threshold(smooth), want)
        assert want.all() == uniform  # the guard makes a uniform map all tissue


def float_block_luminance(pixels, f):
    """The former full-resolution float64 path, kept as the reference:
    per-pixel luminance, edge-replication padding, then an f x f area mean."""
    lum = (0.299 * pixels[:, :, 0].astype(np.float64)
           + 0.587 * pixels[:, :, 1]
           + 0.114 * pixels[:, :, 2])
    lum = np.pad(lum, ((0, (-lum.shape[0]) % f), (0, (-lum.shape[1]) % f)), mode="edge")
    hh, ww = lum.shape
    return lum.reshape(hh // f, f, ww // f, f).mean(axis=(1, 3))


def mask_buffer(pixels, f):
    """A float64 array of the mask shape of `pixels` at downsample f, one cell
    per started block, for `_block_luminance` to write into."""
    return np.empty((-(-pixels.shape[0] // f), -(-pixels.shape[1] // f)))


def float_luminance_of_share(strips, f, out):
    """`_block_luminance` by the float reference, for one share's strips."""
    # each strip is a view of one reused buffer: copy it before the next is read
    out[...] = float_block_luminance(np.concatenate([strip.copy() for strip in strips]), f)
    return out


# disc fixtures: (side, radius, seed); 1001 is not a multiple of any downsample
DISCS = [(2048, 800.0, 0), (1001, 350.0, 1), (1536, 500.0, 2), (1024, 300.0, 3)]


class TestBlockLuminance:
    @pytest.mark.parametrize("side,radius,seed", DISCS)
    def test_mask_matches_float_reference(self, side, radius, seed, tmp_path, monkeypatch):
        pixels, _ = noisy_disc(n=side, radius=radius, seed=seed)
        slide = ppm_slide(tmp_path, pixels)
        small = foreground._block_luminance([pixels], 8, mask_buffer(pixels, 8))
        np.testing.assert_allclose(small, float_block_luminance(pixels, 8), rtol=1e-12, atol=0)
        bits = compute_foreground(slide).bits
        monkeypatch.setattr(foreground, "_block_luminance", float_luminance_of_share)
        assert np.array_equal(bits, compute_foreground(slide).bits)

    @pytest.fixture(scope="class")
    def odd_disc(self):
        return noisy_disc(n=1203, radius=450.0, seed=4)[0]

    # 16 is the largest f whose block sums (f*f*255) fit uint16; 17 and 300
    # take uint32
    @pytest.mark.parametrize("f", [1, 4, 16, 17, 300])
    @pytest.mark.parametrize("shape", [(1001, 1001), (1001, 777), (640, 1203)])
    def test_odd_sizes_and_downsamples(self, odd_disc, f, shape):
        pixels = odd_disc[: shape[0], : shape[1]].copy()
        pixels[-1] = 255  # saturated edge rows and columns, replicated by the padding
        pixels[:, -1] = 0
        np.testing.assert_allclose(foreground._block_luminance([pixels], f, mask_buffer(pixels, f)),
                                   float_block_luminance(pixels, f), rtol=1e-12, atol=0)

    # strips of 1, 2 and 5 mask rows; every shape leaves a last strip shorter
    # than one mask row for f > 1
    @pytest.mark.parametrize("f", [1, 4, 16, 17, 300])
    @pytest.mark.parametrize("shape", [(1001, 1001), (1001, 777), (640, 1203)])
    def test_strips_match_the_whole_raster_bytewise(self, odd_disc, f, shape):
        pixels = odd_disc[: shape[0], : shape[1]]
        whole = foreground._block_luminance([pixels], f, mask_buffer(pixels, f))
        for blocks in (1, 2, 5):
            rows = blocks * f
            strips = (pixels[r0 : r0 + rows] for r0 in range(0, shape[0], rows))
            small = foreground._block_luminance(strips, f, np.empty_like(whole))
            assert small.shape == whole.shape and small.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("f", [1, 8, 17])
    def test_slides_cut_strips_on_mask_rows(self, odd_disc, tmp_path, monkeypatch, f):
        pixels = odd_disc[:1001, :777]
        slide = ppm_slide(tmp_path, pixels)
        monkeypatch.setattr(pnm, "STRIP_BYTES", 80 << 10)  # 35 rows of 777 pixels
        whole = foreground._block_luminance([pixels], f, mask_buffer(pixels, f)).tobytes()
        strips = pnm.read_ppm_strips(slide.path, f)
        assert foreground._block_luminance(strips, f, mask_buffer(pixels, f)).tobytes() == whole

    def test_saturated_blocks_do_not_wrap(self):
        for f in (16, 17, 300):
            pixels = np.full((f + 1, 2 * f - 1, 3), 255, dtype=np.uint8)
            np.testing.assert_allclose(foreground._block_luminance([pixels], f, np.empty((2, 2))),
                                       np.full((2, 2), 255.0), rtol=1e-12, atol=0)

    def test_traced_peak_is_a_fraction_of_the_slide(self, disc_slide, monkeypatch, eight_cpus):
        slide, _ = disc_slide
        nbytes = slide.width_px * slide.height_px * 3
        monkeypatch.setattr(pnm, "STRIP_BYTES", 1 << 20)  # 1 MiB: 13 strips
        tracemalloc.start()
        try:
            compute_foreground(slide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 2, f"peak {peak} of {nbytes} bytes"

    def test_traced_peak_is_under_three_mask_arrays(self, tmp_path, monkeypatch, eight_cpus):
        # the mask-scale steps write into two float64 arrays, and the
        # threshold's gathers come after the first is freed; each worker
        # adds a band
        slide = ppm_slide(tmp_path, noisy_disc(n=1024, radius=300.0, seed=3)[0])
        mask_bytes = 1024 * 1024 * 8
        monkeypatch.setattr(pnm, "STRIP_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            compute_foreground(slide, FesiParams(downsample=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * mask_bytes, f"peak {peak / mask_bytes:.2f} mask arrays"

    @pytest.mark.parametrize("f", [0, -8, 8.0])
    def test_bad_downsample_rejected(self, f, tmp_path):
        with pytest.raises(TilscoreError, match="downsample"):
            compute_foreground(uniform_slide(tmp_path, 255, 64), FesiParams(downsample=f))


# the FesiParams of the worker-count tests: the default, three downsamples
# and no pre-blur with a narrow smooth
WORKER_PARAMS = {"default": FesiParams(), "downsample4": FesiParams(downsample=4),
                 "downsample17": FesiParams(downsample=17), "downsample1": FesiParams(downsample=1),
                 "smooth3": FesiParams(pre_sigma=0.0, smooth_sigma=3.0)}


class TestWorkers:
    """Masking splits its row-independent work between one worker per usable
    CPU, at most two (`foreground._workers`); the masks do not depend on how
    many there are.  Three workers never run, but split the rows unevenly."""

    def test_at_most_two_workers(self, monkeypatch, eight_cpus):
        assert foreground._workers() == 2
        seen = []
        foreground._in_shares(lambda rows, parts: seen.append((rows, parts)), 100, 30)
        assert sorted(seen, key=lambda run: run[0].start) == [
            (slice(0, 30), 2), (slice(30, 50), 2), (slice(50, 80), 2), (slice(80, 100), 2)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert foreground._workers() == 1

    @pytest.fixture(scope="class")
    def slides(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("workers")
        tall = noisy_disc(n=1391, radius=500.0, seed=5)[0][:, :777]  # 777 x 1391
        return [ppm_slide(directory, noisy_disc(n=1203, radius=450.0, seed=4)[0], "square"),
                ppm_slide(directory, tall, "tall")]

    @pytest.mark.parametrize("params", WORKER_PARAMS.values(), ids=WORKER_PARAMS.keys())
    def test_masks_equal_at_one_two_and_three_workers(self, slides, params, monkeypatch):
        monkeypatch.setattr(pnm, "STRIP_BYTES", 80 << 10)  # shares of uneven strips
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so overlapping writes would show
        try:
            for slide in slides:
                masks = []
                for workers in (1, 2, 3):
                    monkeypatch.setattr(foreground, "_workers", lambda n=workers: n)
                    bits = compute_foreground(slide, params).bits
                    masks.append((bits.shape, bits.tobytes()))
                assert masks[1] == masks[0] and masks[2] == masks[0]
        finally:
            sys.setswitchinterval(interval)

    # 256 rows at downsample 8 in two shares: rows 0-127 and 128-255, each
    # read in strips of 40 rows.  A raster that ends at row 180 fails the
    # second share only, in its strip from row 168; one that ends at row 50
    # fails both, and the first share's strip from row 40 is named.
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("end_row,row", [(180, 168), (50, 40)])
    def test_short_raster_named_by_the_first_failing_share(self, tmp_path, monkeypatch,
                                                           end_row, row):
        slide = uniform_slide(tmp_path, 128, 256)
        end = slide.path.stat().st_size - (256 - end_row) * 256 * 3
        opened = []

        class ShortRaster(io.FileIO):  # the file shrank after its size was checked
            def readinto(self, buf):
                return super().readinto(memoryview(buf).cast("B")[: max(end - self.tell(), 0)])

        def short_open(path, mode):
            opened.append(ShortRaster(path, mode))
            return opened[-1]

        monkeypatch.setattr(pnm, "open", short_open, raising=False)
        monkeypatch.setattr(pnm, "STRIP_BYTES", 64 << 10)
        monkeypatch.setattr(foreground, "_workers", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(TilscoreError, match=f"^{re.escape(str(slide.path))}: raster truncated at row {row}$"):
            compute_foreground(slide)
        assert threading.active_count() == threads
        assert len(opened) == 2 and all(fh.closed for fh in opened)


# shapes for the oracle tests: single cells, single rows and columns, and
# sides shorter than the widest kernel radius (32 at sigma 8)
ORACLE_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 3), (5, 5), (17, 40), (40, 17), (64, 64), (129, 70)]


def spiral(n, gap=2, closed=False):
    """A square spiral wall one cell thick; its corridor, gap - 1 cells wide,
    winds from an opening in the left border to the centre: one long
    background path, and no hole unless the opening is `closed`."""
    bits = np.zeros((n, n), dtype=bool)
    bits[1:gap, 0] = closed
    lo, hi = 0, n - 1
    while lo <= hi:
        bits[lo, max(lo - gap, 0):hi + 1] = bits[lo:hi + 1, hi] = bits[hi, lo:hi + 1] = True
        bits[lo + gap:hi + 1, lo] = True
        lo, hi = lo + gap, hi - gap
    return bits


def rings(n=101, width=2, step=6):
    """Concentric rings: each gap between two rings is a hole."""
    yy, xx = np.mgrid[:n, :n]
    radius = np.hypot(yy - n // 2, xx - n // 2)
    return (radius % step < width) & (radius < n // 2 - 1)


def diagonal_hole():
    """A background cell whose only way to the border is through a corner."""
    bits = np.zeros((4, 4), dtype=bool)
    bits[0, 1] = bits[1, 0] = bits[1, 2] = bits[2, 1] = True
    return bits


class TestScipyOracle:
    """The mask's filters are numpy routines that reproduce
    `scipy.ndimage` bit for bit; scipy is only the oracle here."""

    @pytest.fixture
    def ndimage(self):
        from scipy import ndimage

        return ndimage

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gaussian_and_laplace(self, shape, ndimage):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * 50.0
        sigmas = [0, 0.5, 2, 8, 1e-16, *rng.uniform(0.0, 12.0, 20)]
        buf = np.full_like(x, np.nan)
        for sigma in sigmas:
            assert np.array_equal(foreground._gaussian_filter(x, sigma),
                                  ndimage.gaussian_filter(x, sigma)), sigma
            assert foreground._gaussian_filter(x, sigma, out=buf) is buf
            assert np.array_equal(buf, ndimage.gaussian_filter(x, sigma)), sigma
        assert np.array_equal(foreground._laplace(x), ndimage.laplace(x))
        buf[...] = np.nan
        assert foreground._laplace(x, out=buf) is buf
        assert np.array_equal(buf, ndimage.laplace(x))

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gaussian_and_laplace_at_worker_counts(self, shape, workers, ndimage, monkeypatch):
        # shapes of more than one band are split between the workers
        monkeypatch.setattr(foreground, "_workers", lambda: workers)
        self.test_gaussian_and_laplace(shape, ndimage)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    @pytest.mark.parametrize("m", range(1, 7))
    def test_erosion_and_dilation(self, shape, m, ndimage):
        rng = np.random.default_rng(m)
        square = np.ones((m, m), dtype=bool)
        for density in (0.1, 0.5, 0.9):
            bits = rng.random(shape) < density
            assert np.array_equal(foreground._box_morphology(bits, m, erode=True),
                                  ndimage.binary_erosion(bits, square, border_value=1))
            assert np.array_equal(foreground._box_morphology(bits, m, erode=False),
                                  ndimage.binary_dilation(bits, square))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_fill_holes_random(self, shape, ndimage):
        rng = np.random.default_rng(len(shape) + shape[0])
        for density in (0.3, 0.5, 0.6, 0.7, 0.9):
            bits = rng.random(shape) < density
            assert np.array_equal(foreground._fill_holes(bits), ndimage.binary_fill_holes(bits))

    @pytest.mark.parametrize("bits", [spiral(64), spiral(65, gap=3), spiral(64, closed=True),
                                      rings(), rings().T[:, 7:], diagonal_hole(),
                                      np.ones((3, 3), dtype=bool)],
                             ids=["spiral", "spiral-gap3", "closed-spiral", "rings", "cut-rings",
                                  "diagonal", "no-background"])
    def test_fill_holes_shapes(self, bits, ndimage):
        filled = foreground._fill_holes(bits)
        assert np.array_equal(filled, ndimage.binary_fill_holes(bits))
        if bits.shape == (4, 4):  # the corner does not connect the cell to the border
            assert filled[1, 1] and not filled[0, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 255, 256])
def test_median_is_numpys_bit_for_bit(n):
    # concord.median, which avoids np.median's import of numpy.ma: odd and
    # even sizes, ties, and middle pairs whose mean rounds
    rng = np.random.default_rng(n)
    for values in (rng.random(n) * 255.0, rng.integers(0, 3, n).astype(float),
                   np.full(n, 0.1), rng.choice([0.1, 0.2, 0.7], n), rng.normal(size=n) * 1e300):
        assert concord.median(values).hex() == float(np.median(values)).hex(), values


class TestGridTiles:
    def test_exact_tiling_rescale_one(self):
        grid = grid_tiles(1024, 1024, mpp=0.5)
        assert grid.rescale == 1.0
        assert grid.n_tiles == 4
        assert grid.tiles.tolist() == [[0, 0], [512, 0], [0, 512], [512, 512]]

    def test_rescale_half_single_tile(self):
        grid = grid_tiles(1024, 1024, mpp=0.25)
        assert grid.rescale == 0.5
        assert grid.n_tiles == 1
        assert grid.tiles.tolist() == [[0, 0]]
        assert grid.source_span == 1024.0

    def test_too_small_empty_grid(self):
        grid = grid_tiles(100, 100, mpp=0.5)
        assert grid.n_tiles == 0

    def test_partition_no_overlap_inside_image(self):
        for w, h, mpp in [(2048, 1536, 0.5), (3000, 1024, 0.25), (1111, 2222, 1.0)]:
            grid = grid_tiles(w, h, mpp=mpp)
            span = grid.source_span
            seen = set()
            for x, y in grid.tiles:
                assert (x, y) not in seen
                seen.add((x, y))
                assert x >= 0 and y >= 0
                assert x + span <= w + 1e-9
                assert y + span <= h + 1e-9
            # tiles sit on an exact target-space lattice: indices unique
            idx = {(round(x * grid.rescale) // 512, round(y * grid.rescale) // 512)
                   for x, y in grid.tiles}
            assert len(idx) == grid.n_tiles

    def test_bad_mpp(self):
        with pytest.raises(TilscoreError, match="^mpp values must be positive$"):
            grid_tiles(100, 100, mpp=0.0)


def full_mask(w, h, value=True, scale=1.0 / 8.0):
    return ForegroundMask(width=w, height=h, scale=scale,
                          bits=np.full((h, w), value, dtype=bool))


class TestFilterTiles:
    def test_all_zero_mask_keeps_nothing(self):
        grid = grid_tiles(1024, 1024, mpp=0.5)
        out = filter_tiles(grid, full_mask(128, 128, False))
        assert out.kept.sum() == 0

    def test_all_one_mask_keeps_everything(self):
        grid = grid_tiles(1024, 1024, mpp=0.5)
        out = filter_tiles(grid, full_mask(128, 128, True))
        assert out.kept.all()

    def test_single_tile_footprint(self):
        # foreground covering exactly tile (512, 512)'s footprint
        grid = grid_tiles(1024, 1024, mpp=0.5)
        bits = np.zeros((128, 128), dtype=bool)
        bits[64:128, 64:128] = True
        out = filter_tiles(grid, ForegroundMask(width=128, height=128, scale=1 / 8, bits=bits))
        assert out.kept.tolist() == [False, False, False, True]

    def test_monotone_in_foreground(self):
        rng = np.random.default_rng(3)
        grid = grid_tiles(2048, 2048, mpp=0.5)
        small = rng.random((256, 256)) < 0.02
        big = small | (rng.random((256, 256)) < 0.05)
        kept_small = filter_tiles(grid, ForegroundMask(256, 256, 1 / 8, small)).kept
        kept_big = filter_tiles(grid, ForegroundMask(256, 256, 1 / 8, big)).kept
        assert not (kept_small & ~kept_big).any()

    def test_geometry_mismatch(self):
        grid = grid_tiles(1024, 1024, mpp=0.5)
        with pytest.raises(TilscoreError, match="mask 64x64 does not cover slide 1024x1024"):
            filter_tiles(grid, full_mask(64, 64))

    def test_blob_keeps_tiles_over_blob(self, disc_slide):
        slide, truth_at = disc_slide
        mask = compute_foreground(slide)
        grid = filter_tiles(grid_tiles(slide.width_px, slide.height_px, 0.5), mask)
        truth = truth_at(8)
        # every tile whose footprint overlaps the true disc interior...
        for (x, y), k in zip(grid.tiles, grid.kept):
            r0, c0 = y // 8, x // 8
            cell = truth[r0 : r0 + 64, c0 : c0 + 64]
            if cell.mean() > 0.05:  # solidly over the blob
                assert k

    def test_manifest_round_trip(self, tmp_path, disc_slide):
        slide, _ = disc_slide
        mask = compute_foreground(slide)
        grid = filter_tiles(grid_tiles(slide.width_px, slide.height_px, 0.5), mask)
        path = tmp_path / "tiles.tsv"
        write_manifest(grid, path)
        tile_size, rescale, tiles, kept = read_manifest(path)
        assert tile_size == 512 and rescale == 1.0
        assert np.array_equal(tiles, grid.tiles)
        assert np.array_equal(kept, grid.kept)


def read_ppm_whole(path) -> np.ndarray:
    """A P6 raster read through the strip reader `tile` uses, strip by strip."""
    return np.concatenate([strip.copy() for strip in pnm.read_ppm_strips(path, 1)])


class TestPnm:
    def test_ppm_round_trip(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(10, 14, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        monkeypatch.setattr(pnm, "STRIP_BYTES", 3 * 14 * 3)  # three rows, the last strip one
        assert np.array_equal(read_ppm_whole(path), img)

    def test_pgm_round_trip(self, tmp_path):
        img = (np.arange(30, dtype=np.uint8) * 8).reshape(5, 6)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        assert ppm_shape(path) == (1, 2)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(TilscoreError, match=r"bad\.ppm: expected P6 file, got b'P5'$"):
            ppm_shape(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(TilscoreError, match=r"short\.ppm: raster truncated \(10 of 48 bytes\)$"):
            ppm_shape(path)

    def test_read_owns_writable_pixels(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((3, 5), dtype=np.uint8))
        img = read_pgm(path)
        assert img.flags.owndata and img.flags.writeable and img.flags.c_contiguous
        img[0, 0] = 7  # no read-only buffer underneath

    def test_comment_longer_than_a_page(self, tmp_path):
        path = tmp_path / "long.ppm"
        raster = bytes(range(6))
        path.write_bytes(b"P6\n#" + b"x" * 5000 + b"\n2 # w\n1\n255\n" + raster)
        assert ppm_shape(path) == (1, 2)
        assert read_ppm_whole(path).tobytes() == raster

    def test_truncated_raster_names_file(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(TilscoreError, match=r"short\.ppm: raster truncated \(10 of 48 bytes\)"):
            ppm_shape(path)

    def test_signed_header_token_rejected(self, tmp_path):
        path = tmp_path / "neg.ppm"
        path.write_bytes(b"P6\n-4 4\n255\n" + bytes(48))
        with pytest.raises(TilscoreError, match="bad header token"):
            ppm_shape(path)

    def test_write_streams_the_array_buffer(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, size=(2048, 2048, 3), dtype=np.uint8)
        path = tmp_path / "big.ppm"
        tracemalloc.start()
        try:
            write_ppm(path, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * img.nbytes, f"peak {peak} of {img.nbytes} bytes"
        assert path.read_bytes() == b"P6\n2048 2048\n255\n" + img.tobytes()

    def test_write_pgm_of_a_strided_view(self, tmp_path):
        img = (np.arange(60, dtype=np.uint8) * 4).reshape(6, 10)[:, ::3]
        path = tmp_path / "view.pgm"
        write_pgm(path, img)
        assert path.read_bytes() == b"P5\n4 6\n255\n" + img.copy().tobytes()

    def test_mpp_sidecar(self, tmp_path):
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.zeros((2, 2, 3), dtype=np.uint8))
        assert read_mpp_sidecar(img_path) is None
        (tmp_path / "img.ppm.mpp").write_text("0.25\n")
        assert read_mpp_sidecar(img_path) == 0.25

import tracemalloc

import numpy as np
import pytest

from conftest import mask_iou, noisy_disc_slide, read_manifest
from tilscore import foreground, pnm
from tilscore.foreground import (
    FesiParams,
    ForegroundError,
    ForegroundMask,
    GeometryMismatchError,
    PpmSlide,
    RasterSlide,
    compute_foreground,
    filter_tiles,
    grid_tiles,
    write_manifest,
)
from tilscore.pnm import PnmError, read_pgm, read_ppm, write_pgm, write_ppm, read_mpp_sidecar


def uniform_slide(value=255, n=512):
    return RasterSlide(slide_id="u", pixels=np.full((n, n, 3), value, dtype=np.uint8), mpp=0.5)


class TestComputeForeground:
    def test_white_slide_all_zero(self):
        mask = compute_foreground(uniform_slide(255, 2048))
        assert not mask.bits.any()

    def test_fully_textured_all_one(self):
        rng = np.random.default_rng(1)
        slide = RasterSlide(slide_id="tex", mpp=0.5,
                            pixels=rng.integers(0, 256, size=(1024, 1024, 3)).astype(np.uint8))
        mask = compute_foreground(slide)
        assert mask.bits.all()

    def test_noise_disc_iou(self, disc_slide):
        slide, truth_at = disc_slide
        mask = compute_foreground(slide)
        assert mask_iou(mask.bits, truth_at(8)) >= 0.95

    def test_idempotent_bit_identical(self, disc_slide):
        slide, _ = disc_slide
        a = compute_foreground(slide)
        b = compute_foreground(slide)
        assert np.array_equal(a.bits, b.bits)
        assert (a.width, a.height, a.scale) == (b.width, b.height, b.scale)

    def test_tiny_image_rejected(self):
        with pytest.raises(ForegroundError):
            compute_foreground(uniform_slide(128, 4))

    def test_mask_geometry(self):
        mask = compute_foreground(uniform_slide(255, 520))
        assert (mask.width, mask.height) == (65, 65)
        assert mask.scale == 1.0 / 8.0


def float_block_luminance(pixels, f):
    """The former full-resolution float64 path, kept as the reference:
    per-pixel luminance, edge-replication padding, then an f x f area mean."""
    lum = (0.299 * pixels[:, :, 0].astype(np.float64)
           + 0.587 * pixels[:, :, 1]
           + 0.114 * pixels[:, :, 2])
    lum = np.pad(lum, ((0, (-lum.shape[0]) % f), (0, (-lum.shape[1]) % f)), mode="edge")
    hh, ww = lum.shape
    return lum.reshape(hh // f, f, ww // f, f).mean(axis=(1, 3))


# disc fixtures: (side, radius, seed); 1001 is not a multiple of any downsample
DISCS = [(2048, 800.0, 0), (1001, 350.0, 1), (1536, 500.0, 2), (1024, 300.0, 3)]


class TestBlockLuminance:
    @pytest.mark.parametrize("side,radius,seed", DISCS)
    def test_mask_matches_float_reference(self, side, radius, seed, monkeypatch):
        slide, _ = noisy_disc_slide(n=side, radius=radius, seed=seed)
        small = foreground._block_luminance([slide.pixels], 8)
        np.testing.assert_allclose(small, float_block_luminance(slide.pixels, 8), rtol=1e-12, atol=0)
        bits = compute_foreground(slide).bits
        monkeypatch.setattr(foreground, "_block_luminance",
                            lambda strips, f: float_block_luminance(np.concatenate(list(strips)), f))
        assert np.array_equal(bits, compute_foreground(slide).bits)

    @pytest.fixture(scope="class")
    def odd_disc(self):
        return noisy_disc_slide(n=1203, radius=450.0, seed=4)[0].pixels

    # 16 is the largest f whose block sums (f*f*255) fit uint16; 17 and 300
    # take uint32
    @pytest.mark.parametrize("f", [1, 4, 16, 17, 300])
    @pytest.mark.parametrize("shape", [(1001, 1001), (1001, 777), (640, 1203)])
    def test_odd_sizes_and_downsamples(self, odd_disc, f, shape):
        pixels = odd_disc[: shape[0], : shape[1]].copy()
        pixels[-1] = 255  # saturated edge rows and columns, replicated by the padding
        pixels[:, -1] = 0
        np.testing.assert_allclose(foreground._block_luminance([pixels], f),
                                   float_block_luminance(pixels, f), rtol=1e-12, atol=0)

    # strips of 1, 2 and 5 mask rows; every shape leaves a last strip shorter
    # than one mask row for f > 1
    @pytest.mark.parametrize("f", [1, 4, 16, 17, 300])
    @pytest.mark.parametrize("shape", [(1001, 1001), (1001, 777), (640, 1203)])
    def test_strips_match_the_whole_raster_bytewise(self, odd_disc, f, shape):
        pixels = odd_disc[: shape[0], : shape[1]]
        whole = foreground._block_luminance([pixels], f)
        for blocks in (1, 2, 5):
            rows = blocks * f
            strips = (pixels[r0 : r0 + rows] for r0 in range(0, shape[0], rows))
            small = foreground._block_luminance(strips, f)
            assert small.shape == whole.shape and small.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("f", [1, 8, 17])
    def test_slides_cut_strips_on_mask_rows(self, odd_disc, tmp_path, monkeypatch, f):
        pixels = odd_disc[:1001, :777]
        path = tmp_path / "odd.ppm"
        write_ppm(path, pixels)
        monkeypatch.setattr(pnm, "STRIP_BYTES", 80 << 10)  # 35 rows of 777 pixels
        whole = foreground._block_luminance([pixels], f).tobytes()
        for slide in (RasterSlide("mem", pixels, 0.5), PpmSlide("file", path, 0.5)):
            assert foreground._block_luminance(slide.strips(f), f).tobytes() == whole

    def test_saturated_blocks_do_not_wrap(self):
        for f in (16, 17, 300):
            pixels = np.full((f + 1, 2 * f - 1, 3), 255, dtype=np.uint8)
            np.testing.assert_allclose(foreground._block_luminance([pixels], f),
                                       np.full((2, 2), 255.0), rtol=1e-12, atol=0)

    def test_traced_peak_is_a_fraction_of_the_slide(self, disc_slide):
        from scipy import ndimage  # noqa: F401  (its import is not the mask's cost)

        slide, _ = disc_slide
        tracemalloc.start()
        try:
            compute_foreground(slide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slide.pixels.nbytes / 2, f"peak {peak} of {slide.pixels.nbytes} bytes"

    @pytest.mark.parametrize("f", [0, -8, 8.0])
    def test_bad_downsample_rejected(self, f):
        with pytest.raises(ForegroundError, match="downsample"):
            compute_foreground(uniform_slide(255, 64), FesiParams(downsample=f))


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
        with pytest.raises(ForegroundError):
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
        with pytest.raises(GeometryMismatchError):
            filter_tiles(grid, full_mask(64, 64))

    def test_blob_keeps_tiles_over_blob(self, disc_slide):
        slide, truth_at = disc_slide
        mask = compute_foreground(slide)
        grid = filter_tiles(grid_tiles(slide.width_px, slide.height_px, slide.mpp), mask)
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
        grid = filter_tiles(grid_tiles(slide.width_px, slide.height_px, slide.mpp), mask)
        path = tmp_path / "tiles.tsv"
        write_manifest(grid, path)
        tile_size, rescale, tiles, kept = read_manifest(path)
        assert tile_size == 512 and rescale == 1.0
        assert np.array_equal(tiles, grid.tiles)
        assert np.array_equal(kept, grid.kept)


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(10, 14, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_pgm_round_trip(self, tmp_path):
        img = (np.arange(30, dtype=np.uint8) * 8).reshape(5, 6)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        img = read_ppm(path)
        assert img.shape == (1, 2, 3)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PnmError):
            read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(PnmError):
            read_ppm(path)

    def test_read_owns_writable_pixels(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((3, 5, 3), dtype=np.uint8))
        img = read_ppm(path)
        assert img.flags.owndata and img.flags.writeable and img.flags.c_contiguous
        img[0, 0, 0] = 7  # no read-only buffer underneath

    def test_comment_longer_than_a_page(self, tmp_path):
        path = tmp_path / "long.ppm"
        raster = bytes(range(6))
        path.write_bytes(b"P6\n#" + b"x" * 5000 + b"\n2 # w\n1\n255\n" + raster)
        img = read_ppm(path)
        assert img.shape == (1, 2, 3) and img.tobytes() == raster

    def test_truncated_raster_names_file(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(PnmError, match=r"short\.ppm: raster truncated \(10 of 48 bytes\)"):
            read_ppm(path)

    def test_signed_header_token_rejected(self, tmp_path):
        path = tmp_path / "neg.ppm"
        path.write_bytes(b"P6\n-4 4\n255\n" + bytes(48))
        with pytest.raises(PnmError, match="bad header token"):
            read_ppm(path)

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

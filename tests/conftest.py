import os
from pathlib import Path

import numpy as np
import pytest

from tilscore.foreground import PpmSlide
from tilscore.pnm import write_ppm


def ppm_slide(directory, pixels: np.ndarray, name: str = "slide") -> PpmSlide:
    """`pixels` written to `<directory>/<name>.ppm` and opened as `tile` opens a slide."""
    path = Path(directory) / f"{name}.ppm"
    write_ppm(path, pixels)
    return PpmSlide(path)


def noisy_disc(n=2048, radius=800.0, seed=0):
    """Mid-grey (n, n, 3) pixels with one high-texture noise disc, plus the
    ground-truth disc membership of each mask cell (the generator knows
    where it painted)."""
    rng = np.random.default_rng(seed)
    base = np.full((n, n, 3), 128, dtype=np.uint8)
    yy, xx = np.mgrid[0:n, 0:n]
    disc = (xx - n / 2.0) ** 2 + (yy - n / 2.0) ** 2 <= radius**2
    noise = rng.integers(0, 256, size=(n, n, 3)).astype(np.uint8)
    pixels = np.where(disc[..., None], noise, base)

    def truth_at_scale(factor: int) -> np.ndarray:
        mh = int(np.ceil(n / factor))
        mw = int(np.ceil(n / factor))
        cy, cx = np.mgrid[0:mh, 0:mw]
        return ((cx + 0.5) * factor - n / 2.0) ** 2 + ((cy + 0.5) * factor - n / 2.0) ** 2 <= radius**2

    return pixels, truth_at_scale


def noisy_disc_slide(directory, **disc):
    """The `noisy_disc` pixels as a PPM slide in `directory`, and their truth."""
    pixels, truth_at_scale = noisy_disc(**disc)
    return ppm_slide(directory, pixels, "disc"), truth_at_scale


def read_manifest(path) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Parse a `write_manifest` tile list: (tile_size, rescale, tiles, kept)."""
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("tile_size\t") and lines[1].startswith("rescale\t"), lines[:2]
    tile_size = int(lines[0].split("\t")[1])
    rescale = float(lines[1].split("\t")[1])
    rows = [tuple(int(v) for v in line.split("\t")) for line in lines[2:] if line]
    tiles = np.array([(x, y) for x, y, _ in rows], dtype=np.int64).reshape(len(rows), 2)
    kept = np.array([bool(k) for _, _, k in rows], dtype=bool)
    return tile_size, rescale, tiles, kept


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    union = np.logical_or(a, b).sum()
    return float(np.logical_and(a, b).sum() / union) if union else 1.0


@pytest.fixture
def eight_cpus(monkeypatch):
    """The process may run on eight CPUs, whatever the host has, so masking
    runs its largest number of workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.fixture
def disc_slide(tmp_path):
    return noisy_disc_slide(tmp_path)

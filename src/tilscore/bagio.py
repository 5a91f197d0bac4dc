"""Feature-bag and clinical-table I/O, plus a synthetic cohort generator.

A "bag" is one slide's worth of per-tile feature vectors with their tile
coordinates.  Bags are stored in a fixed little-endian binary layout
(magic "ECTB") so files are byte-identical across platforms; features are
f32 on disk while model arithmetic runs in f64.  `read_bag` is a one-copy
read: it `readinto`s the coordinates and features straight into the arrays
it returns, after checking their declared size against the bytes left.
A `BagFile` keeps a scanned bag in its file and reads its features again
each time they are asked for.

The clinical and predictions CSVs are UTF-8 text read by one positional
`csv.reader` loop, `_csv_table`, whose errors name the file and its line.

The synthetic generator plants a latent per-tile density d in [0, 1],
embeds (d, noise) through a fixed random linear map, and labels the slide
with exactly mean(d) * 100.  That makes slide labels recoverable from
features by construction, which is what the training-recovery tests lean on.
The module constants fix its distribution: uniform slide means, Beta tile
densities around them, a TILE_SIZE_PX grid at TARGET_MPP and, with `survival`,
exponential event times under a log-linear hazard, censored uniformly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import TilscoreError, check_rules

BAG_MAGIC = b"ECTB"
BAG_VERSION = 1


@dataclass
class FeatureBag:
    """One slide: tile coordinates plus an n_tiles x dim feature matrix."""

    slide_id: str
    features: np.ndarray  # (n_tiles, dim) float32
    tile_xy: np.ndarray  # (n_tiles, 2) source-pixel top-left coords
    mpp: float
    tile_size_px: int = 512

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        xy = np.asarray(self.tile_xy)
        if xy.size and (np.any(xy < 0) or np.any(xy > 0xFFFFFFFF)):
            raise TilscoreError("tile coordinates must fit in unsigned 32-bit")
        self.tile_xy = np.ascontiguousarray(xy, dtype=np.uint32)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise TilscoreError("features must be a non-empty 2-d matrix")
        if self.tile_xy.shape != (self.features.shape[0], 2):
            raise TilscoreError("tile_xy must be (n_tiles, 2)")
        if not np.isfinite(self.features).all():
            raise TilscoreError(f"bag {self.slide_id!r} contains non-finite features")
        if not self.mpp > 0:
            raise TilscoreError("mpp must be positive")

    @property
    def n_tiles(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def write_bag(bag: FeatureBag, path) -> None:
    """Write one bag to the file `path`; byte-deterministic for equal inputs."""
    sid = bag.slide_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BAG_MAGIC)
        fh.write(struct.pack("<HH", BAG_VERSION, len(sid)))
        fh.write(sid)
        fh.write(struct.pack("<IIIf", bag.n_tiles, bag.dim, bag.tile_size_px, bag.mpp))
        # no-copy casts of the arrays FeatureBag already holds, written from
        # their buffers
        fh.write(memoryview(np.ascontiguousarray(bag.tile_xy, dtype="<u4")))
        fh.write(memoryview(np.ascontiguousarray(bag.features, dtype="<f4")))


def _truncated(what: str, want: int, got: int) -> TilscoreError:
    return TilscoreError(f"stream ended inside {what} (wanted {want} bytes, got {got})")


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise _truncated(what, n, len(data))
    return data


def _read_array(fh, shape: tuple[int, int], dtype: str, what: str) -> np.ndarray:
    arr = np.empty(shape, dtype=dtype)
    got = fh.readinto(arr)
    if got != arr.nbytes:  # the file shrank after its size was checked
        raise _truncated(what, arr.nbytes, got)
    return arr


def read_bag(path, expect_dim: int | None = None) -> FeatureBag:
    """Parse the file `path`, which must hold exactly one bag; with
    `expect_dim`, a differing feature width is an error.  Every format error
    starts with the path, so a bad file among many is named.

    The declared size is checked against the file size before anything is
    allocated for it.  Coordinates and features are each read straight into
    their own new array, so reading a bag holds one copy of its bytes.
    """
    with open(path, "rb") as fh:
        try:
            return _parse_bag(fh, expect_dim)
        except TilscoreError as exc:  # every format error names the file
            raise TilscoreError(f"{path}: {exc}") from None


def _parse_bag(fh, expect_dim: int | None) -> FeatureBag:
    magic = _read_exact(fh, 4, "magic")
    if magic != BAG_MAGIC:
        raise TilscoreError(f"bad magic {magic!r}")
    version, id_len = struct.unpack("<HH", _read_exact(fh, 4, "header"))
    if version != BAG_VERSION:
        raise TilscoreError(f"unsupported bag version {version}")
    try:
        slide_id = _read_exact(fh, id_len, "slide id").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TilscoreError(f"slide id is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    n_tiles, dim, tile_size, mpp = struct.unpack("<IIIf", _read_exact(fh, 16, "shape header"))
    if n_tiles < 1 or dim < 1:
        raise TilscoreError(f"invalid bag shape {n_tiles}x{dim}")
    if expect_dim is not None and dim != expect_dim:
        raise TilscoreError(f"bag {slide_id!r} has dim {dim}, expected {expect_dim}")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    for what, want in (("tile coords", 8 * n_tiles), ("features", 4 * n_tiles * dim)):
        if left < want:
            raise _truncated(what, want, left)
        left -= want
    if left:
        raise TilscoreError("trailing bytes after bag")
    xy = _read_array(fh, (n_tiles, 2), "<u4", "tile coords")
    feats = _read_array(fh, (n_tiles, dim), "<f4", "features")
    return FeatureBag(slide_id=slide_id, features=feats, tile_xy=xy,
                      mpp=float(mpp), tile_size_px=int(tile_size))


@dataclass(frozen=True)
class BagFile:
    """A bag left in its file: the id and shape that one validating
    `read_bag` found when the file was scanned.  `features` reads the file
    again, so only the caller's current bag is held in memory."""

    path: Path
    slide_id: str
    n_tiles: int
    dim: int

    @classmethod
    def scan(cls, path) -> "BagFile":
        bag = read_bag(path)
        return cls(Path(path), bag.slide_id, bag.n_tiles, bag.dim)

    @property
    def features(self) -> np.ndarray:
        bag = read_bag(self.path)
        if (bag.slide_id, bag.n_tiles, bag.dim) != (self.slide_id, self.n_tiles, self.dim):
            raise TilscoreError(
                f"{self.path} changed since it was scanned: it holds {bag.slide_id!r} "
                f"{bag.n_tiles}x{bag.dim}, not {self.slide_id!r} {self.n_tiles}x{self.dim}")
        return bag.features


# ---------------------------------------------------------------------------
# Clinical records
# ---------------------------------------------------------------------------

RESERVED_COLUMNS = ("slide_id", "til_score_pct", "cohort", "centre", "til_score_pct_2", "os_months",
                    "os_event")


@dataclass
class SlideRecord:
    slide_id: str
    cohort: str = ""
    centre: str = ""
    til_score_pct: float = 0.0
    covariates: dict = field(default_factory=dict)
    os_months: float | None = None
    os_event: int | None = None


def _parse_covariate(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def _check_repeat(line_of: dict, sid: str, lineno: int) -> None:
    first = line_of.setdefault(sid, lineno)
    if first != lineno:
        raise TilscoreError(f"slide_id {sid!r} repeats on lines {first} and {lineno}")


def _number(raw, lineno: int, column: str, kind=float):
    """`kind(raw)` for one CSV cell; a cell that is not one names its line and column."""
    try:
        return kind(raw)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise TilscoreError(f"line {lineno}: {column} {raw!r} is not {what}") from None


def _rows(reader, width: int, i_sid: int, i_score: int, score_col: str):
    """(physical line, stripped slide id, `score_col` number, row) for each
    non-blank row, read as `csv.DictReader` reads it under a header of
    `width` names: extra cells dropped, absent ones empty, and one more
    empty cell for a column the header lacks to read at -1."""
    line_of = {}
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            row = row[:width] + [""] * (width - len(row))
        row.append("")
        lineno = reader.line_num
        sid = row[i_sid].strip()
        if not sid:
            raise TilscoreError(f"line {lineno}: empty slide_id")
        _check_repeat(line_of, sid, lineno)
        raw_score = row[i_score].strip()
        if not raw_score:
            raise TilscoreError(f"line {lineno}: missing {score_col}")
        yield lineno, sid, _number(raw_score, lineno, score_col), row


@contextmanager
def _csv_table(path, score_col: str, missing: str):
    """Each header name's cell index and the `_rows` of the UTF-8 CSV `path`;
    `missing.format(column)` is the error for a header without `slide_id` or
    `score_col`.  Every error in the `with` block, the caller's too, names the path."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: skip a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
            for col in ("slide_id", score_col):
                if col not in header:
                    raise TilscoreError(missing.format(col))
            # a repeated name reads its last cell and keeps its first place, as in csv.DictReader
            index = {name: i for i, name in enumerate(header)}
            yield index, _rows(reader, len(header), index["slide_id"], index[score_col], score_col)
        except (TilscoreError, csv.Error) as exc:  # csv.Error: a cell over csv's size limit
            raise TilscoreError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:  # exc.start counts from the chunk being decoded
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise TilscoreError(f"{path}: not UTF-8 text ({exc.reason} at byte {at})") from None


def load_clinical(path) -> list[SlideRecord]:
    """Read the clinical CSV schema into typed records.

    When two pathologist score columns are present, the record stores their
    mean.  Unknown columns become covariates in header order (numeric when
    parseable, verbatim strings otherwise); empty cells are missing values.
    A slide id may appear on one line only.  The table reads as
    `csv.DictReader` reads it: a repeated column name reads its last
    occurrence, a short row's missing cells are empty, extra cells are
    ignored and blank lines are skipped.  Errors name the path and the
    file's physical line, blank lines included.
    """
    with _csv_table(path, "til_score_pct", "missing mandatory column {!r}") as (index, rows):
        i_second, i_months, i_event, i_cohort, i_centre = (index.get(col, -1) for col in (
            "til_score_pct_2", "os_months", "os_event", "cohort", "centre"))
        covariate_cols = [(key, i) for key, i in index.items() if key not in RESERVED_COLUMNS]
        # covariate cells repeat down a column (a grade, a histology), so
        # each distinct cell is parsed once
        parsed: dict[str, float | str] = {}
        records = []
        for lineno, sid, score, row in rows:
            if row[i_second].strip():
                score = (score + _number(row[i_second], lineno, "til_score_pct_2")) / 2.0
            if not 0.0 <= score <= 100.0:
                raise TilscoreError(f"line {lineno}: til_score_pct {score} outside [0, 100]")
            raw_months = row[i_months].strip()
            raw_event = row[i_event].strip()
            if bool(raw_months) != bool(raw_event):
                raise TilscoreError(f"line {lineno}: os_months and os_event must both be present or both absent")
            os_months = _number(raw_months, lineno, "os_months") if raw_months else None
            if os_months is not None and not math.isfinite(os_months):
                raise TilscoreError(f"line {lineno}: os_months {raw_months!r} is not finite")
            if os_months is not None and os_months <= 0.0:
                raise TilscoreError(f"line {lineno}: os_months {raw_months!r} is not positive")
            os_event = _number(raw_event, lineno, "os_event", int) if raw_event else None
            if os_event not in (None, 0, 1):
                raise TilscoreError(f"line {lineno}: os_event must be 0 or 1")
            covariates = {}
            for key, i in covariate_cols:
                val = row[i].strip()
                if val:
                    value = parsed.get(val)
                    if value is None:
                        value = parsed[val] = _parse_covariate(val)
                    covariates[key] = value
                    if isinstance(value, float) and not math.isfinite(value):
                        raise TilscoreError(
                            f"line {lineno}: covariate {key!r} value {val!r} is not finite")
            records.append(SlideRecord(
                slide_id=sid,
                cohort=row[i_cohort].strip(),
                centre=row[i_centre].strip(),
                til_score_pct=score,
                covariates=covariates,
                os_months=os_months,
                os_event=os_event,
            ))
    return records


def write_table(path, rows, delimiter: str = ",") -> None:
    """Write the rows, header included, to the file `path` through `csv.writer`:
    UTF-8, quoted as `csv.writer` quotes, every line ended by CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter=delimiter).writerows(rows)


def write_json(path, obj, sort_keys: bool = True) -> None:
    """Write `obj` to the file `path` as indented, ASCII-escaped JSON and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def read_json(path):
    """The JSON document in the UTF-8 file `path`; a file that is not UTF-8,
    or not JSON, raises a TilscoreError that starts with the path."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TilscoreError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer over int's digit limit
        raise TilscoreError(f"{path}: {exc}") from None


def write_clinical(records: list[SlideRecord], path) -> None:
    cov_cols = sorted({k for r in records for k in r.covariates})
    has_surv = any(r.os_months is not None for r in records)
    header = ["slide_id", "cohort", "centre", "til_score_pct"]
    if has_surv:
        header += ["os_months", "os_event"]
    rows = [header + cov_cols]
    for r in records:
        row = [r.slide_id, r.cohort, r.centre, repr(float(r.til_score_pct))]
        if has_surv:
            row += ["" if r.os_months is None else repr(float(r.os_months)),
                    "" if r.os_event is None else str(r.os_event)]
        rows.append(row + [str(r.covariates.get(c, "")) for c in cov_cols])
    write_table(path, rows)


def write_predictions(pairs: list[tuple[str, float]], path) -> None:
    write_table(path, [["slide_id", "ectil_score"],
                       *([sid, repr(float(score))] for sid, score in pairs)])


def read_predictions(path) -> dict[str, float]:
    """Each slide id's score in [0, 1], read as `load_clinical` reads its
    table; a short row's absent score cell is missing, like an empty one."""
    out = {}
    with _csv_table(path, "ectil_score",
                    "predictions CSV needs slide_id and ectil_score columns") as (_, rows):
        for lineno, sid, score, _ in rows:
            if not 0.0 <= score <= 1.0:
                raise TilscoreError(f"line {lineno}: ectil_score {score} outside [0, 1]")
            out[sid] = score
    return out


# ---------------------------------------------------------------------------
# Synthetic cohorts
# ---------------------------------------------------------------------------


SLIDE_MEAN_LO = 0.05
SLIDE_MEAN_HI = 0.95
DENSITY_CONCENTRATION = 8.0
TILE_SIZE_PX = 512
TARGET_MPP = 0.5  # the resolution of `tile`'s grid, and of the synthetic bags
SURV_BASE_HAZARD = 0.02
SURV_BETA_PER_UNIT = -0.15  # per 10 TIL percentage points
SURV_CENSOR_LO = 24.0
SURV_CENSOR_HI = 120.0
# Ceiling of one bag's float64 features, `latent @ embed` in `synth_cohort`:
# the recovery test's 2000 x 2048 takes 32 MB; a size past this is a typo.
# It also keeps tile coordinates in uint32: at most 2^27 tiles sit on a grid
# of ceil(sqrt(n_tiles)) <= 2^14 columns and rows of 512 px.
MAX_BAG_BYTES = 1 << 30


@dataclass
class SynthConfig:
    """Seeded cohort recipe; output is a pure function of this config."""

    n_slides: int = 50
    tiles_min: int = 20
    tiles_max: int = 60
    dim: int = 2048
    seed: int = 0
    noise_dim: int = 8
    noise_sigma: float = 0.3
    n_centres: int = 5
    n_cohorts: int = 5
    survival: bool = False

    def validate(self) -> None:
        """Raise TilscoreError naming the first field out of its range."""
        bag_tiles = MAX_BAG_BYTES // (8 * max(self.dim, 1))
        check_rules(self, [
            *((name, "at least 1", getattr(self, name) >= 1)
              for name in ("n_slides", "dim", "n_centres", "n_cohorts")),
            ("tiles_min", "at least 1 and at most tiles_max",
             1 <= self.tiles_min <= self.tiles_max),
            ("tiles_max", f"at most {bag_tiles} at dim {self.dim}, so one bag's float64 features "
             f"stay under the {MAX_BAG_BYTES >> 30} GiB ceiling", self.tiles_max <= bag_tiles),
            *((name, "at least 0", getattr(self, name) >= 0) for name in ("noise_dim", "seed")),
            # far above any useful value, and float32 features stay finite
            ("noise_sigma", "in [0, 1e6]", 0.0 <= self.noise_sigma <= 1e6)])


def synth_cohort(cfg: SynthConfig) -> tuple[list[FeatureBag], list[SlideRecord]]:
    """Generate bags plus matching clinical records.

    Each tile carries a latent density d ~ Beta centred on its slide's mean;
    the slide label is exactly mean(d) * 100 and features are the linear
    embedding of (d, noise), so a linear readout of the features recovers
    the label up to noise.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    embed = rng.normal(size=(1 + cfg.noise_dim, cfg.dim)) / np.sqrt(1 + cfg.noise_dim)
    bags, records = [], []
    for i in range(cfg.n_slides):
        n_tiles = int(rng.integers(cfg.tiles_min, cfg.tiles_max + 1))
        mu = float(rng.uniform(SLIDE_MEAN_LO, SLIDE_MEAN_HI))
        c = DENSITY_CONCENTRATION
        density = rng.beta(c * mu, c * (1.0 - mu), size=n_tiles)
        noise = rng.normal(0.0, cfg.noise_sigma, size=(n_tiles, cfg.noise_dim))
        latent = np.column_stack([density, noise])
        features = (latent @ embed).astype(np.float32)
        ncols = int(np.ceil(np.sqrt(n_tiles)))
        ks = np.arange(n_tiles)
        xy = np.column_stack([(ks % ncols) * TILE_SIZE_PX, (ks // ncols) * TILE_SIZE_PX])
        sid = f"synth{i:04d}"
        bags.append(FeatureBag(slide_id=sid, features=features, tile_xy=xy,
                               mpp=TARGET_MPP, tile_size_px=TILE_SIZE_PX))
        label = float(density.mean()) * 100.0
        rec = SlideRecord(
            slide_id=sid,
            cohort=f"cohort{i % cfg.n_cohorts}",
            centre=f"centre{i % cfg.n_centres}",
            til_score_pct=label,
        )
        if cfg.survival:
            hazard = SURV_BASE_HAZARD * np.exp(SURV_BETA_PER_UNIT * (label / 10.0))
            t_event = float(rng.exponential(1.0 / hazard))
            t_cens = float(rng.uniform(SURV_CENSOR_LO, SURV_CENSOR_HI))
            rec.os_event = int(t_event <= t_cens)
            rec.os_months = max(round(min(t_event, t_cens), 4), 0.001)
        records.append(rec)
    return bags, records

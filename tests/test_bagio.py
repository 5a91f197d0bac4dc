import csv
import hashlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raises_error
import tilscore
from tilscore import TilscoreError
from tilscore.bagio import (
    RESERVED_COLUMNS,
    BagFile,
    FeatureBag,
    SlideRecord,
    SynthConfig,
    load_clinical,
    read_bag,
    read_predictions,
    synth_cohort,
    write_bag,
    write_clinical,
    write_json,
    write_predictions,
    write_table,
)

GOLDEN_BAG_SHA256 = "20e526f1ed31952d6dd8596d35d7bf83bc4940c454202c3499331798c292ebf5"
GOLDEN_BAG_BYTES = 428


def golden_bag() -> FeatureBag:
    k, d = 7, 12
    i, j = np.meshgrid(np.arange(k), np.arange(d), indexing="ij")
    feats = np.sin(0.7 * i + 0.3 * j).astype(np.float32)
    xy = np.column_stack([np.arange(k) * 512, np.arange(k) * 1024]).astype(np.uint32)
    return FeatureBag(slide_id="golden-slide", features=feats, tile_xy=xy, mpp=0.5)


def tiny_bag() -> FeatureBag:
    return FeatureBag(
        slide_id="s1",
        features=np.array([[0.25, -1.5, 3.0, 0.0]], dtype=np.float32),
        tile_xy=np.array([[0, 512]]),
        mpp=0.5,
    )


def raises_in(path, message: str):
    """pytest.raises for the TilscoreError `{path}: {message}`, the whole message."""
    return raises_error(f"{path}: {message}")


def bag_file(bag: FeatureBag, directory, name: str = "bag.bag"):
    path = directory / name
    write_bag(bag, path)
    return path


class TestBagFormat:
    def test_single_tile_round_trip(self, tmp_path):
        bag = tiny_bag()
        out = read_bag(bag_file(bag, tmp_path))
        assert out.slide_id == bag.slide_id
        assert out.mpp == bag.mpp
        assert out.tile_size_px == bag.tile_size_px
        assert np.array_equal(out.features, bag.features)
        assert np.array_equal(out.tile_xy, bag.tile_xy)

    def test_write_is_byte_deterministic(self, tmp_path):
        a = bag_file(golden_bag(), tmp_path, "a.bag")
        b = bag_file(golden_bag(), tmp_path, "b.bag")
        assert a.read_bytes() == b.read_bytes()

    def test_golden_hash_pinned(self, tmp_path):
        data = bag_file(golden_bag(), tmp_path).read_bytes()
        assert len(data) == GOLDEN_BAG_BYTES
        assert hashlib.sha256(data).hexdigest() == GOLDEN_BAG_SHA256

    def test_bad_magic(self, tmp_path):
        path = bag_file(tiny_bag(), tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with raises_in(path, "bad magic b'NOPE'"):
            read_bag(path)

    def test_truncated(self, tmp_path):
        path = bag_file(tiny_bag(), tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        with raises_in(path, "stream ended inside features (wanted 16 bytes, got 13)"):
            read_bag(path)

    def test_dim_mismatch(self, tmp_path):
        path = bag_file(tiny_bag(), tmp_path)
        with raises_in(path, "bag 's1' has dim 4, expected 2048"):
            read_bag(path, expect_dim=2048)

    def test_trailing_bytes_via_path(self, tmp_path):
        path = tmp_path / "bag.bin"
        write_bag(tiny_bag(), path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with raises_in(path, "trailing bytes after bag"):
            read_bag(path)

    def test_non_utf8_slide_id_is_a_format_error(self, tmp_path):
        path = bag_file(tiny_bag(), tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:8] + b"\xff" + data[9:])
        with raises_in(path, "slide id is not UTF-8 (invalid start byte at byte 0)"):
            read_bag(path)

    def test_path_round_trip(self, tmp_path):
        path = tmp_path / "bag.bin"
        write_bag(golden_bag(), path)
        out = read_bag(path)
        assert np.array_equal(out.features, golden_bag().features)

    @settings(max_examples=30, deadline=None)
    @given(
        n_tiles=st.integers(1, 12),
        dim=st.integers(1, 16),
        seed=st.integers(0, 2**31),
        slide_id=st.text(min_size=0, max_size=20),
    )
    def test_round_trip_identity_property(self, tmp_path_factory, n_tiles, dim, seed, slide_id):
        rng = np.random.default_rng(seed)
        bag = FeatureBag(
            slide_id=slide_id,
            features=rng.normal(size=(n_tiles, dim)).astype(np.float32),
            tile_xy=rng.integers(0, 10_000, size=(n_tiles, 2)),
            mpp=0.25,
            tile_size_px=512,
        )
        out = read_bag(bag_file(bag, tmp_path_factory.getbasetemp()))
        assert out.slide_id == bag.slide_id
        assert np.array_equal(out.features, bag.features)
        assert np.array_equal(out.tile_xy, bag.tile_xy)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureBag(slide_id="bad", features=np.array([[np.nan]], dtype=np.float32),
                       tile_xy=np.array([[0, 0]]), mpp=0.5)

    def test_negative_tile_coords_rejected(self):
        with pytest.raises(ValueError, match="unsigned"):
            FeatureBag(slide_id="bad", features=np.ones((1, 2), dtype=np.float32),
                       tile_xy=np.array([[-1, 0]]), mpp=0.5)


def wide_bag(n_tiles=1000, dim=2048) -> FeatureBag:
    rng = np.random.default_rng(3)
    return FeatureBag(slide_id="wide", features=rng.standard_normal((n_tiles, dim), dtype=np.float32),
                      tile_xy=rng.integers(0, 50_000, size=(n_tiles, 2)), mpp=0.5)


class TestOneCopyRead:
    def test_traced_peak_is_one_copy(self, tmp_path):
        bag = wide_bag()
        path = tmp_path / "wide.bag"
        write_bag(bag, path)
        tracemalloc.start()
        try:
            read_bag(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the arrays themselves plus the isfinite mask (a quarter of the features)
        assert peak <= 1.3 * bag.features.nbytes, f"peak {peak} of {bag.features.nbytes} bytes"

    def test_write_holds_no_copy_of_the_features(self, tmp_path):
        bag = wide_bag()
        tracemalloc.start()
        try:
            write_bag(bag, tmp_path / "wide.bag")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * bag.features.nbytes, f"peak {peak} of {bag.features.nbytes} bytes"

    def test_arrays_are_owned_and_writeable(self, tmp_path):
        path = tmp_path / "g.bag"
        write_bag(golden_bag(), path)
        out = read_bag(path)
        assert out.features.dtype == np.float32 and out.tile_xy.dtype == np.uint32
        for arr in (out.features, out.tile_xy):
            assert arr.flags.owndata and arr.flags.writeable
        out.features[0, 0] = 7.0

    @staticmethod
    def _header(n_tiles, dim, sid=b"huge"):
        return (b"ECTB" + struct.pack("<HH", 1, len(sid)) + sid
                + struct.pack("<IIIf", n_tiles, dim, 512, 0.5))

    def test_huge_declared_shape_is_truncation(self, tmp_path):
        data = self._header(2**32 - 1, 2**32 - 1) + b"\0" * 100
        path = tmp_path / "huge.bag"
        path.write_bytes(data)
        with raises_in(path, "stream ended inside tile coords "
                             "(wanted 34359738360 bytes, got 100)"):
            read_bag(path)

    def test_declared_size_checked_before_allocating(self, tmp_path):
        # 64 tiles whose features would take 1 GiB; only the coordinates are there
        path = tmp_path / "short.bag"
        path.write_bytes(self._header(64, 2**22) + b"\0" * (8 * 64 + 12))
        tracemalloc.start()
        try:
            with raises_in(path, "stream ended inside features "
                                 "(wanted 1073741824 bytes, got 12)"):
                read_bag(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes"

    @pytest.mark.parametrize("cut, what", [(-4 * 12 * 7 - 3, "tile coords"), (-5, "features")])
    def test_truncation_names_the_part(self, tmp_path, cut, what):
        path = tmp_path / "cut.bag"
        path.write_bytes(bag_file(golden_bag(), tmp_path).read_bytes()[:cut])
        sizes = {"tile coords": "56 bytes, got 53", "features": "336 bytes, got 331"}[what]
        with raises_in(path, f"stream ended inside {what} (wanted {sizes})"):
            read_bag(path)


class TestBagFile:
    def test_scan_keeps_the_shape_and_features_read_the_file(self, tmp_path):
        path = bag_file(golden_bag(), tmp_path)
        scanned = BagFile.scan(path)
        assert (scanned.path, scanned.slide_id, scanned.n_tiles, scanned.dim) == (
            path, "golden-slide", 7, 12)
        assert np.array_equal(scanned.features, golden_bag().features)
        assert scanned.features is not scanned.features  # read again each time

    @pytest.mark.parametrize("change", [{"slide_id": "other"}, {"n_tiles": 6}, {"dim": 11}])
    def test_a_file_changed_since_the_scan_is_named(self, tmp_path, change):
        path = bag_file(golden_bag(), tmp_path)
        scanned = BagFile.scan(path)
        bag = golden_bag()
        sid = change.get("slide_id", bag.slide_id)
        k, d = change.get("n_tiles", 7), change.get("dim", 12)
        write_bag(FeatureBag(slide_id=sid, features=bag.features[:k, :d], tile_xy=bag.tile_xy[:k],
                             mpp=0.5), path)
        message = (f"{path} changed since it was scanned: it holds {sid!r} {k}x{d}, "
                   "not 'golden-slide' 7x12")
        with raises_error(message):
            scanned.features


class TestSynthCohort:
    def test_determinism(self):
        cfg = SynthConfig(n_slides=4, tiles_min=3, tiles_max=8, dim=24, seed=42)
        bags_a, recs_a = synth_cohort(cfg)
        bags_b, recs_b = synth_cohort(cfg)
        for a, b in zip(bags_a, bags_b):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.tile_xy, b.tile_xy)
        assert [r.til_score_pct for r in recs_a] == [r.til_score_pct for r in recs_b]

    def test_different_seeds_differ(self):
        cfg_a = SynthConfig(n_slides=2, tiles_min=3, tiles_max=3, dim=8, seed=1)
        cfg_b = SynthConfig(n_slides=2, tiles_min=3, tiles_max=3, dim=8, seed=2)
        a, _ = synth_cohort(cfg_a)
        b, _ = synth_cohort(cfg_b)
        assert not np.array_equal(a[0].features, b[0].features)

    def test_labels_in_range_and_groups_assigned(self):
        cfg = SynthConfig(n_slides=12, tiles_min=2, tiles_max=4, dim=8, seed=3,
                          n_centres=3, n_cohorts=2)
        _, records = synth_cohort(cfg)
        assert all(0.0 <= r.til_score_pct <= 100.0 for r in records)
        assert {r.centre for r in records} == {"centre0", "centre1", "centre2"}
        assert {r.cohort for r in records} == {"cohort0", "cohort1"}

    def test_survival_fields(self):
        cfg = SynthConfig(n_slides=30, tiles_min=2, tiles_max=3, dim=8, seed=5, survival=True)
        _, records = synth_cohort(cfg)
        assert all(r.os_months is not None and r.os_months > 0 for r in records)
        assert all(r.os_event in (0, 1) for r in records)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            synth_cohort(SynthConfig(n_slides=0))


def csv_file(directory, text: str):
    path = directory / "table.csv"
    path.write_text(text)
    return path


class TestClinicalCsv:
    def test_basic_round_trip(self, tmp_path):
        from tilscore.bagio import SlideRecord

        records = [
            SlideRecord(slide_id="a", cohort="c1", centre="m1", til_score_pct=12.5,
                        covariates={"grade": "3"}, os_months=24.0, os_event=1),
            SlideRecord(slide_id="b", cohort="c2", centre="m2", til_score_pct=40.0,
                        covariates={"grade": "1or2"}, os_months=60.0, os_event=0),
        ]
        path = tmp_path / "clinical.csv"
        write_clinical(records, path)
        out = load_clinical(path)
        assert len(out) == 2
        assert out[0].til_score_pct == 12.5
        assert out[0].os_months == 24.0 and out[0].os_event == 1
        assert out[1].covariates["grade"] == "1or2"

    def test_missing_mandatory_column_named(self, tmp_path):
        path = csv_file(tmp_path, "slide_id,cohort\na,c\n")
        with raises_in(path, "missing mandatory column 'til_score_pct'"):
            load_clinical(path)

    def test_range_error(self, tmp_path):
        path = csv_file(tmp_path, "slide_id,til_score_pct\na,101\n")
        with raises_in(path, "line 2: til_score_pct 101.0 outside [0, 100]"):
            load_clinical(path)

    def test_two_scorer_mean(self, tmp_path):
        csv_text = "slide_id,til_score_pct,til_score_pct_2\na,20,30\nb,15,\n"
        out = load_clinical(csv_file(tmp_path, csv_text))
        assert out[0].til_score_pct == 25.0
        assert out[1].til_score_pct == 15.0

    def test_survival_pairing_enforced(self, tmp_path):
        path = csv_file(tmp_path, "slide_id,til_score_pct,os_months,os_event\na,10,12.0,\n")
        with raises_in(path, "line 2: os_months and os_event must both be present or both absent"):
            load_clinical(path)

    def test_covariates_typed_and_missing_explicit(self, tmp_path):
        csv_text = "slide_id,til_score_pct,age,histology\na,10,52.5,ILC\nb,20,,BC NST\n"
        out = load_clinical(csv_file(tmp_path, csv_text))
        assert out[0].covariates == {"age": 52.5, "histology": "ILC"}
        assert "age" not in out[1].covariates
        assert out[1].covariates["histology"] == "BC NST"

    def test_repeated_slide_id_names_id_and_lines(self, tmp_path):
        path = csv_file(tmp_path, "slide_id,til_score_pct\na,10\nb,20\na,30\n")
        with raises_in(path, "slide_id 'a' repeats on lines 2 and 4"):
            load_clinical(path)

    @pytest.mark.parametrize("months", ["nan", "inf", "-inf"])
    def test_non_finite_os_months_names_line(self, tmp_path, months):
        csv_text = f"slide_id,til_score_pct,os_months,os_event\na,10,12.0,1\nb,20,{months},0\n"
        path = csv_file(tmp_path, csv_text)
        with raises_in(path, f"line 3: os_months '{months}' is not finite"):
            load_clinical(path)


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions([("a", 0.25), ("b", 0.75)], path)
        out = read_predictions(path)
        assert out == {"a": 0.25, "b": 0.75}

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("slide_id,ectil_score\na,1.5\n")
        with raises_in(path, "line 2: ectil_score 1.5 outside [0, 1]"):
            read_predictions(path)

    def test_repeated_slide_id_names_id_and_lines(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("slide_id,ectil_score\na,0.1\nb,0.2\na,0.3\n")
        with raises_in(path, "slide_id 'a' repeats on lines 2 and 4"):
            read_predictions(path)

    def test_short_row_names_line_and_column(self, tmp_path):
        path = tmp_path / "preds.csv"
        for row in ("b", "b, "):  # a short row, an empty score cell
            path.write_text(f"slide_id,ectil_score\na,0.5\n{row}\n")
            with raises_in(path, "line 3: missing ectil_score"):
                read_predictions(path)

    def test_ids_are_stripped(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("slide_id,ectil_score\n s1 ,0.5\ns2\t,0.25\n")
        assert read_predictions(path) == {"s1": 0.5, "s2": 0.25}
        clinical = csv_file(tmp_path, "slide_id,til_score_pct\ns1,10\n")
        assert [r.slide_id for r in load_clinical(clinical)] == list(read_predictions(path))[:1]

    @pytest.mark.parametrize("text, line", [("a,0.5\n,0.25\n", 3), ("  ,0.5\n", 2)])
    def test_empty_id_names_line(self, tmp_path, text, line):
        path = tmp_path / "preds.csv"
        path.write_text("slide_id,ectil_score\n" + text)
        with raises_in(path, f"line {line}: empty slide_id"):
            read_predictions(path)

    def test_stripped_ids_repeat(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("slide_id,ectil_score\na,0.1\n a,0.3\n")
        with raises_in(path, "slide_id 'a' repeats on lines 2 and 3"):
            read_predictions(path)


class TestPhysicalLines:
    """Errors name the line of the file, counting blank lines and the lines
    of a quoted cell that spans several."""

    @pytest.mark.parametrize("loader, header, bad", [
        (load_clinical, "slide_id,til_score_pct", "s2,abc"),
        (read_predictions, "slide_id,ectil_score", "s2,abc"),
    ])
    def test_bad_cell_after_a_blank_line(self, tmp_path, loader, header, bad):
        path = csv_file(tmp_path, f"{header}\ns1,0.1\n\n{bad}\n")
        with raises_in(path, f"line 4: {header.split(',')[1]} 'abc' is not a number"):
            loader(path)

    @pytest.mark.parametrize("loader, header", [
        (load_clinical, "slide_id,til_score_pct"),
        (read_predictions, "slide_id,ectil_score"),
    ])
    def test_repeat_after_blank_lines(self, tmp_path, loader, header):
        path = csv_file(tmp_path, f"{header}\n\na,0.1\n\n\na,0.2\n")
        with raises_in(path, "slide_id 'a' repeats on lines 3 and 6"):
            loader(path)

    def test_quoted_cell_over_two_lines(self, tmp_path):
        path = csv_file(tmp_path, 'slide_id,til_score_pct,note\na,10,"two\nlines"\nb,x,\n')
        with raises_in(path, "line 4: til_score_pct 'x' is not a number"):
            load_clinical(path)


class TestCsvFiles:
    """Both CSVs are UTF-8 text, and every error starts with the file's path."""

    @pytest.mark.parametrize("loader, text", [
        (load_clinical, "slide_id,til_score_pct,grade\nsé,10,G1\nb,20,\n"),
        (read_predictions, "slide_id,ectil_score\nsé,0.1\nb,0.2\n"),
    ], ids=["clinical", "predictions"])
    def test_byte_order_mark_is_skipped(self, tmp_path, loader, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))  # as Excel's "CSV UTF-8" writes it
        assert loader(marked) == loader(plain)

    # a bad byte in the first chunk that the text layer decodes, and far past
    # it, behind two-byte characters that may straddle a chunk's end
    @pytest.mark.parametrize("rows", [0, 2000])
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
    def test_non_utf8_names_file_and_byte(self, tmp_path, rows, mark):
        path = tmp_path / "latin.csv"
        head = mark + "slide_id,til_score_pct,note\n".encode() + b"".join(
            f"s{i},1,{'é' * (i % 5)}\n".encode() for i in range(rows)) + b"a,10,caf"
        path.write_bytes(head + "é\n".encode("latin-1"))
        with raises_in(path, f"not UTF-8 text (invalid continuation byte at byte {len(head)})"):
            load_clinical(path)

    def test_overlong_cell_names_the_file(self, tmp_path):
        # an unclosed quote takes the rest of the file into one cell
        path = csv_file(tmp_path, 'slide_id,ectil_score\na,0.1\nb,"0.2\n' + "x" * 200_000 + "\n")
        with pytest.raises(TilscoreError, match=f"^{re.escape(str(path))}: "
                                                r"field larger than field limit \(\d+\)$"):
            read_predictions(path)

    @pytest.mark.parametrize("loader, text, message", [
        (load_clinical, "slide_id,cohort\na,c\n", "missing mandatory column 'til_score_pct'"),
        (load_clinical, "slide_id,til_score_pct\na,101\n",
         "line 2: til_score_pct 101.0 outside [0, 100]"),
        (load_clinical, "slide_id,til_score_pct,os_event\na,10,2\n",
         "line 2: os_months and os_event must both be present or both absent"),
        (read_predictions, "slide_id\n", "predictions CSV needs slide_id and ectil_score columns"),
        (read_predictions, "slide_id,ectil_score\na,0.5\nb,1.5\n",
         "line 3: ectil_score 1.5 outside [0, 1]"),
    ], ids=["clinical-header", "clinical-range", "clinical-survival", "predictions-header",
            "predictions-range"])
    def test_errors_start_with_the_path(self, tmp_path, loader, text, message):
        path = csv_file(tmp_path, text)
        with raises_in(path, message):
            loader(path)

    def test_written_and_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        # the child's command line must be ASCII too, so its code spells "é" as \u00e9
        code = ("import sys\n"
                "from tilscore.bagio import (SlideRecord, load_clinical, read_predictions,\n"
                "                            write_clinical, write_predictions)\n"
                "r = SlideRecord('s\\u00e9', til_score_pct=10.0, covariates={'g': 'G\\u00e9'})\n"
                "write_clinical([r], sys.argv[1])\n"
                "write_predictions([('s\\u00e9', 0.5)], sys.argv[2])\n"
                "assert load_clinical(sys.argv[1]) == [r]\n"
                "assert read_predictions(sys.argv[2]) == {'s\\u00e9': 0.5}\n")
        paths = [tmp_path / "clinical.csv", tmp_path / "preds.csv"]
        src = str(Path(tilscore.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env,
                              capture_output=True)
        assert done.returncode == 0, done.stderr
        assert paths[0].read_bytes() == ("slide_id,cohort,centre,til_score_pct,g\r\n"
                                         "sé,,,10.0,Gé\r\n").encode()
        assert paths[1].read_bytes() == "slide_id,ectil_score\r\nsé,0.5\r\n".encode()


# ---------------------------------------------------------------------------
# Parity of the positional CSV readers with csv.DictReader
# ---------------------------------------------------------------------------


def naming_the_file(reader):
    """`reader` with each error's message prefixed by the path, as the
    readers name the file."""
    def read(path):
        try:
            return reader(path)
        except TilscoreError as exc:
            raise TilscoreError(f"{path}: {exc}") from None
    return read


@naming_the_file
def dict_load_clinical(path) -> list[SlideRecord]:
    """The former `csv.DictReader` `load_clinical`, kept as a reference.  It
    departs from it only in taking line numbers from `reader.line_num` and
    in naming the file in its errors."""
    from tilscore.bagio import _check_repeat, _number, _parse_covariate

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("slide_id", "til_score_pct"):
            if col not in header:
                raise TilscoreError(f"missing mandatory column {col!r}")
        has_second = "til_score_pct_2" in header
        records, line_of = [], {}
        for row in reader:
            lineno = reader.line_num
            sid = (row.get("slide_id") or "").strip()
            if not sid:
                raise TilscoreError(f"line {lineno}: empty slide_id")
            _check_repeat(line_of, sid, lineno)
            raw_score = (row.get("til_score_pct") or "").strip()
            if not raw_score:
                raise TilscoreError(f"line {lineno}: missing til_score_pct")
            score = _number(raw_score, lineno, "til_score_pct")
            if has_second and (row.get("til_score_pct_2") or "").strip():
                score = (score + _number(row["til_score_pct_2"], lineno, "til_score_pct_2")) / 2.0
            if not 0.0 <= score <= 100.0:
                raise TilscoreError(f"line {lineno}: til_score_pct {score} outside [0, 100]")
            raw_months = (row.get("os_months") or "").strip()
            raw_event = (row.get("os_event") or "").strip()
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
            for key, val in row.items():
                if key in RESERVED_COLUMNS or key is None:
                    continue
                val = (val or "").strip()
                if val:
                    value = covariates[key] = _parse_covariate(val)
                    if isinstance(value, float) and not math.isfinite(value):
                        raise TilscoreError(
                            f"line {lineno}: covariate {key!r} value {val!r} is not finite")
            records.append(SlideRecord(
                slide_id=sid, cohort=(row.get("cohort") or "").strip(),
                centre=(row.get("centre") or "").strip(), til_score_pct=score,
                covariates=covariates, os_months=os_months, os_event=os_event))
    return records


@naming_the_file
def dict_read_predictions(path) -> dict[str, float]:
    """The former `csv.DictReader` `read_predictions`, kept as a reference.
    It departs from it in taking line numbers from `reader.line_num`, in
    stripping slide ids and rejecting an empty one, in naming an empty or
    absent score missing, in naming the line of an out-of-range score, as
    `load_clinical` does, and in naming the file in its errors."""
    from tilscore.bagio import _check_repeat, _number

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"slide_id", "ectil_score"} <= set(reader.fieldnames):
            raise TilscoreError("predictions CSV needs slide_id and ectil_score columns")
        out, line_of = {}, {}
        for row in reader:
            lineno = reader.line_num
            sid = (row["slide_id"] or "").strip()
            if not sid:
                raise TilscoreError(f"line {lineno}: empty slide_id")
            _check_repeat(line_of, sid, lineno)
            raw_score = (row["ectil_score"] or "").strip()
            if not raw_score:
                raise TilscoreError(f"line {lineno}: missing ectil_score")
            score = _number(raw_score, lineno, "ectil_score")
            if not 0.0 <= score <= 1.0:
                raise TilscoreError(f"line {lineno}: ectil_score {score} outside [0, 1]")
            out[sid] = score
    return out


CLINICAL_OPTIONAL = [["cohort"], ["centre"], ["til_score_pct_2"], ["os_months", "os_event"]]
# one bad cell of each kind that the readers name: (column, cell)
CLINICAL_BAD_CELLS = [
    ("slide_id", ""), ("slide_id", "  "), ("slide_id", "REPEAT"),
    ("til_score_pct", ""), ("til_score_pct", "abc"), ("til_score_pct", "101"),
    ("til_score_pct", "-0.5"), ("til_score_pct_2", "x"), ("til_score_pct_2", "400"),
    ("os_months", ""), ("os_months", "soon"), ("os_months", "inf"), ("os_months", "nan"),
    ("os_months", "0"), ("os_months", "-3"), ("os_event", ""), ("os_event", "1.0"),
    ("os_event", "2"), ("os_event", "yes"), ("age", "inf"), ("age", "-Infinity"),
    ("age", "NaN"),
]
PREDICTION_BAD_CELLS = [("slide_id", ""), ("slide_id", " "), ("slide_id", "REPEAT"),
                        ("ectil_score", ""), ("ectil_score", "x"), ("ectil_score", "1.5"),
                        ("ectil_score", "-0.1"), ("ectil_score", "nan")]


def clinical_cell(rng, col: str, i: int) -> str:
    if col == "slide_id":
        return f"{' ' * int(rng.integers(0, 2))}s{i}{' ' * int(rng.integers(0, 2))}"
    if col in ("til_score_pct", "til_score_pct_2"):
        return "" if col.endswith("_2") and rng.random() < 0.3 else f"{rng.uniform(0, 100):.3f}"
    if col == "os_months":
        return f"{rng.uniform(0.5, 120):.2f}"
    if col == "os_event":
        return str(int(rng.integers(0, 2)))
    if col in ("cohort", "centre"):
        return f" {col}{int(rng.integers(0, 3))} "
    # covariates: numbers, words, quoted commas and quotes, empty cells
    return str(rng.choice(["", "52.5", " 7 ", "G2", "BC, NST", 'say "hi"', "1e3", "two\nlines"]))


def random_table(rng, columns: list[str], cell, n_rows: int, bad: tuple | None) -> str:
    """A CSV of `n_rows` records under `columns`, with blank lines, short and
    long rows and, with `bad`, one cell of column bad[0] set to bad[1].  A
    short row may drop the bad cell: then that row reads as a missing cell."""
    rows = [[cell(rng, col, i) for col in columns] for i in range(n_rows)]
    # survival cells come in pairs unless a bad cell breaks one
    for row in rows:
        if "os_months" in columns and "os_event" in columns and rng.random() < 0.3:
            row[columns.index("os_months")] = row[columns.index("os_event")] = ""
    if bad is not None and bad[0] in columns and n_rows:
        r = int(rng.integers(0, n_rows))
        j = max(i for i, col in enumerate(columns) if col == bad[0])
        rows[r][j] = rows[max(r - 1, 0)][j] if bad[1] == "REPEAT" else bad[1]
        if bad[1] == "REPEAT" and r == 0 and n_rows > 1:
            rows[1][j] = rows[0][j]
    for row in rows:
        u = rng.random()
        if u < 0.04:
            del row[int(rng.integers(1, len(row) + 1)):]  # short
        elif u < 0.12:
            row += ["extra"] * int(rng.integers(1, 3))  # long
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if rng.random() < 0.1:
            buf.write("\n" * int(rng.integers(1, 3)))
        writer.writerow(row)
    return buf.getvalue()


def random_header(rng, mandatory: list[str], optional: list[list[str]],
                  extra: list[str]) -> list[str]:
    cols = mandatory + [c for group in optional if rng.random() < 0.6 for c in group]
    cols += [c for c in extra if rng.random() < 0.6]
    for _ in range(int(rng.integers(0, 3))):  # duplicate columns
        cols.append(str(rng.choice(cols)))
    return [cols[k] for k in rng.permutation(len(cols))]


def error_kind(outcome) -> str:
    """An error outcome's message with its numbers and quoted cells blanked."""
    return (re.sub(r"-?\d[\d.e+-]*|'[^']*'|None|nan", "#", outcome[1])
            if isinstance(outcome, tuple) else "ok")


def outcome(loader, path):
    """What `loader` makes of `path`: its result, or its error's class and message."""
    try:
        result = loader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, list):  # covariates in header order, not only equal
        return [(r, list(r.covariates.items())) for r in result]
    return list(result.items())


class TestDictReaderParity:
    """The positional readers against their `csv.DictReader` references on
    seeded random tables."""

    def test_clinical_tables(self, tmp_path):
        rng = np.random.default_rng(20240)
        path = tmp_path / "clinical.csv"
        kinds = set()
        for case in range(400):
            header = random_header(rng, ["slide_id", "til_score_pct"], CLINICAL_OPTIONAL,
                                   ["age", "grade", "note", ""])
            bad = CLINICAL_BAD_CELLS[case % len(CLINICAL_BAD_CELLS)] if case % 3 else None
            path.write_text(random_table(rng, header, clinical_cell,
                                         int(rng.integers(0, 12)), bad))
            want = outcome(dict_load_clinical, path)
            assert outcome(load_clinical, path) == want, path.read_text()
            kinds.add(error_kind(want))
        assert len(kinds) == 14, kinds  # no error, and each of the 13 row messages

    def test_prediction_tables(self, tmp_path):
        rng = np.random.default_rng(20241)
        path = tmp_path / "preds.csv"

        def cell(rng, col, i):
            if col == "ectil_score":
                return f"{rng.random():.6f}"
            return clinical_cell(rng, col, i)

        kinds = set()
        for case in range(300):
            header = random_header(rng, ["slide_id", "ectil_score"], [], ["age", "til_score_pct"])
            bad = PREDICTION_BAD_CELLS[case % len(PREDICTION_BAD_CELLS)] if case % 3 else None
            path.write_text(random_table(rng, header, cell, int(rng.integers(0, 12)), bad))
            want = outcome(dict_read_predictions, path)
            assert outcome(read_predictions, path) == want, path.read_text()
            kinds.add(error_kind(want))
        assert len(kinds) == 6, kinds  # no error, and each of the 5 row messages

    @pytest.mark.parametrize("text", ["", "\n", "slide_id\n", "ectil_score,x\n"])
    def test_headers_without_the_columns(self, tmp_path, text):
        path = csv_file(tmp_path, text)
        for loader, reference in [(load_clinical, dict_load_clinical),
                                  (read_predictions, dict_read_predictions)]:
            assert outcome(loader, path) == outcome(reference, path)


def rows_failing_midway():
    yield ["slide_id", "ectil_score"]
    yield ["a", 0.5]
    raise RuntimeError("rows failed")


class TestNoPartialFiles:
    """A table or JSON write that fails midway leaves no file under the
    target name, or the one there before, and no temporary file."""

    @pytest.mark.parametrize("write, error", [
        (lambda path: write_table(path, rows_failing_midway()), RuntimeError),
        (lambda path: write_json(path, {"a": 1, "b": object()}), TypeError),
    ], ids=["table", "json"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, write, error):
        path = tmp_path / "out.txt"
        with pytest.raises(error):
            write(path)
        assert list(tmp_path.iterdir()) == []
        path.write_text("before\n")
        with pytest.raises(error):
            write(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "before\n"

"""Seeded mutation harness: every stage meets bad input by name, never by a fault.

In the style of property-based testing (Claessen & Hughes 2000, QuickCheck)
as a plain seeded loop.  One tiny valid chain is built once.  Each case then
mutates one input of one stage in a fresh directory (a bag, a checkpoint,
`ensemble.json`, the clinical or predictions CSV, `--spec`, the synth, hyper
or fesi config, the PPM header, the `.mpp` sidecar or a numeric flag) and
runs the stage through `cli.main`.  Each run must hold four things:

- nothing escapes `main`, save argparse's own exit 2 for a flag it rejects;
- the exit code is 0, 2 or 3;
- an exit-2 message names the mutated file, a line, the flag or the key;
- an exit 0 writes no NaN into any `.json`, `.csv` or `.tsv` (an infinite
  Wald bound is allowed).

A program fault, such as an IndexError or a plain ValueError, escapes `main`
and fails the case with its traceback rather than passing as exit 2.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_disc
from tilscore import bagio, foreground, milnet
from tilscore.cli import main
from tilscore.pnm import write_ppm

N_SEEDS = 60
NAN_WORD = re.compile(r"\b(nan|NaN)\b")
TRAIN = ["--plan", "loco", "--enc-out", 4, "--attn-hidden", 2, "--max-epochs", 2,
         "--batch-size", 8]
FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "5e-324", "1e6", "1e30", "0.5", "x"]
INTS = ["-1", "0", "1", "2", "3", "x"]  # small: a large size or epoch count only costs time
CUTOFFS = ["nan", "-5", "150", "x", "", "30,30", "0", "100", ","]
FLAGS = {"train": {"--lr": FLOATS, "--weight-decay": FLOATS, "--batch-size": INTS,
                   "--max-epochs": INTS, "--patience": INTS, "--enc-out": INTS,
                   "--attn-hidden": INTS, "--seed": INTS},
         "tile": {"--mpp": FLOATS, "--tile-size": INTS, "--target-mpp": FLOATS},
         "survival": {"--norm-min": FLOATS, "--norm-max": FLOATS, "--cutoffs": CUTOFFS},
         "evaluate": {"--cutoffs": CUTOFFS}}
JSON_VALUES = [0, -1, 1, 2, 3, 0.5, -1.0, 1e308, -1e308, 1e-308, math.nan, math.inf, -math.inf,
               1e6, 1e30, "x", None, True, [], {}]
CELLS = ["", "x", "nan", "inf", "-1", "0", "1e308", "101", "2", "0.5", " ", "G9", "é"]
PPM_TOKENS = ["P5", "P3", "0", "1", "7", "63", "65", "99999999999", "-1", "abc", "", "256"]
MPP_TEXTS = [b"0", b"-1", b"nan", b"inf", b"abc", b"", b"1e308", b"1e-308", b"5e-324", b"\xff",
             b"0.25"]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A valid chain: a synthetic cohort with an age and a grade column, a
    two-fold model, its predictions, configs and a spec, and a small slide."""
    root = tmp_path_factory.mktemp("mutation")
    synth = {"n_slides": 24, "tiles_min": 3, "tiles_max": 6, "dim": 8, "seed": 3, "noise_dim": 2,
             "noise_sigma": 0.1, "n_centres": 3, "n_cohorts": 2, "survival": True}
    (root / "synth.json").write_text(json.dumps(synth))
    assert main(["synth", str(root / "synth.json"), "--out", str(root)]) == 0
    lines = (root / "clinical.csv").read_text().splitlines()
    (root / "clinical.csv").write_text("\n".join(
        [lines[0] + ",age,grade"]
        + [f"{line},{40 + 7 * i % 31},G{1 + i % 3}" for i, line in enumerate(lines[1:])]) + "\n")
    assert run(["train", "--bags", root / "bags", "--clinical", root / "clinical.csv", *TRAIN,
                "--out", root / "model"]) == 0
    assert run(["predict", "--model", root / "model", "--bags", root / "bags",
                "--out", root / "pred"]) == 0
    (root / "spec.json").write_text(json.dumps({"covariates": [
        {"column": "age", "scale": 0.1}, {"column": "grade", "kind": "factor", "ref": "G1"}]}))
    (root / "hyper.json").write_text(json.dumps({"hyper": {
        "enc_out": 4, "attn_hidden": 2, "max_epochs": 2, "batch_size": 8}}))
    (root / "fesi.json").write_text(json.dumps({"fesi": {"downsample": 4}}))
    write_ppm(root / "slide.ppm", noisy_disc(n=64, radius=20.0)[0])
    (root / "slide.ppm.mpp").write_text("0.5\n")
    return root


def run(argv) -> int:
    return main([str(a) for a in argv])


def stage_argv(stage: str, root: Path, work: Path, **inputs) -> list:
    """The argv of a valid run of `stage`, with `inputs` in place of root's files."""
    def at(name, default):
        return inputs.get(name, root / default)
    return {
        "synth": lambda: ["synth", at("synth", "synth.json")],
        "train": lambda: ["train", "--bags", at("bags", "bags"),
                          "--clinical", at("clinical", "clinical.csv"), *TRAIN],
        "train-config": lambda: ["train", "--bags", root / "bags", "--clinical",
                                 root / "clinical.csv", "--plan", "loco",
                                 "--config", at("hyper", "hyper.json")],
        "predict": lambda: ["predict", "--model", at("model", "model"),
                            "--bags", at("bags", "bags")],
        "evaluate": lambda: ["evaluate", "--predictions", at("preds", "pred/predictions.csv"),
                             "--clinical", at("clinical", "clinical.csv")],
        "survival": lambda: ["survival", "--predictions", at("preds", "pred/predictions.csv"),
                             "--clinical", at("clinical", "clinical.csv"),
                             "--spec", at("spec", "spec.json")],
        "tile": lambda: ["tile", at("slide", "slide.ppm"), "--config", at("fesi", "fesi.json"),
                         *(["--mpp", 0.5] if "slide" not in inputs else [])],
    }[stage]() + ["--out", work / "out"]


def check(argv: list, words: list[str], out: Path, expect: int | None = None) -> int:
    """Run argv through main and assert the four properties; returns the code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            np.errstate(all="ignore"):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects a flag's value, naming the flag
            code = exc.code
    message = err.getvalue()
    shown = f"{[str(a) for a in argv]} -> {code}: {message}"
    assert code in (0, 2, 3), shown
    if expect is not None:
        assert code == expect, shown
    if code == 2:
        assert any(word in message for word in words), f"{shown}\nnames none of {words}"
    if code == 0:
        for path in out.rglob("*"):
            if path.suffix in (".json", ".csv", ".tsv"):
                assert not NAN_WORD.search(path.read_text(encoding="utf-8")), f"{shown}\n{path}"
    return code


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def mutate_bytes(rng, data: bytes, start: int, fmt: str, specials) -> bytes:
    """One of: cut short, one byte flipped, a special `fmt` value written over
    an aligned item from `start` on, or bytes appended."""
    op = int(rng.integers(4))
    pos = int(rng.integers(len(data)))
    if op == 0:
        return data[:pos]
    if op == 1:
        return data[:pos] + bytes([data[pos] ^ int(rng.integers(1, 256))]) + data[pos + 1:]
    if op == 2:
        size = struct.calcsize(fmt)
        at = start + size * int(rng.integers((len(data) - start) // size))
        return data[:at] + struct.pack(fmt, pick(rng, specials)) + data[at + size:]
    return data + rng.integers(0, 256, int(rng.integers(1, 16)), dtype=np.uint8).tobytes()


def bag_case(rng, root, work):
    bags = work / "bags"
    shutil.copytree(root / "bags", bags)
    path = pick(rng, sorted(bags.glob("*.bag")))
    data = path.read_bytes()
    header = 8 + len(path.stem.encode()) + 16
    n_tiles = struct.unpack_from("<I", data, header - 16)[0]
    specials = [math.nan, math.inf, -math.inf, 3e38, -3e38]
    path.write_bytes(mutate_bytes(rng, data, header + 8 * n_tiles, "<f", specials))
    stage = pick(rng, ["train", "predict"])
    return stage_argv(stage, root, work, bags=bags), [path.name]


def checkpoint_case(rng, root, work):
    model = work / "model"
    shutil.copytree(root / "model", model)
    path = model / pick(rng, ["fold000.ckpt", "fold001.ckpt"])
    header = 6 + struct.calcsize(milnet._CKPT_HYPER)
    specials = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308]
    path.write_bytes(mutate_bytes(rng, path.read_bytes(), header, "<d", specials))
    # a member that loads but scores a slide non-finite is named by --model
    return stage_argv("predict", root, work, model=model), [path.name, "--model"]


def manifest_case(rng, root, work):
    model = work / "model"
    shutil.copytree(root / "model", model)
    manifest = json.loads((model / "ensemble.json").read_text())
    op = int(rng.integers(3))
    if op == 0:
        manifest["members"] = pick(rng, [[], [0], "fold000.ckpt", None, ["missing.ckpt"],
                                         ["fold000.ckpt", "fold000.ckpt"], {}, ["fold001.ckpt"]])
    elif op == 1:
        del manifest["members"]
    text = json.dumps(manifest)
    if op == 2:
        text = text[: int(rng.integers(len(text)))]
    (model / "ensemble.json").write_text(text)
    # a member that cannot be opened is named by its path in the model directory
    return stage_argv("predict", root, work, model=model), ["ensemble.json", str(model)]


def csv_case(rng, root, work, name, stages):
    source = root / ("pred/predictions.csv" if name == "predictions.csv" else name)
    lines = source.read_text().splitlines()
    i = int(rng.integers(1, len(lines)))
    cells = lines[i].split(",")
    j = int(rng.integers(len(cells)))
    column = lines[0].split(",")[j]
    op = int(rng.integers(4))
    if op == 0:
        cells[j] = pick(rng, CELLS)
    elif op == 1:
        del cells[j]  # a short row
    if op < 2:
        lines[i] = ",".join(cells)
    elif op == 2:
        lines.insert(i, lines[int(rng.integers(1, len(lines)))])  # a repeated row
    else:
        lines[0] = lines[0].replace(column, "x", 1)  # a column renamed
    path = work / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    key = "preds" if name == "predictions.csv" else "clinical"
    # survstats names the design columns, which a cell of another column can make singular
    return stage_argv(pick(rng, stages), root, work, **{key: path}), [name, "line ", column,
                                                                      "'age", "'grade"]


def clinical_case(rng, root, work):
    return csv_case(rng, root, work, "clinical.csv", ["train", "evaluate", "survival"])


def predictions_case(rng, root, work):
    return csv_case(rng, root, work, "predictions.csv", ["evaluate", "survival"])


def json_case(rng, root, work, name, keys, wrap=None):
    """The config `name` with one of `keys` set to a pool value, or dropped."""
    doc = json.loads((root / name).read_text())
    obj = doc[wrap] if wrap else doc
    key = pick(rng, keys)
    if rng.random() < 0.1:
        obj.pop(key, None)
    else:
        obj[key] = pick(rng, JSON_VALUES)
    path = work / name
    path.write_text(json.dumps(doc))
    return path, [name, key]


def synth_case(rng, root, work):
    keys = [f.name for f in dataclasses.fields(bagio.SynthConfig)]
    path, words = json_case(rng, root, work, "synth.json", keys)
    return stage_argv("synth", root, work, synth=path), words


def hyper_case(rng, root, work):
    keys = [f.name for f in dataclasses.fields(milnet.HyperParams)]
    path, words = json_case(rng, root, work, "hyper.json", keys, wrap="hyper")
    return stage_argv("train-config", root, work, hyper=path), words


def fesi_case(rng, root, work):
    keys = [f.name for f in dataclasses.fields(foreground.FesiParams)]
    path, words = json_case(rng, root, work, "fesi.json", keys, wrap="fesi")
    return stage_argv("tile", root, work, fesi=path), words


def spec_case(rng, root, work):
    doc = json.loads((root / "spec.json").read_text())
    cov = pick(rng, doc["covariates"])
    key = pick(rng, ["column", "kind", "ref", "scale"])
    cov[key] = pick(rng, JSON_VALUES + ["age", "grade", "missing", "slide_id", "os_months",
                                        "numeric", "factor", "G1", "G9"])
    path = work / "spec.json"
    path.write_text(json.dumps(doc))
    # survstats names the covariate column that the spec put in the design
    return stage_argv("survival", root, work, spec=path), ["spec.json", "--spec", key,
                                                           "'age", "'grade"]


def ppm_case(rng, root, work):
    data = (root / "slide.ppm").read_bytes()
    head, raster = data[:13], data[13:]  # b"P6\n64 64\n255\n"
    tokens = head.split()
    if rng.random() < 0.2:
        text = head[: int(rng.integers(len(head)))]
    else:
        tokens[int(rng.integers(len(tokens)))] = pick(rng, PPM_TOKENS).encode()
        text = b"%s\n%s %s\n%s\n" % tuple(tokens)
    path = work / "slide.ppm"
    path.write_bytes(text + raster)
    return stage_argv("tile", root, work, slide=path) + ["--mpp", 0.5], ["slide.ppm"]


def mpp_case(rng, root, work):
    path = work / "slide.ppm"
    shutil.copy(root / "slide.ppm", path)
    (work / "slide.ppm.mpp").write_bytes(pick(rng, MPP_TEXTS))
    return stage_argv("tile", root, work, slide=path), ["slide.ppm.mpp"]


def flag_case(rng, root, work):
    stage = pick(rng, sorted(FLAGS))
    flag = pick(rng, sorted(FLAGS[stage]))
    words = [flag, flag[2:].replace("-", "_")]
    if flag in ("--norm-min", "--norm-max"):  # they set the normalised score covariate
        words += ["normalization", "model_tils_per_10pct"]
    return stage_argv(stage, root, work) + [flag, pick(rng, FLAGS[stage][flag])], words


KINDS = [bag_case, checkpoint_case, manifest_case, clinical_case, predictions_case, spec_case,
         synth_case, hyper_case, fesi_case, ppm_case, mpp_case, flag_case]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_mutated_input_exits_by_name(root, tmp_path, kind):
    for seed in range(N_SEEDS):
        work = tmp_path / str(seed)
        work.mkdir()
        argv, words = kind(np.random.default_rng([seed, KINDS.index(kind)]), root, work)
        check(argv, words, work / "out")


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


# inputs that once escaped main as a traceback, exited 2 in numpy's words, or
# exited 0 with NaN in their outputs: (stage, config or spec, flags, exit code, words).
# density_concentration, surv_*, mpp and tile_size_px are bagio constants now,
# so their rows pin that each exits 2 naming the key, as an unknown one.
PINNED = {
    **{f"synth-{key}-{value}": ("synth", {key: value}, [], 2, [key])
       for key, value in [("n_centres", 0), ("n_cohorts", 0), ("seed", -1),
                          ("density_concentration", -1), ("noise_sigma", -1),
                          ("surv_censor_lo", 200.0), ("mpp", 1e308), ("mpp", 1e-50),
                          ("tile_size_px", 2**33), ("surv_beta_per_unit", math.nan),
                          ("surv_censor_hi", math.inf)]},
    "tile-smooth_sigma-1e308": ("tile", {"downsample": 4, "smooth_sigma": 1e308}, [], 2,
                                ["smooth_sigma"]),
    **{f"survival-scale-{value}": ("survival", value, [], 2, ["'age'"])
       for value in (math.nan, math.inf, 1e308)},
    "train-lr-1e308": ("train", None, ["--lr", "1e308", "--max-epochs", 1, "--batch-size", 32],
                       2, ["lr"]),
    # the sigmoid saturates: a fold's validation predictions are all equal
    **{f"train-lr-{lr}": ("train", None, ["--lr", lr, "--max-epochs", 3, "--batch-size", 16,
                                          "--enc-out", 8, "--attn-hidden", 4], 0, [])
       for lr in ("1e6", "1e30")},
}


@pytest.mark.parametrize("case", PINNED)
def test_pinned_escape(root, tmp_path, case):
    stage, config, flags, code, words = PINNED[case]
    inputs = {}
    if stage == "synth":
        synth = json.loads((root / "synth.json").read_text())
        inputs["synth"] = write_json(tmp_path / "synth.json", {**synth, **config})
    elif stage == "tile":
        inputs["fesi"] = write_json(tmp_path / "fesi.json", {"fesi": config})
    elif stage == "survival":
        inputs["spec"] = write_json(tmp_path / "spec.json",
                                    {"covariates": [{"column": "age", "scale": config}]})
    check(stage_argv(stage, root, tmp_path, **inputs) + flags, words, tmp_path / "out", code)


def test_outlying_covariate_exits_by_name(root, tmp_path):
    # one age of 1e308 once made the rank test, then unscaled, call the
    # well-conditioned grade column rank deficient, and later overflowed the
    # Cox information matrix into an exit 3 that named no column
    lines = (root / "clinical.csv").read_text().splitlines()
    lines[5] = re.sub(r",\d+,(G\d)$", r",1e308,\1", lines[5])
    clinical = tmp_path / "clinical.csv"
    clinical.write_text("\n".join(lines) + "\n")
    argv = stage_argv("survival", root, tmp_path, clinical=clinical)
    check(argv, ["'age"], tmp_path / "out", expect=2)

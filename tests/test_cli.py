import ast
import csv
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_disc, read_manifest, read_pgm
import tilscore
from tilscore import bagio, concord, foreground, milnet, pnm, survstats
from tilscore.cli import build_parser, main
from tilscore.milnet import (HyperParams, ModelParams, init_params,
                             load_checkpoint, save_checkpoint)
from tilscore.pnm import write_ppm


def run(*argv) -> int:
    return main([str(a) for a in argv])


def dir_hashes(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def write_synth_config(path, **over):
    cfg = {"n_slides": 30, "tiles_min": 3, "tiles_max": 8, "dim": 16, "seed": 7,
           "noise_dim": 3, "noise_sigma": 0.1, "n_centres": 5, "n_cohorts": 2}
    cfg.update(over)
    Path(path).write_text(json.dumps(cfg))
    return cfg


def subprocess_env(**extra) -> dict:
    """The environment of a child Python that imports this checkout's tilscore."""
    src = str(Path(tilscore.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_import_skips_unused_scipy_subpackages():
    # scipy.stats, scipy.ndimage and scipy.special once cost most of the
    # start-up of every stage; no stage uses scipy now (the next test runs
    # all seven with it blocked).  concurrent.futures has no user left,
    # since train and predict are serial.
    code = ("import sys, tilscore.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.ndimage', 'scipy.special', "
            "'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_milnet_imports_no_other_tilscore_module():
    code = ("import sys, tilscore.milnet; "
            "print(sorted(m for m in sys.modules if m.startswith('tilscore.')))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['tilscore.milnet']"


def test_every_error_class_is_a_tilscore_error():
    # main exits 2 on a TilscoreError alone, so any other error class, or a
    # bare ValueError, is a traceback.  concord's five guards stay bare: cli
    # checks their inputs first, so one of them firing is a program fault.
    # A subclass is kept only where an except clause tells it apart.
    src = Path(tilscore.__file__).parent
    error_classes, bare, caught = [], [], set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                error_classes.append(getattr(importlib.import_module(module), child.name))
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "ValueError"):
                bare.append(f"{module}.{where}")
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                caught.update(getattr(t, "attr", getattr(t, "id", None)) for t in
                              getattr(child.type, "elts", [child.type]))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, module, child.name if named else where)

    for path in sorted(src.glob("*.py")):
        module = "tilscore" if path.stem == "__init__" else f"tilscore.{path.stem}"
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "<module>")
    errors = [cls for cls in error_classes if issubclass(cls, BaseException)]
    assert sorted(cls.__name__ for cls in errors) == [
        "DegenerateSplitError", "NonConvergenceError", "TilscoreError", "UndefinedMetricError"]
    assert {"DegenerateSplitError", "NonConvergenceError", "UndefinedMetricError"} <= caught
    assert [cls.__name__ for cls in errors
            if not issubclass(cls, tilscore.TilscoreError)] == ["NonConvergenceError"]
    assert sorted(bare) == [f"tilscore.concord.{name}" for name in (
        "_as1d", "_paired", "auroc", "average_precision", "calibration")]


def test_evaluate_cutoffs_default_is_concord_default():
    args = build_parser().parse_args(["evaluate", "--predictions", "p.csv",
                                      "--clinical", "c.csv", "--out", "o"])
    assert args.cutoffs == "10,30,50,75"
    assert tuple(map(float, args.cutoffs.split(","))) == concord.DEFAULT_CUTOFFS


SEVEN_STAGES_WITHOUT_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    \"\"\"Makes every import of scipy or its submodules fail, and records it.\"\"\"
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.tried.append(name)
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
    control = "imported"
except ImportError as exc:
    control = str(exc)

from tilscore.cli import main

def stage_modules():
    return sorted(m for m in ("tilscore.survstats", "tilscore.foreground", "tilscore.pnm")
                  if m in sys.modules)

root, survival = sys.argv[1], json.loads(sys.argv[2])
codes = [main(["synth", root + "/cfg.json", "--out", root]),
         main(["train", "--bags", root + "/bags", "--clinical", root + "/clinical.csv",
               "--plan", "loco", "--out", root + "/run", "--enc-out", "8",
               "--attn-hidden", "4", "--max-epochs", "2"]),
         main(["predict", "--model", root + "/run", "--bags", root + "/bags",
               "--out", root + "/pred"]),
         main(["evaluate", "--predictions", root + "/pred/predictions.csv",
               "--clinical", root + "/clinical.csv", "--out", root + "/eval"])]
csv_stages = stage_modules()
codes += [main(["heatmap", "--model", root + "/run/fold000.ckpt",
                "--bag", root + "/bags/synth0000.bag", "--out", root + "/hm"]),
          main(["tile", root + "/slide.ppm", "--mpp", "0.5", "--out", root + "/tile"])]
tile_stages = stage_modules()
codes.append(main(survival))
print(json.dumps({"codes": codes, "control": control, "tried": NoScipy.tried,
                  "csv_stages": csv_stages, "tile_stages": tile_stages}))
"""


def test_model_stages_run_without_scipy(tmp_path):
    # a finder ahead of every other one makes any import of scipy fail, and
    # `import scipy` in the child shows that it does; then the seven stages
    # run, survival with a numeric and a factor covariate, and none of them
    # so much as tries scipy.  Each stage loads only the tilscore modules it
    # calls: train, predict and evaluate load none of survstats, foreground
    # and pnm, and tile no survstats.
    write_synth_config(tmp_path / "cfg.json")
    write_ppm(tmp_path / "slide.ppm", noisy_disc(n=512, radius=150.0)[0])
    (tmp_path / "surv").mkdir()
    clinical, preds, *_ = make_survival_inputs(tmp_path / "surv")
    lines = clinical.read_text().splitlines()
    clinical.write_text("\n".join([lines[0] + ",age"] + [
        f"{line},{40 + 7 * i % 37}" for i, line in enumerate(lines[1:])]) + "\n")
    spec = tmp_path / "surv" / "spec.json"
    spec.write_text(json.dumps({"covariates": [{"column": "age"},
                                               {"column": "biomarker", "kind": "factor"}]}))
    survival = ["survival", "--predictions", str(preds), "--clinical", str(clinical),
                "--spec", str(spec), "--out", str(tmp_path / "surv" / "out")]
    done = subprocess.run([sys.executable, "-c", SEVEN_STAGES_WITHOUT_SCIPY, str(tmp_path),
                           json.dumps(survival)],
                          env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["control"] == "scipy is blocked"
    assert result["codes"] == [0] * 7, done.stderr
    assert result["tried"] == ["scipy"]  # the control's import, and no stage's
    assert result["csv_stages"] == []
    assert result["tile_stages"] == ["tilscore.foreground", "tilscore.pnm"]
    report = json.loads((tmp_path / "surv" / "out" / "survival.json").read_text())
    assert {row["variable"] for row in report["cox"][-1]["rows"]} == {"age", "biomarker=pos"}


@pytest.fixture(scope="module")
def model_chain(tmp_path_factory):
    """A small synth cohort, a two-fold model trained on it, its predictions and a slide."""
    root = tmp_path_factory.mktemp("chain")
    write_synth_config(root / "cfg.json")
    assert run("synth", root / "cfg.json", "--out", root) == 0
    assert run("train", "--bags", root / "bags", "--clinical", root / "clinical.csv",
               "--plan", "loco", "--enc-out", 8, "--attn-hidden", 4, "--max-epochs", 2,
               "--out", root / "run") == 0
    assert run("predict", "--model", root / "run", "--bags", root / "bags",
               "--out", root / "pred") == 0
    write_ppm(root / "slide.ppm", noisy_disc(n=512, radius=150.0)[0])
    return root


@pytest.mark.parametrize("stage", ["tile", "synth", "train", "predict", "evaluate", "survival",
                                   "heatmap"])
def test_stage_does_not_import_numpy_ma(model_chain, stage, tmp_path):
    # the first call of np.median, np.unique or np.intersect1d imports
    # numpy.ma, 8-16 ms and 1.25 MB of RSS; each stage runs alone in its child
    root = model_chain
    argv = {"tile": [root / "slide.ppm", "--mpp", 0.5],
            "synth": [root / "cfg.json"],
            "train": ["--bags", root / "bags", "--clinical", root / "clinical.csv",
                      "--plan", "loco", "--enc-out", 8, "--attn-hidden", 4, "--max-epochs", 2],
            "predict": ["--model", root / "run", "--bags", root / "bags"],
            "evaluate": ["--predictions", root / "pred" / "predictions.csv",
                         "--clinical", root / "clinical.csv"],
            "heatmap": ["--model", root / "run" / "fold000.ckpt",
                        "--bag", root / "bags" / "synth0000.bag"]}.get(stage)
    if stage == "survival":  # the chain's cohort has no survival data
        clinical, preds, *_ = make_survival_inputs(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"covariates": [{"column": "biomarker", "kind": "factor"}]}))
        argv = ["--predictions", preds, "--clinical", clinical, "--spec", spec]
    code = ("import sys; from tilscore.cli import main; "
            "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, stage, *map(str, argv),
                           "--out", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


# every required argument is present, so exit 2 can only come from the flag
COMMAND_ARGS = {
    "synth": ["cfg.json", "--out", "o"],
    "train": ["--bags", "b", "--clinical", "c.csv", "--plan", "loco", "--out", "o"],
    "predict": ["--model", "m", "--bags", "b", "--out", "o"],
    "evaluate": ["--predictions", "p.csv", "--clinical", "c.csv", "--out", "o"],
    "survival": ["--predictions", "p.csv", "--clinical", "c.csv", "--out", "o"],
    "heatmap": ["--model", "m.ckpt", "--bag", "a.bag", "--out", "o"],
}
FLAG_VALUES = {"--seed": "1", "--workers": "1", "--config": "cfg.json"}
KEPT_FLAGS = {"train": {"--seed", "--workers", "--config"},
              "predict": {"--workers"}}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in COMMAND_ARGS for flag in FLAG_VALUES
    if flag not in KEPT_FLAGS.get(command, set())])
def test_flags_a_command_ignores_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, *COMMAND_ARGS[command], flag, FLAG_VALUES[flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in KEPT_FLAGS.items() for flag in sorted(flags)])
def test_flags_a_command_uses_still_parse(command, flag):
    args = build_parser().parse_args([command, *COMMAND_ARGS[command], flag, FLAG_VALUES[flag]])
    assert str(getattr(args, flag[2:])) == FLAG_VALUES[flag]


@pytest.mark.parametrize("workers", ["0", "2"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_workers_other_than_one_rejected(command, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, *COMMAND_ARGS[command], "--workers", workers)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


BAD_CONFIGS = {
    "survival-unknown-key": ("survival", {"covariates": [{"col": "age"}]}, "unknown key 'col'"),
    "survival-not-a-list": ("survival", {"covariates": {"a": 1}},
                            '"covariates" must be a JSON list, not dict'),
    "survival-value-type": ("survival", {"covariates": [{"column": "age", "scale": "ten"}]},
                            "'scale' must be float, not str"),
    "survival-missing-key": ("survival", {"covariates": [{"kind": "numeric"}]}, "'column'"),
    **{f"survival-reserved-{column}": ("survival", {"covariates": [{"column": column}]},
                                       f"column {column!r} is reserved and cannot be a covariate")
       for column in ("cohort", "centre", "os_months")},
    "tile-unknown-key": ("tile", {"fesi": {"bogus": 1}}, "unknown key 'bogus'"),
    # guards that were once "fesi" keys and are now foreground constants
    **{f"tile-retired-{key}": ("tile", {"fesi": {key: value}}, f"unknown key {key!r}")
       for key, value in [("fill_holes", False), ("isodata_iters", 64),
                          ("structure_floor", 1e-3), ("uniform_rel_gap", 0.3)]},
    "tile-not-an-object": ("tile", {"fesi": [8]}, '"fesi" must be a JSON object, not list'),
    "train-unknown-key": ("train", {"hyper": {"lrate": 1e-3}}, "unknown key 'lrate'"),
    "train-value-type": ("train", {"hyper": {"max_epochs": 2.5}},
                         "'max_epochs' must be int, not float"),
    "train-top-level-key": ("train", {"hyperr": {}}, "unknown key 'hyperr'"),
    "synth-unknown-key": ("synth", {"n_slide": 3}, "unknown key 'n_slide'"),
    "synth-value-type": ("synth", {"survival": 1}, "'survival' must be bool, not int"),
    # values the generator once failed on with a traceback or numpy's words
    **{f"synth-{key}-{value}": ("synth", {key: value}, f"{key} must be")
       for key, value in [("n_centres", 0), ("n_cohorts", 0), ("seed", -1), ("dim", 0),
                          ("noise_sigma", -1)]},
    # a grid of 2**23 + 1 columns of 512 px puts its last column past uint32;
    # the bag ceiling rejects it first
    "synth-tiles_max-overflow": ("synth", {"tiles_max": 2**46 + 1},
                                 "tiles_max must be at most 65536 at dim 2048, so one bag's "
                                 f"float64 features stay under the 1 GiB ceiling, got {2**46 + 1}"),
    # settings that were once synth keys and are now bagio constants
    **{f"synth-retired-{key}": ("synth", {key: value}, f"synth config: unknown key {key!r}")
       for key, value in [("slide_mean_lo", 0.05), ("slide_mean_hi", 0.95),
                          ("density_concentration", 8.0), ("tile_size_px", 512), ("mpp", 0.5),
                          ("surv_base_hazard", 0.02), ("surv_beta_per_unit", -0.15),
                          ("surv_censor_lo", 24.0), ("surv_censor_hi", 120.0)]},
    # bytes are written as they are: JSON that is cut short, or not UTF-8
    "survival-truncated": ("survival", b'{"covariates": [',
                           "cfg.json: Expecting value: line 1 column 17 (char 16)"),
    "synth-not-utf8": ("synth", b'{"seed": "\xe9"}',
                       "cfg.json: not UTF-8 text (invalid continuation byte at byte 10)"),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_json_config_exits_2_by_name(case, tmp_path, capsys):
    command, config, message = BAD_CONFIGS[case]
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    # the configuration is read before any input, so the inputs need not exist
    argv = {"synth": [cfg],
            "tile": [tmp_path / "img.ppm", "--mpp", 0.5, "--config", cfg],
            "train": ["--bags", tmp_path, "--clinical", tmp_path / "c.csv", "--plan", "loco",
                      "--config", cfg],
            "survival": ["--predictions", tmp_path / "p.csv", "--clinical", tmp_path / "c.csv",
                         "--spec", cfg]}[command]
    assert run(command, *argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


PROBE_CLINICAL = ("slide_id,til_score_pct,os_months,os_event,age\n"
                  "s0,10,12.5,1,50\ns1,40,30,0,61\ns2,70,8,1,44\ns3,90,40,0,58\n")

# four 8-d bags on a two-cohort table, for the probes that get past the scan
PROBE_COHORT = {
    "clinical.csv": "slide_id,cohort,til_score_pct\ns0,a,10\ns1,a,40\ns2,b,70\ns3,b,90\n",
    **{f"bags/s{i}.bag": bagio.FeatureBag(f"s{i}", np.ones((2, 8)), [[0, 0], [0, 512]], 0.5)
       for i in range(4)}}
# these reach numpy's allocation without the ceiling, so a child runs them
# under this address-space cap
PROBE_AS_BYTES = 2 << 30
CAPPED_MAIN = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2); "
               "from tilscore.cli import main; sys.exit(main(sys.argv[2:]))")

# name: (command, extra flags, files written over the valid inputs, words the
# error must hold)
PROBES = {
    **{f"train-{flag[2:]}-{value}": ("train", [flag, value], {}, [f"{key} must be"])
       for flag, key, value in [("--max-epochs", "max_epochs", "0"),
                                ("--batch-size", "batch_size", "0"),
                                ("--lr", "lr", "-1"), ("--lr", "lr", "nan"),
                                ("--weight-decay", "weight_decay", "-1"),
                                ("--patience", "patience", "0"),
                                ("--enc-out", "enc_out", "0"),
                                # past the uint32 a checkpoint stores them as; --patience
                                # 4294967296 once trained fold 0, then exited 1 with a
                                # traceback and a 6-byte fold000.ckpt
                                ("--patience", "patience", "4294967296"),
                                ("--batch-size", "batch_size", "1000000000000"),
                                ("--max-epochs", "max_epochs", "4294967296"),
                                ("--enc-out", "enc_out", "4294967296"),
                                ("--attn-hidden", "attn_hidden", "4294967296")]},
    # terabytes of model state: numpy's _ArrayMemoryError once ended the run
    **{f"train-{flag[2:]}-1000000000": ("train", [flag, "1000000000"], PROBE_COHORT,
                                        [f"{key} 1000000000", "bag dim 8", "GiB ceiling"])
       for flag, key in [("--enc-out", "enc_out"), ("--attn-hidden", "attn_hidden")]},
    "train-dropout-config": ("train", ["--config", "cfg.json"],
                             {"cfg.json": '{"hyper": {"dropout_feature": 1.0}}'},
                             ["dropout_feature must be"]),
    "predict-members-missing": ("predict", [], {"model/ensemble.json": '{"plan": "loco"}'},
                                ["ensemble.json", '"members" list']),
    "predict-manifest-list": ("predict", [], {"model/ensemble.json": '["fold000.ckpt"]'},
                              ["ensemble.json", "JSON object"]),
    "predict-member-number": ("predict", [], {"model/ensemble.json": '{"members": [0]}'},
                              ["ensemble.json", '"members"']),
    "predict-manifest-truncated": ("predict", [], {"model/ensemble.json": '{"members": '},
                                   ["ensemble.json: Expecting value: line 1 column 13"]),
    **{f"{command}-cutoffs-{value}": (command, ["--cutoffs", f"10,{value}"], {},
                                      ["--cutoffs", repr(value)])
       for command in ("evaluate", "survival") for value in ("nan", "inf", "-5", "150")},
    **{f"train-plan-{value}": ("train", ["--plan", value], {}, ["--plan", repr(value)])
       for value in ("centre:x", "centre:", "centre:1", "kfold:3")},
    **{f"{command}-{name}": (command, [], {"clinical.csv": PROBE_CLINICAL.replace(
        "s1,40,30,0,61", row)}, ["line 3", word])
       for command in ("evaluate", "survival")
       for name, row, word in [("os-months-0", "s1,40,0,0,61", "os_months '0'"),
                               ("os-months-negative", "s1,40,-5,0,61", "os_months '-5'"),
                               ("covariate-nan", "s1,40,30,0,nan", "'age'"),
                               ("covariate-inf", "s1,40,30,0,inf", "'age'"),
                               ("score-not-a-number", "s1,x,30,0,61", "til_score_pct 'x'"),
                               ("os-months-not-a-number", "s1,40,x,0,61", "os_months 'x'"),
                               ("os-event-not-a-number", "s1,40,30,x,61", "os_event 'x'")]},
    **{f"{command}-{name}": (command, [], {file: text}, ["line 3", word])
       for command in ("evaluate", "survival")
       for name, file, text, word in [
           ("second-score-not-a-number", "clinical.csv",
            "slide_id,til_score_pct,til_score_pct_2\ns0,10,\ns1,40,y\n", "til_score_pct_2 'y'"),
           ("prediction-not-a-number", "preds.csv", "slide_id,ectil_score\ns0,0.1\ns1,abc\n",
            "ectil_score 'abc'"),
           ("prediction-out-of-range", "preds.csv", "slide_id,ectil_score\ns0,0.1\ns1,1.5\n",
            "ectil_score 1.5 outside [0, 1]")]},
    # a factor of one level would leave no indicator column, so the
    # multivariable models would silently be the univariable ones
    "survival-single-level-factor": (
        "survival", ["--spec", "spec.json"],
        {"clinical.csv": "slide_id,til_score_pct,os_months,os_event,grade\n"
                         "s0,10,12.5,1,G1\ns1,40,30,0,G1\ns2,70,8,1,G1\ns3,90,40,0,G1\n",
         "spec.json": '{"covariates": [{"column": "grade", "kind": "factor"}]}'},
        ["factor 'grade' has only one level, 'G1'"]),
    # the slide is a header without its raster, so each flag must be checked
    # before the raster is read
    **{f"tile-{name}": ("tile", flags, {"slide.ppm": "P6\n700 600\n255\n", **files}, words)
       for name, flags, files, words in [
           ("mpp-inf", ["--mpp", "inf"], {}, ["--mpp", "inf"]),
           ("mpp-sidecar-inf", [], {"slide.ppm.mpp": "inf\n"}, ["slide.ppm.mpp", "inf"]),
           ("tile-size-0", ["--mpp", "0.5", "--tile-size", "0"], {}, ["--tile-size", "0"]),
           ("tile-size-negative", ["--mpp", "0.5", "--tile-size", "-5"], {},
            ["--tile-size", "-5"]),
           ("target-mpp-nan", ["--mpp", "0.5", "--target-mpp", "nan"], {},
            ["--target-mpp", "nan"]),
           ("mpp-1e300", ["--mpp", "1e300"], {},
            ["--tile-size 512", "--target-mpp 0.5", "--mpp 1e+300", "spans 2.56e-298 source"]),
           ("rescale-underflow", ["--mpp", "1e-300", "--target-mpp", "1e300"], {},
            ["--tile-size 512", "--target-mpp 1e+300", "--mpp 1e-300", "spans inf source"]),
       ]},
    # one "fesi" value out of each FesiParams.validate rule
    **{f"tile-fesi-{key}-{value}": ("tile", ["--mpp", "0.5", "--config", "cfg.json"],
                                    {"slide.ppm": "P6\n700 600\n255\n",
                                     "cfg.json": f'{{"fesi": {{"{key}": {value}}}}}'},
                                    [f"{key} must be", f"got {value.lower()}"])
       for key, value in [("downsample", "0"), ("morph_size", "-3"),
                          ("pre_sigma", "-1"), ("pre_sigma", "NaN"), ("smooth_sigma", "-2")]},
    # sigmas that overflowed the kernel radius, or made one filter band gigabytes
    **{f"tile-fesi-{key}-{value}": ("tile", ["--mpp", "0.5", "--config", "cfg.json"],
                                    {"slide.ppm": "P6\n700 600\n255\n",
                                     "cfg.json": f'{{"fesi": {{"{key}": {value}}}}}'},
                                    [f"{key} must be in [0, 256], got {float(value)!r}"])
       for key, value in [("smooth_sigma", "1e308"), ("pre_sigma", "1e6")]},
    # a scale that leaves a covariate non-finite, which numpy's SVD then met
    **{f"survival-scale-{value}": ("survival", ["--spec", "spec.json"],
                                   {"spec.json": '{"covariates": [{"column": "age", '
                                                 f'"scale": {value}}}]}}'},
                                   ["numeric column 'age' at scale", "is not finite"])
       for value in ("NaN", "Infinity", "1e308")},
}


@pytest.mark.parametrize("case", PROBES)
def test_bad_input_exits_2_by_name(case, tmp_path, capsys):
    command, flags, files, words = PROBES[case]
    (tmp_path / "model").mkdir()
    (tmp_path / "clinical.csv").write_text(PROBE_CLINICAL)
    bagio.write_predictions([(f"s{i}", 0.1 + 0.2 * i) for i in range(4)],
                            tmp_path / "preds.csv")
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if isinstance(content, bagio.FeatureBag):
            bagio.write_bag(content, tmp_path / name)
        else:
            (tmp_path / name).write_text(content)
    out = tmp_path / "o"
    # train and predict fail before any bag is read, so the bag directory is
    # absent, but for PROBE_COHORT's
    argv = {"train": ["--bags", tmp_path / "bags", "--clinical", tmp_path / "clinical.csv",
                      "--plan", "loco"],
            "predict": ["--model", tmp_path / "model", "--bags", tmp_path / "bags"],
            "evaluate": ["--predictions", tmp_path / "preds.csv",
                         "--clinical", tmp_path / "clinical.csv"],
            "survival": ["--predictions", tmp_path / "preds.csv",
                         "--clinical", tmp_path / "clinical.csv"],
            "tile": [tmp_path / "slide.ppm"]}[command]
    flags = [tmp_path / f if f.endswith(".json") else f for f in flags]
    if files is PROBE_COHORT:
        done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, str(PROBE_AS_BYTES), command,
                               *map(str, [*argv, *flags, "--out", out])],
                              env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True)
        code, err = done.returncode, done.stderr
    else:
        code, err = run(command, *argv, *flags, "--out", out), capsys.readouterr().err
    assert code == 2, err
    for word in words:
        assert word in err, err
    assert not out.exists()


def test_synth_bag_past_the_ceiling_exits_2(tmp_path):
    # a bag of 1e9 tiles at dim 2048 once went on to numpy's allocation; a
    # child runs it under the probes' address-space cap
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps({"n_slides": 1, "tiles_max": 10**9, "dim": 2048}))
    done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, str(PROBE_AS_BYTES), "synth",
                           str(cfg), "--out", str(out)],
                          env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (
        "error: tiles_max must be at most 65536 at dim 2048, so one bag's float64 features "
        "stay under the 1 GiB ceiling, got 1000000000\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "survival"])
@pytest.mark.parametrize("bad", ["preds.csv", "clinical.csv"])
def test_csv_error_names_its_file(command, bad, tmp_path, capsys):
    # both tables word their faults alike, so only the path tells them apart
    (tmp_path / "clinical.csv").write_text(PROBE_CLINICAL)
    bagio.write_predictions([(f"s{i}", 0.1 + 0.2 * i) for i in range(4)],
                            tmp_path / "preds.csv")
    path = tmp_path / bad
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][lines[2].index(","):]  # line 3 loses its slide id
    path.write_text("".join(lines))
    assert run(command, "--predictions", tmp_path / "preds.csv",
               "--clinical", tmp_path / "clinical.csv", "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: empty slide_id\n"


@pytest.mark.parametrize("command", ["evaluate", "survival"])
def test_latin1_cell_names_the_file(command, tmp_path, capsys):
    clinical = tmp_path / "clinical.csv"
    head = b"slide_id,til_score_pct,os_months,os_event,note\ns0,10,12.5,1,caf"
    clinical.write_bytes(head + "é\ns1,40,30,0,\n".encode("latin-1"))
    bagio.write_predictions([(f"s{i}", 0.1 + 0.2 * i) for i in range(4)],
                            tmp_path / "preds.csv")
    assert run(command, "--predictions", tmp_path / "preds.csv", "--clinical", clinical,
               "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (f"error: {clinical}: not UTF-8 text "
                                       f"(invalid continuation byte at byte {len(head)})\n")


class TestTile:
    def test_white_image_keeps_zero_tiles(self, tmp_path):
        img = tmp_path / "white.ppm"
        write_ppm(img, np.full((1024, 1024, 3), 255, dtype=np.uint8))
        out = tmp_path / "out"
        assert run("tile", img, "--mpp", 0.5, "--out", out) == 0
        _, _, tiles, kept = read_manifest(out / "tiles.tsv")
        assert len(tiles) == 4 and kept.sum() == 0
        assert (out / "mask.pgm").exists()
        assert (out / "run_config.json").exists()

    def test_blob_image_keeps_blob_tiles(self, tmp_path):
        pixels, truth_at = noisy_disc(n=2048, radius=800.0)
        img = tmp_path / "blob.ppm"
        write_ppm(img, pixels)
        out = tmp_path / "out"
        assert run("tile", img, "--mpp", 0.5, "--out", out) == 0
        _, _, tiles, kept = read_manifest(out / "tiles.tsv")
        truth = truth_at(8)
        for (x, y), k in zip(tiles, kept):
            cell = truth[y // 8 : y // 8 + 64, x // 8 : x // 8 + 64]
            if cell.mean() > 0.05:
                assert k
        mask = read_pgm(out / "mask.pgm")
        assert set(np.unique(mask)) <= {0, 255}

    def test_missing_mpp_is_usage_error(self, tmp_path):
        img = tmp_path / "img.ppm"
        write_ppm(img, np.zeros((64, 64, 3), dtype=np.uint8))
        assert run("tile", img, "--out", tmp_path / "o") == 2

    def test_mpp_sidecar_used(self, tmp_path):
        img = tmp_path / "img.ppm"
        write_ppm(img, np.full((1024, 1024, 3), 255, dtype=np.uint8))
        (tmp_path / "img.ppm.mpp").write_text("0.25")
        out = tmp_path / "o"
        assert run("tile", img, "--out", out) == 0
        _, rescale, tiles, _ = read_manifest(out / "tiles.tsv")
        assert rescale == 0.5 and len(tiles) == 1


    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--workers", "2"]])
    def test_ignored_flags_rejected(self, tmp_path, flag):
        img = tmp_path / "img.ppm"
        write_ppm(img, np.full((64, 64, 3), 255, dtype=np.uint8))
        with pytest.raises(SystemExit) as exc:
            run("tile", img, "--mpp", 0.5, "--out", tmp_path / "o", *flag)
        assert exc.value.code == 2

    def test_config_sets_masking_params(self, tmp_path):
        img = tmp_path / "img.ppm"
        write_ppm(img, np.full((1024, 1024, 3), 255, dtype=np.uint8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fesi": {"downsample": 16}}))
        out = tmp_path / "o"
        assert run("tile", img, "--mpp", 0.5, "--out", out, "--config", cfg) == 0
        assert read_pgm(out / "mask.pgm").shape == (64, 64)

    def test_raster_is_streamed_in_strips(self, tmp_path, monkeypatch, eight_cpus):
        pixels, _ = noisy_disc(n=2048, radius=800.0)
        img = tmp_path / "blob.ppm"
        write_ppm(img, pixels)
        one_strip = foreground.compute_foreground(foreground.PpmSlide(img)).bits  # 12.6 MB: one strip
        monkeypatch.setattr(pnm, "STRIP_BYTES", 1 << 20)  # 1 MiB: 13 strips
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run("tile", img, "--mpp", 0.5, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < pixels.nbytes / 4, f"peak {peak} of {pixels.nbytes} bytes"
        assert np.array_equal(read_pgm(out / "mask.pgm") > 0, one_strip)

    def test_outputs_across_blas_thread_counts(self, tmp_path):
        # masking makes no BLAS call, so the thread count cannot reorder a sum
        img = tmp_path / "disc.ppm"
        write_ppm(img, noisy_disc(n=1024, radius=300.0, seed=3)[0])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "tilscore.cli", "tile", str(img), "--mpp", "0.5",
                            "--out", str(out)],
                           env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, check=True)
            runs.append({name: (out / name).read_bytes() for name in ("mask.pgm", "tiles.tsv")})
        assert runs[0] == runs[1]

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs os.sched_getaffinity and two usable CPUs")
    def test_outputs_across_cpu_affinity(self, tmp_path):
        # masking splits its work between one worker per usable CPU, up to two
        img = tmp_path / "disc.ppm"
        write_ppm(img, noisy_disc(n=1024, radius=300.0, seed=3)[0])
        one_cpu = min(os.sched_getaffinity(0))
        runs = []
        for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None):
            out = tmp_path / ("one_cpu" if pin else "all_cpus")
            subprocess.run([sys.executable, "-m", "tilscore.cli", "tile", str(img), "--mpp", "0.5",
                            "--out", str(out)],
                           env=subprocess_env(), preexec_fn=pin, capture_output=True, check=True)
            runs.append({name: (out / name).read_bytes() for name in ("mask.pgm", "tiles.tsv")})
        assert runs[0] == runs[1]

    def test_truncated_raster_exits_2_before_any_strip(self, tmp_path, monkeypatch, capsys):
        img = tmp_path / "short.ppm"
        img.write_bytes(b"P6\n700 600\n255\n" + bytes(1000))
        monkeypatch.setattr(pnm, "read_ppm_strips", lambda *a: pytest.fail("a strip was read"))
        out = tmp_path / "o"
        assert run("tile", img, "--mpp", 0.5, "--out", out) == 2
        assert "short.ppm: raster truncated (1000 of 1260000 bytes)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_raster_file_is_closed_on_every_path(self, tmp_path, monkeypatch):
        img = tmp_path / "img.ppm"
        write_ppm(img, np.full((256, 256, 3), 255, dtype=np.uint8))
        short = tmp_path / "short.ppm"
        short.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        calls, block_sums = itertools.count(), foreground._block_sums

        def failing_block_sums(*args):  # fails while the second strip is summed
            if next(calls) == 2:
                raise ValueError("injected")
            return block_sums(*args)

        opened = []

        def spy_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(pnm, "open", spy_open, raising=False)
        monkeypatch.setattr(pnm, "STRIP_BYTES", 1 << 16)  # 80-row strips
        # one worker sums the strips in order, so the injected failure ends
        # the summing; test_foreground.py's TestWorkers fails a second worker
        monkeypatch.setattr(foreground, "_workers", lambda: 1)
        for image, code in [(img, 0), (short, 2)]:
            n_open = len(opened)
            assert run("tile", image, "--mpp", 0.5, "--out", tmp_path / "o") == code
            assert len(opened) > n_open and all(fh.closed for fh in opened)
        # a plain ValueError is a program fault: main lets it out, not exit 2
        monkeypatch.setattr(foreground, "_block_sums", failing_block_sums)
        n_open = len(opened)
        with pytest.raises(ValueError, match="^injected$"):
            run("tile", img, "--mpp", 0.5, "--out", tmp_path / "o")
        assert len(opened) > n_open and all(fh.closed for fh in opened)
        assert next(calls) == 3


class TestSynth:
    def test_outputs_and_oracle_labels(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_synth_config(cfg_path)
        out = tmp_path / "cohort"
        assert run("synth", cfg_path, "--out", out) == 0
        records = bagio.load_clinical(out / "clinical.csv")
        assert len(records) == cfg["n_slides"]
        bags, expected = bagio.synth_cohort(bagio.SynthConfig(**cfg))
        by_id = {r.slide_id: r for r in records}
        for exp in expected:
            assert by_id[exp.slide_id].til_score_pct == pytest.approx(exp.til_score_pct, abs=1e-9)
        bag = bagio.read_bag(out / "bags" / "synth0000.bag")
        assert np.array_equal(bag.features, bags[0].features)

    def test_fixed_seed_stable_hashes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_synth_config(cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("synth", cfg_path, "--out", out_a) == 0
        assert run("synth", cfg_path, "--out", out_b) == 0
        ha, hb = dir_hashes(out_a / "bags"), dir_hashes(out_b / "bags")
        assert ha == hb
        assert (out_a / "clinical.csv").read_bytes() == (out_b / "clinical.csv").read_bytes()

    def test_zero_slides_is_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_synth_config(cfg_path, n_slides=0)
        assert run("synth", cfg_path, "--out", tmp_path / "o") == 2


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg_path = root / "cfg.json"
    write_synth_config(cfg_path, n_slides=40, tiles_min=4, tiles_max=10)
    assert run("synth", cfg_path, "--out", root) == 0
    return root


@pytest.fixture(scope="module")
def blas_thread_runs(tmp_path_factory):
    """The checkpoints of one paper-shape `train` (2048 -> 512 -> 128, 12 bags
    of 100-300 tiles, 2 epochs) at 1, 2 and again 2 OpenBLAS threads."""
    root = tmp_path_factory.mktemp("blas_threads")
    write_synth_config(root / "cfg.json", n_slides=12, tiles_min=100, tiles_max=300, dim=2048)
    assert run("synth", root / "cfg.json", "--out", root) == 0
    runs = {}
    for name, threads in [("one", "1"), ("two", "2"), ("two_again", "2")]:
        argv = ["train", "--bags", root / "bags", "--clinical", root / "clinical.csv",
                "--plan", "loco", "--out", root / name, "--lr", 3e-3, "--batch-size", 4,
                "--max-epochs", 2]
        subprocess.run([sys.executable, "-m", "tilscore.cli", *map(str, argv)],
                       env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        runs[name] = [root / name / f"fold{fold:03d}.ckpt" for fold in range(2)]
    return runs


TRAIN_FLAGS = ["--enc-out", 8, "--attn-hidden", 4, "--lr", 3e-3, "--batch-size", 8,
               "--max-epochs", 12, "--patience", 12]


class TestTrainPredict:
    def test_loco_two_cohorts_two_checkpoints(self, small_cohort, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--bags", small_cohort / "bags", "--clinical",
                   small_cohort / "clinical.csv", "--plan", "loco", "--out", out,
                   *TRAIN_FLAGS) == 0
        manifest = json.loads((out / "ensemble.json").read_text())
        assert manifest["members"] == ["fold000.ckpt", "fold001.ckpt"]
        assert len(manifest["champions"]) == 2
        assert (out / "fold_plan.csv").exists()
        assert (out / "history.json").exists()

    def test_rerun_same_seed_identical_checkpoints(self, small_cohort, tmp_path):
        args = ["train", "--bags", small_cohort / "bags", "--clinical",
                small_cohort / "clinical.csv", "--plan", "loco", "--seed", 3, *TRAIN_FLAGS]
        runs = []
        for name in ("a", "b"):
            train_out, pred_out = tmp_path / name / "train", tmp_path / name / "pred"
            assert run(*args, "--out", train_out) == 0
            assert run("predict", "--model", train_out, "--bags", small_cohort / "bags",
                       "--out", pred_out) == 0
            outputs = dir_hashes(train_out) | dir_hashes(pred_out)
            del outputs["run_config.json"]  # echoes --out, so differs by design
            runs.append(outputs)
        assert sorted(runs[0]) == ["ensemble.json", "fold000.ckpt", "fold001.ckpt",
                                   "fold_plan.csv", "history.json", "predictions.csv"]
        assert runs[0] == runs[1]

    def test_checkpoints_across_blas_thread_counts(self, blas_thread_runs):
        # another BLAS thread count may sum a GEMM in another order: parameters
        # agree to 1e-12 across thread counts, and byte for byte within one
        for one, two, two_again in zip(*blas_thread_runs.values(), strict=True):
            assert two.read_bytes() == two_again.read_bytes()
            (p1, h1), (p2, h2) = load_checkpoint(one), load_checkpoint(two)
            assert h1 == h2
            np.testing.assert_allclose(p1.flat, p2.flat, rtol=0, atol=1e-12)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="one usable CPU: OpenBLAS cannot run 2 threads in parallel")
    def test_checkpoints_differ_across_blas_thread_counts(self, blas_thread_runs):
        # at the fixture's paper shape 1 and 2 threads do sum differently, so
        # its 1e-12 bound is a bound on a real difference
        assert any(one.read_bytes() != two.read_bytes()
                   for one, two in zip(blas_thread_runs["one"], blas_thread_runs["two"]))

    def test_centre_kfold_plan_respects_groups(self, small_cohort, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--bags", small_cohort / "bags", "--clinical",
                   small_cohort / "clinical.csv", "--plan", "centre:5", "--out", out,
                   *TRAIN_FLAGS, "--max-epochs", 2) == 0
        records = bagio.load_clinical(small_cohort / "clinical.csv")
        fold_by_slide = dict(
            line.split(",") for line in
            (out / "fold_plan.csv").read_text().splitlines()[1:])
        centre_folds = {}
        for r in records:
            centre_folds.setdefault(r.centre, set()).add(fold_by_slide[r.slide_id])
        assert all(len(v) == 1 for v in centre_folds.values())

    def test_predict_single_vs_identical_ensemble(self, small_cohort, tmp_path):
        train_out = tmp_path / "run"
        assert run("train", "--bags", small_cohort / "bags", "--clinical",
                   small_cohort / "clinical.csv", "--plan", "loco", "--out", train_out,
                   *TRAIN_FLAGS, "--max-epochs", 2) == 0
        single_out = tmp_path / "pred_single"
        assert run("predict", "--model", train_out / "fold000.ckpt", "--bags",
                   small_cohort / "bags", "--out", single_out) == 0
        preds = bagio.read_predictions(single_out / "predictions.csv")
        assert all(0.0 <= v <= 1.0 for v in preds.values())

        from tilscore.folds import Ensemble, load_ensemble, save_ensemble

        ens = load_ensemble(train_out / "fold000.ckpt")
        clones = Ensemble(members=[ens.members[0].copy() for _ in range(5)], hyper=ens.hyper)
        clone_dir = tmp_path / "clones"
        save_ensemble(clones, clone_dir)
        clone_out = tmp_path / "pred_clones"
        assert run("predict", "--model", clone_dir, "--bags", small_cohort / "bags",
                   "--out", clone_out) == 0
        preds_clone = bagio.read_predictions(clone_out / "predictions.csv")
        for sid, val in preds.items():
            assert preds_clone[sid] == pytest.approx(val, abs=1e-12)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One synth -> train -> predict -> evaluate -> survival -> heatmap chain
    and one tile run, each command's --out named after it."""
    root = tmp_path_factory.mktemp("chain")
    write_synth_config(root / "cfg.json", survival=True)
    write_ppm(root / "white.ppm", np.full((1024, 1024, 3), 255, dtype=np.uint8))
    cohort = root / "synth"
    joined = ["--predictions", root / "predict" / "predictions.csv",
              "--clinical", cohort / "clinical.csv"]
    steps = {
        "synth": [root / "cfg.json"],
        "train": ["--bags", cohort / "bags", "--clinical", cohort / "clinical.csv",
                  "--plan", "centre:3", *TRAIN_FLAGS, "--max-epochs", 2],
        "predict": ["--model", root / "train", "--bags", cohort / "bags"],
        "evaluate": joined,
        "survival": joined,
        "heatmap": ["--model", root / "train" / "fold000.ckpt",
                    "--bag", cohort / "bags" / "synth0000.bag"],
        "tile": [root / "white.ppm", "--mpp", 0.5],
    }
    for command, argv in steps.items():
        assert run(command, *argv, "--out", root / command) == 0
    return root


def run_config_extra(command: str, root: Path) -> dict:
    """The values that `command` adds to its run_config.json."""
    records = bagio.load_clinical(root / "synth" / "clinical.csv")
    cfg = json.loads((root / "cfg.json").read_text())
    hyper = HyperParams(enc_out=8, attn_hidden=4, lr=3e-3, batch_size=8, max_epochs=2,
                        patience=12)
    return {
        "synth": {"effective_config": dataclasses.asdict(bagio.SynthConfig(**cfg))},
        "train": {"hyper": dataclasses.asdict(hyper), "k": 3},
        "predict": {"n_slides": len(records), "n_members": 3},
        "evaluate": {"n": len(records)},
        "survival": {"n": sum(r.os_months is not None for r in records)},
        "heatmap": {"n_tiles": bagio.read_bag(root / "synth" / "bags" / "synth0000.bag").n_tiles},
        "tile": {"mpp": 0.5, "n_tiles": 4, "n_kept": 0},
    }[command]


@pytest.mark.parametrize("command", ["synth", "train", "predict", "evaluate", "survival",
                                     "heatmap", "tile"])
def test_run_config_echoes_command_version_and_extras(chain, command):
    config = json.loads((chain / command / "run_config.json").read_text())
    assert config["command"] == command
    assert config["version"] == tilscore.__version__
    assert config["out"] == str(chain / command)
    assert "func" not in config
    extra = run_config_extra(command, chain)
    assert {key: config.get(key) for key in extra} == extra


def write_bags(bag_dir: Path, n: int, dim: int, n_tiles: int = 300, seed: int = 0) -> None:
    bag_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(n):
        bag = bagio.FeatureBag(slide_id=f"s{i:03d}",
                               features=rng.standard_normal((n_tiles, dim), dtype=np.float32),
                               tile_xy=np.zeros((n_tiles, 2)), mpp=0.5)
        bagio.write_bag(bag, bag_dir / f"{bag.slide_id}.bag")


class TestPredictStreaming:
    DIM = 256

    @pytest.fixture
    def model(self, tmp_path):
        hyper = HyperParams(enc_out=8, attn_hidden=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(1, hyper, dim=self.DIM), hyper, path)
        return path

    def test_peak_memory_flat_in_cohort_size(self, model, tmp_path):
        def predict(n):
            return run("predict", "--model", model, "--bags", tmp_path / f"bags{n}",
                       "--out", tmp_path / f"out{n}")

        def traced_peak(n):
            tracemalloc.start()
            try:
                assert predict(n) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n in (8, 32):
            write_bags(tmp_path / f"bags{n}", n, self.DIM)
        assert predict(8) == 0  # imports the model's lazy dependencies untraced
        small, large = traced_peak(8), traced_peak(32)
        assert large <= 1.5 * small, f"32 bags peak {large} B, 8 bags peak {small} B"

    def test_rows_sorted_by_slide_id_not_file_name(self, model, tmp_path):
        write_bags(tmp_path / "bags", 3, self.DIM, n_tiles=5)
        (tmp_path / "bags" / "s000.bag").rename(tmp_path / "bags" / "z.bag")
        assert run("predict", "--model", model, "--bags", tmp_path / "bags",
                   "--out", tmp_path / "o") == 0
        rows = (tmp_path / "o" / "predictions.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["s000", "s001", "s002"]

    def test_bad_bag_writes_nothing(self, model, tmp_path, capsys):
        write_bags(tmp_path / "bags", 4, self.DIM, n_tiles=5)
        data = (tmp_path / "bags" / "s003.bag").read_bytes()
        (tmp_path / "bags" / "s003.bag").write_bytes(data[:-3])
        out = tmp_path / "o"
        assert run("predict", "--model", model, "--bags", tmp_path / "bags", "--out", out) == 2
        assert "inside features" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_duplicate_slide_id_is_usage_error(self, model, tmp_path, capsys):
        write_bags(tmp_path / "bags", 3, self.DIM, n_tiles=5)
        shutil.copy(tmp_path / "bags" / "s001.bag", tmp_path / "bags" / "t.bag")
        out = tmp_path / "o"
        assert run("predict", "--model", model, "--bags", tmp_path / "bags", "--out", out) == 2
        err = capsys.readouterr().err
        assert "s001.bag" in err and "t.bag" in err and "'s001'" in err
        assert not (out / "predictions.csv").exists()


class TestTrainStreaming:
    DIM = 256
    FLAGS = ["--plan", "centre:2", "--enc-out", 8, "--attn-hidden", 4, "--batch-size", 4,
             "--max-epochs", 1]

    @staticmethod
    def write_cohort(root: Path, n: int, n_tiles: int = 300) -> None:
        """`n` bags of `n_tiles` tiles in `root / "bags"` and their clinical table."""
        write_bags(root / "bags", n, TestTrainStreaming.DIM, n_tiles=n_tiles)
        labels = np.random.default_rng(n).uniform(5.0, 95.0, n)
        (root / "clinical.csv").write_text("slide_id,cohort,centre,til_score_pct\n" + "".join(
            f"s{i:03d},k,c{i % 4},{label:.6f}\n" for i, label in enumerate(labels)))

    def train(self, root: Path, out: Path) -> int:
        return run("train", "--bags", root / "bags", "--clinical", root / "clinical.csv",
                   "--out", out, *self.FLAGS)

    def test_peak_memory_flat_in_cohort_size(self, tmp_path):
        def traced_peak(n):
            tracemalloc.start()
            try:
                assert self.train(tmp_path / f"c{n}", tmp_path / f"out{n}") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n in (8, 32):
            self.write_cohort(tmp_path / f"c{n}", n)
        assert self.train(tmp_path / "c8", tmp_path / "warm") == 0  # untraced imports
        small, large = traced_peak(8), traced_peak(32)
        assert large <= 1.5 * small, f"32 bags peak {large} B, 8 bags peak {small} B"

    def test_bag_rewritten_after_the_scan_is_named(self, tmp_path, monkeypatch, capsys):
        self.write_cohort(tmp_path, 8, n_tiles=5)
        out = tmp_path / "run"
        assert self.train(tmp_path, out) == 0  # leaves an ensemble.json behind
        (out / "run_config.json").unlink()
        folds_begun = []
        real_train = milnet.train

        def train_then_rewrite(*args, **kwargs):
            folds_begun.append(len(folds_begun))
            if len(folds_begun) == 2:  # fold 0 is written; fold 1 meets s000 with 6 tiles
                write_bags(tmp_path / "bags", 1, self.DIM, n_tiles=6)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(milnet, "train", train_then_rewrite)
        assert self.train(tmp_path, out) == 2
        err = capsys.readouterr().err
        # the fold that met it is named, as for every bad input during training
        assert err == (f"error: fold 1: {tmp_path / 'bags' / 's000.bag'} changed since it was "
                       "scanned: it holds 's000' 6x256, not 's000' 5x256\n")
        assert (out / "fold000.ckpt").exists()
        assert not (out / "ensemble.json").exists()
        # written when the run opened its directory, before fold 0 began
        assert json.loads((out / "run_config.json").read_text())["k"] == 2

    def test_validation_bag_of_another_dim_exits_2_before_any_epoch(self, tmp_path,
                                                                    monkeypatch, capsys):
        self.write_cohort(tmp_path, 8, n_tiles=5)
        assert self.train(tmp_path, tmp_path / "first") == 0
        plan = (tmp_path / "first" / "fold_plan.csv").read_text().splitlines()[1:]
        sid = next(line.split(",")[0] for line in plan if line.endswith(",0"))
        narrow = bagio.FeatureBag(slide_id=sid, features=np.ones((5, self.DIM - 1), np.float32),
                                  tile_xy=np.zeros((5, 2)), mpp=0.5)
        bagio.write_bag(narrow, tmp_path / "bags" / f"{sid}.bag")  # validated in fold 0
        steps = []
        monkeypatch.setattr(milnet, "adam_step", lambda *args: steps.append(args))
        assert self.train(tmp_path, tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert err == (f"error: fold 0: bag '{sid}' has dim {self.DIM - 1}, "
                       f"the first training bag {self.DIM}\n")
        assert steps == []
        assert not (tmp_path / "run" / "fold000.ckpt").exists()


# ways to spoil the bytes of a bag whose slide id has 4 characters, and what
# the error then says after the file's path
BAD_BAGS = {
    "magic": (lambda data: b"NOPE" + data[4:], "bad magic"),
    "version": (lambda data: data[:4] + struct.pack("<H", 9) + data[6:],
                "unsupported bag version 9"),
    "slide id": (lambda data: data[:8] + b"\xff" + data[9:], "slide id is not UTF-8"),
    "shape": (lambda data: data[:12] + struct.pack("<I", 0) + data[16:],
              "invalid bag shape 0x256"),
    "truncated": (lambda data: data[:-3], "stream ended inside features"),
    "trailing": (lambda data: data + b"junk", "trailing bytes after bag"),
    "non-finite": (lambda data: data[:-4] + struct.pack("<f", np.nan),
                   "bag 's003' contains non-finite features"),
}


@pytest.mark.parametrize("case", BAD_BAGS)
@pytest.mark.parametrize("command", ["train", "predict"])
def test_bad_bag_file_is_named(command, case, tmp_path, capsys):
    TestTrainStreaming.write_cohort(tmp_path, 4, n_tiles=5)
    bad = tmp_path / "bags" / "s003.bag"
    spoil, message = BAD_BAGS[case]
    bad.write_bytes(spoil(bad.read_bytes()))
    if command == "train":
        code = TestTrainStreaming().train(tmp_path, tmp_path / "o")
    else:
        hyper = HyperParams(enc_out=8, attn_hidden=4)
        save_checkpoint(init_params(1, hyper, dim=TestTrainStreaming.DIM), hyper,
                        tmp_path / "m.ckpt")
        code = run("predict", "--model", tmp_path / "m.ckpt", "--bags", tmp_path / "bags",
                   "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}"), err
    assert err.count(str(bad)) == 1


def test_train_duplicate_slide_id_is_usage_error(small_cohort, tmp_path, capsys):
    bags = tmp_path / "bags"
    shutil.copytree(small_cohort / "bags", bags)
    shutil.copy(bags / "synth0003.bag", bags / "zz.bag")
    assert run("train", "--bags", bags, "--clinical", small_cohort / "clinical.csv",
               "--plan", "loco", "--out", tmp_path / "run", *TRAIN_FLAGS) == 2
    err = capsys.readouterr().err
    assert "synth0003.bag" in err and "zz.bag" in err and "'synth0003'" in err
    assert not (tmp_path / "run" / "ensemble.json").exists()


def test_train_non_finite_loss_names_fold_epoch_and_slide(small_cohort, tmp_path, capsys):
    flags = ["--enc-out", 8, "--attn-hidden", 4, "--lr", 1e200, "--batch-size", 8,
             "--max-epochs", 3, "--patience", 3]
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", "--bags", small_cohort / "bags", "--clinical",
                   small_cohort / "clinical.csv", "--plan", "loco", "--out", tmp_path / "run",
                   *flags) == 2
    err = capsys.readouterr().err
    assert re.search(r"error: fold 0: non-finite loss nan in epoch 1 on slide 'synth\d+'", err)
    assert not (tmp_path / "run" / "ensemble.json").exists()


def test_train_non_finite_validation_prediction_names_fold_epoch_and_slide(small_cohort,
                                                                           tmp_path, capsys):
    # one batch, so the step that breaks the weights is taken before any loss is non-finite
    flags = ["--enc-out", 8, "--attn-hidden", 4, "--lr", 1e308, "--batch-size", 32,
             "--max-epochs", 1]
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", "--bags", small_cohort / "bags", "--clinical",
                   small_cohort / "clinical.csv", "--plan", "loco", "--out", tmp_path / "run",
                   *flags) == 2
    err = capsys.readouterr().err
    assert re.search(r"error: fold 0: non-finite validation prediction nan in epoch 1 "
                     r"on slide 'synth\d+'", err), err
    assert not (tmp_path / "run" / "ensemble.json").exists()


@pytest.mark.parametrize("lr", [1e6, 1e30])
def test_train_records_undefined_val_pearson_as_null(small_cohort, tmp_path, capsys, lr):
    # the sigmoid saturates, so every validation prediction is the same
    flags = ["--enc-out", 8, "--attn-hidden", 4, "--lr", lr, "--max-epochs", 3]
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", "--bags", small_cohort / "bags", "--clinical",
                   small_cohort / "clinical.csv", "--plan", "loco", "--out", tmp_path / "run",
                   *flags) == 0
    champions = json.loads((tmp_path / "run" / "ensemble.json").read_text())["champions"]
    assert [c["val_pearson"] for c in champions] == [None, None]
    assert all(math.isfinite(c["val_explained_variance"]) for c in champions)
    out = capsys.readouterr().out
    assert out.count("val_r NA\n") == 2, out


def test_predict_non_finite_score_names_the_slide(small_cohort, tmp_path, capsys):
    # finite weights whose attention logits overflow: inf - inf in the softmax
    hyper = HyperParams(enc_out=8, attn_hidden=4)
    params = init_params(0, hyper, dim=16)
    params.attn_w[:] = 1e308
    params.attn_v_b[:] = params.attn_u_b[:] = 50.0  # tanh and sigmoid gates at 1
    save_checkpoint(params, hyper, tmp_path / "m.ckpt")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("predict", "--model", tmp_path / "m.ckpt", "--bags", small_cohort / "bags",
                   "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    bag = small_cohort / "bags" / "synth0000.bag"
    assert err == f"error: {bag}: --model {tmp_path / 'm.ckpt'} scores slide 'synth0000' nan\n"
    assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path):
        clinical = tmp_path / "clinical.csv"
        clinical.write_text("slide_id,til_score_pct\n" +
                            "".join(f"s{i},{v}\n" for i, v in enumerate([5, 20, 35, 60, 80])))
        preds = tmp_path / "preds.csv"
        bagio.write_predictions([(f"s{i}", v / 100.0) for i, v in enumerate([5, 20, 35, 60, 80])], preds)
        out = tmp_path / "out"
        assert run("evaluate", "--predictions", preds, "--clinical", clinical, "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["pearson"] == pytest.approx(1.0, abs=1e-12)
        assert metrics["spearman"] == pytest.approx(1.0, abs=1e-12)
        assert metrics["ccc"] == pytest.approx(1.0, abs=1e-12)
        assert metrics["mse_pct"] == pytest.approx(0.0, abs=1e-18)
        assert metrics["cutoffs"]["75"]["auroc"] == 1.0
        calib = (out / "calibration.csv").read_text().splitlines()
        assert len(calib) == 21  # header + 20 bins

    def test_single_class_cutoff_null(self, tmp_path):
        clinical = tmp_path / "clinical.csv"
        clinical.write_text("slide_id,til_score_pct\na,5\nb,10\nc,20\n")
        preds = tmp_path / "preds.csv"
        bagio.write_predictions([("a", 0.05), ("b", 0.1), ("c", 0.2)], preds)
        out = tmp_path / "out"
        assert run("evaluate", "--predictions", preds, "--clinical", clinical, "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["cutoffs"]["75"]["auroc"] is None

    def test_matches_module_recomputation(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.uniform(0, 100, 30)
        scores = np.clip(labels / 100 + rng.normal(0, 0.15, 30), 0, 1)
        clinical = tmp_path / "clinical.csv"
        clinical.write_text("slide_id,til_score_pct\n" +
                            "".join(f"s{i},{v:.6f}\n" for i, v in enumerate(labels)))
        preds = tmp_path / "preds.csv"
        bagio.write_predictions([(f"s{i}", float(s)) for i, s in enumerate(scores)], preds)
        out = tmp_path / "out"
        assert run("evaluate", "--predictions", preds, "--clinical", clinical, "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        from tilscore import concord

        got = bagio.read_predictions(preds)
        recs = bagio.load_clinical(clinical)
        p = np.array([got[r.slide_id] for r in recs])
        y = np.array([r.til_score_pct for r in recs])
        assert metrics["pearson"] == pytest.approx(concord.pearson(p, y), abs=1e-15)
        assert metrics["cutoffs"]["30"]["ap"] == pytest.approx(
            concord.average_precision(p, concord.binarize(y, 30)), abs=1e-15)


    def test_repeated_clinical_slide_id_is_usage_error(self, tmp_path, capsys):
        clinical = tmp_path / "clinical.csv"
        clinical.write_text("slide_id,til_score_pct\n" +
                            "".join(f"s{i},{10 * i + 5}\n" for i in range(4)) + "s0,50\n")
        preds = tmp_path / "preds.csv"
        bagio.write_predictions([(f"s{i}", 0.1 * i + 0.05) for i in range(4)], preds)
        out = tmp_path / "out"
        assert run("evaluate", "--predictions", preds, "--clinical", clinical, "--out", out) == 2
        assert "slide_id 's0' repeats on lines 2 and 6" in capsys.readouterr().err
        assert not out.exists()


def make_survival_inputs(tmp_path, n=120, seed=11):
    rng = np.random.default_rng(seed)
    tils = rng.uniform(0, 100, n).round(1)
    biomarker = np.where(rng.random(n) < 0.5, "pos", "neg")
    lam = 0.03 * np.exp(-0.12 * tils / 10.0 + 0.5 * (biomarker == "pos"))
    t_event = rng.exponential(1.0 / lam)
    t_cens = rng.uniform(12, 120, n)
    events = (t_event <= t_cens).astype(int)
    months = np.minimum(t_event, t_cens).round(3)
    months = np.maximum(months, 0.01)
    clinical = tmp_path / "clinical.csv"
    with open(clinical, "w") as fh:
        fh.write("slide_id,til_score_pct,os_months,os_event,biomarker\n")
        for i in range(n):
            fh.write(f"s{i},{tils[i]},{months[i]},{events[i]},{biomarker[i]}\n")
    preds = tmp_path / "preds.csv"
    noisy = np.clip(tils / 100.0 + rng.normal(0, 0.05, n), 0.0, 1.0)
    bagio.write_predictions([(f"s{i}", float(noisy[i])) for i in range(n)], preds)
    return clinical, preds, tils, months, events


class TestSurvival:
    def test_full_protocol(self, tmp_path):
        clinical, preds, tils, months, events = make_survival_inputs(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"covariates": [{"column": "biomarker", "kind": "factor", "ref": "neg"}]}))
        out = tmp_path / "out"
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--spec", spec, "--out", out) == 0
        report = json.loads((out / "survival.json").read_text())
        models = {b["model"] for b in report["cox"]}
        assert models == {"model_univariable", "pathologist_univariable",
                          "model_multivariable", "pathologist_multivariable", "no_tils"}
        no_tils = next(b for b in report["cox"] if b["model"] == "no_tils")
        assert all(not r["variable"].endswith("per_10pct") for r in no_tils["rows"])
        assert "concordance" in no_tils
        km = report["km"]
        assert set(km["pathologist_cutoffs"]["groups"]) == {"<30", "30-75", ">=75"}
        assert "logrank_p" in km["pathologist_median"]
        assert (out / "km_model_median.csv").exists()
        assert (out / "cox_report.csv").exists()

    def test_univariable_matches_module_fit(self, tmp_path):
        clinical, preds, tils, months, events = make_survival_inputs(tmp_path)
        out = tmp_path / "out"
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--out", out) == 0
        report = json.loads((out / "survival.json").read_text())
        block = next(b for b in report["cox"] if b["model"] == "pathologist_univariable")
        ds = survstats.SurvivalDataset(times=months, events=events,
                                      design=(tils / 10.0)[:, None], columns=["t"])
        fit = survstats.cox_fit(ds)
        assert block["rows"][0]["hr"] == pytest.approx(fit.coefs[0].hr, rel=1e-9)
        assert block["concordance"] == pytest.approx(fit.concordance, abs=1e-12)

    def test_norm_flags_change_model_scale_only(self, tmp_path):
        clinical, preds, *_ = make_survival_inputs(tmp_path, n=60, seed=5)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--out", out_a) == 0
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--norm-min", 0.0, "--norm-max", 1.0, "--out", out_b) == 0
        rep_a = json.loads((out_a / "survival.json").read_text())
        rep_b = json.loads((out_b / "survival.json").read_text())
        path_a = next(b for b in rep_a["cox"] if b["model"] == "pathologist_univariable")
        path_b = next(b for b in rep_b["cox"] if b["model"] == "pathologist_univariable")
        assert path_a["rows"][0]["hr"] == path_b["rows"][0]["hr"]
        model_a = next(b for b in rep_a["cox"] if b["model"] == "model_univariable")
        model_b = next(b for b in rep_b["cox"] if b["model"] == "model_univariable")
        assert model_a["concordance"] == pytest.approx(model_b["concordance"], abs=1e-9)

    def test_subject_without_survival_data_left_out(self, tmp_path):
        clinical, preds, *_ = make_survival_inputs(tmp_path)
        lines = clinical.read_text().splitlines()
        sid, til, _months, _event, marker = lines[1].split(",")
        lines[1] = f"{sid},{til},,,{marker}"
        clinical.write_text("\n".join(lines) + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"covariates": [{"column": "biomarker", "kind": "factor"}]}))
        out = tmp_path / "out"
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--spec", spec, "--out", out) == 0
        report = json.loads((out / "survival.json").read_text())
        assert report["n"] == 119
        assert [b["n"] for b in report["cox"]] == [119] * 5
        assert all(sum(g.values()) == 119 for g in
                   (report["km"][k]["groups"] for k in ("pathologist_cutoffs", "model_median")))

    @pytest.mark.parametrize("column", ["stage", "empty"])
    def test_spec_column_without_values_named(self, tmp_path, column, capsys):
        clinical, preds, *_ = make_survival_inputs(tmp_path, n=30)
        lines = clinical.read_text().splitlines()
        clinical.write_text("\n".join([lines[0] + ",empty"] + [ln + "," for ln in lines[1:]]) + "\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"covariates": [{"column": "biomarker", "kind": "factor"},
                                                   {"column": column}]}))
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--spec", spec, "--out", tmp_path / "o") == 2
        assert f"column {column!r} has no value for any subject" in capsys.readouterr().err

    def test_non_ascii_level_in_an_ascii_locale(self, tmp_path):
        # every table and JSON file is UTF-8 whatever the locale: a column
        # and a level in survival's inputs, --spec and cox_report.csv, slide
        # ids in train's fold_plan.csv, a member name in predict's ensemble.json;
        # heatmap prints its slide id escaped
        clinical, preds, *_ = make_survival_inputs(tmp_path, n=60)
        clinical.write_text(clinical.read_text().replace(",pos", ",pós").replace(
            "biomarker", "marcadór"), encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"covariates": [{"column": "marcadór", "kind": "factor"}]},
                                   ensure_ascii=False), encoding="utf-8")
        bags, ids = tmp_path / "bags", [f"sé{i:02d}" for i in range(12)]
        bags.mkdir()
        rng = np.random.default_rng(0)
        for i, sid in enumerate(ids):
            bagio.write_bag(bagio.FeatureBag(sid, rng.standard_normal((3, 4)), np.zeros((3, 2)),
                                             mpp=0.5), bags / f"{i}.bag")
        bagio.write_clinical([bagio.SlideRecord(sid, centre=f"c{i % 3}", til_score_pct=5.0 * i)
                              for i, sid in enumerate(ids)], tmp_path / "train.csv")
        hyper = HyperParams(enc_out=2, attn_hidden=2)
        (tmp_path / "model").mkdir()
        save_checkpoint(init_params(0, hyper, dim=4), hyper, tmp_path / "model" / "fó.ckpt")
        (tmp_path / "model" / "ensemble.json").write_text('{"members": ["fó.ckpt"]}',
                                                          encoding="utf-8")
        steps = [["survival", "--predictions", preds, "--clinical", clinical, "--spec", spec],
                 ["train", "--bags", bags, "--clinical", tmp_path / "train.csv",
                  "--plan", "centre:3", "--enc-out", 2, "--attn-hidden", 2, "--max-epochs", 1],
                 ["predict", "--model", tmp_path / "model", "--bags", bags],
                 ["heatmap", "--model", tmp_path / "train" / "fold000.ckpt",
                  "--bag", bags / "0.bag"]]
        argvs = [[*map(str, step), "--out", str(tmp_path / step[0])] for step in steps]
        # one child runs every step; json.dumps escapes, so its command line is ASCII
        code = ("import json, sys\nfrom tilscore.cli import main\n"
                "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
        env = subprocess_env(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                              capture_output=True)
        assert done.returncode == 0, done.stderr
        assert "marcadór=pós" in (tmp_path / "survival" / "cox_report.csv").read_text(
            encoding="utf-8")
        plan = (tmp_path / "train" / "fold_plan.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in plan[1:]] == ids
        assert set(bagio.read_predictions(tmp_path / "predict" / "predictions.csv")) == set(ids)
        assert bagio.read_json(tmp_path / "heatmap" / "heatmap.json")["slide_id"] == "sé00"
        assert b"heatmaps for 's\\xe900' (3 tiles)" in done.stdout

    def test_no_survival_rows_is_error(self, tmp_path):
        clinical = tmp_path / "clinical.csv"
        clinical.write_text("slide_id,til_score_pct\na,10\n")
        preds = tmp_path / "preds.csv"
        bagio.write_predictions([("a", 0.1)], preds)
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--out", tmp_path / "o") == 2

    def test_monotone_likelihood_exits_3(self, tmp_path):
        # scores perfectly ordered with event times: each death is the
        # highest-score subject still at risk, so the coefficient diverges
        clinical = tmp_path / "clinical.csv"
        with open(clinical, "w") as fh:
            fh.write("slide_id,til_score_pct,os_months,os_event\n")
            for i, (t, til) in enumerate([(1, 90), (2, 80), (3, 70),
                                          (4, 60), (5, 50), (6, 40)]):
                fh.write(f"s{i},{til},{t},1\n")
        preds = tmp_path / "preds.csv"
        bagio.write_predictions([(f"s{i}", v / 100.0) for i, v in enumerate(
            [90, 80, 70, 60, 50, 40])], preds)
        assert run("survival", "--predictions", preds, "--clinical", clinical,
                   "--out", tmp_path / "o") == 3


def test_commas_and_quotes_read_back_from_every_table(tmp_path):
    # a slide id and a factor level holding the delimiter and the quote must
    # read back with csv.reader to the fields that were written
    write_synth_config(tmp_path / "cfg.json", survival=True)
    assert run("synth", tmp_path / "cfg.json", "--out", tmp_path) == 0
    records = bagio.load_clinical(tmp_path / "clinical.csv")
    for i, rec in enumerate(records):
        rec.slide_id = rec.slide_id.replace("synth", 'BC, "12" ')
        rec.covariates["grade"] = 'G2, "high"' if i % 2 else "G1"
    bagio.write_clinical(records, tmp_path / "clinical.csv")
    for path in (tmp_path / "bags").glob("*.bag"):
        bag = bagio.read_bag(path)
        bag.slide_id = bag.slide_id.replace("synth", 'BC, "12" ')
        bagio.write_bag(bag, path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"covariates": [{"column": "grade", "kind": "factor"}]}))
    assert run("train", "--bags", tmp_path / "bags", "--clinical", tmp_path / "clinical.csv",
               "--plan", "centre:3", *TRAIN_FLAGS, "--max-epochs", 2,
               "--out", tmp_path / "train") == 0
    assert run("predict", "--model", tmp_path / "train", "--bags", tmp_path / "bags",
               "--out", tmp_path / "predict") == 0
    out = tmp_path / "survival"
    assert run("survival", "--predictions", tmp_path / "predict" / "predictions.csv",
               "--clinical", tmp_path / "clinical.csv", "--spec", spec, "--out", out) == 0

    def table(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    folds = json.loads((tmp_path / "train" / "ensemble.json").read_text())
    plan = table(tmp_path / "train" / "fold_plan.csv")
    assert plan[0] == ["slide_id", "fold"]
    assert all(len(row) == 2 for row in plan)
    assert sorted(sid for sid, _ in plan[1:]) == sorted(r.slide_id for r in records)
    assert {int(fold) for _, fold in plan[1:]} == {c["fold"] for c in folds["champions"]}
    report = json.loads((out / "survival.json").read_text())
    cox = table(out / "cox_report.csv")
    columns = ("hr", "ci_low", "ci_high", "p")
    assert cox == [["model", "variable", *columns]] + [
        [block["model"], row["variable"], *(f"{row[k]:.10g}" for k in columns)]
        for block in report["cox"] for row in block["rows"]]
    assert ["no_tils", 'grade=G2, "high"'] == cox[-1][:2]
    for name, entry in report["km"].items():
        km = table(out / f"km_{name}.csv")
        assert km[0] == ["group", "t", "survival", "at_risk"]
        assert all(len(row) == 4 for row in km)
        assert {row[0] for row in km[1:]} == set(entry["groups"])


class TestHeatmap:
    @staticmethod
    def _checkpoint(tmp_path):
        params = ModelParams(
            enc_w=np.array([[1.0]]), enc_b=np.zeros(1),
            attn_v=np.array([[1.0]]), attn_v_b=np.zeros(1),
            attn_u=np.array([[1.0]]), attn_u_b=np.zeros(1),
            attn_w=np.array([1.0]), score_w=np.array([10.0]), score_b=np.zeros(1))
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(params, HyperParams(enc_out=1, attn_hidden=1), path)
        return path

    def test_single_tile_saturated(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        bag = bagio.FeatureBag(slide_id="one", features=np.array([[10.0]], dtype=np.float32),
                               tile_xy=np.array([[0, 0]]), mpp=0.5)
        bag_path = tmp_path / "one.bag"
        bagio.write_bag(bag, bag_path)
        out = tmp_path / "hm"
        assert run("heatmap", "--model", ckpt, "--bag", bag_path, "--out", out) == 0
        attn = read_pgm(out / "attention.pgm")
        score = read_pgm(out / "scores.pgm")
        assert attn.shape == (1, 1) and attn[0, 0] == 255
        assert score[0, 0] == 255  # sigmoid(100) saturates to 1.0

    def test_uniform_attention_all_255(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        feats = np.full((4, 1), 2.0, dtype=np.float32)
        xy = np.array([[0, 0], [512, 0], [0, 512], [512, 512]])
        bag = bagio.FeatureBag(slide_id="four", features=feats, tile_xy=xy, mpp=0.5)
        bag_path = tmp_path / "four.bag"
        bagio.write_bag(bag, bag_path)
        out = tmp_path / "hm"
        assert run("heatmap", "--model", ckpt, "--bag", bag_path, "--out", out) == 0
        attn = read_pgm(out / "attention.pgm")
        assert attn.shape == (2, 2)
        assert (attn == 255).all()
        sidecar = json.loads((out / "heatmap.json").read_text())
        assert len(sidecar["tiles"]) == 4

    def test_dim_mismatch_error(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        bag = bagio.FeatureBag(slide_id="wide", features=np.ones((2, 3), dtype=np.float32),
                               tile_xy=np.array([[0, 0], [512, 0]]), mpp=0.5)
        bag_path = tmp_path / "wide.bag"
        bagio.write_bag(bag, bag_path)
        assert run("heatmap", "--model", ckpt, "--bag", bag_path, "--out", tmp_path / "o") == 2
        assert f"error: {bag_path}: bag 'wide' has dim 3, expected 1" in capsys.readouterr().err

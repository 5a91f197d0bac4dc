import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_disc_slide
import tilscore
from tilscore import bagio, survstats
from tilscore.cli import main
from tilscore.foreground import read_manifest
from tilscore.milnet import ModelParams, save_checkpoint, HyperParams
from tilscore.pnm import read_pgm, write_ppm


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


def test_import_skips_unused_scipy_subpackages():
    # scipy.stats and scipy.ndimage cost most of the start-up of every
    # stage; only `tile` needs ndimage, and it imports it when it runs
    src = str(Path(tilscore.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, tilscore.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.ndimage') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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
        slide, truth_at = noisy_disc_slide(n=2048, radius=800.0)
        img = tmp_path / "blob.ppm"
        write_ppm(img, slide.pixels)
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
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--bags", small_cohort / "bags", "--clinical",
                small_cohort / "clinical.csv", "--plan", "loco", "--seed", 3, *TRAIN_FLAGS]
        assert run(*args, "--out", out_a) == 0
        assert run(*args, "--out", out_b) == 0
        assert (out_a / "fold000.ckpt").read_bytes() == (out_b / "fold000.ckpt").read_bytes()
        assert (out_a / "fold001.ckpt").read_bytes() == (out_b / "fold001.ckpt").read_bytes()

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

    def test_workers_match_serial(self, small_cohort, tmp_path):
        args = ["train", "--bags", small_cohort / "bags", "--clinical",
                small_cohort / "clinical.csv", "--plan", "loco", *TRAIN_FLAGS,
                "--max-epochs", 2]
        out_a, out_b = tmp_path / "w1", tmp_path / "w2"
        assert run(*args, "--out", out_a, "--workers", 1) == 0
        assert run(*args, "--out", out_b, "--workers", 2) == 0
        assert (out_a / "fold000.ckpt").read_bytes() == (out_b / "fold000.ckpt").read_bytes()


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

    def test_dim_mismatch_error(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        bag = bagio.FeatureBag(slide_id="wide", features=np.ones((2, 3), dtype=np.float32),
                               tile_xy=np.array([[0, 0], [512, 0]]), mpp=0.5)
        bag_path = tmp_path / "wide.bag"
        bagio.write_bag(bag, bag_path)
        assert run("heatmap", "--model", ckpt, "--bag", bag_path, "--out", tmp_path / "o") == 2

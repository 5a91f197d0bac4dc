"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one PASS line (run with `pytest tests/test_acceptance.py -v -s`).
Derived expectations come from independent oracles implemented inline:
brute-force pair counting, grid search of the partial likelihood, central
finite differences, and hand-computed tables.
"""

import hashlib
import time

import numpy as np
import pytest

from conftest import mask_iou, noisy_disc_slide, ppm_slide
from tilscore import TilscoreError, concord, survstats
from tilscore.bagio import FeatureBag, SynthConfig, read_bag, synth_cohort, write_bag
from tilscore.folds import Ensemble, ensemble_predict, leave_one_cohort_out, split_by_group
from tilscore.foreground import compute_foreground, filter_tiles, grid_tiles
from tilscore.milnet import (
    PARAM_FIELDS,
    HyperParams,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss,
    loss_grad,
    save_checkpoint,
    train,
)

GRAD_HYPER = HyperParams(enc_out=16, attn_hidden=8)
GRAD_DIM = 12


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def random_bag(rng, n_tiles, dim):
    return FeatureBag(
        slide_id="acc",
        features=rng.normal(size=(n_tiles, dim)).astype(np.float32),
        tile_xy=np.zeros((n_tiles, 2), dtype=np.uint32),
        mpp=0.5,
    )


class TestGradientCorrectness:
    def test_fifty_random_instances_within_1e6(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(50):
            params = init_params(int(rng.integers(1 << 30)), GRAD_HYPER, GRAD_DIM)
            bag = random_bag(rng, int(rng.integers(1, 9)), GRAD_DIM)
            label = float(rng.random())
            trace = forward(params, bag)
            analytic = backward(trace, params, loss_grad(trace.prediction, label))

            step = 1e-6
            for name in PARAM_FIELDS:
                theta = getattr(params, name).ravel()
                grad_a = getattr(analytic, name).ravel()
                for i in range(theta.size):
                    orig = theta[i]
                    theta[i] = orig + step
                    up = loss(forward(params, bag).prediction, label)
                    theta[i] = orig - step
                    down = loss(forward(params, bag).prediction, label)
                    theta[i] = orig
                    fd = (up - down) / (2.0 * step)
                    denom = max(abs(grad_a[i]), abs(fd), 1e-3)
                    worst = max(worst, abs(grad_a[i] - fd) / denom)
        elapsed = time.time() - start
        assert worst <= 1e-6, f"max relative gradient error {worst:.3e}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
        _report(f"gradient-correctness (max rel err {worst:.2e}, {elapsed:.1f}s)")


class TestEndToEndRecovery:
    def test_synthetic_training_recovers_labels(self):
        start = time.time()
        cfg = SynthConfig(n_slides=400, tiles_min=500, tiles_max=2000, dim=2048, seed=20)
        bags, records = synth_cohort(cfg)
        labels = np.array([r.til_score_pct for r in records]) / 100.0
        # package defaults keep the published hyperparameters; this check
        # only raises the learning rate and trims epochs to fit desk scale
        hyper = HyperParams(lr=1e-3, max_epochs=6, patience=2)
        result = train(bags, labels, np.arange(300), np.arange(300, 400), hyper, seed=0)
        val_labels_pct = labels[300:] * 100.0
        r = concord.pearson(result.val_preds, val_labels_pct)
        med = float(np.median(val_labels_pct))
        auc = concord.auroc(result.val_preds, concord.binarize(val_labels_pct, med))
        elapsed = time.time() - start
        assert r >= 0.95, f"validation Pearson {r:.4f}"
        assert auc >= 0.95, f"AUROC@median {auc:.4f}"
        assert elapsed <= 600.0, f"end-to-end run took {elapsed:.0f}s"
        _report(f"end-to-end-recovery (r {r:.4f}, AUROC@median {auc:.4f}, {elapsed:.0f}s)")


def brute_auroc(scores, pos):
    total, pairs = 0.0, 0
    for sp in scores[pos]:
        for sn in scores[~pos]:
            pairs += 1
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / pairs


def brute_harrell(times, events, risk):
    conc = tied = usable = 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i] == 1:
                usable += 1
                if risk[i] > risk[j]:
                    conc += 1
                elif risk[i] == risk[j]:
                    tied += 1
    return None if usable == 0 else (conc + 0.5 * tied) / usable


class TestMetricOracles:
    def test_two_hundred_random_instances(self):
        rng = np.random.default_rng(7)
        checked_auroc = checked_c = 0
        for _ in range(200):
            n = int(rng.integers(3, 51))
            scores = np.round(rng.random(n), 2)
            pos = rng.random(n) < rng.uniform(0.2, 0.8)
            if pos.any() and not pos.all():
                assert concord.auroc(scores, pos) == pytest.approx(
                    brute_auroc(scores, pos), abs=1e-12)
                checked_auroc += 1

            times = np.round(rng.uniform(1, 20, n), 1)
            events = (rng.random(n) < 0.7).astype(int)
            risk = np.round(rng.normal(size=n), 2)
            expected = brute_harrell(times, events, risk)
            if expected is not None:
                assert survstats.harrell_c(times, events, risk) == pytest.approx(
                    expected, abs=1e-12)
                checked_c += 1

            x = rng.integers(0, 10, n).astype(float)
            y = rng.integers(0, 10, n).astype(float)
            if np.ptp(x) > 0 and np.ptp(y) > 0:
                assert concord.spearman(x, y) == concord.pearson(
                    concord.rank_average(x), concord.rank_average(y))
        assert checked_auroc > 100 and checked_c > 100
        _report(f"metric-oracle-equivalence ({checked_auroc} AUROC, {checked_c} Harrell-C)")


class TestCoxOracle:
    @staticmethod
    def _grid_loglik(times, events, x, grid):
        """Vectorised naive partial likelihood over a beta grid (no ties)."""
        ll = np.zeros_like(grid)
        exb = np.exp(np.outer(grid, x))  # (G, n)
        for i in range(len(times)):
            if events[i] != 1:
                continue
            at_risk = times >= times[i]
            ll += grid * x[i] - np.log(exb[:, at_risk].sum(axis=1))
        return ll

    def test_hundred_random_datasets(self):
        rng = np.random.default_rng(99)
        grid = np.arange(-5.0, 5.0 + 5e-4, 1e-3)
        done = 0
        while done < 100:
            n = int(rng.integers(4, 9))
            x = rng.normal(size=n).round(2)
            times = rng.uniform(1.0, 50.0, n).round(3)
            events = (rng.random(n) < 0.8).astype(int)
            if len(set(times.tolist())) < n or events.sum() < 2 or np.ptp(x) == 0:
                continue
            ds = survstats.SurvivalDataset(times=times, events=events,
                                           design=x[:, None], columns=["x"])
            try:
                fit = survstats.cox_fit(ds)
            except (survstats.NonConvergenceError, TilscoreError):
                continue
            beta = fit.coefs[0].beta
            if abs(beta) > 4.5:
                continue
            done += 1
            beta_grid = float(grid[int(np.argmax(self._grid_loglik(times, events, x, grid)))])
            assert beta == pytest.approx(beta_grid, abs=1e-3)
            _, score, _ = survstats.cox_loglik_score_info(times, events, ds.design,
                                                          np.array([beta]))
            assert abs(score[0]) < 1e-8

            c = 3.0
            scaled = survstats.SurvivalDataset(times=times, events=events,
                                               design=ds.design * c, columns=["x"])
            fit_scaled = survstats.cox_fit(scaled)
            assert fit_scaled.coefs[0].beta == pytest.approx(beta / c, abs=1e-8)
            assert fit_scaled.loglik == pytest.approx(fit.loglik, abs=1e-8)
            assert fit_scaled.concordance == pytest.approx(fit.concordance, abs=1e-12)
            ranks_a = np.argsort(np.argsort(ds.design[:, 0] * fit.coefs[0].beta))
            ranks_b = np.argsort(np.argsort(scaled.design[:, 0] * fit_scaled.coefs[0].beta))
            assert np.array_equal(ranks_a, ranks_b)
        _report("cox-oracle (100 datasets: grid argmax, score norm, scaling equivariance)")


class TestKmLogrank:
    def test_hand_tables_and_censoring(self):
        # five subjects, events at 1, 2, 4 with censorings at 3 and 5
        (curve,) = survstats.km_curve([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0])
        s1 = 1.0 - 1.0 / 5.0
        s2 = s1 * (1.0 - 1.0 / 4.0)
        s3 = s2 * (1.0 - 1.0 / 2.0)
        assert curve.times.tolist() == [1.0, 2.0, 4.0]
        assert curve.n_risk.tolist() == [5, 4, 2]
        assert curve.survival.tolist() == [s1, s2, s3]

        # six subjects, two groups: O_A=3, E_A=113/30, V=1091/900 -> 529/1091
        chi2, p = survstats.logrank([2.0, 4.0, 6.0, 1.0, 3.0, 5.0], [1] * 6,
                                    ["A", "A", "A", "B", "B", "B"])
        assert chi2 == pytest.approx(529.0 / 1091.0, abs=1e-12)

        (flat,) = survstats.km_curve([3.0, 7.0, 9.0], [0, 0, 0])
        for t in (0.0, 5.0, 100.0):
            assert flat.survival_at(t) == 1.0
        _report("km-logrank (hand tables exact, all-censored flat)")


class TestCalibration:
    EXPECTED = {
        # bin -> (count, mean, min, p10, p90, max); nearest-rank percentiles
        0: (3, 6.0, 2.0, 2.0, 10.0, 10.0),
        3: (5, 12.0, 4.0, 4.0, 20.0, 20.0),
        7: (8, 4.5, 1.0, 1.0, 8.0, 8.0),
        10: (10, 27.5, 5.0, 5.0, 45.0, 50.0),
        14: (7, 28.0, 7.0, 7.0, 49.0, 49.0),
        19: (7, 93.0, 90.0, 90.0, 96.0, 96.0),
    }

    def test_forty_point_hand_computed(self):
        preds, labels = [], []
        per_bin_values = {
            0: [10.0, 2.0, 6.0],
            3: [4.0, 8.0, 12.0, 16.0, 20.0],
            7: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            10: [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0],
            14: [7.0, 14.0, 21.0, 28.0, 35.0, 42.0, 49.0],
            19: [90.0, 91.0, 92.0, 93.0, 94.0, 95.0, 96.0],
        }
        for b, values in per_bin_values.items():
            for i, v in enumerate(values):
                # spread predictions inside the bin; bin 19 includes pred 1.0
                preds.append(min(b / 20.0 + 0.002 * (i + 1), 1.0))
                labels.append(v)
        assert len(preds) == 40
        curve = concord.calibration(preds, labels)
        assert sum(b.count for b in curve.bins) == 40
        for b, (count, mean, mn, p10, p90, mx) in self.EXPECTED.items():
            got = curve.bins[b]
            assert (got.count, got.mean, got.min, got.p10, got.p90, got.max) == (
                count, mean, mn, p10, p90, mx), f"bin {b}"
        occupied = {b for b, cb in enumerate(curve.bins) if cb.count}
        assert occupied == set(self.EXPECTED)

    def test_bin_counts_sum_property(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            preds = rng.random(n)
            labels = rng.uniform(0, 100, n)
            curve = concord.calibration(preds, labels)
            assert sum(b.count for b in curve.bins) == n
        _report("calibration (40-point table exact, counts sum over 100 random sets)")


class TestModelInvariants:
    def test_thousand_random_bags(self):
        rng = np.random.default_rng(13)
        hyper = HyperParams(enc_out=12, attn_hidden=6)
        params = init_params(0, hyper, dim=8)
        for trial in range(1000):
            if trial % 100 == 0:
                params = init_params(trial, hyper, dim=8)
            n = int(rng.integers(1, 31))
            bag = random_bag(rng, n, 8)
            trace = forward(params, bag)
            assert abs(trace.attention.sum() - 1.0) <= 1e-12
            assert 0.0 < trace.prediction < 1.0
            if n == 1:
                assert trace.prediction == trace.tile_scores[0]
            perm = rng.permutation(n)
            shuffled = FeatureBag(slide_id="p", features=bag.features[perm],
                                  tile_xy=bag.tile_xy[perm], mpp=0.5)
            assert abs(forward(params, shuffled).prediction - trace.prediction) <= 1e-12
        _report("model-invariants (1000 bags: attention, bounds, permutation, single-tile)")


GOLDEN_BAG_SHA256 = "20e526f1ed31952d6dd8596d35d7bf83bc4940c454202c3499331798c292ebf5"
GOLDEN_CKPT_SHA256 = "ba9adbd73c9be7a381fd057a06b6a2f397ea7a22d5a7f8892659b167a028cde5"


def golden_checkpoint_params() -> ModelParams:
    def filled(shape, start):
        n = int(np.prod(shape))
        return (np.linspace(start, start + 1.0, n) % 0.37).reshape(shape)

    return ModelParams(
        enc_w=filled((4, 6), 0.0), enc_b=filled((4,), 0.1),
        attn_v=filled((3, 4), 0.2), attn_v_b=filled((3,), 0.3),
        attn_u=filled((3, 4), 0.4), attn_u_b=filled((3,), 0.5),
        attn_w=filled((3,), 0.6), score_w=filled((4,), 0.7), score_b=filled((1,), 0.8))


class TestFormatStability:
    def test_bag_round_trip_and_golden_hash(self, tmp_path):
        k, d = 7, 12
        i, j = np.meshgrid(np.arange(k), np.arange(d), indexing="ij")
        bag = FeatureBag(slide_id="golden-slide",
                         features=np.sin(0.7 * i + 0.3 * j).astype(np.float32),
                         tile_xy=np.column_stack([np.arange(k) * 512, np.arange(k) * 1024]),
                         mpp=0.5)
        path, again = tmp_path / "golden.bag", tmp_path / "again.bag"
        write_bag(bag, path)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_BAG_SHA256
        write_bag(read_bag(path), again)
        assert again.read_bytes() == data

    def test_checkpoint_round_trip_and_golden_hash(self, tmp_path):
        hyper = HyperParams(enc_out=4, attn_hidden=3)
        path = tmp_path / "golden.ckpt"
        save_checkpoint(golden_checkpoint_params(), hyper, path)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_CKPT_SHA256
        params, hyper2 = load_checkpoint(path)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(params, hyper2, path2)
        assert path2.read_bytes() == data
        _report("format-stability (bag + checkpoint round trips, pinned hashes)")


class TestProtocolFidelity:
    def test_grouped_splits_and_ensemble(self):
        from tilscore.bagio import SlideRecord

        rng = np.random.default_rng(3)
        records = []
        for i in range(200):
            records.append(SlideRecord(slide_id=f"s{i:04d}",
                                       centre=f"centre{rng.integers(0, 12)}",
                                       cohort=f"cohort{i % 5}", til_score_pct=10.0))
        plan = split_by_group(records, "centre", k=5, seed=1)
        centre_folds = {}
        for r in records:
            centre_folds.setdefault(r.centre, set()).add(plan.fold_of(r.slide_id))
        assert all(len(folds) == 1 for folds in centre_folds.values())

        loco = leave_one_cohort_out(records)
        assert loco.k == 5
        for r in records:
            assert loco.fold_of(r.slide_id) == int(r.cohort.removeprefix("cohort"))

        hyper = HyperParams(enc_out=8, attn_hidden=4)
        params = init_params(9, hyper, dim=8)
        bag = random_bag(rng, 7, 8)
        single = forward(params, bag).prediction
        ens = Ensemble(members=[params.copy() for _ in range(5)], hyper=hyper)
        assert ensemble_predict(ens, bag) == pytest.approx(single, abs=1e-15)
        _report("protocol-fidelity (centre purity, loco folds, ensemble identity)")


class TestForegroundAcceptance:
    def test_blob_iou_and_white_slide(self, tmp_path):
        slide, truth_at = noisy_disc_slide(tmp_path)
        mask = compute_foreground(slide)
        iou = mask_iou(mask.bits, truth_at(8))
        assert iou >= 0.95, f"blob IoU {iou:.4f}"

        white = ppm_slide(tmp_path, np.full((1024, 1024, 3), 255, dtype=np.uint8), "white")
        wmask = compute_foreground(white)
        grid = filter_tiles(grid_tiles(1024, 1024, 0.5), wmask)
        assert grid.n_tiles == 4 and grid.kept.sum() == 0
        _report(f"foreground (blob IoU {iou:.3f} >= 0.95, white slide keeps 0 tiles)")

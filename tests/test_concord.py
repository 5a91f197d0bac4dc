import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilscore import bagio, cli, concord
from tilscore.concord import (
    UndefinedMetricError,
    auroc,
    average_precision,
    binarize,
    calibration,
    ccc,
    evaluate,
    mse_pct,
    pearson,
    rank_average,
    random_ap,
    spearman,
)


def brute_auroc(scores, pos):
    """Pair-counting oracle: P(s_pos > s_neg) + 0.5 P(equal)."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(pos, dtype=bool)
    total = 0.0
    npairs = 0
    for sp in scores[pos]:
        for sn in scores[~pos]:
            npairs += 1
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / npairs


class TestPearsonSpearman:
    def test_self_correlation(self):
        x = np.array([0.3, 1.7, 2.0, 5.5])
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_anticorrelation(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_example(self):
        # x=(1,2,3), y=(1,2,4): cov*n = 3, ss_x = 2, ss_y = 14/3 -> r = sqrt(27/28)
        x = [1.0, 2.0, 3.0]
        y = [1.0, 2.0, 4.0]
        assert pearson(x, y) == pytest.approx(math.sqrt(27.0 / 28.0), abs=1e-14)
        assert spearman(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1.0], [2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        r = pearson(x, y)
        assert pearson(3.5 * x + 2.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(x, 0.1 * y - 7.0) == pytest.approx(r, abs=1e-12)

    def test_spearman_equals_pearson_of_ranks(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 5, size=30).astype(float)  # plenty of ties
        y = rng.integers(0, 5, size=30).astype(float)
        assert spearman(x, y) == pearson(rank_average(x), rank_average(y))

    def test_rank_average_ties(self):
        assert rank_average([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), max_size=60), st.sampled_from([1.0, 0.5, -0.25]))
    def test_rank_average_matches_loop_reference(self, values, scale):
        # the former run-scanning loop, kept as the reference; mid-ranks are
        # exact in f64, so the two must agree exactly
        a = np.asarray(values, dtype=np.float64) * scale
        order = np.argsort(a, kind="stable")
        expected = np.empty(a.size, dtype=np.float64)
        i = 0
        while i < a.size:
            j = i
            while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
                j += 1
            expected[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        assert np.array_equal(rank_average(a), expected)


class TestCcc:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0, 9.0])
        assert ccc(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_constant_shift(self):
        # x=(0,1,2), y=x+1: pop vars 2/3, cov 2/3, mean gap 1 -> 2*(2/3)/(7/3) = 4/7
        assert ccc([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_centered_negation(self):
        x = np.array([-1.0, 0.0, 1.0])
        assert ccc(x, -x) == pytest.approx(-1.0, abs=1e-15)

    def test_not_scale_invariant(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        assert ccc(x, 2.0 * x) < 1.0

    def test_degenerate(self):
        with pytest.raises(UndefinedMetricError):
            ccc([2.0, 2.0], [2.0, 2.0])


class TestBinarize:
    def test_cutoff_is_inclusive(self):
        out = binarize([30.0, 29.9, 31.0], 30.0)
        assert out.tolist() == [True, False, True]

    def test_all_below(self):
        assert binarize([1.0, 5.0], 30.0).sum() == 0


class TestAuroc:
    def test_perfect(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0

    def test_inverted(self):
        assert auroc([0.1, 0.2, 0.9, 0.8], [True, True, False, False]) == 0.0

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.random(n), 1)  # force ties
            pos = rng.random(n) < 0.5
            if pos.all() or not pos.any():
                continue
            assert auroc(scores, pos) == pytest.approx(brute_auroc(scores, pos), abs=1e-12)

    def test_single_class_is_error_not_zero(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [True, True])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.random(25)
        pos = rng.random(25) < 0.4
        a = auroc(scores, pos)
        assert auroc(np.exp(3.0 * scores) + 1.0, pos) == pytest.approx(a, abs=1e-12)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_one_positive_ranked_last(self):
        n = 5
        scores = [0.9, 0.8, 0.7, 0.6, 0.5]
        pos = [0, 0, 0, 0, 1]
        assert average_precision(scores, pos) == pytest.approx(1.0 / n, abs=1e-15)

    def test_random_ap_is_prevalence(self):
        assert random_ap([1, 1, 1, 1, 1, 1, 0, 0, 0, 0]) == pytest.approx(0.6)

    def test_no_positives(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.5, 0.4], [0, 0])

    def test_order_preserving_shuffle_invariance(self):
        rng = np.random.default_rng(9)
        scores = rng.permutation(np.linspace(0.01, 0.99, 15))  # tie-free
        pos = rng.random(15) < 0.4
        pos[0] = True
        a = average_precision(scores, pos)
        perm = rng.permutation(15)
        assert average_precision(scores[perm], pos[perm]) == pytest.approx(a, abs=1e-14)


class TestMse:
    def test_exact(self):
        assert mse_pct([0.1, 0.5], [10.0, 50.0]) == 0.0

    def test_constant_offset(self):
        # predictions 10 points high everywhere -> mse 100
        preds = np.array([0.2, 0.4, 0.6])
        labels = np.array([10.0, 30.0, 50.0])
        assert mse_pct(preds, labels) == pytest.approx(100.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_pct([0.1], [10.0, 20.0])


class TestCalibration:
    def test_all_mass_bin_zero(self):
        curve = calibration([0.01] * 4, [10.0, 20.0, 30.0, 40.0])
        assert curve.bins[0].count == 4
        assert sum(b.count for b in curve.bins) == 4

    def test_pred_one_lands_in_last_bin(self):
        curve = calibration([1.0], [50.0])
        assert curve.bins[19].count == 1

    def test_four_point_two_bins(self):
        # bin 0 holds labels (10, 20); bin 12 holds (50, 90).
        # nearest-rank on n=2: p10 -> 1st value, p90 -> 2nd value.
        curve = calibration([0.01, 0.03, 0.62, 0.64], [10.0, 20.0, 50.0, 90.0])
        b0 = curve.bins[0]
        assert (b0.count, b0.mean, b0.min, b0.p10, b0.p90, b0.max) == (2, 15.0, 10.0, 10.0, 20.0, 20.0)
        b12 = curve.bins[12]
        assert (b12.count, b12.mean, b12.min, b12.p10, b12.p90, b12.max) == (2, 70.0, 50.0, 50.0, 90.0, 90.0)
        assert curve.bins[1].count == 0 and curve.bins[1].mean is None

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_counts_sum_to_n(self, pairs):
        preds = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        curve = calibration(preds, labels)
        assert sum(b.count for b in curve.bins) == len(pairs)
        assert len(curve.bins) == 20


class TestEvaluate:
    def test_exact_predictions(self):
        labels = np.array([5.0, 20.0, 35.0, 60.0, 80.0])
        rep = evaluate(labels / 100.0, labels)
        assert rep["pearson"] == pytest.approx(1.0, abs=1e-12)
        assert rep["spearman"] == pytest.approx(1.0, abs=1e-12)
        assert rep["ccc"] == pytest.approx(1.0, abs=1e-12)
        assert rep["mse_pct"] == pytest.approx(0.0, abs=1e-20)

    def test_single_class_cutoff_is_none(self):
        labels = np.array([5.0, 10.0, 20.0])  # nothing >= 75
        rep = evaluate(labels / 100.0, labels)
        assert rep["cutoffs"]["75"]["auroc"] is None
        assert rep["cutoffs"]["75"]["ap"] is None
        assert rep["cutoffs"]["10"]["auroc"] is not None

    def test_panel_matches_per_metric_recomputation(self):
        rng = np.random.default_rng(21)
        labels = rng.uniform(0.0, 100.0, size=40)
        preds = np.clip(labels / 100.0 + rng.normal(0, 0.1, size=40), 0.0, 1.0)
        rep = evaluate(preds, labels)
        assert rep["pearson"] == pearson(preds, labels)
        assert rep["spearman"] == spearman(preds, labels)
        assert rep["ccc"] == ccc(100.0 * preds, labels)
        assert rep["mse_pct"] == mse_pct(preds, labels)
        for c in (10.0, 30.0, 50.0, 75.0):
            pos = binarize(labels, c)
            assert rep["cutoffs"][f"{c:g}"] == {"auroc": auroc(preds, pos),
                                                "ap": average_precision(preds, pos),
                                                "random_ap": random_ap(pos)}

    def test_json_round_trip_keys(self, tmp_path):
        labels = [5.0, 20.0, 35.0, 60.0, 80.0]
        clinical, preds = tmp_path / "clinical.csv", tmp_path / "preds.csv"
        clinical.write_text("slide_id,til_score_pct\n" +
                            "".join(f"s{i},{v}\n" for i, v in enumerate(labels)))
        bagio.write_predictions([(f"s{i}", v / 100.0) for i, v in enumerate(labels)], preds)
        out = tmp_path / "out"
        assert cli.main(["evaluate", "--predictions", str(preds), "--clinical", str(clinical),
                         "--cutoffs", "10,30,50,75,1e-5", "--out", str(out)]) == 0
        text = (out / "metrics.json").read_text()
        assert text == json.dumps(evaluate(np.array(labels) / 100.0, labels,
                                           (10, 30, 50, 75, 1e-5)), indent=2) + "\n"
        data = json.loads(text)
        assert list(data) == ["n", "pearson", "spearman", "ccc", "mse_pct", "cutoffs"]
        assert list(data["cutoffs"]) == ["10", "30", "50", "75", "1e-05"]

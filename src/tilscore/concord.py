"""Concordance and calibration metric panel for slide-level TIL scores.

Predictions are fractions in [0, 1]; reference (pathologist) scores are
percentages in [0, 100].  Metrics that are undefined on a given input
(single-class AUROC, zero-variance correlations, ...) raise
:class:`UndefinedMetricError`; the panel assembler converts those into
explicit ``None`` entries instead of aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import TilscoreError
from .bagio import write_table

DEFAULT_CUTOFFS = (10.0, 30.0, 50.0, 75.0)
CALIBRATION_BINS = 20


class UndefinedMetricError(TilscoreError):
    """The metric has no defined value for this input."""


def _as1d(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected 1-d input, got shape {a.shape}")
    return a


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as1d(x), _as1d(y)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def pearson(x, y) -> float:
    """Product-moment correlation. Undefined if n < 2 or either variance is 0."""
    a, b = _paired(x, y)
    if a.size < 2:
        raise UndefinedMetricError("pearson needs at least 2 samples")
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise UndefinedMetricError("pearson undefined for zero-variance input")
    return float((da @ db) / math.sqrt(va * vb))


def rank_average(x) -> np.ndarray:
    """Mid-ranks (1-based); tied values share the average of their ranks."""
    a = _as1d(x)
    order = np.argsort(a, kind="stable")
    s = a[order]
    # each run of equal sorted values spans positions [first, end)
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    end = np.r_[first[1:], a.size]
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + end - 1) + 1.0, end - first)
    return ranks


def spearman(x, y) -> float:
    """Rank correlation: Pearson of mid-ranks."""
    a, b = _paired(x, y)
    return pearson(rank_average(a), rank_average(b))


def ccc(x, y) -> float:
    """Lin's concordance correlation coefficient with population (1/n) moments.

    2*cov(x,y) / (var(x) + var(y) + (mean(x) - mean(y))^2); penalises both
    decorrelation and location/scale bias.
    """
    a, b = _paired(x, y)
    if a.size < 2:
        raise UndefinedMetricError("ccc needs at least 2 samples")
    ma, mb = a.mean(), b.mean()
    va = float(np.mean((a - ma) ** 2))
    vb = float(np.mean((b - mb) ** 2))
    cov = float(np.mean((a - ma) * (b - mb)))
    denom = va + vb + (ma - mb) ** 2
    if denom == 0.0:
        raise UndefinedMetricError("ccc undefined: zero variances and equal means")
    return 2.0 * cov / denom


def binarize(labels_pct, cutoff: float) -> np.ndarray:
    """TILs-high indicator: label >= cutoff is positive."""
    return _as1d(labels_pct) >= float(cutoff)


def auroc(scores, pos_labels) -> float:
    """Mann-Whitney AUROC: P(score_pos > score_neg) + 0.5*P(equal).

    Computed from mid-ranks, which is exactly the pair-counting statistic.
    """
    s = _as1d(scores)
    pos = np.asarray(pos_labels, dtype=bool)
    if pos.shape != s.shape:
        raise ValueError("scores and labels length mismatch")
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auroc undefined for single-class input")
    ranks = rank_average(s)
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_precision(scores, pos_labels) -> float:
    """AP: mean over positives of precision at that positive's rank.

    Ranking is a descending stable sort, so tied scores keep input order.
    """
    s = _as1d(scores)
    pos = np.asarray(pos_labels, dtype=bool)
    if pos.shape != s.shape:
        raise ValueError("scores and labels length mismatch")
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision undefined with no positives")
    order = np.argsort(-s, kind="stable")
    hits = pos[order]
    cum_pos = np.cumsum(hits)
    ranks = np.arange(1, s.size + 1)
    return float((cum_pos[hits] / ranks[hits]).sum() / n_pos)


def random_ap(pos_labels) -> float:
    """Chance-level AP: the positive-label prevalence."""
    pos = np.asarray(pos_labels, dtype=bool)
    if pos.size == 0:
        raise UndefinedMetricError("prevalence undefined on empty input")
    return float(pos.mean())


def mse_pct(preds_fraction, labels_pct) -> float:
    """MSE on the 0-100 scale: mean of (100*pred - label)^2."""
    p, y = _paired(preds_fraction, labels_pct)
    if p.size == 0:
        raise UndefinedMetricError("mse undefined on empty input")
    return float(np.mean((100.0 * p - y) ** 2))


def median(values: np.ndarray) -> float:
    """`np.median(values)` bit for bit, without the numpy.ma import of its first call."""
    ranked, mid = np.sort(values), (values.size - 1) // 2
    return float(np.mean(ranked[mid : values.size - mid]))


def percentile_nearest_rank(sorted_vals: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    n = sorted_vals.size
    if n == 0:
        raise UndefinedMetricError("percentile of empty set")
    k = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_vals[k - 1])


@dataclass
class CalibrationBin:
    lo: float
    hi: float
    count: int
    mean: float | None = None
    min: float | None = None
    p10: float | None = None
    p90: float | None = None
    max: float | None = None


@dataclass
class CalibrationCurve:
    """Pathologist-score distribution per uniform prediction bin."""

    bins: list[CalibrationBin]
    n: int

    def to_csv(self, path) -> None:
        write_table(path, [
            ["bin", "lo", "hi", "count", "mean", "min", "p10", "p90", "max"],
            *([i, f"{b.lo:.10g}", f"{b.hi:.10g}", b.count]
              + ["" if v is None else f"{v:.10g}" for v in (b.mean, b.min, b.p10, b.p90, b.max)]
              for i, b in enumerate(self.bins))])


def calibration(preds_fraction, labels_pct) -> CalibrationCurve:
    """Bin predictions into [b/n, (b+1)/n) for n = CALIBRATION_BINS (last bin
    closed above) and summarise the pathologist scores landing in each bin."""
    p, y = _paired(preds_fraction, labels_pct)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("predictions must lie in [0, 1]")
    idx = np.minimum((p * CALIBRATION_BINS).astype(np.int64), CALIBRATION_BINS - 1)
    bins: list[CalibrationBin] = []
    for b in range(CALIBRATION_BINS):
        vals = np.sort(y[idx == b])
        cb = CalibrationBin(lo=b / CALIBRATION_BINS, hi=(b + 1) / CALIBRATION_BINS,
                            count=int(vals.size))
        if vals.size:
            cb.mean = float(vals.mean())
            cb.min = float(vals[0])
            cb.max = float(vals[-1])
            cb.p10 = percentile_nearest_rank(vals, 10.0)
            cb.p90 = percentile_nearest_rank(vals, 90.0)
        bins.append(cb)
    return CalibrationCurve(bins=bins, n=int(p.size))


def _try(fn, *args) -> float | None:
    try:
        return fn(*args)
    except UndefinedMetricError:
        return None


def evaluate(preds_fraction, labels_pct, cutoffs=DEFAULT_CUTOFFS) -> dict:
    """The whole panel as the `metrics.json` document; undefined metrics
    become None, not errors.  Cutoffs are keyed by their `:g` form; equal
    cutoffs (0 and -0 too) count once, under the first one's key."""
    p, y = _paired(preds_fraction, labels_pct)
    report = {"n": int(p.size), "pearson": _try(pearson, p, y), "spearman": _try(spearman, p, y),
              "ccc": _try(ccc, 100.0 * p, y), "mse_pct": _try(mse_pct, p, y), "cutoffs": {}}
    for c in dict.fromkeys(cutoffs):
        pos = binarize(y, c)
        report["cutoffs"][f"{c:g}"] = {"auroc": _try(auroc, p, pos),
                                       "ap": _try(average_precision, p, pos),
                                       "random_ap": _try(random_ap, pos)}
    return report

"""Outcome analysis: Cox proportional hazards, Kaplan-Meier, and friends.

The Cox fitter maximises the Efron-tie partial likelihood by Newton-Raphson
(Breslow available behind a flag for cross-checks).  Confidence intervals
are Wald intervals exp(beta +/- 1.96*se); the proportional-hazards check
regresses scaled Schoenfeld residuals on Kaplan-Meier-transformed time.
All subjects enter at t=0; no delayed entry or time-dependent covariates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, ndtr

MAX_NEWTON_ITER = 25
# Newton stops when every |score_j| is below SCORE_TOL times the sum of
# |x_ij| over the events and every next step |d beta_j| is at most
# STEP_RTOL * (1 + |beta_j|).  A step is kept unless it lowers the
# log-likelihood by more than LOGLIK_RTOL times |null log-likelihood|.
# The score and log-likelihood scales are floored at 1, so small data are
# held to the absolute bounds; at n in the thousands with covariates in the
# tens, the rounding noise of the sums alone exceeds any fixed bound.
SCORE_TOL = 1e-9
STEP_RTOL = 1e-6
LOGLIK_RTOL = 1e-12
BETA_DIVERGENCE_LIMIT = 20.0
WALD_Z = 1.96


class SurvivalError(ValueError):
    """Invalid input to a survival computation."""


class RankDeficiencyError(SurvivalError):
    """Design matrix is rank deficient."""


class NonConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge (e.g. monotone likelihood)."""


class DegenerateSplitError(SurvivalError):
    """A score split produced an empty group."""


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail, 1 below the support (as scipy.stats.chi2.sf)."""
    return float(chdtrc(df, max(x, 0.0)))


def _safe_exp(x: float) -> float:
    """exp that saturates to inf instead of raising; huge Wald bounds are
    legitimate on near-flat likelihoods."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def minmax_normalize(scores, train_min: float, train_max: float) -> np.ndarray:
    """(s - min)/(max - min) against *training* extremes; values outside the
    training range are preserved (no clamping)."""
    if not train_max > train_min:
        raise SurvivalError(f"degenerate normalization range [{train_min}, {train_max}]")
    s = np.asarray(scores, dtype=np.float64)
    return (s - train_min) / (train_max - train_min)


def median_split(scores) -> np.ndarray:
    """0/1 group ids; the high group is score >= median."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size < 2:
        raise SurvivalError("median split needs at least 2 scores")
    med = float(np.median(s))
    high = s >= med
    if high.all() or not high.any():
        raise DegenerateSplitError("median split produced an empty group")
    return high.astype(np.int64)


# ---------------------------------------------------------------------------
# Dataset / design construction
# ---------------------------------------------------------------------------


@dataclass
class CovariateSpec:
    """How one clinical column enters the design matrix.

    kind "numeric": one column, multiplied by `scale`.
    kind "factor": one indicator column per non-reference level, named
    "column=level"; `ref` defaults to the lexicographically smallest level.
    """

    column: str
    kind: str = "numeric"
    ref: str | None = None
    scale: float = 1.0


@dataclass
class SurvivalDataset:
    times: np.ndarray
    events: np.ndarray
    design: np.ndarray
    columns: list[str]
    n_dropped: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.events = np.asarray(self.events, dtype=np.int64)
        self.design = np.asarray(self.design, dtype=np.float64)
        if self.times.ndim != 1 or self.events.shape != self.times.shape:
            raise SurvivalError("times/events must be matching 1-d arrays")
        if np.any(self.times <= 0):
            raise SurvivalError("survival times must be positive")
        if not np.isin(self.events, (0, 1)).all():
            raise SurvivalError("events must be 0/1")
        if self.design.shape != (self.times.size, len(self.columns)):
            raise SurvivalError("design shape does not match columns")


def build_dataset(rows: list[dict], specs: list[CovariateSpec],
                  time_key: str = "os_months", event_key: str = "os_event") -> SurvivalDataset:
    """Complete-case design matrix from clinical-style row dicts.

    Rows missing the time, the event, or any requested covariate are dropped.
    """
    levels: dict[str, list[str]] = {}
    for spec in specs:
        if spec.kind == "factor":
            seen = sorted({str(r[spec.column]) for r in rows
                           if r.get(spec.column) is not None})
            ref = spec.ref if spec.ref is not None else (seen[0] if seen else None)
            if ref is None:
                raise SurvivalError(f"factor column {spec.column!r} has no observed levels")
            if spec.ref is not None and spec.ref not in seen:
                raise SurvivalError(f"reference level {spec.ref!r} not observed in {spec.column!r}")
            levels[spec.column] = [lv for lv in seen if lv != ref]
        elif spec.kind != "numeric":
            raise SurvivalError(f"unknown covariate kind {spec.kind!r}")

    columns: list[str] = []
    for spec in specs:
        if spec.kind == "numeric":
            columns.append(spec.column)
        else:
            columns.extend(f"{spec.column}={lv}" for lv in levels[spec.column])

    times, events, design = [], [], []
    dropped = 0
    for r in rows:
        t, e = r.get(time_key), r.get(event_key)
        if t is None or e is None:
            dropped += 1
            continue
        row_vals: list[float] = []
        ok = True
        for spec in specs:
            v = r.get(spec.column)
            if v is None:
                ok = False
                break
            if spec.kind == "numeric":
                row_vals.append(float(v) * spec.scale)
            else:
                row_vals.extend(1.0 if str(v) == lv else 0.0 for lv in levels[spec.column])
        if not ok:
            dropped += 1
            continue
        times.append(float(t))
        events.append(int(e))
        design.append(row_vals)

    if not times:
        raise SurvivalError("no usable rows after complete-case filtering")
    return SurvivalDataset(
        times=np.array(times), events=np.array(events),
        design=np.array(design, dtype=np.float64).reshape(len(times), len(columns)),
        columns=columns, n_dropped=dropped,
    )


# ---------------------------------------------------------------------------
# Cox proportional hazards
# ---------------------------------------------------------------------------


def _event_blocks(times: np.ndarray, events: np.ndarray):
    """Yield (risk_index_end, tied_event_indices) per distinct event time.

    Subjects are processed in descending-time order, so the risk set at a
    distinct time is the prefix order[:end].
    """
    order = np.argsort(-times, kind="stable")
    t_sorted = times[order]
    i = 0
    n = times.size
    blocks = []
    while i < n:
        j = i
        while j + 1 < n and t_sorted[j + 1] == t_sorted[i]:
            j += 1
        tied = [order[k] for k in range(i, j + 1) if events[order[k]] == 1]
        if tied:
            blocks.append((j + 1, np.array(tied), t_sorted[i]))
        i = j + 1
    return order, blocks


def cox_loglik_score_info(times, events, X, beta, ties: str = "efron"):
    """Efron (or Breslow) partial log-likelihood with its gradient and
    observed information at `beta`."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n, p = X.shape
    eta = X @ beta
    eta = eta - eta.max()  # guards exp overflow; partial likelihood is shift-invariant
    w = np.exp(eta)
    wx = w[:, None] * X
    wxx = np.einsum("i,ij,ik->ijk", w, X, X)

    order, blocks = _event_blocks(times, events)
    # prefix sums over descending-time order give risk-set aggregates
    cw = np.cumsum(w[order])
    cwx = np.cumsum(wx[order], axis=0)
    cwxx = np.cumsum(wxx[order], axis=0)

    loglik = 0.0
    score = np.zeros(p)
    info = np.zeros((p, p))
    for end, tied, _t in blocks:
        d = len(tied)
        s_r = cw[end - 1]
        a_r = cwx[end - 1]
        b_r = cwxx[end - 1]
        s_d = w[tied].sum()
        a_d = wx[tied].sum(axis=0)
        b_d = wxx[tied].sum(axis=0)
        loglik += float(eta[tied].sum())
        score += X[tied].sum(axis=0)
        for l in range(d):
            frac = l / d if ties == "efron" else 0.0
            phi = s_r - frac * s_d
            mu = (a_r - frac * a_d) / phi
            m2 = (b_r - frac * b_d) / phi
            loglik -= math.log(phi)
            score -= mu
            info += m2 - np.outer(mu, mu)
    return loglik, score, info


@dataclass
class CoxCoef:
    name: str
    beta: float
    se: float
    hr: float
    ci_low: float
    ci_high: float
    p: float


@dataclass
class CoxFit:
    coefs: list[CoxCoef]
    loglik: float
    null_loglik: float
    lr_p: float
    concordance: float
    iterations: int
    converged: bool
    beta: np.ndarray = field(repr=False, default=None)
    info: np.ndarray = field(repr=False, default=None)
    ties: str = "efron"


def _check_design(X: np.ndarray, columns: list[str]) -> None:
    for j, name in enumerate(columns):
        if np.ptp(X[:, j]) == 0.0:
            raise RankDeficiencyError(f"covariate {name!r} has no variation")
    if X.shape[1] > 1:
        centered = X - X.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        if s[-1] < 1e-10 * max(s[0], 1.0):
            _, _, vt = np.linalg.svd(centered)
            j = int(np.argmax(np.abs(vt[-1])))
            raise RankDeficiencyError(f"design is rank deficient (involves {columns[j]!r})")


def cox_fit(data: SurvivalDataset, scales=None, ties: str = "efron") -> CoxFit:
    """Newton-Raphson fit of the Cox model.

    `scales` optionally rescales design columns before fitting so hazard
    ratios are reported per chosen increment (e.g. 10 TIL percentage points).
    """
    if ties not in ("efron", "breslow"):
        raise SurvivalError(f"unknown tie correction {ties!r}")
    X = data.design.copy()
    if scales is not None:
        scales = np.asarray(scales, dtype=np.float64)
        if scales.shape != (X.shape[1],):
            raise SurvivalError("one scale per design column required")
        X = X * scales
    n_events = int(data.events.sum())
    if n_events < 1:
        raise SurvivalError("at least one event is required")
    _check_design(X, data.columns)

    p = X.shape[1]
    beta = np.zeros(p)
    loglik, score, info = cox_loglik_score_info(data.times, data.events, X, beta, ties)
    null_loglik = loglik
    score_tol = SCORE_TOL * np.maximum(np.abs(X[data.events == 1]).sum(axis=0), 1.0)
    ll_margin = LOGLIK_RTOL * max(abs(null_loglik), 1.0)
    iterations = 0
    while True:
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"singular information matrix: {exc}") from exc
        # far out on a monotone likelihood the score is small as well, but
        # the Newton step is not: convergence needs both to be small
        if (np.all(np.abs(score) < score_tol)
                and np.all(np.abs(step) <= STEP_RTOL * (1.0 + np.abs(beta)))):
            break
        if iterations == MAX_NEWTON_ITER:
            raise NonConvergenceError(
                f"Newton-Raphson did not converge in {MAX_NEWTON_ITER} iterations")
        iterations += 1
        # step halving keeps Newton from overshooting on near-flat likelihoods
        for _ in range(6):
            cand = beta + step
            new_ll, new_score, new_info = cox_loglik_score_info(
                data.times, data.events, X, cand, ties)
            if new_ll >= loglik - ll_margin or np.max(np.abs(step)) < 1e-12:
                break
            step = step / 2.0
        beta, loglik, score, info = cand, new_ll, new_score, new_info
        if float(np.max(np.abs(beta))) > BETA_DIVERGENCE_LIMIT:
            raise NonConvergenceError(
                "coefficient diverged (|beta| > 20); likelihood is likely monotone")

    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"singular information at optimum: {exc}") from exc
    se = np.sqrt(np.diag(cov))
    coefs = []
    for j, name in enumerate(data.columns):
        b, s = float(beta[j]), float(se[j])
        z = b / s
        coefs.append(CoxCoef(
            name=name, beta=b, se=s, hr=_safe_exp(b),
            ci_low=_safe_exp(b - WALD_Z * s), ci_high=_safe_exp(b + WALD_Z * s),
            p=float(2.0 * ndtr(-abs(z))),
        ))
    risk = X @ beta
    c_index = harrell_c(data.times, data.events, risk)
    lr_stat = 2.0 * (loglik - null_loglik)
    lr_p = _chi2_sf(lr_stat, p)
    return CoxFit(coefs=coefs, loglik=loglik, null_loglik=null_loglik, lr_p=lr_p,
                  concordance=c_index, iterations=iterations, converged=True,
                  beta=beta, info=info, ties=ties)


def harrell_c(times, events, risk_scores) -> float:
    """Concordance over usable pairs: the earlier time must be an event and
    times must differ; risk ties count 1/2.  Higher risk should mean
    shorter survival."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    r = np.asarray(risk_scores, dtype=np.float64)
    if not (t.shape == e.shape == r.shape):
        raise SurvivalError("times/events/risk length mismatch")
    # usable pair (i, j): t_i < t_j and subject i had the event
    earlier = t[:, None] < t[None, :]
    usable = earlier & (e[:, None] == 1)
    n_usable = int(usable.sum())
    if n_usable == 0:
        raise SurvivalError("no comparable pairs")
    conc = (r[:, None] > r[None, :]) & usable
    tied = (r[:, None] == r[None, :]) & usable
    return float((conc.sum() + 0.5 * tied.sum()) / n_usable)


# ---------------------------------------------------------------------------
# Kaplan-Meier / log-rank
# ---------------------------------------------------------------------------


@dataclass
class KmCurve:
    """Product-limit estimate for one group: S(0)=1, drops at event times."""

    group: str
    times: np.ndarray
    n_risk: np.ndarray
    n_event: np.ndarray
    survival: np.ndarray
    n: int

    def survival_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 1.0 if idx < 0 else float(self.survival[idx])


def km_curve(times, events, group_ids=None) -> list[KmCurve]:
    """Kaplan-Meier curves, one per group (single pooled group if ids omitted)."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    if t.size == 0:
        raise SurvivalError("empty survival data")
    gids = np.zeros(t.size, dtype=object) if group_ids is None else np.asarray(group_ids, dtype=object)
    curves = []
    for g in sorted(set(gids.tolist()), key=str):
        sel = gids == g
        tg, eg = t[sel], e[sel]
        order = np.argsort(tg, kind="stable")
        tg, eg = tg[order], eg[order]
        uniq = np.unique(tg)
        at_risk = tg.size
        s = 1.0
        out_t, out_r, out_d, out_s = [], [], [], []
        for ut in uniq:
            mask = tg == ut
            d = int(eg[mask].sum())
            if d > 0:
                s *= 1.0 - d / at_risk
                out_t.append(float(ut))
                out_r.append(at_risk)
                out_d.append(d)
                out_s.append(s)
            at_risk -= int(mask.sum())
        curves.append(KmCurve(
            group=str(g), times=np.array(out_t), n_risk=np.array(out_r, dtype=np.int64),
            n_event=np.array(out_d, dtype=np.int64), survival=np.array(out_s), n=int(tg.size)))
    return curves


def logrank(times, events, group_ids) -> tuple[float, float]:
    """Log-rank test across >= 2 groups: chi-square on groups-1 df."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    gids = np.asarray(group_ids, dtype=object)
    groups = sorted(set(gids.tolist()), key=str)
    g_count = len(groups)
    if g_count < 2:
        raise SurvivalError("log-rank needs at least 2 groups")
    if e.sum() < 1:
        raise SurvivalError("log-rank needs at least 1 event")
    gidx = np.array([groups.index(g) for g in gids])

    observed = np.zeros(g_count)
    expected = np.zeros(g_count)
    var = np.zeros((g_count, g_count))
    for ut in np.unique(t[e == 1]):
        at_risk = t >= ut
        n_tot = int(at_risk.sum())
        d_tot = int(((t == ut) & (e == 1)).sum())
        n_g = np.bincount(gidx[at_risk], minlength=g_count).astype(np.float64)
        d_g = np.bincount(gidx[(t == ut) & (e == 1)], minlength=g_count).astype(np.float64)
        observed += d_g
        expected += d_tot * n_g / n_tot
        if n_tot > 1:
            scale = d_tot * (n_tot - d_tot) / (n_tot**2 * (n_tot - 1.0))
            var += scale * (np.diag(n_g * n_tot) - np.outer(n_g, n_g))
    diff = (observed - expected)[: g_count - 1]
    v = var[: g_count - 1, : g_count - 1]
    try:
        sol = np.linalg.solve(v, diff)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(v) @ diff
    chi2 = float(diff @ sol)
    df = g_count - 1
    return chi2, _chi2_sf(chi2, df)


# ---------------------------------------------------------------------------
# Schoenfeld proportional-hazards diagnostics
# ---------------------------------------------------------------------------


@dataclass
class SchoenfeldResult:
    per_covariate: dict[str, tuple[float, float]]  # name -> (chi2, p)
    global_chi2: float
    global_p: float
    residuals: np.ndarray  # one row per event
    event_times: np.ndarray


def schoenfeld_test(fit: CoxFit, data: SurvivalDataset, scales=None) -> SchoenfeldResult:
    """Grambsch-Therneau score test of proportional hazards.

    Schoenfeld residuals at the fitted beta are correlated against the
    Kaplan-Meier transform g(t) = 1 - KM(t); chi-square statistics use the
    average-information approximation.
    """
    n_events = int(data.events.sum())
    if n_events < 2:
        raise SurvivalError("Schoenfeld test needs at least 2 events")
    X = data.design.copy()
    if scales is not None:
        X = X * np.asarray(scales, dtype=np.float64)

    eta = X @ fit.beta
    eta = eta - eta.max()
    w = np.exp(eta)
    wx = w[:, None] * X
    order, blocks = _event_blocks(data.times, data.events)
    cw = np.cumsum(w[order])
    cwx = np.cumsum(wx[order], axis=0)

    residuals, ev_times = [], []
    for end, tied, t_val in blocks:
        d = len(tied)
        s_r, a_r = cw[end - 1], cwx[end - 1]
        s_d, a_d = w[tied].sum(), wx[tied].sum(axis=0)
        for l, i in enumerate(tied):
            frac = l / d if fit.ties == "efron" else 0.0
            mu = (a_r - frac * a_d) / (s_r - frac * s_d)
            residuals.append(X[i] - mu)
            ev_times.append(t_val)
    residuals = np.array(residuals)
    ev_times = np.array(ev_times)

    km = km_curve(data.times, data.events)[0]
    g = np.array([1.0 - km.survival_at(t) for t in ev_times])
    gc = g - g.mean()
    ss_g = float(gc @ gc)
    if ss_g == 0.0:
        raise SurvivalError("degenerate time transform (all events at one time)")

    v_bar = fit.info / n_events
    u = residuals.T @ gc
    v_bar_inv = np.linalg.inv(v_bar)
    vu = v_bar_inv @ u
    global_chi2 = float((u @ vu) / ss_g)
    global_p = _chi2_sf(global_chi2, X.shape[1])
    per = {}
    for j, name in enumerate(data.columns):
        t_j = vu[j] ** 2 / (v_bar_inv[j, j] * ss_g)
        per[name] = (float(t_j), _chi2_sf(t_j, 1))
    return SchoenfeldResult(per_covariate=per, global_chi2=global_chi2, global_p=global_p,
                            residuals=residuals, event_times=ev_times)

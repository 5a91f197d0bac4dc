"""Outcome analysis: Cox proportional hazards, Kaplan-Meier, and friends.

The Cox fitter maximises the Efron-tie partial likelihood by Newton-Raphson.
Confidence intervals are Wald intervals exp(beta +/- 1.96*se); the
proportional-hazards check regresses scaled Schoenfeld residuals on
Kaplan-Meier-transformed time.  Cox, Schoenfeld, Kaplan-Meier and log-rank
all read one risk-set table (`_risk_sets`): a stable descending-time sort in
which the risk set at each distinct event time is a prefix, so every
risk-set sum is a prefix sum.  Harrell's C keeps its own sorted count.
All subjects enter at t=0; no delayed entry or time-dependent covariates.
The p-values need only two scalar tails, chi-square at an integer df and
the normal, both closed forms over `math`, so the module uses numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import TilscoreError
from .concord import median

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


class NonConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge (e.g. monotone likelihood)."""


class DegenerateSplitError(TilscoreError):
    """A score split produced an empty group."""


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail at x on an integer df >= 1, 1 for x <= 0.

    With y = x/2: e^-y sum_{k < df/2} y^k / k! for even df, and for odd df
    erfc(sqrt(y)) + e^-y sum_{k=1}^{(df-1)/2} y^(k-1/2) / Gamma(k+1/2).  All
    terms are positive; within 1e-12 relative of `scipy.special.chdtrc` for
    df 1-9 and x in [0, 1400], wherever that is at least 1e-300.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y, odd = 0.5 * x, df % 2
    total = math.erfc(math.sqrt(y)) if odd else 0.0
    term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if odd else 1.0)
    for k in range(df // 2):  # term = e^-y y^(a-1) / Gamma(a), a = k + 1 or k + 3/2
        total += term
        term *= y / (k + 1.0 + 0.5 * odd)
    return total


def _wald_p(z: float) -> float:
    """Two-sided normal p-value of a Wald z, 2 * Phi(-|z|)."""
    return math.erfc(abs(z) * math.sqrt(0.5))


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
        raise TilscoreError(f"degenerate normalization range [{train_min}, {train_max}]")
    s = np.asarray(scores, dtype=np.float64)
    return (s - train_min) / (train_max - train_min)


def median_split(scores) -> tuple[np.ndarray, float]:
    """0/1 group ids, the high group being score >= median, and the median."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size < 2:
        raise TilscoreError("median split needs at least 2 scores")
    med = median(s)
    high = s >= med
    if high.all() or not high.any():
        raise DegenerateSplitError("median split produced an empty group")
    return high.astype(np.int64), med


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
            raise TilscoreError("times/events must be matching 1-d arrays")
        if np.any(self.times <= 0):
            raise TilscoreError("survival times must be positive")
        if not np.isin(self.events, (0, 1)).all():
            raise TilscoreError("events must be 0/1")
        if self.design.shape != (self.times.size, len(self.columns)):
            raise TilscoreError("design shape does not match columns")


def build_dataset(times, events, columns: dict, specs: list[CovariateSpec]) -> SurvivalDataset:
    """Complete-case design matrix from per-subject columns.

    `columns` maps a column name to one value per subject, None where the
    value is missing.  Subjects missing any requested covariate are dropped.
    """
    times, events = np.asarray(times), np.asarray(events)
    n = times.size
    names: list[str] = []
    blocks, keep = [np.empty((n, 0))], np.ones(n, dtype=bool)
    for spec in specs:
        if spec.kind not in ("numeric", "factor"):
            raise TilscoreError(f"unknown covariate kind {spec.kind!r}")
        vals = np.asarray(columns.get(spec.column, [None] * n), dtype=object)
        present = vals != None  # noqa: E711 -- elementwise on an object array
        if not present.any():
            raise TilscoreError(f"column {spec.column!r} has no value for any subject")
        keep &= present
        if spec.kind == "numeric":
            block = np.zeros((n, 1))
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                    block[present, 0] = vals[present].astype(np.float64) * spec.scale
                    squares = np.square(block).sum()
            except ValueError as exc:
                raise TilscoreError(f"numeric column {spec.column!r}: {exc}") from exc
            if not np.isfinite(block).all():
                raise TilscoreError(f"numeric column {spec.column!r} at scale {spec.scale!r} "
                                    "is not finite")
            # Cox weights are at most 1, so this sum bounds every risk set's
            # second moment in the information matrix
            if not np.isfinite(squares):
                raise TilscoreError(f"numeric column {spec.column!r} at scale {spec.scale!r} "
                                    "overflows the Cox information matrix")
            names.append(spec.column)
        else:
            # with return_inverse, np.unique does not import numpy.ma
            seen, level_of = np.unique(vals[present].astype(str), return_inverse=True)
            ref = spec.ref if spec.ref is not None else str(seen[0])
            if ref not in seen:
                raise TilscoreError(f"reference level {spec.ref!r} not observed in {spec.column!r}")
            kept = np.flatnonzero(seen != ref)
            if not kept.size:  # no indicator column: the models would silently lose it
                raise TilscoreError(f"factor {spec.column!r} has only one level, {ref!r}")
            block = np.zeros((n, kept.size))
            block[present] = level_of[:, None] == kept
            names.extend(f"{spec.column}={lv}" for lv in seen[kept])
        blocks.append(block)

    if not keep.any():
        raise TilscoreError("no usable rows after complete-case filtering")
    return SurvivalDataset(times=times[keep], events=events[keep], design=np.hstack(blocks)[keep],
                           columns=names, n_dropped=int(n - keep.sum()))


# ---------------------------------------------------------------------------
# Cox proportional hazards
# ---------------------------------------------------------------------------


class _RiskSets(NamedTuple):
    """Risk sets at the distinct event times, latest time first.

    Block b's risk set is order[:n_risk[b]] and its tied events are
    events[first[b]:first[b] + n_event[b]]; each event has its block and its
    tie_rank, counted from 0 within the block.
    """

    order: np.ndarray
    times: np.ndarray
    n_risk: np.ndarray
    n_event: np.ndarray
    events: np.ndarray
    block: np.ndarray
    first: np.ndarray
    tie_rank: np.ndarray


def _risk_sets(times: np.ndarray, events: np.ndarray) -> _RiskSets:
    order = np.argsort(-times, kind="stable")
    ev = order[events[order] == 1]
    t_ev = times[ev]
    new = np.ones(ev.size, dtype=bool)
    new[1:] = t_ev[1:] != t_ev[:-1]
    first = np.flatnonzero(new)
    n_event = np.diff(np.append(first, ev.size))
    block = np.repeat(np.arange(first.size), n_event)
    # subjects with t >= u, the prefix of the descending order
    n_risk = np.searchsorted(-times[order], -t_ev[first], side="right")
    return _RiskSets(order=order, times=t_ev[first], n_risk=n_risk, n_event=n_event,
                     events=ev, block=block, first=first,
                     tie_rank=np.arange(ev.size) - first[block])


def _event_means(rs: _RiskSets, X: np.ndarray, beta: np.ndarray, second: bool = False):
    """Efron terms, one row per event of `rs.events`: the event's centred
    linear predictor eta, its risk-set weight phi, the weighted covariate
    mean mu and, if `second`, the weighted second moments.

    Each sum over the risk set is a prefix sum over `rs.order` read at
    n_risk - 1, less tie_rank / n_event times the sum over the tied block.
    """
    eta = X @ beta
    eta = eta - eta.max()  # guards exp overflow; partial likelihood is shift-invariant
    w = np.exp(eta)
    frac = rs.tie_rank / rs.n_event[rs.block]

    def efron(v):
        risk = np.cumsum(v[rs.order], axis=0)[rs.n_risk - 1]
        tied = np.add.reduceat(v[rs.events], rs.first, axis=0)
        return risk[rs.block] - frac.reshape((-1,) + (1,) * (v.ndim - 1)) * tied[rs.block]

    phi = efron(w)
    mu = efron(w[:, None] * X) / phi[:, None]
    if not second:
        return eta[rs.events], phi, mu
    m2 = efron(np.einsum("i,ij,ik->ijk", w, X, X)) / phi[:, None, None]
    return eta[rs.events], phi, mu, m2


def cox_loglik_score_info(times, events, X, beta):
    """Efron partial log-likelihood with its gradient and observed
    information at `beta`."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    rs = _risk_sets(times, events)
    eta, phi, mu, m2 = _event_means(rs, X, np.asarray(beta, dtype=np.float64), second=True)
    loglik = float(eta.sum() - np.log(phi).sum())
    score = X[rs.events].sum(axis=0) - mu.sum(axis=0)
    info = m2.sum(axis=0) - mu.T @ mu
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
    beta: np.ndarray = field(repr=False, default=None)
    info: np.ndarray = field(repr=False, default=None)


def _check_design(X: np.ndarray, columns: list[str]) -> None:
    for j, name in enumerate(columns):
        if np.ptp(X[:, j]) == 0.0:
            raise TilscoreError(f"covariate {name!r} has no variation")
    if X.shape[1] > 1:
        # the rank test is scale-free: each column is first scaled exactly by a
        # power of two to below 1 in magnitude, so no sum overflows, then
        # centred and brought to unit norm
        centered = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])
        centered -= centered.mean(axis=0)
        centered /= np.linalg.norm(centered, axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        if s[-1] < 1e-10 * s[0]:
            _, _, vt = np.linalg.svd(centered, full_matrices=False)  # no n x n U
            j = int(np.argmax(np.abs(vt[-1])))
            raise TilscoreError(f"design is rank deficient (involves {columns[j]!r})")


def cox_fit(data: SurvivalDataset) -> CoxFit:
    """Newton-Raphson fit of the Cox model.

    Hazard ratios are per unit of each design column; `CovariateSpec.scale`
    sets that unit (e.g. 10 TIL percentage points) when the design is built.
    """
    X = data.design
    n_events = int(data.events.sum())
    if n_events < 1:
        raise TilscoreError("at least one event is required")
    _check_design(X, data.columns)

    p = X.shape[1]
    beta = np.zeros(p)
    loglik, score, info = cox_loglik_score_info(data.times, data.events, X, beta)
    null_loglik = loglik
    score_tol = SCORE_TOL * np.maximum(np.abs(X[data.events == 1]).sum(axis=0), 1.0)
    ll_margin = LOGLIK_RTOL * max(abs(null_loglik), 1.0)
    iterations = 0
    while True:
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise TilscoreError(f"singular information matrix over {data.columns}: {exc}") from exc
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
                data.times, data.events, X, cand)
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
        raise TilscoreError(f"singular information over {data.columns} at optimum: {exc}") from exc
    se = np.sqrt(np.diag(cov))
    coefs = []
    for j, name in enumerate(data.columns):
        b, s = float(beta[j]), float(se[j])
        coefs.append(CoxCoef(
            name=name, beta=b, se=s, hr=_safe_exp(b),
            ci_low=_safe_exp(b - WALD_Z * s), ci_high=_safe_exp(b + WALD_Z * s),
            p=_wald_p(b / s),
        ))
    risk = X @ beta
    c_index = harrell_c(data.times, data.events, risk)
    lr_stat = 2.0 * (loglik - null_loglik)
    lr_p = _chi2_sf(lr_stat, p)
    return CoxFit(coefs=coefs, loglik=loglik, null_loglik=null_loglik, lr_p=lr_p,
                  concordance=c_index, iterations=iterations, beta=beta, info=info)


def harrell_c(times, events, risk_scores) -> float:
    """Concordance over usable pairs: the earlier time must be an event and
    times must differ; risk ties count 1/2.  Higher risk should mean
    shorter survival.

    O(n log^2 n) time and O(n) memory: with subjects in descending time
    order, the partners j (t_j > t_i) of event i are a prefix of `later_i`
    positions.  That prefix splits, one block per set bit of its length, into
    aligned blocks of 2**k positions, as in a Fenwick tree; each block's risk
    ranks are sorted once per level and counted with a binary search.
    """
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    r = np.asarray(risk_scores, dtype=np.float64)
    if not (t.shape == e.shape == r.shape):
        raise TilscoreError("times/events/risk length mismatch")
    if not (np.isfinite(t).all() and np.isfinite(r).all()):
        raise TilscoreError("times and risk scores must be finite")
    order = np.argsort(-t, kind="stable")
    event = e == 1
    later = np.searchsorted(-t[order], -t[event], side="left")  # partners of each event
    n_usable = int(later.sum())
    if n_usable == 0:
        raise TilscoreError("no comparable pairs")
    levels, rank = np.unique(r, return_inverse=True)
    m = levels.size
    rank_in_order, rank_of_event = rank[order], rank[event]
    position = np.arange(t.size)
    conc = conc_or_tied = 0  # partners with lower / lower-or-equal risk
    for k in range(int(later.max()).bit_length()):
        keys = np.sort((position >> k) * m + rank_in_order)  # (block, rank), sorted
        hit = (later >> k) & 1 == 1
        block = (later[hit] >> k) - 1
        probe = np.sort(block * m + rank_of_event[hit])  # sorted probes search far faster
        skipped = int((block << k).sum())  # keys of the blocks before each probe's block
        conc += int(np.searchsorted(keys, probe, side="left").sum()) - skipped
        conc_or_tied += int(np.searchsorted(keys, probe, side="right").sum()) - skipped
    return float((conc + 0.5 * (conc_or_tied - conc)) / n_usable)


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


def _group_counts(times, events, group_ids):
    """Group names (sorted as strings), each group's size, the pooled risk
    sets, and the at-risk and event counts per (distinct event time, group)."""
    gids = np.asarray(np.zeros(times.size, dtype=np.int64) if group_ids is None else group_ids)
    if gids.shape != times.shape:
        raise TilscoreError("one group id per subject required")
    # the distinct ids first, in their own dtype; then only those become
    # strings, which set the group names and their order
    distinct, inverse = np.unique(gids.astype(str) if gids.dtype == object else gids,
                                  return_inverse=True)
    names, rank = np.unique(distinct.astype(str), return_inverse=True)
    gidx = rank[inverse]
    k = names.size
    rs = _risk_sets(times, events)
    member = gidx[rs.order][:, None] == np.arange(k)
    n_risk = np.cumsum(member, axis=0)[rs.n_risk - 1]
    n_event = np.bincount(rs.block * k + gidx[rs.events],
                          minlength=rs.times.size * k).reshape(-1, k)
    return names.tolist(), np.bincount(gidx, minlength=k), rs, n_risk, n_event


def km_curve(times, events, group_ids=None) -> list[KmCurve]:
    """Kaplan-Meier curves, one per group (single pooled group if ids omitted)."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    if t.size == 0:
        raise TilscoreError("empty survival data")
    names, sizes, rs, n_risk, n_event = _group_counts(t, e, group_ids)
    # ascending time; cumprod multiplies the factors in time order
    ut, n_risk, n_event = rs.times[::-1], n_risk[::-1], n_event[::-1]
    curves = []
    for k, name in enumerate(names):
        hit = n_event[:, k] > 0
        r, d = n_risk[hit, k], n_event[hit, k]
        curves.append(KmCurve(group=name, times=ut[hit], n_risk=r, n_event=d,
                              survival=np.cumprod(1.0 - d / r), n=int(sizes[k])))
    return curves


def logrank(times, events, group_ids) -> tuple[float, float]:
    """Log-rank test across >= 2 groups: chi-square on groups-1 df."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    names, _, rs, n_g, d_g = _group_counts(t, e, group_ids)
    g_count = len(names)
    if g_count < 2:
        raise TilscoreError("log-rank needs at least 2 groups")
    if rs.times.size == 0:
        raise TilscoreError("log-rank needs at least 1 event")
    n, d = rs.n_risk.astype(np.float64), rs.n_event.astype(np.float64)
    observed = d_g.sum(axis=0)
    expected = (d / n) @ n_g
    # hypergeometric covariance per event time (zero where one is at risk)
    scale = d * (n - d) / (n**2 * np.maximum(n - 1.0, 1.0))
    var = np.diag((scale * n) @ n_g) - (n_g.T * scale) @ n_g
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


def schoenfeld_test(fit: CoxFit, data: SurvivalDataset) -> SchoenfeldResult:
    """Grambsch-Therneau score test of proportional hazards.

    Schoenfeld residuals at the fitted beta are correlated against the
    Kaplan-Meier transform g(t) = 1 - KM(t); chi-square statistics use the
    average-information approximation.
    """
    n_events = int(data.events.sum())
    if n_events < 2:
        raise TilscoreError("Schoenfeld test needs at least 2 events")
    X = data.design
    rs = _risk_sets(data.times, data.events)
    _, _, mu = _event_means(rs, X, fit.beta)
    residuals = X[rs.events] - mu
    ev_times = rs.times[rs.block]
    # g(t) = 1 - KM(t) of the pooled data, at each event's time
    km = np.cumprod((1.0 - rs.n_event / rs.n_risk)[::-1])[::-1]
    g = 1.0 - km[rs.block]
    gc = g - g.mean()
    ss_g = float(gc @ gc)
    if ss_g == 0.0:
        raise TilscoreError("degenerate time transform (all events at one time)")

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

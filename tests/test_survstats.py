import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import raises_error
from tilscore import TilscoreError
from tilscore.survstats import (
    CoxFit,
    CovariateSpec,
    DegenerateSplitError,
    NonConvergenceError,
    SurvivalDataset,
    _check_design,
    _chi2_sf,
    _group_counts,
    _wald_p,
    build_dataset,
    cox_fit,
    cox_loglik_score_info,
    harrell_c,
    km_curve,
    logrank,
    median_split,
    minmax_normalize,
    schoenfeld_test,
)


def naive_partial_loglik(times, events, x, beta):
    """Straight-line partial log-likelihood for one covariate, no tied times.

    Independent of the fitter: for each event, log of exp(beta*x_i) over the
    sum of exp(beta*x_j) across subjects still at risk.
    """
    ll = 0.0
    for i in range(len(times)):
        if events[i] != 1:
            continue
        denom = sum(math.exp(beta * x[j]) for j in range(len(times)) if times[j] >= times[i])
        ll += beta * x[i] - math.log(denom)
    return ll


def naive_efron_loglik(times, events, x, beta):
    """Straight-line Efron partial log-likelihood: a loop over the distinct
    event times, with the risk set and the tied events found by scanning
    every subject."""
    n = len(times)
    eta = [float(np.dot(x[j], beta)) for j in range(n)]
    ll = 0.0
    for u in sorted({times[i] for i in range(n) if events[i] == 1}):
        s_r = sum(math.exp(eta[j]) for j in range(n) if times[j] >= u)
        tied = [j for j in range(n) if times[j] == u and events[j] == 1]
        s_d = sum(math.exp(eta[j]) for j in tied)
        d = len(tied)
        for l, j in enumerate(tied):
            ll += eta[j] - math.log(s_r - l / d * s_d)
    return ll


def grid_argmax_beta(times, events, x, lo=-5.0, hi=5.0, step=1e-3):
    grid = np.arange(lo, hi + step / 2, step)
    vals = [naive_partial_loglik(times, events, x, b) for b in grid]
    return float(grid[int(np.argmax(vals))])


def make_random_cox_dataset(rng, n_max=8):
    """Small untied dataset whose partial likelihood has an interior maximum."""
    while True:
        n = int(rng.integers(4, n_max + 1))
        x = rng.normal(size=n).round(2)
        times = rng.uniform(1.0, 50.0, size=n).round(3)
        if len(set(times.tolist())) < n:
            continue
        events = (rng.random(n) < 0.8).astype(int)
        if events.sum() < 2 or np.ptp(x) == 0:
            continue
        ds = SurvivalDataset(times=times, events=events, design=x[:, None], columns=["x"])
        try:
            fit = cox_fit(ds)
        except (NonConvergenceError, TilscoreError):
            continue
        if abs(fit.coefs[0].beta) > 4.5:
            continue
        return ds, fit


class TestNormalizeAndSplit:
    def test_endpoints(self):
        out = minmax_normalize([2.0, 5.0], 2.0, 5.0)
        assert out.tolist() == [0.0, 1.0]

    def test_no_clamp_above(self):
        assert minmax_normalize([7.0], 2.0, 5.0)[0] == pytest.approx(5.0 / 3.0)

    def test_degenerate_range(self):
        with raises_error("degenerate normalization range [3.0, 3.0]"):
            minmax_normalize([1.0], 3.0, 3.0)

    def test_median_split_even(self):
        groups, med = median_split([1.0, 2.0, 3.0, 4.0])
        assert groups.tolist() == [0, 0, 1, 1] and med == 2.5

    def test_median_element_goes_high_odd(self):
        groups, med = median_split([10.0, 20.0, 30.0])
        assert groups.tolist() == [0, 1, 1] and med == 20.0

    def test_all_equal_is_error(self):
        with pytest.raises(DegenerateSplitError):
            median_split([5.0, 5.0, 5.0])


class TestKaplanMeier:
    def test_all_censored_flat(self):
        (curve,) = km_curve([1.0, 2.0, 3.0], [0, 0, 0])
        assert curve.times.size == 0
        assert curve.survival_at(0.0) == 1.0
        assert curve.survival_at(100.0) == 1.0

    def test_single_subject(self):
        (curve,) = km_curve([5.0], [1])
        assert curve.survival_at(4.999) == 1.0
        assert curve.survival_at(5.0) == 0.0

    def test_five_subject_hand_table(self):
        # times 1,2,3,4,5 with events 1,1,0,1,0:
        #   t=1: 5 at risk, S=4/5;  t=2: 4 at risk, S=4/5*3/4=3/5
        #   t=3 censored;           t=4: 2 at risk, S=3/5*1/2=3/10
        (curve,) = km_curve([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 0])
        assert curve.times.tolist() == [1.0, 2.0, 4.0]
        assert curve.n_risk.tolist() == [5, 4, 2]
        s1 = 1.0 - 1.0 / 5.0
        s2 = s1 * (1.0 - 1.0 / 4.0)
        s3 = s2 * (1.0 - 1.0 / 2.0)
        assert curve.survival.tolist() == [s1, s2, s3]
        assert curve.survival_at(3.5) == s2
        assert curve.survival_at(0.0) == 1.0

    def test_monotone_nonincreasing_property(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.5, 30, size=40)
        events = (rng.random(40) < 0.6).astype(int)
        (curve,) = km_curve(times, events)
        assert np.all(np.diff(curve.survival) <= 1e-15)
        assert curve.survival_at(0.0) == 1.0

    def test_groups_are_independent(self):
        curves = km_curve([1.0, 2.0, 1.0, 2.0], [1, 1, 0, 0], ["a", "a", "b", "b"])
        by_group = {c.group: c for c in curves}
        assert by_group["b"].times.size == 0
        assert by_group["a"].survival.tolist() == [0.5, 0.0]


class TestLogrank:
    def test_identical_groups_chi2_zero(self):
        times = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        events = [1, 1, 0, 1, 1, 0]
        gids = ["a", "a", "a", "b", "b", "b"]
        chi2, p = logrank(times, events, gids)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_six_subject_hand_computation(self):
        # A events at 2,4,6; B events at 1,3,5 (no censoring).
        # O_A=3, E_A=1/2+3/5+1/2+2/3+1/2+1=113/30, V=1091/900
        # chi2 = (23/30)^2 / (1091/900) = 529/1091
        times = [2.0, 4.0, 6.0, 1.0, 3.0, 5.0]
        events = [1, 1, 1, 1, 1, 1]
        gids = ["A", "A", "A", "B", "B", "B"]
        chi2, p = logrank(times, events, gids)
        assert chi2 == pytest.approx(529.0 / 1091.0, abs=1e-12)
        assert 0.0 < p < 1.0

    def test_zero_events_error(self):
        with raises_error("log-rank needs at least 1 event"):
            logrank([1.0, 2.0], [0, 0], ["a", "b"])

    def test_single_group_error(self):
        with raises_error("log-rank needs at least 2 groups"):
            logrank([1.0, 2.0], [1, 1], ["a", "a"])

    def test_three_groups_runs(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(1, 20, 30)
        events = (rng.random(30) < 0.7).astype(int)
        gids = rng.integers(0, 3, 30)
        chi2, p = logrank(times, events, gids)
        assert chi2 >= 0.0 and 0.0 <= p <= 1.0


class TestHarrellC:
    def test_perfect_antiordering(self):
        times = np.array([3.0, 1.0, 4.0, 2.0])
        risk = -times  # higher risk = shorter survival... here inverted
        # risk = -time means the longest survivor has the lowest risk: perfect
        assert harrell_c(times, np.ones(4, dtype=int), -times) == 1.0

    def test_all_risks_equal(self):
        assert harrell_c([1.0, 2.0, 3.0], [1, 1, 1], [5.0, 5.0, 5.0]) == 0.5

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            times = rng.uniform(1, 10, n).round(1)  # allow time ties
            events = (rng.random(n) < 0.7).astype(int)
            risk = rng.normal(size=n).round(1)  # allow risk ties
            conc = tied = usable = 0
            for i in range(n):
                for j in range(n):
                    if times[i] < times[j] and events[i] == 1:
                        usable += 1
                        if risk[i] > risk[j]:
                            conc += 1
                        elif risk[i] == risk[j]:
                            tied += 1
            if usable == 0:
                with raises_error("no comparable pairs"):
                    harrell_c(times, events, risk)
                continue
            expected = (conc + 0.5 * tied) / usable
            assert harrell_c(times, events, risk) == pytest.approx(expected, abs=1e-12)

    def test_no_comparable_pairs(self):
        with raises_error("no comparable pairs"):
            harrell_c([2.0, 2.0], [1, 1], [0.1, 0.9])

    def test_matches_pair_matrix_reference_exactly(self):
        # the former all-pairs implementation, kept as the reference: the
        # counts are integers, so C must agree to the last bit
        def matrix_c(t, e, r):
            usable = (t[:, None] < t[None, :]) & (e[:, None] == 1)
            conc = (r[:, None] > r[None, :]) & usable
            tied = (r[:, None] == r[None, :]) & usable
            return float((conc.sum() + 0.5 * tied.sum()) / int(usable.sum()))

        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            times = rng.integers(0, rng.integers(1, 60), n).astype(float)  # heavy time ties
            events = (rng.random(n) < rng.random()).astype(int)
            risk = rng.integers(0, rng.integers(1, 40), n) / 8.0  # heavy risk ties
            if not ((times[:, None] < times[None, :]) & (events[:, None] == 1)).any():
                continue
            assert harrell_c(times, events, risk) == matrix_c(times, events, risk)

    def test_hundred_thousand_subjects_under_a_second(self):
        rng = np.random.default_rng(3)
        n = 100_000
        times = rng.exponential(5.0, n).round(2)
        events = (rng.random(n) < 0.4).astype(int)
        risk = rng.normal(size=n).round(3)
        start = time.perf_counter()
        c = harrell_c(times, events, risk)
        assert time.perf_counter() - start < 1.0
        assert 0.45 < c < 0.55  # risk is independent of time

    def test_non_finite_rejected(self):
        with raises_error("times and risk scores must be finite"):
            harrell_c([1.0, 2.0, np.nan], [1, 1, 1], [0.1, 0.2, 0.3])
        with raises_error("times and risk scores must be finite"):
            harrell_c([1.0, 2.0, 3.0], [1, 1, 1], [0.1, np.inf, 0.3])


class TestCoxLikelihood:
    def test_hand_three_subject_newton_step(self):
        # x=(1,0,0), times (1,2,3), all events, beta=0:
        #   t=1: mean x over risk {1,2,3} = 1/3 -> score 2/3, info 1/3-1/9=2/9
        #   t=2, t=3: x=0 everywhere at risk -> no contribution
        ll, score, info = cox_loglik_score_info(
            [1.0, 2.0, 3.0], [1, 1, 1], np.array([[1.0], [0.0], [0.0]]), np.array([0.0]))
        assert score[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert info[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert ll == pytest.approx(-(math.log(3) + math.log(2) + math.log(1)), abs=1e-12)

    def test_matches_naive_loglik_no_ties(self):
        rng = np.random.default_rng(31)
        times = rng.uniform(1, 20, 7)
        events = np.array([1, 0, 1, 1, 0, 1, 1])
        x = rng.normal(size=7)
        for beta in (-1.3, 0.0, 0.7, 2.1):
            ll, _, _ = cox_loglik_score_info(times, events, x[:, None], np.array([beta]))
            assert ll == pytest.approx(naive_partial_loglik(times, events, x, beta), abs=1e-10)

    def test_efron_ties_match_straight_line_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            times = rng.integers(1, rng.integers(2, 8), n).astype(float)  # heavy ties
            events = (rng.random(n) < 0.7).astype(int)
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            beta = rng.normal(scale=0.5, size=x.shape[1])
            ll, _, _ = cox_loglik_score_info(times, events, x, beta)
            assert ll == pytest.approx(naive_efron_loglik(times, events, x, beta),
                                       rel=1e-10, abs=1e-10)

    def test_score_and_info_are_derivatives_with_ties(self):
        rng = np.random.default_rng(41)
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(5, 60))
            times = rng.integers(1, 6, n).astype(float)
            events = (rng.random(n) < 0.7).astype(int)
            x = rng.normal(size=(n, 2))
            beta = rng.normal(scale=0.5, size=2)
            _, score, info = cox_loglik_score_info(times, events, x, beta)
            for j in range(2):
                step = h * np.eye(2)[j]
                ll_p, score_p, _ = cox_loglik_score_info(times, events, x, beta + step)
                ll_m, score_m, _ = cox_loglik_score_info(times, events, x, beta - step)
                assert score[j] == pytest.approx((ll_p - ll_m) / (2 * h), rel=1e-6, abs=1e-6)
                np.testing.assert_allclose(info[:, j], -(score_p - score_m) / (2 * h),
                                           rtol=1e-6, atol=1e-6)


def years_cohort(seed, n):
    """Benchmark-style cohort: TIL per 10 points, age in years, a 3-level
    grade, about 40 % events, times rounded to 1e-4 months."""
    rng = np.random.default_rng([seed, 11])
    til = rng.uniform(1.0, 99.0, n)
    age = np.round(rng.normal(60.0, 12.0, n).clip(25.0, 95.0), 1)
    grade = rng.choice([1, 2, 3], size=n, p=[0.2, 0.45, 0.35])
    hazard = 0.01 * np.exp(-0.15 * til / 10.0 + 0.03 * (age - 60.0) + 0.4 * (grade - 1))
    t_event = rng.exponential(1.0 / hazard)
    t_censor = rng.uniform(24.0, 120.0, n)
    times = np.maximum(np.round(np.minimum(t_event, t_censor), 4), 0.001)
    design = np.column_stack([til / 10.0, age, grade == 2, grade == 3]).astype(np.float64)
    return SurvivalDataset(times=times, events=(t_event <= t_censor).astype(int),
                           design=design, columns=["til_per_10", "age", "grade=2", "grade=3"])


class TestTails:
    """The chi-square and normal tails of the p-values, closed forms held to
    scipy's `chdtrc` and `ndtr` as oracles."""

    @pytest.mark.parametrize("df", range(1, 10))
    def test_chi2_sf_matches_chdtrc(self, df):
        from scipy.special import chdtrc

        x = np.concatenate([[0.0], np.geomspace(1e-12, 1400.0, 2000),
                            np.linspace(0.0, 1400.0, 2001)[1:]])
        want = chdtrc(df, x)
        keep = want >= 1e-300
        got = np.array([_chi2_sf(float(v), df) for v in x[keep]])
        np.testing.assert_allclose(got, want[keep], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("x", [0.0, -0.0, -5e-324, -1.0, -math.inf])
    def test_chi2_sf_is_one_at_and_below_zero(self, x):
        assert all(_chi2_sf(x, df) == 1.0 for df in range(1, 10))

    def test_chi2_sf_past_the_range_of_exp(self):
        assert [_chi2_sf(x, df) for x in (2000.0, math.inf) for df in (1, 2, 9)] == [0.0] * 6
        assert math.isnan(_chi2_sf(math.nan, 3))

    def test_wald_p_matches_ndtr(self):
        from scipy.special import ndtr

        z = np.concatenate([np.linspace(-37.0, 0.0, 20001), -np.geomspace(1e-12, 37.0, 2000)])
        got = np.array([_wald_p(float(v)) for v in z])
        np.testing.assert_allclose(got, 2.0 * ndtr(-np.abs(z)), rtol=1e-12, atol=0)
        assert _wald_p(0.0) == 1.0 and _wald_p(3.0) == _wald_p(-3.0)

    def test_cox_p_is_the_wald_p_of_its_z(self):
        _, fit = make_random_cox_dataset(np.random.default_rng(19))
        assert all(c.p == _wald_p(c.beta / c.se) for c in fit.coefs)


class TestCoxFit:
    def test_converges_at_n_3000_with_age_in_years(self):
        # the score sums ~1,200 event terms near 60, so its rounding noise
        # at the optimum is above an absolute 1e-9; with absolute tolerances
        # this seed crept through halved steps and failed after 25 iterations
        ds = years_cohort(seed=57, n=3000)
        fit = cox_fit(ds)
        assert fit.iterations <= 6
        _, score, info = cox_loglik_score_info(ds.times, ds.events, ds.design, fit.beta)
        # the remaining Newton step is negligible against the standard errors
        step = np.linalg.solve(info, score)
        assert np.all(np.abs(step) < 1e-6 * np.sqrt(np.diag(np.linalg.inv(info))))
        assert fit.coefs[1].beta == pytest.approx(0.03, abs=0.005)  # generating age effect

    def test_no_variation_is_rank_error(self):
        ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 0],
                             design=np.ones((3, 1)), columns=["flat"])
        with raises_error("covariate 'flat' has no variation"):
            cox_fit(ds)

    def test_collinear_columns_error_names_column(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=6)
        ds = SurvivalDataset(times=rng.uniform(1, 9, 6), events=[1, 1, 1, 0, 1, 0],
                             design=np.column_stack([x, 2 * x]), columns=["a", "b"])
        # an exact tie between the two columns, which rounding breaks
        with pytest.raises(TilscoreError, match=r"^design is rank deficient \(involves '[ab]'\)$"):
            cox_fit(ds)

    def test_rank_test_is_scale_free(self):
        # one outlying age once made the unscaled test call grade rank deficient
        rng = np.random.default_rng(6)
        age = rng.uniform(30, 80, 40)
        grade = [f"G{1 + i % 3}" for i in range(40)]
        ds = build_dataset(rng.uniform(1, 9, 40), np.ones(40, dtype=int),
                           {"age": list(age), "grade": grade},
                           [CovariateSpec("age", scale=0.1), CovariateSpec("grade", kind="factor")])
        # build_dataset rejects this age, whose square overflows, so it is set here
        ds.design[3, 0] = 1e308 * 0.1
        _check_design(ds.design, ds.columns)
        _check_design(ds.design * [1e-300, 1e300, 1.0], ds.columns)

    def test_rank_error_holds_no_n_by_n_matrix(self):
        # naming the column once took an SVD with a full n x n U: 128 MB at n = 4000
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 4000))
        ds = SurvivalDataset(times=rng.uniform(1, 9, 4000), events=rng.integers(0, 2, 4000),
                             design=np.column_stack([x, y, x - y]), columns=["a", "b", "c"])
        tracemalloc.start()
        try:
            # x - y, the column of largest norm, weighs most in the unit-norm null vector
            with raises_error("design is rank deficient (involves 'c')"):
                cox_fit(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    def test_grid_search_oracle_small(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            ds, fit = make_random_cox_dataset(rng)
            x = ds.design[:, 0]
            beta_grid = grid_argmax_beta(ds.times, ds.events, x)
            assert fit.coefs[0].beta == pytest.approx(beta_grid, abs=1e-3)
            _, score, _ = cox_loglik_score_info(ds.times, ds.events, ds.design,
                                                np.array([fit.coefs[0].beta]))
            assert abs(score[0]) < 1e-8

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(15)
        ds, fit = make_random_cox_dataset(rng)
        c = 4.0
        scaled = SurvivalDataset(times=ds.times, events=ds.events,
                                 design=ds.design * c, columns=ds.columns)
        fit_scaled = cox_fit(scaled)
        assert fit_scaled.coefs[0].beta == pytest.approx(fit.coefs[0].beta / c, abs=1e-8)
        assert fit_scaled.loglik == pytest.approx(fit.loglik, abs=1e-8)
        assert fit_scaled.concordance == pytest.approx(fit.concordance, abs=1e-12)

    def test_ci_brackets_hr(self):
        rng = np.random.default_rng(19)
        ds, fit = make_random_cox_dataset(rng)
        c = fit.coefs[0]
        assert c.ci_low < c.hr < c.ci_high
        assert c.se > 0
        assert 0.0 <= c.p <= 1.0

    def test_monotone_likelihood_detected(self):
        # perfectly separated: high covariate always dies first
        times = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        events = np.array([1, 1, 1, 0, 0, 0])
        x = np.array([[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]])
        ds = SurvivalDataset(times=times, events=events, design=x, columns=["sep"])
        with pytest.raises(NonConvergenceError):
            cox_fit(ds)

    def test_binary_covariate_sign_agrees_with_logrank_direction(self):
        rng = np.random.default_rng(23)
        n = 60
        group = (rng.random(n) < 0.5).astype(float)
        times = rng.exponential(scale=np.where(group == 1, 20.0, 6.0))
        times = np.maximum(times.round(3), 0.001)
        events = (rng.random(n) < 0.8).astype(int)
        ds = SurvivalDataset(times=times, events=events, design=group[:, None], columns=["g"])
        fit = cox_fit(ds)
        # group 1 survives longer, so its hazard coefficient is negative
        assert fit.coefs[0].beta < 0


class TestSchoenfeld:
    @staticmethod
    def _ph_true_dataset():
        # exponential survival in both groups: hazards proportional by design
        rng = np.random.default_rng(101)
        n = 80
        x = (rng.random(n) < 0.5).astype(float)
        lam = 0.05 * np.exp(0.8 * x)
        times = rng.exponential(1.0 / lam).round(4)
        cens = rng.uniform(5.0, 60.0, n)
        events = (times <= cens).astype(int)
        times = np.minimum(times, cens)
        times = np.maximum(times, 1e-3)
        return SurvivalDataset(times=times, events=events, design=x[:, None], columns=["grp"])

    def test_ph_true_data_not_rejected(self):
        ds = self._ph_true_dataset()
        fit = cox_fit(ds)
        res = schoenfeld_test(fit, ds)
        assert res.global_p > 0.001
        assert res.per_covariate["grp"][1] > 0.001
        # frozen values for this seed, so silent drift gets caught
        assert res.global_chi2 == pytest.approx(0.429510, abs=1e-5)
        assert res.global_p == pytest.approx(0.512229, abs=1e-5)

    def test_residuals_sum_to_zero(self):
        ds = self._ph_true_dataset()
        fit = cox_fit(ds)
        res = schoenfeld_test(fit, ds)
        assert np.max(np.abs(res.residuals.sum(axis=0))) < 1e-7
        assert res.residuals.shape[0] == int(ds.events.sum())

    def test_single_event_error(self):
        # one event whose covariate sits inside the at-risk range: beta_hat = 0
        ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 0, 0],
                             design=np.array([[1.0], [0.0], [2.0]]), columns=["x"])
        fit = cox_fit(ds)
        with raises_error("Schoenfeld test needs at least 2 events"):
            schoenfeld_test(fit, ds)


class TestBuildDataset:
    TIMES = [12.0, 30.0, 7.0, 9.0]
    EVENTS = [1, 0, 1, 1]
    COLUMNS = {"grade": ["3", "1or2", "3", None], "tils": [0.4, 0.8, 0.1, 0.2]}

    def test_factor_expansion_and_dropping(self):
        ds = build_dataset(self.TIMES, self.EVENTS, self.COLUMNS, [
            CovariateSpec("tils", kind="numeric", scale=10.0),
            CovariateSpec("grade", kind="factor", ref="1or2"),
        ])
        assert ds.columns == ["tils", "grade=3"]
        assert ds.times.size == 3  # the row missing grade is dropped
        assert ds.n_dropped == 1
        assert ds.design[:, 0].tolist() == [4.0, 8.0, 1.0]
        assert ds.design[:, 1].tolist() == [1.0, 0.0, 1.0]

    def test_unknown_ref_rejected(self):
        with raises_error("reference level '9' not observed in 'grade'"):
            build_dataset(self.TIMES, self.EVENTS, self.COLUMNS,
                          [CovariateSpec("grade", kind="factor", ref="9")])

    def test_default_ref_is_smallest_level(self):
        ds = build_dataset(self.TIMES, self.EVENTS, self.COLUMNS,
                           [CovariateSpec("grade", kind="factor")])
        assert ds.columns == ["grade=3"]

    @pytest.mark.parametrize("grade", [{}, {"grade": [None] * 4}], ids=["absent", "empty"])
    def test_column_without_values_named(self, grade):
        columns = {"tils": self.COLUMNS["tils"], **grade}
        with raises_error("column 'grade' has no value for any subject"):
            build_dataset(self.TIMES, self.EVENTS, columns,
                          [CovariateSpec("tils"), CovariateSpec("grade", kind="factor")])

    @pytest.mark.parametrize("ref", [None, "G1"])
    def test_single_level_factor_named(self, ref):
        # no indicator column would be left, so the factor would drop out of the model
        grade = {"grade": ["G1", "G1", None, "G1"], "tils": self.COLUMNS["tils"]}
        with raises_error("factor 'grade' has only one level, 'G1'"):
            build_dataset(self.TIMES, self.EVENTS, grade,
                          [CovariateSpec("tils"), CovariateSpec("grade", kind="factor", ref=ref)])

    @pytest.mark.parametrize("value", [1e155, 1e154], ids=["square", "sum"])
    def test_column_overflowing_the_information_named(self, value):
        # 1e154 squares to a finite 1e308, but two of them sum past the range
        tils = {"tils": [value, 0.8, value, 0.2]}
        with raises_error("numeric column 'tils' at scale 1.0 overflows the Cox "
                          "information matrix"):
            build_dataset(self.TIMES, self.EVENTS, tils, [CovariateSpec("tils")])

    def test_matches_row_loop_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            times, events, columns, specs = random_clinical_table(rng)
            rows = [{"os_months": float(t), "os_event": int(e),
                     **{c: vals[i] for c, vals in columns.items()}}
                    for i, (t, e) in enumerate(zip(times, events))]
            try:
                want = loop_build_dataset(rows, specs)
            except TilscoreError as exc:
                with raises_error(str(exc)):
                    build_dataset(times, events, columns, specs)
                continue
            got = build_dataset(times, events, columns, specs)
            assert got.columns == want.columns
            assert got.n_dropped == want.n_dropped
            for attr in ("times", "events", "design"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), attr


def random_clinical_table(rng):
    """Per-subject columns with missing cells, as `load_clinical` types them:
    numeric cells are floats, factor cells floats ("1.0") or strings."""
    n = int(rng.integers(1, 30))
    times = rng.uniform(0.1, 100.0, n).round(1)
    events = (rng.random(n) < 0.6).astype(np.int64)
    columns, specs = {}, []
    for j in range(int(rng.integers(1, 5))):
        name = f"c{j}"
        if rng.random() < 0.4:
            vals = [float(v) for v in rng.normal(50.0, 10.0, n).round(2)]
            spec = CovariateSpec(name, scale=float(rng.choice([1.0, 0.1, 2.5, 10.0])))
        else:
            pool = [[1.0, 2.0, 3.0], ["G1", "G2", "G3", "g0"], [1.0, "x", "10", 2.5]][j % 3]
            vals = [pool[k] for k in rng.integers(0, len(pool), n)]
            spec = CovariateSpec(name, kind="factor")
        missing = rng.random(n) < rng.uniform(0.0, 0.3)
        missing[rng.integers(n)] = False  # every column keeps a value
        vals = [None if m else v for v, m in zip(vals, missing)]
        if spec.kind == "factor" and rng.random() < 0.5:
            spec.ref = str(vals[rng.choice(np.flatnonzero(~missing))])
        columns[name] = vals
        specs.append(spec)
    return times, events, columns, [specs[k] for k in rng.permutation(len(specs))]


def loop_build_dataset(rows, specs, time_key="os_months", event_key="os_event"):
    """The former row-dict `build_dataset`, kept as a reference."""
    levels = {}
    for spec in specs:
        if spec.kind == "factor":
            seen = sorted({str(r[spec.column]) for r in rows
                           if r.get(spec.column) is not None})
            ref = spec.ref if spec.ref is not None else (seen[0] if seen else None)
            if ref is None:
                raise TilscoreError(f"factor column {spec.column!r} has no observed levels")
            if spec.ref is not None and spec.ref not in seen:
                raise TilscoreError(f"reference level {spec.ref!r} not observed in {spec.column!r}")
            levels[spec.column] = [lv for lv in seen if lv != ref]
            if not levels[spec.column]:
                raise TilscoreError(f"factor {spec.column!r} has only one level, {ref!r}")
        elif spec.kind != "numeric":
            raise TilscoreError(f"unknown covariate kind {spec.kind!r}")

    columns = []
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
        row_vals = []
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
        raise TilscoreError("no usable rows after complete-case filtering")
    return SurvivalDataset(
        times=np.array(times), events=np.array(events),
        design=np.array(design, dtype=np.float64).reshape(len(times), len(columns)),
        columns=columns, n_dropped=dropped,
    )


# ---------------------------------------------------------------------------
# The former per-time loops, kept as references for the risk-set table
# ---------------------------------------------------------------------------


def loop_event_blocks(times, events):
    order = np.argsort(-times, kind="stable")
    t_sorted = times[order]
    i, n, blocks = 0, times.size, []
    while i < n:
        j = i
        while j + 1 < n and t_sorted[j + 1] == t_sorted[i]:
            j += 1
        tied = [order[k] for k in range(i, j + 1) if events[order[k]] == 1]
        if tied:
            blocks.append((j + 1, np.array(tied), t_sorted[i]))
        i = j + 1
    return order, blocks


def loop_cox(times, events, X, beta):
    eta = X @ beta
    eta = eta - eta.max()
    w = np.exp(eta)
    wx = w[:, None] * X
    wxx = np.einsum("i,ij,ik->ijk", w, X, X)
    order, blocks = loop_event_blocks(times, events)
    cw, cwx, cwxx = (np.cumsum(a[order], axis=0) for a in (w, wx, wxx))
    loglik, score, info = 0.0, np.zeros(X.shape[1]), np.zeros((X.shape[1],) * 2)
    for end, tied, _t in blocks:
        d = len(tied)
        s_d, a_d, b_d = w[tied].sum(), wx[tied].sum(axis=0), wxx[tied].sum(axis=0)
        loglik += float(eta[tied].sum())
        score += X[tied].sum(axis=0)
        for l in range(d):
            phi = cw[end - 1] - l / d * s_d
            mu = (cwx[end - 1] - l / d * a_d) / phi
            loglik -= math.log(phi)
            score -= mu
            info += (cwxx[end - 1] - l / d * b_d) / phi - np.outer(mu, mu)
    return loglik, score, info


def loop_schoenfeld_residuals(times, events, X, beta):
    eta = X @ beta
    w = np.exp(eta - eta.max())
    wx = w[:, None] * X
    order, blocks = loop_event_blocks(times, events)
    cw, cwx = np.cumsum(w[order]), np.cumsum(wx[order], axis=0)
    residuals, ev_times = [], []
    for end, tied, t_val in blocks:
        d = len(tied)
        s_d, a_d = w[tied].sum(), wx[tied].sum(axis=0)
        for l, i in enumerate(tied):
            residuals.append(X[i] - (cwx[end - 1] - l / d * a_d) / (cw[end - 1] - l / d * s_d))
            ev_times.append(t_val)
    return np.array(residuals), np.array(ev_times)


def loop_km(times, events, gids):
    curves = []
    for g in sorted(set(gids.tolist()), key=str):
        sel = gids == g
        order = np.argsort(times[sel], kind="stable")
        tg, eg = times[sel][order], events[sel][order]
        at_risk, s = tg.size, 1.0
        out_t, out_r, out_d, out_s = [], [], [], []
        for ut in np.unique(tg):
            mask = tg == ut
            d = int(eg[mask].sum())
            if d > 0:
                s *= 1.0 - d / at_risk
                out_t.append(float(ut))
                out_r.append(at_risk)
                out_d.append(d)
                out_s.append(s)
            at_risk -= int(mask.sum())
        curves.append((str(g), out_t, out_r, out_d, out_s, int(tg.size)))
    return curves


def loop_logrank(times, events, gids):
    groups = sorted(set(gids.tolist()), key=str)
    g_count = len(groups)
    gidx = np.array([groups.index(g) for g in gids])
    observed, expected = np.zeros(g_count), np.zeros(g_count)
    var = np.zeros((g_count, g_count))
    for ut in np.unique(times[events == 1]):
        at_risk = times >= ut
        n_tot = int(at_risk.sum())
        hit = (times == ut) & (events == 1)
        d_tot = int(hit.sum())
        n_g = np.bincount(gidx[at_risk], minlength=g_count).astype(np.float64)
        d_g = np.bincount(gidx[hit], minlength=g_count).astype(np.float64)
        observed += d_g
        expected += d_tot * n_g / n_tot
        if n_tot > 1:
            scale = d_tot * (n_tot - d_tot) / (n_tot**2 * (n_tot - 1.0))
            var += scale * (np.diag(n_g * n_tot) - np.outer(n_g, n_g))
    diff = (observed - expected)[: g_count - 1]
    v = var[: g_count - 1, : g_count - 1]
    return float(diff @ np.linalg.solve(v, diff))


def tied_case(rng, n_max=300):
    """Heavy time ties, 2 or 3 groups, 1-3 covariates, a modest beta."""
    n = int(rng.integers(2, n_max))
    times = rng.integers(1, rng.integers(2, 30), n).astype(float)
    events = (rng.random(n) < rng.uniform(0.2, 1.0)).astype(np.int64)
    gids = np.array(["lo", "mid", "hi"])[rng.integers(0, rng.integers(2, 4), n)]
    X = rng.normal(size=(n, int(rng.integers(1, 4)))).round(2)
    beta = rng.normal(scale=0.5, size=X.shape[1])
    return times, events, gids, X, beta


def assert_rel(got, want, rtol=1e-12):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * max(1.0, np.max(np.abs(want), initial=0.0))


class TestRiskSetTable:
    CASES = 200

    def test_km_equals_loop_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(self.CASES):
            times, events, gids, _, _ = tied_case(rng)
            got = km_curve(times, events, gids)
            want = loop_km(times, events, gids)
            assert [c.group for c in got] == [w[0] for w in want]
            for c, (_, t, r, d, s, n) in zip(got, want):
                assert c.times.tolist() == t
                assert c.n_risk.tolist() == r
                assert c.n_event.tolist() == d
                assert c.survival.tolist() == s
                assert c.n == n

    def test_logrank_matches_loop(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(self.CASES):
            times, events, gids, _, _ = tied_case(rng)
            if len(set(gids.tolist())) < 2 or events.sum() < 1:
                continue
            try:
                want = loop_logrank(times, events, gids)
            except np.linalg.LinAlgError:
                continue
            assert_rel(logrank(times, events, gids)[0], want)
            checked += 1
        assert checked > 150

    def test_cox_matches_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(self.CASES):
            times, events, _, X, beta = tied_case(rng)
            ll, score, info = cox_loglik_score_info(times, events, X, beta)
            ll_w, score_w, info_w = loop_cox(times, events, X, beta)
            assert_rel(ll, ll_w)
            assert_rel(score, score_w)
            assert_rel(info, info_w)

    def test_schoenfeld_residuals_match_loop(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(self.CASES):
            times, events, _, X, beta = tied_case(rng)
            if events.sum() < 2 or np.unique(times[events == 1]).size < 2:
                continue
            _, _, info = cox_loglik_score_info(times, events, X, beta)
            fit = CoxFit(coefs=[], loglik=0.0, null_loglik=0.0, lr_p=1.0, concordance=0.5,
                         iterations=0, beta=beta, info=info)
            ds = SurvivalDataset(times=times, events=events, design=X,
                                 columns=[f"x{j}" for j in range(X.shape[1])])
            res = schoenfeld_test(fit, ds)
            want, want_t = loop_schoenfeld_residuals(times, events, X, beta)
            assert res.event_times.tolist() == want_t.tolist()
            assert_rel(res.residuals, want)
            checked += 1
        assert checked > 150

    def test_group_counts_match_a_string_sort_of_every_id(self):
        # the former form: every id made a string, then one string np.unique
        rng = np.random.default_rng(79)
        id_sets = [
            np.array([2, 10, 1, 33, -4, 7]),  # string order differs from numeric
            np.array([2, 10], dtype=np.uint8),
            np.array([1.5, 10.0, 2.0, -0.25, 1e-7]),
            np.array([True, False]),
            np.array(["lo", "hi", "Mid", "10", "2"]),
            np.array([2, "a", 10, 1.5, None], dtype=object),
        ]
        for ids in id_sets:
            for _ in range(10):
                n = int(rng.integers(len(ids), 200))
                times = rng.integers(1, 20, n).astype(float)
                events = (rng.random(n) < 0.6).astype(np.int64)
                gids = ids[rng.integers(0, len(ids), n)]
                want_names, want_idx = np.unique(gids.astype(str), return_inverse=True)
                names, sizes, _, n_risk, n_event = _group_counts(times, events, gids)
                assert names == want_names.tolist()
                assert sizes.tolist() == np.bincount(want_idx, minlength=len(names)).tolist()
                for k in range(len(names)):
                    member = want_idx == k
                    for j, t in enumerate(np.unique(times[events == 1])[::-1]):
                        assert n_risk[j, k] == (member & (times >= t)).sum()
                        assert n_event[j, k] == (member & (times == t) & (events == 1)).sum()

    def test_scipy_logrank_oracle(self):
        import scipy.stats

        if not hasattr(scipy.stats, "logrank"):
            pytest.skip("scipy.stats.logrank needs scipy >= 1.11")
        rng = np.random.default_rng(71)
        for _ in range(50):
            times, events, gids, _, _ = tied_case(rng)
            gids = np.where(gids == "lo", "lo", "rest")
            if len(set(gids.tolist())) < 2 or events.sum() < 1:
                continue
            samples = [scipy.stats.CensoredData(uncensored=times[(gids == g) & (events == 1)],
                                                right=times[(gids == g) & (events == 0)])
                       for g in ("lo", "rest")]
            want = scipy.stats.logrank(*samples).statistic ** 2
            assert logrank(times, events, gids)[0] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_scipy_ecdf_oracle(self):
        import scipy.stats

        if not hasattr(scipy.stats, "ecdf"):
            pytest.skip("scipy.stats.ecdf needs scipy >= 1.11")
        rng = np.random.default_rng(73)
        for _ in range(50):
            times, events, _, _, _ = tied_case(rng)
            (curve,) = km_curve(times, events)
            sf = scipy.stats.ecdf(scipy.stats.CensoredData(
                uncensored=times[events == 1], right=times[events == 0])).sf
            for t in np.unique(times):
                assert curve.survival_at(t) == pytest.approx(float(sf.evaluate(t)), abs=1e-12)

    def test_hundred_thousand_subjects_under_a_second(self):
        rng = np.random.default_rng(5)
        n = 100_000
        x = rng.normal(size=n)
        times = np.maximum(rng.exponential(10.0 * np.exp(-0.3 * x)).round(2), 0.01)
        events = (rng.random(n) < 0.6).astype(int)
        ds = SurvivalDataset(times=times, events=events, design=x[:, None], columns=["x"])
        fit = cox_fit(ds)
        groups, _ = median_split(x)
        start = time.perf_counter()
        km_curve(times, events, groups)
        logrank(times, events, groups)
        schoenfeld_test(fit, ds)
        assert time.perf_counter() - start < 1.0

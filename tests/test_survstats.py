import math

import numpy as np
import pytest

from tilscore.survstats import (
    CovariateSpec,
    DegenerateSplitError,
    NonConvergenceError,
    RankDeficiencyError,
    SurvivalDataset,
    SurvivalError,
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
        except (NonConvergenceError, RankDeficiencyError):
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
        with pytest.raises(SurvivalError):
            minmax_normalize([1.0], 3.0, 3.0)

    def test_median_split_even(self):
        groups = median_split([1.0, 2.0, 3.0, 4.0])
        assert groups.tolist() == [0, 0, 1, 1]

    def test_median_element_goes_high_odd(self):
        groups = median_split([10.0, 20.0, 30.0])
        assert groups.tolist() == [0, 1, 1]

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
        with pytest.raises(SurvivalError):
            logrank([1.0, 2.0], [0, 0], ["a", "b"])

    def test_single_group_error(self):
        with pytest.raises(SurvivalError):
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
                with pytest.raises(SurvivalError):
                    harrell_c(times, events, risk)
                continue
            expected = (conc + 0.5 * tied) / usable
            assert harrell_c(times, events, risk) == pytest.approx(expected, abs=1e-12)

    def test_no_comparable_pairs(self):
        with pytest.raises(SurvivalError):
            harrell_c([2.0, 2.0], [1, 1], [0.1, 0.9])


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

    def test_efron_vs_breslow_differ_with_ties(self):
        times = np.array([1.0, 1.0, 2.0, 3.0])
        events = np.array([1, 1, 1, 0])
        x = np.array([[1.0], [0.0], [1.0], [0.0]])
        ll_e, _, _ = cox_loglik_score_info(times, events, x, np.array([0.5]), ties="efron")
        ll_b, _, _ = cox_loglik_score_info(times, events, x, np.array([0.5]), ties="breslow")
        assert ll_e != ll_b


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
        with pytest.raises(RankDeficiencyError, match="flat"):
            cox_fit(ds)

    def test_collinear_columns_error_names_column(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=6)
        ds = SurvivalDataset(times=rng.uniform(1, 9, 6), events=[1, 1, 1, 0, 1, 0],
                             design=np.column_stack([x, 2 * x]), columns=["a", "b"])
        with pytest.raises(RankDeficiencyError):
            cox_fit(ds)

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

    def test_scales_argument_equals_prescaled_design(self):
        rng = np.random.default_rng(16)
        ds, _ = make_random_cox_dataset(rng)
        fit_a = cox_fit(ds, scales=[10.0])
        pre = SurvivalDataset(times=ds.times, events=ds.events,
                              design=ds.design * 10.0, columns=ds.columns)
        fit_b = cox_fit(pre)
        assert fit_a.coefs[0].beta == pytest.approx(fit_b.coefs[0].beta, abs=1e-12)

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
        with pytest.raises(SurvivalError):
            schoenfeld_test(fit, ds)


class TestBuildDataset:
    ROWS = [
        {"os_months": 12.0, "os_event": 1, "grade": "3", "tils": 0.4},
        {"os_months": 30.0, "os_event": 0, "grade": "1or2", "tils": 0.8},
        {"os_months": 7.0, "os_event": 1, "grade": "3", "tils": 0.1},
        {"os_months": 9.0, "os_event": 1, "grade": None, "tils": 0.2},
        {"os_months": None, "os_event": None, "grade": "3", "tils": 0.5},
    ]

    def test_factor_expansion_and_dropping(self):
        ds = build_dataset(self.ROWS, [
            CovariateSpec("tils", kind="numeric", scale=10.0),
            CovariateSpec("grade", kind="factor", ref="1or2"),
        ])
        assert ds.columns == ["tils", "grade=3"]
        assert ds.times.size == 3  # two rows dropped: missing grade, missing survival
        assert ds.n_dropped == 2
        assert ds.design[:, 0].tolist() == [4.0, 8.0, 1.0]
        assert ds.design[:, 1].tolist() == [1.0, 0.0, 1.0]

    def test_unknown_ref_rejected(self):
        with pytest.raises(SurvivalError):
            build_dataset(self.ROWS, [CovariateSpec("grade", kind="factor", ref="9")])

    def test_default_ref_is_smallest_level(self):
        ds = build_dataset(self.ROWS, [CovariateSpec("grade", kind="factor")])
        assert ds.columns == ["grade=3"]

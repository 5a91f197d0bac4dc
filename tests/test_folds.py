import numpy as np
import pytest

from tilscore import TilscoreError, folds
from tilscore.bagio import FeatureBag, SlideRecord
from tilscore.folds import (
    Ensemble,
    ensemble_predict,
    leave_one_cohort_out,
    load_ensemble,
    save_ensemble,
    split_by_group,
)
from tilscore.milnet import HyperParams, forward, init_params

SMALL = HyperParams(enc_out=8, attn_hidden=4)


def records_with(groups: dict[str, int], key: str = "centre") -> list[SlideRecord]:
    out = []
    n = 0
    for group, size in groups.items():
        for _ in range(size):
            rec = SlideRecord(slide_id=f"s{n:03d}", til_score_pct=10.0)
            setattr(rec, key, group)
            out.append(rec)
            n += 1
    return out


class TestSplitByGroup:
    def test_five_equal_centres_one_per_fold(self):
        recs = records_with({f"c{i}": 4 for i in range(5)})
        plan = split_by_group(recs, "centre", k=5, seed=0)
        folds_per_centre = {}
        for r in recs:
            folds_per_centre.setdefault(r.centre, set()).add(plan.fold_of(r.slide_id))
        assert all(len(f) == 1 for f in folds_per_centre.values())
        assert {next(iter(f)) for f in folds_per_centre.values()} == set(range(5))

    def test_greedy_hand_example(self):
        # sizes 5,4,3,2,1 with k=2: 5->f0, 4->f1, 3->f1 (4<5), 2->f0 (5<7),
        # 1 -> tie at 7/7 -> fold 0. Folds {5,2,1} and {4,3}.
        recs = records_with({"a": 5, "b": 4, "c": 3, "d": 2, "e": 1})
        plan = split_by_group(recs, "centre", k=2, seed=0)
        by_centre = {c: plan.fold_of(r.slide_id) for r in recs for c in [r.centre]}
        fold_of = lambda c: by_centre[c]
        assert fold_of("a") == fold_of("d") == fold_of("e")
        assert fold_of("b") == fold_of("c")
        assert fold_of("a") != fold_of("b")

    def test_no_slide_in_two_folds(self):
        recs = records_with({"a": 3, "b": 5, "c": 2, "d": 7})
        plan = split_by_group(recs, "centre", k=3, seed=1)
        assert sorted(plan.assignment) == sorted(r.slide_id for r in recs)
        folds_of = {}
        for r in recs:
            folds_of.setdefault(r.centre, set()).add(plan.fold_of(r.slide_id))
        assert all(len(f) == 1 for f in folds_of.values()), folds_of

    def test_fewer_groups_than_k(self):
        recs = records_with({"a": 3, "b": 3})
        with pytest.raises(TilscoreError,
                           match="^need at least 3 distinct centre groups, found 2$"):
            split_by_group(recs, "centre", k=3)

    def test_deterministic_given_seed(self):
        recs = records_with({f"c{i}": 3 for i in range(6)})
        a = split_by_group(recs, "centre", k=3, seed=9)
        b = split_by_group(recs, "centre", k=3, seed=9)
        assert a.assignment == b.assignment


class TestLeaveOneCohortOut:
    def test_five_cohorts_five_folds(self):
        recs = records_with({f"coh{i}": 2 for i in range(5)}, key="cohort")
        plan = leave_one_cohort_out(recs)
        assert plan.k == 5
        folds = {plan.fold_of(r.slide_id) for r in recs}
        assert folds == set(range(5))

    def test_two_cohorts(self):
        recs = records_with({"x": 3, "y": 4}, key="cohort")
        plan = leave_one_cohort_out(recs)
        assert plan.k == 2

    def test_partition_stable_under_renaming(self):
        recs = records_with({"x": 2, "y": 3}, key="cohort")
        plan_a = leave_one_cohort_out(recs)
        renamed = [SlideRecord(slide_id=r.slide_id, cohort={"x": "zz", "y": "aa"}[r.cohort],
                               til_score_pct=1.0) for r in recs]
        plan_b = leave_one_cohort_out(renamed)
        # same partition up to fold relabelling
        def partition(plan, recs):
            groups = {}
            for r in recs:
                groups.setdefault(plan.fold_of(r.slide_id), set()).add(r.slide_id)
            return {frozenset(v) for v in groups.values()}
        assert partition(plan_a, recs) == partition(plan_b, renamed)

    def test_single_cohort_error(self):
        recs = records_with({"only": 4}, key="cohort")
        with pytest.raises(TilscoreError, match="^leave-one-cohort-out needs at least 2 cohorts$"):
            leave_one_cohort_out(recs)


def make_bag(seed, n_tiles=6, dim=8):
    rng = np.random.default_rng(seed)
    return FeatureBag(slide_id=f"b{seed}", features=rng.normal(size=(n_tiles, dim)).astype(np.float32),
                      tile_xy=np.zeros((n_tiles, 2), dtype=np.uint32), mpp=0.5)


class TestEnsemble:
    def test_identical_members_equal_single_model(self):
        params = init_params(5, SMALL, dim=8)
        bag = make_bag(1)
        single = forward(params, bag).prediction
        ens = Ensemble(members=[params.copy() for _ in range(5)], hyper=SMALL)
        assert ensemble_predict(ens, bag) == pytest.approx(single, abs=1e-15)

    def test_mean_semantics(self):
        # stack two models and check the mean against manual averaging
        m1 = init_params(1, SMALL, dim=8)
        m2 = init_params(2, SMALL, dim=8)
        bag = make_bag(2)
        y1 = forward(m1, bag).prediction
        y2 = forward(m2, bag).prediction
        ens = Ensemble(members=[m1, m2], hyper=SMALL)
        assert ensemble_predict(ens, bag) == pytest.approx((y1 + y2) / 2.0, abs=1e-15)

    def test_members_share_one_f64_cast(self, monkeypatch):
        members = [init_params(s, SMALL, dim=8) for s in range(3)]
        bag = make_bag(5)
        seen = []

        def spy(params, features, *args, **kwargs):
            seen.append(features)
            return forward(params, features, *args, **kwargs)

        monkeypatch.setattr(folds, "forward", spy)
        got = ensemble_predict(Ensemble(members=members, hyper=SMALL), bag)
        assert len(seen) == len(members)  # one forward per member
        assert isinstance(seen[0], np.ndarray) and seen[0].dtype == np.float64
        assert all(f is seen[0] for f in seen)
        # bit-identical to casting inside each member's forward
        assert got == float(np.mean([forward(m, bag).prediction for m in members]))

    def test_five_random_members_manual_average(self):
        members = [init_params(s, SMALL, dim=8) for s in range(5)]
        bag = make_bag(3)
        manual = np.mean([forward(m, bag).prediction for m in members])
        ens = Ensemble(members=members, hyper=SMALL)
        assert ensemble_predict(ens, bag) == pytest.approx(manual, abs=1e-15)

    def test_permutation_invariance_and_bounds(self):
        members = [init_params(s, SMALL, dim=8) for s in range(4)]
        bag = make_bag(4)
        preds = [forward(m, bag).prediction for m in members]
        ens_a = Ensemble(members=members, hyper=SMALL)
        ens_b = Ensemble(members=list(reversed(members)), hyper=SMALL)
        ya = ensemble_predict(ens_a, bag)
        assert ya == pytest.approx(ensemble_predict(ens_b, bag), abs=1e-15)
        assert min(preds) <= ya <= max(preds)

    def test_empty_rejected(self):
        with pytest.raises(TilscoreError, match="^ensemble needs at least one member$"):
            Ensemble(members=[], hyper=SMALL)

    def test_save_load_round_trip(self, tmp_path):
        members = [init_params(s, SMALL, dim=8) for s in range(3)]
        ens = Ensemble(members=members, hyper=SMALL)
        save_ensemble(ens, tmp_path / "ens", extra={"note": "test"})
        loaded = load_ensemble(tmp_path / "ens")
        bag = make_bag(5)
        assert ensemble_predict(loaded, bag) == ensemble_predict(ens, bag)
        assert loaded.hyper == SMALL

    def test_load_single_checkpoint_as_ensemble(self, tmp_path):
        from tilscore.milnet import save_checkpoint

        params = init_params(1, SMALL, dim=8)
        save_checkpoint(params, SMALL, tmp_path / "one.ckpt")
        ens = load_ensemble(tmp_path / "one.ckpt")
        bag = make_bag(6)
        assert ensemble_predict(ens, bag) == forward(params, bag).prediction

"""Checks that the benchmark's tracer sees every call into the layers.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from layers import Aggregate, per_layer  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Predict, Stage, Train, train_argv, write_cohort  # noqa: E402

from tilscore import cli, folds  # noqa: E402


def traced_cli(argv: list[str]) -> Counter:
    tracer = Tracer(argv[0])
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return Counter(span[0] for span in tracer.spans)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    oracle, _ = write_cohort(root, seed=3, groups=[("fit", 18, 4, 12), ("score", 7, 5, 9)])
    return root, oracle


def test_train_counts_match_the_workload(cohort, tmp_path):
    root, _ = cohort
    stage = Stage("train", train_argv(root / "fit" / "bags", root / "fit" / "clinical.csv",
                                      epochs=2, seed=1, batch=5), tmp_path / "run")
    seen = traced_cli(stage.argv())
    want = Train().expected_calls(stage, None)
    # 18 bags in 3 folds of 6: 12 training bags -> 3 batches of 5 per epoch
    assert want == {"milnet.forward": 2 * 18 * 3, "milnet.backward": 2 * 12 * 3,
                    "milnet.adam_step": 2 * 3 * 3}
    assert {name: seen[name] for name in want} == want


def test_predict_counts_match_the_bag_count(cohort, tmp_path):
    root, _ = cohort
    model = tmp_path / "model"
    fit = Stage("train", train_argv(root / "fit" / "bags", root / "fit" / "clinical.csv",
                                    epochs=1, seed=1, batch=6), model)
    assert cli.main(fit.argv()) == 0
    stage = Stage("predict", ["--model", model, "--bags", root / "score" / "bags"],
                  tmp_path / "pred")
    seen = traced_cli(stage.argv())
    inp = type("Inputs", (), {"root": root})()
    assert Predict().expected_calls(stage, inp) == {"bagio.read_bag": 7,
                                                    "folds.ensemble_predict": 7}
    assert seen["bagio.read_bag"] == 7
    assert seen["folds.ensemble_predict"] == 7
    assert seen["milnet.forward"] == 7 * 3  # through the by-name import in folds


def test_by_name_imports_are_rebound_and_restored():
    originals = (cli.ensemble_predict, cli.load_ensemble, cli.split_by_group,
                 folds.forward, folds.pearson)
    tracer = Tracer("t")
    tracer.install()
    try:
        for fn in (cli.ensemble_predict, cli.load_ensemble, cli.split_by_group,
                   folds.forward, folds.pearson):
            assert hasattr(fn, "__wrapped__"), fn.__name__
    finally:
        tracer.uninstall()
    assert (cli.ensemble_predict, cli.load_ensemble, cli.split_by_group,
            folds.forward, folds.pearson) == originals


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, "r", {}], ["b", 1.0, 4.0, 0, "r", {}],
             ["c", 2.0, 3.0, 1, "r", {}], ["d", 5.0, 9.0, 0, "r", {}]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    empty = Aggregate([], score_tol=1e-9)
    rows = per_layer(empty, empty, 0.0, 0.0, 0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, _, u in rows]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["train", "predict", "survival", "tile"]

"""Per-layer metrics from the spans of a traced run.

Names are `<module>.<function>.<quantity>`: `calls` counts outermost calls,
`s` and `self_s` are self time (span duration minus the time its child spans
cover).  `gflop` figures are computed from array shapes, not counted by
hardware.  The times of `INCLUSIVE` functions include their children,
because their work sits in public helpers with no metric of their own.
Every metric is reported on every workload; a layer the workload does not
reach reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import self_times

STAGES = ("train", "predict", "evaluate", "survival", "tile")
INCLUSIVE = {
    "milnet.adam_step": "per-tensor adam_update_array calls",
    "concord.evaluate": "the whole concordance panel",
    "folds.load_ensemble": "milnet.load_checkpoint per member",
    "folds.save_ensemble": "milnet.save_checkpoint per member",
}


class Aggregate:
    """Sums over the spans of several runs (one run = one process)."""

    def __init__(self, runs: list[tuple[str, list, float | None]], score_tol: float):
        """`runs` holds (stage name, spans, child wall time or None)."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.attr: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.cli_self: defaultdict = defaultdict(float)
        self.startup: defaultdict = defaultdict(float)
        self.cox_iters = self.cox_evals = 0
        self.cox_score_over_tol = 0.0
        for stage, spans, wall in runs:
            own = self_times(spans)
            children = defaultdict(list)
            for i, (name, start, end, parent, _run, attrs) in enumerate(spans):
                children[parent].append(i)
                self.calls[name] += 1
                self.self_s[name] += own[i]
                self.total_s[name] += end - start
                for key, val in attrs.items():
                    if key == "error":
                        self.errors[name] += 1
                    else:
                        self.attr[name, key] += val
                if name.startswith("cli."):
                    self.cli_self[stage] += own[i]
                if name == "cli.main" and wall is not None:
                    self.startup[stage] += wall - (end - start)
            for i, span in enumerate(spans):
                if span[0] == "survstats.cox_fit":
                    self._cox(span, [spans[c] for c in children[i]], score_tol)

    def _cox(self, fit, kids, score_tol):
        evals = [k for k in kids if k[0] == "survstats.cox_loglik_score_info"]
        if evals and "score_max" in evals[-1][5]:
            self.cox_score_over_tol = max(self.cox_score_over_tol,
                                          evals[-1][5]["score_max"] / score_tol)
        if "newton_iters" in fit[5]:
            self.cox_iters += fit[5]["newton_iters"]
            self.cox_evals += len(evals) - 1  # the first evaluation is at beta = 0

    def s(self, name):
        return (self.total_s if name in INCLUSIVE else self.self_s)[name]

    def a(self, name, key):
        return self.attr[name, key]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg: Aggregate, setup: Aggregate, overhead_s: float, dgemm_gflops: float,
              nonconvergence_exits: int) -> list[tuple[str, float, str]]:
    """(name, value, unit) for every per-layer metric, in a fixed order.

    `agg` covers the traced stage processes; `setup` covers the in-process
    set-up, which only the `bagio` writer metrics read.
    """
    fwd, bwd = "milnet.forward", "milnet.backward"
    cox, ll, hc = "survstats.cox_fit", "survstats.cox_loglik_score_info", "survstats.harrell_c"
    rows = [
        ("milnet.forward.calls", agg.calls[fwd], "count"),
        ("milnet.forward.s", agg.s(fwd), "s"),
        ("milnet.forward.tiles", agg.a(fwd, "tiles"), "count"),
        ("milnet.forward.gflop", agg.a(fwd, "gflop"), "GFLOP"),
        ("milnet.forward.gflop_per_s", _ratio(agg.a(fwd, "gflop"), agg.s(fwd)), "GFLOP/s"),
        ("milnet.backward.calls", agg.calls[bwd], "count"),
        ("milnet.backward.s", agg.s(bwd), "s"),
        ("milnet.backward.gflop_per_s", _ratio(agg.a(bwd, "gflop"), agg.s(bwd)), "GFLOP/s"),
        ("milnet.adam_step.calls", agg.calls["milnet.adam_step"], "count"),
        ("milnet.adam_step.s", agg.s("milnet.adam_step"), "s"),
        ("milnet.train.self_s", agg.s("milnet.train"), "s"),
        ("milnet.train.wasted_epoch_frac", _ratio(agg.a("milnet.train", "wasted_epochs"),
                                                  agg.a("milnet.train", "epochs")), "ratio"),
        ("blas.dgemm_peak_gflop_per_s", dgemm_gflops, "GFLOP/s"),
        ("bagio.read_bag.calls", agg.calls["bagio.read_bag"], "count"),
        ("bagio.read_bag.s", agg.s("bagio.read_bag"), "s"),
        ("bagio.read_bag.mb", agg.a("bagio.read_bag", "mb"), "MB"),
        ("bagio.synth_cohort.s", setup.s("bagio.synth_cohort"), "s"),
        ("bagio.write_bag.s", setup.s("bagio.write_bag"), "s"),
        ("bagio.write_bag.mb", setup.a("bagio.write_bag", "mb"), "MB"),
        ("bagio.load_clinical.s", agg.s("bagio.load_clinical"), "s"),
        ("bagio.load_clinical.rows", agg.a("bagio.load_clinical", "rows"), "count"),
        ("bagio.read_predictions.s", agg.s("bagio.read_predictions"), "s"),
        ("folds.ensemble_predict.calls", agg.calls["folds.ensemble_predict"], "count"),
        ("folds.ensemble_predict.self_s", agg.s("folds.ensemble_predict"), "s"),
        ("folds.load_ensemble.s", agg.s("folds.load_ensemble"), "s"),
        ("folds.split_by_group.s", agg.s("folds.split_by_group"), "s"),
        ("folds.save_ensemble.s", agg.s("folds.save_ensemble"), "s"),
        ("concord.evaluate.s", agg.s("concord.evaluate"), "s"),
        ("concord.rank_average.calls", agg.calls["concord.rank_average"], "count"),
        ("concord.rank_average.s", agg.s("concord.rank_average"), "s"),
        ("concord.calibration.s", agg.s("concord.calibration"), "s"),
        ("survstats.cox_fit.calls", agg.calls[cox], "count"),
        ("survstats.cox_fit.failed", agg.errors[cox], "count"),
        ("survstats.cox_fit.s", agg.s(cox), "s"),
        ("survstats.cox_fit.newton_iters", agg.cox_iters, "count"),
        ("survstats.cox_fit.score_over_tol", agg.cox_score_over_tol, "ratio"),
        ("survstats.cox_loglik_score_info.calls", agg.calls[ll], "count"),
        ("survstats.cox_loglik_score_info.s", agg.s(ll), "s"),
        ("survstats.cox_loglik_score_info.per_newton_iter",
         _ratio(agg.cox_evals, agg.cox_iters), "ratio"),
        ("survstats.harrell_c.calls", agg.calls[hc], "count"),
        ("survstats.harrell_c.s", agg.s(hc), "s"),
        ("survstats.harrell_c.bytes_computed", agg.a(hc, "bytes"), "B"),
        ("survstats.logrank.s", agg.s("survstats.logrank"), "s"),
        ("survstats.km_curve.s", agg.s("survstats.km_curve"), "s"),
        ("survstats.schoenfeld_test.s", agg.s("survstats.schoenfeld_test"), "s"),
        ("survstats.build_dataset.s", agg.s("survstats.build_dataset"), "s"),
        ("pnm.read_ppm.s", agg.s("pnm.read_ppm"), "s"),
        ("pnm.read_ppm.mb", agg.a("pnm.read_ppm", "mb"), "MB"),
        ("pnm.write_pgm.s", agg.s("pnm.write_pgm"), "s"),
        ("foreground.compute_foreground.s", agg.s("foreground.compute_foreground"), "s"),
        ("foreground.compute_foreground.megapixels",
         agg.a("foreground.compute_foreground", "megapixels"), "Mpx"),
        ("foreground.filter_tiles.s", agg.s("foreground.filter_tiles"), "s"),
        ("foreground.filter_tiles.tiles", agg.a("foreground.filter_tiles", "tiles"), "count"),
        ("foreground.grid_tiles.s", agg.s("foreground.grid_tiles"), "s"),
        ("foreground.write_manifest.s", agg.s("foreground.write_manifest"), "s"),
    ]
    for stage in STAGES:
        rows.append((f"cli.{stage}.self_s", agg.cli_self[stage], "s"))
        rows.append((f"cli.{stage}.startup_s", agg.startup[stage], "s"))
    rows.append(("cli.survival.nonconvergence_exits", nonconvergence_exits, "count"))
    rows.append(("trace.overhead_s", overhead_s, "s"))
    return rows

"""Command-line pipeline: tile, synth, train, predict, evaluate, survival, heatmap.

Every run validates its inputs up front, then opens its output directory by
writing a `run_config.json` echo of the effective configuration there, before
any other output.  Runs are byte-for-byte reproducible for a fixed seed.
Exit codes: 0 success; 2 bad input, a `TilscoreError` naming the file, line,
flag or key at fault, or an OSError; 3 numeric non-convergence.  Any other
exception is a program fault: it propagates with its traceback, and Python
exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

# survstats, foreground and pnm are imported by the commands that use them:
# each stage runs in a process of its own, and compiling and loading a module
# that the stage never calls costs its start-up
from . import TilscoreError, __version__, bagio, concord, milnet
from .folds import (
    ensemble_predict,
    leave_one_cohort_out,
    load_ensemble,
    save_manifest,
    split_by_group,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


def _load_config(path: str | None, flag: str, key: str) -> dict:
    """The JSON object in `path`, whose only key may be `key`."""
    if not path:
        return {}
    data = bagio.read_json(path)
    if not isinstance(data, dict):
        raise TilscoreError(f"{flag} must hold a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - {key})
    if unknown:
        raise TilscoreError(f"{flag}: unknown key {unknown[0]!r}; expected {key!r}")
    return data


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
               "str | None": (str, type(None))}


def _dataclass_from(cls, obj, what: str):
    """`cls(**obj)` for a JSON object; a bad key or value type exits 2 by name."""
    if not isinstance(obj, dict):
        raise TilscoreError(f"{what} must be a JSON object, not {type(obj).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, val in obj.items():
        if key not in fields:
            raise TilscoreError(f"{what}: unknown key {key!r}")
        want = _JSON_TYPES.get(fields[key])
        if want and (not isinstance(val, want) or isinstance(val, bool) != (bool in want)):
            raise TilscoreError(f"{what}: {key!r} must be {fields[key]}, not {type(val).__name__}")
    try:
        return cls(**obj)
    except TypeError as exc:  # a required key is missing
        raise TilscoreError(f"{what}: {exc}") from exc


def _hyper_from(args: argparse.Namespace) -> milnet.HyperParams:
    overrides = _load_config(args.config, "--config", "hyper")
    hyper = _dataclass_from(milnet.HyperParams, overrides.get("hyper", {}), '"hyper"')
    for field in dataclasses.fields(hyper):  # the flags that set a field, when given
        if getattr(args, field.name, None) is not None:
            setattr(hyper, field.name, getattr(args, field.name))
    hyper.validate()
    return hyper


def _parse_cutoffs(text: str) -> list[float]:
    """The comma-separated --cutoffs, each a finite percentage in [0, 100]."""
    cutoffs = []
    for raw in text.split(","):
        try:
            cutoffs.append(float(raw))
        except ValueError:
            raise TilscoreError(f"--cutoffs: {raw!r} is not a number") from None
        if not 0.0 <= cutoffs[-1] <= 100.0:
            raise TilscoreError(f"--cutoffs: {raw!r} is not a finite value in [0, 100]")
    return cutoffs


def _open_run(args: argparse.Namespace, extra: dict) -> Path:
    """Make `--out` and write its `run_config.json`: the command, version,
    every parsed argument and the command's `extra` values."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"version": __version__}
    for key, val in sorted(vars(args).items()):
        if key != "func":
            payload[key] = str(val) if isinstance(val, Path) else val
    payload.update(extra)
    bagio.write_json(out / "run_config.json", payload)
    return out


# ---------------------------------------------------------------------------
# tile
# ---------------------------------------------------------------------------


def _finite_positive(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise TilscoreError(f"{flag} must be a finite number above 0, got {value!r}")
    return value


def cmd_tile(args) -> int:
    from . import foreground, pnm

    overrides = _load_config(args.config, "--config", "fesi")
    params = _dataclass_from(foreground.FesiParams, overrides.get("fesi", {}), '"fesi"')
    params.validate()
    image = Path(args.image)
    if args.mpp is not None:
        mpp, mpp_from = _finite_positive(args.mpp, "--mpp"), "--mpp"
    else:
        mpp, mpp_from = pnm.read_mpp_sidecar(image), f"sidecar {image}.mpp"
        if mpp is None:
            raise TilscoreError(f"no --mpp given and no sidecar {image}.mpp found")
    _finite_positive(args.target_mpp, "--target-mpp")
    if args.tile_size < 1:
        raise TilscoreError(f"--tile-size must be at least 1, got {args.tile_size}")
    # as in grid_tiles; a tile of under one source pixel would grid each
    # source pixel many times over
    rescale = mpp / args.target_mpp
    span = args.tile_size / rescale if rescale else math.inf
    if not 1 <= span < math.inf:
        raise TilscoreError(f"--tile-size {args.tile_size} at --target-mpp {args.target_mpp} spans "
                            f"{span:.3g} source pixels at {mpp_from} {mpp}; a tile must span at "
                            "least one, and finitely many")
    # the raster stays in its file, and masking reads it in strips
    slide = foreground.PpmSlide(image)
    mask = foreground.compute_foreground(slide, params)
    grid = foreground.grid_tiles(slide.width_px, slide.height_px, mpp,
                                 args.tile_size, args.target_mpp)
    grid = foreground.filter_tiles(grid, mask)
    out = _open_run(args, {"mpp": float(mpp), "n_tiles": grid.n_tiles,
                           "n_kept": int(grid.kept.sum())})
    pnm.write_pgm(out / "mask.pgm", mask.bits.astype(np.uint8) * 255)
    foreground.write_manifest(grid, out / "tiles.tsv")
    print(f"{grid.kept.sum()} of {grid.n_tiles} tiles kept -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _dataclass_from(bagio.SynthConfig, bagio.read_json(args.config_file), "synth config")
    bags, records = bagio.synth_cohort(cfg)
    out = _open_run(args, {"effective_config": dataclasses.asdict(cfg)})
    bag_dir = out / "bags"
    bag_dir.mkdir(exist_ok=True)
    for bag in bags:
        bagio.write_bag(bag, bag_dir / f"{bag.slide_id}.bag")
    bagio.write_clinical(records, out / "clinical.csv")
    print(f"{len(bags)} bags -> {bag_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _bag_paths(bag_dir: Path) -> list[Path]:
    paths = sorted(bag_dir.glob("*.bag"))
    if not paths:
        raise TilscoreError(f"no .bag files in {bag_dir}")
    return paths


def _check_unique_ids(paths: list[Path], slide_ids: list[str]) -> None:
    first: dict[str, Path] = {}
    for path, sid in zip(paths, slide_ids):
        other = first.setdefault(sid, path)
        if other != path:
            raise TilscoreError(f"{other} and {path} both hold slide_id {sid!r}")


def _parse_plan(spec: str) -> int | None:
    """The k of --plan 'centre:<k>' (k >= 2), or None for 'loco'."""
    if spec == "loco":
        return None
    kind, _, text = spec.partition(":")
    try:
        k = int(text) if kind == "centre" else 0
    except ValueError:
        k = 0
    if k < 2:
        raise TilscoreError(f"--plan: {spec!r} is neither 'centre:<k>' with k >= 2 nor 'loco'")
    return k


def cmd_train(args) -> int:
    hyper = _hyper_from(args)
    if args.seed < 0:
        raise TilscoreError(f"--seed must be at least 0, got {args.seed}")
    k = _parse_plan(args.plan)
    records = bagio.load_clinical(args.clinical)
    # every bag is read and checked here, then left in its file: training
    # reads a bag again each time it needs its features
    paths = _bag_paths(Path(args.bags))
    scanned = [bagio.BagFile.scan(p) for p in paths]
    _check_unique_ids(paths, [bag.slide_id for bag in scanned])
    milnet.check_state_bytes(hyper, max(bag.dim for bag in scanned))
    bags_by_id = {bag.slide_id: bag for bag in scanned}
    records = [r for r in records if r.slide_id in bags_by_id]
    if not records:
        raise TilscoreError("no overlap between clinical slide_ids and bag files")
    plan = (leave_one_cohort_out(records) if k is None
            else split_by_group(records, "centre", k, seed=args.seed))

    ordered = sorted(records, key=lambda r: r.slide_id)
    bags = [bags_by_id[r.slide_id] for r in ordered]
    labels = np.array([r.til_score_pct for r in ordered]) / 100.0
    fold_of = np.array([plan.fold_of(r.slide_id) for r in ordered])
    for fold in range(plan.k):  # before any fold trains
        scores = {r.til_score_pct for r, f in zip(ordered, fold_of) if f == fold}
        if len(scores) == 1:
            raise TilscoreError(f"--plan {args.plan}: every slide that fold {fold} holds out "
                                f"scores {scores.pop():g} in {args.clinical}, so its explained "
                                "variance is undefined")

    # each fold's checkpoint is written as the fold ends, so no finished
    # member stays in memory; ensemble.json, written last, marks the run
    # complete, so a stale one goes first
    out = _open_run(args, {"hyper": dataclasses.asdict(hyper), "k": plan.k})
    (out / "ensemble.json").unlink(missing_ok=True)
    champions, history = [], {}
    for fold in range(plan.k):
        val_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        try:
            result = milnet.train(bags, labels, train_idx, val_idx, hyper, seed=args.seed + fold)
        except TilscoreError as exc:
            raise TilscoreError(f"fold {fold}: {exc}") from exc
        try:  # null when undefined, as in metrics.json
            val_r = concord.pearson(result.val_preds, labels[val_idx])
        except concord.UndefinedMetricError:
            val_r = None
        champions.append(
            {"fold": fold, "checkpoint": f"fold{fold:03d}.ckpt",
             "best_epoch": result.best_epoch, "val_explained_variance": result.best_val_ev,
             "val_pearson": val_r, "n_train": train_idx.size, "n_val": val_idx.size})
        history[str(fold)] = [dataclasses.asdict(e) for e in result.history]
        milnet.save_checkpoint(result.params, hyper, out / champions[-1]["checkpoint"])
        del result

    plan.to_csv(out / "fold_plan.csv")
    bagio.write_json(out / "history.json", history)
    save_manifest(out, [c["checkpoint"] for c in champions],
                  extra={"plan": args.plan, "champions": champions})
    for c in champions:
        val_r = "NA" if c["val_pearson"] is None else f"{c['val_pearson']:.4f}"
        print(f"fold {c['fold']}: epoch {c['best_epoch']} "
              f"val_ev {c['val_explained_variance']:.4f} val_r {val_r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    ensemble = load_ensemble(args.model)
    paths = _bag_paths(Path(args.bags))
    dim = ensemble.members[0].dim

    pairs = []
    for path in paths:
        # only the slide id and score are kept; the del frees this bag before
        # the next is read, so two bags are never held at once
        bag = bagio.read_bag(path, expect_dim=dim)
        pairs.append((bag.slide_id, ensemble_predict(ensemble, bag)))
        if not math.isfinite(pairs[-1][1]):
            raise TilscoreError(f"{path}: --model {args.model} scores slide {bag.slide_id!r} "
                                f"{pairs[-1][1]}")
        del bag
    _check_unique_ids(paths, [sid for sid, _ in pairs])
    pairs.sort(key=lambda pair: pair[0])
    out = _open_run(args, {"n_slides": len(pairs), "n_members": len(ensemble.members)})
    bagio.write_predictions(pairs, out / "predictions.csv")
    print(f"{len(pairs)} predictions -> {out / 'predictions.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _join_predictions(pred_path, records):
    preds = bagio.read_predictions(pred_path)
    rows = [(r, preds[r.slide_id]) for r in records if r.slide_id in preds]
    if not rows:
        raise TilscoreError("no slide_ids shared between predictions and clinical table")
    return rows


def cmd_evaluate(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs)
    records = bagio.load_clinical(args.clinical)
    rows = _join_predictions(args.predictions, records)
    preds = np.array([p for _, p in rows])
    labels = np.array([r.til_score_pct for r, _ in rows])
    report = concord.evaluate(preds, labels, cutoffs)
    curve = concord.calibration(preds, labels)
    out = _open_run(args, {"n": report["n"]})
    bagio.write_json(out / "metrics.json", report, sort_keys=False)
    curve.to_csv(out / "calibration.csv")
    summary = ", ".join(
        f"{k}={report[k]:.4f}" if report[k] is not None else f"{k}=NA"
        for k in ("pearson", "spearman", "ccc", "mse_pct"))
    print(f"n={report['n']}: {summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


def _km_split(out, name, times, events, group_ids, summary) -> None:
    from . import survstats

    curves = survstats.km_curve(times, events, group_ids)
    rows = [["group", "t", "survival", "at_risk"]]
    for c in curves:
        rows.append([c.group, 0, 1, c.n])
        rows += ([c.group, f"{t:.10g}", f"{s:.10g}", r]
                 for t, s, r in zip(c.times, c.survival, c.n_risk))
    bagio.write_table(out / f"km_{name}.csv", rows)
    entry = {"three_year_os": {c.group: c.survival_at(36.0) for c in curves},
             "groups": {c.group: c.n for c in curves}}
    if len(curves) > 1 and events.sum() > 0:
        chi2, p = survstats.logrank(times, events, group_ids)
        entry["logrank_chi2"] = chi2
        entry["logrank_p"] = p
    summary[name] = entry


def _fit_block(name, dataset) -> dict:
    from . import survstats

    fit = survstats.cox_fit(dataset)
    block = {"model": name, "n": int(dataset.times.size), "events": int(dataset.events.sum()),
             "concordance": fit.concordance, "loglik": fit.loglik, "lr_p": fit.lr_p,
             "rows": [{"variable": c.name, "hr": c.hr, "ci_low": c.ci_low, "ci_high": c.ci_high,
                       "p": c.p, "beta": c.beta, "se": c.se} for c in fit.coefs]}
    try:
        ph = survstats.schoenfeld_test(fit, dataset)
        block["schoenfeld"] = {"global_p": ph.global_p,
                               "per_covariate": {k: v[1] for k, v in ph.per_covariate.items()}}
    except TilscoreError as exc:
        block["schoenfeld"] = {"error": str(exc)}
    return block


def cmd_survival(args) -> int:
    from . import survstats

    cutoffs = sorted(_parse_cutoffs(args.cutoffs))
    covs = _load_config(args.spec, "--spec", "covariates").get("covariates", [])
    if not isinstance(covs, list):
        raise TilscoreError(f'--spec "covariates" must be a JSON list, not {type(covs).__name__}')
    cov_specs = [_dataclass_from(survstats.CovariateSpec, c, "--spec covariate") for c in covs]
    for spec in cov_specs:
        if spec.column in bagio.RESERVED_COLUMNS:
            raise TilscoreError(f"--spec covariate column {spec.column!r} is reserved and cannot "
                                "be a covariate")
    rows = _join_predictions(args.predictions, bagio.load_clinical(args.clinical))
    usable = [(r, p) for r, p in rows if r.os_months is not None]
    if not usable:
        raise TilscoreError("no subjects with survival data")
    recs = [r for r, _ in usable]
    scores = np.array([p for _, p in usable])
    times = np.array([r.os_months for r in recs])
    events = np.array([r.os_event for r in recs], dtype=np.int64)
    labels_pct = np.array([r.til_score_pct for r in recs])

    norm_min = args.norm_min if args.norm_min is not None else float(scores.min())
    norm_max = args.norm_max if args.norm_max is not None else float(scores.max())
    normed = survstats.minmax_normalize(scores, norm_min, norm_max)

    columns = {s.column: [rec.covariates.get(s.column) for rec in recs] for s in cov_specs}
    columns["model_tils_per_10pct"] = normed * 10.0
    columns["pathologist_tils_per_10pct"] = labels_pct / 10.0
    score_spec = survstats.CovariateSpec("model_tils_per_10pct")
    path_spec = survstats.CovariateSpec("pathologist_tils_per_10pct")
    variants = [("model_univariable", [score_spec]), ("pathologist_univariable", [path_spec])]
    if cov_specs:
        variants += [("model_multivariable", [score_spec, *cov_specs]),
                     ("pathologist_multivariable", [path_spec, *cov_specs]),
                     ("no_tils", cov_specs)]
    try:
        cox_blocks = [_fit_block(name, survstats.build_dataset(times, events, columns, specs))
                      for name, specs in variants]
    except survstats.NonConvergenceError as exc:  # only cox_fit raises it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE

    out = _open_run(args, {"n": len(recs)})
    km_summary: dict = {}
    edges = [-np.inf] + cutoffs + [np.inf]
    bin_of = np.searchsorted(cutoffs, labels_pct, side="right")
    cut_groups = np.array([_cutoff_label(edges[i], edges[i + 1]) for i in bin_of])
    _km_split(out, "pathologist_cutoffs", times, events, cut_groups, km_summary)
    for name, values in (("pathologist_median", labels_pct), ("model_median", scores)):
        try:
            groups, med = survstats.median_split(values)
            ids = np.where(groups == 1, f">=median({med:.4g})", f"<median({med:.4g})")
            _km_split(out, name, times, events, ids, km_summary)
        except survstats.DegenerateSplitError as exc:
            km_summary[name] = {"error": str(exc)}

    report = {"n": len(recs), "events": int(events.sum()),
              "normalization": {"min": norm_min, "max": norm_max},
              "cox": cox_blocks, "km": km_summary}
    bagio.write_json(out / "survival.json", report)
    columns = ("hr", "ci_low", "ci_high", "p")
    bagio.write_table(out / "cox_report.csv", [["model", "variable", *columns], *(
        [block["model"], row["variable"], *(f"{row[k]:.10g}" for k in columns)]
        for block in cox_blocks for row in block["rows"])])
    for block in cox_blocks:
        tils_rows = [r for r in block["rows"] if r["variable"].endswith("per_10pct")]
        hr_txt = (f"HR {tils_rows[0]['hr']:.3f} [{tils_rows[0]['ci_low']:.3f}-"
                  f"{tils_rows[0]['ci_high']:.3f}]" if tils_rows else "no TILs row")
        print(f"{block['model']}: concordance {block['concordance']:.3f}, {hr_txt}")
    return EXIT_OK


def _cutoff_label(lo: float, hi: float) -> str:
    if lo == -np.inf:
        return f"<{hi:g}"
    if hi == np.inf:
        return f">={lo:g}"
    return f"{lo:g}-{hi:g}"


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def _infer_step(coords: np.ndarray) -> int | None:
    # the smallest gap between distinct values, without np.unique's numpy.ma import
    gaps = np.diff(np.sort(coords))
    gaps = gaps[gaps > 0]
    return int(gaps.min()) if gaps.size else None


def cmd_heatmap(args) -> int:
    from . import pnm

    ensemble = load_ensemble(args.model)
    if len(ensemble.members) != 1:
        raise TilscoreError("heatmap needs a single checkpoint, not an ensemble")
    params = ensemble.members[0]
    bag = bagio.read_bag(args.bag, expect_dim=params.dim)
    trace = milnet.forward(params, bag)

    xs = bag.tile_xy[:, 0].astype(np.int64)
    ys = bag.tile_xy[:, 1].astype(np.int64)
    # the grid pitch per axis; single-row/column bags borrow the other axis
    step_x = _infer_step(xs) or _infer_step(ys) or bag.tile_size_px
    step_y = _infer_step(ys) or step_x
    cols = (xs - xs.min()) // max(step_x, 1)
    rows = (ys - ys.min()) // max(step_y, 1)
    step = step_x
    n_rows, n_cols = int(rows.max()) + 1, int(cols.max()) + 1

    # np.round rounds half to even, as Python's round does
    attn_img = np.zeros((n_rows, n_cols), dtype=np.uint8)
    score_img = np.zeros((n_rows, n_cols), dtype=np.uint8)
    attn_img[rows, cols] = np.round(255.0 * (trace.attention / trace.attention.max()))
    score_img[rows, cols] = np.round(255.0 * trace.tile_scores)

    out = _open_run(args, {"n_tiles": bag.n_tiles})
    pnm.write_pgm(out / "attention.pgm", attn_img)
    pnm.write_pgm(out / "scores.pgm", score_img)
    sidecar = {
        "slide_id": bag.slide_id,
        "prediction": trace.prediction,
        "tile_size_px": bag.tile_size_px,
        "step": step,
        "n_rows": n_rows,
        "n_cols": n_cols,
        "origin": [int(xs.min()), int(ys.min())],
        "tiles": [
            {"x": int(xs[k]), "y": int(ys[k]), "row": int(rows[k]), "col": int(cols[k]),
             "attention": float(trace.attention[k]), "score": float(trace.tile_scores[k])}
            for k in range(bag.n_tiles)
        ],
    }
    bagio.write_json(out / "heatmap.json", sidecar)
    # ascii(): a slide id is printable whatever the locale's encoding
    print(f"heatmaps for {bag.slide_id!a} ({bag.n_tiles} tiles) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tilscore",
                                     description="Slide-level TIL scoring pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="foreground mask and tile manifest for one PPM slide")
    p.add_argument("image")
    p.add_argument("--mpp", type=float, help="microns per pixel (else <image>.mpp sidecar)")
    p.add_argument("--tile-size", type=int, dest="tile_size", default=bagio.TILE_SIZE_PX)
    p.add_argument("--target-mpp", type=float, dest="target_mpp", default=bagio.TARGET_MPP)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help='JSON file with "fesi" masking overrides')
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("synth", help="generate a synthetic cohort from a JSON config")
    p.add_argument("config_file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="grouped cross-validation training")
    p.add_argument("--bags", required=True)
    p.add_argument("--clinical", required=True)
    p.add_argument("--plan", required=True, help="'centre:<k>' or 'loco'")
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--enc-out", type=int, dest="enc_out")
    p.add_argument("--attn-hidden", type=int, dest="attn_hidden")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, choices=[1],
                   help="accepted only as 1: folds are trained one after another")
    p.add_argument("--config", help='JSON file with "hyper" overrides')
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score bags with an ensemble or checkpoint")
    p.add_argument("--model", required=True, help="ensemble directory or .ckpt file")
    p.add_argument("--bags", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1, choices=[1],
                   help="accepted only as 1: bags are scored one after another")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="concordance and calibration panel")
    p.add_argument("--predictions", required=True)
    p.add_argument("--clinical", required=True)
    p.add_argument("--cutoffs", default=",".join(f"{c:g}" for c in concord.DEFAULT_CUTOFFS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("survival", help="Cox regression and Kaplan-Meier protocol")
    p.add_argument("--predictions", required=True)
    p.add_argument("--clinical", required=True)
    p.add_argument("--spec", help="JSON covariate spec for multivariable models")
    p.add_argument("--norm-min", type=float, dest="norm_min",
                   help="training-set score minimum for normalization")
    p.add_argument("--norm-max", type=float, dest="norm_max")
    p.add_argument("--cutoffs", default="30,75", help="pathologist KM cutoffs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("heatmap", help="attention and score heatmaps for one bag")
    p.add_argument("--model", required=True)
    p.add_argument("--bag", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TilscoreError, OSError) as exc:  # anything else is a fault, with its traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

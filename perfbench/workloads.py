"""Benchmark workloads: seeded inputs, the CLI stages that consume them, and
the checks on what those stages write.

Every workload makes its inputs in-process through the program's public
functions (the `bagio` and `pnm` writers; `predict` also fits its ensemble
with `milnet.train`).  That is the set-up, timed as `setup_s`.  The timed
stages only ever see the generated files, through `tilscore <stage>` child
processes started by `run.py`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tilscore import bagio, folds, milnet, pnm

DIM = 2048  # paper feature width; the model is 2048 -> 512 -> 128, batch 16
BATCH_SIZE = 16
TRAIN_LR = "1e-3"  # the only hyper-parameter raised above the paper recipe


class CheckFailed(Exception):
    """A stage ran but its output is wrong."""


@dataclass
class Stage:
    """One `tilscore` invocation: subcommand, arguments, output directory."""

    cmd: str
    args: list[str]
    out: Path

    def argv(self) -> list[str]:
        return [self.cmd, *map(str, self.args), "--out", str(self.out)]


@dataclass
class Inputs:
    root: Path
    seed: int
    oracle: dict = field(default_factory=dict)  # slide_id -> true label (fraction)
    extra: dict = field(default_factory=dict)


class Workload:
    """What `run.py` needs from a workload."""

    name: str

    def setup(self, root: Path, seed: int) -> Inputs:
        raise NotImplementedError

    def stages(self, inp: Inputs, out: Path) -> list[Stage]:
        """The timed stages of one pass, run in this order."""
        raise NotImplementedError

    def check(self, stage: Stage, inp: Inputs) -> float | None:
        """Raise CheckFailed on wrong output; return the quality figure."""
        raise NotImplementedError

    def probe_stages(self, inp: Inputs, out: Path) -> list[Stage]:
        """Stages run only in a traced run, whose known-defect exit is
        reported rather than timed."""
        return []

    def expected_calls(self, stage: Stage, inp: Inputs) -> dict[str, int]:
        """Layer call counts the traced run of `stage` must show."""
        return {}


def pearson(a, b) -> float:
    return float(np.corrcoef(np.asarray(a, float), np.asarray(b, float))[0, 1])


def read_pgm(path: Path) -> np.ndarray:
    """Binary PGM as written by the program: 'P5\\n<w> <h>\\n255\\n' then pixels."""
    data = path.read_bytes()
    magic, size, maxval, pixels = data.split(b"\n", 3)
    w, h = map(int, size.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != w * h:
        raise CheckFailed(f"{path.name} is not a {w}x{h} 8-bit PGM")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def spread_sizes(n: int, lo: int, hi: int, rng: np.random.Generator) -> np.ndarray:
    """Bag sizes evenly spread over [lo, hi] in seeded order, so every seed
    asks for the same total work while bag sizes stay ragged."""
    return rng.permutation(np.linspace(lo, hi, n).round().astype(int))


def write_cohort(dest: Path, seed: int, groups: list[tuple[str, int, int, int]]):
    """Synthesize one cohort and write it as several bag directories.

    `groups` holds (subdirectory, n_bags, min_tiles, max_tiles).  All bags
    come from one `synth_cohort` call, so they share the feature embedding;
    each is cut to its size from the group's spread.  The oracle label is
    the generator's slide label, the mean latent density of the uncut bag,
    which the kept tiles estimate to within about 0.01.

    Returns the oracle and, per subdirectory, the written bags and records.
    """
    n = sum(g[1] for g in groups)
    kmax = max(g[3] for g in groups)
    cfg = bagio.SynthConfig(n_slides=n, tiles_min=kmax, tiles_max=kmax, dim=DIM, seed=seed,
                            n_centres=6, n_cohorts=3)
    bags, records = bagio.synth_cohort(cfg)
    rng = np.random.default_rng([seed, 7])
    oracle = {r.slide_id: r.til_score_pct / 100.0 for r in records}
    start, written = 0, {}
    for sub, count, lo, hi in groups:
        bag_dir = dest / sub / "bags"
        bag_dir.mkdir(parents=True)
        part = slice(start, start + count)
        cut = [bagio.FeatureBag(slide_id=bag.slide_id, features=bag.features[:k],
                                tile_xy=bag.tile_xy[:k], mpp=bag.mpp,
                                tile_size_px=bag.tile_size_px)
               for bag, k in zip(bags[part], spread_sizes(count, lo, hi, rng))]
        for bag in cut:
            bagio.write_bag(bag, bag_dir / f"{bag.slide_id}.bag")
        bagio.write_clinical(records[part], dest / sub / "clinical.csv")
        written[sub] = (cut, records[part])
        start += count
    return oracle, written


def train_argv(bags: Path, clinical: Path, epochs: int, seed: int,
               batch: int = BATCH_SIZE) -> list[str]:
    """Paper model shape; patience = epochs, so every fold runs every epoch."""
    return ["--bags", bags, "--clinical", clinical, "--plan", "centre:3", "--lr", TRAIN_LR,
            "--max-epochs", epochs, "--patience", epochs, "--seed", seed, "--workers", "1",
            "--enc-out", "512", "--attn-hidden", "128", "--batch-size", batch]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train(Workload):
    """Grouped 3-fold training at paper model shape on ragged 2048-d bags."""

    name = "train"
    # 36 bags in 3 folds: 24 training bags, 2 ADAM steps per epoch
    N_BAGS, TILES, EPOCHS = 36, (32, 96), 4
    VAL_R_FLOOR = 0.95

    def setup(self, root: Path, seed: int) -> Inputs:
        write_cohort(root, seed, [("cohort", self.N_BAGS, *self.TILES)])
        return Inputs(root=root, seed=seed)

    def stages(self, inp: Inputs, out: Path) -> list[Stage]:
        cohort = inp.root / "cohort"
        return [Stage("train", train_argv(cohort / "bags", cohort / "clinical.csv",
                                          self.EPOCHS, inp.seed), out / "train")]

    def check(self, stage: Stage, inp: Inputs) -> float:
        manifest = json.loads((stage.out / "ensemble.json").read_text())
        if len(manifest["members"]) != 3:
            raise CheckFailed(f"ensemble.json lists {len(manifest['members'])} members, not 3")
        rs = [c["val_pearson"] for c in manifest["champions"]]
        if min(rs) < self.VAL_R_FLOOR:
            raise CheckFailed(f"fold val_pearson {min(rs):.4f} below {self.VAL_R_FLOOR}")
        return float(np.mean(rs))

    def expected_calls(self, stage: Stage, inp: Inputs) -> dict[str, int]:
        """Model calls implied by the fold plan and the epochs each fold ran."""
        history = json.loads((stage.out / "history.json").read_text())
        with open(stage.out / "fold_plan.csv", newline="") as fh:
            fold_of = [int(row["fold"]) for row in csv.DictReader(fh)]
        batch = int(stage.args[stage.args.index("--batch-size") + 1])
        calls = {"milnet.forward": 0, "milnet.backward": 0, "milnet.adam_step": 0}
        for fold, epochs in history.items():
            n_val = fold_of.count(int(fold))
            n_train = len(fold_of) - n_val
            calls["milnet.forward"] += len(epochs) * (n_train + n_val)
            calls["milnet.backward"] += len(epochs) * n_train
            calls["milnet.adam_step"] += len(epochs) * math.ceil(n_train / batch)
        return calls


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


class Predict(Workload):
    """Scoring ragged bags with a 3-member ensemble trained during set-up."""

    name = "predict"
    N_BAGS, TILES = 96, (100, 300)
    # The ensemble is fitted in-process on a small cohort of its own, batch
    # 4, so set-up stays short; the members have the paper shape all the same.
    FIT_BAGS, FIT_TILES, FIT_EPOCHS, FIT_BATCH = 24, (16, 48), 3, 4
    R_FLOOR = 0.9

    def setup(self, root: Path, seed: int) -> Inputs:
        oracle, written = write_cohort(root, seed, [("fit", self.FIT_BAGS, *self.FIT_TILES),
                                                    ("score", self.N_BAGS, *self.TILES)])
        bags, records = written["fit"]
        # one member per centre fold, as `tilscore train --plan centre:3` makes them
        plan = folds.split_by_group(records, "centre", 3, seed=seed)
        fold_of = np.array([plan.fold_of(r.slide_id) for r in records])
        labels = np.array([r.til_score_pct for r in records]) / 100.0
        hyper = milnet.HyperParams(lr=float(TRAIN_LR), batch_size=self.FIT_BATCH,
                                   max_epochs=self.FIT_EPOCHS, patience=self.FIT_EPOCHS)
        members = [milnet.train(bags, labels, np.flatnonzero(fold_of != f),
                                np.flatnonzero(fold_of == f), hyper, seed=seed + f).params
                   for f in range(plan.k)]
        folds.save_ensemble(folds.Ensemble(members=members, hyper=hyper), root / "model")
        return Inputs(root=root, seed=seed, oracle=oracle)

    def stages(self, inp: Inputs, out: Path) -> list[Stage]:
        return [Stage("predict", ["--model", inp.root / "model", "--bags",
                                  inp.root / "score" / "bags", "--workers", "1"], out / "predict")]

    def check(self, stage: Stage, inp: Inputs) -> float:
        with open(stage.out / "predictions.csv", newline="") as fh:
            preds = {row["slide_id"]: float(row["ectil_score"]) for row in csv.DictReader(fh)}
        expected = {p.stem for p in (inp.root / "score" / "bags").glob("*.bag")}
        if set(preds) != expected:
            raise CheckFailed(f"{len(preds)} prediction rows for {len(expected)} bags")
        scores = np.array(list(preds.values()))
        if not ((scores >= 0.0) & (scores <= 1.0)).all():
            raise CheckFailed("a score lies outside [0, 1]")
        r = pearson(scores, [inp.oracle[sid] for sid in preds])
        if r < self.R_FLOOR:
            raise CheckFailed(f"Pearson {r:.4f} against the oracle is below {self.R_FLOOR}")
        return r

    def expected_calls(self, stage: Stage, inp: Inputs) -> dict[str, int]:
        n = sum(1 for _ in (inp.root / "score" / "bags").glob("*.bag"))
        return {"bagio.read_bag": n, "folds.ensemble_predict": n}


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


class Survival(Workload):
    """Concordance panel, then the Cox/KM protocol, for 10,000 subjects.

    Only `evaluate` is timed.  `survival --spec` at this size exits 3 on a
    share of seeds (absolute Newton tolerances below the float noise floor,
    see NOTES.md), so it runs as a traced probe whose outcome is reported,
    not as a timed operation.
    """

    name = "survival"
    N = 10_000
    SPEC = {"covariates": [{"column": "age", "kind": "numeric"},
                           {"column": "grade", "kind": "factor"}]}

    def setup(self, root: Path, seed: int) -> Inputs:
        rng = np.random.default_rng([seed, 11])
        n = self.N
        til = rng.uniform(1.0, 99.0, n)
        age = np.round(rng.normal(60.0, 12.0, n).clip(25.0, 95.0), 1)  # years
        grade = rng.choice([1, 2, 3], size=n, p=[0.2, 0.45, 0.35])
        hazard = 0.01 * np.exp(-0.15 * til / 10.0 + 0.03 * (age - 60.0) + 0.4 * (grade - 1))
        t_event = rng.exponential(1.0 / hazard)
        t_censor = rng.uniform(24.0, 120.0, n)
        months = np.maximum(np.round(np.minimum(t_event, t_censor), 4), 0.001)
        preds = np.clip(til / 100.0 + rng.normal(0.0, 0.05, n), 0.0, 1.0)
        records = [
            bagio.SlideRecord(slide_id=f"s{i:05d}", cohort=f"cohort{i % 3}",
                              centre=f"centre{i % 6}", til_score_pct=float(til[i]),
                              covariates={"age": float(age[i]), "grade": f"G{grade[i]}"},
                              os_months=float(months[i]), os_event=int(t_event[i] <= t_censor[i]))
            for i in range(n)
        ]
        bagio.write_clinical(records, root / "clinical.csv")
        bagio.write_predictions([(r.slide_id, float(p)) for r, p in zip(records, preds)],
                                root / "predictions.csv")
        (root / "spec.json").write_text(json.dumps(self.SPEC))
        return Inputs(root=root, seed=seed,
                      extra={"preds": preds, "labels": til})

    def _io(self, inp: Inputs) -> list:
        return ["--predictions", inp.root / "predictions.csv", "--clinical",
                inp.root / "clinical.csv"]

    def stages(self, inp: Inputs, out: Path) -> list[Stage]:
        return [Stage("evaluate", self._io(inp), out / "evaluate")]

    def probe_stages(self, inp: Inputs, out: Path) -> list[Stage]:
        return [Stage("survival", [*self._io(inp), "--spec", inp.root / "spec.json"],
                      out / "survival")]

    def check(self, stage: Stage, inp: Inputs) -> float | None:
        if stage.cmd == "evaluate":
            got = json.loads((stage.out / "metrics.json").read_text())["pearson"]
            want = pearson(inp.extra["preds"], inp.extra["labels"])
            if not abs(got - want) <= 1e-9:
                raise CheckFailed(f"metrics.json pearson {got!r} != numpy {want!r}")
            return got
        report = json.loads((stage.out / "survival.json").read_text())
        if len(report["cox"]) != 5:
            raise CheckFailed(f"{len(report['cox'])} Cox blocks, not 5")
        for block in report["cox"]:
            if not block["rows"] or not all(math.isfinite(r["hr"]) for r in block["rows"]):
                raise CheckFailed(f"Cox block {block['model']} has a non-finite hazard ratio")
        return None


# ---------------------------------------------------------------------------
# tile
# ---------------------------------------------------------------------------


class Tile(Workload):
    """Foreground masking and tiling of one 8192^2 slide at 0.25 microns per pixel."""

    name = "tile"
    SIDE, MPP = 8192, 0.25
    RADII = (0.13, 0.16, 0.19)  # of the side; one disc per quadrant, three of four
    MASK_FACTOR = 8  # foreground.FesiParams().downsample
    # The mask grows about 12 cells past tissue edges on a white background,
    # so the IoU here sits near 0.88, below the 0.95 of the grey-background
    # disc in tests/conftest.py; the floor still catches an empty, full or
    # shifted mask.
    IOU_FLOOR = 0.8

    def setup(self, root: Path, seed: int) -> Inputs:
        """Textured discs on white.  Fixed radii in non-overlapping quadrants
        keep the tissue area and edge length, hence work and IoU, the same
        for every seed; positions, order and texture follow the seed."""
        rng = np.random.default_rng([seed, 13])
        n, f = self.SIDE, self.MASK_FACTOR
        half = n // 2
        cells = (np.arange(n // f) + 0.5) * f  # mask-cell centres in slide pixels
        pixels = np.full((n, n, 3), 255, dtype=np.uint8)
        truth = np.zeros((n // f, n // f), dtype=bool)
        quadrants = rng.permutation(4)[:len(self.RADII)]
        for q, frac in zip(quadrants, rng.permutation(self.RADII)):
            r = frac * n
            cx = (q % 2) * half + rng.uniform(r, half - r)
            cy = (q // 2) * half + rng.uniform(r, half - r)
            x0, x1, y0, y1 = int(cx - r), int(cx + r) + 1, int(cy - r), int(cy + r) + 1
            yy, xx = np.ogrid[y0:y1, x0:x1]
            disc = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
            tissue = rng.integers(60, 230, size=(y1 - y0, x1 - x0, 3), dtype=np.uint8)
            pixels[y0:y1, x0:x1][disc] = tissue[disc]
            truth |= (cells[None, :] - cx) ** 2 + (cells[:, None] - cy) ** 2 <= r * r
        pnm.write_ppm(root / "slide.ppm", pixels)
        return Inputs(root=root, seed=seed, extra={"truth": truth})

    def stages(self, inp: Inputs, out: Path) -> list[Stage]:
        return [Stage("tile", [inp.root / "slide.ppm", "--mpp", self.MPP], out / "tile")]

    def check(self, stage: Stage, inp: Inputs) -> float:
        truth = inp.extra["truth"]
        mask = read_pgm(stage.out / "mask.pgm") > 0
        if mask.shape != truth.shape:
            raise CheckFailed(f"mask shape {mask.shape} != {truth.shape}")
        iou = float((mask & truth).sum() / (mask | truth).sum())
        if iou < self.IOU_FLOOR:
            raise CheckFailed(f"mask IoU {iou:.4f} below {self.IOU_FLOOR}")
        with open(stage.out / "tiles.tsv") as fh:
            if sum(1 for _ in fh) < 3:
                raise CheckFailed("tiles.tsv lists no tiles")
        return iou


WORKLOADS = {w.name: w for w in (Train(), Predict(), Survival(), Tile())}

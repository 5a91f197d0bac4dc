"""Grouped data splits and ensemble inference.

Slides are split by an opaque group column (medical centre or cohort) so
that no group ever straddles two folds.  Centre-based k-fold uses greedy
size balancing; leave-one-cohort-out makes one fold per cohort.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import TilscoreError
from .bagio import FeatureBag, SlideRecord, read_json, write_json, write_table
# not called here: kept as `folds.pearson`, which perfbench's tracer test rebinds
from .concord import pearson  # noqa: F401
from .milnet import HyperParams, ModelParams, forward, load_checkpoint, save_checkpoint

GROUP_KEYS = ("centre", "cohort")


@dataclass
class FoldPlan:
    k: int
    assignment: dict[str, int]  # slide_id -> fold index

    def fold_of(self, slide_id: str) -> int:
        return self.assignment[slide_id]

    def to_csv(self, path) -> None:
        write_table(path, [["slide_id", "fold"], *sorted(self.assignment.items())])


def split_by_group(records: list[SlideRecord], group_key: str, k: int, seed: int = 0) -> FoldPlan:
    """Greedy size-balanced grouped k-fold.

    Groups are placed largest-first onto the currently smallest fold; the
    seed only breaks ties between equal-sized groups.  Each group is
    assigned whole, so no group straddles two folds.
    """
    if group_key not in GROUP_KEYS:
        raise TilscoreError(f"group_key must be one of {GROUP_KEYS}")
    groups: dict[str, list[str]] = {}
    for r in records:
        groups.setdefault(getattr(r, group_key), []).append(r.slide_id)
    if len(groups) < k:
        raise TilscoreError(f"need at least {k} distinct {group_key} groups, found {len(groups)}")
    rng = np.random.default_rng(seed)
    names = sorted(groups)
    tiebreak = {name: float(t) for name, t in zip(names, rng.random(len(names)))}
    ordered = sorted(names, key=lambda g: (-len(groups[g]), tiebreak[g]))
    fold_sizes = [0] * k
    assignment: dict[str, int] = {}
    for g in ordered:
        fold = int(np.argmin(fold_sizes))
        fold_sizes[fold] += len(groups[g])
        for sid in groups[g]:
            assignment[sid] = fold
    return FoldPlan(k=k, assignment=assignment)


def leave_one_cohort_out(records: list[SlideRecord]) -> FoldPlan:
    """One fold per cohort; fold i's validation set is exactly cohort i, so
    no cohort straddles two folds."""
    cohorts = sorted({r.cohort for r in records})
    if len(cohorts) < 2:
        raise TilscoreError("leave-one-cohort-out needs at least 2 cohorts")
    index = {c: i for i, c in enumerate(cohorts)}
    return FoldPlan(k=len(cohorts), assignment={r.slide_id: index[r.cohort] for r in records})


@dataclass
class Ensemble:
    members: list[ModelParams]
    hyper: HyperParams

    def __post_init__(self):
        if not self.members:
            raise TilscoreError("ensemble needs at least one member")
        dims = {(m.dim, m.enc_out) for m in self.members}
        if len(dims) != 1:
            raise TilscoreError("ensemble members have mismatched shapes")


def ensemble_predict(ensemble: Ensemble, bag: FeatureBag) -> float:
    """Arithmetic mean of member predictions."""
    features = bag.features.astype(np.float64)  # cast once, shared by every member
    preds = [forward(m, features).prediction for m in ensemble.members]
    return float(np.mean(preds))


def save_manifest(out_dir, names: list[str], extra: dict | None = None) -> None:
    """Write `ensemble.json`, listing the member checkpoints `names` in
    `out_dir`; written after them, it marks the ensemble complete."""
    write_json(Path(out_dir) / "ensemble.json", {"members": names, **(extra or {})},
               sort_keys=False)


def save_ensemble(ensemble: Ensemble, out_dir, extra: dict | None = None) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"fold{i:03d}.ckpt" for i in range(len(ensemble.members))]
    for name, member in zip(names, ensemble.members):
        save_checkpoint(member, ensemble.hyper, out_dir / name)
    save_manifest(out_dir, names, extra)


def load_ensemble(path) -> Ensemble:
    """Accepts an ensemble directory (with ensemble.json) or one checkpoint
    file.  A manifest that does not list its member file names raises
    TilscoreError naming it."""
    path = Path(path)
    if path.is_dir():
        manifest_path = path / "ensemble.json"
        manifest = read_json(manifest_path)
        if not isinstance(manifest, dict) or "members" not in manifest:
            raise TilscoreError(f'{manifest_path}: expected a JSON object with a "members" list')
        names = manifest["members"]
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise TilscoreError(f'{manifest_path}: "members" must list checkpoint file names, '
                                f"not {names!r}")
        members, hyper = [], None
        for name in names:
            # a name is UTF-8 text: the file named by its UTF-8 bytes in any locale
            params, hyper = load_checkpoint(path / os.fsdecode(name.encode("utf-8")))
            members.append(params)
        return Ensemble(members=members, hyper=hyper)
    params, hyper = load_checkpoint(path)
    return Ensemble(members=[params], hyper=hyper)

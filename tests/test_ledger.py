"""Output ledger: the SHA-256 of every file that one small run of all seven
stages writes.

The chain (synth with survival, train, predict, evaluate, survival, heatmap,
and tile on a textured disc) runs in-process on a tiny cohort, and each
output's hash, `run_config.json` aside (it echoes `--out`), is compared with
`tests/ledger.json`.  A change that moves any output byte fails here and
names each file that moved.

Results may differ in the last bit across BLAS builds, CPU dispatch targets
and numpy builds (numpy's SIMD `exp` and `log`), so the ledger records the
platform it was made on.  On any other platform the chain still runs, and
the hash comparison is skipped with the names of the fields that differ.

A change that moves an output on purpose rewrites the ledger in the same
commit, and CHANGES.md names each moved file and why it moved.  To rewrite
it, run from the repository root

    PYTHONPATH=src:tests python tests/test_ledger.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_disc
from tilscore.cli import main
from tilscore.pnm import write_ppm

LEDGER = Path(__file__).with_name("ledger.json")

SYNTH = {"n_slides": 30, "tiles_min": 3, "tiles_max": 40, "dim": 16, "seed": 7, "noise_dim": 3,
         "noise_sigma": 0.1, "n_centres": 5, "n_cohorts": 2, "survival": True}


def platform_record() -> dict:
    """What the chain's last bits may depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": (blas.get("openblas configuration")
                     or f"{blas.get('name')} {blas.get('version')}"),
            "cpu_features": " ".join(sorted(name for name, on in __cpu_features__.items() if on))}


def run_chain(root: Path) -> dict[str, str]:
    """Run the seven stages under `root`, each into `root/<command>`, and
    return the SHA-256 of each output file but `run_config.json`, keyed by
    its path under `root`."""
    (root / "cfg.json").write_text(json.dumps(SYNTH))
    write_ppm(root / "disc.ppm", noisy_disc(n=1024, radius=400.0)[0])
    cohort = root / "synth"
    joined = ["--predictions", root / "predict" / "predictions.csv",
              "--clinical", cohort / "clinical.csv"]
    steps = {
        "synth": [root / "cfg.json"],
        "train": ["--bags", cohort / "bags", "--clinical", cohort / "clinical.csv",
                  "--plan", "centre:3", "--enc-out", 8, "--attn-hidden", 4, "--lr", 3e-3,
                  "--batch-size", 8, "--max-epochs", 4, "--patience", 12],
        "predict": ["--model", root / "train", "--bags", cohort / "bags"],
        "evaluate": joined,
        "survival": joined,
        "heatmap": ["--model", root / "train" / "fold000.ckpt",
                    "--bag", cohort / "bags" / "synth0000.bag"],
        "tile": [root / "disc.ppm", "--mpp", 0.5, "--tile-size", 128],
    }
    for command, argv in steps.items():
        assert main([str(a) for a in (command, *argv, "--out", root / command)]) == 0, command
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob("*/**/*"))
            if path.is_file() and path.name != "run_config.json"}


def test_outputs_match_the_ledger(tmp_path):
    hashes = run_chain(tmp_path)
    ledger = json.loads(LEDGER.read_text())
    here = platform_record()
    differs = sorted(key for key in {**here, **ledger["platform"]}
                     if here.get(key) != ledger["platform"].get(key))
    if differs:
        pytest.skip(f"tests/ledger.json was made on another platform (its {', '.join(differs)} "
                    "differ): the chain ran, its hashes were not compared")
    moved = sorted(name for name in {**hashes, **ledger["files"]}
                   if hashes.get(name) != ledger["files"].get(name))
    assert not moved, f"outputs that moved from tests/ledger.json: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_chain(Path(tmp))
    LEDGER.write_text(json.dumps({"platform": platform_record(), "files": files},
                                 indent=1, sort_keys=True) + "\n")
    print(f"{len(files)} hashes -> {LEDGER}")

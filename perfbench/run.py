"""Benchmark of the tilscore CLI stages, end to end and layer by layer.

    python3 perfbench/run.py --workload {train,predict,survival,tile} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from
`src/` next to this directory.  Inputs are generated from `--seed`, each CLI
stage runs in its own child process (`--workers 1`, default BLAS threads),
one stage at a time, and every stage output is checked.

`--trace 0` sets up at least three times and for at least three seconds
(median is `setup_s`), then repeats passes over the workload's stages for
`--seconds` and reports medians over passes.  Many short passes and set-ups
keep the medians steady on a host whose speed wanders by tens of percent
from second to second.
`--trace 1` sets up once with the layers traced in-process, makes one plain
and one traced pass, and reports the per-layer metrics of `layers.py`, the
tracing overhead (traced minus plain pass time) and the call-count check.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it is the machine record.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN_REPS, SETUP_MIN_S = 3, 3.0
EXIT_NONCONVERGENCE = 3  # tilscore's exit code for survstats.NonConvergenceError

END_TO_END_UNITS = {"setup_s": "s", "stage_s": "s", "stage_peak_rss_mb": "MB", "quality": "ratio"}


@dataclass
class StageRun:
    stage: object  # workloads.Stage
    wall: float
    rss_mb: float
    code: int
    spans: list | None = None
    quality: float | None = None
    error: str | None = None


@dataclass
class Pass:
    runs: list[StageRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.error is None for r in self.runs)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)


def run_stage(stage, traced: bool) -> StageRun:
    """Run one CLI stage in its own child process; time it, read its peak RSS."""
    stage.out.parent.mkdir(parents=True, exist_ok=True)
    result_path = stage.out.parent / f"{stage.out.name}.result.json"
    log = stage.out.parent / f"{stage.out.name}.log"
    cmd = [sys.executable, str(BENCH / "stage.py"), str(result_path), str(int(traced)),
           *stage.argv()]
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT)
        wall = perf_counter() - start
    run = StageRun(stage=stage, wall=wall, rss_mb=float("nan"), code=proc.returncode)
    if result_path.exists():
        result = json.loads(result_path.read_text())
        run.rss_mb, run.spans = result["vm_hwm_mb"], result["spans"]
    if run.code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        run.error = f"tilscore {stage.cmd} exited {run.code}: {' '.join(tail)}"
    return run


def check_run(workload, run: StageRun, inp) -> None:
    if run.error is not None:
        return
    from workloads import CheckFailed

    try:
        run.quality = workload.check(run.stage, inp)
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        run.error = f"{run.stage.cmd} output check: {type(exc).__name__}: {exc}"


def run_pass(workload, inp, out: Path, traced: bool) -> Pass:
    p = Pass()
    for stage in workload.stages(inp, out):
        p.runs.append(run_stage(stage, traced))
    for run in p.runs:  # checks stay outside the timed stage runs
        check_run(workload, run, inp)
    return p


def set_up(workload, work: Path, seed: int, min_reps: int, min_s: float = 0.0):
    """Set up from scratch at least `min_reps` times and for at least
    `min_s` seconds in all; keep the last inputs."""
    times, inp = [], None
    while len(times) < min_reps or sum(times) < min_s:
        if inp is not None:
            shutil.rmtree(inp.root)
        root = work / f"setup{len(times)}"
        root.mkdir(parents=True)
        start = perf_counter()
        inp = workload.setup(root, seed)
        times.append(perf_counter() - start)
    return inp, times


def dgemm_peak_gflops() -> float:
    """Best of five f64 GEMMs at the encoder shape (1000 tiles x 2048 -> 512)."""
    import numpy as np

    rng = np.random.default_rng(0)
    h, w = rng.random((1000, 2048)), rng.random((512, 2048))
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        h @ w.T
        best = min(best, perf_counter() - start)
    return 2 * 1000 * 2048 * 512 / best / 1e9


def blas_threads() -> dict:
    """Thread variables set in the environment, and the count the loaded
    OpenBLAS reports (read through ctypes; threadpoolctl is not assumed)."""
    import numpy  # noqa: F401  (loads the BLAS library into this process)

    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    effective = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                effective = int(getattr(handle, sym)())
                break
    return {"env": env or "unset (library default)", "openblas_get_num_threads": effective}


def source_fingerprint() -> dict:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    digest = hashlib.sha256()
    for path in sorted((SRC / "tilscore").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": done.stdout.strip() if done.returncode == 0
            else "unavailable (checkout is not a git repository)",
            "src_sha256": digest.hexdigest()}


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        **source_fingerprint(),
        "rss_method": "VmHWM of each stage child, read by the child at exit (KiB / 1024 = MB)",
    }


def timed_run(workload, seed: int, work: Path, seconds: float):
    """Set up repeatedly, then pass over the timed stages for `seconds`."""
    inp, setup_times = set_up(workload, work, seed, SETUP_MIN_REPS, SETUP_MIN_S)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(workload, inp, out, traced=False))
        shutil.rmtree(out)
    metrics = {"setup_s": statistics.median(setup_times)}
    good = [p for p in passes if p.ok]  # a failed pass gives no value
    if good:
        metrics["stage_s"] = statistics.median(p.wall for p in good)
        metrics["stage_peak_rss_mb"] = statistics.median(max(r.rss_mb for r in p.runs)
                                                         for p in good)
        metrics["quality"] = statistics.median(statistics.fmean(r.quality for r in p.runs)
                                               for p in good)
    runs = [r for p in passes for r in p.runs]
    return runs, [], {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(workload, seed: int, work: Path):
    """Set up once with the layers traced in-process, make one plain and one
    traced pass, and run the workload's probe stages traced."""
    from layers import Aggregate, per_layer
    from tracer import Tracer

    from tilscore.survstats import SCORE_TOL

    tracer = Tracer("setup")
    tracer.install()
    try:
        inp, _ = set_up(workload, work, seed, min_reps=1)
    finally:
        tracer.uninstall()
    plain = run_pass(workload, inp, work / "plain", traced=False)
    traced = run_pass(workload, inp, work / "traced", traced=True)
    for run in traced.runs:
        if run.error is None:
            seen = Counter(span[0] for span in run.spans)
            missed = {name: (seen[name], want)
                      for name, want in workload.expected_calls(run.stage, inp).items()
                      if seen[name] != want}
            if missed:
                run.error = f"tracer call counts (seen, implied by the workload): {missed}"
    probes = [run_stage(s, traced=True) for s in workload.probe_stages(inp, work / "probe")]
    notes = []
    for run in probes:
        if run.code == EXIT_NONCONVERGENCE:
            # the known Cox tolerance defect (NOTES.md): reported, not timed
            notes.append(f"known defect: {run.error}")
            run.error = None
        else:
            check_run(workload, run, inp)
    rows = per_layer(Aggregate([(r.stage.cmd, r.spans or [], r.wall) for r in traced.runs + probes],
                               SCORE_TOL),
                     Aggregate([("setup", tracer.spans, None)], SCORE_TOL),
                     overhead_s=traced.wall - plain.wall, dgemm_gflops=dgemm_peak_gflops(),
                     nonconvergence_exits=len(notes))
    return plain.runs + traced.runs + probes, notes, {n: (v, u) for n, v, u in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "predict", "survival", "tile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tilscore" / "cli.py").is_file():
        print(f"error: no tilscore sources at {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            runs, notes, metrics = traced_run(workload, args.seed, work)
        else:
            runs, notes, metrics = timed_run(workload, args.seed, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failures = [r.error for r in runs if r.error is not None]
    for line in notes + failures:
        print(line, file=sys.stderr)
    if not args.trace and set(metrics) != set(END_TO_END_UNITS):
        print("error: no pass over the stages succeeded, nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"machine": machine_record()}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<50} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

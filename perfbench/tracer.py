"""Span tracer for the tilscore layers, kept entirely outside the program.

`Tracer.install` wraps every public module-level function of the layer
modules and rebinds the wrapper in every `tilscore` namespace that holds the
original, so names imported by name (`cli.ensemble_predict`, `folds.forward`,
`folds.pearson`, ...) are traced too.  Spans are kept in memory as
`[name, start, end, parent_index, run_id, attrs]` and written out once, when
the run ends (by `stage.py` for stage processes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("bagio", "milnet", "folds", "concord", "survstats", "foreground", "pnm", "cli")


def _forward_attrs(args, kwargs, trace):
    params = args[0]
    k = trace.features.shape[0]
    d, e, h = params.dim, params.enc_out, params.attn_v.shape[0]
    # encoder GEMM, the two gate GEMMs, attention logits, score head
    flop = 2 * k * (d * e + 2 * e * h + h + e)
    return {"tiles": k, "gflop": flop / 1e9}


def _backward_attrs(args, kwargs, grads):
    trace, params = args[0], args[1]
    k = trace.features.shape[0]
    d, e, h = params.dim, params.enc_out, params.attn_v.shape[0]
    # weight-gradient GEMMs of encoder and both gates, gate input gradients,
    # score head and attention vector
    flop = 2 * k * (e * d + 4 * e * h + e + h)
    return {"gflop": flop / 1e9}


def _bag_mb(bag) -> float:
    return (bag.features.nbytes + bag.tile_xy.nbytes) / 1e6


# Per-function quantities, computed from arguments and results after the
# span has closed, so they cost nothing inside the timed interval.
ATTRS = {
    "milnet.forward": _forward_attrs,
    "milnet.backward": _backward_attrs,
    "milnet.train": lambda a, kw, res: {"epochs": len(res.history),
                                        "wasted_epochs": len(res.history) - res.best_epoch},
    "bagio.read_bag": lambda a, kw, bag: {"mb": _bag_mb(bag)},
    "bagio.write_bag": lambda a, kw, res: {"mb": _bag_mb(a[0])},
    "bagio.load_clinical": lambda a, kw, recs: {"rows": len(recs)},
    "survstats.cox_fit": lambda a, kw, fit: {"newton_iters": fit.iterations},
    "survstats.cox_loglik_score_info": lambda a, kw, res: {
        "score_max": float(abs(res[1]).max())},
    # harrell_c builds six n x n boolean temporaries (earlier, usable, the
    # two risk comparisons and their masked copies): computed, not measured
    "survstats.harrell_c": lambda a, kw, res: {"bytes": 6 * len(a[0]) ** 2},
    "pnm.read_ppm": lambda a, kw, px: {"mb": px.nbytes / 1e6},
    "foreground.compute_foreground": lambda a, kw, res: {
        "megapixels": a[0].width_px * a[0].height_px / 1e6},
    "foreground.filter_tiles": lambda a, kw, grid: {"tiles": grid.n_tiles},
}


class Tracer:
    """Collects spans of traced calls for one run id at a time."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a function re-entering itself (read_bag on a path re-calls
            # itself on the stream) is one call, not two
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[5].update(attrs_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers and rebind the wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tilscore.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tilscore" and not mod_name.startswith("tilscore."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in self._rebound:
            setattr(module, attr, obj)
        self._rebound.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one run nest strictly (one thread, `--workers 1`), so the
    children of a span never overlap each other.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own

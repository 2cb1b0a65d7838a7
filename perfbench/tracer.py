"""Span tracer that wraps remlpc's public functions from the outside.

Each hook replaces one module attribute, at the place where the caller
looks the function up (``optimizer.product_exp``, ``model.eval_basis``,
...), with a wrapper that records a span (id, parent id, layer name,
start, end, extra).  Parents come from a thread-local span stack; a span
opened on a worker thread with an empty stack takes the innermost span
open on the installing thread as its parent, so the replicate work of
``sim.rate_experiment``'s thread pool counts as that call's children.
Spans stay in memory; the caller aggregates and writes them.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time

_MARK = "_perfbench_layer"


def _rows(result, args, kwargs):
    return sum(c.m for c in result.curves)


def _points(result, args, kwargs):
    return int(result.shape[0])


def _groups(result, args, kwargs):
    return len(result.groups)


def _step(result, args, kwargs):
    _, info = result
    accepted = int(info.step_size > 0.0 and not info.stalled)
    return (accepted, int(info.halvings))


# (layer, module the caller looks the function up in, attribute, extra)
HOOKS = (
    ("cli.read_curves_csv", "remlpc.cli", "read_curves_csv", _rows),
    ("cli.write_params_json", "remlpc.cli", "write_params_json", None),
    ("bspline.eval_basis", "remlpc.model", "eval_basis", _points),
    ("bspline.eval_basis", "remlpc.sim", "eval_basis", _points),
    ("model.curve_batches", "remlpc.optimizer", "curve_batches", _groups),
    ("model.functional_loss", "remlpc.model", "functional_loss", None),
    ("model.matrix_loss", "remlpc.model", "matrix_loss", None),
    ("calculus.grad_functional_raw", "remlpc.calculus", "grad_functional_raw", None),
    ("calculus.grad_matrix", "remlpc.calculus", "grad_B_scaled", None),
    ("calculus.grad_matrix", "remlpc.calculus", "grad_zeta_scaled", None),
    ("calculus.inv_hessian_star_B", "remlpc.calculus", "inv_hessian_star_B", None),
    ("stiefel.product_exp", "remlpc.optimizer", "product_exp", None),
    ("optimizer.init_params", "remlpc.optimizer", "init_params", None),
    ("optimizer.step", "remlpc.optimizer", "step", _step),
    ("optimizer.fit", "remlpc.optimizer", "fit", None),
    ("matrixcase.pca_fit", "remlpc.matrixcase", "pca_fit", None),
    ("sim.sample_dataset", "remlpc.sim", "sample_dataset", None),
    ("sim.optimal_parameter", "remlpc.sim", "optimal_parameter", None),
    ("sim.kernel_l2_distance", "remlpc.sim", "kernel_l2_distance", None),
    ("sim.rate_experiment", "remlpc.sim", "rate_experiment", None),
)


def absent_layers() -> list[str]:
    """Layers with at least one hooked name that no longer exists."""
    out = []
    for layer, mod, attr, _ in HOOKS:
        if not hasattr(importlib.import_module(mod), attr) and layer not in out:
            out.append(layer)
    return out


def assert_unwrapped() -> None:
    """Fail if any hook target still carries a tracing wrapper."""
    for layer, mod, attr, _ in HOOKS:
        fn = getattr(importlib.import_module(mod), attr, None)
        if fn is not None and hasattr(fn, _MARK):
            raise RuntimeError(f"tracing wrapper for {layer} left installed on {mod}.{attr}")


class Tracer:
    """Records spans for the hooked functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, layer, t0, t1, extra, error)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else 0
            sid = next(tracer._ids)
            stack.append(sid)
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if error is not None:
                    tracer.spans.append((sid, parent, layer, t0, t1, None, error))
            info = extra(result, args, kwargs) if extra is not None else None
            tracer.spans.append((sid, parent, layer, t0, t1, info, None))
            return result

        setattr(wrapper, _MARK, layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        for layer, mod, attr, extra in HOOKS:
            owner = importlib.import_module(mod)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn, extra))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


TIMED = (
    "optimizer.init_params",
    "model.functional_loss",
    "calculus.grad_functional_raw",
    "model.curve_batches",
    "bspline.eval_basis",
    "stiefel.product_exp",
    "calculus.grad_matrix",
    "calculus.inv_hessian_star_B",
    "model.matrix_loss",
    "matrixcase.pca_fit",
    "cli.read_curves_csv",
    "cli.write_params_json",
    "sim.sample_dataset",
    "sim.optimal_parameter",
    "sim.kernel_l2_distance",
)
COUNTED = (
    "model.functional_loss",
    "calculus.grad_functional_raw",
    "stiefel.product_exp",
    "calculus.grad_matrix",
    "calculus.inv_hessian_star_B",
    "model.matrix_loss",
)
SELF_TIMED = ("optimizer.step", "optimizer.fit", "sim.rate_experiment")
REPLICATE_WORK = ("sim.sample_dataset", "optimizer.fit", "sim.kernel_l2_distance")


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans, workers: int = 1) -> dict[str, float]:
    """Per-layer totals for the spans of one pass.

    ``.s`` sums the durations of a layer's spans, ``.self_s`` subtracts
    the part of each span that its child spans cover, ``.calls`` counts
    spans.  ``sim.worker_busy_ratio`` divides the replicate work under
    ``rate_experiment`` by its wall time times the worker count.
    """
    by_layer: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple]] = {}
    for sp in spans:
        by_layer.setdefault(sp[2], []).append(sp)
        children.setdefault(sp[1], []).append(sp)

    def dur(sp):
        return sp[4] - sp[3]

    def self_time(sp):
        kids = [(c[3], c[4]) for c in children.get(sp[0], ())]
        return dur(sp) - _union_length(kids)

    out: dict[str, float] = {}
    for layer in TIMED:
        out[f"{layer}.s"] = sum(dur(sp) for sp in by_layer.get(layer, ()))
    for layer in COUNTED:
        out[f"{layer}.calls"] = len(by_layer.get(layer, ()))
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = sum(self_time(sp) for sp in by_layer.get(layer, ()))

    steps = by_layer.get("optimizer.step", ())
    step_ids = {sp[0] for sp in steps}
    done = [sp for sp in steps if sp[6] is None]
    accepted = sum(sp[5][0] for sp in done)
    loss_evals = sum(
        1
        for layer in ("model.functional_loss", "model.matrix_loss")
        for sp in by_layer.get(layer, ())
        if sp[1] in step_ids
    )
    out["optimizer.iters"] = accepted
    out["optimizer.halvings"] = sum(sp[5][1] for sp in done)
    out["optimizer.restarts"] = len(by_layer.get("optimizer.init_params", ()))
    out["optimizer.line_search.accept_ratio"] = accepted / loss_evals if loss_evals else 0.0
    out["calculus.inv_hessian_star_B.fallbacks"] = sum(
        1 for sp in by_layer.get("calculus.inv_hessian_star_B", ()) if sp[6] is not None
    )
    groups = [sp[5] for sp in by_layer.get("model.curve_batches", ()) if sp[6] is None]
    out["model.curve_batches.groups"] = statistics.median(groups) if groups else 0
    out["bspline.eval_basis.points"] = sum(
        sp[5] for sp in by_layer.get("bspline.eval_basis", ()) if sp[6] is None
    )
    out["cli.read_curves_csv.rows"] = sum(
        sp[5] for sp in by_layer.get("cli.read_curves_csv", ()) if sp[6] is None
    )
    busy = wall = 0.0
    for sp in by_layer.get("sim.rate_experiment", ()):
        wall += dur(sp)
        busy += sum(dur(c) for c in children.get(sp[0], ()) if c[2] in REPLICATE_WORK)
    out["sim.worker_busy_ratio"] = busy / (wall * workers) if wall else 0.0
    return out

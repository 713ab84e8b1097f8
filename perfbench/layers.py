"""Where the traced run wraps coxkit, and the per-layer metrics it reports.

Each layer is a coxkit module. Its public functions are wrapped under the
attribute names their callers look them up by (see `install`), so the
program under test is not edited. Counters are computed from arguments and
results; byte and FLOP counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import importlib
import tracemalloc

# (span name, owner module or class, attribute) for every wrapped lookup.
# One function looked up through several modules is wrapped once per lookup,
# all under the same span name.
WRAPPED = [
    ("data.load_csv", "coxkit.cli", "load_csv"),
    ("data.write_csv", "coxkit.cli", "write_csv"),
    ("data.subset", "coxkit.data:SurvivalDataset", "subset"),
    ("data.sort_view", "coxkit.optim", "sort_view"),
    ("simulate.generate", "coxkit.cli", "generate"),
    ("coxlinear.fit_cph", "coxkit.coxlinear", "fit_cph"),
    ("riskmlp.forward_cached", "coxkit.optim", "forward_cached"),
    ("riskmlp.forward", "coxkit.optim", "forward"),
    ("riskmlp.forward", "coxkit.recommend", "forward"),
    ("riskmlp.forward", "coxkit.riskmlp", "forward"),
    ("riskmlp.backward", "coxkit.optim", "backward"),
    ("riskmlp.cox_loss", "coxkit.optim", "cox_loss"),
    ("riskmlp.cox_loss_grad", "coxkit.optim", "cox_loss_grad"),
    ("optim.train", "coxkit.optim", "train"),
    ("optim.random_search", "coxkit.optim", "random_search"),
    ("metrics.concordance_index", "coxkit.optim", "concordance_index"),
    ("metrics.concordance_index", "coxkit.metrics", "concordance_index"),
    ("metrics.bootstrap_ci", "coxkit.metrics", "bootstrap_ci"),
    ("metrics.kaplan_meier", "coxkit.recommend", "kaplan_meier"),
    ("metrics.kaplan_meier", "coxkit.metrics", "kaplan_meier"),
    ("metrics.log_rank", "coxkit.recommend", "log_rank"),
    ("metrics.log_rank", "coxkit.metrics", "log_rank"),
    ("metrics.write_km_csv", "coxkit.metrics", "write_km_csv"),
    ("recommend.evaluate_recommendations", "coxkit.recommend", "evaluate_recommendations"),
    ("plots.render_km_svg", "coxkit.cli", "render_km_svg"),
    ("cli.simulate", "coxkit.cli", "cmd_simulate"),
    ("cli.train", "coxkit.cli", "cmd_train"),
    ("cli.search", "coxkit.cli", "cmd_search"),
    ("cli.recommend", "coxkit.cli", "cmd_recommend"),
    ("cli.km", "coxkit.cli", "cmd_km"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in WRAPPED))

# Spans that only set-up produces (no timed command simulates or writes a
# dataset CSV) are left out of the per-iteration metrics. SETUP_SPANS are
# reported from the traced set-up as setup.<name>.s; optim.train is there for
# the model that cohort-scoring fits during set-up.
SETUP_ONLY = {"simulate.generate", "cli.simulate", "data.write_csv"}
SETUP_SPANS = ["simulate.generate", "data.write_csv", "optim.train"]
ITERATION_SPANS = [name for name in SPAN_NAMES if name not in SETUP_ONLY]

# Counters beyond calls/s/self_s, with their units. They are per traced
# iteration, and 0 on a workload where the layer does not run.
COUNTERS = {
    "data.load_csv.rows": "count",
    "coxlinear.fit_cph.newton_iters": "count",
    "coxlinear.fit_cph.peak_alloc_mib": "MiB",
    "coxlinear.fit_cph.computed_tensor_mib": "MiB",
    "riskmlp.forward_cached.rows": "count",
    "riskmlp.forward.rows": "count",
    "riskmlp.matmul_gflop": "GFLOP",
    "optim.epochs": "count",
    "optim.batches": "count",
    "optim.fold_ok_ratio": "ratio",
    "metrics.concordance_index.pairs_scanned": "count",
    "metrics.bootstrap_ci.redraws": "count",
    "plots.render_km_svg.bytes": "bytes",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in ITERATION_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in SETUP_SPANS:
        units[f"setup.{name}.s"] = "s"
    units.update(COUNTERS)
    return units


def _weight_macs(net) -> int:
    return sum(w.shape[0] * w.shape[1] for w in net.weights)


def _count_rows(key):
    def count(args, kwargs, result):
        net, x = args[0], args[1]
        rows = x.shape[0] if x.ndim == 2 else 1
        return {key: rows, "riskmlp.matmul_gflop": 2e-9 * rows * _weight_macs(net)}

    return count


def _count_backward(args, kwargs, result):
    # weight gradients plus input gradients of every layer: two matmuls each
    net, d_risk = args[0], args[2]
    return {"riskmlp.matmul_gflop": 4e-9 * d_risk.shape[0] * _weight_macs(net)}


def _count_train(args, kwargs, result):
    _, history = result
    return {"optim.epochs": len(history.train_loss)}


def _count_search(args, kwargs, result):
    folds = [score for trial in result[2] for score in trial["fold_cindex"]]
    # random_search scores a fold 0.0 exactly when its training diverged or
    # its holdout had no comparable pair
    return {"optim.fold_ok_ratio": sum(s > 0.0 for s in folds) / len(folds)}


def _count_cindex(args, kwargs, result):
    n = len(args[0])
    return {"metrics.concordance_index.pairs_scanned": n * n}


def _count_fit_cph(args, kwargs, result):
    ds = args[0]
    return {
        "coxlinear.fit_cph.newton_iters": result.iterations,
        # the (n, d, d) float64 cumulative-sum tensor of one Newton evaluation
        "coxlinear.fit_cph.computed_tensor_mib": ds.n * ds.d * ds.d * 8 / 2**20,
    }


COUNT_HOOKS = {
    "data.load_csv": lambda a, k, r: {"data.load_csv.rows": r.n},
    "coxlinear.fit_cph": _count_fit_cph,
    "riskmlp.forward_cached": _count_rows("riskmlp.forward_cached.rows"),
    "riskmlp.forward": _count_rows("riskmlp.forward.rows"),
    "riskmlp.backward": _count_backward,
    "riskmlp.cox_loss_grad": lambda a, k, r: {"optim.batches": 1},
    "optim.train": _count_train,
    "optim.random_search": _count_search,
    "metrics.concordance_index": _count_cindex,
    "metrics.bootstrap_ci": lambda a, k, r: {"metrics.bootstrap_ci.redraws": r.redraws},
    "plots.render_km_svg": lambda a, k, r: {"plots.render_km_svg.bytes": len(r)},
}


def _peak_alloc(tracer):
    """`around` hook: run the call under tracemalloc and add its peak."""

    def around(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                key = (tracer.request, "coxlinear.fit_cph.peak_alloc_mib")
                tracer.counts[key] = max(tracer.counts[key], peak / 2**20)

        return measured

    return around


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(tracer) -> None:
    """Wrap every entry of WRAPPED; undo with `tracer.restore()`."""
    for name, owner, attr in WRAPPED:
        around = _peak_alloc(tracer) if name == "coxlinear.fit_cph" else None
        tracer.patch(_resolve(owner), attr, name, COUNT_HOOKS.get(name), around)

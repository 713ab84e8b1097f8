"""Shared test utilities: random dataset factories and independent oracles.

The oracles here are deliberately written from first principles (plain loops,
closed forms) so they stay independent of the library code they check.
"""

from __future__ import annotations

import csv

import numpy as np

from coxkit.coxlinear import LinearCoxModel
from coxkit.data import SurvivalDataset
from coxkit.riskmlp import SELU_ALPHA, SELU_LAMBDA, RiskNetwork


def random_dataset(
    rng: np.random.Generator,
    n: int,
    d: int = 3,
    censor_fraction: float = 0.3,
    tie_times: bool = False,
) -> SurvivalDataset:
    """Random right-censored dataset with at least one event."""
    covariates = rng.normal(size=(n, d))
    if tie_times:
        times = rng.integers(1, max(2, n // 2), size=n).astype(float)
    else:
        times = rng.uniform(0.1, 10.0, size=n)
    events = (rng.random(n) >= censor_fraction).astype(int)
    if events.sum() == 0:
        events[int(rng.integers(0, n))] = 1
    return SurvivalDataset(covariates=covariates, times=times, events=events)


def brute_force_cindex(times, events, risks) -> float:
    """O(n^2) pair enumeration of Harrell's concordance index.

    Walks every ordered pair; the patient with the earlier time must be an
    event (ties in time count only when exactly one of the two is an event,
    the event being the earlier one). Risk ties score 0.5.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    risks = np.asarray(risks, dtype=float)
    n = len(times)
    num = 0.0
    pairs = 0
    for i in range(n):
        if events[i] != 1:
            continue
        for j in range(n):
            if j == i:
                continue
            comparable = times[j] > times[i] or (
                times[j] == times[i] and events[j] == 0
            )
            if not comparable:
                continue
            pairs += 1
            if risks[i] > risks[j]:
                num += 1.0
            elif risks[i] == risks[j]:
                num += 0.5
    if pairs == 0:
        raise ValueError("no comparable pairs")
    return num / pairs


def pair_scan_cindex(times, events, risks) -> float:
    """Harrell's concordance index by a blockwise vectorised pair scan.

    A second oracle for sizes where `brute_force_cindex` is too slow: each
    block of 256 rows is compared with every patient through (256, n)
    boolean masks, so it costs O(n^2) time but only O(256 n) memory. It
    shares no code with the sort-based count in `coxkit.metrics`.
    """
    chunk = 256
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    risks = np.asarray(risks, dtype=float)
    n = times.shape[0]
    numerator = 0.0
    comparable = 0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        ti = times[start:stop, None]
        ei = events[start:stop, None]
        ri = risks[start:stop, None]
        later = times[None, :] > ti
        tied_time = times[None, :] == ti
        usable = (ei == 1) & (later | (tied_time & (events[None, :] == 0)))
        score = np.where(
            ri > risks[None, :], 1.0, np.where(ri == risks[None, :], 0.5, 0.0)
        )
        numerator += float(score[usable].sum())
        comparable += int(usable.sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return numerator / comparable


def cumsum_loglik_grad_hess(beta, xs, es, starts, stops):
    """Breslow log partial likelihood, gradient and Hessian of a linear Cox model.

    The oracle for `coxkit.coxlinear`: `xs`/`es` in descending-time order,
    one max-shifted prefix sum per moment, and the second moments from an
    (n, d, d) cumulative sum, with no at-risk weights or suffix sums.
    """
    eta = xs @ beta
    shift = eta.max()
    w = np.exp(eta - shift)

    deaths = np.add.reduceat(es, starts)
    event_groups = deaths > 0
    d_g = deaths[event_groups].astype(float)
    ends = stops[event_groups] - 1

    s0 = np.cumsum(w)[ends]
    ll = float(eta[es == 1].sum() - (d_g * (shift + np.log(s0))).sum())
    wx = w[:, None] * xs
    s1 = np.cumsum(wx, axis=0)[ends]
    s2 = np.cumsum(wx[:, :, None] * xs[:, None, :], axis=0)[ends]

    mean = s1 / s0[:, None]
    grad = xs[es == 1].sum(axis=0) - (d_g[:, None] * mean).sum(axis=0)
    cov = s2 / s0[:, None, None] - mean[:, :, None] * mean[:, None, :]
    hess = -(d_g[:, None, None] * cov).sum(axis=0)
    return ll, grad, hess


def two_branch_activate(z, kind):
    """ReLU or SELU by its two-branch definition, one `np.where` per call.

    The oracle for `coxkit.riskmlp._activate`, which computes the same floats
    without branches.
    """
    if kind == "relu":
        return np.maximum(z, 0.0)
    return SELU_LAMBDA * np.where(
        z > 0.0, z, SELU_ALPHA * np.expm1(np.minimum(z, 0.0))
    )


def two_branch_activate_grad(z, kind):
    """Derivative of `two_branch_activate`, evaluated afresh from `z`."""
    if kind == "relu":
        return (z > 0.0).astype(float)
    return SELU_LAMBDA * np.where(
        z > 0.0, 1.0, SELU_ALPHA * np.exp(np.minimum(z, 0.0))
    )


def reference_forward(net, x, train, rng):
    """Risks and `(inputs, pre_activations, masks)` of the risk network.

    The oracle for `coxkit.riskmlp` forward passes: out-of-place arithmetic,
    the two-branch activation, and the inverted-dropout mask drawn from `rng`
    in the same order as the library (one `rng.random` per hidden layer).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    p = net.config.dropout_rate
    inputs, pre_acts, masks = [], [], []
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w + b
        h = two_branch_activate(z, net.config.activation)
        mask = None
        if train and p > 0.0:
            mask = (rng.random(h.shape) >= p) / (1.0 - p)
            h = h * mask
        inputs.append(a)
        pre_acts.append(z)
        masks.append(mask)
        a = h
    inputs.append(a)
    risks = (a @ net.weights[-1] + net.biases[-1])[:, 0]
    return risks, (inputs, pre_acts, masks)


def reference_backward(net, cache, d_risk, l2_coefficient=0.0):
    """Weight and bias gradients through a `reference_forward` cache.

    Re-evaluates each activation's derivative from the pre-activations.
    """
    inputs, pre_acts, masks = cache
    n_layers = len(net.weights)
    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    g = np.asarray(d_risk, dtype=float)[:, None]
    weight_grads[-1] = inputs[-1].T @ g + 2.0 * l2_coefficient * net.weights[-1]
    bias_grads[-1] = g.sum(axis=0)
    g = g @ net.weights[-1].T
    for layer in range(n_layers - 2, -1, -1):
        if masks[layer] is not None:
            g = g * masks[layer]
        g = g * two_branch_activate_grad(pre_acts[layer], net.config.activation)
        weight_grads[layer] = (
            inputs[layer].T @ g + 2.0 * l2_coefficient * net.weights[layer]
        )
        bias_grads[layer] = g.sum(axis=0)
        if layer > 0:
            g = g @ net.weights[layer].T
    return weight_grads, bias_grads


def reference_group_risks(model, x, treatment_index, groups):
    """Risks of `x` with the treatment input forced to each group, as columns.

    The oracle for `coxkit.recommend.group_risks`: one fresh copy of `x` per
    group, a linear model as `x @ beta`, a network through
    `reference_forward` in inference mode, and the columns stacked at the end.
    """
    columns = []
    for group in groups:
        forced = np.array(x, dtype=float, copy=True)
        forced[..., treatment_index] = group
        forced = np.atleast_2d(forced)
        if isinstance(model, LinearCoxModel):
            columns.append(forced @ model.beta)
        elif isinstance(model, RiskNetwork):
            columns.append(reference_forward(model, forced, False, None)[0])
        else:
            columns.append(np.asarray(model(forced), dtype=float))
    return np.stack(columns, axis=1)


def numeric_gradient(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for k in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += eps
        xm[k] -= eps
        grad[k] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return grad


def reference_step_points(times, values, x_max):
    """Post-step polyline starting at (0, 1), one point at a time.

    The oracle for `coxkit.plots._step_points`, which builds the same
    points as arrays.
    """
    xs, ys = [0.0], [1.0]
    prev = 1.0
    for t, v in zip(times, values):
        xs.extend([float(t), float(t)])
        ys.extend([prev, float(v)])
        prev = float(v)
    xs.append(x_max)
    ys.append(prev)
    return xs, ys


def reference_band_points(curve, x_max):
    """Confidence-band polygon: the upper steps, then the lower ones reversed."""
    ux, uy = reference_step_points(curve.event_times, curve.ci_upper, x_max)
    lx, ly = reference_step_points(curve.event_times, curve.ci_lower, x_max)
    return ux + lx[::-1], uy + ly[::-1]


def _write_rows(path, header, rows, comment):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def reference_write_csv(ds, path, comment=None):
    """A dataset CSV written row by row through `csv.writer`.

    The oracle for `coxkit.data.write_csv`, with its default column names.
    """
    header = list(ds.feature_names) + ["time", "event"]
    if ds.treatments is not None:
        header.append("treatment")
    rows = []
    for i in range(ds.n):
        row = [repr(float(v)) for v in ds.covariates[i]]
        row.append(repr(float(ds.times[i])))
        row.append(str(int(ds.events[i])))
        if ds.treatments is not None:
            row.append(str(int(ds.treatments[i])))
        rows.append(row)
    _write_rows(path, header, rows, comment)


def reference_write_km_csv(curve, path, comment=None):
    """The oracle for `coxkit.metrics.write_km_csv`, row by row."""
    rows = [
        [
            repr(float(curve.event_times[i])),
            repr(float(curve.survival[i])),
            repr(float(curve.ci_lower[i])),
            repr(float(curve.ci_upper[i])),
            int(curve.at_risk[i]),
            int(curve.deaths[i]),
        ]
        for i in range(curve.event_times.size)
    ]
    header = ["time", "survival", "ci_lower", "ci_upper", "at_risk", "deaths"]
    _write_rows(path, header, rows, comment)


def reference_write_true_risks(true_risks, path, comment):
    """The oracle for the `true_risks.csv` that `coxkit simulate` writes."""
    rows = [[repr(float(value))] for value in true_risks]
    _write_rows(path, ["true_risk"], rows, comment)


def reference_write_history(history, path, comment):
    """The oracle for the `history.csv` that `coxkit train` writes."""
    header = ["epoch", "learning_rate", "train_loss"]
    if history.val_cindex is not None:
        header.append("val_cindex")
    rows = []
    for epoch, loss in enumerate(history.train_loss):
        row = [epoch, repr(history.learning_rates[epoch]), repr(loss)]
        if history.val_cindex is not None:
            row.append(repr(history.val_cindex[epoch]))
        rows.append(row)
    _write_rows(path, header, rows, comment)

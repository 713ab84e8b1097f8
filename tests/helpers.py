"""Shared test utilities: random dataset factories and independent oracles.

The oracles here are deliberately written from first principles (plain loops,
closed forms) so they stay independent of the library code they check.
"""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest

from coxkit.coxlinear import LinearCoxModel
from coxkit.data import StandardizationParams, SurvivalDataset, sort_view
from coxkit.metrics import MAX_REDRAWS
from coxkit.optim import (
    OptimizerConfig,
    TrainingDiverged,
    TrainingHistory,
    _derive_seeds,
    clip_gradients,
    kfold,
    lr_at_epoch,
    sample_configuration,
    train,
)
from coxkit.recommend import predict
from coxkit.riskmlp import (
    SELU_ALPHA,
    SELU_LAMBDA,
    RiskNetwork,
    _activate,
    backward,
    cox_loss,
    cox_loss_grad,
    forward,
    forward_cached,
    init_network,
)


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
    shares no code with the sort-based count in `coxkit.metrics`. Like it,
    it refuses non-finite risks, which no pair order can rank.
    """
    chunk = 256
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    risks = np.asarray(risks, dtype=float)
    if not np.all(np.isfinite(risks)):
        raise ValueError("risks must be finite")
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


def reference_bootstrap_ci(times, events, risks, n_replicates=200, alpha=0.05, seed=0):
    """(lower, upper, redraws) of the percentile bootstrap C-index interval.

    The oracle for `coxkit.metrics.bootstrap_ci`: one resample per replicate
    from the same `rng.integers` draws, scored by `pair_scan_cindex`, and a
    resample with no comparable pair redrawn, at most `MAX_REDRAWS` times in
    a row before `RuntimeError`.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    risks = np.asarray(risks, dtype=float)
    rng = np.random.default_rng(seed)
    n = times.shape[0]
    values = []
    redraws = 0
    for _ in range(n_replicates):
        for _ in range(MAX_REDRAWS + 1):
            idx = rng.integers(0, n, size=n)
            try:
                values.append(pair_scan_cindex(times[idx], events[idx], risks[idx]))
                break
            except ValueError:
                redraws += 1
        else:
            raise RuntimeError("persistent degenerate resamples")
    lower, upper = np.percentile(values, [100.0 * alpha / 2, 100.0 * (1 - alpha / 2)])
    return float(lower), float(upper), redraws


def reference_risk_table(times, events, grid=None):
    """The patients at risk and the deaths at each time s of `grid` (by
    default the distinct event times), counted by a loop over s: sum(t >= s)
    and sum((t == s) & (e == 1))."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=np.int64)
    if grid is None:
        grid = sorted(set(times[events == 1].tolist()))
    at_risk = [int(np.sum(times >= s)) for s in grid]
    deaths = [int(np.sum((times == s) & (events == 1))) for s in grid]
    return (np.array(grid, dtype=float), np.array(at_risk, dtype=np.int64),
            np.array(deaths, dtype=np.int64))


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


def one_shot_forward(net, x):
    """Inference risks of the rows of `x`, each layer's bias and activation
    applied to its whole product at once.

    The oracle for `coxkit.riskmlp.forward`, which applies them to row blocks
    of the same products in place. It calls the library's `_activate`, which
    tests check against `two_branch_activate`, so that a difference can come
    only from the blocks.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w
        z += b
        _activate(z, net.config.activation)
        a = z
    out = a @ net.weights[-1]
    out += net.biases[-1]
    return out[:, 0]


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


def identity_standardization(d: int) -> StandardizationParams:
    """Means 0 and stddevs 1: `model_inputs` then leaves every covariate
    bit-identical, -0.0 included, for tests that need unscaled inputs."""
    return StandardizationParams(np.zeros(d), np.ones(d))


def reference_model_inputs(ds, params):
    """The oracle for `coxkit.data.model_inputs`: standardize into one new
    dataset, then, when `ds` has treatments, `np.column_stack` the label onto
    it as the last input in another."""
    if params.means.shape[0] != ds.d:
        raise ValueError(
            f"params fitted for {params.means.shape[0]} features, dataset has {ds.d}"
        )
    ds = SurvivalDataset(
        covariates=(ds.covariates - params.means) / params.stddevs,
        times=ds.times,
        events=ds.events,
        treatments=ds.treatments,
        feature_names=ds.feature_names,
    )
    if ds.treatments is None:
        return ds
    return SurvivalDataset(
        covariates=np.column_stack([ds.covariates, ds.treatments.astype(float)]),
        times=ds.times,
        events=ds.events,
        treatments=ds.treatments,
        feature_names=tuple(ds.feature_names) + ("treatment",),
    )


def reference_group_risks(model, x, groups):
    """Risks of the model inputs `x` with each group as the last input, as
    columns.

    The oracle for `coxkit.recommend.group_risks`: a fresh copy of `x` with
    its last column set to the group, per group, a linear model as
    `x @ beta`, a network through `reference_forward` in inference mode, and
    the columns stacked at the end.
    """
    x = np.atleast_2d(x)
    columns = []
    for group in groups:
        forced = x.copy()
        forced[:, -1] = group
        if isinstance(model, LinearCoxModel):
            columns.append(forced @ model.beta)
        elif isinstance(model, RiskNetwork):
            columns.append(reference_forward(model, forced, False, None)[0])
        else:
            columns.append(np.asarray(model(forced), dtype=float))
    return np.stack(columns, axis=1)


def _rows(ds, index):
    """The rows `index` of `ds`, built and checked by the dataset constructor."""
    return SurvivalDataset(
        covariates=ds.covariates[index],
        times=ds.times[index],
        events=ds.events[index],
        treatments=None if ds.treatments is None else ds.treatments[index],
        feature_names=ds.feature_names,
    )


class _ReferenceSgdNesterov:
    def __init__(self, params, momentum):
        self.momentum = momentum
        self.velocity = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr):
        for p, g, v in zip(params, grads, self.velocity):
            v *= self.momentum
            v += g
            p -= lr * (g + self.momentum * v)


class _ReferenceAdam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def reference_train(train_ds, net_config, opt_config, val_ds=None):
    """Training with one optimizer state per parameter array.

    The oracle for `coxkit.optim.train`, which steps all parameters as one
    flat vector: the same seeds, batch draws, loss and gradients, then Nesterov
    SGD or Adam applied array by array, every batch built through the
    validating `SurvivalDataset` constructor instead of `subset`, and the
    validation C-index taken by `pair_scan_cindex`.
    """
    if train_ds.n_events == 0:
        raise ValueError("no observed events")
    init_seed, dropout_seed, batch_seed = _derive_seeds(opt_config.seed, 3)
    net = init_network(net_config, train_ds.d, init_seed)
    dropout_rng = np.random.default_rng(dropout_seed)
    batch_rng = np.random.default_rng(batch_seed)
    l2 = net_config.l2_coefficient
    params = net.weights + net.biases
    if opt_config.kind == "sgd":
        optimizer = _ReferenceSgdNesterov(params, opt_config.momentum)
    else:
        optimizer = _ReferenceAdam(params)
    history = TrainingHistory(val_cindex=None if val_ds is None else [])

    for epoch in range(opt_config.epochs):
        lr = lr_at_epoch(opt_config.learning_rate, epoch, opt_config.lr_decay_rate)
        if opt_config.batch_size is None:
            batches = [train_ds]
        else:
            order = batch_rng.permutation(train_ds.n)
            size = opt_config.batch_size
            batches = [_rows(train_ds, order[start : start + size])
                       for start in range(0, train_ds.n, size)]
            batches = [b for b in batches if b.events.sum() > 0]
            if not batches:
                raise TrainingDiverged(f"epoch {epoch}: every batch lost its events")
        epoch_loss = 0.0
        for batch in batches:
            view = sort_view(batch)
            risks, cache = forward_cached(net, batch.covariates, dropout_rng)
            loss = cox_loss(risks, batch, view, l2, net)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            grads = backward(net, cache, cox_loss_grad(risks, batch, view), l2)
            if opt_config.clip_norm is not None:
                grads = clip_gradients(grads, opt_config.clip_norm)
            optimizer.step(params, grads, lr)
            epoch_loss += loss * batch.n
        history.train_loss.append(epoch_loss / sum(b.n for b in batches))
        history.learning_rates.append(lr)
        if val_ds is not None:
            val_risks = forward(net, val_ds.covariates)
            if not np.all(np.isfinite(val_risks)):
                raise TrainingDiverged(f"non-finite validation risks at epoch {epoch}")
            history.val_cindex.append(pair_scan_cindex(val_ds.times, val_ds.events, val_risks))
    return net, history


def reference_random_search(space, ds, k, n_trials, seed, epochs, optimizer_kind="adam"):
    """Random search as one loop over trials and folds, in this process.

    The oracle for `coxkit.optim.random_search`, which trains the same
    trial x fold pairs in worker processes: configurations drawn in trial
    order, every fold trained and scored in turn, a fold that diverges or
    whose holdout has no comparable pair scored 0 with its error recorded as
    `type: message`, ties to the earlier trial, and each holdout scored by
    `pair_scan_cindex`.
    """
    sample_rng = np.random.default_rng(seed)
    fold_seed, *trial_seeds = _derive_seeds(seed, 1 + n_trials)
    pairs = kfold(ds, k, fold_seed)
    trials = []
    for index in range(n_trials):
        net_config, opt_params = sample_configuration(space, sample_rng, optimizer_kind)
        opt_config = OptimizerConfig(epochs=epochs, seed=trial_seeds[index], **opt_params)
        fold_scores, fold_errors = [], []
        for fold_train, fold_holdout in pairs:
            error = None
            try:
                net, _ = train(fold_train, net_config, opt_config)
                risks = predict(net, fold_holdout.covariates)
                score = pair_scan_cindex(fold_holdout.times, fold_holdout.events, risks)
            except (TrainingDiverged, ValueError) as exc:
                score, error = 0.0, f"{type(exc).__name__}: {exc}"
            fold_scores.append(float(score))
            fold_errors.append(error)
        trials.append(
            {
                "trial": index,
                "network": net_config,
                "optimizer": opt_config,
                "fold_cindex": fold_scores,
                "fold_errors": fold_errors,
                "mean_cindex": float(np.mean(fold_scores)),
            }
        )
    best = max(trials, key=lambda t: (t["mean_cindex"], -t["trial"]))
    return best["network"], best["optimizer"], trials, best["trial"]


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
    header = ["epoch", "learning_rate", "train_loss", "val_cindex"]
    rows = [
        [epoch, repr(history.learning_rates[epoch]), repr(loss),
         repr(history.val_cindex[epoch])]
        for epoch, loss in enumerate(history.train_loss)
    ]
    _write_rows(path, header, rows, comment)


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

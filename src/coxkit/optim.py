"""Training of risk networks: SGD with Nesterov momentum or Adam, inverse
time learning-rate decay, global-norm gradient clipping, k-fold splitting,
and random hyperparameter search scored by cross-validated C-index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from coxkit.data import SurvivalDataset, sort_view, usable_cpus
from coxkit.metrics import concordance_index
from coxkit.riskmlp import (
    ACTIVATIONS,
    NetworkConfig,
    RiskNetwork,
    backward,
    cox_loss,
    cox_loss_grad,
    forward,
    forward_cached,
    init_network,
)


class TrainingDiverged(RuntimeError):
    """Raised when training hits a non-finite loss or validation risk."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer choice and schedule for one training run."""

    kind: str = "adam"
    learning_rate: float = 1e-2
    lr_decay_rate: float = 0.0
    momentum: float = 0.9
    clip_norm: float | None = None
    epochs: int = 500
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError("kind must be 'sgd' or 'adam'")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lr_decay_rate < 0:
            raise ValueError("lr_decay_rate must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive when set")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 when set")


@dataclass
class TrainingHistory:
    """Per-epoch training loss and, when a validation set is given, C-index."""

    train_loss: list[float] = field(default_factory=list)
    val_cindex: list[float] | None = None
    learning_rates: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for random hyperparameter search.

    Integer ranges are inclusive; `learning_rate` is sampled log-uniformly,
    everything else uniformly.
    """

    hidden_layers: tuple[int, int] = (1, 3)
    nodes_per_layer: tuple[int, int] = (4, 64)
    activations: tuple[str, ...] = ("relu", "selu")
    dropout: tuple[float, float] = (0.0, 0.7)
    l2: tuple[float, float] = (0.0, 20.0)
    learning_rate: tuple[float, float] = (1e-5, 1e-1)
    lr_decay: tuple[float, float] = (1e-5, 1e-2)
    momentum: tuple[float, float] = (0.8, 0.95)

    def __post_init__(self):
        ranges = [f.name for f in fields(self) if f.name != "activations"]
        for name in ranges:
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name} range is empty: {low} > {high}")
        if not self.activations or not set(self.activations) <= set(ACTIVATIONS):
            raise ValueError(f"activations must be a non-empty subset of {ACTIVATIONS}")
        # each config rule is an interval, so if both bounds pass, every draw does
        for i in (0, 1):
            NetworkConfig(self.hidden_layers[i], self.nodes_per_layer[i],
                          dropout_rate=self.dropout[i], l2_coefficient=self.l2[i])
            OptimizerConfig(learning_rate=self.learning_rate[i],
                            lr_decay_rate=self.lr_decay[i], momentum=self.momentum[i])


def lr_at_epoch(lr0: float, epoch: int, decay_rate: float) -> float:
    """Inverse time decay: lr0 / (1 + epoch * decay_rate)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 / (1.0 + epoch * decay_rate)


def clip_gradients(grads: list[np.ndarray], clip_norm: float) -> list[np.ndarray]:
    """Scale all gradients jointly so their global L2 norm is <= clip_norm."""
    total = np.sqrt(sum(float((g**2).sum()) for g in grads))
    if total <= clip_norm or total == 0.0:
        return grads
    scale = clip_norm / total
    return [g * scale for g in grads]


class _SgdNesterov:
    def __init__(self, params, momentum):
        self.momentum = momentum
        self.velocity = np.zeros_like(params)

    def step(self, params, grad, lr):
        v = self.velocity
        v *= self.momentum
        v += grad
        params -= lr * (grad + self.momentum * v)


class _Adam:
    """Adam with the published defaults (Kingma & Ba 2015)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params, grad, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        params -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _make_optimizer(params, cfg: OptimizerConfig):
    """The optimizer of `cfg` for the flat parameter vector `params`."""
    if cfg.kind == "sgd":
        return _SgdNesterov(params, cfg.momentum)
    return _Adam(params)


def _flatten_parameters(net: RiskNetwork) -> np.ndarray:
    """Copy the weights and biases into one float64 vector, in
    `net.weights + net.biases` order, and rebind them to views of it.

    The optimizers step the whole vector with one set of ufunc calls; every
    operation is elementwise, so each parameter gets the same floats as a
    step of its own array would give.
    """
    arrays = net.weights + net.biases
    flat = np.concatenate(arrays, axis=None)
    ends = np.cumsum([a.size for a in arrays])
    views = [part.reshape(a.shape) for part, a in zip(np.split(flat, ends[:-1]), arrays)]
    net.weights, net.biases = views[: len(net.weights)], views[len(net.weights) :]
    return flat


def _derive_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _validate(net: RiskNetwork, val_ds: SurvivalDataset, epoch: int) -> float:
    """The validation C-index of `net` after `epoch`; TrainingDiverged on a
    non-finite validation risk."""
    risks = forward(net, val_ds.covariates)
    if not np.all(np.isfinite(risks)):
        raise TrainingDiverged(f"non-finite validation risks at epoch {epoch}")
    return concordance_index(val_ds.times, val_ds.events, risks)


def train(
    train_ds: SurvivalDataset,
    net_config: NetworkConfig,
    opt_config: OptimizerConfig,
    val_ds: SurvivalDataset | None = None,
) -> tuple[RiskNetwork, TrainingHistory]:
    """Gradient-train a risk network on the negative log partial likelihood.

    Full-batch by default, so each epoch's risk sets span the whole training
    set; `batch_size` switches to within-batch risk sets, a biased
    approximation. Deterministic for fixed seeds. Raises TrainingDiverged on
    a non-finite loss or validation risk, naming the epoch. With `val_ds`,
    each epoch's validation C-index is taken from the network's risks on it,
    in this process, after the epoch trains.
    """
    if train_ds.n_events == 0:
        raise ValueError("no observed events")
    init_seed, dropout_seed, batch_seed = _derive_seeds(opt_config.seed, 3)
    net = init_network(net_config, train_ds.d, init_seed)
    dropout_rng = np.random.default_rng(dropout_seed)
    batch_rng = np.random.default_rng(batch_seed)
    full_view = sort_view(train_ds)
    l2 = net_config.l2_coefficient
    params = _flatten_parameters(net)
    optimizer = _make_optimizer(params, opt_config)
    history = TrainingHistory(val_cindex=None if val_ds is None else [])

    for epoch in range(opt_config.epochs):
        lr = lr_at_epoch(opt_config.learning_rate, epoch, opt_config.lr_decay_rate)
        if opt_config.batch_size is None:
            batches = [(train_ds, full_view)]
        else:
            order = batch_rng.permutation(train_ds.n)
            batches = []
            for start in range(0, train_ds.n, opt_config.batch_size):
                part = train_ds.subset(order[start : start + opt_config.batch_size])
                if part.n_events == 0:
                    continue
                batches.append((part, sort_view(part)))
            if not batches:
                raise TrainingDiverged(f"epoch {epoch}: every batch lost its events")

        epoch_loss = 0.0
        for batch_ds, batch_view in batches:
            risks, cache = forward_cached(net, batch_ds.covariates, dropout_rng)
            loss = cox_loss(risks, batch_ds, batch_view, l2, net)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            d_risk = cox_loss_grad(risks, batch_ds, batch_view)
            grads = backward(net, cache, d_risk, l2)
            if opt_config.clip_norm is not None:
                grads = clip_gradients(grads, opt_config.clip_norm)
            optimizer.step(params, np.concatenate(grads, axis=None), lr)
            epoch_loss += loss * batch_ds.n

        history.train_loss.append(epoch_loss / sum(b.n for b, _ in batches))
        history.learning_rates.append(lr)
        if val_ds is not None:
            history.val_cindex.append(_validate(net, val_ds, epoch))
    return net, history


def kfold(
    ds: SurvivalDataset, k: int, seed: int
) -> list[tuple[SurvivalDataset, SurvivalDataset]]:
    """Deterministic k-fold partition into (train, holdout) dataset pairs.

    Holdouts are disjoint, exhaustive, and their sizes differ by at most one.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if ds.n < k:
        raise ValueError(f"need at least k={k} patients, have {ds.n}")
    order = np.random.default_rng(seed).permutation(ds.n)
    folds = np.array_split(order, k)
    pairs = []
    for i, holdout in enumerate(folds):
        rest = np.concatenate([f for j, f in enumerate(folds) if j != i])
        pairs.append((ds.subset(rest), ds.subset(holdout)))
    return pairs


def sample_configuration(
    space: SearchSpace, rng: np.random.Generator, optimizer_kind: str
) -> tuple[NetworkConfig, dict]:
    """Draw one configuration; the sampling order is fixed for determinism."""
    net = NetworkConfig(
        hidden_layers=int(rng.integers(space.hidden_layers[0], space.hidden_layers[1] + 1)),
        nodes_per_layer=int(
            rng.integers(space.nodes_per_layer[0], space.nodes_per_layer[1] + 1)
        ),
        activation=str(rng.choice(list(space.activations))),
        dropout_rate=float(rng.uniform(*space.dropout)),
        l2_coefficient=float(rng.uniform(*space.l2)),
    )
    opt = {
        "kind": optimizer_kind,
        "learning_rate": float(
            np.exp(rng.uniform(np.log(space.learning_rate[0]), np.log(space.learning_rate[1])))
        ),
        "lr_decay_rate": float(rng.uniform(*space.lr_decay)),
        "momentum": float(rng.uniform(*space.momentum)),
    }
    return net, opt


# The k-fold (train, holdout) pairs of the search a worker process serves,
# set once per worker by `_init_worker`.
_worker_folds: list[tuple[SurvivalDataset, SurvivalDataset]] = []


# The thread-count functions of each OpenBLAS build numpy ships with or links:
# a distribution's shared OpenBLAS, numpy 1.x wheels' ILP64 `libopenblas64_`
# and numpy 2.x wheels' `libscipy_openblas64_`.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _cap_blas_threads(limit: int) -> None:
    """Cap the OpenBLAS that numpy links at `limit` threads.

    OpenBLAS sizes its thread pool for the whole machine when it loads. Its
    multithreaded kernels sum in another order at some shapes, so the floats
    a command writes would depend on the host's CPU count, and forked workers
    that each keep the pool run more BLAS threads than there are CPUs. The
    library is found through numpy's linear-algebra extension: reopening a
    loaded object returns its handle, and a symbol looked up there is
    searched in the object and the libraries it depends on, whatever their
    file names. No procfs is needed. A copy of OpenBLAS another library
    loads is left as it is, and so are other BLAS libraries.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            getattr(lib, set_name)(min(getattr(lib, get_name)(), limit))


def _init_worker(pairs) -> None:
    global _worker_folds
    _worker_folds = pairs
    _cap_blas_threads(1)


def _score_fold(
    net_config: NetworkConfig, opt_config: OptimizerConfig, fold: int
) -> tuple[float, str | None]:
    """(holdout C-index, None) of one configuration trained on one fold, in a
    worker; a divergent fold, or a holdout with no comparable pair, gives
    (0, its error as `type: message`).
    """
    fold_train, fold_holdout = _worker_folds[fold]
    try:
        net, _ = train(fold_train, net_config, opt_config)
        risks = forward(net, fold_holdout.covariates)
        return float(concordance_index(fold_holdout.times, fold_holdout.events, risks)), None
    except (TrainingDiverged, ValueError) as exc:
        return 0.0, f"{type(exc).__name__}: {exc}"


def random_search(
    space: SearchSpace,
    ds: SurvivalDataset,
    k: int = 3,
    n_trials: int = 10,
    seed: int = 0,
    epochs: int = 200,
    optimizer_kind: str = "adam",
) -> tuple[NetworkConfig, OptimizerConfig, list[dict], int]:
    """Random search scored by mean k-fold validation C-index.

    Folds are fixed across trials; each trial trains one sampled
    configuration per fold and is scored by the mean holdout C-index of the
    final-epoch networks. Divergent or degenerate folds score 0, with their
    error in the trial's `fold_errors` (None for a fold that scored), so
    unattended searches keep going. Ties go to the earlier trial. Returns the
    winner's network and optimizer configs, every trial, and the winner's index.

    The trial x fold trainings run in forked worker processes, one per CPU
    the process may run on (`data.usable_cpus`, so `taskset` limits them)
    and at most one per training; each worker caps OpenBLAS at one
    thread. Every training has its own seed and
    the scores are collected in submission order, so the results do not
    depend on how many workers there are. The workers are joined before this
    returns; an unexpected error in a training propagates with its type.
    The search needs Linux: elsewhere it raises RuntimeError.
    """
    import concurrent.futures
    import multiprocessing

    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not hasattr(os, "sched_getaffinity"):
        raise RuntimeError(
            "random search needs Linux: it trains in forked worker processes, "
            "one per CPU in the process's affinity mask"
        )
    sample_rng = np.random.default_rng(seed)
    fold_seed, *trial_seeds = _derive_seeds(seed, 1 + n_trials)
    pairs = kfold(ds, k, fold_seed)

    configs = []
    for index in range(n_trials):
        net_config, opt_params = sample_configuration(space, sample_rng, optimizer_kind)
        opt_config = OptimizerConfig(epochs=epochs, seed=trial_seeds[index], **opt_params)
        configs.append((net_config, opt_config))
    jobs = [(net, opt, fold) for net, opt in configs for fold in range(k)]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(usable_cpus(), len(jobs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(pairs,),
    ) as pool:
        scores, errors = zip(*pool.map(_score_fold, *zip(*jobs)))

    trials = []
    for index, (net_config, opt_config) in enumerate(configs):
        fold_scores = list(scores[index * k : (index + 1) * k])
        trials.append(
            {
                "trial": index,
                "network": net_config,
                "optimizer": opt_config,
                "fold_cindex": fold_scores,
                "fold_errors": list(errors[index * k : (index + 1) * k]),
                "mean_cindex": float(np.mean(fold_scores)),
            }
        )

    best = max(trials, key=lambda t: (t["mean_cindex"], -t["trial"]))
    return best["network"], best["optimizer"], trials, best["trial"]

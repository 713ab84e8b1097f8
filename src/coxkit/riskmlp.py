"""Deep Cox risk network: a multilayer perceptron whose single output node
estimates a patient's log-risk, trained on the negative log partial
likelihood.

Forward, loss, and gradients are hand-derived numpy; no autodiff. The loss
and its gradient with respect to the per-patient risks come from the Breslow
risk-set sums in `coxkit.riskset`, O(n) after sorting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from coxkit.data import SortedSurvivalView, SurvivalDataset
from coxkit.riskset import breslow

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

ACTIVATIONS = ("relu", "selu")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and regularization of the risk network."""

    hidden_layers: int = 1
    nodes_per_layer: int = 8
    activation: str = "selu"
    dropout_rate: float = 0.0
    l2_coefficient: float = 0.0

    def __post_init__(self):
        if self.hidden_layers < 1:
            raise ValueError("hidden_layers must be >= 1")
        if self.nodes_per_layer < 1:
            raise ValueError("nodes_per_layer must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.l2_coefficient < 0.0:
            raise ValueError("l2_coefficient must be non-negative")


@dataclass
class RiskNetwork:
    """Layer weights/biases; the final layer maps to one output node."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: NetworkConfig

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias width must match weight columns")
        dims = [w.shape for w in self.weights]
        for (_, out_prev), (in_next, _) in zip(dims, dims[1:]):
            if out_prev != in_next:
                raise ValueError("layer dimensions do not chain")
        if dims[-1][1] != 1:
            raise ValueError("final layer must map to a single output node")
        hidden = [out for _, out in dims[:-1]]
        if hidden != [self.config.nodes_per_layer] * self.config.hidden_layers:
            raise ValueError("hidden layer widths must match the network config")
        if not all(np.all(np.isfinite(a)) for a in (*self.weights, *self.biases)):
            raise ValueError("weights and biases must be finite")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "RiskNetwork":
        return RiskNetwork(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            config=self.config,
        )


@dataclass(frozen=True)
class LossGradients:
    """Gradient of the loss with respect to all parameters."""

    weight_grads: list[np.ndarray] = field(default_factory=list)
    bias_grads: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class ForwardCache:
    """Intermediates of one train-mode forward pass, reused by backward.

    `derivatives[k]` is the activation's derivative at `pre_activations[k]`,
    computed in the same pass as the activation, so backward never
    re-evaluates it. `dropout_masks[k]` is the boolean mask of retained units
    (None without dropout); retained units are scaled by 1/(1-p) after it.
    """

    layer_inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    derivatives: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]


def init_network(config: NetworkConfig, d: int, seed: int) -> RiskNetwork:
    """Glorot-style symmetric uniform weights, zero biases, per-seed deterministic."""
    if d < 1:
        raise ValueError("input width must be >= 1")
    rng = np.random.default_rng(seed)
    dims = [d] + [config.nodes_per_layer] * config.hidden_layers + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return RiskNetwork(weights=weights, biases=biases, config=config)


def _activate(
    z: np.ndarray, kind: str, grad: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Activation of the pre-activations `z`, and with `grad` its derivative.

    Returns `(h, dh/dz)`, the derivative None without `grad`. Branch-free, so
    the cost does not depend on the signs of `z`:

        relu(z) = max(z, 0)                           relu'(z) = [z > 0]
        selu(z) = λ·(max(z, 0) + α·expm1(min(z, 0)))
        selu'(z) = λ·([z > 0] + [z <= 0]·α·exp(min(z, 0)))

    Each entry adds an exact 0 or multiplies by an exact 0 or 1, so the floats
    equal the two-branch definitions (Klambauer et al. 2017).
    """
    h = np.maximum(z, 0.0)
    if kind == "relu":
        return h, (z > 0.0) if grad else None
    neg = np.minimum(z, 0.0)
    deriv = None
    if grad:
        pos = z > 0.0
        deriv = np.exp(neg)
        deriv *= SELU_ALPHA
        deriv *= ~pos
        deriv += pos
        deriv *= SELU_LAMBDA
    np.expm1(neg, out=neg)
    neg *= SELU_ALPHA
    h += neg
    h *= SELU_LAMBDA
    return h, deriv


def _run_forward(net, x, train, rng):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != net.input_dim:
        raise ValueError(f"input has {x.shape[1]} columns, network expects {net.input_dim}")
    p = net.config.dropout_rate
    inputs, pre_acts, derivs, masks = [], [], [], []
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w
        z += b
        h, deriv = _activate(z, net.config.activation, grad=train)
        mask = None
        if train and p > 0.0:
            mask = rng.random(h.shape) >= p
            h *= mask
            h *= 1.0 / (1.0 - p)
        if train:
            inputs.append(a)
            pre_acts.append(z)
            derivs.append(deriv)
            masks.append(mask)
        a = h
    inputs.append(a)
    out = a @ net.weights[-1]
    out += net.biases[-1]
    return out[:, 0], ForwardCache(inputs, pre_acts, derivs, masks)


def forward(
    net: RiskNetwork, x, mode: str = "infer", dropout_rng=None
) -> np.ndarray:
    """Predicted risks for the rows of `x`.

    Train mode applies inverted dropout to hidden activations (retained units
    scaled by 1/(1-p)); infer mode is deterministic.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    rng = np.random.default_rng(dropout_rng) if mode == "train" else None
    risks, _ = _run_forward(net, x, mode == "train", rng)
    return risks


def forward_cached(
    net: RiskNetwork, x, dropout_rng=None
) -> tuple[np.ndarray, ForwardCache]:
    """Train-mode forward that also returns the cache `backward` needs."""
    rng = np.random.default_rng(dropout_rng)
    return _run_forward(net, x, True, rng)


def _breslow(risks, ds, view, weights):
    risks = np.asarray(risks, dtype=float)
    if risks.shape != (ds.n,):
        raise ValueError("risks length must match dataset size")
    if ds.n_events == 0:
        raise ValueError("batch has no observed events")
    perm = view.permutation
    return breslow(risks[perm], ds.events[perm], view.tie_groups, weights=weights)


def cox_loss(
    risks,
    ds: SurvivalDataset,
    view: SortedSurvivalView,
    l2_coefficient: float = 0.0,
    net: RiskNetwork | None = None,
) -> float:
    """Negative log partial likelihood of the risks, plus l2 * sum(weights^2).

    Risk sets are formed within the supplied dataset (the batch), with
    Breslow handling of ties; finite risks give a finite loss.
    """
    loss = -_breslow(risks, ds, view, weights=False)[0]
    if l2_coefficient > 0.0:
        if net is None:
            raise ValueError("l2 penalty requires the network")
        loss += l2_coefficient * sum(float((w**2).sum()) for w in net.weights)
    return loss


def cox_loss_grad(risks, ds: SurvivalDataset, view: SortedSurvivalView) -> np.ndarray:
    """d(loss)/d(risk_k), in original patient order.

    Patient k appears in the denominator of every event at a time <= its own,
    so the gradient is its at-risk weight minus its event indicator.
    """
    out = np.empty(ds.n)
    out[view.permutation] = _breslow(risks, ds, view, weights=True)[1]
    return out - ds.events


def backward(
    net: RiskNetwork,
    cache: ForwardCache,
    d_risk: np.ndarray,
    l2_coefficient: float = 0.0,
) -> LossGradients:
    """Backpropagate d(loss)/d(risk) through the cached forward pass.

    Adds the weight-decay term 2 * l2 * W to every weight gradient (biases
    are not penalized). The cache must come from `forward_cached` on the same
    inputs and network: each hidden layer's gradient is scaled by its cached
    dropout mask and 1/(1-p), then by its cached activation derivative, with
    no activation re-evaluated here.
    """
    d_risk = np.asarray(d_risk, dtype=float)
    n_layers = len(net.weights)
    if len(cache.layer_inputs) != n_layers:
        raise ValueError("cache does not match network depth")
    if d_risk.shape != (cache.layer_inputs[0].shape[0],):
        raise ValueError("d_risk length must match cached batch size")

    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    g = d_risk[:, None]
    weight_grads[-1] = cache.layer_inputs[-1].T @ g + 2.0 * l2_coefficient * net.weights[-1]
    bias_grads[-1] = g.sum(axis=0)
    g = g @ net.weights[-1].T
    for layer in range(n_layers - 2, -1, -1):
        # g is a fresh matmul product, so it can be scaled in place
        mask = cache.dropout_masks[layer]
        if mask is not None:
            g *= mask
            g *= 1.0 / (1.0 - net.config.dropout_rate)
        g *= cache.derivatives[layer]
        weight_grads[layer] = (
            cache.layer_inputs[layer].T @ g + 2.0 * l2_coefficient * net.weights[layer]
        )
        bias_grads[layer] = g.sum(axis=0)
        if layer > 0:
            g = g @ net.weights[layer].T
    return LossGradients(weight_grads=weight_grads, bias_grads=bias_grads)


def to_dict(net: RiskNetwork) -> dict:
    """JSON-ready payload: config plus row-major weight/bias arrays per layer."""
    return {
        "config": asdict(net.config),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }


def from_dict(payload: dict) -> RiskNetwork:
    config = NetworkConfig(**payload["config"])
    weights = [np.asarray(layer["weights"], dtype=float) for layer in payload["layers"]]
    biases = [np.asarray(layer["bias"], dtype=float) for layer in payload["layers"]]
    return RiskNetwork(weights=weights, biases=biases, config=config)

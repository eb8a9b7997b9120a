"""Tiny float64 MLPs with manual backprop and a grouped Adam optimizer.

Each network keeps its parameters in one buffer, ``W0, b0, W1, b1, ...``, with
an explicit backbone/head split (by default the final linear layer is the head,
the buffer's suffix) so two-stage finetuning can freeze heads bitwise and scale
the backbone learning rate. Everything is float64 and purely numpy, which
keeps runs bitwise reproducible for a fixed seed and batch stream.
"""

from dataclasses import dataclass

import numpy as np

from .io_envelope import EnvelopeError, read_envelope, write_envelope

CKPT_MAGIC = b"ORCK"
CKPT_VERSION = 1

ACTIVATIONS = ("relu", "tanh")
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _n_params(layer_sizes) -> int:
    """Parameter count of the layers chained by ``layer_sizes``, two or more positive ints."""
    if len(layer_sizes) < 2 or not all(isinstance(s, (int, np.integer)) and type(s) is not bool
                                       and s > 0 for s in layer_sizes):
        raise ValueError(f"layer_sizes {list(layer_sizes)} must be two or more positive integers")
    return sum((d_in + 1) * d_out for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def _split(flat: np.ndarray, layer_sizes):
    """Per-layer (weights, biases) views into a ``W0, b0, W1, b1, ...`` buffer."""
    weights, biases, k = [], [], 0
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[k:k + d_in * d_out].reshape(d_in, d_out))
        k += d_in * d_out
        biases.append(flat[k:k + d_out])
        k += d_out
    return weights, biases


class Mlp:
    """Stack of linear layers with relu/tanh on hidden layers, identity output.

    Built from ``layer_sizes`` and a copy of their flat ``params`` buffer;
    ``weights`` and ``biases`` are views into it. ``split_point`` is the index
    of the first head layer; layers below it are the backbone, and the head is
    ``params[head_start:]``. ``version`` increments on every parameter update
    and is used to detect stale caches.
    """

    def __init__(self, layer_sizes, params, activation: str, split_point: int | None = None,
                 init_seed: int = 0):
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        size = _n_params(layer_sizes)
        n = len(layer_sizes) - 1
        self.split_point = n - 1 if split_point is None else int(split_point)
        if not (self.split_point == 0 if n == 1 else 0 < self.split_point < n):
            raise ValueError(f"split_point {split_point} out of range for {n} layers")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.params = np.array(params, dtype=np.float64)
        if self.params.shape != (size,):
            raise ValueError(f"params has shape {self.params.shape}, but layer_sizes "
                             f"{self.layer_sizes} need ({size},)")
        self.weights, self.biases = _split(self.params, self.layer_sizes)
        self.head_start = size - _n_params(self.layer_sizes[self.split_point:])
        self.activation = activation
        self.init_seed = int(init_seed)
        self.version = 0

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    def head_params(self):
        """Flat copy of head parameters, for bitwise freeze checks."""
        return self.params[self.head_start:].copy()

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.params, self.activation, self.split_point, self.init_seed)

    def __setstate__(self, state):
        """After a pickle round trip or a deep copy, view the new ``params`` again."""
        self.__dict__.update(state)
        self.weights, self.biases = _split(self.params, self.layer_sizes)

    def copy_from(self, other: "Mlp") -> None:
        """In-place parameter copy (target-network sync)."""
        np.copyto(self.params, other.params)
        self.version += 1


def init_mlp(layer_sizes, activation: str = "relu", seed: int = 0,
             split_point: int | None = None) -> Mlp:
    """Uniform fan-in initialization: W, b ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    drawn layer by layer in buffer order, so each W before its b."""
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(-1.0 / np.sqrt(d_in), 1.0 / np.sqrt(d_in), size=(d_in + 1) * d_out)
             for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:])]
    return Mlp(layer_sizes, np.concatenate(draws or [[]]), activation, split_point,
               init_seed=seed)


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Plain forward pass on a (batch, in_dim) array."""
    y, _ = forward_cache(net, x)
    return y


def forward_cache(net: Mlp, x: np.ndarray):
    """Forward pass that also returns the cache needed by :func:`backward`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ValueError(f"input shape {x.shape} does not match (batch, {net.in_dim})")
    inputs = [x]  # activation entering each layer
    pre = []      # pre-activation leaving each layer
    h = x
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        if i < last:
            h = np.tanh(z) if net.activation == "tanh" else np.maximum(z, 0.0)
            inputs.append(h)
        else:
            h = z
    cache = {"inputs": inputs, "pre": pre, "version": net.version}
    return h, cache


def backward(net: Mlp, cache: dict, grad_out: np.ndarray):
    """Exact reverse-mode gradients of the forward map.

    Returns (grads, grad_input) with grads one flat array laid out like
    ``net.params``. The cache must come from a forward pass at the current
    parameter version.
    """
    if cache["version"] != net.version:
        raise ValueError("stale forward cache: parameters changed since the forward pass")
    g = np.asarray(grad_out, dtype=np.float64)
    inputs, pre = cache["inputs"], cache["pre"]
    if g.shape != pre[-1].shape:
        raise ValueError(f"grad_out shape {g.shape} does not match output {pre[-1].shape}")
    grads = np.empty_like(net.params)
    dws, dbs = _split(grads, net.layer_sizes)
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            if net.activation == "tanh":
                g = g * (1.0 - np.tanh(pre[i]) ** 2)
            else:
                g = g * (pre[i] > 0.0)
        np.matmul(inputs[i].T, g, out=dws[i])
        g.sum(axis=0, out=dbs[i])
        g = g @ net.weights[i].T
    return grads, g


@dataclass
class OptimState:
    """Adam accumulators; ``m`` and ``v`` are laid out like the net's ``params``.

    ``lr`` and ``backbone_mult`` are read on every step, so a schedule may set
    them between steps.
    """

    lr: float
    backbone_mult: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        if self.lr < 0 or self.backbone_mult < 0:
            raise ValueError("learning rate and multipliers must be >= 0")


def init_optim(net: Mlp, lr: float, backbone_mult: float = 1.0) -> OptimState:
    return OptimState(lr, backbone_mult, np.zeros_like(net.params), np.zeros_like(net.params))


def apply_update(net: Mlp, grads: np.ndarray, opt: OptimState, freeze_head: bool = False) -> None:
    """One fused Adam step over the parameter buffer.

    The backbone prefix ``params[:head_start]`` steps with
    ``lr * backbone_mult`` and the head with ``lr``. With ``freeze_head`` only
    the backbone is updated, so the head stays bitwise untouched and its
    moments are not advanced. The step size scales linearly in the effective
    learning rate, so a backbone multiplier of 0.1 scales the first backbone
    step by exactly 0.1.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != net.params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match "
                         f"parameter buffer {net.params.shape}")
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    hs = net.head_start
    end = hs if freeze_head else net.params.size
    p, g, m, v = net.params[:end], grads[:end], opt.m[:end], opt.v[:end]
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * g * g
    num = m / bc1
    num[:hs] *= opt.lr * opt.backbone_mult
    num[hs:] *= opt.lr
    p -= num / (np.sqrt(v / bc2) + _EPS)
    net.version += 1


def numeric_gradients(net: Mlp, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-5):
    """Central-difference gradients of J = sum(forward(x) * grad_out).

    Independent of :func:`backward`; used to validate it. Laid out like
    ``net.params``.
    """
    def objective():
        y, _ = forward_cache(net, x)
        return float((y * grad_out).sum())

    p = net.params
    grads = np.zeros_like(p)
    for k in range(p.size):
        orig = p[k]
        p[k] = orig + eps
        up = objective()
        p[k] = orig - eps
        down = objective()
        p[k] = orig
        grads[k] = (up - down) / (2.0 * eps)
    return grads


def max_relative_gradient_error(analytic, numeric) -> float:
    """max |a - n| / max(1, |a|, |n|) over all parameters."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def save_checkpoint(path, nets: dict, extra: dict | None = None) -> None:
    """Write named networks into one envelope file for stage handoffs.

    The payload is each net's ``params`` as little-endian float64, in sorted
    name order.
    """
    order = sorted(nets)
    header_nets = {name: {"layer_sizes": nets[name].layer_sizes,
                          "activation": nets[name].activation,
                          "split_point": nets[name].split_point,
                          "seed": nets[name].init_seed} for name in order}
    header = {"nets": header_nets, "order": order, "extra": extra or {}}
    write_envelope(path, CKPT_MAGIC, CKPT_VERSION, header,
                   (nets[name].params.astype("<f8", copy=False).tobytes() for name in order))


def load_checkpoint(path):
    """Read back (nets, extra); raises EnvelopeError on malformed files."""
    with open(path, "rb") as f:  # small: read whole
        _, header, size = read_envelope(f, CKPT_MAGIC, CKPT_VERSION)
        payload = f.read(size)
    try:
        order = list(header["order"])
        specs = header["nets"]
        extra = dict(header.get("extra", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise EnvelopeError(f"{path}: checkpoint header malformed: {exc}") from exc
    nets = {}
    offset = 0
    for name in order:
        try:
            spec = specs[name]
            end = offset + 8 * _n_params(spec["layer_sizes"])
            nets[name] = Mlp(spec["layer_sizes"], np.frombuffer(payload[offset:end], "<f8"),
                             spec["activation"], int(spec["split_point"]),
                             init_seed=int(spec.get("seed", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise EnvelopeError(f"{path}: net {name!r}: {exc}") from exc
        offset = end
    if offset != len(payload):
        raise EnvelopeError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return nets, extra

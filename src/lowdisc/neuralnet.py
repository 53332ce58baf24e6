"""A deterministic index-to-point map: sinusoidal index encoding feeding a
feed-forward network with ReLU hidden layers and a sigmoid output.

Forward evaluation, hand-rolled reverse-mode gradients, a bias-corrected
Adam step, and a versioned binary model format live here.  Everything is
pure numpy and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODEL_MAGIC = b"LDSMLP01"
MODEL_VERSION = 1
_OUTPUT_EPS = 1e-15  # keeps forward output strictly inside (0, 1)


class ExtrapolationWarning(UserWarning):
    """Issued when a model is evaluated beyond the index range it
    normalized against during training."""


@dataclass(frozen=True)
class EncodingConfig:
    """Sinusoidal index features: the normalized index i/n plus sin/cos
    pairs at dyadic frequencies 2^k pi i/n for k = 0..bands-1."""

    bands: int
    n_norm: int

    def __post_init__(self):
        if self.bands < 1:
            raise ValueError("bands must be >= 1")
        if self.n_norm < 1:
            raise ValueError("n_norm must be >= 1")

    @property
    def width(self) -> int:
        return 1 + 2 * self.bands


def encode_indices(cfg: EncodingConfig, indices) -> np.ndarray:
    t = np.asarray(indices, dtype=np.float64) / cfg.n_norm
    cols = [t]
    for k in range(cfg.bands):
        arg = (2.0**k) * np.pi * t
        cols.append(np.sin(arg))
        cols.append(np.cos(arg))
    return np.stack(cols, axis=1)


def encode_index(cfg: EncodingConfig, i: int) -> np.ndarray:
    return encode_indices(cfg, [i])[0]


@dataclass
class MlpModel:
    """Layer weights plus the encoding that feeds them.

    ``weights[l]`` has shape (fan_in, fan_out); ReLU follows every layer but
    the last, which is squashed by a sigmoid.  ``meta`` carries training
    provenance (dimension, training length, loss family, burn-in, seed).
    """

    encoding: EncodingConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def params(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order (weight, bias per layer)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params()]

    def load_params(self, params: list[np.ndarray]) -> None:
        for dst, src in zip(self.params(), params):
            dst[...] = src


def init_mlp(
    encoding: EncodingConfig,
    out_dim: int,
    hidden: int,
    layers: int,
    seed: int,
) -> MlpModel:
    """Seeded Xavier-uniform init: weights in +/- sqrt(6/(fan_in+fan_out))."""
    if layers < 1:
        raise ValueError("layers must be >= 1")
    dims = [encoding.width] + [hidden] * (layers - 1) + [out_dim]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        encoding=encoding,
        weights=weights,
        biases=biases,
        meta={"seed": seed, "hidden": hidden, "layers": layers},
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_encoded(model: MlpModel, enc: np.ndarray):
    """Returns (points, activations); activations[l] is the input of layer l."""
    acts = [enc]
    h = enc
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if l < last:
            h = np.maximum(z, 0.0)
        else:
            h = _sigmoid(z)
        acts.append(h)
    points = np.clip(h, _OUTPUT_EPS, 1.0 - _OUTPUT_EPS)
    return points, acts


def forward(model: MlpModel, indices) -> np.ndarray:
    """Batch evaluation of the index-to-point map; pure and deterministic."""
    idx = np.asarray(indices)
    if idx.size and int(idx.max()) > model.encoding.n_norm:
        warnings.warn(
            f"evaluating indices up to {int(idx.max())} beyond the trained "
            f"normalization length {model.encoding.n_norm}",
            ExtrapolationWarning,
            stacklevel=2,
        )
    enc = encode_indices(model.encoding, idx)
    return _forward_encoded(model, enc)[0]


def _backward_encoded(model: MlpModel, acts, upstream: np.ndarray):
    """Reverse-mode gradients given cached activations.

    ReLU takes subgradient 0 at kinks; the sigmoid derivative uses the
    activation value s(1-s).
    """
    grads: list[np.ndarray] = [None] * (2 * len(model.weights))
    s = acts[-1]
    delta = upstream * s * (1.0 - s)
    for l in range(len(model.weights) - 1, -1, -1):
        a_in = acts[l]
        grads[2 * l] = a_in.T @ delta
        grads[2 * l + 1] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l].T) * (acts[l] > 0.0)
    return grads


def backward(model: MlpModel, indices, upstream) -> list[np.ndarray]:
    """Gradient of sum(upstream * forward(indices)) in every parameter.

    Returned arrays follow the ``MlpModel.params()`` ordering.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    enc = encode_indices(model.encoding, indices)
    _, acts = _forward_encoded(model, enc)
    if upstream.shape != acts[-1].shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"output shape {acts[-1].shape}"
        )
    return _backward_encoded(model, acts, upstream)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """First/second moment buffers shaped like the parameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **kwargs,
        )


def adam_step(state: AdamState, params, grads, lr: float) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    for l, g in enumerate(grads):
        if not np.isfinite(g).all():
            kind = "weights" if l % 2 == 0 else "bias"
            raise ValueError(f"non-finite gradient in layer {l // 2} {kind}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# model files

_HEADER = struct.Struct("<8sIIQQqI8s")
# magic, version, bands, n_norm, burn_in, seed, n_layers, loss_family


def save_model(model: MlpModel, path) -> None:
    """Versioned binary container plus a human-readable ``.meta`` sidecar."""
    path = Path(path)
    meta = model.meta
    family = str(meta.get("loss_family", ""))[:8]
    header = _HEADER.pack(
        MODEL_MAGIC,
        MODEL_VERSION,
        model.encoding.bands,
        model.encoding.n_norm,
        int(meta.get("burn_in", 0)),
        int(meta.get("seed", -1)),
        len(model.weights),
        family.encode().ljust(8, b"\0"),
    )
    dims = np.asarray(model.layer_dims, dtype="<u4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dims.tobytes())
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    sidecar = path.with_name(path.name + ".meta")
    lines = [f"{key}: {value}" for key, value in sorted(meta.items(), key=lambda kv: kv[0])]
    lines += [
        f"bands: {model.encoding.bands}",
        f"n_norm: {model.encoding.n_norm}",
        f"layer_dims: {','.join(map(str, model.layer_dims))}",
    ]
    sidecar.write_text("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    """Read a model file; every malformed file raises a ``ValueError`` naming it."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated model file")
    magic, version, bands, n_norm, burn_in, seed, n_layers, family = _HEADER.unpack_from(data)
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    if min(bands, n_norm, n_layers) < 1:
        raise ValueError(f"{path}: bands {bands}, n_norm {n_norm} and n_layers {n_layers} must all be >= 1")
    try:
        family = family.rstrip(b"\0").decode()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: loss family {family!r} is not UTF-8") from None
    offset = _HEADER.size + 4 * (n_layers + 1)
    if len(data) < offset:
        raise ValueError(f"{path}: truncated model file (no room for {n_layers + 1} layer widths)")
    dims = np.frombuffer(data, dtype="<u4", count=n_layers + 1, offset=_HEADER.size).tolist()
    if dims[0] != 1 + 2 * bands or min(dims) < 1:
        raise ValueError(
            f"{path}: layer widths {dims} must be >= 1 and start with the "
            f"encoding width 1 + 2 * bands = {1 + 2 * bands}"
        )
    size = offset + 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if len(data) != size:
        problem = "truncated model file" if len(data) < size else "trailing bytes after the last layer"
        raise ValueError(f"{path}: {problem} ({len(data)} bytes, the layer widths need {size})")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(np.frombuffer(data, "<f8", fan_in * fan_out, offset).reshape(fan_in, fan_out).copy())
        offset += 8 * fan_in * fan_out
        biases.append(np.frombuffer(data, "<f8", fan_out, offset).copy())
        offset += 8 * fan_out
    if not all(np.isfinite(p).all() for p in weights + biases):
        raise ValueError(f"{path}: non-finite parameters")
    meta = {
        "burn_in": burn_in,
        "seed": seed,
        "loss_family": family,
        "hidden": int(dims[1]) if n_layers > 1 else int(dims[-1]),
        "layers": n_layers,
    }
    return MlpModel(
        encoding=EncodingConfig(bands=bands, n_norm=n_norm),
        weights=weights,
        biases=biases,
        meta=meta,
    )

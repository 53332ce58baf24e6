"""A deterministic index-to-point map: sinusoidal index encoding feeding a
feed-forward network with ReLU hidden layers and a sigmoid output.

Forward evaluation, hand-rolled reverse-mode gradients, a bias-corrected
Adam step, and a versioned binary model format live here.  Everything is
pure numpy and bit-reproducible for a fixed seed.

The forward and backward write into a :class:`Workspace`: one buffer per
layer that holds its pre-activation and then, rectified in place, its
activation, plus the deltas, ReLU masks and gradients of the backward.  A
training stage makes one workspace and reuses it every epoch; Adam updates
in place with scratch kept in its :class:`AdamState`.  The public
:func:`forward` and :func:`backward` use a fresh workspace per call, so
their results are fresh arrays.  Buffered and fresh calls give the same
bits as plain ``h @ w + b`` expressions.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seqcore import _index_array

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

    def copy_params(self, out: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """A copy of the parameters, written into ``out`` when it is given."""
        if out is None:
            return [p.copy() for p in self.params()]
        _check_like("out", out, self.params())
        for dst, src in zip(out, self.params()):
            np.copyto(dst, src)
        return out

    def load_params(self, params: list[np.ndarray]) -> None:
        _check_like("params", params, self.params())
        for dst, src in zip(self.params(), params):
            dst[...] = src


def _check_like(name: str, arrays, params) -> None:
    """A ``ValueError`` naming the first array of ``arrays`` whose count or
    shape does not match ``params`` (weight, bias per layer)."""
    if len(arrays) != len(params):
        raise ValueError(f"{name} holds {len(arrays)} arrays, expected {len(params)}")
    for l, (a, p) in enumerate(zip(arrays, params)):
        if np.shape(a) != p.shape:
            kind = "weights" if l % 2 == 0 else "bias"
            raise ValueError(f"{name}[{l}] (layer {l // 2} {kind}) has shape {np.shape(a)}, expected {p.shape}")


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


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Workspace(list):
    """The buffers of one forward and backward over ``n`` rows.

    The list itself holds the activations: ``ws[l]`` is the input of layer
    l (``ws[0]`` the encoded indices, set by each forward) and ``ws[-1]``
    the sigmoid output.  The backward's deltas, masks and gradients are made
    by its first call.  Reusing a workspace overwrites what it returned.
    """

    def __init__(self, model: MlpModel, n: int):
        super().__init__([None] + [np.empty((n, w.shape[1])) for w in model.weights])
        self.z = np.empty((n, model.out_dim))  # output pre-activation, then backward scratch
        self.points = np.empty((n, model.out_dim))
        self.grads = None

    def backward_buffers(self, model: MlpModel):
        """(deltas, masks, grads): ``deltas[l]`` and ``masks[l]`` are shaped
        like layer l's output, ``grads`` like ``model.params()``."""
        if self.grads is None:
            self.deltas = [np.empty_like(a) for a in self[1:]]
            self.masks = [np.empty(a.shape, dtype=bool) for a in self[1:-1]]
            self.grads = [np.empty_like(p) for p in model.params()]
        return self.deltas, self.masks, self.grads


def _forward_encoded(model: MlpModel, enc: np.ndarray, ws: Workspace | None = None):
    """Returns (points, activations), both held by ``ws`` (a fresh
    workspace if None); activations[l] is the input of layer l."""
    if ws is None:
        ws = Workspace(model, len(enc))
    ws[0] = enc
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = ws[l + 1] if l < last else ws.z
        np.matmul(ws[l], w, out=z)
        z += b
        if l < last:
            np.maximum(z, 0.0, out=z)
        else:
            _sigmoid(z, out=ws[-1])
    np.clip(ws[-1], _OUTPUT_EPS, 1.0 - _OUTPUT_EPS, out=ws.points)
    return ws.points, ws


def _encode_checked(model: MlpModel, indices) -> np.ndarray:
    """The encoding of ``indices``, a 1-D array of finite nonnegative
    integers; warns the caller's caller when they reach beyond the trained
    normalization length."""
    idx = _index_array(indices)
    if idx.size and int(idx.max()) > model.encoding.n_norm:
        warnings.warn(
            f"evaluating indices up to {int(idx.max())} beyond the trained "
            f"normalization length {model.encoding.n_norm}",
            ExtrapolationWarning,
            stacklevel=3,
        )
    return encode_indices(model.encoding, idx)


def forward(model: MlpModel, indices) -> np.ndarray:
    """Batch evaluation of the index-to-point map; pure and deterministic.

    ``indices`` must be a 1-D array of finite nonnegative integers.
    """
    return _forward_encoded(model, _encode_checked(model, indices))[0]


def _backward_encoded(model: MlpModel, acts: Workspace, upstream: np.ndarray):
    """Reverse-mode gradients given the workspace of a forward, written to
    its gradient buffers.

    ReLU takes subgradient 0 at kinks; the sigmoid derivative uses the
    activation value s(1-s).
    """
    deltas, masks, grads = acts.backward_buffers(model)
    s = acts[-1]
    delta = deltas[-1]
    np.multiply(upstream, s, out=delta)
    np.subtract(1.0, s, out=acts.z)
    delta *= acts.z
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grads[2 * l])
        delta.sum(axis=0, out=grads[2 * l + 1])
        if l > 0:
            below = deltas[l - 1]
            np.matmul(delta, model.weights[l].T, out=below)
            np.greater(acts[l], 0.0, out=masks[l - 1])
            np.multiply(below, masks[l - 1], out=below)
            delta = below
    return grads


def backward(model: MlpModel, indices, upstream) -> list[np.ndarray]:
    """Gradient of sum(upstream * forward(indices)) in every parameter.

    Indices are checked, and warned about, as in :func:`forward`.
    Returned arrays follow the ``MlpModel.params()`` ordering.
    """
    enc = _encode_checked(model, indices)
    upstream = np.asarray(upstream, dtype=np.float64)
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
    """First/second moment buffers shaped like the parameters, and two
    scratch arrays per parameter, made by the first step."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: list = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def for_params(cls, params, **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **kwargs,
        )


def adam_step(state: AdamState, params, grads, lr: float) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    Every product and quotient is the one of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + ((1 - b2) g) g`` and ``p -= lr (m / c1) / (sqrt(v / c2) +
    eps)``, evaluated into scratch, so the update has the same bits.
    """
    _check_like("grads", grads, params)
    _check_like("Adam moments", state.m, params)
    for l, g in enumerate(grads):
        if not np.isfinite(g).all():
            kind = "weights" if l % 2 == 0 else "bias"
            raise ValueError(f"non-finite gradient in layer {l // 2} {kind}")
    if len(state.scratch) != len(params):
        state.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v, (num, den) in zip(params, grads, state.m, state.v, state.scratch):
        m *= b1
        np.multiply(g, 1.0 - b1, out=num)
        m += num
        v *= b2
        np.multiply(g, 1.0 - b2, out=num)
        num *= g
        v += num
        np.divide(m, c1, out=num)
        num *= lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += state.eps
        num /= den
        p -= num


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
